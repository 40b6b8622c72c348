"""Small exact linear algebra toolkit over `fractions.Fraction`.

Everything in this package that claims exactness funnels through these
routines: reduced row echelon form, rank, null spaces, affine solves and
2x2 matrix algebra.  The global systems (Q, L = Q+Q, the Laplacian and
the black-triangle boundary problem) have a handful of nonzeros per row,
so every matrix handed to the elimination is one format: sparse rows, one
`{column: value}` dict per row with zero entries left out, plus an
explicit column count, which an empty matrix needs to say how many
unknowns it has.  `rref` returns only its pivot rows, in the same format,
and its cost follows the nonzeros and the fill-in, not rows x columns x
rank.  It is the one elimination: `rank`, `nullspace`, `solve_affine`,
`span_equal` and `nullspace_form` read its reduced rows.  Kernel and
particular vectors come back as dense lists, one entry per column, since
every caller reads every coordinate.  The 2x2 holonomy algebra
(`mat_mul`, `inv2`, `det2`, `identity`) stays on dense row-major lists
of lists.

Entries may be ints (the canonical equation matrix is all 1s): `gram`
and `combine` keep them as they are, and so does the elimination until a
pivot other than 1 divides them.  An exact quotient stays an int (a pivot
of -1 negates the row), any other is `Fraction(x, pivot)`, and `/` never
meets two ints.  Entries of any other type become Fractions on the way in,
and every entry `rref` returns, like every value read off its rows, is a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction

Vec = list
Mat = list


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a):
        raise ValueError(f"mat_mul: a row of the left factor is not {k} long")
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            ait = ai[t]
            if ait:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += ait * bt[j]
    return out


def gram(rows: list, cols: int) -> list:
    """a^T a for sparse rows over `cols` columns, as sparse rows: e.g.
    Q+Q from the equation matrix Q."""
    out: list = [{} for _ in range(cols)]
    for row in rows:
        for i, x in row.items():
            oi = out[i]
            for j, y in row.items():
                oi[j] = oi.get(j, 0) + x * y
    return [{j: x for j, x in oi.items() if x} for oi in out]


def combine(*terms) -> list:
    """sum of c * m over (c, m) terms, m sparse rows of equal count;
    zero entries are left out, so equal matrices compare equal with ==."""
    out: list = [{} for _ in terms[0][1]]
    for c, m in terms:
        for oi, row in zip(out, m):
            for j, x in row.items():
                oi[j] = oi.get(j, 0) + c * x
    return [{j: x for j, x in oi.items() if x} for oi in out]


def vec_mat(v: Vec, a: Mat) -> Vec:
    """Row vector times matrix (the right-action convention used throughout)."""
    n, m = len(a), len(a[0])
    if len(v) != n:
        raise ValueError(f"vec_mat: vector of length {len(v)} against {n} rows")
    return [sum((v[i] * a[i][j] for i in range(n)), Fraction(0)) for j in range(m)]


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def mat_pow(a: Mat, k: int) -> Mat:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def det2(a: Mat) -> Fraction:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def inv2(a: Mat) -> Mat:
    d = det2(a)
    if d == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return [[a[1][1] / d, -a[0][1] / d], [-a[1][0] / d, a[0][0] / d]]


def rref(rows: list, cols: int) -> tuple[list, list[int]]:
    """Reduced row echelon form of sparse `rows` over `cols` columns: the
    reduced pivot rows, as `{column: Fraction}` dicts in pivot order, and
    the pivot columns.  `rows` is left untouched.  Int entries stay ints
    while they are eliminated, until a pivot other than 1 divides them
    inexactly; the pivot rows become Fractions once, on the way out.

    Sparse Gauss-Jordan.  Columns are eliminated left to right, so the
    pivot columns and the reduced rows are the unique RREF; among the live
    rows with a nonzero in the column, the pivot is the one with the
    fewest nonzeros (row index breaks ties), which keeps fill-in low on the
    3-nonzero rows of Q.  Back-substitution then clears each pivot column
    from the earlier pivot rows.
    """
    return _reduce(rows, range(cols))


def _reduce(rows: list, order: range) -> tuple[list, list[int]]:
    """`rref` eliminating the columns in `order`, a permutation of them."""
    rows = [{j: x if type(x) is int else frac(x) for j, x in row.items() if x}
            for row in rows]
    incol: list[set] = [set() for _ in order]   # column -> rows with a nonzero
    for i, row in enumerate(rows):
        for j in row:
            incol[j].add(i)
    live = set(range(len(rows)))
    pivots: list[int] = []
    prow: list[int] = []
    for c in order:
        if not live:
            break
        cand = incol[c] & live
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        live.discard(p)
        pr = rows[p]
        pv = pr[c]
        if pv != 1:
            pr = rows[p] = {j: _divide(x, pv) for j, x in pr.items()}
        for i in cand:
            if i != p:
                _eliminate(rows[i], i, pr, c, incol)
        pivots.append(c)
        prow.append(p)
    # Back-substitution, last pivot first.  When pivot k is used its row
    # holds only column c and non-pivot columns, so clearing c from earlier
    # rows leaves the other pivot columns, and their `incol` sets, as they are.
    for k in range(len(pivots) - 1, 0, -1):
        c, p = pivots[k], prow[k]
        for i in incol[c] - {p}:
            _eliminate(rows[i], i, rows[p], c, None)
    return [{j: frac(x) for j, x in rows[p].items()} for p in prow], pivots


def _divide(x, pv):
    """x / pv exactly: an int when both are ints and pv divides x."""
    if type(x) is int and type(pv) is int:
        q, r = divmod(x, pv)
        return Fraction(x, pv) if r else q
    return x / pv


def _eliminate(row: dict, i: int, pivot_row: dict, c: int, incol) -> None:
    """row -= row[c] * pivot_row (pivot_row[c] == 1), dropping zeros and,
    when `incol` is given, keeping its column -> rows index current."""
    f = row[c]
    for j, y in pivot_row.items():
        x = row.get(j, 0) - f * y
        if x:
            if incol is not None and j not in row:
                incol[j].add(i)
            row[j] = x
        elif j in row:
            del row[j]
            if incol is not None:
                incol[j].discard(i)


def rank(rows: list, cols: int) -> int:
    return len(rref(rows, cols)[1])


def nullspace(rows: list, cols: int) -> list[Vec]:
    """Basis of the right null space {x : a x = 0} of sparse rows over
    `cols` columns, one dense vector per free column."""
    return _kernel(*rref(rows, cols), cols)


def _kernel(red: list, pivots: list[int], cols: int) -> list[Vec]:
    """Null space basis of the first `cols` columns of reduced pivot rows:
    one dense vector per free column, pivot columns beyond `cols` ignored."""
    pivset = set(pivots)
    free = {f: [Fraction(0)] * cols for f in range(cols) if f not in pivset}
    for f, v in free.items():
        v[f] = Fraction(1)
    for row, p in zip(red, pivots):
        if p < cols:
            for f, x in row.items():
                if f in free:
                    free[f][p] = -x
    return list(free.values())


def nullspace_form(basis: list[Vec]) -> list[Vec]:
    """The basis `nullspace` returns for the space spanned by `basis`
    (linearly independent vectors of one length), found without the matrix.

    Column f of a reduced matrix is free exactly when some vector of its
    null space has its last nonzero entry at f.  So `rref`'s elimination of
    `basis` from the last column down puts each pivot on a free column, with
    1 there and 0 at the other free columns, as in `nullspace`: read back
    last pivot first, the vectors come out in free-column order.
    """
    if not basis:
        return []
    n = len(basis[0])
    zero = Fraction(0)
    red, _ = _reduce([{j: x for j, x in enumerate(vec) if x} for vec in basis], range(n)[::-1])
    return [[row.get(j, zero) for j in range(n)] for row in reversed(red)]


def solve_affine(rows: list, b: Vec, cols: int) -> tuple[Vec | None, list[Vec]]:
    """Solve a x = b exactly, for sparse rows a over `cols` columns.

    Returns (particular, nullspace_basis); particular is None when the
    system is inconsistent.  Free variables are set to zero in the
    particular solution.  One elimination of [a | b] gives both: its first
    columns are the reduced form of a.
    """
    aug = [{**row, cols: bi} for row, bi in zip(rows, b)]
    red, pivots = rref(aug, cols + 1)
    null = _kernel(red, pivots, cols)
    if cols in pivots:
        return None, null
    x = [Fraction(0)] * cols
    for row, p in zip(red, pivots):
        if cols in row:
            x[p] = row[cols]
    return x, null


def span_equal(b1: list, b2: list, cols: int) -> bool:
    """Exact equality of the spaces spanned by sparse rows b1 and b2 over
    `cols` columns: the reduced row echelon form is unique to the space."""
    return rref(b1, cols)[0] == rref(b2, cols)[0]
