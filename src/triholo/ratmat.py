"""Small exact linear algebra toolkit over `fractions.Fraction`.

Everything in this package that claims exactness funnels through these
routines: reduced row echelon form, rank, null spaces, affine solves and
2x2 matrix algebra.  Matrices are plain row-major lists of lists; no
external dependency is worth the trouble at the system sizes we meet
(a few hundred unknowns at most).
"""

from __future__ import annotations

from fractions import Fraction

Vec = list
Mat = list


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
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
    assert all(len(row) == k for row in a)
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


def gram(a: Mat) -> Mat:
    """a^T a, e.g. Q+Q from the equation matrix Q."""
    return mat_mul([list(col) for col in zip(*a)], a)


def vec_mat(v: Vec, a: Mat) -> Vec:
    """Row vector times matrix (the right-action convention used throughout)."""
    n, m = len(a), len(a[0])
    assert len(v) == n
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


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form of a copy of `a`, with pivot column list."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right null space {x : a x = 0}."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve_affine(a: Mat, b: Vec) -> tuple[Vec | None, list[Vec]]:
    """Solve a x = b exactly.

    Returns (particular, nullspace_basis); particular is None when the
    system is inconsistent.  Free variables are set to zero in the
    particular solution.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None, nullspace(a)
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = red[i][cols]
    return x, nullspace(a)


def span_equal(b1: list[Vec], b2: list[Vec]) -> bool:
    """Exact equality of the subspaces spanned by two row collections."""
    r1 = rank(b1) if b1 else 0
    r2 = rank(b2) if b2 else 0
    if r1 != r2:
        return False
    stacked = [v[:] for v in b1] + [v[:] for v in b2]
    return (rank(stacked) if stacked else 0) == r1
