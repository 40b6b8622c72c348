import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triholo import fixtures, ratmat, simplicial


def dense_rref(a):
    """The dense Gauss-Jordan loop `ratmat.rref` used to run, kept verbatim
    as the reference the sparse elimination must reproduce exactly."""
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


def dense_nullspace(a):
    """Null space from `dense_rref`, built as `ratmat.nullspace` builds it."""
    cols = len(a[0])
    red, pivots = dense_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def dense(rows, cols):
    """Sparse rows as a dense Fraction matrix with `cols` columns."""
    out = [[Fraction(0)] * cols for _ in rows]
    for oi, row in zip(out, rows):
        for j, x in row.items():
            oi[j] = Fraction(x)
    return out


def sparse(a):
    """A dense matrix as sparse rows, zero entries left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def reference_rref(rows, cols):
    """`dense_rref` behind the interface of `ratmat.rref`: sparse rows and a
    column count in; the pivot rows, as sparse dicts, and the pivots out."""
    red, pivots = dense_rref(dense(rows, cols))
    return sparse(red[:len(pivots)]), pivots


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def test_frac_parsing():
    assert ratmat.frac("3/4") == Fraction(3, 4)
    assert ratmat.frac(-2) == Fraction(-2)
    assert ratmat.frac(Fraction(1, 3)) == Fraction(1, 3)


def test_mat_mul_identity_and_inverse():
    rng = random.Random(1)
    m = rand_matrix(rng, 2, 2)
    while ratmat.det2(m) == 0:
        m = rand_matrix(rng, 2, 2)
    assert ratmat.mat_mul(m, ratmat.identity(2)) == m
    assert ratmat.mat_mul(m, ratmat.inv2(m)) == ratmat.identity(2)
    with pytest.raises(ZeroDivisionError):
        ratmat.inv2([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_vec_mat_row_action():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert ratmat.vec_mat([Fraction(2), Fraction(5)], m) == [5, 2]


def test_shape_mismatch_is_a_value_error():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(ValueError, match="not 2 long"):
        ratmat.mat_mul([[Fraction(1)] * 3], m)
    with pytest.raises(ValueError, match="length 3 against 2 rows"):
        ratmat.vec_mat([Fraction(1)] * 3, m)


def test_nullspace_form_from_any_kernel_basis():
    rng = random.Random(8)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        a = [[Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        want = ratmat.nullspace(sparse(a), cols)
        # an invertible mix of the kernel basis: unit lower triangular, rows reversed
        d = len(want)
        mix = [[rng.randint(-4, 4) if j < i else int(i == j) for j in range(d)]
               for i in range(d)]
        mixed = [[sum(mix[i][j] * want[j][c] for j in range(d)) for c in range(cols)]
                 for i in range(d)][::-1]
        got = ratmat.nullspace_form(mixed)
        assert got == want
        assert all(type(x) is Fraction for v in got + want for x in v)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_nullspace_and_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    a = rand_matrix(rng, rows, cols)
    r = ratmat.rank(sparse(a), cols)
    basis = ratmat.nullspace(sparse(a), cols)
    assert r + len(basis) == cols
    for vec in basis:
        for row in a:
            assert sum(x * y for x, y in zip(row, vec)) == 0


def test_rank_matches_sympy():
    import sympy

    rng = random.Random(7)
    for _ in range(15):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a])
        assert ratmat.rank(sparse(a), len(a[0])) == m.rank()


def test_solve_affine_consistency():
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
        b = [sum(row[j] * x_true[j] for j in range(cols)) for row in a]
        x, null = ratmat.solve_affine(sparse(a), b, cols)
        assert x is not None
        for row, bi in zip(a, b):
            assert sum(r * v for r, v in zip(row, x)) == bi
    # inconsistent system
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    x, _ = ratmat.solve_affine(sparse(a), [Fraction(0), Fraction(1)], 2)
    assert x is None


def test_span_equal():
    b1 = sparse([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    b2 = sparse([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]])
    assert ratmat.span_equal(b1, b2, 2)
    assert not ratmat.span_equal(b1, sparse([[Fraction(1), Fraction(0)]]), 2)
    assert ratmat.span_equal([], [], 2)
    assert not ratmat.span_equal(sparse([[Fraction(1), Fraction(2)]]),
                                 sparse([[Fraction(2), Fraction(1)]]), 2)


def test_empty_matrix_keeps_its_column_count():
    """No rows still means `cols` unknowns: every column is free.  The unit
    vectors are what covariant constants and zero modes took as seed pairs
    when no row constrained them, and what a black-triangle solve returned
    with no black triangle among its unknowns."""
    for n in range(6):
        units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for rows in ([], [{}], [{}, {}, {}]):
            assert ratmat.rref(rows, n) == ([], [])
            assert ratmat.rank(rows, n) == 0
            assert ratmat.nullspace(rows, n) == units
            assert ratmat.solve_affine(rows, [0] * len(rows), n) == ([Fraction(0)] * n, units)
            x, null = ratmat.solve_affine(rows, [0] * len(rows), n)
            assert all(type(v) is Fraction for v in x + [y for vec in null for y in vec])
        assert ratmat.span_equal([], [{}], n)
    assert ratmat.nullspace([], 2) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert ratmat.solve_affine([{}], [Fraction(1, 2)], 3) == (None, [[1, 0, 0], [0, 1, 0],
                                                                  [0, 0, 1]])


ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=5))
# Int entries with unit and non-unit pivots: -1 divides exactly, 2 and 3 do not.
INT_ENTRIES = st.sampled_from((0, 0, 0, 1, 1, -1, 2, -2, 3))


@st.composite
def q_shaped(draw):
    """Int rows shaped like the canonical Q: each the int 1 on at most three
    columns, so that every pivot is 1 and nothing is ever divided."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    m = [[0] * cols for _ in range(rows)]
    for row in m:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=3)):
            row[j] = 1
    return m, cols


@st.composite
def matrices(draw):
    """Small matrices, often sparse, with repeated rows and rows of zeros
    mixed in so that rank deficiency is common, and their column count
    (which a matrix with no rows cannot carry).  Entries are Fractions, ints,
    or a mix of both; or the matrix is 0/1 rows shaped like Q."""
    kind = draw(st.sampled_from(("fraction", "fraction", "int", "mixed", "q")))
    if kind == "q":
        return draw(q_shaped())
    entries = {"fraction": ENTRIES, "int": INT_ENTRIES,
               "mixed": st.one_of(ENTRIES, INT_ENTRIES)}[kind]
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 7))
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        src, dst = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c = draw(entries)
        m[dst] = [c * x for x in m[src]] if draw(st.booleans()) else [0 * c] * cols
    return m, cols


def fraction_rref(rows, cols):
    """`ratmat.rref` after the coercion its elimination once began with,
    every entry made a Fraction: the oracle for int and mixed entries."""
    return ratmat.rref([{j: ratmat.frac(x) for j, x in row.items() if x} for row in rows],
                       cols)


def assert_same_fractions(got, want):
    """Equal values in equal key order, every value a Fraction, in two lists
    of sparse rows or of dense vectors."""
    def items(rows):
        return [list(r.items()) if isinstance(r, dict) else list(enumerate(r)) for r in rows]

    assert items(got) == items(want)
    assert all(type(x) is Fraction for row in items(got) for _, x in row)


def rref_matches_dense_reference(a, cols):
    """`ratmat.rref` of `a` (dense, `cols` columns, entries ints or
    Fractions) against `dense_rref` of its Fraction copy: the same pivot
    rows, no padding rows, every entry a nonzero Fraction, and the zero rows
    `dense_rref` pads with are all that is left out.  Against the Fraction
    oracle, the rows also come out with their keys in the same order."""
    red, pivots = ratmat.rref(sparse(a), cols)
    assert (red, pivots) == reference_rref(sparse(a), cols)
    assert all(type(x) is Fraction and x for row in red for x in row.values())
    full, want_pivots = dense_rref(dense(sparse(a), cols))
    assert dense(red, cols) + [[Fraction(0)] * cols] * (len(a) - len(red)) == full
    assert pivots == want_pivots
    want_red, want_pivots = fraction_rref(sparse(a), cols)
    assert_same_fractions(red, want_red)
    assert pivots == want_pivots


@settings(max_examples=500, deadline=None)
@given(matrices())
def test_rref_matches_dense_reference(a_cols):
    rref_matches_dense_reference(*a_cols)


def test_rref_matches_dense_reference_seeded():
    rng = random.Random(2024)
    cases = [[], [[]], [[Fraction(0)] * 4 for _ in range(3)],
             [[Fraction(0)] * 3, [Fraction(1, 2), Fraction(0), Fraction(-3, 7)]]]
    for _ in range(600):
        rows, cols = rng.randint(1, 12), rng.randint(1, 6)  # often rows > cols
        density = rng.random()
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < density
              else Fraction(0) for _ in range(cols)] for _ in range(rows)]
        # a combination of two rows, so dependent rows appear in every size
        i, j = rng.randrange(rows), rng.randrange(rows)
        a.append([x + Fraction(rng.randint(-3, 3), 2) * y for x, y in zip(a[i], a[j])])
        cases.append(a)
    for kind in ("q", "int", "mixed") * 200:
        rows, cols = rng.randint(1, 12), rng.randint(1, 7)
        if kind == "q":
            a = [[0] * cols for _ in range(rows)]
            for row in a:
                for j in rng.sample(range(cols), min(3, cols)):
                    row[j] = 1
        else:
            a = [[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(cols)]
                 for _ in range(rows)]
            if kind == "mixed":
                for row in a:
                    j = rng.randrange(cols)
                    row[j] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        i, j = rng.randrange(rows), rng.randrange(rows)
        a.append([x + rng.choice((1, -2, Fraction(1, 2))) * y for x, y in zip(a[i], a[j])])
        cases.append(a)
    for surf in (fixtures.octahedron(), fixtures.torus_lattice(3).surface,
                 fixtures.torus_lattice(4, 1).surface, fixtures.hex_patch(1).surface):
        q = simplicial.q_matrix(surf.triangles, range(surf.num_triangles))
        cases.append(dense(q, surf.num_vertices))
        cases.append([[int(x) for x in row] for row in cases[-1]])
    for a in cases:
        rref_matches_dense_reference(a, len(a[0]) if a else 0)


def test_rref_leaves_input_untouched():
    a = [{0: Fraction(2), 1: Fraction(4)}, {0: 1, 1: 3}]
    copy = [dict(row) for row in a]
    ratmat.rref(a, 2)
    assert a == copy
    assert [type(x) for x in a[1].values()] == [int, int]


def test_solve_affine_matches_two_dense_eliminations():
    """solve_affine reads the null space off the one elimination of [a | b];
    it must equal the null space of a eliminated on its own."""
    rng = random.Random(11)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6
              else Fraction(0) for _ in range(cols)] for _ in range(rows)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        x, null = ratmat.solve_affine(sparse(a), b, cols)
        red, pivots = dense_rref([row + [bi] for row, bi in zip(a, b)])
        assert null == dense_nullspace(a)
        if cols in pivots:
            assert x is None
        else:
            assert x == [next((red[i][cols] for i, p in enumerate(pivots) if p == c),
                              Fraction(0)) for c in range(cols)]


def test_solve_affine_int_rows_match_the_fraction_oracle():
    """Int rows with a Fraction right-hand side solve as their Fraction copy
    does: the same particular solution and kernel, every value a Fraction."""
    rng = random.Random(21)
    consistent = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        a = [{j: rng.choice((1, -1, 2, -2, 3)) for j in rng.sample(range(cols), rng.randint(0, cols))}
             for _ in range(rows)]
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rows)]
        if rng.random() < 0.5:  # often consistent: b read off a chosen x
            x_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            b = [sum((x * x_true[j] for j, x in row.items()), Fraction(0)) for row in a]
        x, null = ratmat.solve_affine(a, b, cols)
        want_x, want_null = ratmat.solve_affine(
            [{j: ratmat.frac(v) for j, v in row.items()} for row in a], b, cols)
        assert_same_fractions(null, want_null)
        if want_x is None:
            assert x is None
        else:
            consistent += 1
            assert_same_fractions([x], [want_x])
            assert all(sum((v * x[j] for j, v in row.items()), Fraction(0)) == bi
                       for row, bi in zip(a, b))
    assert consistent > 100


def test_nullspace_form_of_int_class_vectors():
    """Int vectors like `plain_kernel`'s (size_0 on class i, -size_i on
    class 0) and int vectors with other non-unit entries reduce as their
    Fraction copies do, to Fraction vectors."""
    rng = random.Random(22)
    for _ in range(300):
        n, k = rng.randint(2, 12), rng.randint(2, 5)
        cls = [rng.randrange(k) for _ in range(n)]
        size = [cls.count(i) for i in range(k)]
        if rng.random() < 0.5:
            basis = [[size[0] if c == i else -size[i] if c == 0 else 0 for c in cls]
                     for i in range(1, k) if size[i] and size[0]]
        else:
            basis = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
                     for _ in range(rng.randint(1, 4))]
            if ratmat.rank(sparse(basis), n) < len(basis):
                continue
        got = ratmat.nullspace_form(basis)
        assert_same_fractions(got, ratmat.nullspace_form([[Fraction(x) for x in v] for v in basis]))
        assert ratmat.span_equal(sparse(got), sparse(basis), n)


def test_sparse_gram_combine_dense():
    rng = random.Random(5)
    for _ in range(50):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols)]
             for _ in range(rows)]
        rows = sparse(a)
        assert dense(rows, cols) == a
        at = [list(col) for col in zip(*a)] or [[] for _ in range(cols)]
        want = [[sum((x * y for x, y in zip(ri, rj)), Fraction(0)) for rj in at] for ri in at]
        g = ratmat.gram(rows, cols)
        assert dense(g, cols) == want
        assert all(x != 0 for row in g for x in row.values())
        assert ratmat.combine((2, g), (-1, g), (-1, g)) == [{} for _ in range(cols)]
