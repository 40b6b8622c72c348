import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triholo import ratmat


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


@st.composite
def matrices(draw):
    """Small rational matrices, often sparse, with repeated rows and rows
    of zeros mixed in so that rank deficiency is common, and their column
    count (which a matrix with no rows cannot carry)."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 7))
    m = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        src, dst = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c = draw(ENTRIES)
        m[dst] = [c * x for x in m[src]] if draw(st.booleans()) else [Fraction(0)] * cols
    return m, cols


def rref_matches_dense_reference(a, cols):
    """`ratmat.rref` of `a` (dense, `cols` columns) against `dense_rref`:
    the same pivot rows, no padding rows, every entry a nonzero Fraction,
    and the zero rows `dense_rref` pads with are all that is left out."""
    red, pivots = ratmat.rref(sparse(a), cols)
    assert (red, pivots) == reference_rref(sparse(a), cols)
    assert all(type(x) is Fraction and x for row in red for x in row.values())
    full, want_pivots = dense_rref(a)
    assert dense(red, cols) + [[Fraction(0)] * cols] * (len(a) - len(red)) == full
    assert pivots == want_pivots


@settings(max_examples=200, deadline=None)
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
