import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triholo import lattice as L
from triholo import ratmat
from triholo.errors import (
    InsufficientWindow,
    NotHolomorphic,
    OutOfWindow,
    SequenceTooShort,
    WindowExhausted,
    WindowNotSectorClosed,
)


def zero_trefoil(center, window):
    return {p: 0 for p in L.required_trefoil(center, window)}


def test_window_and_function_semantics():
    w = L.Window(-2, 2, -2, 2)
    f = L.LatticeFunction({(0, 0): 1}, w)
    assert f[(1, 1)] == 0
    with pytest.raises(OutOfWindow):
        f[(3, 0)]
    g = L.delta()
    assert g[(5, 5)] == 0 and g[(0, 0)] == 1
    with pytest.raises(InsufficientWindow):
        L.Window(1, 0, 0, 0)


def test_stencils_on_delta():
    d = L.delta()
    qp = L.apply_Qplus(d)
    assert {p for p, v in qp.values.items() if v != 0} == {(0, 0), (1, 0), (0, 1)}
    q = L.apply_Q(d)
    assert {p for p, v in q.values.items() if v != 0} == {(0, 0), (-1, 0), (0, -1)}


def test_covariant_constant_annihilated():
    w = L.Window(-4, 4, -4, 4)
    f = L.covariant_constant((2, -5, 3), w)
    assert all(v == 0 for v in L.apply_Q(f).values.values())
    assert all(v == 0 for v in L.apply_Qplus(f).values.values())


def test_trefoil_zero_and_unit():
    w = L.Window(-5, 5, -5, 5)
    y = zero_trefoil((0, 0), w)
    f = L.extend_holomorphic((0, 0), y, w)
    assert all(v == 0 for v in f.values.values())
    y[(0, 0)] = 1
    g = L.extend_holomorphic((0, 0), y, w)
    assert g[(-1, 1)] == -1  # psi(0,1) + psi(-1,1) + psi(0,0) = 0


def test_trefoil_reproduces_covariant():
    w = L.Window(-6, 6, -6, 6)
    c = (Fraction(1), Fraction(3), Fraction(-4))
    cov = L.covariant_constant(c, w)
    y = {p: L.covariant_value(c, p) for p in L.required_trefoil((0, 0), w)}
    f = L.extend_holomorphic((0, 0), y, w)
    assert all(f[p] == cov[p] for p in w.points())


def test_trefoil_restriction_roundtrip():
    rng = random.Random(2)
    w = L.Window(-6, 6, -6, 6)
    y = {p: Fraction(rng.randint(-9, 9)) for p in L.required_trefoil((1, -1), w)}
    f = L.extend_holomorphic((1, -1), y, w)
    for p, v in y.items():
        if w.contains(p):
            assert f[p] == v


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_trefoil_extension_is_holomorphic(seed):
    rng = random.Random(seed)
    w = L.Window(-4, 4, -4, 4)
    cx = rng.randint(-2, 2)
    cy = rng.randint(-2, 2)
    y = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
         for p in L.required_trefoil((cx, cy), w)}
    f = L.extend_holomorphic((cx, cy), y, w)
    assert L.is_holomorphic(f)


def test_window_not_sector_closed():
    w = L.Window(-3, 3, -3, 3)
    y = {p: 0 for p in L.trefoil_points((0, 0), 3, 3, 3)}  # rays only to index 3
    with pytest.raises(WindowNotSectorClosed):
        L.extend_holomorphic((0, 0), y, w)  # sector 2 needs ray A past index 3


def test_side_polynomial_patterns():
    w = L.Window(-12, 6, -12, 6)
    tri = L.BigBlackTriangle((0, 0), 1)
    p11 = L.side_polynomial(tri, 1, w)
    assert [p11[p] for p in tri.side_points(1)] == [-1, 1, -1, 1]
    for p in tri.points():
        if p not in tri.side_points(1):
            assert p11[p] == 0
    assert L.is_holomorphic(p11)
    # k = 0 basis: the three p_{0,i} sum to zero exactly
    t0 = L.BigBlackTriangle((0, 0), 0)
    s = [L.side_polynomial(t0, i, w) for i in (1, 2, 3)]
    assert all(s[0][p] + s[1][p] + s[2][p] == 0 for p in w.points())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_Q_lowers_side_polynomials(k):
    w = L.Window(-14, 6, -14, 6)
    tri = L.BigBlackTriangle((0, 0), k)
    lower = L.BigBlackTriangle((-1, -1), k - 1)
    for i in (1, 2, 3):
        pk = L.side_polynomial(tri, i, w)
        pk1 = L.side_polynomial(lower, i, w)
        q = L.apply_Q(pk)
        assert all(q[p] == pk1[p] for p in q.window.points())


def test_poly_space_ranks():
    seq = L.default_admissible((0, 0), 6)
    w = L.Window(-16, 8, -16, 8)
    for k in range(7):
        basis = L.poly_space_basis(seq, k, w)
        pts = list(seq.triangle(k).points())
        mat = [[f[p] for p in pts] for f in basis]
        assert ratmat.rank(mat) == 2 * k + 2


def test_side_values_determine_polynomial():
    # restriction of the P_k basis to one side has full rank 2k+2
    seq = L.default_admissible((0, 0), 4)
    w = L.Window(-14, 8, -14, 8)
    for k in range(1, 5):
        basis = L.poly_space_basis(seq, k, w)
        side = seq.triangle(k).side_points(1)
        mat = [[f[p] for p in side] for f in basis]
        assert ratmat.rank(mat) == 2 * k + 2


def test_sum_of_sides_drops_degree():
    k = 3
    w = L.Window(-16, 8, -16, 8)
    tri = L.BigBlackTriangle((0, 0), k)
    total = None
    for i in (1, 2, 3):
        f = L.side_polynomial(tri, i, w)
        total = f if total is None else L.LatticeFunction(
            {p: total[p] + f[p] for p in w.points()}, w)
    qk = total
    for _ in range(k):
        qk = L.apply_Q(qk)
    tb = tri.black_subtriangle()
    assert all(qk[p] == 0 for p in tb.points())
    assert all(v == 0 for v in qk.values.values())


def test_antiderivative_zero_and_p0():
    w = L.Window(-8, 8, -8, 8)
    zero = L.covariant_constant((0, 0, 0), w)
    psi = L.holomorphic_antiderivative(zero, w)
    assert all(v == 0 for v in psi.values.values())
    p0 = L.covariant_constant((1, 2, -3), w)
    psi1 = L.holomorphic_antiderivative(p0, w)
    assert psi1[(0, 0)] == 0 and psi1[(-1, 0)] == 0
    q = L.apply_Q(psi1)
    assert all(q[p] == p0[p] for p in q.window.points())
    assert L.is_holomorphic(psi1)
    # psi1 is in P_1: Q^2 psi1 = 0
    qq = L.apply_Q(q)
    assert all(v == 0 for v in qq.values.values())


def test_antiderivative_rejects_nonholomorphic():
    w = L.Window(-4, 4, -4, 4)
    bad = L.LatticeFunction({(0, 0): 1}, w)  # Q+ bad != 0
    with pytest.raises(NotHolomorphic):
        L.holomorphic_antiderivative(bad, w)


def test_interpolation_idempotent_and_green():
    w = L.Window(2, 12, 2, 12)
    g = L.build_green(w)
    tri = L.BigBlackTriangle((9, 9), 1)
    p1 = L.interpolate_polynomial(g, tri)
    assert all(p1[p] == g[p] for p in tri.points())
    # p1 in P_1
    assert L.is_holomorphic(p1)
    q2 = L.apply_Q(L.apply_Q(p1))
    assert all(v == 0 for v in q2.values.values())
    again = L.interpolate_polynomial(p1, tri)
    assert all(again[p] == p1[p] for p in again.window.points())


def test_interpolation_insufficient_window():
    w = L.Window(0, 3, 0, 3)
    g = L.build_green(w)
    with pytest.raises(InsufficientWindow):
        L.interpolate_polynomial(g, L.BigBlackTriangle((3, 3), 2))


def test_taylor_on_constants_and_basis():
    w = L.Window(-12, 8, -12, 8)
    seq = L.default_admissible((0, 0), 4)
    p0 = L.covariant_constant((2, -3, 1), w)
    co = L.taylor_coefficients(p0, seq, 3)
    ps = L.taylor_partial_sum(seq, co[:1], w)
    assert all(ps[p] == p0[p] for p in w.points())
    assert co[1] == (0, 0) and co[2] == (0, 0) and co[3] == (0, 0)
    basis = L.poly_space_basis(seq, 4, w)
    f = basis[2 * 2 + 1]  # psi^2_2
    cb = L.taylor_coefficients(f, seq, 4)
    expect = [(0, 0), (0, 0), (0, 1), (0, 0), (0, 0)]
    assert [(a, b) for a, b in cb] == expect


def test_taylor_random_exactness():
    rng = random.Random(13)
    w = L.Window(-16, 10, -16, 10)
    seq = L.default_admissible((0, 0), 5)
    basis = L.poly_space_basis(seq, 5, w)
    for _ in range(5):
        psi = L.random_holomorphic(w, rng)
        co = L.taylor_coefficients(psi, seq, 5)
        for k in range(6):
            ps = L.taylor_partial_sum(seq, co[: k + 1], w, basis[: 2 * k + 2])
            assert all(ps[p] == psi[p] for p in seq.triangle(k).points())


def test_vanishing_on_Tk_kills_kth_derivative():
    # psi = 0 on T(k) forces Q^k psi = 0 on T^b(k)
    w = L.Window(-16, 10, -16, 10)
    seq = L.default_admissible((0, 0), 5)
    basis = L.poly_space_basis(seq, 5, w)
    for k in range(5):
        f = basis[2 * (k + 1)]  # psi^1_{k+1} vanishes on T(k)
        assert all(f[p] == 0 for p in seq.triangle(k).points())
        qk = f
        for _ in range(k):
            qk = L.apply_Q(qk)
        tb = seq.triangle(k).black_subtriangle()
        assert all(qk[p] == 0 for p in tb.points())


def test_taylor_window_exhausted():
    rng = random.Random(1)
    w = L.Window(-4, 4, -4, 4)
    psi = L.random_holomorphic(w, rng)
    seq = L.default_admissible((0, 0), 9)
    with pytest.raises(WindowExhausted):
        L.taylor_coefficients(psi, seq, 9)


def test_sequence_too_short():
    seq = L.default_admissible((0, 0), 2)
    with pytest.raises(SequenceTooShort):
        seq.triangle(3)


def test_default_sequence_covers_window():
    # the down-left corner is the last to be swallowed: the apex advances
    # (2,2) per 3 steps while the reach grows by 6, so coverage wins
    seq = L.default_admissible((0, 0), 15)
    assert seq.covers_window(L.Window(-5, 5, -5, 5))
    assert not L.default_admissible((0, 0), 6).covers_window(L.Window(-5, 5, -5, 5))


def test_green_values_and_identity():
    assert L.green((0, 0)) == 1
    assert L.green((1, 0)) == -1
    assert L.green((1, 1)) == 2
    assert L.green((2, 1)) == -3
    assert L.green((-1, 4)) == 0
    w = L.Window(-10, 30, -10, 30)
    g = L.build_green(w)
    qg = L.apply_Qplus(g)
    for p in qg.window.points():
        assert qg[p] == (1 if p == (0, 0) else 0)


def test_green_series_oracle():
    # G_n = sum_k ((-t1^-1 - t2^-1)^k delta)_n, summed on finite support
    acc = {}
    cur = {(0, 0): Fraction(1)}
    for _ in range(25):
        for p, v in cur.items():
            acc[p] = acc.get(p, Fraction(0)) + v
        nxt = {}
        for (x, y), v in cur.items():
            nxt[(x + 1, y)] = nxt.get((x + 1, y), Fraction(0)) - v
            nxt[(x, y + 1)] = nxt.get((x, y + 1), Fraction(0)) - v
        cur = nxt
    for p, v in acc.items():
        if p[0] + p[1] < 24:
            assert v == L.green(p), p


def domain_fixture(rng, lo=2, hi=12):
    tris = set()
    x, y = rng.randint(lo + 2, hi - 2), rng.randint(lo + 2, hi - 2)
    for _ in range(20):
        tris.add(("b", (x, y)))
        tris.add(("w", (x - 1, y - 1)))
        x = min(max(x + rng.choice((-1, 0, 1)), lo), hi)
        y = min(max(y + rng.choice((-1, 0, 1)), lo), hi)
    return L.LatticeDomain(frozenset(tris))


def test_cauchy_covariant_and_green():
    rng = random.Random(3)
    dom = domain_fixture(rng)
    cov = (Fraction(4), Fraction(-7), Fraction(3))
    data = {v: L.covariant_value(cov, v) for v in dom.vertices()}
    rec = L.cauchy_reconstruct(dom, data)
    assert all(rec[v] == data[v] for v in dom.vertices())
    # G restricted to a domain inside n1, n2 > 1
    gdata = {v: Fraction(L.green(v)) for v in dom.vertices()}
    rec2 = L.cauchy_reconstruct(dom, gdata)
    assert all(rec2[v] == gdata[v] for v in dom.vertices())


def test_cauchy_random_and_kernel_freedom():
    rng = random.Random(8)
    w = L.Window(-2, 16, -2, 16)
    for _ in range(5):
        dom = domain_fixture(rng)
        psi = L.random_holomorphic(w, rng)
        data = {v: psi[v] for v in dom.vertices()}
        rec = L.cauchy_reconstruct(dom, data)
        assert all(rec[v] == psi[v] for v in dom.vertices())
        cov = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), 0)
        cov = (cov[0], cov[1], -cov[0] - cov[1])

        def kern(n, cov=cov):
            return L.green(n) + L.covariant_value(cov, n)

        rec2 = L.cauchy_reconstruct(dom, data, kernel=kern)
        assert all(rec2[v] == psi[v] for v in dom.vertices())


def test_cauchy_uses_only_boundary_values():
    # interior values of the data never enter the formula
    rng = random.Random(5)
    dom = domain_fixture(rng)
    w = L.Window(-2, 16, -2, 16)
    psi = L.random_holomorphic(w, rng)
    data = {v: psi[v] for v in dom.vertices()}
    charges = set()
    for m in dom.boundary_plus_black():
        for q in L.triangle_vertices(("b", m)):
            charges.add(q)
    tampered = dict(data)
    interior_only = [v for v in data if v not in charges]
    for v in interior_only:
        tampered[v] = Fraction(999)
    rec = L.cauchy_reconstruct(dom, tampered)
    rec0 = L.cauchy_reconstruct(dom, data)
    assert rec == rec0


def test_convolution_vanishing_cases():
    rng = random.Random(6)
    w = L.Window(-20, 20, -20, 20)
    phi = L.random_holomorphic(w, rng)
    zero = L.LatticeFunction({}, finite_support=True)
    assert L.convolution_vanishing(zero, phi, (0, 0)) == 0
    d = L.delta()
    cov = L.covariant_constant((1, 2, -3), L.Window(-9, 9, -9, 9))
    assert L.convolution_vanishing(d, cov, (1, 1)) == 0
    sup = {(rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(-5, 5))
           for _ in range(10)}
    psi = L.LatticeFunction(sup, finite_support=True)
    for _ in range(20):
        n = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert L.convolution_vanishing(psi, phi, n) == 0


def test_Q_and_Qplus_commute_on_interior():
    rng = random.Random(44)
    w = L.Window(-7, 7, -7, 7)
    vals = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for p in w.points()}
    f = L.LatticeFunction(vals, w)
    a = L.apply_Qplus(L.apply_Q(f))
    b = L.apply_Q(L.apply_Qplus(f))
    assert a.window == b.window
    assert all(a[p] == b[p] for p in a.window.points())


def test_taylor_other_admissible_sequences():
    rng = random.Random(55)
    w = L.Window(-16, 10, -16, 10)
    for types in (("23", "31", "12", "23"), ("31", "12", "31", "12")):
        seq = L.AdmissibleSequence((0, 0), types)
        basis = L.poly_space_basis(seq, 4, w)
        psi = L.random_holomorphic(w, rng)
        co = L.taylor_coefficients(psi, seq, 4)
        for k in range(5):
            ps = L.taylor_partial_sum(seq, co[: k + 1], w, basis[: 2 * k + 2])
            assert all(ps[p] == psi[p] for p in seq.triangle(k).points())


def test_reconstruction_solver_equivalence_40x40():
    # cauchy_reconstruct agrees with the trefoil-based direct solution on
    # random domains scattered over a 40x40 window
    rng = random.Random(77)
    w = L.Window(-20, 19, -20, 19)
    for _ in range(25):
        lo = rng.randint(-16, 4)
        dom = _scatter_domain(rng, lo, lo + 12)
        psi = L.random_holomorphic(w, rng)
        data = {v: psi[v] for v in dom.vertices()}
        rec = L.cauchy_reconstruct(dom, data)
        assert all(rec[v] == psi[v] for v in dom.vertices())


def _scatter_domain(rng, lo, hi):
    tris = set()
    x, y = rng.randint(lo + 2, hi - 2), rng.randint(lo + 2, hi - 2)
    for _ in range(16):
        tris.add(("b", (x, y)))
        if rng.random() < 0.7:
            tris.add(("w", (x - 1, y - 1)))
        x = min(max(x + rng.choice((-1, 0, 1)), lo), hi)
        y = min(max(y + rng.choice((-1, 0, 1)), lo), hi)
    return L.LatticeDomain(frozenset(tris))


def test_empty_lattice_domain_rejected():
    from triholo.errors import DomainUnbounded

    with pytest.raises(DomainUnbounded):
        L.LatticeDomain(frozenset())


# --- the recursive P_k constructions, kept as the oracle for the one lift ---

def ref_side_polynomial(tri, which, window):
    """The former recursive side_polynomial."""
    if tri.k == 0:
        vals3 = [None, None, None]
        for p, v in L._apex_values(tri, which).items():
            vals3[(p[0] - p[1]) % 3] = v
        return L.covariant_constant(tuple(vals3), window)
    lower = L.BigBlackTriangle((tri.apex[0] - 1, tri.apex[1] - 1), tri.k - 1)
    psi = L.solve_q_affine(ref_side_polynomial(lower, which, window), window)
    c = [None, None, None]
    for p, v in L._apex_values(tri, which).items():
        c[(p[0] - p[1]) % 3] = v - psi[p]
    return L.LatticeFunction({pt: psi[pt] + c[(pt[0] - pt[1]) % 3]
                              for pt in window.points()}, window)


def ref_interp(psi, tri, out_w):
    """The former recursive `_interp` behind interpolate_polynomial."""
    n1, n2 = tri.apex
    apex_tri = ((n1, n2), (n1 - 1, n2), (n1, n2 - 1))
    if tri.k == 0:
        vals3 = [None, None, None]
        for p in apex_tri:
            vals3[(p[0] - p[1]) % 3] = psi[p]
        return L.covariant_constant(tuple(vals3), out_w)
    lower = L.BigBlackTriangle((n1 - 1, n2 - 1), tri.k - 1)
    phi = L.solve_q_affine(ref_interp(L.apply_Q(psi), lower, out_w), out_w)
    c = [None, None, None]
    for p in apex_tri:
        c[(p[0] - p[1]) % 3] = psi[p] - phi[p]
    return L.LatticeFunction({pt: phi[pt] + c[(pt[0] - pt[1]) % 3]
                              for pt in out_w.points()}, out_w)


def identical(f, g):
    return f.window == g.window and f.values == g.values


@pytest.mark.parametrize("k", range(5))
def test_side_polynomial_matches_recursive_reference(k):
    w = L.Window(-13, 4, -12, 5)
    for apex in ((0, 0), (2, -1)):
        tri = L.BigBlackTriangle(apex, k)
        for which in (1, 2, 3):
            assert identical(L.side_polynomial(tri, which, w),
                             ref_side_polynomial(tri, which, w))


def test_interpolate_polynomial_matches_recursive_reference():
    rng = random.Random(53)
    for k in range(5):
        for _ in range(2):
            w = L.Window(-11 - rng.randint(0, 2), 6, -11, 6 + rng.randint(0, 2))
            psi = L.random_holomorphic(w, rng)
            tri = L.BigBlackTriangle((rng.randint(-1, 1), rng.randint(-1, 1)), k)
            out_w = L.Window(w.x0, w.x1 - k, w.y0, w.y1 - k)
            assert identical(L.interpolate_polynomial(psi, tri), ref_interp(psi, tri, out_w))


def test_interpolate_polynomial_rejects_values_off_ker_qplus():
    # Q+ G = delta: G's values on the black triangle at the origin sum to 1,
    # at level 0 (k = 0) and at the top level (k = 1) of the lift
    g = L.build_green(L.Window(-6, 6, -6, 6))
    for k in (0, 1):
        with pytest.raises(ValueError, match="sum to zero"):
            L.interpolate_polynomial(g, L.BigBlackTriangle((0, 0), k))
