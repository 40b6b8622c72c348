import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
    TriholoError,
    WindowExhausted,
    WindowNotSectorClosed,
)
from triholo.lattice import E1, E2, Point, Window, _add, _sub
from triholo.ratmat import frac

ROOT = Path(__file__).resolve().parent.parent


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


def test_function_equality():
    """A finite-support function equals one with an explicit zero where the
    other has no point; functions on different windows, and a function and
    a non-function, are unequal."""
    f = L.LatticeFunction({(0, 0): 1, (2, 1): Fraction(-1, 2)})
    assert f == L.LatticeFunction({(0, 0): 1, (2, 1): Fraction(-1, 2), (5, 5): 0})
    assert f != L.LatticeFunction({(0, 0): 1, (2, 1): Fraction(1, 2)})
    w = L.Window(0, 2, 0, 1)
    g = L.LatticeFunction(f.values, w)
    assert g == L.LatticeFunction({(2, 1): Fraction(-1, 2), (0, 0): 1, (1, 1): 0}, w)
    assert f != g and g != f
    assert g != L.LatticeFunction(f.values, L.Window(0, 2, 0, 2))
    assert f != 0 and g != "g"


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
        mat = [dict(enumerate(f[p] for p in pts)) for f in basis]
        assert ratmat.rank(mat, len(pts)) == 2 * k + 2


def test_side_values_determine_polynomial():
    # restriction of the P_k basis to one side has full rank 2k+2
    seq = L.default_admissible((0, 0), 4)
    w = L.Window(-14, 8, -14, 8)
    for k in range(1, 5):
        basis = L.poly_space_basis(seq, k, w)
        side = seq.triangle(k).side_points(1)
        mat = [dict(enumerate(f[p] for p in side)) for f in basis]
        assert ratmat.rank(mat, len(side)) == 2 * k + 2


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
    ps = L.taylor_partial_sum(seq, co[:1], w, L.poly_space_basis(seq, 0, w))
    assert all(ps[p] == p0[p] for p in w.points())
    assert co[1] == (0, 0) and co[2] == (0, 0) and co[3] == (0, 0)
    basis = L.poly_space_basis(seq, 4, w)
    f = basis[2 * 2 + 1]  # psi^2_2
    cb = L.taylor_coefficients(f, seq, 4)
    expect = [(0, 0), (0, 0), (0, 1), (0, 0), (0, 0)]
    assert [(a, b) for a, b in cb] == expect


def test_taylor_partial_sum_of_zero_coefficients():
    w = L.Window(-8, 6, -8, 6)
    seq = L.default_admissible((0, 0), 2)
    ps = L.taylor_partial_sum(seq, [(0, 0), (Fraction(0), 0), (0, 0)], w,
                              L.poly_space_basis(seq, 2, w))
    assert ps.window == w and ps.support() == set()


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


def test_taylor_coefficients_reject_non_holomorphic_psi():
    # a value off the covariant plane on T^b(0) is caught at k = 0
    w = L.Window(-16, 10, -16, 10)
    seq = L.default_admissible((0, 0), 3)
    for seed in range(3):
        psi = L.random_holomorphic(w, random.Random(seed))
        for p in seq.triangle(0).black_subtriangle().points():
            values = dict(psi.values)
            values[p] += Fraction(1, 3)
            with pytest.raises(NotHolomorphic, match="covariant plane"):
                L.taylor_coefficients(L.LatticeFunction(values, w), seq, 3)


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
    for m in ref_boundary_plus_black(dom):
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
    zero = L.LatticeFunction({})
    assert L.convolution_vanishing(zero, phi, (0, 0)) == 0
    d = L.delta()
    cov = L.covariant_constant((1, 2, -3), L.Window(-9, 9, -9, 9))
    assert L.convolution_vanishing(d, cov, (1, 1)) == 0
    sup = {(rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(-5, 5))
           for _ in range(10)}
    psi = L.LatticeFunction(sup)
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


# --- the Fraction-dict LatticeFunction, kept verbatim as the oracle ---------
# The former dict storage and the operations now written on integer rows:
# the stencil, the affine solve and its check, the covariant add and the
# Taylor partial sum.  Only the names differ.

class RefLatticeFunction:
    """Exact-valued function on a window, or of finite support.

    Lookups outside a declared window raise OutOfWindow; finite-support
    functions return 0 off their support instead.
    """

    def __init__(self, values: dict, window: Window | None = None,
                 finite_support: bool = False):
        if window is None and not finite_support:
            raise ValueError("either a window or the finite-support flag is required")
        self.values = {tuple(p): frac(v) for p, v in values.items()}
        self.window = window
        self.finite_support = finite_support
        if window is not None:
            for p in self.values:
                if not window.contains(p):
                    raise OutOfWindow(f"value stored outside window: {p}")

    def __getitem__(self, p: Point) -> Fraction:
        p = tuple(p)
        if self.finite_support:
            return self.values.get(p, Fraction(0))
        if not self.window.contains(p):
            raise OutOfWindow(f"{p} outside {self.window}")
        return self.values.get(p, Fraction(0))

    def restrict(self, window: Window) -> "RefLatticeFunction":
        vals = {p: self[p] for p in window.points()}
        return RefLatticeFunction(vals, window)

    def support(self):
        return {p for p, v in self.values.items() if v != 0}

    def __eq__(self, other):
        if not isinstance(other, RefLatticeFunction):
            return NotImplemented
        if self.window != other.window or self.finite_support != other.finite_support:
            return NotImplemented
        pts = self.window.points() if self.window else set(self.values) | set(other.values)
        return all(self[p] == other[p] for p in pts)


def ref_apply_stencil(f, offsets, shrink):
    if f.finite_support:
        out: dict[Point, Fraction] = {}
        for p, v in f.values.items():
            for off in offsets:
                q = _sub(p, off)
                out[q] = out.get(q, Fraction(0)) + v
        return RefLatticeFunction(out, finite_support=True)
    try:
        new_w = f.window.shrink(**shrink)
    except InsufficientWindow:
        raise OutOfWindow(f"window {f.window} too small for the stencil")
    vals = {}
    for p in new_w.points():
        vals[p] = sum((f[_add(p, off)] for off in offsets), Fraction(0))
    return RefLatticeFunction(vals, new_w)


def ref_add_covariant(psi: RefLatticeFunction | None, c, window: Window) -> RefLatticeFunction:
    """psi plus the covariant constant n -> c[(n1 - n2) mod 3] on `window`
    (psi None stands for zero); requires c0 + c1 + c2 = 0."""
    if sum(c) != 0:
        raise ValueError("covariant constant values must sum to zero")
    if psi is None:
        vals = {p: c[(p[0] - p[1]) % 3] for p in window.points()}
    else:
        vals = {p: psi[p] + c[(p[0] - p[1]) % 3] for p in window.points()}
    return RefLatticeFunction(vals, window)


def ref_solve_q_affine(phi: RefLatticeFunction, window: Window,
                       seeds: tuple = None) -> RefLatticeFunction:
    """One exact solution of Q psi = phi, Q+ psi = 0 on the window.

    phi must be holomorphic (Q+ phi = 0) wherever the stencil fits, else
    NotHolomorphic.  The solution is unique up to adding a covariant
    constant; `seeds` optionally pins the two top-right values.
    """
    w = window
    if w.x1 - w.x0 < 1 or w.y1 - w.y0 < 1:
        raise InsufficientWindow("affine solve needs at least a 2x2 window")
    s1, s2 = (Fraction(0), Fraction(0)) if seeds is None else (frac(seeds[0]), frac(seeds[1]))
    psi: dict[Point, Fraction] = {(w.x1, w.y1): s1, (w.x1 - 1, w.y1): s2}
    # top two rows, zigzagging leftward
    psi[(w.x1, w.y1 - 1)] = -psi[(w.x1, w.y1)] - psi[(w.x1 - 1, w.y1)]
    for x in range(w.x1 - 1, w.x0 - 1, -1):
        psi[(x, w.y1 - 1)] = phi[(x, w.y1 - 1)] - psi[(x + 1, w.y1 - 1)] - psi[(x, w.y1)]
        if x > w.x0:
            psi[(x - 1, w.y1)] = -psi[(x, w.y1)] - psi[(x, w.y1 - 1)]
    # remaining rows downward
    for y in range(w.y1 - 2, w.y0 - 1, -1):
        for x in range(w.x1, w.x0, -1):
            psi[(x, y)] = -psi[(x, y + 1)] - psi[(x - 1, y + 1)]
        psi[(w.x0, y)] = phi[(w.x0, y)] - psi[(w.x0 + 1, y)] - psi[(w.x0, y + 1)]
    out = RefLatticeFunction(psi, w)
    ref_check_affine(out, phi, w)
    return out


def ref_check_affine(psi, phi, w):
    for p in Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1).points():
        if psi[p] + psi[_add(p, E1)] + psi[_add(p, E2)] != phi[p]:
            raise NotHolomorphic("affine system inconsistent: Q+ phi != 0")
    for p in Window(w.x0 + 1, w.x1, w.y0 + 1, w.y1).points():
        if psi[p] + psi[_sub(p, E1)] + psi[_sub(p, E2)] != 0:
            raise NotHolomorphic("affine system inconsistent: Q+ phi != 0")


def ref_taylor_partial_sum(seq: L.AdmissibleSequence, coeffs: list, window: Window,
                           basis: list | None = None) -> RefLatticeFunction:
    """Sum alpha^1_k psi^1_k + alpha^2_k psi^2_k through the given coeffs.

    Pass a precomputed `poly_space_basis` result to reuse it across calls.
    """
    if basis is None:
        basis = L.poly_space_basis(seq, len(coeffs) - 1, window)
    vals = {p: Fraction(0) for p in window.points()}
    for k, (a1, a2) in enumerate(coeffs):
        f1, f2 = basis[2 * k], basis[2 * k + 1]
        for p in window.points():
            vals[p] += a1 * f1[p] + a2 * f2[p]
    return RefLatticeFunction(vals, window)


def run(call):
    """call()'s result, or the type of the domain or value error it raised."""
    try:
        return call()
    except (TriholoError, ValueError) as exc:
        return type(exc)


def assert_same(new, ref):
    """Same outcome: the same error type, or the same window, flag and
    value at every point, with the row storage in lowest terms."""
    if isinstance(ref, type):
        assert new is ref
        return
    assert not isinstance(new, type), f"raised {new.__name__}, the oracle did not"
    assert (new.window, new.finite_support) == (ref.window, ref.finite_support)
    if ref.finite_support:
        assert new.support() == ref.support()
        assert all(new[p] == ref[p] for p in ref.values)
        return
    assert new.den > 0 and math.gcd(new.den, *(v for r in new.rows for v in r)) == 1
    assert dict(new.values) == {p: ref[p] for p in ref.window.points()}
    assert all(type(v) is Fraction for v in new.values.values())


DENS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 7919, 1_000_003, 2 ** 61 - 1]


def rand_value(rng, zero_share=0.2):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-40, 40), rng.choice(DENS))


def rand_window(rng, lo=2, hi=7):
    x0, y0 = rng.randint(-9, 5), rng.randint(-9, 5)
    return L.Window(x0, x0 + rng.randint(lo, hi) - 1, y0, y0 + rng.randint(lo, hi) - 1)


def rand_values(rng, w, kind=None):
    """Values on w: dense, a sparse dict, or all zero."""
    kind = kind or rng.choice(("dense", "dense", "sparse", "zero"))
    if kind == "zero":
        return {}
    share = 0.8 if kind == "sparse" else 0.2
    return {p: rand_value(rng, share) for p in w.points()
            if kind == "dense" or rng.random() < 0.4}


def both(vals, window=None):
    """The function and its oracle; without a window, of finite support."""
    return (L.LatticeFunction(vals, window),
            RefLatticeFunction(vals, window, finite_support=window is None))


def rand_holomorphic_values(rng, w):
    """Values of a holomorphic function on w, from trefoil data with mixed
    denominators."""
    c = (rng.randint(w.x0, w.x1), rng.randint(w.y0, w.y1))
    y = {p: rand_value(rng) for p in L.required_trefoil(c, w)}
    f = L.extend_holomorphic(c, y, w)
    return {p: f[p] for p in w.points()}


def grow(rng, w, most=3):
    return L.Window(w.x0 - rng.randint(0, most), w.x1 + rng.randint(0, most),
                    w.y0 - rng.randint(0, most), w.y1 + rng.randint(0, most))


STENCILS = [(L.apply_Q, ((0, 0), L.E1, L.E2), {"right": 1, "top": 1}),
            (L.apply_Qplus, ((0, 0), (-1, 0), (0, -1)), {"left": 1, "bottom": 1})]


def check_stencils(rng):
    w = rand_window(rng, lo=1)
    vals = rand_values(rng, w)
    for finite in (False, True):
        new, ref = both(vals, None if finite else w)
        for op, offsets, shrink in STENCILS:
            assert_same(run(lambda: op(new)), run(lambda: ref_apply_stencil(ref, offsets, shrink)))
        ref_qplus = run(lambda: ref_apply_stencil(ref, *STENCILS[1][1:]))
        assert run(lambda: L.is_holomorphic(new)) == (
            ref_qplus if isinstance(ref_qplus, type) else not ref_qplus.support())


def check_window_reads(rng):
    w = rand_window(rng)
    new, ref = both(rand_values(rng, w), w)
    for _ in range(6):
        p = (rng.randint(w.x0 - 2, w.x1 + 2), rng.randint(w.y0 - 2, w.y1 + 2))
        assert run(lambda: new[p]) == run(lambda: ref[p])
    out = int(rng.random() < 0.3)       # reach one point past the window
    x0, y0 = rng.randint(w.x0 - out, w.x1), rng.randint(w.y0, w.y1)
    sub = L.Window(x0, rng.randint(x0, w.x1), y0, rng.randint(y0, w.y1 + out))
    assert_same(run(lambda: new.restrict(sub)), run(lambda: ref.restrict(sub)))
    other_vals = dict(ref.values)
    if other_vals and rng.random() < 0.5:
        q = rng.choice(sorted(other_vals))
        other_vals[q] += Fraction(1, rng.choice(DENS))
    a, b = both(other_vals, w)
    assert (new == a) == (ref == b)
    g = rng.choice((2, 3, 1_000_003))
    scaled = L.LatticeFunction.from_rows([[v * g for v in r] for r in new.rows],
                                         new.den * g, w)
    assert scaled == new and scaled.rows == new.rows and scaled.den == new.den


def check_affine_solve(rng, holomorphic=True):
    w = rand_window(rng)
    kind = rng.random()
    if kind < 0.15:                     # finite-support phi
        new, ref = both(rand_values(rng, w, "sparse") if rng.random() < 0.5 else {})
    else:
        pw = grow(rng, w) if kind < 0.6 else w
        if kind > 0.9:                  # phi's window misses part of the solve window
            pw = L.Window(pw.x0 + 1, pw.x1, pw.y0, pw.y1)
        vals = rand_holomorphic_values(rng, pw)
        if not holomorphic:
            inner = L.Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1)
            p = (rng.randint(inner.x0, inner.x1), rng.randint(inner.y0, inner.y1))
            if pw.contains(p):
                vals[p] += Fraction(1, rng.choice(DENS))
        new, ref = both(vals, pw)
    got = run(lambda: L.solve_q_affine(new, w))
    assert_same(got, run(lambda: ref_solve_q_affine(ref, w)))
    return got


def check_affine_check(rng):
    """_check_affine alone, on psi that satisfies Q psi = phi but not always
    Q+ psi = 0, and on psi that satisfies neither."""
    w = rand_window(rng)
    inner = L.Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1)
    psi_vals = rand_values(rng, w, "dense")
    if rng.random() < 0.5:
        psi_vals = rand_holomorphic_values(rng, w)
    psi_new, psi_ref = both(psi_vals, w)
    phi_vals = {p: psi_ref[p] + psi_ref[L._add(p, L.E1)] + psi_ref[L._add(p, L.E2)]
                for p in inner.points()}
    if rng.random() < 0.3:
        p = rng.choice(sorted(phi_vals))
        phi_vals[p] += 1
    pw = grow(rng, inner)
    phi_new, phi_ref = both(phi_vals, pw)
    assert (run(lambda: L._check_affine(psi_new, phi_new, w))
            == run(lambda: ref_check_affine(psi_ref, phi_ref, w)))


def check_add_covariant(rng):
    w = rand_window(rng)
    c = [rand_value(rng), rand_value(rng)]
    c.append(-c[0] - c[1] + (Fraction(1, 7) if rng.random() < 0.1 else 0))
    kind = rng.choice(("none", "same", "larger", "finite", "smaller"))
    if kind == "none":
        new = ref = None
    elif kind == "finite":
        new, ref = both(rand_values(rng, grow(rng, w), "sparse"))
    else:
        pw = {"same": w, "larger": grow(rng, w), "smaller": w.shrink(left=1)}[kind]
        new, ref = both(rand_values(rng, pw), pw)
    assert_same(run(lambda: L._add_covariant(new, c, w)),
                run(lambda: ref_add_covariant(ref, c, w)))


def check_partial_sum(rng):
    w = rand_window(rng, lo=2, hi=6)
    order = rng.randint(0, 2)
    seq = L.default_admissible(w.center(), order)
    coeffs = [tuple(rand_value(rng, 0.3) for _ in range(2)) for _ in range(order + 1)]
    news, refs = [], []
    for _ in range(2 * order + 2):
        bw = grow(rng, w) if rng.random() < 0.9 else w.shrink(top=1)
        new, ref = both(rand_values(rng, bw), bw)
        news.append(new)
        refs.append(ref)
    assert_same(run(lambda: L.taylor_partial_sum(seq, coeffs, w, news)),
                run(lambda: ref_taylor_partial_sum(seq, coeffs, w, refs)))


ORACLE_CHECKS = [check_stencils, check_window_reads, check_affine_solve,
                 lambda rng: check_affine_solve(rng, holomorphic=False),
                 check_affine_check, check_add_covariant, check_partial_sum]


@pytest.mark.parametrize("check", range(len(ORACLE_CHECKS)))
def test_rows_match_dict_oracle_seeded(check):
    for seed in range(60):
        ORACLE_CHECKS[check](random.Random(1000 * check + seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(range(len(ORACLE_CHECKS))))
def test_rows_match_dict_oracle_hypothesis(seed, check):
    ORACLE_CHECKS[check](random.Random(seed))


def test_affine_solve_oracle_raises_on_both_sides():
    # a perturbed interior point makes phi non-holomorphic; one on the edge
    # of the read region, phi of finite support or a short phi window may not
    rng = random.Random(17)
    raised = [check_affine_solve(rng, holomorphic=False) is NotHolomorphic
              for _ in range(20)]
    assert sum(raised) >= 5
    w = L.Window(-3, 2, -1, 3)
    vals = rand_holomorphic_values(rng, w)
    new, ref = both(vals, w)
    assert L.solve_q_affine(new, w) is not None
    vals[(0, 0)] += Fraction(1, 11)
    new, ref = both(vals, w)
    with pytest.raises(NotHolomorphic):
        L.solve_q_affine(new, w)
    with pytest.raises(NotHolomorphic):
        ref_solve_q_affine(ref, w)


def test_affine_check_halves_each_catch():
    # Q psi = phi holds but Q+ psi = 0 fails; then the reverse
    w = L.Window(-2, 2, 0, 3)
    inner = L.Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1)
    psi = L.LatticeFunction({(0, 2): Fraction(1, 5)}, w)
    phi = L.LatticeFunction({p: psi[p] + psi[L._add(p, L.E1)] + psi[L._add(p, L.E2)]
                             for p in inner.points()}, inner)
    with pytest.raises(NotHolomorphic):
        L._check_affine(psi, phi, w)
    good = L.solve_q_affine(L.covariant_constant((1, 2, -3), w), w)
    L._check_affine(good, L.covariant_constant((1, 2, -3), w), w)
    with pytest.raises(NotHolomorphic):
        L._check_affine(good, L.covariant_constant((1, -2, 1), w), w)


def test_window_values_view():
    w = L.Window(-1, 1, 2, 3)
    f = L.LatticeFunction({(0, 2): Fraction(3, 4), (1, 3): 2}, w)
    assert (f.rows, f.den) == ([[0, 3, 0], [0, 0, 8]], 4)
    assert len(f.values) == 6 and list(f.values) == list(w.points())
    assert f.values[(1, 3)] == 2 and (5, 5) not in f.values and f.values.get((5, 5)) is None
    assert f.values == {p: f[p] for p in w.points()}
    with pytest.raises(TypeError):
        f.values[(0, 2)] = 1
    z = L.LatticeFunction({(0, 2): 0}, w)
    assert (z.den, z.support()) == (1, set())
    with pytest.raises(ValueError):
        L.LatticeFunction.from_rows([[1, 2, 3]], 1, w)
    with pytest.raises(ValueError):
        L.LatticeFunction.from_rows([[1, 2, 3], [4, 5, 6]], 0, w)
    assert L.LatticeFunction.from_rows([[2, 4, 6], [8, 0, -2]], 6, w).den == 3


@pytest.mark.parametrize("order", [-1, -3])
def test_negative_order_rejected(order):
    seq = L.default_admissible((0, 0), 2)
    psi = L.covariant_constant((1, 2, -3), L.Window(-6, 6, -6, 6))
    with pytest.raises(ValueError, match="order must be >= 0"):
        L.taylor_coefficients(psi, seq, order)
    with pytest.raises(ValueError, match="order must be >= 0"):
        L.poly_space_basis(seq, order, psi.window)


# --- the term-by-term Cauchy sum, kept as the oracle for the causal sweep ---

def ref_vertices(domain: L.LatticeDomain) -> frozenset:
    out = set()
    for t in domain.tris:
        out |= set(L.triangle_vertices(t))
    return frozenset(sorted(out))


def ref_boundary_plus_black(domain: L.LatticeDomain) -> list:
    """Apexes of black triangles not in D that touch D."""
    verts = ref_vertices(domain)
    member = {t for t in domain.tris if t[0] == "b"}
    cand = set()
    for v in verts:
        # black triangles having v as one of their three vertices
        for apex in (v, _add(v, E1), _add(v, E2)):
            cand.add(apex)
    out = []
    for apex in sorted(cand):
        if ("b", apex) in member:
            continue
        if any(p in verts for p in L.triangle_vertices(("b", apex))):
            out.append(apex)
    return out


def ref_cauchy_reconstruct(domain: L.LatticeDomain, psi: dict, kernel=L.green) -> dict:
    """Recover a holomorphic function on D from its boundary behavior:

        psi_n = sum over black T_m in the outer boundary of D of
                (Q+ psi)_m * G(n - m)

    with psi extended by zero outside D.  `kernel` may be any function
    with Q+ kernel = delta (the Green's function by default).
    """
    verts = domain.vertices()

    def val(p) -> Fraction:
        return frac(psi.get(p, 0)) if p in verts else Fraction(0)

    charges = []
    for m in ref_boundary_plus_black(domain):
        q = val(m) + val(_sub(m, E1)) + val(_sub(m, E2))
        if q != 0:
            charges.append((m, q))
    out = {}
    for n in sorted(verts):
        acc = Fraction(0)
        for m, q in charges:
            acc += q * frac(kernel(_sub(n, m)))
        out[n] = acc
    return out


CAUCHY_DENS = (*range(1, 13), 7919, 2 ** 61 - 1)
CAUCHY_SHAPES = ("walk", "scatter", "square")
CAUCHY_DATA = ("holomorphic", "arbitrary", "zero")


def filled_square(x0, y0, width) -> L.LatticeDomain:
    """Every black and white triangle with apex in a width x width block."""
    return L.LatticeDomain(frozenset((k, (x, y)) for x in range(x0, x0 + width)
                                     for y in range(y0, y0 + width) for k in "bw"))


def cauchy_domain(rng, shape, width) -> L.LatticeDomain:
    """A walk, scatter or filled-square domain with its triangle apexes in a
    width x width block, most often at negative coordinates."""
    x0, y0 = rng.randint(-90, 30), rng.randint(-90, 30)
    if shape == "square":
        return filled_square(x0, y0, width)
    x1, y1 = x0 + width - 1, y0 + width - 1
    tris = set()
    x, y = rng.randint(x0, x1), rng.randint(y0, y1)
    for _ in range(max(8, 2 * width)):
        if shape == "walk":
            tris.update((("b", (x, y)), ("w", (x - 1, y - 1))))
        else:
            tris.add((rng.choice("bw"), (x, y)))
            if rng.random() < 0.15:
                x, y = rng.randint(x0, x1), rng.randint(y0, y1)
        x = min(max(x + rng.choice((-1, 0, 1)), x0), x1)
        y = min(max(y + rng.choice((-1, 0, 1)), y0), y1)
    return L.LatticeDomain(frozenset(tris))


def cauchy_data(rng, dom, kind) -> dict:
    """psi on the vertices of `dom` as int, str or Fraction values; now and
    then only on some of them, or with points outside D thrown in."""
    verts = sorted(dom.vertices())
    if kind == "zero":
        vals = {v: Fraction(0) for v in verts}
    elif kind == "holomorphic":
        w = L.Window(min(x for x, _ in verts), max(x for x, _ in verts),
                     min(y for _, y in verts), max(y for _, y in verts))
        psi = L.random_holomorphic(w, rng)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(CAUCHY_DENS))
        vals = {v: psi[v] * scale for v in verts}
    else:
        vals = {v: Fraction(rng.randint(-9, 9), rng.choice(CAUCHY_DENS)) for v in verts}
    if rng.random() < 0.3:
        vals = {v: x for v, x in vals.items() if rng.random() < 0.6}
    if rng.random() < 0.3:
        for _ in range(5):
            p = (rng.randint(-100, 100), rng.randint(-100, 100))
            if p not in dom.vertices():
                vals[p] = Fraction(rng.randint(1, 9), rng.choice(CAUCHY_DENS))

    def as_input(x):
        kind = rng.choice((int, str, Fraction))
        if kind is int and x.denominator == 1:
            return int(x)
        return str(x) if kind is str else x

    return {p: as_input(x) for p, x in vals.items()}


# a kernel other than G: G plus a covariant constant, still Q+ kernel = delta
CAUCHY_COVARIANT = (Fraction(3, 2), Fraction(-5), Fraction(7, 2))


def covariant_green(n):
    return L.green(n) + L.covariant_value(CAUCHY_COVARIANT, n)


def check_cauchy(rng, shape, width, kind, other_kernel=False):
    dom = cauchy_domain(rng, shape, width)
    data = cauchy_data(rng, dom, kind)
    got = L.cauchy_reconstruct(dom, data)
    assert list(got.items()) == list(ref_cauchy_reconstruct(dom, data).items())
    assert all(type(v) is Fraction for v in got.values())
    if kind == "holomorphic" and dom.vertices() <= set(data):
        assert all(got[v] == frac(data[v]) for v in dom.vertices())
    if kind == "zero":
        assert not any(got.values())
    if other_kernel:
        # every charge counts here, those past the top-right of D among them
        want = ref_cauchy_reconstruct(dom, data, covariant_green)
        assert list(L.cauchy_reconstruct(dom, data, covariant_green).items()) == list(want.items())


@pytest.mark.parametrize("shape", CAUCHY_SHAPES)
def test_cauchy_sweep_matches_term_sum_seeded(shape):
    # the oracle costs O(V x charges): a filled square has charges on every
    # vertex under arbitrary data, so those stop at 16 wide, and the other
    # kernel, whose oracle runs on top, too
    if shape == "square":
        cases = [(w, kind) for w in (1, 2, 3, 5, 8, 12, 16) for kind in CAUCHY_DATA]
        cases += [(33, "holomorphic"), (60, "holomorphic")]
    else:
        cases = [(w, kind) for w in (1, 2, 3, 5, 8, 13, 21, 34, 45, 60) for kind in CAUCHY_DATA]
    rng = random.Random(9000 + CAUCHY_SHAPES.index(shape))
    for width, kind in cases:
        check_cauchy(rng, shape, width, kind, other_kernel=width <= 16 or shape != "square")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(CAUCHY_SHAPES),
       st.integers(min_value=1, max_value=60), st.sampled_from(CAUCHY_DATA))
def test_cauchy_sweep_matches_term_sum_hypothesis(seed, shape, width, kind):
    if shape == "square":
        width = 1 + (width - 1) % (16 if kind == "arbitrary" else 30)
    check_cauchy(random.Random(seed), shape, width, kind)


def test_domain_bookkeeping_matches_the_per_call_sets():
    rng = random.Random(4242)
    for i in range(300):
        shape = CAUCHY_SHAPES[i % 3]
        dom = cauchy_domain(rng, shape, rng.randint(1, 16 if shape == "square" else 45))
        assert list(dom.vertices()) == list(ref_vertices(dom))
        assert dom.vertices() is dom.vertices()


VERTEX_ORDER = """
import random
from triholo.lattice import LatticeDomain
rng, x, y, tris = random.Random(0), 0, 0, set()
for _ in range(60):
    tris.update({("b", (x, y)), ("w", (x - 1, y - 1))})
    x = min(max(x + rng.choice((-1, 0, 1)), 0), 29)
    y = min(max(y + rng.choice((-1, 0, 1)), 0), 29)
print(list(LatticeDomain(frozenset(tris)).vertices()))
"""


def test_vertex_order_does_not_depend_on_the_hash_seed():
    # 'b'/'w' strings put a seeded walk's triangles in a hash-seeded order;
    # the vertex set is filled in sorted order, so its order is the same in
    # every run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    orders = [subprocess.run([sys.executable, "-c", VERTEX_ORDER], capture_output=True,
                             encoding="utf-8", check=True,
                             env=dict(env, PYTHONHASHSEED=seed)).stdout
              for seed in ("0", "987654")]
    assert orders[0] == orders[1] and orders[0].count("(") > 50


def test_cauchy_charges_only_past_the_top_right():
    # a lone black triangle with data at its apex: both charges lie past
    # the highest vertex, so no vertex sees one
    dom = L.LatticeDomain(frozenset({("b", (-3, 5))}))
    data = {(-3, 5): Fraction(2, 7)}
    got = L.cauchy_reconstruct(dom, data)
    assert list(got.items()) == list(ref_cauchy_reconstruct(dom, data).items())
    assert list(got) == [(-4, 5), (-3, 4), (-3, 5)] and not any(got.values())


def test_cauchy_other_kernels_take_the_term_sum():
    rng = random.Random(31)
    dom = cauchy_domain(rng, "walk", 20)
    data = cauchy_data(rng, dom, "arbitrary")
    calls = []

    def kern(n):
        calls.append(n)
        return L.green(n)

    got = L.cauchy_reconstruct(dom, data, kernel=kern)
    want = ref_cauchy_reconstruct(dom, data)
    assert list(got.items()) == list(want.items())
    assert list(L.cauchy_reconstruct(dom, data).items()) == list(want.items())
    verts = dom.vertices()

    def val(p):
        return frac(data.get(p, 0)) if p in verts else 0

    charges = [m for m in ref_boundary_plus_black(dom)
               if val(m) + val(_sub(m, E1)) + val(_sub(m, E2)) != 0]
    assert len(calls) == len(verts) * len(charges) > 0


def test_cauchy_120_wide_square_within_budget():
    dom = filled_square(-60, -60, 120)
    verts = dom.vertices()
    psi = L.random_holomorphic(L.Window(-61, 60, -61, 60), random.Random(120))
    data = {v: psi[v] for v in verts}
    start = time.perf_counter()
    got = L.cauchy_reconstruct(dom, data)
    elapsed = time.perf_counter() - start
    assert list(got) == sorted(verts) and all(got[v] == psi[v] for v in verts)
    assert elapsed < 5.0, f"{len(verts)} vertices took {elapsed:.2f} s"
