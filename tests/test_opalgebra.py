import math
import random
from fractions import Fraction

import pytest

from triholo import opalgebra as OA
from triholo.errors import (
    ConditionViolated,
    InsufficientWindow,
    NotFactorizable,
    NotSelfAdjoint,
    WindowMismatch,
)
from triholo.lattice import LatticeFunction, Window

W = Window(-6, 6, -6, 6)


def rand_op(rng, nterms=3):
    terms = {}
    for _ in range(nterms):
        alpha = (rng.randint(-1, 1), rng.randint(-1, 1))
        k1, k2, k3 = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)
        terms[alpha] = (lambda n, k1=k1, k2=k2, k3=k3:
                        Fraction(k1 * n[0] + k2 * n[1] + k3, 2))
    return OA.DifferenceOperator(terms)


def test_adjoint_of_Q():
    q = OA.DifferenceOperator({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    qp = OA.adjoint(q)
    assert qp.shifts == [(-1, 0), (0, -1), (0, 0)]
    assert all(qp.coefficient(a)((3, 5)) == 1 for a in qp.shifts)


def test_shift_inverse_composes_to_identity():
    t1 = OA.shift_op((1, 0))
    t1i = OA.shift_op((-1, 0))
    assert OA.equal_on_window(OA.compose(t1, t1i), OA.identity_op(), W)
    assert OA.equal_on_window(OA.compose(t1i, t1), OA.identity_op(), W)


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(17)
    for _ in range(8):
        a, b = rand_op(rng), rand_op(rng)
        assert OA.equal_on_window(OA.adjoint(OA.adjoint(a)), a, W)
        assert OA.equal_on_window(OA.adjoint(OA.compose(a, b)),
                                  OA.compose(OA.adjoint(b), OA.adjoint(a)), W)


def test_compose_associative():
    rng = random.Random(23)
    a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
    assert OA.equal_on_window(OA.compose(OA.compose(a, b), c),
                              OA.compose(a, OA.compose(b, c)), W)


def test_adjoint_is_inner_product_adjoint():
    rng = random.Random(29)
    a = rand_op(rng)
    ap = OA.adjoint(a)
    for _ in range(25):
        i = (rng.randint(-2, 2), rng.randint(-2, 2))
        j = (rng.randint(-2, 2), rng.randint(-2, 2))
        di = LatticeFunction({i: 1})
        dj = LatticeFunction({j: 1})
        assert a.apply(di)[j] == ap.apply(dj)[i]


def test_equal_on_window_rejects_tiny_window():
    a = OA.shift_op((3, 0))
    for equal in (OA.equal_on_window, probe_equal_on_window):
        with pytest.raises(WindowMismatch):
            equal(a, a, Window(0, 2, 0, 2))


def test_factorize_constant_roundtrip():
    lop = OA.SchrodingerOperator(3, 1, 1, 1, 1, 1, 1)
    win = Window(0, 9, 0, 9)
    fac = OA.factorize(lop, "black", win)
    n = (4, 4)
    assert fac.coeffs["u"](n) == 1
    assert fac.coeffs["v"](n) == 1
    assert fac.coeffs["w"](n) == 1
    assert fac.potential(n) == 0
    assert OA.equal_on_window(fac.recompose(), lop.to_operator(), win)


def test_factorize_random_roundtrips():
    rng = random.Random(31)
    win = Window(0, 11, 0, 11)
    for _ in range(6):
        for color in ("black", "white"):
            lop = OA.random_factorizable(rng, color)
            fac = OA.factorize(lop, color, win)
            assert OA.equal_on_window(fac.recompose(), lop.to_operator(), win)


def test_potentials_differ_between_colors():
    lop = OA.exponential_both_colors()
    win = Window(-4, 4, -4, 4)
    fb = OA.factorize(lop, "black", win)
    fw = OA.factorize(lop, "white", win)
    assert OA.equal_on_window(fb.recompose(), lop.to_operator(), win)
    assert OA.equal_on_window(fw.recompose(), lop.to_operator(), win)
    assert fb.potential((1, 1)) != fw.potential((1, 1))


def test_factorize_float_mode_close_to_exact():
    rng = random.Random(37)
    lop = OA.random_factorizable(rng, "black")
    win = Window(0, 9, 0, 9)
    exact = OA.factorize(lop, "black", win)
    approx = OA.factorize(lop, "black", win, mode="float")
    for n in Window(1, 8, 1, 8).points():
        assert math.isclose(float(exact.coeffs["u"](n)),
                            approx.coeffs["u"](n), rel_tol=1e-12)


def test_factorize_errors():
    not_sa = OA.SchrodingerOperator(3, 2, 1, 1, 1, 1, 1)  # e != b(.-e1)
    with pytest.raises(NotSelfAdjoint):
        OA.factorize(not_sa, "black", Window(0, 5, 0, 5))
    # self-adjoint but irrational factor coefficients in rational mode
    irr = OA.SchrodingerOperator(9, 2, 1, 1, 2, 1, 1)
    with pytest.raises(NotFactorizable):
        OA.factorize(irr, "black", Window(0, 5, 0, 5))
    assert OA.factorize(irr, "black", Window(0, 5, 0, 5), mode="float")


def test_qcd_identity_constant_case():
    # l = 0: q = 1, both sides equal since constant operators commute with shifts
    win = Window(-4, 4, -4, 4)
    rep = OA.verify_qcd_identity(2, 5, win, q=1, s=1)
    assert rep.holds


def test_qcd_identity_rational():
    win = Window(-5, 5, -5, 5)
    assert OA.verify_qcd_identity(1, 1, win, q=2, s=3).holds
    assert OA.verify_qcd_identity(Fraction(1, 2), 2, win,
                                  q=Fraction(3, 2), s=Fraction(5, 7)).holds


def test_qcd_identity_float_and_condition():
    win = Window(-5, 5, -5, 5)
    rep = OA.verify_qcd_identity(1.0, 1.5, win, l=[[0.25, 0.1], [0.4, 0.25]])
    assert rep.holds and rep.mode == "float"
    with pytest.raises(ConditionViolated):
        OA.verify_qcd_identity(1.0, 1.0, win, l=[[0.25, 0.1], [0.1, 0.25]])


def test_qcd_identity_fails_off_identity():
    # same window, deliberately broken right-hand side: scale mismatch
    win = Window(-4, 4, -4, 4)
    big = OA.build_exponential_Q(1, 1, 2, 3)
    small = OA.build_exponential_Q(Fraction(1, 4), Fraction(1, 4), 2, 3)
    one = OA.identity_op()
    lhs = OA.compose(OA.adjoint(big), big) - one
    wrong = (OA.compose(small, OA.adjoint(small)) - one).scale(3)
    assert not OA.equal_on_window(lhs, wrong, win)


def test_f_criterion():
    win = Window(-5, 5, -5, 5)
    qw = OA.DifferenceOperator({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    qb = OA.DifferenceOperator({(0, 0): 1, (-1, 0): 1, (0, -1): 1})
    f = OA.zero_curvature_f_criterion(qw, qb, win)
    assert f is not None and all(v == 1 for v in f.values.values())
    # special exponential pair l12 + l21 = 0
    s = Fraction(3, 2)
    qw2 = OA.DifferenceOperator({(0, 0): 1,
                                 (1, 0): lambda n: s ** n[1],
                                 (0, 1): lambda n: s ** (-n[0])})
    qb2 = OA.adjoint(qw2)
    f2 = OA.zero_curvature_f_criterion(qw2, qb2, win)
    assert f2 is not None and all(v != 0 for v in f2.values.values())
    # generic coefficients: no consistent ratio
    qw3 = OA.DifferenceOperator({(0, 0): 1,
                                 (1, 0): lambda n: Fraction(n[0] + 8),
                                 (0, 1): 1})
    qb3 = OA.DifferenceOperator({(0, 0): 1,
                                 (-1, 0): lambda n: Fraction(n[1] + 9),
                                 (0, -1): 1})
    assert OA.zero_curvature_f_criterion(qw3, qb3, win) is None


def test_f_criterion_certifies_identity():
    # when f exists, A - f.B vanishes as an operator on the window
    win = Window(-4, 4, -4, 4)
    s = Fraction(2)
    qw = OA.DifferenceOperator({(0, 0): 1,
                                (1, 0): lambda n: s ** n[1],
                                (0, 1): lambda n: s ** (-n[0])})
    qb = OA.adjoint(qw)
    f = OA.zero_curvature_f_criterion(qw, qb, win)
    one = OA.identity_op()
    a = OA.compose(qw - one, qb - one) - one
    b = OA.compose(qb - one, qw - one) - one
    shifts = set(a.shifts) | set(b.shifts)
    for n in f.window.points():
        for alpha in shifts:
            assert a.coefficient(alpha)(n) == f[n] * b.coefficient(alpha)(n)


def test_qcd_identity_symmetric_cross_terms():
    # q = 2 with l12 = l21 (so s = q = 2): c = d = 1, exact on the interior
    win = Window(-5, 5, -5, 5)
    assert OA.verify_qcd_identity(1, 1, win, q=2, s=2).holds


# --- oracles for the direct coefficient comparison and the factorization table

def probe_equal_on_window(a, b, window, tol=None):
    """The former equal_on_window, kept verbatim as the oracle: apply both
    operators to every delta function of the window and compare wherever
    both results stay inside the window."""
    la, ra, ba, ta = a.margins()
    lb, rb, bb, tb = b.margins()
    try:
        interior = window.shrink(left=max(la, lb), right=max(ra, rb),
                                 bottom=max(ba, bb), top=max(ta, tb))
    except InsufficientWindow:
        raise WindowMismatch("window too small for both stencils")
    shifts = set(a.shifts) | set(b.shifts)
    for n in interior.points():
        for alpha in shifts:
            p = (n[0] + alpha[0], n[1] + alpha[1])
            d = LatticeFunction({p: 1})
            va = a.apply(d)[n]
            vb = b.apply(d)[n]
            if tol is None:
                if va != vb:
                    return False
            else:
                scale = max(abs(va), abs(vb), 1.0)
                if abs(va - vb) > tol * scale:
                    return False
    return True


def random_pair(rng):
    """Two operators built from the same random parts by compose, adjoint,
    sums, scaling and zero coefficients; often equal, often not."""
    a, b = rand_op(rng, rng.randint(1, 3)), rand_op(rng, rng.randint(1, 3))
    zero = OA.DifferenceOperator({(rng.randint(-1, 1), rng.randint(-1, 1)): 0})
    kind = rng.randrange(7)
    if kind == 0:
        return OA.adjoint(OA.compose(a, b)), OA.compose(OA.adjoint(b), OA.adjoint(a))
    if kind == 1:
        return OA.compose(a, b), OA.compose(b, a)
    if kind == 2:
        return a + b, b + a + zero
    if kind == 3:
        return (a - a) + zero, OA.DifferenceOperator({})
    if kind == 4:
        return OA.adjoint(OA.adjoint(a)) + zero, a.scale(rng.choice((1, 1, 2)))
    if kind == 5:       # a shift that only one side has
        extra = OA.shift_op((2, rng.randint(-1, 1))).scale(rng.choice((0, 1)))
        return (a, a + extra) if rng.random() < 0.5 else (a + extra, a)
    return a + b.scale(Fraction(1, 2)), a + b - b.scale(Fraction(1, 2))


def test_direct_comparison_agrees_with_delta_probe():
    rng = random.Random(41)
    win = Window(-3, 3, -3, 3)
    outcomes = set()
    for _ in range(120):
        a, b = random_pair(rng)
        want = probe_equal_on_window(a, b, win)
        assert OA.equal_on_window(a, b, win) is want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_direct_comparison_agrees_with_delta_probe_in_float_mode():
    rng = random.Random(43)
    win = Window(-3, 3, -3, 3)
    outcomes = set()
    for _ in range(40):
        c, d = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        l11 = rng.uniform(-0.3, 0.3)
        l12 = rng.uniform(-0.3, 0.3)
        l = [[l11, l12], [2 * l11 - l12, l11]]
        qv = math.exp(l11)
        big = OA.build_exponential_Q_float(c, d, l)
        small = OA.build_exponential_Q_float(c / qv ** 2, d / qv ** 2, l)
        one = OA.identity_op()
        lhs = OA.compose(OA.adjoint(big), big) - one
        rhs = (OA.compose(small, OA.adjoint(small)) - one).scale(
            qv * qv * rng.choice((1.0, 1.0 + 1e-9, 1.0 + 1e-15)))
        for tol in (1e-12, 1e-6):
            want = probe_equal_on_window(lhs, rhs, win, tol=tol)
            assert OA.equal_on_window(lhs, rhs, win, tol=tol) is want
            outcomes.add(want)
    assert outcomes == {True, False}


def hand_factorizable(rng, color):
    """The former hand-expanded random_factorizable, kept as the
    coefficient reference for the recomposed one."""
    def rpos():
        num = rng.randint(1, 9)
        den = rng.randint(1, 9)

        def f(n):
            h = (hash((n, num, den)) % 7) + 1
            return Fraction(num * h, den)

        return f

    pot = rng.randint(1, 5)
    if color == "black":
        u, v, w = rpos(), rpos(), rpos()
        return OA.SchrodingerOperator(
            a=lambda n: u(n) ** 2 + v((n[0] + 1, n[1])) ** 2
            + w((n[0], n[1] + 1)) ** 2 + pot,
            b=lambda n: u((n[0] + 1, n[1])) * v((n[0] + 1, n[1])),
            c=lambda n: u((n[0], n[1] + 1)) * w((n[0], n[1] + 1)),
            d=lambda n: v((n[0], n[1] + 1)) * w((n[0], n[1] + 1)),
            e=lambda n: u(n) * v(n),
            f=lambda n: u(n) * w(n),
            g=lambda n: v((n[0] + 1, n[1])) * w((n[0] + 1, n[1])),
        )
    x, y, z = rpos(), rpos(), rpos()
    return OA.SchrodingerOperator(
        a=lambda n: x(n) ** 2 + y((n[0] - 1, n[1])) ** 2
        + z((n[0], n[1] - 1)) ** 2 + pot,
        b=lambda n: x(n) * y(n),
        c=lambda n: x(n) * z(n),
        d=lambda n: y((n[0] - 1, n[1])) * z((n[0] - 1, n[1])),
        e=lambda n: x((n[0] - 1, n[1])) * y((n[0] - 1, n[1])),
        f=lambda n: x((n[0], n[1] - 1)) * z((n[0], n[1] - 1)),
        g=lambda n: y((n[0], n[1] - 1)) * z((n[0], n[1] - 1)),
    )


def hand_both_colors(base=2, pot=3):
    def u(n):
        return Fraction(base) ** (n[0] + n[1])

    return OA.SchrodingerOperator(
        a=lambda n: u(n) ** 2 + 2 + pot,
        b=lambda n: u((n[0] + 1, n[1])),
        c=lambda n: u((n[0], n[1] + 1)),
        d=lambda n: Fraction(1),
        e=lambda n: u(n),
        f=lambda n: u(n),
        g=lambda n: Fraction(1),
    )


def same_coefficients(got, want, window):
    for name in "abcdefg":
        for n in window.points():
            g, w = getattr(got, name)(n), getattr(want, name)(n)
            assert (type(g), g) == (type(w), w), (name, n)


@pytest.mark.parametrize("color", ["black", "white"])
def test_random_factorizable_matches_hand_expansion(color):
    for seed in range(8):
        same_coefficients(OA.random_factorizable(random.Random(seed), color),
                          hand_factorizable(random.Random(seed), color),
                          Window(-4, 6, -4, 6))
    with pytest.raises(ValueError, match="color"):
        OA.random_factorizable(random.Random(0), "grey")


def test_exponential_both_colors_matches_hand_expansion():
    same_coefficients(OA.exponential_both_colors(), hand_both_colors(), Window(-5, 5, -5, 5))


def test_from_operator_roundtrip():
    lop = OA.random_factorizable(random.Random(3), "white")
    back = OA.SchrodingerOperator.from_operator(lop.to_operator())
    same_coefficients(back, lop, Window(0, 4, 0, 4))
