import math
import random
from fractions import Fraction

import pytest

from triholo import io as tio
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
    # a NaN tolerance or value is a disagreement (abs(a - b) > nan is False)
    rep = OA.verify_qcd_identity(1.0, 1.5, win, l=[[0.25, 0.1], [0.4, 0.25]], tol=float("nan"))
    assert rep.holds is False
    assert OA.verify_qcd_identity(math.nan, 1.5, win, l=[[0.25, 0.1], [0.4, 0.25]]).holds is False


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


def test_f_criterion_reads_a_over_b():
    """f(n) = (a(n) b(n+e1) - 1) / (b(n) a(n-e1) - 1) for Qw = 1 + a t1 and
    Qb = 1 + b t1^-1: A over B, nowhere 1, so A and B cannot be swapped."""
    win = Window(0, 5, 0, 5)

    def a(n):
        return Fraction(n[0] + 2 * n[1] + 30, 7)

    def b(n):
        return Fraction(1, n[0] - n[1] + 11)

    qw = OA.DifferenceOperator({(0, 0): 1, (1, 0): a})
    qb = OA.DifferenceOperator({(0, 0): 1, (-1, 0): b})
    f = OA.zero_curvature_f_criterion(qw, qb, win)
    assert f.window == Window(1, 4, 0, 5)
    for (x, y), v in f.values.items():
        assert v == (a((x, y)) * b((x + 1, y)) - 1) / (b((x, y)) * a((x - 1, y)) - 1) != 1
    assert len(f.values) == 24


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


# --- closure-path oracles: the pointwise bodies the coefficient tables replaced,
# kept verbatim apart from names (module functions prefixed with OA.)

def closure_coefficient_rows(a, b, window):
    """The window shrunk by the reach of both stencils, and for each point n
    of it (n, [(a_alpha(n), b_alpha(n)) for every shift alpha of A or B])."""
    la, ra, ba, ta = a.margins()
    lb, rb, bb, tb = b.margins()
    inner = window.shrink(left=max(la, lb), right=max(ra, rb),
                          bottom=max(ba, bb), top=max(ta, tb))
    coeffs = [(a.coefficient(alpha), b.coefficient(alpha))
              for alpha in sorted(set(a.shifts) | set(b.shifts))]
    return inner, ((n, [(ca(n), cb(n)) for ca, cb in coeffs]) for n in inner.points())


def closure_equal_on_window(a, b, window, tol=None):
    try:
        _, rows = closure_coefficient_rows(a, b, window)
    except InsufficientWindow:
        raise WindowMismatch("window too small for both stencils")
    for _, pairs in rows:
        for va, vb in pairs:
            if tol is None:
                if va != vb:
                    return False
            elif abs(va - vb) > tol * max(abs(va), abs(vb), 1.0):
                return False
    return True


def closure_check_self_adjoint(lop, window):
    inner = window.shrink(left=1, right=1, bottom=1, top=1)
    for n in inner.points():
        x, y = n
        if lop.e(n) != lop.b((x - 1, y)):
            raise NotSelfAdjoint(f"e({n}) != b({(x - 1, y)})")
        if lop.f(n) != lop.c((x, y - 1)):
            raise NotSelfAdjoint(f"f({n}) != c({(x, y - 1)})")
        if lop.g(n) != lop.d((x + 1, y - 1)):
            raise NotSelfAdjoint(f"g({n}) != d({(x + 1, y - 1)})")
        for name in "abcdefg":
            if getattr(lop, name)(n) <= 0:
                raise NotSelfAdjoint(f"coefficient {name}({n}) not positive")


def closure_factorize(lop, color, window, mode="rational"):
    names, s, (dx, dy) = OA._color(color)
    closure_check_self_adjoint(lop, window)
    sqrt = OA._sqrt_exact if mode == "rational" else math.sqrt
    probe = window.shrink(left=1, right=1, bottom=1, top=1)
    op = lop.to_operator()
    l1, l2 = op.coefficient((s, 0)), op.coefficient((0, s))

    @OA._memo
    def q0(n):
        ratio = OA.frac(l1(n)) * OA.frac(l2(n)) / OA.frac(lop.d((n[0] + dx, n[1] + dy)))
        return sqrt(ratio)

    @OA._memo
    def q1(n):
        return l1(n) / q0(n)

    @OA._memo
    def q2(n):
        return l2(n) / q0(n)

    def potential(n):
        x, y = n
        return (lop.a(n) - q0(n) ** 2
                - q1((x - s, y)) ** 2 - q2((x, y - s)) ** 2)

    for n in probe.points():  # eager: positivity/squareness errors surface now
        q0(n)
    return OA.Factorization(color, dict(zip(names, (q0, q1, q2))), potential)


def closure_f_criterion(qw, qb, window):
    one = OA.identity_op()
    a = OA.compose(qw - one, qb - one) - one
    b = OA.compose(qb - one, qw - one) - one
    inner, rows = closure_coefficient_rows(a, b, window)
    fvals = {}
    for n, pairs in rows:
        ratio = None
        for va, vb in pairs:
            if vb == 0:
                if va != 0:
                    return None
                continue
            r = OA.frac(va) / OA.frac(vb) if not isinstance(va, float) else va / vb
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        if ratio is None or ratio == 0:
            if ratio == 0:
                return None
            ratio = Fraction(1)
        fvals[n] = ratio
    return LatticeFunction(fvals, inner)


def outcome(fn, *args, **kwargs):
    """('ok', result) or (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def random_window(rng, lo=3, hi=8):
    x0, y0 = rng.randint(-6, 4), rng.randint(-6, 4)
    return Window(x0, x0 + rng.randint(lo, hi), y0, y0 + rng.randint(lo, hi))


def test_table_comparison_matches_closure_path():
    rng = random.Random(47)
    outcomes = set()
    for _ in range(200):
        a, b = random_pair(rng)
        win = random_window(rng, 1, 7)
        want = outcome(closure_equal_on_window, a, b, win)
        assert outcome(OA.equal_on_window, a, b, win) == want
        outcomes.add(want[1] if want[0] == "ok" else want[0])
    assert outcomes == {True, False, WindowMismatch}


def float_op(rng, nterms=3):
    """Float coefficients that are not dyadic, so the order in which exact
    and float values meet changes the rounding."""
    terms = {}
    for _ in range(nterms):
        alpha = (rng.randint(-1, 1), rng.randint(-1, 1))
        k1, k2, k3 = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)
        terms[alpha] = (lambda n, k1=k1, k2=k2, k3=k3: (k1 * n[0] + k2 * n[1] + k3) / 10.0)
    return OA.DifferenceOperator(terms)


def test_table_comparison_matches_closure_path_in_float_mode():
    """Float operators beside exact ones with denominators 3 and 6: the
    tables keep a shift exact where its closure is, so the comparison
    agrees with the closure path at every tolerance, None included."""
    rng = random.Random(53)
    outcomes = set()
    for _ in range(80):
        a = float_op(rng, rng.randint(1, 3))
        b = rand_op(rng, rng.randint(1, 3)).scale(Fraction(1, 3))
        lhs = OA.compose(OA.adjoint(a), b) + a.scale(0.5) + b.scale(0.5)
        rhs = OA.adjoint(OA.compose(OA.adjoint(b), a)) + a - a.scale(0.5) \
            + b.scale(Fraction(1, 2))
        rhs = rhs.scale(rng.choice((1.0, 1.0 + 1e-9, 1.0 + 1e-15, 2)))
        win = random_window(rng, 4, 8)
        for tol in (None, 1e-12, 1e-6):
            want = closure_equal_on_window(lhs, rhs, win, tol=tol)
            assert OA.equal_on_window(lhs, rhs, win, tol=tol) is want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_mixed_exact_and_float_coefficients_keep_the_closure_values():
    """1/3 + 1/2 is summed exactly before it meets 0.1, as the closures do:
    float(5/6) + 0.1 = 0.9333333333333333, where floats throughout would
    give 0.9333333333333332."""
    third, half = OA.DifferenceOperator({(0, 0): Fraction(1, 3)}), OA.identity_op().scale(
        Fraction(1, 2))
    lhs = third + half + OA.DifferenceOperator({(0, 0): 0.1, (1, 0): Fraction(1, 3)})
    rhs = OA.DifferenceOperator({(0, 0): 0.9333333333333333, (1, 0): Fraction(1, 3)})
    assert (1 / 3 + 1 / 2) + 0.1 != 0.9333333333333333
    assert OA.equal_on_window(lhs, rhs, W) is True
    assert closure_equal_on_window(lhs, rhs, W) is True
    # an exact shift beside a float one stays exact: 1/3 is not 0.333...
    near = OA.DifferenceOperator({(0, 0): 0.9333333333333333, (1, 0): 1 / 3})
    assert OA.equal_on_window(lhs, near, W) is closure_equal_on_window(lhs, near, W) is False
    # compose: exact products sum exactly until the first float product
    q = OA.DifferenceOperator({(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 2), (-1, 0): 0.1})
    qq = OA.compose(OA.adjoint(q), q)
    want = OA.DifferenceOperator({alpha: qq.coefficient(alpha)((0, 0)) for alpha in qq.terms})
    assert OA.equal_on_window(qq, want, W) is closure_equal_on_window(qq, want, W) is True
    # each shift exact on one side only: the values are compared (1/2 == 0.5),
    # never the integer rows
    lhs = OA.DifferenceOperator({(0, 0): Fraction(1, 2), (1, 0): 0.25})
    rhs = OA.DifferenceOperator({(0, 0): 0.5, (1, 0): Fraction(1, 4)})
    assert OA.equal_on_window(lhs, rhs, W, tol=None) is closure_equal_on_window(lhs, rhs, W) is True


def raising_at(fn, bad):
    def f(n):
        if n in bad:
            raise ValueError(f"operator coefficient missing at {n}")
        return fn(n)
    return f


def test_untabulable_coefficients_read_the_closures():
    """A coefficient that raises where the closures never look, or returns
    floats at some points and Fractions at others, gives the closure
    path's answer, error included."""
    win = Window(0, 5, 0, 5)
    q = OA.DifferenceOperator({(0, 0): 1, (1, 0): 2, (0, 1): 3})
    corner = OA.DifferenceOperator({(0, 0): raising_at(lambda n: Fraction(1), {(5, 5)})})
    early = OA.DifferenceOperator({(0, 0): raising_at(lambda n: Fraction(1), {(3, 3)})})
    mixed = OA.DifferenceOperator({(0, 0): lambda n: 0.5 if n[0] % 2 else Fraction(1, 2)})
    cases = [
        # the hull of `corner` in compose(q, corner) has (5, 5); no closure reads it
        (OA.compose(q, corner), OA.compose(q, OA.identity_op())),
        (OA.compose(q, corner), q.scale(2)),
        # the closures return False at (1, 0), before they reach (3, 3)
        (early + OA.shift_op((1, 0)).scale(2), OA.identity_op()),
        # and raise at (3, 3) when nothing differs before it
        (early + OA.shift_op((1, 0)), OA.identity_op() + OA.shift_op((1, 0))),
        (mixed, OA.identity_op().scale(Fraction(1, 2))),
        (mixed + q, OA.identity_op().scale(0.5) + q),
    ]
    for a, b in cases:
        for tol in (None, 1e-9):
            want = outcome(closure_equal_on_window, a, b, win, tol=tol)
            assert outcome(OA.equal_on_window, a, b, win, tol=tol) == want
    assert [outcome(OA.equal_on_window, a, b, win) for a, b in cases] == [
        ("ok", True), ("ok", False), ("ok", False),
        (ValueError, "operator coefficient missing at (3, 3)"), ("ok", True), ("ok", True)]
    for qw in (q + corner, q + early, q + mixed):
        qb = OA.adjoint(q)
        want = outcome(closure_f_criterion, qw, qb, win)
        got = outcome(OA.zero_curvature_f_criterion, qw, qb, win)
        assert got[0] == want[0]
        assert got[1] == want[1]


def same_factors(got, want, window):
    """Every coefficient and the potential, type and value, on the window
    grown by two (points no table covers included)."""
    for n in Window(window.x0 - 2, window.x1 + 2, window.y0 - 2, window.y1 + 2).points():
        for g, w in [(got.coeffs[k], want.coeffs[k]) for k in want.coeffs] + [
                (got.potential, want.potential)]:
            gv, wv = outcome(g, n), outcome(w, n)
            assert gv[0] == wv[0], n
            if gv[0] == "ok":
                assert (type(gv[1]), gv[1]) == (type(wv[1]), wv[1]), n


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_factorize_matches_closure_path(mode):
    rng = random.Random(61)
    cases = [(OA.random_factorizable(random.Random(seed), color), color)
             for seed in range(6) for color in ("black", "white")]
    cases += [(OA.exponential_both_colors(), color) for color in ("black", "white")]
    for lop, color in cases:
        win = random_window(rng, 2, 7)
        fac = OA.factorize(lop, color, win, mode=mode)
        same_factors(fac, closure_factorize(lop, color, win, mode=mode), win)
        assert OA.equal_on_window(fac.recompose(), lop.to_operator(), win,
                                  tol=None if mode == "rational" else 1e-12)


def test_factorize_reads_tables_for_built_operators():
    for lop in (OA.random_factorizable(random.Random(2), "white"),
                OA.exponential_both_colors(), OA.SchrodingerOperator(3, 1, 1, 1, 1, 1, 1)):
        assert OA._lop_table(lop, Window(0, 6, 0, 6)) is not None


def test_f_criterion_matches_closure_path():
    rng = random.Random(67)
    s = Fraction(3, 2)
    qw = OA.DifferenceOperator({(0, 0): 1, (1, 0): lambda n: s ** n[1],
                                (0, 1): lambda n: s ** (-n[0])})
    cases = [(qw, OA.adjoint(qw)),
             (OA.DifferenceOperator({(0, 0): 1, (1, 0): 1, (0, 1): 1}),
              OA.DifferenceOperator({(0, 0): 1, (-1, 0): 1, (0, -1): 1}))]
    for _ in range(20):
        a = rand_op(rng)
        cases.append((a, OA.adjoint(a)) if rng.random() < 0.5 else (a, rand_op(rng)))
    outcomes = set()
    for qw, qb in cases:
        win = random_window(rng, 4, 7)
        want = closure_f_criterion(qw, qb, win)
        got = OA.zero_curvature_f_criterion(qw, qb, win)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.window == want.window and got == want
        outcomes.add(want is None)
    assert outcomes == {True, False}


def grid_operator(lop, grid):
    """The op-file form of lop: each coefficient a table on `grid` that
    raises ValueError off it, as `io.parse_operator` builds it."""
    lines = []
    for name, alpha in OA.SCHRODINGER_SHIFTS.items():
        lines.append(f"op {alpha[0]} {alpha[1]}")
        lines += [f"c {p[0]} {p[1]} {getattr(lop, name)(p)}" for p in grid.points()]
    return OA.SchrodingerOperator.from_operator(tio.parse_operator("\n".join(lines)))


def perturbed(lop, name, at, by):
    fn = getattr(lop, name)
    kw = {k: getattr(lop, k) for k in "abcdefg"}
    kw[name] = lambda n: fn(n) + by if n == at else fn(n)
    return OA.SchrodingerOperator(**kw)


def test_errors_match_closure_path():
    rng = random.Random(71)
    cases = [(OA.SchrodingerOperator(3, 2, 1, 1, 1, 1, 1), "black", Window(0, 5, 0, 5)),
             (OA.SchrodingerOperator(9, 2, 1, 1, 2, 1, 1), "black", Window(0, 5, 0, 5))]
    for _ in range(40):
        color = rng.choice(("black", "white"))
        lop = OA.random_factorizable(random.Random(rng.randrange(100)), color)
        win = random_window(rng, 3, 6)
        at = (rng.randint(win.x0, win.x1), rng.randint(win.y0, win.y1))
        kind = rng.randrange(4)
        if kind == 0:       # no longer self-adjoint, or not positive
            lop = perturbed(lop, rng.choice("abcdefg"), at, rng.choice((-100, Fraction(1, 3))))
        elif kind == 1:     # self-adjoint, but an irrational root
            lop = perturbed(lop, "a", at, 1)
            lop = perturbed(lop, "d", at, Fraction(1, 7))
        elif kind == 2:     # coefficients missing off a grid the window overhangs
            grid = Window(win.x0 + rng.randint(0, 2), win.x1 - rng.randint(0, 2),
                          win.y0 + rng.randint(0, 2), win.y1 - rng.randint(0, 2))
            lop = grid_operator(lop, grid)
        cases.append((lop, color, win))
    kinds = set()
    for lop, color, win in cases:
        for mode in ("rational", "float"):
            want = outcome(closure_factorize, lop, color, win, mode=mode)
            got = outcome(OA.factorize, lop, color, win, mode=mode)
            assert got[0] == want[0]
            if want[0] == "ok":
                same_factors(got[1], want[1], win)
            else:
                assert got[1] == want[1]
                kinds.add(want[0])
        assert (outcome(lop.check_self_adjoint, win)
                == outcome(closure_check_self_adjoint, lop, win))
    assert kinds == {NotSelfAdjoint, NotFactorizable, ValueError}


def counted(fn, calls):
    def f(n):
        calls[(id(f), n)] = calls.get((id(f), n), 0) + 1
        return fn(n)
    return f


def test_each_leaf_coefficient_is_evaluated_once_per_point():
    rng = random.Random(73)
    for _ in range(10):
        calls: dict = {}
        a = OA.DifferenceOperator({alpha: counted(c, calls) for alpha, c in rand_op(rng).terms.items()})
        b = OA.DifferenceOperator({alpha: counted(c, calls) for alpha, c in rand_op(rng).terms.items()})
        lhs = OA.compose(OA.adjoint(a), a) - OA.identity_op()
        OA.equal_on_window(lhs, b, random_window(rng, 4, 8))
        assert calls and max(calls.values()) == 1
    # factorize and the recomposition check read each coefficient of L once
    # per point
    for color in ("black", "white"):
        calls = {}
        built = OA.random_factorizable(random.Random(5), color)
        lop = OA.SchrodingerOperator(**{k: counted(getattr(built, k), calls) for k in "abcdefg"})
        win = Window(0, 6, 0, 6)
        fac = OA.factorize(lop, color, win)
        assert calls and max(calls.values()) == 1
        calls.clear()
        assert OA.equal_on_window(fac.recompose(), lop.to_operator(), win)
        assert calls and max(calls.values()) == 1


def test_exponential_rows_match_the_closures():
    """The a1/a2 leaves of build_exponential_Q hand out the part the
    closures give point by point (same integers, same denominator), on
    windows across the origin and for negative and fractional c, d, q, s."""
    rng = random.Random(79)

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    for _ in range(300):
        c, d = Fraction(rng.randint(-9, 9), rng.randint(1, 5)), nonzero()
        q = OA.build_exponential_Q(c, d, nonzero(), nonzero())
        win = random_window(rng, 0, 7)
        for alpha in ((1, 0), (0, 1)):
            fn = q.terms[alpha]
            assert fn._rows_on(win) == OA._leaf_part(lambda n, fn=fn: fn(n), win)
