"""Formal difference-operator algebra on Z^2: adjoints, composition,
Schrodinger factorizations and the exponential-coefficient identities.

An operator is a finite sum  sum_alpha c_alpha(n) t^alpha  of shifts with
coefficient functions; with (t_j f)(n) = f(n + e_j) the formal adjoint of
a single term is

    (c t^alpha)+ = c(. - alpha) t^(-alpha),

which makes <A f, g> = <f, A+ g> for the counting inner product and
t_j+ = t_j^{-1}.  Coefficients are arbitrary callables n -> value; exact
when they return Fractions, float otherwise.  Two operators are compared
on a window coefficient by coefficient (`equal_on_window`).

Both colours of the factorization L = Q+ Q + U are one construction,
read from the table `COLORS`: Q = q0 + q1 t1^s + q2 t2^s with s = -1
(black) or s = +1 (white).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditionViolated,
    InsufficientWindow,
    NotFactorizable,
    NotSelfAdjoint,
    WindowMismatch,
)
from .lattice import LatticeFunction, Window
from .ratmat import frac

Point = tuple[int, int]


def const(v):
    v = frac(v) if not isinstance(v, float) else v

    def f(_n):
        return v

    return f


class DifferenceOperator:
    """Finite sum of coefficient-function shift terms."""

    def __init__(self, terms: dict):
        self.terms = {}
        for alpha, c in terms.items():
            alpha = (int(alpha[0]), int(alpha[1]))
            if not callable(c):
                c = const(c)
            self.terms[alpha] = c

    @property
    def shifts(self):
        return sorted(self.terms)

    def coefficient(self, alpha: Point):
        return self.terms.get(tuple(alpha), const(0))

    def margins(self):
        """(left, right, bottom, top) stencil reach."""
        xs = [a[0] for a in self.terms] or [0]
        ys = [a[1] for a in self.terms] or [0]
        return (max(0, -min(xs)), max(0, max(xs)), max(0, -min(ys)), max(0, max(ys)))

    def apply(self, f: LatticeFunction) -> LatticeFunction:
        """(A f)(n) = sum_alpha c_alpha(n) f(n + alpha)."""
        if f.finite_support:
            out = {}
            for alpha, c in self.terms.items():
                for p, v in f.values.items():
                    q = (p[0] - alpha[0], p[1] - alpha[1])
                    out[q] = out.get(q, Fraction(0)) + c(q) * v
            return LatticeFunction({p: v for p, v in out.items() if v != 0})
        left, right, bottom, top = self.margins()
        w = f.window.shrink(left=left, right=right, bottom=bottom, top=top)
        vals = {}
        for p in w.points():
            acc = 0
            for alpha, c in self.terms.items():
                acc = acc + c(p) * f[(p[0] + alpha[0], p[1] + alpha[1])]
            vals[p] = acc
        return LatticeFunction(vals, w)

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            if alpha in terms:
                terms[alpha] = _sum_coeff(terms[alpha], c)
            else:
                terms[alpha] = c
        return DifferenceOperator(terms)

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "DifferenceOperator":
        s = frac(s) if not isinstance(s, float) else s
        return DifferenceOperator(
            {alpha: _mul_coeff(c, s) for alpha, c in self.terms.items()})


def _sum_coeff(c1, c2):
    return lambda n: c1(n) + c2(n)


def _mul_coeff(c, s):
    return lambda n: c(n) * s


def identity_op() -> DifferenceOperator:
    return DifferenceOperator({(0, 0): 1})


def shift_op(alpha: Point) -> DifferenceOperator:
    return DifferenceOperator({tuple(alpha): 1})


def compose(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    """(c t^alpha)(c' t^beta) = c * (c' o t^alpha) t^(alpha+beta)."""
    terms: dict = {}
    for alpha, c in a.terms.items():
        for beta, d in b.terms.items():
            gamma = (alpha[0] + beta[0], alpha[1] + beta[1])

            def coeff(n, c=c, d=d, alpha=alpha):
                return c(n) * d((n[0] + alpha[0], n[1] + alpha[1]))

            terms[gamma] = _sum_coeff(terms[gamma], coeff) if gamma in terms else coeff
    return DifferenceOperator(terms)


def adjoint(a: DifferenceOperator) -> DifferenceOperator:
    """Formal adjoint, term by term."""
    terms = {}
    for alpha, c in a.terms.items():
        nalpha = (-alpha[0], -alpha[1])

        def coeff(n, c=c, alpha=alpha):
            return c((n[0] - alpha[0], n[1] - alpha[1]))

        terms[nalpha] = _sum_coeff(terms[nalpha], coeff) if nalpha in terms else coeff
    return DifferenceOperator(terms)


def _coefficient_rows(a: DifferenceOperator, b: DifferenceOperator, window: Window):
    """The window shrunk by the reach of both stencils, and for each point n
    of it (n, [(a_alpha(n), b_alpha(n)) for every shift alpha of A or B])."""
    la, ra, ba, ta = a.margins()
    lb, rb, bb, tb = b.margins()
    inner = window.shrink(left=max(la, lb), right=max(ra, rb),
                          bottom=max(ba, bb), top=max(ta, tb))
    coeffs = [(a.coefficient(alpha), b.coefficient(alpha))
              for alpha in sorted(set(a.shifts) | set(b.shifts))]
    return inner, ((n, [(ca(n), cb(n)) for ca, cb in coeffs]) for n in inner.points())


def equal_on_window(a: DifferenceOperator, b: DifferenceOperator,
                    window: Window, tol: float | None = None) -> bool:
    """Test A = B on the window: a_alpha(n) == b_alpha(n) for every shift
    alpha and every point n where both stencils fit.  With `tol`, values
    agree within tol relative to max(|a|, |b|, 1).  WindowMismatch when
    no point fits."""
    try:
        _, rows = _coefficient_rows(a, b, window)
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


# --- Schrodinger operators and their factorizations -------------------------

SCHRODINGER_SHIFTS = {
    "a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (-1, 1),
    "e": (-1, 0), "f": (0, -1), "g": (1, -1),
}


@dataclass
class SchrodingerOperator:
    """Self-adjoint 7-point operator
    L = a + b t1 + c t2 + d t1^-1 t2 + e t1^-1 + f t2^-1 + g t1 t2^-1
    with positive diagonal and edge coefficients."""

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object

    def __post_init__(self):
        for name in "abcdefg":
            v = getattr(self, name)
            if not callable(v):
                setattr(self, name, const(v))

    @classmethod
    def from_operator(cls, op: DifferenceOperator) -> "SchrodingerOperator":
        """The coefficients of `op` at the seven Schrodinger shifts."""
        return cls(**{name: op.coefficient(alpha)
                      for name, alpha in SCHRODINGER_SHIFTS.items()})

    def to_operator(self) -> DifferenceOperator:
        return DifferenceOperator(
            {alpha: getattr(self, name) for name, alpha in SCHRODINGER_SHIFTS.items()})

    def check_self_adjoint(self, window: Window) -> None:
        """e(n) = b(n - e1), f(n) = c(n - e2), g(n) = d(n + e1 - e2) on the
        window interior; positivity of the diagonal and edge coefficients."""
        inner = window.shrink(left=1, right=1, bottom=1, top=1)
        for n in inner.points():
            x, y = n
            if self.e(n) != self.b((x - 1, y)):
                raise NotSelfAdjoint(f"e({n}) != b({(x - 1, y)})")
            if self.f(n) != self.c((x, y - 1)):
                raise NotSelfAdjoint(f"f({n}) != c({(x, y - 1)})")
            if self.g(n) != self.d((x + 1, y - 1)):
                raise NotSelfAdjoint(f"g({n}) != d({(x + 1, y - 1)})")
            for name in "abcdefg":
                if getattr(self, name)(n) <= 0:
                    raise NotSelfAdjoint(f"coefficient {name}({n}) not positive")


# colour -> (names of Q's coefficients at (0, 0), (s, 0) and (0, s), the step
# s, the offset from n at which L's coefficient d is read)
COLORS = {
    "black": (("u", "v", "w"), -1, (0, -1)),
    "white": (("x", "y", "z"), 1, (1, 0)),
}


def _color(color: str) -> tuple:
    if color not in COLORS:
        raise ValueError("color must be 'black' or 'white'")
    return COLORS[color]


@dataclass
class Factorization:
    """L = Q+ Q + potential with positive first-order coefficients.

    For color 'black', Q = u + v t1^-1 + w t2^-1; for 'white',
    Q = x + y t1 + z t2.  coeffs maps the three names to callables.
    """

    color: str
    coeffs: dict
    potential: object

    def q_operator(self) -> DifferenceOperator:
        names, s, _ = _color(self.color)
        q0, q1, q2 = (self.coeffs[k] for k in names)
        return DifferenceOperator({(0, 0): q0, (s, 0): q1, (0, s): q2})

    def recompose(self) -> DifferenceOperator:
        q = self.q_operator()
        return compose(adjoint(q), q) + DifferenceOperator({(0, 0): self.potential})


def _sqrt_exact(x: Fraction) -> Fraction:
    if x <= 0:
        raise NotFactorizable("coefficient ratio is not positive")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NotFactorizable(f"{x} has no exact rational square root")
    return Fraction(rn, rd)


def _memo(fn):
    cache: dict = {}

    def wrapped(n):
        if n not in cache:
            cache[n] = fn(n)
        return cache[n]

    return wrapped


def factorize(lop: SchrodingerOperator, color: str, window: Window,
              mode: str = "rational") -> Factorization:
    """Unique positive factorization L = Q+ Q + potential on the window.

    The six off-diagonal coefficients pin Q up to sign; positivity fixes
    the sign.  In rational mode the square roots must be exact
    (NotFactorizable otherwise); float mode takes math.sqrt.

    With s the colour's step, L's coefficients at t1^s and t2^s are
    q0 q1 and q0 q2, and d = q1 q2 read at the colour's offset, so
    q0 = sqrt(l1 l2 / d).
    """
    names, s, (dx, dy) = _color(color)
    lop.check_self_adjoint(window)
    sqrt = _sqrt_exact if mode == "rational" else math.sqrt
    probe = window.shrink(left=1, right=1, bottom=1, top=1)
    op = lop.to_operator()
    l1, l2 = op.coefficient((s, 0)), op.coefficient((0, s))

    @_memo
    def q0(n):
        ratio = frac(l1(n)) * frac(l2(n)) / frac(lop.d((n[0] + dx, n[1] + dy)))
        return sqrt(ratio)

    @_memo
    def q1(n):
        return l1(n) / q0(n)

    @_memo
    def q2(n):
        return l2(n) / q0(n)

    def potential(n):
        x, y = n
        return (lop.a(n) - q0(n) ** 2
                - q1((x - s, y)) ** 2 - q2((x, y - s)) ** 2)

    for n in probe.points():  # eager: positivity/squareness errors surface now
        q0(n)
    return Factorization(color, dict(zip(names, (q0, q1, q2))), potential)


def random_factorizable(rng: random.Random, color: str = "black") -> SchrodingerOperator:
    """Random positive self-adjoint L built as Q+ Q + potential from random
    positive rational first-order coefficients of the given color, so that
    the factorization of that color is exactly rational by construction.
    (A generic rational L factors only with irrational square roots.)"""
    def rpos():
        num = rng.randint(1, 9)
        den = rng.randint(1, 9)

        def f(n):
            # deterministic pseudo-random positive coefficient per point
            h = (hash((n, num, den)) % 7) + 1
            return Fraction(num * h, den)

        return f

    pot = rng.randint(1, 5)
    names = _color(color)[0]
    fac = Factorization(color, {k: rpos() for k in names}, pot)
    return SchrodingerOperator.from_operator(fac.recompose())


def exponential_both_colors() -> SchrodingerOperator:
    """A non-constant L exactly factorizable in both colors: built from the
    black operator u(n) = 2^(n1+n2), v = w = 1, with potential 3.  Its black
    and white potentials differ, which makes it a good two-sided test
    instance."""
    def u(n):
        return Fraction(2) ** (n[0] + n[1])

    fac = Factorization("black", {"u": u, "v": const(1), "w": const(1)}, 3)
    return SchrodingerOperator.from_operator(fac.recompose())


# --- exponential coefficients: Q(c, d) ---------------------------------------

def build_exponential_Q(c, d, q, s) -> DifferenceOperator:
    """Q(c, d) = 1 + c e^{l1(n)} t1 + d e^{l2(n)} t2 in the rational
    parametrization q = e^{l11} = e^{l22}, s = e^{l12} (so e^{l21} = q^2/s,
    which encodes l11 = l22 = (l12 + l21)/2)."""
    c, d, q, s = frac(c), frac(d), frac(q), frac(s)
    if q == 0 or s == 0:
        raise ConditionViolated("q and s must be nonzero")

    def a1(n):
        return c * q ** n[0] * s ** n[1]

    def a2(n):
        return d * (q * q / s) ** n[0] * q ** n[1]

    return DifferenceOperator({(0, 0): 1, (1, 0): a1, (0, 1): a2})


def build_exponential_Q_float(c, d, l) -> DifferenceOperator:
    """Float-mode Q(c, d) from the 2x2 matrix of linear-form coefficients;
    requires l[i][j] + l[j][i] independent of (i, j) (ConditionViolated)."""
    h = l[0][0] * 2
    if not (math.isclose(l[1][1] * 2, h, rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(l[0][1] + l[1][0], h, rel_tol=1e-12, abs_tol=1e-15)):
        raise ConditionViolated("l_ij + l_ji must be independent of i, j")

    def a1(n):
        return c * math.exp(l[0][0] * n[0] + l[0][1] * n[1])

    def a2(n):
        return d * math.exp(l[1][0] * n[0] + l[1][1] * n[1])

    return DifferenceOperator({(0, 0): 1, (1, 0): a1, (0, 1): a2})


@dataclass
class QcdReport:
    holds: bool
    q: object
    mode: str
    window: Window


def verify_qcd_identity(c, d, window: Window, q=None, s=None, l=None,
                        tol: float = 1e-12) -> QcdReport:
    """Check  Q(c,d)+ Q(c,d) - 1 = q^2 (Q' Q'+ - 1)  with Q' = Q(c/q^2, d/q^2).

    Rational mode: pass q and s exactly.  Float mode: pass the l matrix
    and a relative tolerance.
    """
    if l is None:
        if q is None or s is None:
            raise ValueError("rational mode needs q and s")
        qv = frac(q)
        big = build_exponential_Q(c, d, q, s)
        small = build_exponential_Q(frac(c) / qv ** 2, frac(d) / qv ** 2, q, s)
        mode = "rational"
        use_tol = None
    else:
        qv = math.exp(l[0][0])
        big = build_exponential_Q_float(c, d, l)
        small = build_exponential_Q_float(c / qv ** 2, d / qv ** 2, l)
        mode = "float"
        use_tol = tol
    one = identity_op()
    lhs = compose(adjoint(big), big) - one
    rhs = (compose(small, adjoint(small)) - one).scale(qv * qv)
    holds = equal_on_window(lhs, rhs, window, tol=use_tol)
    return QcdReport(holds, qv, mode, window)


# --- zero-curvature criterion -------------------------------------------------

def zero_curvature_f_criterion(qw: DifferenceOperator, qb: DifferenceOperator,
                               window: Window) -> LatticeFunction | None:
    """The function f with (Qw-1)(Qb-1) - 1 = f . ((Qb-1)(Qw-1) - 1), or
    None when no everywhere-nonzero single function matches all terms."""
    one = identity_op()
    a = compose(qw - one, qb - one) - one
    b = compose(qb - one, qw - one) - one
    inner, rows = _coefficient_rows(a, b, window)
    fvals = {}
    for n, pairs in rows:
        ratio = None
        for va, vb in pairs:
            if vb == 0:
                if va != 0:
                    return None
                continue
            r = frac(va) / frac(vb) if not isinstance(va, float) else va / vb
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        if ratio is None or ratio == 0:
            # all terms vanish: any nonzero value works; fail the
            # "everywhere nonzero" requirement only when forced to 0
            if ratio == 0:
                return None
            ratio = Fraction(1)
        fvals[n] = ratio
    return LatticeFunction(fvals, inner)
