"""Formal difference-operator algebra on Z^2: adjoints, composition,
Schrodinger factorizations and the exponential-coefficient identities.

An operator is a finite sum  sum_alpha c_alpha(n) t^alpha  of shifts with
coefficient functions; with (t_j f)(n) = f(n + e_j) the formal adjoint of
a single term is

    (c t^alpha)+ = c(. - alpha) t^(-alpha),

which makes <A f, g> = <f, A+ g> for the counting inner product and
t_j+ = t_j^{-1}.  Coefficients are arbitrary callables n -> value; exact
when they return Fractions, float otherwise.

Closures for points, tables for windows.  Every operator keeps its
coefficient callables, so `coefficient(alpha)(n)` and `apply` answer point
by point.  On a window an operator is a coefficient table: per shift one
lattice part (see `lattice`), rows[y - y0][x - x0] of integers over one
denominator, or of floats where the closures compute in floats, combined
with the row operations of `lattice`.  `compose`, `adjoint`, `+` and `scale`
record their operands, and a table is built bottom up from the operands'
tables: each leaf coefficient is evaluated once per point of the hull of
the windows its parents need (or hands out its rows there, as the
exponential coefficients do), and compose and adjoint sum products of
shifted row slices.  A shift's rows are exact exactly where its closure's
values are, and floats are combined in the closures' order, so a table
holds the closures' values.  `equal_on_window`, `factorize` and the
zero-curvature criterion work on tables.  `_tabulate` is the one place where
a table can fail to be built (a coefficient raises somewhere on the hull, or
returns floats at some points and exact values at others): it returns None,
and the callers read the closures point by point instead.  `_pairs` is the
one reader of coefficient pairs, off the tables or off the closures.

An L built from a factorization (`random_factorizable`,
`exponential_both_colors`) remembers it: while its seven fields are the
closures it was built with, `to_operator` is the factorization recomposed,
so L's table comes from the tables of Q's three coefficients and the
potential rather than from seven composite closures, each of which reads
Q's coefficients at several points.

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
from .lattice import LatticeFunction, Window, _floats, _product, _same, _scaled, _slice, _sum
from .ratmat import frac

Point = tuple[int, int]


def const(v):
    v = frac(v) if not isinstance(v, float) else v

    def f(_n):
        return v

    return f


class DifferenceOperator:
    """Finite sum of coefficient-function shift terms.  A composite keeps
    how it was built in `_node`, (kind, operands...), so that its table is
    built from its operands' tables."""

    def __init__(self, terms: dict):
        self.terms = {}
        for alpha, c in terms.items():
            alpha = (int(alpha[0]), int(alpha[1]))
            if not callable(c):
                c = const(c)
            self.terms[alpha] = c
        self._node = None

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
        return _composite(terms, ("add", self, other))

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "DifferenceOperator":
        s = frac(s) if not isinstance(s, float) else s
        return _composite({alpha: _mul_coeff(c, s) for alpha, c in self.terms.items()},
                          ("scale", self, s))


def _composite(terms: dict, node: tuple) -> DifferenceOperator:
    op = DifferenceOperator(terms)
    op._node = node
    return op


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
    return _composite(terms, ("compose", a, b))


def adjoint(a: DifferenceOperator) -> DifferenceOperator:
    """Formal adjoint, term by term."""
    terms = {}
    for alpha, c in a.terms.items():
        nalpha = (-alpha[0], -alpha[1])

        def coeff(n, c=c, alpha=alpha):
            return c((n[0] - alpha[0], n[1] - alpha[1]))

        terms[nalpha] = _sum_coeff(terms[nalpha], coeff) if nalpha in terms else coeff
    return _composite(terms, ("adjoint", a))


# --- coefficient tables -------------------------------------------------------
#
# A table holds one lattice part per shift (see the parts section of
# `lattice`): integer rows over one denominator, or floats.  A part is float
# exactly where the closure's values are float; the closures turn a Fraction
# into a float (correctly rounded, as v / den is) only when it meets a float
# operand, and so do `_sum` and `_product`.

class _Table:
    """An operator's coefficients on `window`: parts[alpha] = (rows, den)."""

    __slots__ = ("window", "parts")

    def __init__(self, window: Window, parts: dict):
        self.window, self.parts = window, parts

    def part(self, alpha: Point, window: Window, dx: int = 0, dy: int = 0) -> tuple:
        """The part at shift alpha on `window` moved by (dx, dy); exact
        zeros for a shift the operator does not have."""
        got = self.parts.get(alpha)
        if got is None:
            width, height = window.size
            return [[0] * width] * height, 1
        return _slice(got[0], self.window, window, (dx, dy)), got[1]


def _hull(w: Window | None, v: Window) -> Window:
    if w is None:
        return v
    return Window(min(w.x0, v.x0), max(w.x1, v.x1), min(w.y0, v.y0), max(w.y1, v.y1))


def _operands(op: DifferenceOperator) -> list:
    node = op._node
    return [] if node is None else [x for x in node[1:] if isinstance(x, DifferenceOperator)]


def _tabulate(pairs: list) -> list | None:
    """The tables of (operator, window) pairs, built together, or None when
    they cannot be built.

    Every operator reachable from the pairs gets one table, on the hull of
    the windows its parents (or the pairs) need, so a shared operand is
    tabulated once.  Tables are built children first.  Any exception is
    caught because the caller then reads the closures in the pointwise
    order: that raises what the pointwise path raises, or nothing when the
    failing point is one it never reads.
    """
    order, seen = [], set()
    stack = [(op, False) for op, _ in reversed(pairs)]
    while stack:
        op, expanded = stack.pop()
        if expanded:
            order.append(op)
        elif id(op) not in seen:
            seen.add(id(op))
            stack.append((op, True))
            stack.extend((x, False) for x in _operands(op))
    need: dict = {}

    def demand(op, w):
        need[id(op)] = _hull(need.get(id(op)), w)

    for op, w in pairs:
        demand(op, w)
    for op in reversed(order):          # parents before children
        node, w = op._node, need[id(op)]
        if node is None:
            continue
        kind, a = node[0], node[1]
        if kind == "compose":
            demand(a, w)
            demand(node[2], w.shrink(*(-m for m in a.margins())))
        elif kind == "adjoint":
            left, right, bottom, top = a.margins()
            demand(a, w.shrink(-right, -left, -top, -bottom))
        elif kind == "add":
            demand(a, w)
            demand(node[2], w)
        else:                           # scale
            demand(a, w)
    tabs: dict = {}
    try:
        for op in order:
            tabs[id(op)] = _build(op, need[id(op)], tabs)
    except Exception:
        return None
    return [tabs[id(op)] for op, _ in pairs]


def _build(op: DifferenceOperator, w: Window, tabs: dict) -> _Table:
    """The table of `op` on `w` from its operands' tables in `tabs`, each
    part combined in the order its closure combines its terms."""
    node = op._node
    if node is None:
        return _Table(w, {alpha: _leaf_part(fn, w) for alpha, fn in op.terms.items()})
    kind, a = node[0], node[1]
    ta = tabs[id(a)]
    if kind == "adjoint":
        return _Table(w, {(-x, -y): ta.part((x, y), w, -x, -y) for x, y in a.terms})
    if kind == "scale":
        s = node[2]
        parts = {}
        for alpha in a.terms:
            rows, den = ta.part(alpha, w)
            if den is None or isinstance(s, float):
                parts[alpha] = [[v * float(s) for v in r] for r in _floats((rows, den))], None
            else:
                parts[alpha] = _scaled(rows, s.numerator), den * s.denominator
        return _Table(w, parts)
    b = node[2]
    tb = tabs[id(b)]
    parts = {}
    if kind == "compose":
        for alpha in a.terms:
            pa = ta.part(alpha, w)
            for beta in b.terms:
                gamma = (alpha[0] + beta[0], alpha[1] + beta[1])
                term = _product(pa, tb.part(beta, w, *alpha))
                parts[gamma] = _sum(parts[gamma], term) if gamma in parts else term
        return _Table(w, parts)
    parts = {alpha: ta.part(alpha, w) for alpha in a.terms}      # add
    for alpha in b.terms:
        pb = tb.part(alpha, w)
        parts[alpha] = _sum(parts[alpha], pb) if alpha in parts else pb
    return _Table(w, parts)


def _leaf_part(fn, w: Window) -> tuple:
    """fn on `w` as a part, evaluated once per point row by row, unless fn
    hands out its own rows (a `_rows_on` attribute).  TypeError when fn
    returns floats at some points and exact values at others: no part
    holds both."""
    own = getattr(fn, "_rows_on", None)
    got = own(w) if own is not None else None
    if got is not None:
        return got
    xs = range(w.x0, w.x1 + 1)
    vals = [[fn((x, y)) for x in xs] for y in range(w.y0, w.y1 + 1)]
    floats = sum(isinstance(v, float) for r in vals for v in r)
    if floats:
        if floats < len(xs) * len(vals):
            raise TypeError("coefficient mixes float and exact values")
        return vals, None
    den = math.lcm(*{v.denominator for r in vals for v in r})
    return [[v.numerator * (den // v.denominator) for v in r] for r in vals], den


def _inner(window: Window, a: DifferenceOperator, b: DifferenceOperator) -> Window:
    """The window shrunk by the reach of both stencils."""
    la, ra, ba, ta = a.margins()
    lb, rb, bb, tb = b.margins()
    return window.shrink(left=max(la, lb), right=max(ra, rb),
                         bottom=max(ba, bb), top=max(ta, tb))


def _pairs(a: DifferenceOperator, b: DifferenceOperator, inner: Window, tabs: list | None):
    """For each point n of `inner`, (n, [(a_alpha(n), b_alpha(n)) for every
    shift alpha of A or B]): read off the tables `tabs` of A and B, or
    lazily from the closures, point by point, when `tabs` is None."""
    shifts = sorted(set(a.terms) | set(b.terms))
    if tabs is None:
        coeffs = [(a.coefficient(alpha), b.coefficient(alpha)) for alpha in shifts]
        for n in inner.points():
            yield n, [(ca(n), cb(n)) for ca, cb in coeffs]
        return
    cols = [[rows if den is None else [[Fraction(v, den) for v in r] for r in rows]
             for rows, den in (t.part(alpha, inner) for t in tabs)] for alpha in shifts]
    xs = range(inner.x0, inner.x1 + 1)
    for j, y in enumerate(range(inner.y0, inner.y1 + 1)):
        for x, *pairs in zip(xs, *[zip(ra[j], rb[j]) for ra, rb in cols]):
            yield (x, y), pairs


def _differ(va, vb, tol: float | None) -> bool:
    """Two coefficient values disagree: exactly, or beyond tol relative to
    max(|a|, |b|, 1).  A NaN value or tol is a disagreement."""
    if tol is None:
        return va != vb
    return not abs(va - vb) <= tol * max(abs(va), abs(vb), 1.0)


def equal_on_window(a: DifferenceOperator, b: DifferenceOperator,
                    window: Window, tol: float | None = None) -> bool:
    """Test A = B on the window: a_alpha(n) == b_alpha(n) for every shift
    alpha and every point n where both stencils fit.  With `tol`, values
    agree within tol relative to max(|a|, |b|, 1).  WindowMismatch when
    no point fits."""
    try:
        inner = _inner(window, a, b)
    except InsufficientWindow:
        raise WindowMismatch("window too small for both stencils")
    tabs = _tabulate([(a, inner), (b, inner)])
    if tabs is not None and tol is None:
        parts = [[t.part(alpha, inner) for t in tabs]
                 for alpha in sorted(set(a.terms) | set(b.terms))]
        if all(pa[1] is not None and pb[1] is not None for pa, pb in parts):
            return all(_same(pa, pb) for pa, pb in parts)
    return not any(_differ(va, vb, tol) for _, pairs in _pairs(a, b, inner, tabs)
                   for va, vb in pairs)


# --- Schrodinger operators and their factorizations -------------------------

SCHRODINGER_SHIFTS = {
    "a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (-1, 1),
    "e": (-1, 0), "f": (0, -1), "g": (1, -1),
}
_SHIFT_NAMES = {alpha: name for name, alpha in SCHRODINGER_SHIFTS.items()}

# self-adjointness: (coefficient, its partner, where the partner is read
# relative to n): e(n) = b(n - e1), f(n) = c(n - e2), g(n) = d(n + e1 - e2)
_PARTNERS = (("e", "b", (-1, 0)), ("f", "c", (0, -1)), ("g", "d", (1, -1)))


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

    # (factorization, then the seven closures it put on the fields a..g) for
    # an L built by `_from_factorization`; None otherwise
    _built = None

    @classmethod
    def from_operator(cls, op: DifferenceOperator) -> "SchrodingerOperator":
        """The coefficients of `op` at the seven Schrodinger shifts;
        NotSelfAdjoint when `op` has a term at any other shift."""
        for alpha in op.shifts:
            if alpha not in _SHIFT_NAMES:
                raise NotSelfAdjoint(f"shift {alpha} is not one of the seven Schrodinger shifts")
        return cls(**{name: op.coefficient(alpha)
                      for name, alpha in SCHRODINGER_SHIFTS.items()})

    def to_operator(self) -> DifferenceOperator:
        """L as an operator whose terms are the seven fields.  An L built
        from a factorization whose fields are still the closures it was built
        with is that factorization recomposed instead: the same coefficients,
        whose table is built from the tables of Q's three coefficients and
        the potential, each evaluated once per point."""
        built = self._built
        if built is not None and all(getattr(self, name) is fn
                                     for name, fn in zip(SCHRODINGER_SHIFTS, built[1:])):
            return built[0].recompose()
        return DifferenceOperator(
            {alpha: getattr(self, name) for name, alpha in SCHRODINGER_SHIFTS.items()})

    def check_self_adjoint(self, window: Window) -> None:
        """e(n) = b(n - e1), f(n) = c(n - e2), g(n) = d(n + e1 - e2) on the
        window interior; positivity of the diagonal and edge coefficients."""
        inner = window.shrink(left=1, right=1, bottom=1, top=1)
        for n in inner.points():
            for name, partner, (dx, dy) in _PARTNERS:
                m = (n[0] + dx, n[1] + dy)
                if getattr(self, name)(n) != getattr(self, partner)(m):
                    raise NotSelfAdjoint(f"{name}({n}) != {partner}({m})")
            for name in "abcdefg":
                if getattr(self, name)(n) <= 0:
                    raise NotSelfAdjoint(f"coefficient {name}({n}) not positive")


def _lop_table(lop: SchrodingerOperator, window: Window) -> tuple | None:
    """L's seven coefficients on `window` as (table, den), every part exact
    over den, the least common denominator of their values, or None when L
    cannot be tabulated there or a coefficient is not rational."""
    tabs = _tabulate([(lop.to_operator(), window)])
    if tabs is None or any(d is None for _, d in tabs[0].parts.values()):
        return None
    tab = tabs[0]
    den = math.lcm(*(d for _, d in tab.parts.values()))
    parts = {alpha: _scaled(rows, den // d) for alpha, (rows, d) in tab.parts.items()}
    # a leaf evaluated point by point is over the least denominator already;
    # a composite's part is over the product of its operands' denominators
    g = math.gcd(den, *(v for rows in parts.values() for r in rows for v in r))
    den //= g
    tab.parts = {alpha: (rows if g == 1 else [[v // g for v in r] for r in rows], den)
                 for alpha, rows in parts.items()}
    return tab, den


def _self_adjoint(tab: _Table, inner: Window) -> bool:
    """check_self_adjoint on a table over one denominator: shifted row
    slices and signs."""
    shifts = SCHRODINGER_SHIFTS
    for name, partner, (dx, dy) in _PARTNERS:
        if tab.part(shifts[name], inner) != tab.part(shifts[partner], inner, dx, dy):
            return False
    return all(v > 0 for alpha in shifts.values() for r in tab.part(alpha, inner)[0] for v in r)


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


def _root(num: int, den: int) -> tuple | None:
    """The exact square root of num / den > 0 as (p, q) in lowest terms, or None."""
    if num * den <= 0:
        return None
    g = math.gcd(num, den)
    num, den = abs(num) // g, abs(den) // g
    p, q = math.isqrt(num), math.isqrt(den)
    return (p, q) if p * p == num and q * q == den else None


def _sqrt_exact(x: Fraction) -> Fraction:
    root = _root(x.numerator, x.denominator)
    if root is None:
        raise NotFactorizable("coefficient ratio is not positive" if x <= 0
                              else f"{x} has no exact rational square root")
    return Fraction(*root)


def _memo(fn):
    cache: dict = {}

    def wrapped(n):
        if n not in cache:
            cache[n] = fn(n)
        return cache[n]

    return wrapped


def _pointwise_factors(lop: SchrodingerOperator, s: int, offset: Point, sqrt) -> tuple:
    """q0, q1, q2 and the potential as memoised closures on L's
    coefficients: the values at points no table covers."""
    dx, dy = offset
    l1, l2 = (getattr(lop, _SHIFT_NAMES[alpha]) for alpha in ((s, 0), (0, s)))

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

    return q0, q1, q2, potential


def _tabled(window: Window, rows: list, den: int, pointwise):
    """The callable that reads rows[y - y0][x - x0] over `den` on `window`
    and calls `pointwise` elsewhere.  Its `_rows_on` hands a table builder
    the part on any window inside `window`."""
    x0, x1, y0, y1 = window.x0, window.x1, window.y0, window.y1

    def f(n):
        x, y = n
        if x0 <= x <= x1 and y0 <= y <= y1:
            return Fraction(rows[y - y0][x - x0], den)
        return pointwise(n)

    def rows_on(w):
        if x0 <= w.x0 and w.x1 <= x1 and y0 <= w.y0 and w.y1 <= y1:
            return _slice(rows, window, w), den
        return None

    f._rows_on = rows_on
    return f


def factorize(lop: SchrodingerOperator, color: str, window: Window,
              mode: str = "rational") -> Factorization:
    """Unique positive factorization L = Q+ Q + potential on the window.

    The six off-diagonal coefficients pin Q up to sign; positivity fixes
    the sign.  In rational mode the square roots must be exact
    (NotFactorizable otherwise); float mode takes math.sqrt.

    With s the colour's step, L's coefficients at t1^s and t2^s are
    q0 q1 and q0 q2, and d = q1 q2 read at the colour's offset, so
    q0 = sqrt(l1 l2 / d).

    L is tabulated once on the window for the self-adjointness check.  In
    rational mode q0, q1 and q2 are tables where their inputs lie in it,
    the potential where its q's do, and the returned callables read those
    tables there and L's closures elsewhere.  Float mode, and an L with no
    exact table, factor on the closures.  Errors name the point the
    pointwise order meets first.
    """
    names, s, offset = _color(color)
    inner = window.shrink(left=1, right=1, bottom=1, top=1)
    sqrt = _sqrt_exact if mode == "rational" else math.sqrt
    pointwise = _pointwise_factors(lop, s, offset, sqrt)
    got = _lop_table(lop, window)
    if got is None or not _self_adjoint(got[0], inner):
        lop.check_self_adjoint(window)
    elif mode == "rational":
        tab, den = got
        dx, dy = offset
        # q0 reads l1, l2 at n and d at n + offset, all inside the window on qwin
        qwin = Window(window.x0 - min(dx, 0), window.x1 - max(dx, 0),
                      window.y0 - min(dy, 0), window.y1 - max(dy, 0))
        l1 = tab.part((s, 0), qwin)[0]
        l2 = tab.part((0, s), qwin)[0]
        d = tab.part(SCHRODINGER_SHIFTS["d"], qwin, dx, dy)[0]
        roots = [[_root(a * b, den * c) for a, b, c in zip(*cells)] for cells in zip(l1, l2, d)]
        if all(None not in r for r in roots):
            q, dens = _q_rows(roots, l1, l2, den)
            # the potential a - q0^2 - q1^2 - q2^2 reads a and q0 at n, q1 at
            # n - s e1 and q2 at n - s e2
            lo, hi = max(s, 0), min(s, 0)
            pwin = Window(qwin.x0 + lo, qwin.x1 + hi, qwin.y0 + lo, qwin.y1 + hi)
            pot = tab.part((0, 0), pwin)
            for rows, dn, shift in zip(q, dens, ((0, 0), (-s, 0), (0, -s))):
                rows = _slice(rows, qwin, pwin, shift)
                pot = _sum(pot, _product((_scaled(rows, -1), dn), (rows, dn)))
            coeffs = {k: _tabled(qwin, rows, dn, fn)
                      for k, rows, dn, fn in zip(names, q, dens, pointwise)}
            return Factorization(color, coeffs, _tabled(pwin, *pot, pointwise[3]))
    # the closures alone; q0 is evaluated on the window interior first so that
    # positivity and squareness errors surface now, at the first point in the
    # pointwise order (a root cell the table left None raises here)
    for n in inner.points():
        pointwise[0](n)
    return Factorization(color, dict(zip(names, pointwise[:3])), pointwise[3])


def _q_rows(roots: list, l1: list, l2: list, den: int) -> tuple:
    """q0 = root, q1 = l1 / q0 and q2 = l2 / q0 as rows, with their
    denominators: the lcm of the roots' denominators for q0, and den times
    the lcm of their numerators for q1 and q2."""
    r0 = math.lcm(*{q for r in roots for _, q in r})
    m = math.lcm(*{p for r in roots for p, _ in r})
    q0 = [[p * (r0 // q) for p, q in r] for r in roots]
    q12 = [[[v * q * (m // p) for v, (p, q) in zip(rv, r)] for rv, r in zip(lv, roots)]
           for lv in (l1, l2)]
    return [q0, *q12], (r0, den * m, den * m)


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
    return _from_factorization(Factorization(color, {k: rpos() for k in names}, pot))


def exponential_both_colors() -> SchrodingerOperator:
    """A non-constant L exactly factorizable in both colors: built from the
    black operator u(n) = 2^(n1+n2), v = w = 1, with potential 3.  Its black
    and white potentials differ, which makes it a good two-sided test
    instance."""
    def u(n):
        return Fraction(2) ** (n[0] + n[1])

    return _from_factorization(Factorization("black", {"u": u, "v": const(1), "w": const(1)}, 3))


def _from_factorization(fac: Factorization) -> SchrodingerOperator:
    """L = Q+ Q + potential as a SchrodingerOperator that remembers `fac`,
    so that `to_operator` tabulates through it."""
    lop = SchrodingerOperator.from_operator(fac.recompose())
    lop._built = fac, *(getattr(lop, name) for name in SCHRODINGER_SHIFTS)
    return lop


# --- exponential coefficients: Q(c, d) ---------------------------------------

def build_exponential_Q(c, d, q, s) -> DifferenceOperator:
    """Q(c, d) = 1 + c e^{l1(n)} t1 + d e^{l2(n)} t2 in the rational
    parametrization q = e^{l11} = e^{l22}, s = e^{l12} (so e^{l21} = q^2/s,
    which encodes l11 = l22 = (l12 + l21)/2)."""
    c, d, q, s = frac(c), frac(d), frac(q), frac(s)
    if q == 0 or s == 0:
        raise ConditionViolated("q and s must be nonzero")
    return DifferenceOperator({(0, 0): 1, (1, 0): _geometric(c, q, s),
                               (0, 1): _geometric(d, q * q / s, q)})


def _geometric(k: Fraction, u: Fraction, v: Fraction):
    """The coefficient n -> k u^n1 v^n2 (u, v nonzero).  Its `_rows_on`
    hands a table builder the part on a window: one power at the corner,
    then products of integer runs, reduced to the lowest common denominator
    as the pointwise part is."""
    def f(n):
        return k * u ** n[0] * v ** n[1]

    def rows_on(w):
        width, height = w.size
        corner = k * u ** w.x0 * v ** w.y0
        xs, xden = _run(u, width)
        ys, yden = _run(v, height)
        part = LatticeFunction.from_rows(
            [[a * b for b in xs] for a in (corner.numerator * y for y in ys)],
            corner.denominator * xden * yden, w)
        return part.rows, part.den

    f._rows_on = rows_on
    return f


def _run(u: Fraction, m: int) -> tuple:
    """u^0 .. u^(m-1) as integers over u.denominator^(m-1), by repeated
    multiplication."""
    nums, dens = [1], [1]
    for _ in range(m - 1):
        nums.append(nums[-1] * u.numerator)
        dens.append(dens[-1] * u.denominator)
    return [a * b for a, b in zip(nums, reversed(dens))], dens[-1]


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
    and a relative tolerance.  Both sides are tabulated together, so Q
    and Q' are each evaluated once per point.
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
    inner = _inner(window, a, b)
    fvals = {}
    for n, pairs in _pairs(a, b, inner, _tabulate([(a, inner), (b, inner)])):
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
