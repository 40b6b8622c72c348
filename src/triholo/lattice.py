"""Discrete holomorphy on the equilateral triangular lattice Z^2.

Vertices are integer pairs n = (n1, n2).  The white triangle at n is
<n, n+e1, n+e2>, the black one <n, n-e1, n-e2>.  With the shift
convention (t_j f)(n) = f(n + e_j), the first-order operators are

    Q  = 1 + t1 + t2         (white triangle sum at n)
    Q+ = 1 + t1^-1 + t2^-1   (black triangle sum at n)

and H = ker Q+ plays the role of holomorphic functions.  Everything here
is windowed and exact: polynomials P_k = ker Q+ \\cap ker Q^{k+1}, the
trefoil parametrization of H, Taylor expansions along admissible
sequences of big black triangles, the Pascal-triangle Green's function
and the Cauchy reconstruction formula.

A windowed function is a part, integer rows over one denominator.  The
parts section holds the one copy of the row operations on that format
(slice, scale, sum, product, compare): the stencils, the covariant and
Taylor sums, the affine check and the Cauchy charges (the Q+ stencil of
psi * 1_D) here, and the operator coefficient tables of `opalgebra`, are
built from them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add, mul

from .errors import (
    DomainUnbounded,
    InsufficientWindow,
    NotHolomorphic,
    OutOfWindow,
    SequenceTooShort,
    WindowExhausted,
    WindowNotSectorClosed,
)
from .ratmat import frac, solve_affine

Point = tuple[int, int]

E1: Point = (1, 0)
E2: Point = (0, 1)


def _add(p: Point, q: Point) -> Point:
    return (p[0] + q[0], p[1] + q[1])


def _sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True)
class Window:
    """Inclusive rectangle [x0, x1] x [y0, y1] of lattice points."""

    x0: int
    x1: int
    y0: int
    y1: int

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise InsufficientWindow(f"empty window {self}")

    def contains(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def points(self):
        for y in range(self.y0, self.y1 + 1):
            for x in range(self.x0, self.x1 + 1):
                yield (x, y)

    def shrink(self, left=0, right=0, bottom=0, top=0) -> "Window":
        return Window(self.x0 + left, self.x1 - right, self.y0 + bottom, self.y1 - top)

    def center(self) -> Point:
        return ((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    @property
    def size(self) -> tuple[int, int]:
        return (self.x1 - self.x0 + 1, self.y1 - self.y0 + 1)


class LatticeFunction:
    """Exact-valued function on a window, or of finite support when built
    without one (`finite_support` is `window is None`).

    A windowed function is stored as integer rows over one denominator:
    f(x, y) = rows[y - y0][x - x0] / den, with den > 0 and the pair reduced
    by its gcd, so equal functions on equal windows have equal (rows, den).
    Rows are never modified after construction.  A finite-support function
    keeps a {point: Fraction} dict of its support instead.

    `f[p]` returns a Fraction either way, and `values` is a read-only
    {point: Fraction} mapping: every point of the window, or the support.
    Lookups outside a declared window raise OutOfWindow; finite-support
    functions return 0 off their support instead.
    """

    __slots__ = ("window", "rows", "den", "_support")

    def __init__(self, values: dict, window: Window | None = None):
        vals = {tuple(p): frac(v) for p, v in values.items()}
        self.window = window
        if window is None:
            self.rows = self.den = None
            self._support = vals
            return
        for p in vals:
            if not window.contains(p):
                raise OutOfWindow(f"value stored outside window: {p}")
        # over the lcm of reduced denominators the pair is already reduced
        self.rows, self.den = _dense(vals, window)

    @classmethod
    def from_rows(cls, rows: list, den: int, window: Window) -> "LatticeFunction":
        """The windowed function rows[y - y0][x - x0] / den, reduced."""
        width, height = window.size
        if den <= 0 or len(rows) != height or any(len(r) != width for r in rows):
            raise ValueError(f"rows over denominator {den} do not fit {window}")
        g = den
        for r in rows:
            if g == 1:
                break
            g = math.gcd(g, *r)
        if g > 1:
            rows = [[v // g for v in r] for r in rows]
            den //= g
        f = cls.__new__(cls)
        f.window, f.rows, f.den, f._support = window, rows, den, None
        return f

    @property
    def finite_support(self) -> bool:
        return self.window is None

    @property
    def values(self):
        return self._support if self.finite_support else _WindowValues(self)

    def __getitem__(self, p: Point) -> Fraction:
        x, y = p
        w = self.window
        if w is None:
            return self._support.get((x, y), Fraction(0))
        if not (w.x0 <= x <= w.x1 and w.y0 <= y <= w.y1):
            raise OutOfWindow(f"{(x, y)} outside {w}")
        return Fraction(self.rows[y - w.y0][x - w.x0], self.den)

    def restrict(self, window: Window) -> "LatticeFunction":
        return LatticeFunction.from_rows(*_rows_on(self, window), window)

    def support(self):
        if self.finite_support:
            return {p for p, v in self._support.items() if v != 0}
        w = self.window
        return {(w.x0 + i, w.y0 + j) for j, r in enumerate(self.rows)
                for i, v in enumerate(r) if v}

    def __eq__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        if self.window != other.window:
            return NotImplemented
        if not self.finite_support:
            return self.den == other.den and self.rows == other.rows
        return all(self[p] == other[p] for p in set(self.values) | set(other.values))


class _WindowValues(Mapping):
    """Read-only {point: Fraction} view of a windowed function."""

    __slots__ = ("_f",)

    def __init__(self, f: LatticeFunction):
        self._f = f

    def __getitem__(self, p):
        try:
            return self._f[p]
        except (OutOfWindow, TypeError, ValueError):
            raise KeyError(p) from None

    def __iter__(self):
        return self._f.window.points()

    def __len__(self):
        width, height = self._f.window.size
        return width * height


def _dense(vals: dict, window: Window) -> tuple[list, int]:
    """(rows, den) on `window` of a {point: Fraction} dict, zero elsewhere;
    den is the lcm of the denominators of the values inside the window."""
    inside = {p: v for p, v in vals.items() if window.contains(p)}
    den = math.lcm(*(v.denominator for v in inside.values()))
    width, height = window.size
    rows = [[0] * width for _ in range(height)]
    for (x, y), v in inside.items():
        rows[y - window.y0][x - window.x0] = v.numerator * (den // v.denominator)
    return rows, den


def _rows_on(f: LatticeFunction, window: Window) -> tuple[list, int]:
    """(rows, den) of f on `window`, which f's own window must cover."""
    if f.finite_support:
        return _dense(f._support, window)
    fw = f.window
    if window == fw:
        return f.rows, f.den
    if not (fw.x0 <= window.x0 and window.x1 <= fw.x1
            and fw.y0 <= window.y0 and window.y1 <= fw.y1):
        raise OutOfWindow(f"{window} outside {fw}")
    return _slice(f.rows, fw, window), f.den


# --- parts: rows over one denominator ---------------------------------------
#
# A part is (rows, den): rows[y - y0][x - x0] integers over den > 0, or
# floats when den is None.  Rows are never modified in place, so a part may
# share rows with its operands.

def _slice(rows: list, window: Window, w: Window, shift: Point = (0, 0)) -> list:
    """The rows on `w` moved by `shift`, of `rows` laid out on `window`."""
    width, height = w.size
    i = w.x0 + shift[0] - window.x0
    j = w.y0 + shift[1] - window.y0
    return [r[i:i + width] for r in rows[j:j + height]]


def _scaled(rows: list, k) -> list:
    return rows if k == 1 else [[v * k for v in r] for r in rows]


def _floats(part: tuple) -> list:
    rows, den = part
    return rows if den is None else [[v / den for v in r] for r in rows]


def _sum(p: tuple, q: tuple) -> tuple:
    """p + q: exact over the lcm of the denominators, or floats once either
    part is float."""
    if p[1] is None or q[1] is None:
        return [list(map(add, x, y)) for x, y in zip(_floats(p), _floats(q))], None
    den = math.lcm(p[1], q[1])
    return [list(map(add, x, y)) for x, y in
            zip(_scaled(p[0], den // p[1]), _scaled(q[0], den // q[1]))], den


def _product(p: tuple, q: tuple) -> tuple:
    """p * q pointwise: exact over the product of the denominators, or floats
    once either part is float."""
    if p[1] is None or q[1] is None:
        return [list(map(mul, x, y)) for x, y in zip(_floats(p), _floats(q))], None
    return [list(map(mul, x, y)) for x, y in zip(p[0], q[0])], p[1] * q[1]


def _same(p: tuple, q: tuple) -> bool:
    """Exact parts with equal values."""
    (ra, da), (rb, db) = p, q
    if da == db:
        return ra == rb
    return all([v * db for v in x] == [v * da for v in y] for x, y in zip(ra, rb))


def delta() -> LatticeFunction:
    """The finite-support delta function at the origin."""
    return LatticeFunction({(0, 0): 1})


Q_OFFSETS = ((0, 0), E1, E2)
QPLUS_OFFSETS = ((0, 0), (-1, 0), (0, -1))


def apply_Q(f: LatticeFunction) -> LatticeFunction:
    """(Q f)(n) = f(n) + f(n + e1) + f(n + e2), the white sum at n."""
    return _apply_stencil(f, Q_OFFSETS, shrink={"right": 1, "top": 1})


def apply_Qplus(f: LatticeFunction) -> LatticeFunction:
    """(Q+ f)(n) = f(n) + f(n - e1) + f(n - e2), the black sum at n."""
    return _apply_stencil(f, QPLUS_OFFSETS, shrink={"left": 1, "bottom": 1})


def _apply_stencil(f, offsets, shrink):
    if f.finite_support:
        out: dict[Point, Fraction] = {}
        for p, v in f.values.items():
            for off in offsets:
                q = _sub(p, off)
                out[q] = out.get(q, Fraction(0)) + v
        return LatticeFunction(out)
    try:
        new_w = f.window.shrink(**shrink)
    except InsufficientWindow:
        raise OutOfWindow(f"window {f.window} too small for the stencil")
    rows = _stencil_rows(f.rows, f.window, offsets, new_w)
    return LatticeFunction.from_rows(rows, f.den, new_w)


def _stencil_rows(rows: list, window: Window, offsets, out: Window) -> list:
    """The rows on `out` of n -> sum over `offsets` of f(n + offset), where
    `rows` are f's integer rows on `window`: a sum of shifted slices.  Every
    shifted point must lie in `window`."""
    return reduce(_sum, [(_slice(rows, window, out, off), 1) for off in offsets])[0]


def is_holomorphic(f: LatticeFunction) -> bool:
    """Q+ f = 0 at every point of f's (shrunk) window where the stencil
    fits, or everywhere for finite support."""
    return not apply_Qplus(f).support()


# --- covariant constants on the lattice ------------------------------------

def covariant_constant(c: tuple, window: Window) -> LatticeFunction:
    """The function n -> c[(n1 - n2) mod 3]; requires c0 + c1 + c2 = 0."""
    return _add_covariant(None, [frac(x) for x in c], window)


def _add_covariant(psi: LatticeFunction | None, c, window: Window) -> LatticeFunction:
    """psi plus the covariant constant n -> c[(n1 - n2) mod 3] on `window`
    (psi None stands for zero); requires c0 + c1 + c2 = 0."""
    if sum(c) != 0:
        raise ValueError("covariant constant values must sum to zero")
    c = [frac(x) for x in c]
    den = math.lcm(*(x.denominator for x in c))
    cn = [x.numerator * (den // x.denominator) for x in c]
    width = window.size[0]
    pattern = []
    for y in range(window.y0, window.y1 + 1):
        r0 = (window.x0 - y) % 3                      # c[(x - y) mod 3] from x0 on
        pattern.append(((cn[r0:] + cn[:r0]) * (width // 3 + 1))[:width])
    part = (pattern, den) if psi is None else _sum(_rows_on(psi, window), (pattern, den))
    return LatticeFunction.from_rows(*part, window)


def covariant_value(c: tuple, p: Point) -> Fraction:
    return frac(c[(p[0] - p[1]) % 3])


# --- trefoil parametrization of H -------------------------------------------

def trefoil_points(center: Point, count_a: int, count_b: int, count_c: int) -> list:
    """Y_n clipped to the given ray lengths: the center, (n1-j, n2),
    (n1, n2+j) and (n1+j, n2-j) for j = 1..count."""
    n1, n2 = center
    pts = [center]
    pts += [(n1 - j, n2) for j in range(1, count_a + 1)]
    pts += [(n1, n2 + j) for j in range(1, count_b + 1)]
    pts += [(n1 + j, n2 - j) for j in range(1, count_c + 1)]
    return pts


def _classify(center: Point, p: Point):
    """('ray', index) / ('center',) / (sector, j1, j2) relative to center."""
    d1, d2 = _sub(p, center)
    if d1 == 0 and d2 == 0:
        return ("center",)
    if d2 == 0 and d1 < 0:
        return ("rayA", -d1)
    if d1 == 0 and d2 > 0:
        return ("rayB", d2)
    if d1 > 0 and d1 + d2 == 0:
        return ("rayC", d1)
    if d1 <= -1 and d2 >= 1:
        return ("sector1",)
    if d2 <= -1 and d1 + d2 <= -1:
        return ("sector2",)
    if d1 >= 1 and d1 + d2 >= 1:
        return ("sector3",)
    raise AssertionError("unreachable")


_SECTOR_READS = {
    # each sector point is determined by one black triangle equation
    "sector1": ((1, 0), (1, -1)),    # psi(p) = -psi(p+e1) - psi(p+e1-e2)
    "sector2": ((0, 1), (-1, 1)),    # psi(p) = -psi(p+e2) - psi(p+e2-e1)
    "sector3": ((-1, 0), (0, -1)),   # psi(p) = -psi(p-e1) - psi(p-e2)
}


def extend_holomorphic(center: Point, y_values: dict, window: Window) -> LatticeFunction:
    """The unique element of H with the given trefoil values, on a window.

    `y_values` maps trefoil points of Y_center to values.  Each sector is
    filled by its black-triangle recursion; if the recursion needs a ray
    value that was not supplied, WindowNotSectorClosed is raised (this
    happens exactly when the dependency shadow of the window leaves it).
    """
    memo = {tuple(p): frac(v) for p, v in y_values.items()}
    for p in memo:
        kind = _classify(center, p)
        if kind[0] not in ("center", "rayA", "rayB", "rayC"):
            raise ValueError(f"{p} is not on the trefoil of {center}")

    def value(target: Point) -> Fraction:
        stack = [target]
        while stack:
            p = stack[-1]
            if p in memo:
                stack.pop()
                continue
            kind = _classify(center, p)
            if kind[0] in ("center", "rayA", "rayB", "rayC"):
                raise WindowNotSectorClosed(
                    f"trefoil value at {p} ({kind[0]}) is needed but was not given")
            reads = [_add(p, off) for off in _SECTOR_READS[kind[0]]]
            missing = [q for q in reads if q not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[p] = -memo[reads[0]] - memo[reads[1]]
            stack.pop()
        return memo[target]

    vals = {p: value(p) for p in window.points()}
    return LatticeFunction(vals, window)


def required_trefoil(center: Point, window: Window) -> list:
    """Trefoil points whose values determine the window (dependency closure)."""
    n1, n2 = center
    count_a = max(0, (n1 - window.x0) + max(0, n2 - window.y0))
    count_b = max(0, window.y1 - n2)
    count_c = max(0, window.x1 - n1)
    return trefoil_points(center, count_a, count_b, count_c)


def random_holomorphic(window: Window, rng: random.Random, pad: int = 0) -> LatticeFunction:
    """Random element of H on the window grown by `pad` on every side: the
    extension of trefoil data p/q (-9 <= p <= 9, 1 <= q <= 4) at its center."""
    w = Window(window.x0 - pad, window.x1 + pad, window.y0 - pad, window.y1 + pad)
    c = w.center()
    y = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for p in required_trefoil(c, w)}
    return extend_holomorphic(c, y, w)


# --- big black triangles and polynomials ------------------------------------

@dataclass(frozen=True)
class BigBlackTriangle:
    """T_n^(k): the homothetic black triangle with corners n,
    n - (2k+1) e1 and n - (2k+1) e2; 2k+2 lattice points per side."""

    apex: Point
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("order k must be >= 0")

    def points(self):
        n1, n2 = self.apex
        m = 2 * self.k + 1
        for i in range(m + 1):
            for j in range(m + 1 - i):
                yield (n1 - i, n2 - j)

    def side_points(self, which: int) -> list:
        """Side 1: row n2; side 2: column n1; side 3: the hypotenuse.
        Each lists 2k+2 points indexed j = 0..2k+1 as in the defining
        formulas of the side polynomials."""
        n1, n2 = self.apex
        m = 2 * self.k + 1
        if which == 1:
            return [(n1 - m + j, n2) for j in range(m + 1)]
        if which == 2:
            return [(n1, n2 - j) for j in range(m + 1)]
        if which == 3:
            return [(n1 - j, n2 - m + j) for j in range(m + 1)]
        raise ValueError("side must be 1, 2 or 3")

    def side_values(self, which: int) -> dict:
        """The defining +-1 pattern of p_{k, which} on its side."""
        pts = self.side_points(which)
        return {p: Fraction((-1) ** (j + self.k)) for j, p in enumerate(pts)}

    def black_subtriangle(self) -> "BigBlackTriangle":
        """T^b(k) = the ordinary black triangle at apex - (k, k)."""
        return BigBlackTriangle((self.apex[0] - self.k, self.apex[1] - self.k), 0)


# affine solver: Q psi = phi, Q+ psi = 0 ------------------------------------

def solve_q_affine(phi: LatticeFunction, window: Window) -> LatticeFunction:
    """One exact solution of Q psi = phi, Q+ psi = 0 on the window, the one
    that vanishes at the two top-right points.

    phi must be holomorphic (Q+ phi = 0) wherever the stencil fits, else
    NotHolomorphic.  The solution is unique up to adding a covariant
    constant.
    """
    w = window
    if w.x1 - w.x0 < 1 or w.y1 - w.y0 < 1:
        raise InsufficientWindow("affine solve needs at least a 2x2 window")
    # Q psi = phi is read on the window less its top row and right column,
    # so psi shares phi's denominator
    phi_rows, den = _rows_on(phi, Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1))
    width, height = w.size
    # top two rows (y1, y1 - 1), zigzagging leftward from the two zeros
    top, below = [0] * width, [0] * width
    phi_row = phi_rows[-1]
    for i in range(width - 2, -1, -1):
        below[i] = phi_row[i] - below[i + 1] - top[i]
        if i > 0:
            top[i - 1] = -top[i] - below[i]
    rows = [top, below]
    # remaining rows downward: Q+ psi = 0 at (x, y + 1) for x > x0, Q psi = phi at x0
    for phi_row in reversed(phi_rows[:-1]):
        above = rows[-1]
        row = [-(a + b) for a, b in zip(above, above[1:])]
        row.insert(0, phi_row[0] - row[0] - above[0])
        rows.append(row)
    rows.reverse()
    out = LatticeFunction.from_rows(rows, den, w)
    _check_affine(out, phi, w)
    return out


def _check_affine(psi, phi, w):
    """Q psi = phi and Q+ psi = 0 wherever the stencils fit in `w`."""
    inner = Window(w.x0, w.x1 - 1, w.y0, w.y1 - 1)
    phi_part = _rows_on(phi, inner)
    rows, den = _rows_on(psi, w)
    if not _same((_stencil_rows(rows, w, Q_OFFSETS, inner), den), phi_part):
        raise NotHolomorphic("affine system inconsistent: Q+ phi != 0")
    for row in _stencil_rows(rows, w, QPLUS_OFFSETS, Window(w.x0 + 1, w.x1, w.y0 + 1, w.y1)):
        if any(row):
            raise NotHolomorphic("affine system inconsistent: Q+ phi != 0")


def holomorphic_antiderivative(phi: LatticeFunction, window: Window) -> LatticeFunction:
    """psi with Q psi = phi and Q+ psi = 0, pinned to vanish at (0, 0) and
    (-1, 0), which must lie in the window."""
    psi = solve_q_affine(phi, window)
    return pin_covariant(psi, (0, 0), (-1, 0))


def pin_covariant(psi: LatticeFunction, p: Point, q: Point) -> LatticeFunction:
    """Add the covariant constant that zeroes psi at p and q."""
    rp, rq = (p[0] - p[1]) % 3, (q[0] - q[1]) % 3
    if rp == rq:
        raise ValueError("normalization points must have distinct residues")
    c = [Fraction(0)] * 3
    c[rp] = -psi[p]
    c[rq] = -psi[q]
    c[3 - rp - rq] = -c[rp] - c[rq]
    return _add_covariant(psi, c, psi.window)


def side_polynomial(tri: BigBlackTriangle, which: int, window: Window) -> LatticeFunction:
    """p_{k, which} on `window`: zero on T_n^(k) off side `which`, the
    (-1)^(j+k) pattern on the side, extended as the unique member of P_k.

    Built by the constructive route Q p_{k,i} = p_{k-1,i} (see `_lift`),
    level j matching the prescribed values on its apex black triangle.
    """
    if not all(window.contains(p) for p in tri.points()):
        raise InsufficientWindow("window must contain the big triangle")
    (n1, n2), k = tri.apex, tri.k
    levels = [_apex_values(BigBlackTriangle((n1 - k + j, n2 - k + j), j), which)
              for j in range(k + 1)]
    return _lift(tri.apex, k, window, levels)


def _apex_values(tri: BigBlackTriangle, which: int) -> dict:
    """Values of p_{k, which} on the apex black triangle T^(0)_n."""
    n1, n2 = tri.apex
    corner = {(n1, n2): Fraction(0), (n1 - 1, n2): Fraction(0), (n1, n2 - 1): Fraction(0)}
    for p, v in tri.side_values(which).items():
        if p in corner:
            corner[p] = v
    return corner


def _lift(apex: Point, k: int, window: Window, values: list) -> LatticeFunction:
    """The member of P_k on `window` built one level at a time.

    Level j lives on the big triangle with apex `apex - (k - j, k - j)`.
    Level 0 is the covariant constant taking the values `values[0]` on
    that apex black triangle; level j > 0 is a solution of Q psi = (level
    j - 1), Q+ psi = 0, plus the covariant constant that makes it take the
    values `values[j]` on its apex black triangle.  Each `values[j]` is
    indexed by lattice point.
    """
    psi = None
    for j, vals in enumerate(values):
        n1, n2 = apex[0] - k + j, apex[1] - k + j
        if psi is not None:
            psi = solve_q_affine(psi, window)
        c = [None, None, None]
        for p in ((n1, n2), (n1 - 1, n2), (n1, n2 - 1)):
            c[(p[0] - p[1]) % 3] = vals[p] - (0 if psi is None else psi[p])
        psi = _add_covariant(psi, c, window)
    return psi


# --- admissible sequences and the Taylor expansion ---------------------------

EXTENSION_SHIFTS = {"12": (1, 1), "23": (1, 0), "31": (0, 1)}


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nested big black triangles T(0) c T(1) c ..., each a two-side
    extension of the previous one.  types[j] is the extension type
    producing T(j); the pair of side polynomials attached to level 0 is
    fixed to ("1", "2")."""

    start: Point
    types: tuple

    def __post_init__(self):
        for t in self.types:
            if t not in EXTENSION_SHIFTS:
                raise ValueError(f"unknown extension type {t!r}")

    def triangle(self, k: int) -> BigBlackTriangle:
        if k > len(self.types):
            raise SequenceTooShort(f"sequence holds {len(self.types)} extensions, asked {k}")
        apex = self.start
        for t in self.types[:k]:
            apex = _add(apex, EXTENSION_SHIFTS[t])
        return BigBlackTriangle(apex, k)

    def basis_pair(self, k: int) -> tuple[int, int]:
        if k == 0:
            return (1, 2)
        if k > len(self.types):
            raise SequenceTooShort(f"sequence holds {len(self.types)} extensions, asked {k}")
        t = self.types[k - 1]
        return (int(t[0]), int(t[1]))

    def covers_window(self, window: Window) -> bool:
        covered = set()
        for k in range(len(self.types) + 1):
            covered |= {p for p in self.triangle(k).points() if window.contains(p)}
        return covered >= set(window.points())


def default_admissible(center: Point, length: int) -> AdmissibleSequence:
    """Cycle the extension types (12), (23), (31) starting from T^b(center)."""
    cycle = ("12", "23", "31")
    return AdmissibleSequence(center, tuple(cycle[i % 3] for i in range(length)))


def poly_space_basis(seq: AdmissibleSequence, k: int, window: Window) -> list:
    """The 2k+2 basis functions psi^1_j, psi^2_j (j <= k) of P_k on a window."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    out = []
    for j in range(k + 1):
        tri = seq.triangle(j)
        i1, i2 = seq.basis_pair(j)
        out.append(side_polynomial(tri, i1, window))
        out.append(side_polynomial(tri, i2, window))
    return out


def taylor_coefficients(psi: LatticeFunction, seq: AdmissibleSequence, order: int) -> list:
    """Coefficients (alpha^1_k, alpha^2_k) for k = 0..order.

    alpha_k is read off the k-th derivative Q^k psi on the ordinary black
    triangle T^b(k): it equals alpha^1 p_{0,i} + alpha^2 p_{0,j} there,
    where (i, j) is the extension pair of step k.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    out = []
    fk = psi
    for k in range(order + 1):
        tri_k = seq.triangle(k)
        tb = tri_k.black_subtriangle()
        if k > 0:
            try:
                fk = apply_Q(fk)
            except OutOfWindow:
                raise WindowExhausted(f"window exhausted at derivative {k}")
        i1, i2 = seq.basis_pair(k)
        try:
            triple = [(p, fk[p]) for p in tb.points()]
        except OutOfWindow:
            raise WindowExhausted(f"window exhausted reading T^b({k})")
        b1 = _apex_values(tb, i1)
        b2 = _apex_values(tb, i2)
        # value = a1 * b1 + a2 * b2 on the three points of T^b(k)
        alpha, null = solve_affine([{0: b1[p], 1: b2[p]} for p, _ in triple],
                                   [v for _, v in triple], 2)
        if null:
            raise ArithmeticError("side polynomials degenerate on T^b(k)")
        if alpha is None:
            raise NotHolomorphic("derivative values not in the covariant plane")
        out.append(tuple(alpha))
    return out


def taylor_partial_sum(seq: AdmissibleSequence, coeffs: list, window: Window,
                       basis: list) -> LatticeFunction:
    """Sum alpha^1_k psi^1_k + alpha^2_k psi^2_k through the given coeffs.

    `basis` is a `poly_space_basis` result for `seq` on `window`, through
    at least the order of the last coefficient.
    """
    terms = []
    for k, (a1, a2) in enumerate(coeffs):
        for a, f in ((a1, basis[2 * k]), (a2, basis[2 * k + 1])):
            rows, den = _rows_on(f, window)
            if a != 0:
                a = frac(a)
                terms.append((_scaled(rows, a.numerator), a.denominator * den))
    if not terms:
        width, height = window.size
        terms.append(([[0] * width] * height, 1))
    return LatticeFunction.from_rows(*reduce(_sum, terms), window)


def interpolate_polynomial(psi: LatticeFunction, tri: BigBlackTriangle) -> LatticeFunction:
    """The unique p_k in P_k agreeing with a holomorphic psi on T_n^(k).

    Follows the inductive construction (see `_lift`): level j matches
    Q^(k-j) psi on its apex black triangle.  The result lives on psi's
    window shrunk by k at the right/top (the iterated-Q shadow).
    """
    w = psi.window
    if w is None:
        raise InsufficientWindow("interpolation needs a windowed function")
    out_w = Window(w.x0, w.x1 - tri.k, w.y0, w.y1 - tri.k)
    if not all(out_w.contains(p) for p in tri.points()):
        raise InsufficientWindow("window cannot hold the triangle and its shadow")
    derivatives = [psi]                 # Q^j psi, j = 0..k
    for _ in range(tri.k):
        derivatives.append(apply_Q(derivatives[-1]))
    return _lift(tri.apex, tri.k, out_w, derivatives[::-1])


# --- Green's function and the Cauchy formula ---------------------------------

def green(n: Point) -> int:
    """Signed Pascal triangle: (-1)^(n1+n2) C(n1+n2, n1) on the positive
    quadrant, zero elsewhere; the fundamental solution Q+ G = delta."""
    n1, n2 = n
    if n1 < 0 or n2 < 0:
        return 0
    return (-1) ** (n1 + n2) * math.comb(n1 + n2, n1)


def build_green(window: Window) -> LatticeFunction:
    rows = [[green((x, y)) for x in range(window.x0, window.x1 + 1)]
            for y in range(window.y0, window.y1 + 1)]
    return LatticeFunction.from_rows(rows, 1, window)


@dataclass(frozen=True)
class LatticeDomain:
    """Finite simplicial subcomplex of the lattice triangulation, stored
    as a set of ('b'|'w', apex) triangles.  Its vertex set is computed once
    and filled in sorted order, so its iteration order does not depend on
    the string-hash seed that orders the triangles."""

    tris: frozenset
    _vertices: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.tris:
            raise DomainUnbounded("empty lattice domain")
        verts = set()
        for t in self.tris:
            if t[0] not in ("b", "w"):
                raise ValueError(f"bad triangle kind {t[0]!r}")
            verts |= set(triangle_vertices(t))
        object.__setattr__(self, "_vertices", frozenset(sorted(verts)))

    def vertices(self) -> frozenset:
        return self._vertices


def triangle_vertices(t) -> tuple:
    kind, (x, y) = t
    if kind == "w":
        return ((x, y), (x + 1, y), (x, y + 1))
    return ((x, y), (x - 1, y), (x, y - 1))


def cauchy_reconstruct(domain: LatticeDomain, psi: dict, kernel=green) -> dict:
    """Recover a holomorphic function on D from its boundary behavior:

        psi_n = sum over black T_m in the outer boundary of D of
                (Q+ psi)_m * G(n - m)

    with psi extended by zero outside D; returns {n: Fraction} over the
    vertices of D in sorted order.  `kernel` may be any function with
    Q+ kernel = delta.

    The charges are one part: the Q+ stencil of psi * 1_D on the box of
    black apexes that touch D, one step past D's vertices to the right and
    above, with the apexes of D's own black triangles set to 0.  A kernel
    other than `green` is summed term by term over its nonzero cells.  For
    `green` the sum is not formed: G vanishes off the forward quadrant and
    Q+ G = delta, so u = sum_m q_m G(. - m) is the unique solution of

        u(n) = q(n) - u(n - e1) - u(n - e2)

    that is zero to the left of and below the box, one sweep of the charge
    rows over the part's denominator.
    """
    verts = domain.vertices()
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    box = Window(min(xs), max(xs) + 1, min(ys), max(ys) + 1)
    grown = Window(box.x0 - 1, box.x1, box.y0 - 1, box.y1)
    rows, den = _dense({v: frac(psi.get(v, 0)) for v in verts}, grown)
    charges = _stencil_rows(rows, grown, QPLUS_OFFSETS, box)
    for kind, (x, y) in domain.tris:
        if kind == "b":
            charges[y - box.y0][x - box.x0] = 0
    if kernel is not green:
        terms = [((box.x0 + i, box.y0 + j), q) for j, r in enumerate(charges)
                 for i, q in enumerate(r) if q]
        return {n: sum((q * frac(kernel(_sub(n, m))) for m, q in terms), Fraction(0)) / den
                for n in sorted(verts)}
    # w = (-1)^(i+j) u on box offsets (i, j) turns the recurrence into
    # Pascal's rule w(i, j) = w(i-1, j) + w(i, j-1) + (-1)^(i+j) q(i, j)
    sweep, row = [], [0] * len(charges[0])
    for j, r in enumerate(charges):
        row = list(accumulate(map(add, row, [-q if (i + j) % 2 else q for i, q in enumerate(r)])))
        sweep.append(row)
    out = {}
    for x, y in sorted(verts):
        i, j = x - box.x0, y - box.y0
        out[x, y] = Fraction(-sweep[j][i] if (i + j) % 2 else sweep[j][i], den)
    return out


def convolution_vanishing(psi: LatticeFunction, phi: LatticeFunction, n: Point) -> Fraction:
    """sum_m (Q+ psi)_m phi_{n-m} for finite-support psi and holomorphic
    phi; identically zero by the convolution lemma."""
    if not psi.finite_support:
        raise ValueError("psi must have finite support")
    qp = apply_Qplus(psi)
    acc = Fraction(0)
    for m, v in qp.values.items():
        if v != 0:
            acc += v * phi[_sub(n, m)]
    return acc
