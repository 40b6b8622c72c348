"""Line-oriented file formats for meshes, domains, connections,
representations, boundary values, lattice functions, operators and
k-complexes.  `#` starts a comment anywhere; blank lines are skipped."""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import LatticeFunction, Window
from .mesh import SubComplexDomain, TriangulatedSurface, build_surface
from .opalgebra import DifferenceOperator
from .simplicial import SimplicialComplexK

MESH_HEADER = "tri-surface v1"


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _int(token: str, line: str) -> int:
    """An integer field of `line`: ASCII digits after at most one `-`.  A
    `+` sign, `_` separators, non-ASCII digits, decimals and exponents are
    ValueErrors naming the line, like every other malformed entry."""
    if not _digits(token.removeprefix("-")):
        raise ValueError(f"bad integer {token!r}: {line!r}")
    return int(token)


def _rational(token: str, line: str) -> Fraction:
    """A rational field of `line`: an integer field, optionally over ASCII
    digits (`-3/4`).  Anything else, or a zero denominator, is a ValueError
    naming the line."""
    num, slash, den = token.partition("/")
    if not _digits(num.removeprefix("-")) or slash and not _digits(den):
        raise ValueError(f"bad rational {token!r}: {line!r}")
    if slash and int(den) == 0:
        raise ValueError(f"zero denominator: {line!r}")
    return Fraction(int(num), int(den or 1))


def _float(token: str, line: str) -> float:
    """A finite float field of `line` in ASCII, without `_` separators: `nan`,
    `inf` (or an overflow to it) and `1_0` are ValueErrors naming the line."""
    try:
        value = float(token) if token.isascii() and "_" not in token else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad float {token!r}: {line!r}")
    return value


def _once(seen: dict, key, value, message: str) -> None:
    """seen[key] = value for the first record of `key`; a second record is
    a ValueError with `message`, so no file line is silently overridden."""
    if key in seen:
        raise ValueError(message)
    seen[key] = value


def parse_mesh(text: str) -> TriangulatedSurface:
    """Mesh file: header line, an optional `v <count>` line, then `t i j k`
    per triangle, at most one line per vertex set."""
    lines = list(_lines(text))
    if not lines or lines[0] != MESH_HEADER:
        raise ValueError(f"mesh file must start with {MESH_HEADER!r}")
    header = {}
    triples: dict = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ValueError(f"bad vertex-count line: {line!r}")
            _once(header, "v", _int(parts[1], line), f"second vertex-count line: {line!r}")
        elif parts[0] == "t":
            if len(parts) != 4:
                raise ValueError(f"bad triangle line: {line!r}")
            t = tuple(_int(p, line) for p in parts[1:])
            _once(triples, tuple(sorted(t)), t, f"duplicate triangle: {line!r}")
        else:
            raise ValueError(f"unknown mesh line: {line!r}")
    surf = build_surface(triples.values())
    vcount = header.get("v")
    if vcount is not None and vcount != surf.num_vertices:
        raise ValueError(f"header says {vcount} vertices, file uses {surf.num_vertices}")
    return surf


def write_mesh(surf: TriangulatedSurface) -> str:
    out = [MESH_HEADER, f"v {surf.num_vertices}"]
    out += [f"t {a} {b} {c}" for a, b, c in surf.triangles]
    return "\n".join(out) + "\n"


def parse_domain(text: str, surface: TriangulatedSurface) -> SubComplexDomain:
    """Domain file: `d <triangle-index>` lines referencing a mesh file, at
    most one per triangle."""
    tris = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "d" or len(parts) != 2:
            raise ValueError(f"bad domain line: {line!r}")
        _once(tris, _int(parts[1], line), None, f"duplicate domain triangle: {line!r}")
    return SubComplexDomain(surface, frozenset(tris))


def write_domain(domain: SubComplexDomain) -> str:
    return "\n".join(f"d {t}" for t in sorted(domain.tris)) + "\n"


def parse_connection(text: str, surface: TriangulatedSurface):
    """Connection file: `b <triangle> <local-vertex 0|1|2> <p/q>`, at most
    one line per incidence; entries absent from the file default to 1 (the
    canonical connection)."""
    from .connection import DiscreteConnection

    coeffs = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "b" or len(parts) != 4:
            raise ValueError(f"bad connection line: {line!r}")
        t, local = _int(parts[1], line), _int(parts[2], line)
        if not 0 <= t < surface.num_triangles:
            raise ValueError(f"triangle index must be 0..{surface.num_triangles - 1}: {line!r}")
        if local not in (0, 1, 2):
            raise ValueError(f"local vertex must be 0|1|2: {line!r}")
        _once(coeffs, (t, surface.triangles[t][local]), _rational(parts[3], line),
              f"duplicate coefficient for triangle {t}, vertex {local}: {line!r}")
    return DiscreteConnection(surface, coeffs)


def write_connection(conn) -> str:
    lines = []
    for (t, v), val in sorted(conn.coefficients.items()):
        local = conn.surface.triangles[t].index(v)
        lines.append(f"b {t} {local} {val}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_complex(text: str) -> SimplicialComplexK:
    """Complex file: `s <v0> ... <vk>` per top simplex, at most one line
    per vertex set."""
    simplices: dict = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "s":
            raise ValueError(f"bad complex line: {line!r}")
        s = tuple(_int(p, line) for p in parts[1:])
        _once(simplices, tuple(sorted(s)), s, f"duplicate simplex: {line!r}")
    return SimplicialComplexK(list(simplices.values()))


def parse_representation(text: str) -> dict:
    """Representation file: `R <v1> <v2> <4 rationals row-major>`, at most
    one line per oriented edge."""
    out = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "R" or len(parts) != 7:
            raise ValueError(f"bad representation line: {line!r}")
        u, v = _int(parts[1], line), _int(parts[2], line)
        a, b, c, d = (_rational(p, line) for p in parts[3:])
        _once(out, (u, v), [[a, b], [c, d]], f"duplicate matrix for edge ({u}, {v}): {line!r}")
    return out


def parse_boundary_values(text: str, surface: TriangulatedSurface) -> dict:
    """Boundary-value file: `psi <vertex> <rational>`, at most one line per
    vertex of `surface`."""
    out = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "psi" or len(parts) != 3:
            raise ValueError(f"bad boundary line: {line!r}")
        v = _int(parts[1], line)
        if not 0 <= v < surface.num_vertices:
            raise ValueError(f"vertex index must be 0..{surface.num_vertices - 1}: {line!r}")
        _once(out, v, _rational(parts[2], line),
              f"duplicate boundary value for vertex {v}: {line!r}")
    return out


def parse_lattice_function(text: str) -> LatticeFunction:
    """Lattice function file: `f <n1> <n2> <rational>`, at most one line per
    point; the window is the bounding box of the points."""
    vals = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "f" or len(parts) != 4:
            raise ValueError(f"bad lattice line: {line!r}")
        _once(vals, (_int(parts[1], line), _int(parts[2], line)), _rational(parts[3], line),
              f"duplicate lattice point: {line!r}")
    if not vals:
        raise ValueError("lattice function file has no points")
    xs = [p[0] for p in vals]
    ys = [p[1] for p in vals]
    return LatticeFunction(vals, Window(min(xs), max(xs), min(ys), max(ys)))


def write_lattice_function(f: LatticeFunction) -> str:
    pts = f.window.points() if f.window else sorted(f.values)
    return "\n".join(f"f {p[0]} {p[1]} {f[p]}" for p in pts) + "\n"


def parse_lattice_domain_points(text: str):
    """Lattice domain file: `d b|w <n1> <n2>`, one line per triangle."""
    from .lattice import LatticeDomain

    tris = {}
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "d" or len(parts) != 4 or parts[1] not in ("b", "w"):
            raise ValueError(f"bad lattice domain line: {line!r}")
        _once(tris, (parts[1], (_int(parts[2], line), _int(parts[3], line))), None,
              f"duplicate lattice domain triangle: {line!r}")
    return LatticeDomain(frozenset(tris))


def parse_operator(text: str) -> DifferenceOperator:
    """Operator file: `op <a1> <a2>` term headers, each followed by
    coefficient grid lines `c <n1> <n2> <value>`, one header per shift and
    one line per point of a term; a term with no grid lines is the
    constant 1."""
    grids: dict = {}
    current: dict | None = None
    for line in _lines(text):
        parts = line.split()
        if parts[0] == "op":
            if len(parts) != 3:
                raise ValueError(f"bad operator term line: {line!r}")
            current = {}
            _once(grids, (_int(parts[1], line), _int(parts[2], line)), current,
                  f"repeated operator term: {line!r}")
        elif parts[0] == "c":
            if current is None:
                raise ValueError("coefficient line before any `op` header")
            if len(parts) != 4:
                raise ValueError(f"bad coefficient line: {line!r}")
            _once(current, (_int(parts[1], line), _int(parts[2], line)),
                  _rational(parts[3], line),
                  f"duplicate operator coefficient: {line!r}")
        else:
            raise ValueError(f"unknown operator line: {line!r}")
    return DifferenceOperator({alpha: _grid_coeff(grid) for alpha, grid in grids.items()})


def _grid_coeff(grid: dict):
    if not grid:
        return Fraction(1)
    table = dict(grid)

    def f(n):
        if n not in table:
            raise ValueError(f"operator coefficient missing at {n}")
        return table[n]

    return f


def lattice_csv(f: LatticeFunction) -> str:
    """CSV grid, one row per n2 from high to low (plot orientation)."""
    w = f.window
    rows = ["n2\\n1," + ",".join(str(x) for x in range(w.x0, w.x1 + 1))]
    for y in range(w.y1, w.y0 - 1, -1):
        rows.append(str(y) + "," + ",".join(str(f[(x, y)]) for x in range(w.x0, w.x1 + 1)))
    return "\n".join(rows) + "\n"
