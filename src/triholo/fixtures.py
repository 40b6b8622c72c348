"""Reference surfaces used across tests, demos and the CLI.

The lattice-backed fixtures (torus quotients, hexagonal patches) carry a
vertex <-> lattice-point dictionary so results can be moved between the
surface machinery and the Z^2 calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import triangle_vertices
from .mesh import SubComplexDomain, TriangulatedSurface, build_surface

Point = tuple[int, int]


def octahedron() -> TriangulatedSurface:
    """Closed surface with 6 vertices (0:+x, 1:-x, 2:+y, 3:-y, 4:+z, 5:-z),
    8 faces, every valence 4."""
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return build_surface(faces)


def single_triangle() -> TriangulatedSurface:
    return build_surface([(0, 1, 2)])


def icosahedron() -> TriangulatedSurface:
    """Closed surface with 12 vertices, every valence 5 (odd)."""
    faces = []
    up = [1 + i for i in range(5)]
    lo = [6 + i for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        faces.append((0, up[i], up[j]))
        faces.append((up[i], up[j], lo[i]))
        faces.append((up[j], lo[i], lo[j]))
        faces.append((11, lo[i], lo[j]))
    return build_surface(faces)


@dataclass(frozen=True)
class LatticeSurface:
    """A surface whose vertices are labelled by lattice points."""

    surface: TriangulatedSurface
    point_of: tuple[Point, ...]          # vertex index -> lattice point
    vertex_of: dict                      # lattice point -> vertex index
    black: frozenset[int]                # triangle indices of lattice color b
    white: frozenset[int]
    apex_of: dict                        # triangle index -> ('b'|'w', point)

    def domain(self) -> SubComplexDomain:
        return SubComplexDomain(self.surface, frozenset(range(self.surface.num_triangles)))


def torus_lattice(n: int, shear: int = 0) -> LatticeSurface:
    """Equilateral-lattice torus quotient Z^2 / <(n,0), (shear,n)>.

    Every vertex has valence 6.  n <= 2 is rejected by surface validation
    (duplicate edges).  The optional shear twists the second identification.
    """

    def wrap(p: Point) -> Point:
        x, y = p
        q, y = divmod(y, n)
        x = (x - q * shear) % n
        return (x, y)

    points = [(i, j) for j in range(n) for i in range(n)]
    vertex_of = {p: k for k, p in enumerate(points)}

    def vid(p: Point) -> int:
        return vertex_of[wrap(p)]

    tris = [(kind, (i, j)) for j in range(n) for i in range(n) for kind in ("w", "b")]
    return _lattice_surface(tris, points, vertex_of, vid)


def hex_distance(p: Point) -> int:
    """Graph distance from the origin on the triangular lattice."""
    a, b = p
    return abs(a) + abs(b) if a * b >= 0 else max(abs(a), abs(b))


def hex_patch(radius: int) -> LatticeSurface:
    """All lattice triangles whose vertices lie within `radius` of the
    origin.

    The result is a disc; interior vertices have valence 6.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")

    tris: list[tuple[str, Point]] = []
    for y in range(-radius, radius + 1):
        for x in range(-radius, radius + 1):
            for tri in (("w", (x, y)), ("b", (x, y))):
                if all(hex_distance(p) <= radius for p in triangle_vertices(tri)):
                    tris.append(tri)
    points = sorted({p for tri in tris for p in triangle_vertices(tri)})
    vertex_of = {p: k for k, p in enumerate(points)}
    return _lattice_surface(tris, points, vertex_of, vertex_of.__getitem__)


def _lattice_surface(tris: list, points: list, vertex_of: dict, vid) -> LatticeSurface:
    """The surface of the lattice triangles `tris`, ('b'|'w', apex) pairs
    in triangle-index order, whose vertex at lattice point p is vid(p)."""
    surface = build_surface([tuple(map(vid, triangle_vertices(tri))) for tri in tris])
    # copied from sets: a frozenset built from a generator iterates in another order
    black = frozenset({t for t, tri in enumerate(tris) if tri[0] == "b"})
    white = frozenset({t for t, tri in enumerate(tris) if tri[0] == "w"})
    return LatticeSurface(surface, tuple(points), vertex_of, black, white, dict(enumerate(tris)))


def lattice_vertex_coloring(ls: LatticeSurface) -> dict:
    """The global tri-coloring (x - y) mod 3 transferred to vertex indices."""
    return {v: (p[0] - p[1]) % 3 for v, p in enumerate(ls.point_of)}
