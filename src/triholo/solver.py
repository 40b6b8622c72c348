"""Global triangle-equation solvers, the operator L = Q+Q and the maximum
principle checker.

Q (one row per triangle, three nonzeros) and the operators built from it,
L = Q+Q, the Laplacian and the valence potential, are sparse rational rows
indexed by vertex (see `ratmat`); identities between them compare entry by
entry.  The L identities are integer statements and compare in ints: L,
2 Qb+Qb and 2 Qw+Qw against the one matrix -2 Delta + 3 n_P.  The null
space of Q comes from one sweep down the dual tree, with no elimination:
two values on triangle 0 fix a solution, and each cotree edge adds a
condition on them (`zero_modes`).  Boundary solves go through
the sparse exact elimination `ratmat.rref`.  The maximum-principle check
and the self-check of the covariant constants run on psi scaled by the lcm
of its denominators: integers, and for the canonical connection integer
products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import ratmat
from .connection import (
    DiscreteConnection,
    canonical_connection,
    frame_sweep,
    holonomy_frames,
)
from .errors import (
    InconsistentBoundary,
    NonTrivialHolonomy,
    NonzeroCurvature,
    NotASolution,
    OddValence,
)
from .mesh import (
    BLACK,
    Coloring,
    TriangulatedSurface,
    bw_face_coloring,
    three_vertex_coloring,
)
from .ratmat import frac
from .simplicial import plain_kernel, q_matrix


# --- covariant constants ----------------------------------------------------

@dataclass
class CovariantConstantSpace:
    basis: list            # list of dicts vertex -> Fraction
    dimension: int


def covariant_constants(conn: DiscreteConnection) -> CovariantConstantSpace:
    """Solutions of Q psi = 0 on a closed connected zero-curvature surface.

    Seeds (c0, c1) are the row vectors invariant under every holonomy
    generator; psi is c0 times the first plus c1 times the second of the
    `holonomy_frames` solutions, read where the sweep first meets a vertex.
    """
    surf = conn.surface
    if not surf.is_closed:
        raise ValueError("covariant constants are defined on closed surfaces here")
    frames, gens = holonomy_frames(conn)  # raises NonzeroCurvature when curved
    rows = []
    for g in gens:
        rows.append({0: g[0][0] - 1, 1: g[1][0]})
        rows.append({0: g[0][1], 1: g[1][1] - 1})
    at = _first_values(frames)
    basis = [{v: c0 * a + c1 * b for v, (a, b) in at.items()}
             for c0, c1 in ratmat.nullspace(rows, 2)]
    for psi in basis:
        _assert_solves(conn, psi)
    return CovariantConstantSpace(basis, len(basis))


def _first_values(frames) -> dict:
    """vertex -> (first, second) frame value on the first triangle the
    sweep reached it in."""
    at: dict = {}
    for first, second in frames.values():
        for v in first:
            at.setdefault(v, (first[v], second[v]))
    return at


def _assert_solves(conn, psi):
    """Q psi = 0 on every triangle, checked on psi times the lcm of its
    denominators (in ints for the canonical connection, whose entries are 1)."""
    den = lcm(*{x.denominator for x in psi.values()})
    psi = {v: x.numerator * (den // x.denominator) for v, x in psi.items()}
    for eq in _q_rows(conn):
        if sum(x * psi[v] for v, x in eq.items()) != 0:
            raise NonzeroCurvature("propagated seed fails a triangle equation")


def _q_rows(conn) -> list:
    """Q of a connection, one row per triangle: every entry the int 1 for
    the canonical connection, else `conn.b`."""
    surf = conn.surface
    return q_matrix(surf.triangles, range(surf.num_triangles),
                    None if conn.is_canonical else conn.b)


# --- L = Q+Q and identities --------------------------------------------------

def assemble_L(conn: DiscreteConnection) -> list:
    """Sparse rows of L = Q+Q, summed over every triangle.  The black and
    white halves Qb+Qb and Qw+Qw are `ratmat.gram` of `q_matrix` on the
    black or the white triangles (`check_L_identity`)."""
    return ratmat.gram(_q_rows(conn), conn.surface.num_vertices)


def graph_laplacian(surface: TriangulatedSurface) -> list:
    """Positive combinatorial Laplacian Delta = delta d = deg - adjacency of
    the 1-skeleton (the sign convention that makes L = -2 Delta + 3 n_P),
    as sparse rows."""
    out: list = [{v: 0} for v in range(surface.num_vertices)]
    for (u, v) in surface.edge_triangles:
        out[u][v] = out[v][u] = -1
        out[u][u] += 1
        out[v][v] += 1
    return out


@dataclass
class LIdentityReport:
    """Outcome of the entrywise operator-identity checks.

    The identities use the positive Laplacian Delta = delta d = deg -
    adjacency, the sign under which L = -2 Delta + 3 n_P holds entrywise.
    """

    l_identity: bool
    bw_exists: bool
    qb_identity: bool | None
    qw_identity: bool | None
    dual_block_identity: bool | None


def check_L_identity(surface: TriangulatedSurface) -> LIdentityReport:
    """Verify L = -2 Delta + 3 n_P and, when a b/w coloring exists,
    Qb+Qb = -Delta + (3/2) n_P = Qw+Qw plus the dual-graph block identity.

    Every side is an int matrix: the halves are compared doubled,
    2 Qb+Qb = -2 Delta + 3 n_P = 2 Qw+Qw, against the one right-hand side
    of the L identity."""
    if not surface.is_closed:
        raise ValueError("identity checks run on closed surfaces")
    for v in range(surface.num_vertices):
        if surface.valence(v) % 2:
            raise OddValence(f"vertex {v} has odd valence")
    conn = canonical_connection(surface)
    nv = surface.num_vertices
    rhs = ratmat.combine((-2, graph_laplacian(surface)),
                         (3, [{v: surface.valence(v)} for v in range(nv)]))
    l_ok = assemble_L(conn) == rhs

    coloring = bw_face_coloring(surface)
    if coloring is None:
        return LIdentityReport(l_ok, False, None, None, None)
    qb = q_matrix(surface.triangles, sorted(coloring.black_triangles()))
    qw = q_matrix(surface.triangles, sorted(coloring.white_triangles()))
    qb_ok = ratmat.combine((2, ratmat.gram(qb, nv))) == rhs
    qw_ok = ratmat.combine((2, ratmat.gram(qw, nv))) == rhs
    dual_ok = _dual_block_identity(surface, coloring)
    return LIdentityReport(l_ok, True, qb_ok, qw_ok, dual_ok)


def _dual_block_identity(surface, coloring) -> bool:
    """Delta_Gamma^2 = L (+) L' for the dual-graph adjacency in the
    (white | black) block ordering.  The adjacency is block off-diagonal,
    [[0, Qbw], [Qwb, 0]] with Qbw = Qwb^T, exactly when every edge lies in
    two triangles of different colours, and its square is then the block
    diagonal of L = Qbw Qwb and L' = Qwb Qbw: that edge condition is the
    identity."""
    colors = coloring.face_colors
    return all(len(ts) == 2 and colors[ts[0]] != colors[ts[1]]
               for ts in surface.edge_triangles.values())


def zero_modes(conn: DiscreteConnection) -> list:
    """Exact null space of L = Q+Q as vertex functions on an edge-connected
    surface, in the form `ratmat.nullspace` gives it (one dict per free
    column of the reduced Q, in column order, Fraction values).

    Over the rationals L x = 0 gives |Q x|^2 = 0, so ker L = ker Q, and
    ker Q is read off one sweep down the dual tree, with no curvature check
    and no elimination of Q: two values on triangle 0 fix a solution on
    every triangle.  The canonical connection takes the slot classes of
    `simplicial.plain_kernel`, whose at most two class vectors
    `ratmat.nullspace_form` reduces.  Any other connection carries the GL(2)
    frames of `connection.frame_sweep`; a seed pair (c0, c1) is a zero mode
    exactly when the frame crossed over each cotree edge equals the tree
    frame there (rows in two unknowns), and `ratmat.nullspace_form` puts
    the resulting vectors into the reduced form.  A surface that is not
    edge-connected is a ValueError.
    """
    surf = conn.surface
    if conn.is_canonical:
        return plain_kernel(surf.triangles, surf.dual_neighbours, surf.num_vertices)
    frames, crossings = frame_sweep(conn)
    rows = []
    for b, (x0, x1) in crossings:
        f0, f1 = frames[b]
        rows += [{0: x0[u] - f0[u], 1: x1[u] - f1[u]} for u in f0]
    at = _first_values(frames)
    vecs = [[c0 * a + c1 * b for a, b in map(at.__getitem__, range(surf.num_vertices))]
            for c0, c1 in ratmat.nullspace(rows, 2)]
    return [dict(enumerate(vec)) for vec in ratmat.nullspace_form(vecs)]


# --- black-triangle boundary value solver ------------------------------------

@dataclass
class BWSolveResult:
    values: dict                 # particular solution (free unknowns at 0)
    nullspace: list = field(default_factory=list)  # list of dicts on free directions
    unique: bool = True


def solve_bw(domain, coloring: Coloring, boundary_values: dict) -> BWSolveResult:
    """Solve the black triangle equations on M' with prescribed values.

    Unknowns are the unprescribed vertices of the domain; equations are
    the black triangles of M'.  Underdetermined systems are returned as a
    particular solution plus an exact null-space description.  A domain
    with no vertex 3-colouring (nontrivial holonomy) raises
    NonTrivialHolonomy; a value prescribed on a vertex outside the domain
    is a ValueError.
    """
    if three_vertex_coloring(domain) is None:
        raise NonTrivialHolonomy("domain has no global tri-coloring")
    outside = sorted(set(boundary_values) - domain.vertices)
    if outside:
        raise ValueError(f"boundary values on vertices outside the domain: {outside}")
    fixed = {v: frac(x) for v, x in boundary_values.items()}
    unknowns, rows, rhs = _black_system(domain, coloring, fixed)
    particular, null = ratmat.solve_affine(rows, rhs, len(unknowns))
    if particular is None:
        raise InconsistentBoundary("boundary values admit no black-triangle solution")
    values = dict(fixed)
    values.update(zip(unknowns, particular))
    null_dicts = [dict(zip(unknowns, vec)) for vec in null]
    return BWSolveResult(values, null_dicts, not null_dicts)


def determining_vertex_set(domain, coloring: Coloring) -> tuple:
    """Greedy determining set: the free columns of the black system with
    nothing prescribed.

    Prescribing values there makes the solution unique.
    """
    verts, rows, _ = _black_system(domain, coloring, {})
    pivots = set(ratmat.rref(rows, len(verts))[1])
    return tuple(v for i, v in enumerate(verts) if i not in pivots)


def _black_system(dom, coloring: Coloring, fixed: dict) -> tuple:
    """The black triangle equations of `dom` with the values `fixed` moved
    to the right: (the other vertices in sorted order, one sparse row over
    their columns per black triangle, the right-hand sides)."""
    blacks = sorted(t for t in dom.tris if coloring.face_colors[t] == BLACK)
    unknowns = [v for v in sorted(dom.vertices) if v not in fixed]
    col = {v: i for i, v in enumerate(unknowns)}
    rows, rhs = [], []
    for eq in q_matrix(dom.surface.triangles, blacks):
        rows.append({col[v]: x for v, x in eq.items() if v not in fixed})
        rhs.append(-sum((x * fixed[v] for v, x in eq.items() if v in fixed), Fraction(0)))
    return unknowns, rows, rhs


# --- maximum principle --------------------------------------------------------

@dataclass
class MaxPrincipleReport:
    point_hull: bool
    hull_corners: list                    # corners of the hull of all images
    corner_violations: list               # corners not realized on the boundary
    containment_violations: list          # black triangles mapped outside hull(boundary)
    betweenness_failures: list            # internal triangles with no flat pair
    checked_internal: int

    @property
    def ok(self) -> bool:
        return not (self.corner_violations or self.containment_violations
                    or self.betweenness_failures)


def hat_map(domain, psi: dict, face_coloring: Coloring, vertex_coloring: Coloring) -> dict:
    """psi-hat: black triangle -> (psi_a, psi_b) in the covariant plane."""
    surf = domain.surface
    vc = vertex_coloring.vertex_colors
    out = {}
    for t in sorted(domain.tris):
        if face_coloring.face_colors[t] != BLACK:
            continue
        by_color = {vc[v]: psi[v] for v in surf.triangles[t]}
        out[t] = (by_color[0], by_color[1])
    return out


def max_principle_check(domain, psi: dict, face_coloring: Coloring,
                        vertex_coloring: Coloring) -> MaxPrincipleReport:
    """Check that psi-hat lands in the convex hull of the boundary images.

    `domain` is a SubComplexDomain, `face_coloring` marks its black
    triangles and `vertex_coloring` is a proper 3-colouring of its
    vertices.  psi must solve every black triangle equation of the domain
    (NotASolution otherwise).  Reports hull corners not realized by
    boundary triangles, containment failures, and internal triangles whose
    image is not between a neighbor pair on one of the three coordinate
    lines.  The mates at a vertex already lie on its line, so that test
    compares only the coordinate that moves along it (`_between`).

    Every test runs on psi times the lcm of its denominators, in ints: a
    positive scale keeps the sort order and the sign of every cross
    product.  The corners are scaled back to Fraction pairs.
    """
    surf = domain.surface
    psi = {v: frac(x) for v, x in psi.items()}
    den = lcm(*{x.denominator for x in psi.values()})
    psi = {v: x.numerator * (den // x.denominator) for v, x in psi.items()}

    def unscaled(pts):
        return [(Fraction(a, den), Fraction(b, den)) for a, b in pts]

    blacks = sorted(t for t in domain.tris if face_coloring.face_colors[t] == BLACK)
    for t in blacks:
        if sum(psi[v] for v in surf.triangles[t]) != 0:
            raise NotASolution(f"black triangle {t} sum is nonzero")

    images = hat_map(domain, psi, face_coloring, vertex_coloring)
    pts = list(images.values())
    point_hull = len(set(pts)) == 1

    lower = domain.lower_boundary()
    boundary_pts = {images[t] for t in blacks if t in lower}
    corners = convex_hull(pts)
    if domain.tris == frozenset(range(surf.num_triangles)) and surf.is_closed:
        # closed surface: no boundary; only covariant constants may pass
        corner_violations = [] if point_hull else corners
        return MaxPrincipleReport(point_hull, unscaled(corners),
                                  unscaled(corner_violations), [], [], 0)

    corner_violations = unscaled(c for c in corners if c not in boundary_pts)
    hull_b = convex_hull(sorted(boundary_pts))
    containment_violations = [t for t in blacks if not point_in_hull(images[t], hull_b)]

    betweenness_failures = []
    checked = 0
    vc = vertex_coloring.vertex_colors
    for t in blacks:
        if t in lower:
            continue
        # the other black triangles at each vertex (the keys of images)
        lines = [(vc[v], [o for o in surf.vertex_triangles[v] if o != t and o in images])
                 for v in surf.triangles[t]]
        if any(len(mates) != 2 for _, mates in lines):
            continue
        checked += 1
        if not any(_between(images, t, mates, color) for color, mates in lines):
            betweenness_failures.append(t)
    return MaxPrincipleReport(point_hull, unscaled(corners), corner_violations,
                              containment_violations, betweenness_failures, checked)


def _between(images, t, mates, color) -> bool:
    """Image of t between its two mates' images on the line psi_color = psi_v
    through all three.  Only the free coordinate is compared, the second one
    for colour 0 and the first one otherwise: the images already share the
    fixed one, psi_v itself for colours 0 and 1 because the vertex colouring
    is proper, and -a-b = psi_v for colour 2 because every black triangle
    passed the NotASolution check."""
    free = 1 if color == 0 else 0
    x, a, b = (images[s][free] for s in (t, *mates))
    return min(a, b) <= x <= max(a, b)


# --- exact 2D hull helpers -----------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list:
    """Andrew monotone chain over exact points (Fraction or int pairs);
    collinear hull points are dropped so the result lists the polygon's
    corners in CCW order (degenerate inputs give 1 or 2 points)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_hull(p, hull) -> bool:
    """Closed containment test against a CCW hull (exact)."""
    if not hull:
        return False
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        if _cross(a, b, p) < 0:
            return False
    return True
