"""Discrete connections: curvature, parallel transport, holonomy groups.

A connection assigns a nonzero rational coefficient b[T, P] to every
triangle-vertex incidence of the surface.  Solutions of the
triangle equation  sum_P b[T, P] psi_P = 0  extend uniquely along thick
paths; going around a loop yields a 2x2 holonomy matrix acting on row
vectors from the right.

This module holds weighted GL(2) transport, curvature and Appendix 1.
Generators come from one sweep of the dual tree: GL(2) frames for
`holonomy_frames`, and for the canonical connection, whose holonomy is a
colour permutation in S3, slot labels at k = 2 (`mesh.label_sweep`); its
covariant dimension is their orbit count minus one (`simplicial.slot_classes`).
`transport` and `holonomy_matrix` follow explicit loops.

The canonical connection (`is_canonical`, every b = 1) is the plain
triangle equation psi_a + psi_b + psi_c = 0: its curvature is read off the
valences and its frames off the slot labels, in integers.  The weighted
path stays for every other connection.  Restricting Q to a set of triangles
(the black or the white ones) is `simplicial.q_matrix(triangles, rows)`,
not a connection.

Conventions
-----------
* All arithmetic is exact: `fractions.Fraction`, or `int` where the plain
  equation needs no division; curvature checks are exact equalities.
* The solution space at a triangle T = {v0 < v1 < v2} is coordinatized by
  (psi_{v0}, psi_{v1}), the two lowest vertices.  Holonomy matrices of
  loops based at T are written in this basis, which makes loop
  composition strictly multiplicative.
* Local holonomy at a vertex uses the star's own (psi_P, psi_{P_1})
  coordinates and is returned as the pair (k', k'') with step matrix
  [[1, k'], [0, k'']].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .errors import (
    BoundaryVertex,
    FlatnessViolation,
    NonzeroCurvature,
    NotALoop,
    SeedViolation,
    UnremovableZeroCoefficient,
    ZeroDivisor,
)
from .mesh import (ThickPath, TriangulatedSurface, cotree_walks, dual_tree, label_sweep,
                   tree_sweep)
from .ratmat import frac
from .simplicial import generated_group, perm_sign, slot_classes, slot_permutation

Mat2 = list


class DiscreteConnection:
    """Coefficients b[T, P] on every triangle; an incidence absent from
    `coefficients` has b = 1."""

    def __init__(self, surface: TriangulatedSurface, coefficients=None):
        self.surface = surface
        self.coefficients: dict[tuple[int, int], Fraction] = {}
        if coefficients:
            for (t, v), val in coefficients.items():
                if not 0 <= t < surface.num_triangles:
                    raise ValueError(f"triangle index {t} outside 0..{surface.num_triangles - 1}")
                val = frac(val)
                if val == 0:
                    raise ZeroDivisor(f"coefficient b[{t},{v}] must be nonzero")
                if v not in surface.triangles[t]:
                    raise ValueError(f"vertex {v} is not in triangle {t}")
                self.coefficients[(t, v)] = val

    def b(self, t: int, v: int) -> Fraction:
        if not 0 <= t < self.surface.num_triangles:
            raise ValueError(f"triangle index {t} outside 0..{self.surface.num_triangles - 1}")
        if v not in self.surface.triangles[t]:
            raise ValueError(f"vertex {v} is not in triangle {t}")
        return self.coefficients.get((t, v), Fraction(1))

    @property
    def is_canonical(self) -> bool:
        """Every equation is the plain psi_a + psi_b + psi_c = 0, with no
        coefficient to look up."""
        return all(v == 1 for v in self.coefficients.values())


def canonical_connection(surface: TriangulatedSurface) -> DiscreteConnection:
    """b[T, P] = 1 on all triangles."""
    return DiscreteConnection(surface)


# --- local holonomy -------------------------------------------------------

def local_holonomy(conn: DiscreteConnection, v: int) -> tuple[Fraction, Fraction]:
    """Closed-form curvature pair (k', k'') at an interior vertex.

    With the star T_1..T_n, rim P_1..P_n and P_{n+1} = P_1:

        k'  = sum_{m=0}^{n-1} (-1)^{m+1}
              b[T_{n-m}, P] * prod_{j>n-m} b[T_j, P_j]
              / prod_{j>=n-m} b[T_j, P_{j+1}]
        k'' = (-1)^n prod_j b[T_j, P_j] / prod_j b[T_j, P_{j+1}]

    Evaluated in one pass, j = n down to 1, with the running ratio
    r = prod_{i>j} b[T_i, P_i] / b[T_i, P_{i+1}]: term m = n - j of k' is
    (-1)^{m+1} b[T_j, P] / b[T_j, P_{j+1}] r, and k'' = (-1)^n r at the end.
    Equals the step-by-step propagation exactly (`local_holonomy_by_steps`).
    """
    star = conn.surface.stars[v]
    if not star.closed:
        raise BoundaryVertex(f"vertex {v} lies on the boundary")
    n = star.valence
    kp, r = Fraction(0), Fraction(1)
    for j in range(n - 1, -1, -1):   # T_{j+1}, 0-based j; m = n - 1 - j
        t = star.triangles[j]
        b_next = conn.b(t, star.rim[(j + 1) % n])
        term = conn.b(t, v) / b_next * r
        kp += term if (n - 1 - j) % 2 else -term
        r *= conn.b(t, star.rim[j]) / b_next
    return kp, -r if n % 2 else r


def local_holonomy_by_steps(conn: DiscreteConnection, v: int) -> Mat2:
    """Curvature matrix K_P as the ordered product of per-triangle steps."""
    star = conn.surface.stars[v]
    if not star.closed:
        raise BoundaryVertex(f"vertex {v} lies on the boundary")
    n = star.valence
    out = ratmat.identity(2)
    for j in range(n):
        t = star.triangles[j]
        p_j, p_next = star.rim[j], star.rim[(j + 1) % n]
        step = [
            [Fraction(1), -conn.b(t, v) / conn.b(t, p_next)],
            [Fraction(0), -conn.b(t, p_j) / conn.b(t, p_next)],
        ]
        out = ratmat.mat_mul(out, step)
    return out


def has_zero_curvature(conn: DiscreteConnection) -> bool:
    """Exact check k' = 0, k'' = 1 at every interior vertex.

    For the canonical connection (b = 1 everywhere) the closed form reads
    k'' = (-1)^n and k' = -(n mod 2), so the check is that every closed
    star has even valence n."""
    stars = conn.surface.stars
    if conn.is_canonical:
        return all(s.valence % 2 == 0 for s in stars if s.closed)
    for v in range(conn.surface.num_vertices):
        if not stars[v].closed:
            continue
        kp, kpp = local_holonomy(conn, v)
        if kp != 0 or kpp != 1:
            return False
    return True


# --- transport ------------------------------------------------------------

@dataclass
class TransportResult:
    """Values carried along a thick path, one vertex dict per triangle."""

    path: ThickPath
    values: list   # values[i]: dict vertex -> Fraction on triangle i
    final: dict    # solution on the base triangle after a full loop


def _solve_third(conn, t, known: dict) -> dict:
    tv = conn.surface.triangles[t]
    missing = [u for u in tv if u not in known]
    if len(missing) != 1:
        raise ValueError("exactly one unknown vertex expected")
    w = missing[0]
    s = sum(conn.b(t, u) * known[u] for u in tv if u != w)
    out = {u: known[u] for u in tv if u != w}
    out[w] = -s / conn.b(t, w)
    return out


def transport(conn: DiscreteConnection, path: ThickPath, seed: dict) -> TransportResult:
    """Extend a triangle-equation solution along a thick path.

    `seed` maps the three vertices of the first triangle to values
    solving its equation (SeedViolation otherwise).  For closed paths the
    result's `final` holds the transported values back on the base
    triangle.
    """
    surf = conn.surface
    t0 = path.triangles[0]
    tv0 = surf.triangles[t0]
    if set(seed) != set(tv0):
        raise SeedViolation(f"seed must cover the vertices of triangle {t0}")
    seed = {u: frac(x) for u, x in seed.items()}
    if sum(conn.b(t0, u) * seed[u] for u in tv0) != 0:
        raise SeedViolation("seed does not solve the first triangle's equation")
    values = [seed]
    cur = seed
    steps = list(zip(path.triangles, path.triangles[1:]))
    if path.closed:
        steps.append((path.triangles[-1], t0))
    for i, (_, b) in enumerate(steps):
        e = path.shared_edges[i]
        cur = _solve_third(conn, b, {u: cur[u] for u in e})
        if not (path.closed and i == len(steps) - 1):
            values.append(cur)
    return TransportResult(path, values, cur)


def holonomy_matrix(conn: DiscreteConnection, loop: ThickPath) -> Mat2:
    """R_gamma in the canonical (two lowest vertices) basis of the base
    triangle; row vectors act from the left: v -> v . R."""
    if not loop.closed:
        raise NotALoop("holonomy is defined for closed thick paths")
    t0 = loop.triangles[0]
    v0, v1, _ = sorted(conn.surface.triangles[t0])
    finals = (transport(conn, loop, seed).final for seed in _seed_frame(conn, t0))
    return [[f[v0], f[v1]] for f in finals]


def _seed_frame(conn: DiscreteConnection, t: int) -> tuple[dict, dict]:
    """The two solutions on triangle t seeded (1, 0) and (0, 1) on its two
    lowest vertices."""
    v0, v1, _ = sorted(conn.surface.triangles[t])
    return tuple(_solve_third(conn, t, {v0: x, v1: y})
                 for x, y in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))


# --- pi_1 generators and classification ------------------------------------

def generator_loops(surface: TriangulatedSurface) -> list[ThickPath]:
    """One thick loop per cotree edge of the BFS dual tree from triangle 0
    (neighbours in stored edge order), based at triangle 0."""
    parent, _, cotree = dual_tree(surface.dual_neighbours, surface.num_triangles)
    return [ThickPath(surface, tuple(walk[:-1]), closed=True)
            for walk in cotree_walks(parent, cotree)]


_SLOT_VALUES = ((1, 0, -1), (0, 1, -1))


def permutation_matrix(sigma: tuple[int, int, int]) -> Mat2:
    """Matrix of a color permutation on (psi_a, psi_b), psi_c = -psi_a-psi_b.

    After a loop whose color tracking yields sigma, the transported
    solution satisfies new psi_x = old psi_{sigma(x)}.
    """
    return [[Fraction(v[sigma[0]]), Fraction(v[sigma[1]])] for v in _SLOT_VALUES]


def color_permutation(surface: TriangulatedSurface, loop: ThickPath) -> tuple[int, int, int]:
    """Track the tri-coloring of the base triangle around a loop.

    The base triangle's sorted vertices get colors (a, b, c); the
    coloring propagates so every triangle stays tri-chromatic.  Returns
    sigma with final_color_value(x) = initial psi_{sigma(x)} semantics:
    the k = 2 case of `simplicial.slot_permutation`.
    """
    if not loop.closed:
        raise NotALoop("color permutation is defined for loops")
    return slot_permutation(surface.triangles, loop.triangles + loop.triangles[:1])


GROUP_TAGS = {1: "trivial", 2: "Z2", 3: "Z3", 6: "S3"}


@dataclass(frozen=True)
class HolonomyClassification:
    group: str                      # trivial | Z2 | Z3 | S3
    generators: tuple               # color permutations of the pi_1 generators
    rho1: tuple                     # parity character per generator
    covariant_dimension: int


def classify_holonomy(conn: DiscreteConnection) -> HolonomyClassification:
    """Holonomy group of a zero-curvature canonical connection on a closed
    connected surface, computed as color permutations of pi_1 generators;
    the covariant dimension is the number of their orbits on the three
    colours (`simplicial.slot_classes`) minus one."""
    surf = conn.surface
    if not surf.is_closed:
        raise ValueError("classification requires a closed surface")
    if not conn.is_canonical:
        raise ValueError("classification tracks colors: canonical connection only")
    if not has_zero_curvature(conn):
        raise NonzeroCurvature("connection has nonzero curvature")
    _, perms = label_sweep(surf.triangles, surf.dual_neighbours, surf.num_triangles)
    orbits = slot_classes(((s, p[s]) for p in perms for s in range(3)), 3)
    return HolonomyClassification(GROUP_TAGS[len(generated_group(perms, 3))], perms,
                                  tuple(perm_sign(p) for p in perms), len(orbits) - 1)


def holonomy_generators(conn: DiscreteConnection) -> list[Mat2]:
    """R_gamma for the pi_1 generators of any zero-curvature connection."""
    return holonomy_frames(conn)[1]


def holonomy_frames(conn: DiscreteConnection) -> tuple[dict, list[Mat2]]:
    """Per triangle, the pair of solutions seeded (1, 0) and (0, 1) on the
    two lowest vertices of triangle 0 and carried down the dual tree; and
    per cotree edge (a, b), R = X F_b^(-1) from the crossed frames X and
    the tree frames F_b on two vertices of b (`generator_loops` order).

    The canonical connection reads both off `mesh.label_sweep`: a vertex in slot
    s takes (1, 0, -1)[s] and (0, 1, -1)[s] (ints), and the generator of a
    slot permutation sigma is `permutation_matrix(sigma)`.  Every other
    connection runs the weighted sweep `_gl2_frames`; both list each
    frame's vertices in the same order."""
    if not has_zero_curvature(conn):
        raise NonzeroCurvature("connection has nonzero curvature")
    if conn.is_canonical:
        return _slot_frames(conn.surface)
    return _gl2_frames(conn)


def _slot_frames(surf: TriangulatedSurface) -> tuple[dict, list[Mat2]]:
    """`holonomy_frames` of the canonical connection from the slot labels.  The
    last label of each triangle is the vertex the sweep solved for (the
    highest of triangle 0, else the one its tree parent lacks), and
    `_solve_third` lists that vertex last."""
    labels, perms = label_sweep(surf.triangles, surf.dual_neighbours, surf.num_triangles)
    frames = {}
    for t, lab in labels.items():
        last = next(reversed(lab))
        order = [u for u in surf.triangles[t] if u != last] + [last]
        frames[t] = tuple({u: vals[lab[u]] for u in order} for vals in _SLOT_VALUES)
    return frames, [permutation_matrix(sigma) for sigma in perms]


def frame_sweep(conn: DiscreteConnection) -> tuple[dict, list]:
    """Weighted GL(2) transport with `_solve_third` down the dual tree, with
    no curvature check: `mesh.tree_sweep` of the pair of solutions seeded
    (1, 0) and (0, 1) on the two lowest vertices of triangle 0.  Returns the
    frame of every triangle and, per cotree edge (a, b), the pair
    (b, frame of a crossed into b)."""
    surf = conn.surface

    def cross(frame, a, b):
        return tuple(_solve_third(conn, b, {u: f[u] for u in surf.triangles[b] if u in f})
                     for f in frame)

    return tree_sweep(surf.dual_neighbours, surf.num_triangles, _seed_frame(conn, 0), cross)


def _gl2_frames(conn: DiscreteConnection) -> tuple[dict, list[Mat2]]:
    """`holonomy_frames` by weighted GL(2) transport (`frame_sweep`)."""
    surf = conn.surface
    frames, crossings = frame_sweep(conn)
    gens = []
    for b, crossed in crossings:
        u0, u1, _ = sorted(surf.triangles[b])
        x = [[f[u0], f[u1]] for f in crossed]
        fb = [[f[u0], f[u1]] for f in frames[b]]
        gens.append(ratmat.mat_mul(x, ratmat.inv2(fb)))
    return frames, gens


def rho1_of_loop(conn: DiscreteConnection, loop: ThickPath) -> int:
    """Parity of the global holonomy along a loop (canonical connection)."""
    return perm_sign(color_permutation(conn.surface, loop))


# --- Appendix 1: connection from an edge representation --------------------

SWAP = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def _complete_edge_matrices(surface, edge_matrices) -> dict:
    out = {}
    for (u, v), m in edge_matrices.items():
        m = [[frac(x) for x in row] for row in m]
        out[(u, v)] = m
    for (u, v), m in list(out.items()):
        if (v, u) in out:
            if ratmat.mat_mul(out[(v, u)], m) != ratmat.identity(2):
                raise FlatnessViolation(f"R[{v},{u}] is not the inverse of R[{u},{v}]")
        else:
            out[(v, u)] = ratmat.inv2(m)
    for e in surface.edge_triangles:
        if e not in out:
            raise FlatnessViolation(f"no matrix given for edge {e}")
    return out


def _check_cocycle(surface, rmat):
    for t in surface.triangles:
        for p, q, r in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
            lhs = rmat[(p, r)]
            rhs = ratmat.mat_mul(rmat[(p, q)], rmat[(q, r)])
            if lhs != rhs:
                raise FlatnessViolation(f"cocycle fails on triangle {t}")


def connection_from_representation(
    surface: TriangulatedSurface,
    edge_matrices: dict,
    seed: int = 0,
    max_retries: int = 32,
) -> DiscreteConnection:
    """Build a zero-curvature connection whose thick-path holonomy realizes
    the flat GL(2) connection given on oriented edges.

    The input must satisfy R[P,P''] = R[P,P'] R[P',P''] on every triangle
    and R[P,P'] = R[P',P]^{-1} (missing reverse edges are completed).  The
    base edge (vertex 0, its lowest neighbor) is gauge-normalized to
    [[0,1],[1,0]]; a seeded pseudorandom gauge at the remaining vertices
    makes all coefficients nonzero, retrying up to `max_retries` times.

    Per triangle with sorted vertices P1 < P2 < P3 the coefficients are
    b[T,P1] = c23, b[T,P2] = c31*d23, b[T,P3] = c12*d21, where c_ij is the
    (2,1) entry and d_ij the determinant of the gauged R[Pi,Pj].
    """
    rmat = _complete_edge_matrices(surface, edge_matrices)
    _check_cocycle(surface, rmat)

    p0 = 0
    p0p = min(v for e in surface.edge_triangles if p0 in e for v in e if v != p0)
    # First gauge: force R[p0, p0p] = SWAP keeping C[p0] = id.
    c_norm = {v: ratmat.identity(2) for v in range(surface.num_vertices)}
    c_norm[p0p] = ratmat.mat_mul(ratmat.inv2(SWAP), rmat[(p0, p0p)])
    rmat = _apply_gauge(surface, rmat, c_norm)

    rng = random.Random(seed)
    for _ in range(max_retries):
        cmat = {}
        for v in range(surface.num_vertices):
            if v in (p0, p0p):
                cmat[v] = ratmat.identity(2)
                continue
            while True:
                m = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
                if ratmat.det2(m) != 0:
                    break
            cmat[v] = m
        gauged = _apply_gauge(surface, rmat, cmat)
        coeffs = _coefficients_from_matrices(surface, gauged)
        if all(val != 0 for val in coeffs.values()):
            return DiscreteConnection(surface, coeffs)
    raise UnremovableZeroCoefficient(f"no nonzero gauge found in {max_retries} tries")


def _apply_gauge(surface, rmat, cmat) -> dict:
    out = {}
    for (u, v), m in rmat.items():
        out[(u, v)] = ratmat.mat_mul(ratmat.mat_mul(cmat[u], m), ratmat.inv2(cmat[v]))
    return out


def _coefficients_from_matrices(surface, rmat) -> dict:
    coeffs = {}
    for t, tri in enumerate(surface.triangles):
        p1, p2, p3 = sorted(tri)
        c23 = rmat[(p2, p3)][1][0]
        c31 = rmat[(p3, p1)][1][0]
        c12 = rmat[(p1, p2)][1][0]
        d23 = ratmat.det2(rmat[(p2, p3)])
        d21 = ratmat.det2(rmat[(p2, p1)])
        coeffs[(t, p1)] = c23
        coeffs[(t, p2)] = c31 * d23
        coeffs[(t, p3)] = c12 * d21
    # zero coefficients are reported by the caller (retry with another gauge)
    return coeffs
