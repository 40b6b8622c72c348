import random
from fractions import Fraction

import pytest

from conftest import rand_pos_frac
from triholo import connection as C
from triholo import fixtures, mesh, ratmat
from triholo.errors import (
    BoundaryVertex,
    FlatnessViolation,
    NonzeroCurvature,
    SeedViolation,
    UnremovableZeroCoefficient,
)


def star_surface(n):
    """A single fan: triangles (0, i, i+1 mod n) around the center 0."""
    return mesh.build_surface([(0, i, i % n + 1) for i in range(1, n + 1)])


def random_star_connection(rng, n):
    surf = star_surface(n)
    coeffs = {(t, v): rand_pos_frac(rng, 9, 9)
              for t in range(n) for v in surf.triangles[t]}
    return C.DiscreteConnection(surf, coeffs)


def test_canonical_even_valence_trivial(octa):
    conn = C.canonical_connection(octa)
    for v in range(6):
        assert C.local_holonomy(conn, v) == (0, 1)
    assert C.has_zero_curvature(conn)


def test_canonical_valence3():
    tet = mesh.build_surface([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    conn = C.canonical_connection(tet)
    kp, kpp = C.local_holonomy(conn, 0)
    assert (kp, kpp) == (-1, -1)
    # the step matrix [[1,-1],[0,-1]] cubed
    m = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(-1)]]
    cube = ratmat.mat_pow(m, 3)
    assert cube == [[1, -1], [0, -1]]


def test_closed_form_equals_steps_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 9)
        conn = random_star_connection(rng, n)
        kp, kpp = C.local_holonomy(conn, 0)
        k = C.local_holonomy_by_steps(conn, 0)
        assert k[0][0] == 1 and k[1][0] == 0
        assert (kp, kpp) == (k[0][1], k[1][1])


def test_closed_form_against_hand_recursion():
    # independent oracle: unroll the star recursion directly on the values
    rng = random.Random(5)
    n = 6
    conn = random_star_connection(rng, n)
    star = conn.surface.stars[0]
    psi = {0: Fraction(3, 7), star.rim[0]: Fraction(-2, 5)}
    for i in range(n):
        t = star.triangles[i]
        pi, pn = star.rim[i], star.rim[(i + 1) % n]
        val = -(conn.b(t, 0) * psi[0] + conn.b(t, pi) * psi[pi]) / conn.b(t, pn)
        psi[pn] = val  # the last pass overwrites rim[0] with the new value
    kp, kpp = C.local_holonomy(conn, 0)
    assert psi[star.rim[0]] == kp * Fraction(3, 7) + kpp * Fraction(-2, 5)


def test_local_holonomy_boundary_vertex():
    patch = fixtures.hex_patch(1)
    conn = C.canonical_connection(patch.surface)
    rim = next(v for v in range(patch.surface.num_vertices)
               if not patch.surface.stars[v].closed)
    with pytest.raises(BoundaryVertex):
        C.local_holonomy(conn, rim)


def test_transport_seed_violation(octa):
    conn = C.canonical_connection(octa)
    loop = mesh.ThickPath(octa, (0, 1), closed=True)
    t0 = octa.triangles[0]
    with pytest.raises(SeedViolation):
        C.transport(conn, loop, {t0[0]: 1, t0[1]: 1, t0[2]: 1})
    with pytest.raises(SeedViolation):
        C.transport(conn, loop, {t0[0]: 1, t0[1]: -1})


def test_backtrack_and_star_loops(torus4):
    surf = torus4.surface
    conn = C.canonical_connection(surf)
    e, ts = next(iter(surf.edge_triangles.items()))
    back = mesh.ThickPath(surf, ts, closed=True)
    assert C.holonomy_matrix(conn, back) == ratmat.identity(2)
    assert C.holonomy_matrix(conn, mesh.star_loop(surf, 5)) == ratmat.identity(2)


def meridian_loop(ls):
    """Horizontal thick loop of 2N triangles on a torus_lattice fixture."""
    n = int(len(ls.point_of) ** 0.5)
    tri_of = {v: k for k, v in ls.apex_of.items()}
    tris = []
    for i in range(n):
        tris.append(tri_of[("w", (i, 0))])
        tris.append(tri_of[("b", ((i + 1) % n, 1))])
    return mesh.ThickPath(ls.surface, tuple(tris), closed=True)


def test_torus4_meridian_order3(torus4):
    surf = torus4.surface
    conn = C.canonical_connection(surf)
    loop = meridian_loop(torus4)
    assert len(loop) == 8
    r = C.holonomy_matrix(conn, loop)
    assert r != ratmat.identity(2)
    assert ratmat.mat_pow(r, 3) == ratmat.identity(2)
    assert r[0][0] + r[1][1] == -1 and ratmat.det2(r) == 1
    # matches the tracked color permutation
    sigma = C.color_permutation(surf, loop)
    assert r == C.permutation_matrix(sigma)
    # explicit 8-triangle hand propagation oracle
    t0 = loop.triangles[0]
    v0, v1, v2 = sorted(surf.triangles[t0])
    for seed in ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(-3))):
        vals = {v0: seed[0], v1: seed[1], v2: -seed[0] - seed[1]}
        for a, b in zip(loop.triangles, loop.triangles[1:] + loop.triangles[:1]):
            shared = set(surf.triangles[a]) & set(surf.triangles[b])
            (w,) = set(surf.triangles[b]) - shared
            keep = {u: vals[u] for u in shared}
            keep[w] = -sum(keep.values())
            vals = keep
        got = ratmat.vec_mat([seed[0], seed[1]], r)
        assert [vals[v0], vals[v1]] == got


def test_multiplicativity_inversion_homotopy(torus4):
    surf = torus4.surface
    conn = C.canonical_connection(surf)
    loops = C.generator_loops(surf)
    a, b = loops[0], loops[1]
    ra, rb = C.holonomy_matrix(conn, a), C.holonomy_matrix(conn, b)
    assert C.holonomy_matrix(conn, mesh.concat_loops(a, b)) == ratmat.mat_mul(ra, rb)
    rinv = C.holonomy_matrix(conn, a.reversed())
    assert ratmat.mat_mul(ra, rinv) == ratmat.identity(2)
    # backtrack insertion at the base point
    t0 = a.triangles[0]
    nbr = next(t for ts in surf.edge_triangles.values() if t0 in ts
               for t in ts if t != t0)
    padded = mesh.ThickPath(surf, (t0, nbr) + a.triangles, closed=True)
    assert C.holonomy_matrix(conn, padded) == ra
    # star-rotation replacement: conjugating by a full star loop at the base
    sl = mesh.star_loop(surf, surf.triangles[t0][0])
    start = sl.triangles.index(t0)
    rotated = sl.triangles[start:] + sl.triangles[:start]
    padded2 = mesh.ThickPath(surf, tuple(rotated) + a.triangles, closed=True)
    assert C.holonomy_matrix(conn, padded2) == ra


def test_classification(octa, torus3, torus4, ico):
    assert C.classify_holonomy(C.canonical_connection(octa)).group == "trivial"
    assert C.classify_holonomy(C.canonical_connection(torus3.surface)).group == "trivial"
    cls4 = C.classify_holonomy(C.canonical_connection(torus4.surface))
    assert cls4.group == "Z3"
    assert cls4.covariant_dimension == 0
    with pytest.raises(NonzeroCurvature):
        C.classify_holonomy(C.canonical_connection(ico))


def test_color_permutation_matches_exact_transport(octa):
    # The slot-permutation engine against exact GL(2) transport, an
    # independent computation, on every pi_1 generator.
    surfaces = [octa] + [fixtures.torus_lattice(n, s).surface
                         for n in range(3, 8) for s in range(n)]
    for surf in surfaces:
        conn = C.canonical_connection(surf)
        for loop in C.generator_loops(surf):
            sigma = C.color_permutation(surf, loop)
            assert C.holonomy_matrix(conn, loop) == C.permutation_matrix(sigma)


def test_torus4_generator_order(torus4):
    # pi_1 generators come from the BFS dual tree in stored edge order; their
    # order is part of the `holonomy` CLI output.
    cls = C.classify_holonomy(C.canonical_connection(torus4.surface))
    e, r, r2 = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    assert cls.generators == (e, e, r, r, r2, e, r2, e, r, e, r, e, r2, r2, r, e, e)


def test_lemma_rho1_rho2_rho3(octa, torus4):
    for surf in (octa, torus4.surface):
        conn = C.canonical_connection(surf)
        loops = C.generator_loops(surf)
        for lp in loops[:8]:
            rho2, rho3 = mesh.homomorphism_signs(surf, lp)
            assert C.rho1_of_loop(conn, lp) * rho2 == rho3


def test_corollary_a_orientable(octa, torus3, torus4):
    # orientable: b/w coloring exists iff holonomy in {trivial, S3+}
    for surf in (octa, torus3.surface, torus4.surface):
        cls = C.classify_holonomy(C.canonical_connection(surf))
        bw = mesh.bw_face_coloring(surf)
        assert (bw is not None) == (cls.group in ("trivial", "Z3"))


# --- Appendix 1 -------------------------------------------------------------


def edge_matrices_identity(surf):
    out = {}
    for e in surf.edge_triangles:
        out[e] = ratmat.identity(2)
        out[(e[1], e[0])] = ratmat.identity(2)
    return out


def test_representation_identity_octahedron(octa):
    conn = C.connection_from_representation(octa, edge_matrices_identity(octa))
    assert C.has_zero_curvature(conn)
    assert all(v != 0 for v in conn.coefficients.values())
    gens = C.holonomy_generators(conn)
    assert all(g == ratmat.identity(2) for g in gens)
    from triholo.solver import covariant_constants

    assert covariant_constants(conn).dimension == 2


def torus_rep_matrices(ls, a_mat, b_mat):
    """Flat edge matrices on the torus from two commuting generator images,
    via lifts to the plane: the matrix of an edge is rho of the deck
    displacement its lift misses."""
    n = int(len(ls.point_of) ** 0.5)
    surf = ls.surface

    def rho(dx, dy):
        out = ratmat.identity(2)
        m = a_mat if dx >= 0 else ratmat.inv2(a_mat)
        for _ in range(abs(dx)):
            out = ratmat.mat_mul(out, m)
        m = b_mat if dy >= 0 else ratmat.inv2(b_mat)
        for _ in range(abs(dy)):
            out = ratmat.mat_mul(out, m)
        return out

    directions = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    out = {}
    for (u, v) in surf.edge_triangles:
        pu, pv = ls.point_of[u], ls.point_of[v]
        for d in directions:
            q = ((pu[0] + d[0]) % n, (pu[1] + d[1]) % n)
            if q == pv:
                lift = (pu[0] + d[0], pu[1] + d[1])
                dx, dy = (lift[0] - pv[0]) // n, (lift[1] - pv[1]) // n
                out[(u, v)] = rho(dx, dy)
                out[(v, u)] = ratmat.inv2(rho(dx, dy))
                break
        else:
            raise AssertionError("edge without lattice direction")
    return out


def test_representation_torus_commuting_diagonals(torus3):
    a_mat = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    b_mat = [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]
    rmats = torus_rep_matrices(torus3, a_mat, b_mat)
    conn = C.connection_from_representation(torus3.surface, rmats)
    assert C.has_zero_curvature(conn)
    loop_a = meridian_loop(torus3)
    ra = C.holonomy_matrix(conn, loop_a)
    # conjugacy-invariant data must match the generator image
    assert ra[0][0] + ra[1][1] == 2 + 3
    assert ratmat.det2(ra) == 6
    # vertical loop for the second generator
    n = 3
    tri_of = {v: k for k, v in torus3.apex_of.items()}
    tris = []
    for j in range(n):
        tris.append(tri_of[("w", (0, j))])
        tris.append(tri_of[("b", (1, (j + 1) % n))])
    loop_b = mesh.ThickPath(torus3.surface, tuple(tris), closed=True)
    rb = C.holonomy_matrix(conn, loop_b)
    assert rb[0][0] + rb[1][1] == 5 + 7
    assert ratmat.det2(rb) == 35


def test_coefficient_formula_single_triangle():
    # the published per-triangle formulas, on explicit matrices
    rmat = {}
    m01 = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    m12 = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]
    rmat[(0, 1)] = m01
    rmat[(1, 0)] = ratmat.inv2(m01)
    rmat[(1, 2)] = m12
    rmat[(2, 1)] = ratmat.inv2(m12)
    m02 = ratmat.mat_mul(m01, m12)
    rmat[(0, 2)] = m02
    rmat[(2, 0)] = ratmat.inv2(m02)
    surf = fixtures.single_triangle()
    coeffs = C._coefficients_from_matrices(surf, rmat)
    c23 = rmat[(1, 2)][1][0]
    c31 = rmat[(2, 0)][1][0]
    c12 = rmat[(0, 1)][1][0]
    d23 = ratmat.det2(rmat[(1, 2)])
    d21 = ratmat.det2(rmat[(1, 0)])
    assert coeffs[(0, 0)] == c23
    assert coeffs[(0, 1)] == c31 * d23
    assert coeffs[(0, 2)] == c12 * d21


def test_representation_solutions_are_section_components():
    # psi built by the triangle equation = first components of the flat
    # sections transported by the edge matrices
    surf = fixtures.single_triangle()
    rmat = {}
    m01 = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    m12 = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    rmat[(0, 1)] = m01
    rmat[(1, 0)] = ratmat.inv2(m01)
    rmat[(1, 2)] = m12
    rmat[(2, 1)] = ratmat.inv2(m12)
    m02 = ratmat.mat_mul(m01, m12)
    rmat[(0, 2)] = m02
    rmat[(2, 0)] = ratmat.inv2(m02)
    coeffs = C._coefficients_from_matrices(surf, rmat)
    if any(v == 0 for v in coeffs.values()):
        pytest.skip("degenerate instance")
    v0 = [Fraction(4), Fraction(-1)]
    psi = {0: v0[0], 1: ratmat.vec_mat(v0, rmat[(0, 1)])[0],
           2: ratmat.vec_mat(v0, rmat[(0, 2)])[0]}
    total = sum(coeffs[(0, v)] * psi[v] for v in range(3))
    assert total == 0


def test_flatness_violation(octa):
    bad = edge_matrices_identity(octa)
    bad[(0, 2)] = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(FlatnessViolation):
        C.connection_from_representation(octa, bad)


def test_gauge_retry_budget_exhausted(octa):
    with pytest.raises(UnremovableZeroCoefficient):
        C.connection_from_representation(octa, edge_matrices_identity(octa),
                                         max_retries=0)


def test_covariant_constants_requires_flat(ico):
    from triholo.solver import covariant_constants

    with pytest.raises(NonzeroCurvature):
        covariant_constants(C.canonical_connection(ico))


def test_representation_covariants_dimension(torus3):
    # diag(2,3), diag(5,7) have no +1 eigenvalue: no covariant constants
    from triholo.solver import covariant_constants

    a_mat = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    b_mat = [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]
    conn = C.connection_from_representation(
        torus3.surface, torus_rep_matrices(torus3, a_mat, b_mat))
    assert covariant_constants(conn).dimension == 0


def test_icosahedron_local_holonomy(ico):
    # odd valence 5: K = [[1,-1],[0,-1]]^5 = [[1,-1],[0,-1]], so (-1,-1)
    conn = C.canonical_connection(ico)
    for v in range(12):
        assert C.local_holonomy(conn, v) == (-1, -1)


def test_holonomy_invariant_under_elementary_homotopies(torus4):
    # random sequences of the two local moves leave R_gamma unchanged
    surf = torus4.surface
    conn = C.canonical_connection(surf)
    rng = random.Random(71)
    for loop in C.generator_loops(surf)[:4]:
        want = C.holonomy_matrix(conn, loop)
        cur = loop
        for _ in range(6):
            i = rng.randrange(len(cur.triangles))
            j = (i + 1) % len(cur.triangles)
            if rng.random() < 0.5:
                t = cur.triangles[i]
                cur = mesh.backtrack_move(cur, i, rng.choice(surf.dual_neighbours(t)))
            else:
                e = surf.shared_edge(cur.triangles[i], cur.triangles[j])
                cur = mesh.star_rotation_move(cur, i, rng.choice(e))
        assert C.holonomy_matrix(conn, cur) == want


@pytest.mark.parametrize("where", ["negative", "past-the-end"])
def test_triangle_index_outside_range_rejected(octa, where):
    # triangles[-1] would pass the vertex check and the coefficient would
    # be stored under a key that b() never reads
    t = -1 if where == "negative" else octa.num_triangles
    with pytest.raises(ValueError, match=f"triangle index {t} outside 0..7"):
        C.DiscreteConnection(octa, {(t, 0): 2})


@pytest.mark.parametrize("where", ["negative", "past-the-end"])
def test_b_rejects_triangle_index_outside_range(octa, where):
    # b(-1, v) would read triangle 7 through negative indexing
    t = -1 if where == "negative" else octa.num_triangles
    with pytest.raises(ValueError, match=f"triangle index {t} outside 0..7"):
        C.canonical_connection(octa).b(t, 0)
