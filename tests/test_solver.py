import random
import re
import time
from fractions import Fraction

import pytest

from conftest import klein_bottle, rand_frac
from test_ratmat import dense, reference_rref, sparse
from triholo import connection as C
from triholo import fixtures, lattice, mesh, ratmat, simplicial, solver
from triholo.mesh import (
    BLACK,
    Coloring,
    as_domain,
    bw_face_coloring,
    three_vertex_coloring,
)
from triholo.ratmat import frac
from triholo.solver import MaxPrincipleReport
from triholo.errors import (
    InconsistentBoundary,
    NonTrivialHolonomy,
    NotASolution,
    OddValence,
    TriholoError,
)


def nullspace_oracle(conn):
    """Independent: sympy null space of the full Q matrix."""
    import sympy

    surf = conn.surface
    q = dense(simplicial.q_matrix(surf.triangles, range(surf.num_triangles), conn.b),
              surf.num_vertices)
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in q])
    return [[Fraction(str(v)) for v in vec] for vec in m.nullspace()]


def test_covariant_constants_octahedron(octa):
    conn = C.canonical_connection(octa)
    space = solver.covariant_constants(conn)
    assert space.dimension == 2
    oracle = nullspace_oracle(conn)
    ours = [[psi[v] for v in range(6)] for psi in space.basis]
    assert ratmat.span_equal(sparse(ours), sparse(oracle), 6)
    for psi in space.basis:
        for t in octa.triangles:
            assert sum(psi[v] for v in t) == 0


def test_covariant_dimensions(torus3, torus4, torus6):
    assert solver.covariant_constants(C.canonical_connection(torus3.surface)).dimension == 2
    assert solver.covariant_constants(C.canonical_connection(torus4.surface)).dimension == 0
    assert solver.covariant_constants(C.canonical_connection(torus6.surface)).dimension == 2


def fraction_assert_solves(conn, psi):
    """The Fraction form of `solver._assert_solves`: each row of Q summed
    over psi's values as they are."""
    for eq in solver._q_rows(conn):
        if sum(x * psi[v] for v, x in eq.items()) != 0:
            raise solver.NonzeroCurvature("propagated seed fails a triangle equation")


def solves(check, conn, psi) -> bool:
    try:
        check(conn, psi)
    except solver.NonzeroCurvature:
        return False
    return True


def test_integer_self_check_matches_the_fraction_sums():
    """psi scaled to ints decides as the Fraction sums do, on the canonical
    connection and under a vertex gauge with triangle scalings, for the
    covariant basis, a rescaled basis vector and one with a bumped value."""
    rng = random.Random(1707)
    verdicts = set()
    for n, shear in ((3, 0), (6, 0), (6, 3), (9, 3), (9, 6)):
        surf = fixtures.torus_lattice(n, shear).surface
        g = [rand_frac(rng, 1, 9, 5) * rng.choice((-1, 1)) for _ in range(surf.num_vertices)]
        gauged = {}
        for t, tri in enumerate(surf.triangles):
            lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
            gauged.update({(t, v): lam * g[v] for v in tri})
        for conn in (C.canonical_connection(surf), C.DiscreteConnection(surf, gauged)):
            basis = solver.covariant_constants(conn).basis
            assert basis
            for psi in basis:
                k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                bumped = dict(psi)
                bumped[rng.randrange(surf.num_vertices)] += Fraction(1, rng.randint(1, 9))
                for cand in (psi, {v: k * x for v, x in psi.items()}, bumped):
                    want = solves(fraction_assert_solves, conn, cand)
                    assert solves(solver._assert_solves, conn, cand) is want
                    verdicts.add(want)
    assert verdicts == {True, False}


def test_L_assembly_and_identities(octa, torus4, torus6):
    conn = C.canonical_connection(octa)
    lmat = solver.assemble_L(conn)
    # diagonal n_P; the 3 n_P potential contributes 12, -2*Delta corrects by -8
    assert all(lmat[v][v] == 4 for v in range(6))
    for surf in (octa, torus4.surface, torus6.surface):
        rep = solver.check_L_identity(surf)
        assert rep.l_identity
        assert rep.bw_exists
        assert rep.qb_identity and rep.qw_identity
        assert rep.dual_block_identity


def test_L_identity_odd_valence(ico):
    with pytest.raises(OddValence):
        solver.check_L_identity(ico)


def test_L_interior_row_on_patch():
    patch = fixtures.hex_patch(1)
    conn = C.canonical_connection(patch.surface)
    lmat = solver.assemble_L(conn)
    center = patch.vertex_of[(0, 0)]
    assert patch.surface.valence(center) == 6
    assert lmat[center][center] == 18 - 2 * 6
    nbrs = [v for v in range(patch.surface.num_vertices)
            if lmat[center].get(v, 0) != 0 and v != center]
    assert all(lmat[center][v] == 2 for v in nbrs)
    assert len(nbrs) == 6


def test_L_of_zero_function(octa):
    lmat = solver.assemble_L(C.canonical_connection(octa))
    zero = [Fraction(0)] * 6
    assert all(sum(x * zero[j] for j, x in row.items()) == 0 for row in lmat)


def test_zero_modes_match_covariants(octa, torus3, torus4, torus6):
    for surf in (octa, torus3.surface, torus4.surface, torus6.surface):
        conn = C.canonical_connection(surf)
        modes = solver.zero_modes(conn)
        space = solver.covariant_constants(conn)
        assert ratmat.span_equal(modes, space.basis, surf.num_vertices)
        assert len(modes) == space.dimension


def test_zero_modes_are_laplace_eigenfunctions(torus6):
    # uniform valence 6: modes satisfy Delta psi = (3/2) n_P psi = 9 psi
    surf = torus6.surface
    modes = solver.zero_modes(C.canonical_connection(surf))
    assert len(modes) == 2
    delta = solver.graph_laplacian(surf)
    for m in modes:
        vec = [m[v] for v in range(surf.num_vertices)]
        image = [sum(x * vec[j] for j, x in delta[i].items()) for i in range(len(vec))]
        assert image == [9 * x for x in vec]


def dense_L(conn):
    """L = Q+Q as a dense matrix, summed triangle by triangle."""
    surf = conn.surface
    nv = surf.num_vertices
    out = [[Fraction(0)] * nv for _ in range(nv)]
    for t in range(surf.num_triangles):
        for u in surf.triangles[t]:
            for v in surf.triangles[t]:
                out[u][v] += conn.b(t, u) * conn.b(t, v)
    return out


def test_dual_block_identity_needs_every_edge_between_two_colours(octa):
    good = mesh.bw_face_coloring(octa)
    assert solver._dual_block_identity(octa, good)
    # one triangle recoloured: each of its edges joins two triangles of one colour
    colors = dict(good.face_colors)
    colors[0] = mesh.WHITE if colors[0] == mesh.BLACK else mesh.BLACK
    assert not solver._dual_block_identity(octa, mesh.Coloring(face_colors=colors))
    # a boundary edge lies in one triangle only
    patch = fixtures.hex_patch(2)
    lattice_colors = {t: mesh.BLACK if t in patch.black else mesh.WHITE
                      for t in range(patch.surface.num_triangles)}
    assert not solver._dual_block_identity(patch.surface,
                                           mesh.Coloring(face_colors=lattice_colors))


def test_zero_modes_identical_to_dense_L(octa, monkeypatch):
    surfaces = [octa] + [fixtures.torus_lattice(n, s).surface
                         for n in range(3, 9) for s in range(n)]
    got = [solver.zero_modes(C.canonical_connection(surf)) for surf in surfaces]
    monkeypatch.setattr(ratmat, "rref", reference_rref)
    for surf, modes in zip(surfaces, got):
        oracle = ratmat.nullspace(sparse(dense_L(C.canonical_connection(surf))),
                                  surf.num_vertices)
        assert modes == [dict(enumerate(vec)) for vec in oracle]


def zero_modes_within_budget(n, budget):
    """zero_modes on torus_lattice(n) in `budget` seconds: two modes, each
    solving every triangle equation and together spanning the covariant
    constants."""
    surf = fixtures.torus_lattice(n).surface
    conn = C.canonical_connection(surf)
    start = time.perf_counter()
    modes = solver.zero_modes(conn)
    elapsed = time.perf_counter() - start
    assert elapsed <= budget, f"zero_modes at V={surf.num_vertices} took {elapsed:.1f}s"
    assert len(modes) == 2
    for m in modes:
        assert all(m[a] + m[b] + m[c] == 0 for a, b, c in surf.triangles)
    cov = solver.covariant_constants(conn)
    assert ratmat.span_equal(modes, cov.basis, surf.num_vertices)


def test_zero_modes_torus_18_within_budget():
    zero_modes_within_budget(18, 10.0)


def test_zero_modes_torus_36_within_budget():
    zero_modes_within_budget(36, 2.0)


# --- zero modes from the sweep against elimination -----------------------------

def elimination_zero_modes(conn):
    """The former `zero_modes`: `ratmat.nullspace` of the dense T x V matrix Q."""
    return [dict(enumerate(vec))
            for vec in ratmat.nullspace(solver._q_rows(conn), conn.surface.num_vertices)]


def kernel_surfaces():
    """Closed surfaces with trivial, Z2, Z3 and S3 holonomy, the curved
    icosahedron, and discs."""
    out = {f"torus{n}s{s}": fixtures.torus_lattice(n, s).surface
           for n in range(3, 9) for s in range(n)}
    out.update((f"hex{r}", fixtures.hex_patch(r).surface) for r in range(1, 5))
    out.update(octa=fixtures.octahedron(), ico=fixtures.icosahedron(),
               triangle=fixtures.single_triangle())
    out.update((f"klein{k},{m}", klein_bottle(k, m)) for k in (2, 3) for m in (3, 4, 5, 6))
    out["annulus"] = annulus()
    return out


def annulus():
    """hex_patch(2) without the star of its centre, renumbered."""
    patch = fixtures.hex_patch(2)
    centre = patch.vertex_of[(0, 0)]
    tris = [t for t in patch.surface.triangles if centre not in t]
    index = {v: i for i, v in enumerate(sorted({v for t in tris for v in t}))}
    return mesh.build_surface([tuple(index[v] for v in t) for t in tris])


KERNEL_SURFACES = kernel_surfaces()


def vertex_gauged(surf, rng):
    """b[T, P] = c_P: psi is a zero mode exactly when c psi is a canonical
    one, so the kernel dimension is the canonical one."""
    c = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
         for _ in range(surf.num_vertices)]
    return C.DiscreteConnection(surf, {(t, v): c[v] for t, tri in enumerate(surf.triangles)
                                       for v in tri})


def random_weighted(surf, rng):
    return C.DiscreteConnection(surf, {(t, v): rand_frac(rng, 1, 9, 5) * rng.choice((-1, 1))
                                       for t, tri in enumerate(surf.triangles) for v in tri})


def mostly_plain(surf, rng):
    """b = 1 on about half the incidences and 2, -1 or 3 on the rest: a
    crossed frame then often agrees with the tree frame on some vertices
    of a cotree triangle and not on others."""
    return C.DiscreteConnection(surf, {(t, v): rng.choice((1, 1, 1, 2, -1, 3))
                                       for t, tri in enumerate(surf.triangles) for v in tri})


def test_kernel_surfaces_reach_dimensions_0_1_2():
    dims = {len(elimination_zero_modes(C.canonical_connection(surf)))
            for surf in KERNEL_SURFACES.values()}
    assert dims == {0, 1, 2}


@pytest.mark.parametrize("tag", sorted(KERNEL_SURFACES))
def test_zero_modes_equal_elimination(tag, monkeypatch):
    surf = KERNEL_SURFACES[tag]
    rng = random.Random(tag)
    conns = [C.canonical_connection(surf), vertex_gauged(surf, rng), random_weighted(surf, rng),
             mostly_plain(surf, rng)]
    want = [elimination_zero_modes(conn) for conn in conns]
    rref = ratmat.rref

    def seed_rows_only(rows, cols):  # the <= 2 unknowns of the weighted sweep, never Q
        assert cols <= 2
        assert all(len(row) <= 2 for row in rows)
        return rref(rows, cols)

    reduce = ratmat._reduce

    def no_rows_of_q(rows, order):  # the sweep's rows in 2 unknowns, or <= 2 class vectors
        assert len(rows) <= 2 or len(order) <= 2
        return reduce(rows, order)

    monkeypatch.setattr(ratmat, "rref", seed_rows_only)
    monkeypatch.setattr(ratmat, "_reduce", no_rows_of_q)
    got = [solver.zero_modes(conn) for conn in conns]
    monkeypatch.undo()
    for modes, oracle in zip(got, want):
        assert modes == oracle
        assert [list(m) for m in modes] == [list(m) for m in oracle]
        assert all(type(x) is Fraction for m in modes for x in m.values())
    assert len(got[1]) == len(got[0])
    if surf.is_closed and C.has_zero_curvature(conns[0]):
        assert len(got[0]) == C.classify_holonomy(conns[0]).covariant_dimension


def test_zero_modes_need_an_edge_connected_surface():
    apart = mesh.build_surface([(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="dual graph is not connected"):
        solver.zero_modes(C.canonical_connection(apart))
    with pytest.raises(ValueError, match="dual graph is not connected"):
        solver.zero_modes(C.DiscreteConnection(apart, {(0, 0): 2}))


def bw_runs(radius):
    """determining_vertex_set and solve_bw on a hex patch: unique, partly
    prescribed and unprescribed boundary data."""
    patch = fixtures.hex_patch(radius)
    dom = patch.domain()
    fc = mesh.bw_face_coloring(dom)
    free = solver.determining_vertex_set(dom, fc)
    rng = random.Random(radius)
    full = {v: rand_frac(rng) for v in free}
    part = dict(list(full.items())[::2])
    return [free] + [solver.solve_bw(dom, fc, bv) for bv in (full, part, {})]


def test_bw_solves_identical_to_dense_elimination(monkeypatch):
    got = [bw_runs(r) for r in (2, 3, 4)]
    monkeypatch.setattr(ratmat, "rref", reference_rref)
    assert got == [bw_runs(r) for r in (2, 3, 4)]
    assert got[0][1].unique and not got[0][2].unique


def test_solve_bw_covariant_boundary():
    patch = fixtures.hex_patch(2)
    dom = patch.domain()
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    colors = fixtures.lattice_vertex_coloring(patch)
    cvals = (Fraction(2), Fraction(-5), Fraction(3))
    boundary = {v: cvals[colors[v]] for v in dom.boundary_vertices()}
    res = solver.solve_bw(dom, fc, boundary)
    assert all(res.values[v] == cvals[colors[v]] for v in dom.vertices)


def test_solve_bw_hexagon_matches_dense_oracle():
    import sympy

    patch = fixtures.hex_patch(1)  # 6 triangles around the origin
    assert patch.surface.num_triangles == 6
    dom = patch.domain()
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    rng = random.Random(4)
    free = solver.determining_vertex_set(dom, fc)
    boundary = {v: rand_frac(rng) for v in free}
    res = solver.solve_bw(dom, fc, boundary)
    assert res.unique
    # dense oracle over all vertices
    nv = patch.surface.num_vertices
    unknowns = sympy.symbols(f"x0:{nv}")
    eqs = []
    for t in sorted(patch.black):
        eqs.append(sum(unknowns[v] for v in patch.surface.triangles[t]))
    for v, val in boundary.items():
        eqs.append(unknowns[v] - sympy.Rational(val))
    sol = sympy.solve(eqs, unknowns, dict=True)
    assert len(sol) == 1
    for v in range(nv):
        assert Fraction(str(sol[0][unknowns[v]])) == res.values[v]


def test_solve_bw_closed_octahedron_black_only(octa):
    col = mesh.bw_face_coloring(octa)
    res = solver.solve_bw(mesh.whole_domain(octa), col, {})
    assert not res.unique
    assert len(res.nullspace) == 2
    conn = C.canonical_connection(octa)
    cov = solver.covariant_constants(conn)
    assert ratmat.span_equal(res.nullspace, cov.basis, 6)


def test_solve_bw_inconsistent():
    patch = fixtures.hex_patch(1)
    dom = patch.domain()
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    t = sorted(patch.black)[0]
    bad = {v: Fraction(1) for v in patch.surface.triangles[t]}
    with pytest.raises(InconsistentBoundary):
        solver.solve_bw(dom, fc, bad)


def test_solve_bw_with_every_vertex_prescribed():
    """No unknowns left: the black system has rows and no columns."""
    patch = fixtures.hex_patch(1)
    dom = patch.domain()
    fc = mesh.bw_face_coloring(dom)
    free = solver.determining_vertex_set(dom, fc)
    full = solver.solve_bw(dom, fc, {v: Fraction(v + 1, 3) for v in free}).values
    res = solver.solve_bw(dom, fc, full)
    assert res.unique and res.nullspace == [] and res.values == full
    bad = dict(full)
    bad[free[0]] += 1
    with pytest.raises(InconsistentBoundary):
        solver.solve_bw(dom, fc, bad)


def test_solve_bw_rejects_values_outside_domain():
    patch = fixtures.hex_patch(3)
    star = patch.surface.vertex_triangles[patch.vertex_of[(0, 0)]]
    dom = mesh.SubComplexDomain(patch.surface, frozenset(star))
    fc = mesh.bw_face_coloring(dom)
    outside = sorted(set(range(patch.surface.num_vertices)) - set(dom.vertices))[:2]
    with pytest.raises(ValueError, match=re.escape(f"outside the domain: {outside}")):
        solver.solve_bw(dom, fc, {v: Fraction(5) for v in outside})


def test_solve_bw_nontrivial_holonomy(torus4):
    col = mesh.bw_face_coloring(torus4.surface)
    with pytest.raises(NonTrivialHolonomy):
        solver.solve_bw(mesh.whole_domain(torus4.surface), col, {})


def test_determining_set_makes_unique():
    patch = fixtures.hex_patch(2)
    dom = patch.domain()
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    free = solver.determining_vertex_set(dom, fc)
    rng = random.Random(9)
    res = solver.solve_bw(dom, fc, {v: rand_frac(rng) for v in free})
    assert res.unique


def random_patch_solution(patch, rng):
    """Black-triangle solution on a hex patch, seeded from trefoil data."""
    pts = patch.point_of
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    w = lattice.Window(min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1)
    h = lattice.random_holomorphic(w, rng)
    return {patch.vertex_of[p]: h[p] for p in pts}


def lattice_colorings(patch):
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    vc = mesh.Coloring(vertex_colors=fixtures.lattice_vertex_coloring(patch))
    return fc, vc


def test_max_principle_point_hull():
    patch = fixtures.hex_patch(2)
    fc, vc = lattice_colorings(patch)
    colors = vc.vertex_colors
    cvals = (Fraction(1), Fraction(2), Fraction(-3))
    psi = {v: cvals[colors[v]] for v in range(patch.surface.num_vertices)}
    rep = solver.max_principle_check(patch.domain(), psi, fc, vc)
    assert rep.point_hull and rep.ok


def test_max_principle_random_solutions():
    rng = random.Random(21)
    for radius in (3, 4, 5):
        patch = fixtures.hex_patch(radius)
        fc, vc = lattice_colorings(patch)
        for _ in range(5):
            psi = random_patch_solution(patch, rng)
            rep = solver.max_principle_check(patch.domain(), psi, fc, vc)
            assert rep.ok, (radius, rep)
            assert rep.checked_internal > 0


def test_max_principle_not_a_solution():
    patch = fixtures.hex_patch(2)
    fc, vc = lattice_colorings(patch)
    psi = {v: Fraction(v) for v in range(patch.surface.num_vertices)}
    with pytest.raises(NotASolution):
        solver.max_principle_check(patch.domain(), psi, fc, vc)


def test_max_principle_closed_surface(octa):
    # closed surface with trivial holonomy: only covariant constants solve,
    # and the checker reports a point hull
    conn = C.canonical_connection(octa)
    cov = solver.covariant_constants(conn)
    psi = {v: cov.basis[0][v] + 2 * cov.basis[1][v] for v in range(6)}
    dom = mesh.whole_domain(octa)
    rep = solver.max_principle_check(dom, psi, mesh.bw_face_coloring(dom),
                                     mesh.three_vertex_coloring(dom))
    assert rep.point_hull and rep.ok


# --- the integer maximum-principle check against the Fraction one --------------
#
# `ref_max_principle_check` and its helpers are the former implementation,
# verbatim except for their names: hat map, hull and betweenness on Fractions.

def ref_hat_map(domain, psi: dict, face_coloring: Coloring, vertex_coloring: Coloring) -> dict:
    """psi-hat: black triangle -> (psi_a, psi_b) in the covariant plane."""
    dom = as_domain(domain)
    surf = dom.surface
    vc = vertex_coloring.vertex_colors
    out = {}
    for t in sorted(dom.tris):
        if face_coloring.face_colors[t] != BLACK:
            continue
        by_color = {vc[v]: psi[v] for v in surf.triangles[t]}
        out[t] = (by_color[0], by_color[1])
    return out


def ref_max_principle_check(domain, psi: dict,
                            face_coloring: Coloring | None = None,
                            vertex_coloring: Coloring | None = None) -> MaxPrincipleReport:
    """Check that psi-hat lands in the convex hull of the boundary images.

    psi must solve every black triangle equation of the domain
    (NotASolution otherwise).  Reports hull corners not realized by
    boundary triangles, containment failures, and internal triangles whose
    image is not between a neighbor pair on one of the three coordinate
    lines.
    """
    dom = as_domain(domain)
    surf = dom.surface
    if face_coloring is None:
        face_coloring = bw_face_coloring(dom)
        if face_coloring is None:
            raise NonTrivialHolonomy("domain admits no b/w coloring")
    if vertex_coloring is None:
        vertex_coloring = three_vertex_coloring(dom)
        if vertex_coloring is None:
            raise NonTrivialHolonomy("domain admits no tri-coloring")
    psi = {v: frac(x) for v, x in psi.items()}
    blacks = sorted(t for t in dom.tris if face_coloring.face_colors[t] == BLACK)
    for t in blacks:
        if sum(psi[v] for v in surf.triangles[t]) != 0:
            raise NotASolution(f"black triangle {t} sum is nonzero")

    images = ref_hat_map(dom, psi, face_coloring, vertex_coloring)
    pts = list(images.values())
    point_hull = len(set(pts)) == 1

    lower = dom.lower_boundary()
    boundary_pts = {images[t] for t in blacks if t in lower}
    corners = ref_convex_hull(pts)
    if dom.tris == frozenset(range(surf.num_triangles)) and surf.is_closed:
        # closed surface: no boundary; only covariant constants may pass
        corner_violations = [] if point_hull else list(corners)
        return MaxPrincipleReport(point_hull, corners, corner_violations, [], [], 0)

    corner_violations = [c for c in corners if c not in boundary_pts]
    hull_b = ref_convex_hull(sorted(boundary_pts))
    containment_violations = [t for t in blacks if not ref_point_in_hull(images[t], hull_b)]

    betweenness_failures = []
    checked = 0
    vc = vertex_coloring.vertex_colors
    for t in blacks:
        if t in lower:
            continue
        pairs = []
        degenerate = False
        for v in surf.triangles[t]:
            mates = [o for o in surf.vertex_triangles[v]
                     if o != t and o in dom.tris and face_coloring.face_colors[o] == BLACK]
            if len(mates) != 2:
                degenerate = True
                break
            pairs.append((vc[v], mates))
        if degenerate:
            continue
        checked += 1
        if not any(ref_between_on_line(images, t, mates, color)
                   for color, mates in pairs):
            betweenness_failures.append(t)
    return MaxPrincipleReport(point_hull, corners, corner_violations,
                              containment_violations, betweenness_failures, checked)


def ref_between_on_line(images, t, mates, color) -> bool:
    """Image of t between the two mate images along the psi_color = const line."""
    p = images[t]
    q1, q2 = images[mates[0]], images[mates[1]]

    def coord(pt, c):
        if c == 0:
            return pt[0]
        if c == 1:
            return pt[1]
        return -pt[0] - pt[1]

    if coord(q1, color) != coord(p, color) or coord(q2, color) != coord(p, color):
        return False
    free = 1 if color == 0 else 0
    a, b, x = coord(q1, free), coord(q2, free), coord(p, free)
    return min(a, b) <= x <= max(a, b)


def ref_cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def ref_convex_hull(points) -> list:
    """Andrew monotone chain over exact rational points; collinear hull
    points are dropped so the result lists the polygon's corners in CCW
    order (degenerate inputs give 1 or 2 points)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and ref_cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and ref_cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


def ref_point_in_hull(p, hull) -> bool:
    """Closed containment test against a CCW hull (exact)."""
    if not hull:
        return False
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        if ref_cross(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        if ref_cross(a, b, p) < 0:
            return False
    return True


def same_max_principle(*args):
    """Both checks give equal reports (corners as Fraction pairs) or raise
    the same error."""
    try:
        want = ref_max_principle_check(*args)
    except (NotASolution, NonTrivialHolonomy) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            solver.max_principle_check(*args)
        return None
    got = solver.max_principle_check(*args)
    assert got == want
    assert all(type(x) is Fraction for c in got.hull_corners + got.corner_violations
               for x in c)
    return got


def random_bw_solution(dom, fc, rng, den):
    """solve_bw with random values over denominators `den()` on a
    determining set."""
    free = solver.determining_vertex_set(dom, fc)
    return solver.solve_bw(dom, fc, {v: Fraction(rng.randint(-99, 99), den())
                                     for v in free}).values


def grown_domain(surf, rng):
    """An edge-connected triangle set grown from a random triangle."""
    tris = {rng.randrange(surf.num_triangles)}
    for _ in range(rng.randint(1, surf.num_triangles)):
        tris.add(rng.choice(surf.dual_neighbours(rng.choice(sorted(tris)))))
    return mesh.SubComplexDomain(surf, frozenset(tris))


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_max_principle_equals_fraction_hull(radius):
    rng = random.Random(radius)
    surf = fixtures.hex_patch(radius).surface
    dens = (lambda: rng.randint(1, 12), lambda: 2 ** 61 - 1)
    domains = [mesh.whole_domain(surf)] + [grown_domain(surf, rng) for _ in range(6)]
    outcomes = set()
    for dom in domains:
        fc = mesh.bw_face_coloring(dom)
        vc = mesh.three_vertex_coloring(dom)
        for den in dens:
            psi = random_bw_solution(dom, fc, rng, den)
            rep = same_max_principle(dom, psi, fc, vc)
            outcomes.add((rep.point_hull, rep.checked_internal > 0))
            # values given as str and int, and values off the domain
            mixed = {v: str(x) if v % 2 else x for v, x in psi.items()}
            mixed.update({v: Fraction(1, 2 ** 61 - 1) for v in range(surf.num_vertices)
                          if v not in psi})
            assert same_max_principle(dom, mixed, fc, vc) == rep
        # a covariant constant, and a function that is not a solution
        same_max_principle(dom, {v: (5, Fraction(-7, 3), Fraction(-8, 3))[c]
                                 for v, c in vc.vertex_colors.items()}, fc, vc)
        same_max_principle(dom, {v: Fraction(v, 7) for v in dom.vertices}, fc, vc)
    assert (False, True) in outcomes


def test_max_principle_off_the_lattice_checks_no_internal_triangle():
    # every black triangle of a subdivision has a midpoint vertex of valence
    # 4, so one black mate there: the local check, which needs two mates at
    # each vertex, skips all 42 internal black triangles
    surf = fixtures.barycentric(fixtures.hex_patch(2).surface)
    dom = mesh.whole_domain(surf)
    fc, vc = mesh.bw_face_coloring(dom), mesh.three_vertex_coloring(dom)
    lower = dom.lower_boundary()
    assert sum(fc.face_colors[t] == mesh.BLACK and t not in lower for t in dom.tris) == 42
    rng = random.Random(26)
    for _ in range(3):
        psi = random_bw_solution(dom, fc, rng, lambda: rng.randint(1, 4))
        rep = same_max_principle(dom, psi, fc, vc)  # equal to the oracle's report
        assert rep.ok and not rep.containment_violations
        assert rep.checked_internal == 0


def test_max_principle_closed_surfaces_equal_fraction_hull(octa):
    rng = random.Random(3)
    conn = C.canonical_connection(octa)
    cov = solver.covariant_constants(conn).basis
    psi = {v: Fraction(2, 3) * cov[0][v] - Fraction(1, 2 ** 61 - 1) * cov[1][v]
           for v in range(6)}
    dom = mesh.whole_domain(octa)
    fc, vc = mesh.bw_face_coloring(dom), mesh.three_vertex_coloring(dom)
    assert same_max_principle(dom, psi, fc, vc).point_hull
    # a closed torus with a third of its black triangles marked black: no
    # boundary, so every corner of a hull wider than a point is reported
    surf = fixtures.torus_lattice(6).surface
    dom = mesh.whole_domain(surf)
    fc = mesh.Coloring(face_colors={t: mesh.BLACK if t % 6 == 1 else mesh.WHITE
                                    for t in range(surf.num_triangles)})
    vc = mesh.three_vertex_coloring(dom)
    null = solver.solve_bw(dom, fc, {}).nullspace
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in null]
    psi = {v: sum(c * n[v] for c, n in zip(coeffs, null)) for v in range(surf.num_vertices)}
    rep = same_max_principle(dom, psi, fc, vc)
    assert not rep.point_hull and rep.corner_violations == rep.hull_corners


@pytest.mark.parametrize("radius", [3, 4])
def test_max_principle_betweenness_failures_equal_fraction_hull(radius):
    # random black markings of a hex patch, which are not the lattice's: its
    # reports carry betweenness failures (and containment violations)
    surf = fixtures.hex_patch(radius).surface
    dom = mesh.whole_domain(surf)
    vc = mesh.three_vertex_coloring(dom)
    failing = 0
    for seed in range(100):
        rng = random.Random(seed)
        fc = mesh.Coloring(face_colors={t: rng.choice((mesh.BLACK, mesh.WHITE))
                                        for t in range(surf.num_triangles)})
        try:
            psi = random_bw_solution(dom, fc, rng, lambda: rng.randint(1, 4))
        except TriholoError:
            continue
        failing += bool(same_max_principle(dom, psi, fc, vc).betweenness_failures)
    assert failing > 0


def test_convex_hull_exact():
    pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
           (Fraction(1), Fraction(0)), (Fraction(1), Fraction(3)),
           (Fraction(1), Fraction(1))]
    hull = solver.convex_hull(pts)
    assert set(hull) == {(0, 0), (2, 0), (1, 3)}
    assert solver.point_in_hull((Fraction(1), Fraction(1)), hull)
    assert solver.point_in_hull((Fraction(1), Fraction(0)), hull)  # on edge
    assert not solver.point_in_hull((Fraction(3), Fraction(0)), hull)


@pytest.mark.parametrize("line", ["horizontal", "vertical", "diagonal"])
@pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["int", "Fraction"])
def test_convex_hull_of_collinear_points_keeps_the_two_extremes(line, scale):
    """Collinear input, repeats included: the lower and upper chains each
    run from one extreme to the other, so the hull is those two points."""
    step = {"horizontal": (1, 0), "vertical": (0, 1), "diagonal": (2, -3)}[line]
    rng = random.Random(11)
    for count in range(3, 12):
        ts = [rng.randint(-5, 5) for _ in range(count)]
        ts += ts[:2]   # repeated points
        pts = [(scale * (7 + t * step[0]), scale * (-4 + t * step[1])) for t in ts]
        assert all(type(x) is type(scale) for p in pts for x in p)
        hull = solver.convex_hull(pts)
        assert hull == ref_convex_hull(pts)
        want = sorted(set(pts))
        assert hull == (want if len(want) <= 2 else [want[0], want[-1]])
