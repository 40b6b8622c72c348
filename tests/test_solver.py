import random
import re
import time
from fractions import Fraction

import pytest

from conftest import rand_frac
from test_ratmat import dense_rref
from triholo import connection as C
from triholo import fixtures, lattice, mesh, ratmat, simplicial, solver
from triholo.errors import (
    InconsistentBoundary,
    NonTrivialHolonomy,
    NotASolution,
    OddValence,
)


def nullspace_oracle(conn):
    """Independent: sympy null space of the full Q matrix."""
    import sympy

    surf = conn.surface
    q = ratmat.dense(simplicial.q_matrix(surf.triangles, range(surf.num_triangles), conn.b),
                     surf.num_vertices)
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in q])
    return [[Fraction(str(v)) for v in vec] for vec in m.nullspace()]


def test_covariant_constants_octahedron(octa):
    conn = C.canonical_connection(octa)
    space = solver.covariant_constants(conn)
    assert space.dimension == 2
    oracle = nullspace_oracle(conn)
    ours = [[psi[v] for v in range(6)] for psi in space.basis]
    assert ratmat.span_equal(ours, oracle)
    for psi in space.basis:
        for t in octa.triangles:
            assert sum(psi[v] for v in t) == 0


def test_covariant_dimensions(torus3, torus4, torus6):
    assert solver.covariant_constants(C.canonical_connection(torus3.surface)).dimension == 2
    assert solver.covariant_constants(C.canonical_connection(torus4.surface)).dimension == 0
    assert solver.covariant_constants(C.canonical_connection(torus6.surface)).dimension == 2


def test_L_assembly_and_identities(octa, torus4, torus6):
    conn = C.canonical_connection(octa)
    lmat = solver.assemble_L(conn)
    # diagonal n_P; the 3 n_P potential contributes 12, -2*Delta corrects by -8
    assert all(lmat[v][v] == 4 for v in range(6))
    assert all(solver.valence_potential(octa)[v][v] == 12 for v in range(6))
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
        mv = [[m[v] for v in range(surf.num_vertices)] for m in modes]
        cv = [[c[v] for v in range(surf.num_vertices)] for c in space.basis]
        assert ratmat.span_equal(mv, cv)
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
    monkeypatch.setattr(ratmat, "rref", dense_rref)
    for surf, modes in zip(surfaces, got):
        oracle = ratmat.nullspace(dense_L(C.canonical_connection(surf)))
        assert modes == [dict(enumerate(vec)) for vec in oracle]


def test_zero_modes_torus_18_within_budget():
    surf = fixtures.torus_lattice(18).surface
    conn = C.canonical_connection(surf)
    start = time.perf_counter()
    modes = solver.zero_modes(conn)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"zero_modes at V={surf.num_vertices} took {elapsed:.1f}s"
    assert len(modes) == 2
    for m in modes:
        assert all(m[a] + m[b] + m[c] == 0 for a, b, c in surf.triangles)
    cov = solver.covariant_constants(conn)
    nv = surf.num_vertices
    assert ratmat.span_equal([[m[v] for v in range(nv)] for m in modes],
                             [[c[v] for v in range(nv)] for c in cov.basis])


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
    monkeypatch.setattr(ratmat, "rref", dense_rref)
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
    nv = [[n.get(v, Fraction(0)) for v in range(6)] for n in res.nullspace]
    cv = [[c[v] for v in range(6)] for c in cov.basis]
    assert ratmat.span_equal(nv, cv)


def test_solve_bw_inconsistent():
    patch = fixtures.hex_patch(1)
    dom = patch.domain()
    fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                    for t in range(patch.surface.num_triangles)})
    t = sorted(patch.black)[0]
    bad = {v: Fraction(1) for v in patch.surface.triangles[t]}
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
    rep = solver.max_principle_check(mesh.whole_domain(octa), psi)
    assert rep.point_hull and rep.ok


def test_convex_hull_exact():
    pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
           (Fraction(1), Fraction(0)), (Fraction(1), Fraction(3)),
           (Fraction(1), Fraction(1))]
    hull = solver.convex_hull(pts)
    assert set(hull) == {(0, 0), (2, 0), (1, 3)}
    assert solver.point_in_hull((Fraction(1), Fraction(1)), hull)
    assert solver.point_in_hull((Fraction(1), Fraction(0)), hull)  # on edge
    assert not solver.point_in_hull((Fraction(3), Fraction(0)), hull)
