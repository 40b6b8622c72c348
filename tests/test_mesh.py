import pytest

from triholo import fixtures, mesh
from triholo.errors import DegenerateTriangle, NonManifoldEdge, NotALoop


def test_octahedron_counts(octa):
    assert octa.num_vertices == 6
    assert octa.num_edges == 12
    assert octa.num_triangles == 8
    assert octa.euler_characteristic() == 2
    assert octa.is_closed
    assert all(octa.valence(v) == 4 for v in range(6))


def test_single_triangle_boundary():
    surf = fixtures.single_triangle()
    assert not surf.is_closed
    assert len(surf.boundary_edges) == 3
    assert surf.euler_characteristic() == 1


def test_nonmanifold_edge_rejected():
    with pytest.raises(NonManifoldEdge):
        mesh.build_surface([(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_degenerate_triples_rejected():
    with pytest.raises(DegenerateTriangle):
        mesh.build_surface([(0, 1, 1)])
    with pytest.raises(DegenerateTriangle):
        mesh.build_surface([(0, 1, 2), (2, 1, 0)])
    with pytest.raises(DegenerateTriangle):
        mesh.build_surface([(0, 1, 3)])  # vertex 2 missing: indices not dense


def test_star_contract(octa, torus3):
    # T_i = <P, P_i, P_{i+1}> around every interior vertex
    for surf in (octa, torus3.surface):
        for v in range(surf.num_vertices):
            star = surf.stars[v]
            assert star.closed
            n = star.valence
            for i, t in enumerate(star.triangles):
                expect = {v, star.rim[i], star.rim[(i + 1) % n]}
                assert set(surf.triangles[t]) == expect


def test_boundary_star_is_path():
    patch = fixtures.hex_patch(2)
    surf = patch.surface
    rim_vertices = [v for v in range(surf.num_vertices) if not surf.stars[v].closed]
    assert rim_vertices
    for v in rim_vertices:
        star = surf.stars[v]
        assert len(star.rim) == star.valence + 1
        for i, t in enumerate(star.triangles):
            assert set(surf.triangles[t]) == {v, star.rim[i], star.rim[i + 1]}


def test_torus_quotients():
    with pytest.raises(Exception):
        fixtures.torus_lattice(2)
    t3 = fixtures.torus_lattice(3)
    assert t3.surface.euler_characteristic() == 0
    assert all(t3.surface.valence(v) == 6 for v in range(9))


def test_bw_coloring_octahedron(octa):
    col = mesh.bw_face_coloring(octa)
    assert col is not None
    blacks = col.black_triangles()
    assert len(blacks) == 4  # 4/4 split
    for e, ts in octa.edge_triangles.items():
        assert col.face_colors[ts[0]] != col.face_colors[ts[1]]


def test_coloring_without_face_colours_raises(octa):
    vertex_only = mesh.three_vertex_coloring(octa)
    for read in (vertex_only.black_triangles, vertex_only.white_triangles):
        with pytest.raises(ValueError, match="no face colours"):
            read()


def test_bw_matches_bipartite_oracle(octa, ico, torus4):
    import networkx as nx

    for surf, name in ((octa, "octa"), (ico, "ico"), (torus4.surface, "torus4")):
        g = nx.Graph()
        g.add_nodes_from(range(surf.num_triangles))
        for ts in surf.edge_triangles.values():
            if len(ts) == 2:
                g.add_edge(*ts)
        expect = nx.is_bipartite(g)
        assert (mesh.bw_face_coloring(surf) is not None) == expect, name
    assert mesh.bw_face_coloring(ico) is None


def test_bw_torus_matches_lattice_classes(torus4):
    # the b/w classes are exactly the lattice up/down triangle families
    col = mesh.bw_face_coloring(torus4.surface)
    assert col is not None
    blacks = col.black_triangles()
    assert blacks in (torus4.black, torus4.white)


def test_three_coloring_octahedron(octa):
    col = mesh.three_vertex_coloring(octa)
    assert col is not None
    vc = col.vertex_colors
    for t in octa.triangles:
        assert len({vc[v] for v in t}) == 3
    # antipodal pairs (0,1), (2,3), (4,5) share a color
    assert vc[0] == vc[1] and vc[2] == vc[3] and vc[4] == vc[5]


def test_three_coloring_torus_mod3(torus3, torus4):
    col = mesh.three_vertex_coloring(torus3.surface)
    assert col is not None
    # matches (n1 - n2) mod 3 up to a relabeling of the colors
    natural = fixtures.lattice_vertex_coloring(torus3)
    relabel = {}
    for v, c in col.vertex_colors.items():
        relabel.setdefault(natural[v], c)
    assert all(col.vertex_colors[v] == relabel[natural[v]] for v in range(9))
    assert mesh.three_vertex_coloring(torus4.surface) is None


def test_three_coloring_offset_walk_oracle(torus4):
    # walking a meridian shifts the color residue by N mod 3 != 0
    n = 4
    assert n % 3 != 0  # the obstruction the coloring propagation must meet


def test_three_coloring_even_patches_succeed():
    for r in (1, 2, 3):
        patch = fixtures.hex_patch(r)
        assert mesh.three_vertex_coloring(patch.surface) is not None


def test_three_coloring_edge_disconnected_domain_raises():
    # a domain pinched at a vertex, and two triangles with nothing shared
    surf = fixtures.hex_patch(3).surface
    pinched = mesh.SubComplexDomain(surf, frozenset({0, 1}))
    apart = mesh.build_surface([(0, 1, 2), (3, 4, 5)])
    for arg in (pinched, apart):
        with pytest.raises(ValueError, match="dual graph is not connected"):
            mesh.three_vertex_coloring(arg)


def test_homomorphism_signs(octa, ico, torus4):
    from triholo.connection import generator_loops

    for loop in generator_loops(octa):
        rho2, _ = mesh.homomorphism_signs(octa, loop)
        assert rho2 == 1  # orientable
    # star loop around a valence-6 lattice vertex: even count
    sl = mesh.star_loop(torus4.surface, 0)
    assert mesh.homomorphism_signs(torus4.surface, sl) == (1, 1)
    # icosahedron vertex star: 5 triangles, odd
    sl5 = mesh.star_loop(ico, 0)
    _, rho3 = mesh.homomorphism_signs(ico, sl5)
    assert rho3 == -1


def test_thick_path_validation(octa):
    with pytest.raises(ValueError):
        mesh.ThickPath(octa, (0, 5))  # not edge-adjacent
    with pytest.raises(NotALoop):
        mesh.ThickPath(octa, (0,), closed=True)
    p = mesh.ThickPath(octa, (0, 1), closed=True)
    assert len(p.shared_edges) == 2
    with pytest.raises(NotALoop):
        mesh.homomorphism_signs(octa, mesh.ThickPath(octa, (0, 1)))


def test_domain_boundaries():
    patch = fixtures.hex_patch(2)
    dom = patch.domain()
    assert dom.boundary_edges()
    lower = dom.lower_boundary()
    assert lower < dom.tris


def test_orientation_sign_invariance(octa):
    # flipping a stored orientation flips both incident step signs
    tris = [list(t) for t in octa.triangles]
    tris[3] = [tris[3][0], tris[3][2], tris[3][1]]
    flipped = mesh.build_surface([tuple(t) for t in tris])
    from triholo.connection import generator_loops

    for lp in generator_loops(octa):
        lp2 = mesh.ThickPath(flipped, lp.triangles, closed=True)
        assert (mesh.homomorphism_signs(octa, lp)
                == mesh.homomorphism_signs(flipped, lp2))


def test_loop_identities_on_random_quotients():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from triholo.connection import canonical_connection, generator_loops, rho1_of_loop

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=5))
    def inner(n, shear):
        ls = fixtures.torus_lattice(n, shear % n)
        surf = ls.surface
        conn = canonical_connection(surf)
        for lp in generator_loops(surf)[:4]:
            rho2, rho3 = mesh.homomorphism_signs(surf, lp)
            assert rho2 == 1  # orientable quotient
            assert rho1_of_loop(conn, lp) * rho2 == rho3

    inner()


def test_broken_star_rejected():
    from triholo.errors import BrokenStar

    # two fans meeting only at vertex 0: the star is not a single fan
    with pytest.raises(BrokenStar):
        mesh.build_surface([(0, 1, 2), (0, 3, 4)])


def test_dual_tree_bfs_order_and_cotree(torus4):
    surf = torus4.surface
    parent, order, cotree = mesh.dual_tree(surf.dual_neighbours, surf.num_triangles)
    depth = {t: len(mesh.tree_walk(parent, t)) for t in order}
    assert order == sorted(parent, key=depth.get)
    assert len(cotree) == surf.num_edges - surf.num_triangles + 1
    for walk in mesh.cotree_walks(parent, cotree):
        assert walk[0] == walk[-1] == 0
    with pytest.raises(ValueError):
        mesh.dual_tree(lambda t: [], 2)


def test_vertex_triangles_sorted_incidence(torus4):
    surf = torus4.surface
    for v, ts in enumerate(surf.vertex_triangles):
        assert ts == tuple(i for i, t in enumerate(surf.triangles) if v in t)


def test_no_two_black_triangles_share_two_vertices():
    """Two triangles on two common vertices share an edge, so a face
    2-colouring gives them different colours: no black triangle appears
    twice in the vertex ring of another."""
    surfaces = ([fixtures.torus_lattice(n, s).surface for n in range(3, 10) for s in range(n)]
                + [fixtures.hex_patch(r).surface for r in range(1, 6)] + [fixtures.octahedron()])
    assert len(surfaces) == 48
    for surf in surfaces:
        blacks = mesh.bw_face_coloring(surf).black_triangles()
        for t in blacks:
            for o in blacks - {t}:
                assert len(set(surf.triangles[t]) & set(surf.triangles[o])) < 2


def test_empty_domain_has_an_empty_vertex_coloring(octa):
    col = mesh.three_vertex_coloring(mesh.SubComplexDomain(octa, frozenset()))
    assert col.vertex_colors == {}


def test_open_path_reversed(octa):
    path = mesh.ThickPath(octa, (0, 1, 2))
    back = path.reversed()
    assert (back.triangles, back.closed) == ((2, 1, 0), False)
    assert back.shared_edges == path.shared_edges[::-1]
