import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from conftest import pinched_torus
from test_holonomy_sweep import cross_polytope_3
from test_ratmat import reference_rref, sparse
from test_solver import KERNEL_SURFACES
from triholo import cli
from triholo import connection as C
from triholo import fixtures, mesh, ratmat, simplicial as SK, solver
from triholo.errors import LocalHolonomyNontrivial, NotAManifold


def test_cycle_graphs():
    c6 = SK.cycle_graph(6)
    h6 = SK.classify_holonomy_k(c6)
    assert (h6.orbit_count, h6.covariant_dimension) == (2, 1)
    basis = SK.covariant_constants_k(c6)
    assert len(basis) == 1
    psi = basis[0]
    assert all(psi[i] == -psi[(i + 1) % 6] for i in range(6))  # alternating
    c5 = SK.cycle_graph(5)
    h5 = SK.classify_holonomy_k(c5)
    assert (h5.orbit_count, h5.covariant_dimension) == (1, 0)
    assert len(h5.group) == 2  # color swap generator


def test_k1_kernel_dimensions():
    assert len(SK.zero_modes_k(SK.cycle_graph(6))) == 1
    assert len(SK.zero_modes_k(SK.cycle_graph(5))) == 0


def test_k1_always_local_ok():
    assert SK.canonical_local_holonomy_ok(SK.cycle_graph(5))
    path = SK.SimplicialComplexK([(0, 1), (1, 2), (2, 3)])
    assert SK.canonical_local_holonomy_ok(path)


def test_k1_bipartite_iff_kernel_random_graphs():
    import networkx as nx

    rng = random.Random(41)
    done = 0
    while done < 20:
        n = rng.randint(4, 9)
        g = nx.gnm_random_graph(n, rng.randint(n - 1, 2 * n),
                                seed=rng.randint(0, 10 ** 6))
        if not nx.is_connected(g) or g.number_of_edges() == 0:
            continue
        relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
        x = SK.SimplicialComplexK([(relabel[u], relabel[v]) for u, v in g.edges])
        kernel = SK.zero_modes_k(x)
        assert (len(kernel) > 0) == nx.is_bipartite(g)
        done += 1


def test_zero_modes_k_identical_to_dense_L(monkeypatch):
    xs = [SK.cycle_graph(n) for n in range(4, 10)]
    xs += [SK.SimplicialComplexK(fixtures.torus_lattice(n, s).surface.triangles)
           for n in range(3, 7) for s in range(n)]
    got = [SK.zero_modes_k(x) for x in xs]
    monkeypatch.setattr(ratmat, "rref", reference_rref)
    for x, modes in zip(xs, got):
        lk = [[Fraction(0)] * x.num_vertices for _ in range(x.num_vertices)]
        for simplex in x.simplices:
            for u in simplex:
                for v in simplex:
                    lk[u][v] += 1
        assert modes == [dict(enumerate(vec)) for vec in ratmat.nullspace(sparse(lk),
                                                                          x.num_vertices)]


def elimination_zero_modes_k(x):
    """The former `zero_modes_k`: `ratmat.nullspace` of the dense matrix Q."""
    q = SK.q_matrix(x.simplices, range(x.num_simplices))
    return [dict(enumerate(vec)) for vec in ratmat.nullspace(q, x.num_vertices)]


def kernel_complexes():
    """The surfaces of the `zero_modes` oracle as 2-complexes, graphs, two
    closed 3-manifolds, and complexes that are not manifolds: a facet in
    three simplices, a vertex whose simplices share no facet through it
    (the strip (0,1,2), (1,2,3), (2,3,4), (3,4,0)), and a path."""
    out = {tag: SK.SimplicialComplexK(surf.triangles) for tag, surf in KERNEL_SURFACES.items()}
    out.update((f"cycle{n}", SK.cycle_graph(n)) for n in range(3, 10))
    out["bd4simplex"] = SK.boundary_of_4_simplex()
    out["cross16"] = cross_polytope_3()
    out["book"] = SK.SimplicialComplexK([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    out["pinched"] = SK.SimplicialComplexK([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0)])
    out["path"] = SK.SimplicialComplexK([(0, 1), (1, 2), (2, 3)])
    out["two_tets"] = SK.SimplicialComplexK([(0, 1, 2, 3), (0, 1, 2, 4)])
    return out


KERNEL_COMPLEXES = kernel_complexes()


@pytest.mark.parametrize("tag", sorted(KERNEL_COMPLEXES))
def test_zero_modes_k_equal_elimination(tag, monkeypatch):
    x = KERNEL_COMPLEXES[tag]
    want = elimination_zero_modes_k(x)

    def no_elimination(*args):
        raise AssertionError("zero_modes_k eliminated")

    reduce = ratmat._reduce

    def class_vectors_only(rows, order):  # at most k class vectors, never the rows of Q
        assert len(rows) <= x.k
        return reduce(rows, order)

    monkeypatch.setattr(ratmat, "rref", no_elimination)
    monkeypatch.setattr(ratmat, "_reduce", class_vectors_only)
    got = SK.zero_modes_k(x)
    monkeypatch.undo()
    assert got == want
    assert [list(m) for m in got] == [list(m) for m in want]
    assert all(type(v) is Fraction for m in got for v in m.values())
    if tag == "pinched":  # the vertex 0 ties slots no cotree permutation moves
        assert len(got) == 1 and SK.label_sweep(x.simplices, x.adjacency().__getitem__,
                                                x.num_simplices)[1] == ()


def test_zero_modes_k_need_a_facet_connected_complex():
    with pytest.raises(ValueError, match="dual graph is not connected"):
        SK.zero_modes_k(SK.SimplicialComplexK([(0, 1, 2), (2, 3, 4)]))


def test_covariant_constants_k_failing_basis_is_a_typed_error(monkeypatch):
    x = SK.cycle_graph(6)
    classes, hol = SK.vertex_orbit_classes(x)
    classes[0] = 1 - classes[0]
    monkeypatch.setattr(SK, "vertex_orbit_classes", lambda _: (classes, hol))
    with pytest.raises(LocalHolonomyNontrivial, match="fails simplex"):
        SK.covariant_constants_k(x)


def test_k2_octahedron_matches_surface_modules(octa):
    x = SK.SimplicialComplexK(octa.triangles)
    assert SK.canonical_local_holonomy_ok(x)
    hol = SK.classify_holonomy_k(x)
    assert (hol.orbit_count, hol.covariant_dimension) == (3, 2)
    surface_dim = solver.covariant_constants(C.canonical_connection(octa)).dimension
    assert hol.covariant_dimension == surface_dim
    # L_k is exactly the surface L = Q+Q
    assert SK.assemble_Lk(x) == solver.assemble_L(C.canonical_connection(octa))
    # covariant constants agree as subspaces
    kb = SK.covariant_constants_k(x)
    sb = solver.covariant_constants(C.canonical_connection(octa)).basis
    assert ratmat.span_equal(kb, sb, 6)


def test_k2_torus_matches_surface(torus4, torus3):
    for ls, dim in ((torus4, 0), (torus3, 2)):
        x = SK.SimplicialComplexK(ls.surface.triangles)
        hol = SK.classify_holonomy_k(x)
        assert hol.covariant_dimension == dim
        assert len(SK.zero_modes_k(x)) == dim


def test_octahedron_factorization_doubled(octa):
    x = SK.SimplicialComplexK(octa.triangles)
    rep = SK.bw_factorization_check(x)
    assert rep.bw_exists
    assert rep.kernel_dimension == 2
    assert rep.kernel_matches_covariants
    assert rep.factorization_holds


@pytest.mark.parametrize("triangles", [
    fixtures.hex_patch(1).surface.triangles,
    fixtures.hex_patch(2).surface.triangles,
    [(0, 1, 2), (1, 2, 3)],
], ids=["hex1", "hex2", "two-triangles"])
def test_factorization_fails_on_a_coloured_disc(triangles):
    # a boundary vertex lies in more triangles of one colour than of the
    # other, so the two halves differ on the diagonal
    rep = SK.bw_factorization_check(SK.SimplicialComplexK(triangles))
    assert rep.bw_exists is True
    assert rep.factorization_holds is False


def test_k1_factorization_note():
    rep = SK.bw_factorization_check(SK.cycle_graph(6))
    assert rep.bw_exists
    assert rep.factorization_holds is None
    assert "k=1" in rep.note
    # the undoubled split L = Qb+Qb + Qw+Qw does hold
    x = SK.cycle_graph(6)
    colors = SK.bw_simplex_coloring(x)
    q = SK.q_matrix(x.simplices, range(6))
    halves = [(1, ratmat.gram([q[i] for i in range(6) if colors[i] == want], 6))
              for want in (0, 1)]
    assert ratmat.combine(*halves) == SK.assemble_Lk(x)


def test_boundary_4_simplex_rejected():
    bd = SK.boundary_of_4_simplex()
    assert bd.k == 3
    assert sorted(set(bd.corner_valences().values())) == [3]
    assert not SK.canonical_local_holonomy_ok(bd)
    with pytest.raises(LocalHolonomyNontrivial):
        SK.classify_holonomy_k(bd)


def test_non_manifold_rejected():
    x = SK.SimplicialComplexK([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(NotAManifold):
        SK.canonical_local_holonomy_ok(x)


def test_pinched_vertex_rejected():
    x = pinched_torus(4)
    assert SK.canonical_local_holonomy_ok(x)  # facets and valences cannot see it
    for fn in (SK.vertex_orbit_classes, SK.classify_holonomy_k, SK.covariant_constants_k):
        with pytest.raises(NotAManifold, match="the star of vertex 0 is pinched"):
            fn(x)
    assert len(SK.zero_modes_k(x)) == 1
    rep = SK.bw_factorization_check(x)
    assert (rep.kernel_dimension, rep.kernel_matches_covariants) == (1, None)


def test_pinch_within_one_orbit_changes_no_number():
    x = pinched_torus(3)
    hol = SK.classify_holonomy_k(x)
    assert (hol.orbit_count, hol.covariant_dimension) == (3, 2)
    rep = SK.bw_factorization_check(x)
    assert (rep.kernel_dimension, rep.kernel_matches_covariants) == (2, True)


def rho_signs_k(x, path) -> tuple[int, int]:
    """(rho1, rho3) along a closed k-thick path: permutation parity of the
    label transport and the simplex-count parity."""
    sigma = SK.slot_permutation(x.simplices, mesh.dedup(list(path) + [path[0]]))
    return SK.perm_sign(sigma), -1 if len(path) % 2 else 1


def test_rho_identities_on_k_thick_loops(octa, torus4):
    for surf in (octa, torus4.surface):
        x = SK.SimplicialComplexK(surf.triangles)
        conn = C.canonical_connection(surf)
        for lp in C.generator_loops(surf)[:6]:
            rho1k, rho3k = rho_signs_k(x, list(lp.triangles))
            rho2, rho3 = mesh.homomorphism_signs(surf, lp)
            assert rho3k == rho3
            assert rho1k * rho2 == rho3
            assert rho1k == C.rho1_of_loop(conn, lp)


def test_tetrahedron_solid_k3():
    # two tetrahedra glued on a face: every edge valence even? the shared
    # face's edges have valence 2, outer edges 1 -> boundary complex is
    # rejected in manifold mode
    x = SK.SimplicialComplexK([(0, 1, 2, 3), (0, 1, 2, 4)])
    with pytest.raises(NotAManifold):
        SK.canonical_local_holonomy_ok(x)


def test_ksimplicial_reads_the_orbits_once(monkeypatch, tmp_path):
    """`ksimplicial` makes one orbit read-out per run and reports the
    holonomy of that read-out; when the read-out raises, the command ends
    in its error (exit 1, JSON body)."""
    calls = []
    read_out = SK.vertex_orbit_classes

    def counted(x):
        calls.append(x)
        return read_out(x)

    monkeypatch.setattr(SK, "vertex_orbit_classes", counted)

    def ksimplicial(x):
        path = tmp_path / "x.cplx"
        path.write_text("".join("s " + " ".join(map(str, s)) + "\n" for s in x.simplices),
                        encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["ksimplicial", "--complex", str(path)])
        return rc, json.loads(out.getvalue())

    for x in (SK.cycle_graph(5), SK.cycle_graph(6), pinched_torus(3),
              SK.SimplicialComplexK(fixtures.torus_lattice(7).surface.triangles)):
        calls.clear()
        rc, body = ksimplicial(x)
        assert rc == 0 and len(calls) == 1
        hol = read_out(x)[1]
        assert (body["group_order"], body["orbit_count"], body["covariant_dimension"]) \
            == (len(hol.group), hol.orbit_count, hol.covariant_dimension)
    calls.clear()
    assert ksimplicial(pinched_torus(4)) == (1, {
        "error": "NotAManifold", "message": "the star of vertex 0 is pinched"})
    assert ksimplicial(SK.boundary_of_4_simplex())[1]["error"] == "LocalHolonomyNontrivial"
    assert len(calls) == 2
