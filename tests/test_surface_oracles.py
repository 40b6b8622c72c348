"""The slow paths behind the surface fast paths, kept as test oracles.

Each `oracle_` function is the code a fast path replaced, verbatim except
for its name, for taking its inputs as arguments, and for carrying its own
copy of a helper the library no longer has (the other triangle across an
edge, the scale * n_P diagonal):
- `oracle_stars`: the star walk that looked up a triangle's rim pair and
  the edge map at every step (`TriangulatedSurface` now reads each rim pair
  once into a local fan);
- `oracle_dual_neighbours`: the walk across the stored edges ab, bc, ac
  that takes the other triangle of each interior edge from the edge map
  (the dual graph is now stored at construction);
- `oracle_adjacency`: the facet-pair dual adjacency of a k-complex, built
  on every `adjacency()` call (now built once);
- `oracle_L_identity`: the `Fraction` check of the L identities with the
  half -Delta + (3/2) n_P (now compared doubled, in ints), on the 3 n_P
  and (3/2) n_P diagonals of `oracle_valence_diagonal`.

The fast paths must agree exactly, order included, on lattice tori, hex
patches, the Platonic fixtures, barycentric subdivisions and seeded random
sub-domains, and broken meshes must raise the same exception type and
message.
"""

import random
from fractions import Fraction

import pytest

from conftest import pinched_torus
from test_holonomy_sweep import three_torus
from triholo import connection as C
from triholo import fixtures, mesh, ratmat, solver
from triholo import simplicial as SK
from triholo.errors import BrokenStar, NonManifoldEdge, OddValence
from triholo.mesh import Star, _edge


# --- the oracles ----------------------------------------------------------------

def oracle_stars(triples) -> tuple:
    """Every vertex star of the surface on `triples`, walked step by step
    through the edge map, with the edge map's NonManifoldEdge check first."""
    triangles = [tuple(t) for t in triples]
    acc: dict = {}
    for idx, (a, b, c) in enumerate(triangles):
        for e in (_edge(a, b), _edge(b, c), _edge(a, c)):
            acc.setdefault(e, []).append(idx)
    for e, tris in acc.items():
        if len(tris) > 2:
            raise NonManifoldEdge(f"edge {e} lies in {len(tris)} triangles")
    spokes = {e: tuple(ts) for e, ts in acc.items()}
    incident: list = [[] for _ in range(1 + max(v for t in triangles for v in t))]
    for idx, t in enumerate(triangles):
        for v in t:
            incident[v].append(idx)
    return tuple(_oracle_star(triangles, spokes, tuple(incident[v]), v)
                 for v in range(len(incident)))


def _rim_pair(triangles, tri: int, center: int) -> tuple:
    """Rim vertices of `tri` seen from `center`, in stored orientation."""
    t = triangles[tri]
    i = t.index(center)
    return t[(i + 1) % 3], t[(i + 2) % 3]


def _oracle_star(triangles, spokes, incident, v) -> Star:
    if not incident:
        raise BrokenStar(f"vertex {v} has no incident triangle")
    rims = {r for ti in incident for r in _rim_pair(triangles, ti, v)}
    closed = len(rims) == len(incident)
    if closed:
        start = incident[0]
        first_rim = _rim_pair(triangles, start, v)[0]
    else:
        boundary_spokes = [r for r in rims if len(spokes[_edge(v, r)]) == 1]
        if len(boundary_spokes) != 2:
            raise BrokenStar(f"star of vertex {v} is not a single fan")
        ends = sorted(spokes[_edge(v, r)][0] for r in boundary_spokes)
        start = ends[0]
        pair = _rim_pair(triangles, start, v)
        first_rim = pair[0] if len(spokes[_edge(v, pair[0])]) == 1 else pair[1]
    order = [start]
    rim = [first_rim]
    cur, prev_rim = start, first_rim
    while True:
        pair = _rim_pair(triangles, cur, v)
        nxt_rim = pair[1] if pair[0] == prev_rim else pair[0]
        rim.append(nxt_rim)
        candidates = [t for t in spokes[_edge(v, nxt_rim)] if t != cur]
        if not candidates:
            break
        cur = candidates[0]
        if cur == start:
            break
        order.append(cur)
        prev_rim = nxt_rim
    if len(order) != len(incident):
        raise BrokenStar(f"star of vertex {v} is not a single fan")
    if closed:
        if rim[-1] != rim[0]:
            raise BrokenStar(f"star of vertex {v} does not close up")
        rim.pop()
    return Star(v, tuple(order), tuple(rim), closed)


def oracle_dual_neighbours(surf, t: int) -> list:
    a, b, c = surf.triangles[t]
    out = []
    for e in (_edge(a, b), _edge(b, c), _edge(a, c)):
        ts = surf.edge_triangles[e]
        if len(ts) == 2:
            out.append(ts[0] if ts[1] == t else ts[1])
    return out


def oracle_adjacency(x) -> dict:
    nbrs: dict = {i: set() for i in range(x.num_simplices)}
    for members in x.facet_simplices.values():
        for a in members:
            for b in members:
                if a != b:
                    nbrs[a].add(b)
    return {i: sorted(ns) for i, ns in nbrs.items()}


def oracle_valence_diagonal(surface, scale) -> list:
    """The diagonal scale * n_P as sparse rows."""
    return [{v: ratmat.frac(scale) * surface.valence(v)} for v in range(surface.num_vertices)]


def oracle_L_identity(surface) -> solver.LIdentityReport:
    if not surface.is_closed:
        raise ValueError("identity checks run on closed surfaces")
    for v in range(surface.num_vertices):
        if surface.valence(v) % 2:
            raise OddValence(f"vertex {v} has odd valence")
    conn = C.canonical_connection(surface)
    nv = surface.num_vertices
    delta = solver.graph_laplacian(surface)
    rhs = ratmat.combine((-2, delta), (1, oracle_valence_diagonal(surface, 3)))
    l_ok = solver.assemble_L(conn) == rhs

    coloring = mesh.bw_face_coloring(surface)
    if coloring is None:
        return solver.LIdentityReport(l_ok, False, None, None, None)
    half = ratmat.combine((-1, delta), (1, oracle_valence_diagonal(surface, Fraction(3, 2))))
    qb = SK.q_matrix(surface.triangles, sorted(coloring.black_triangles()))
    qw = SK.q_matrix(surface.triangles, sorted(coloring.white_triangles()))
    qb_ok = ratmat.gram(qb, nv) == half
    qw_ok = ratmat.gram(qw, nv) == half
    dual_ok = solver._dual_block_identity(surface, coloring)
    return solver.LIdentityReport(l_ok, True, qb_ok, qw_ok, dual_ok)


# --- inputs ---------------------------------------------------------------------

def colour_swapping_klein_bottle(k: int, m: int):
    """The lattice triangles on Z^2 / <g, t>, g: (x, y) -> (x + y + m, -y) a
    glide reflection that maps every 'w' triangle to a 'b' one and
    t: (x, y) -> (x + k, y - 2k).  Every valence is 6, but a thick loop
    from a triangle to its image under g is odd: no b/w colouring.

    In s = 2x + y the group is s -> s + 4m, y -> y + 2k and
    g: (s, y) -> (s + 2m, -y), so each point has one representative with
    0 <= s < 2m and 0 <= y < 2k."""
    def rep(x, y):
        s, d = (2 * x + y) % (4 * m), y % (2 * k)
        return (s, d) if s < 2 * m else (s - 2 * m, -d % (2 * k))

    r = 2 * (k + m)
    tris = {tuple(sorted(rep(*p) for p in tri))
            for i in range(-r, r) for j in range(-r, r)
            for tri in (((i, j), (i + 1, j), (i, j + 1)), ((i, j), (i - 1, j), (i, j - 1)))}
    ids = {p: n for n, p in enumerate(sorted({p for t in tris for p in t}))}
    return mesh.build_surface(sorted(tuple(ids[p] for p in t) for t in tris))


BARYCENTRIC_BASES = {
    "octa": fixtures.octahedron(),
    "ico": fixtures.icosahedron(),
    "torus4,1": fixtures.torus_lattice(4, 1).surface,
    "torus5,2": fixtures.torus_lattice(5, 2).surface,
    "hex2": fixtures.hex_patch(2).surface,
}

SURFACES = {
    **{f"torus{n},{s}": fixtures.torus_lattice(n, s).surface
       for n in range(3, 10) for s in range(n)},
    **{f"hex{r}": fixtures.hex_patch(r).surface for r in range(1, 6)},
    "octa": fixtures.octahedron(),
    "ico": fixtures.icosahedron(),
    "swap-klein3,3": colour_swapping_klein_bottle(3, 3),
    "swap-klein3,4": colour_swapping_klein_bottle(3, 4),
    **{f"bary-{name}": fixtures.barycentric(surf) for name, surf in BARYCENTRIC_BASES.items()},
}


def grown_sub_domain(surf, rng) -> list:
    """The triples of an edge-connected triangle set grown from a random
    triangle, renumbered densely.  A pinched vertex (two fans meeting at
    it) is allowed: it makes a broken star."""
    tris = {rng.randrange(surf.num_triangles)}
    for _ in range(rng.randint(1, surf.num_triangles)):
        tris.add(rng.choice(surf.dual_neighbours(rng.choice(sorted(tris)))))
    triples = [surf.triangles[t] for t in sorted(tris)]
    ids = {v: i for i, v in enumerate(sorted({v for t in triples for v in t}))}
    return [tuple(ids[v] for v in t) for t in triples]


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_matches_oracles(surf):
    assert surf.stars == oracle_stars(surf.triangles)
    for t in range(surf.num_triangles):
        got = surf.dual_neighbours(t)
        assert type(got) is tuple and got == tuple(oracle_dual_neighbours(surf, t))
    x = SK.SimplicialComplexK(surf.triangles)
    assert x.adjacency() == {i: tuple(ns) for i, ns in oracle_adjacency(x).items()}
    assert outcome(solver.check_L_identity, surf) == outcome(oracle_L_identity, surf)


ALL_HOLD = solver.LIdentityReport(True, True, True, True, True)


# --- the tests --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SURFACES))
def test_fast_paths_match_the_oracles(name):
    assert_matches_oracles(SURFACES[name])


def test_the_oracle_inputs_cover_every_star_and_report_kind():
    stars = {(s.closed, s.valence) for surf in SURFACES.values() for s in surf.stars}
    assert {(True, 4), (True, 5), (True, 6), (True, 10), (True, 12)} <= stars
    assert {(False, 2), (False, 3), (False, 4), (False, 6)} <= stars
    reports = {name: outcome(solver.check_L_identity, surf) for name, surf in SURFACES.items()}
    assert reports["ico"] == (OddValence, "vertex 0 has odd valence")
    assert reports["hex3"] == (ValueError, "identity checks run on closed surfaces")
    for name in ("swap-klein3,3", "swap-klein3,4"):
        assert all(v == 6 for v in map(SURFACES[name].valence, range(SURFACES[name].num_vertices)))
        assert reports[name] == solver.LIdentityReport(True, False, None, None, None)
    for name in ("octa", "torus9,4", "bary-ico", "bary-torus5,2"):
        assert reports[name] == ALL_HOLD


def test_fast_paths_match_the_oracles_on_random_sub_domains():
    rng = random.Random(2207)
    bases = [SURFACES[name] for name in ("torus6,0", "torus7,3", "torus9,5", "hex4", "hex5",
                                          "octa", "ico", "bary-ico", "bary-hex2")]
    open_valences, broken = set(), 0
    for _ in range(240):
        triples = grown_sub_domain(rng.choice(bases), rng)
        want = outcome(oracle_stars, triples)
        got = outcome(mesh.build_surface, triples)
        if isinstance(got, mesh.TriangulatedSurface):
            assert got.stars == want
            assert_matches_oracles(got)
            open_valences.update(s.valence for s in got.stars if not s.closed)
        else:
            broken += 1
            assert got == want
    assert broken > 10 and {1, 2, 3, 4, 5} <= open_valences


OCTA = [tuple(t) for t in fixtures.octahedron().triangles]
STAR_OF_0 = [t for t in OCTA if 0 in t]          # a closed fan over vertices 0, 2, 3, 4, 5

BROKEN_MESHES = {
    "bowtie": ([(0, 1, 2), (0, 3, 4)], BrokenStar, "star of vertex 0 is not a single fan"),
    "two closed fans": (OCTA + [tuple(v + 5 if v else 0 for v in t) for t in OCTA],
                        BrokenStar, "star of vertex 0 is not a single fan"),
    "open fan with a gap": ([(0, 1, 2), (0, 2, 3), (0, 4, 5), (0, 5, 6)],
                            BrokenStar, "star of vertex 0 is not a single fan"),
    "open fan beside a closed fan": ([(0, 1, 2), (0, 2, 3)]
                                     + [tuple(v + 2 if v else 0 for v in t) for t in STAR_OF_0],
                                     BrokenStar, "star of vertex 0 is not a single fan"),
    "non-manifold edge": ([(0, 1, 2), (0, 1, 3), (0, 1, 4)],
                          NonManifoldEdge, "edge (0, 1) lies in 3 triangles"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_MESHES))
def test_broken_meshes_raise_what_the_oracle_raises(name):
    triples, kind, message = BROKEN_MESHES[name]
    assert outcome(mesh.build_surface, triples) == (kind, message)
    assert outcome(oracle_stars, triples) == (kind, message)


@pytest.mark.parametrize("name", sorted(BARYCENTRIC_BASES))
def test_barycentric_valences(name):
    base = BARYCENTRIC_BASES[name]
    sub = fixtures.barycentric(base)
    nv, ne = base.num_vertices, base.num_edges
    assert (sub.num_vertices, sub.num_triangles) == (nv + ne + base.num_triangles,
                                                     6 * base.num_triangles)
    assert [sub.valence(v) for v in range(nv)] == [2 * base.valence(v) for v in range(nv)]
    assert all(sub.valence(nv + i) == 2 * len(ts)
               for i, ts in enumerate(base.edge_triangles.values()))
    assert all(sub.valence(v) == 6 for v in range(nv + ne, sub.num_vertices))
    assert sub.is_closed == base.is_closed
    assert mesh.bw_face_coloring(sub) is not None
    assert mesh.three_vertex_coloring(sub) is not None


def relabelled(surf, rng):
    """The same surface with shuffled vertex ids, triangle order and
    orientations."""
    ids = list(range(surf.num_vertices))
    rng.shuffle(ids)
    triples = [tuple(ids[v] for v in t) for t in surf.triangles]
    rng.shuffle(triples)
    out = []
    for t in triples:
        k = rng.randrange(3)
        t = t[k:] + t[:k]
        out.append(t[::-1] if rng.random() < 0.5 else t)
    return mesh.build_surface(out)


@pytest.mark.parametrize("name", ["octa", "ico", "torus4,1", "torus5,2"])
def test_closed_subdivisions_have_trivial_holonomy_and_the_L_identities(name):
    """On seeded relabellings of the closed subdivisions the holonomy is
    trivial, the dimension 2, the zero modes span the covariant constants
    and the kernel of an elimination of Q, and every L identity holds.
    `checked_internal` of the maximum principle is not asserted anywhere
    off the lattice: its local check needs valence 6 at every vertex of a
    black triangle, and every triangle of a subdivision has a midpoint
    vertex of valence 4."""
    rng = random.Random(f"bary-{name}")
    sub = fixtures.barycentric(BARYCENTRIC_BASES[name])
    for surf in [sub] + [relabelled(sub, rng) for _ in range(3)]:
        nv = surf.num_vertices
        conn = C.canonical_connection(surf)
        hol = C.classify_holonomy(conn)
        assert (hol.group, hol.covariant_dimension) == ("trivial", 2)
        space = solver.covariant_constants(conn)
        modes = solver.zero_modes(conn)
        assert space.dimension == len(modes) == 2
        assert ratmat.span_equal(modes, space.basis, nv)
        q = SK.q_matrix(surf.triangles, range(surf.num_triangles))
        kernel = [dict(enumerate(vec)) for vec in ratmat.nullspace(q, nv)]
        assert ratmat.span_equal(modes, kernel, nv)
        assert solver.check_L_identity(surf) == ALL_HOLD
        assert_matches_oracles(surf)


COMPLEXES = {
    "torus6": SK.SimplicialComplexK(fixtures.torus_lattice(6).surface.triangles),
    "torus7,2": SK.SimplicialComplexK(fixtures.torus_lattice(7, 2).surface.triangles),
    "bary-octa": SK.SimplicialComplexK(fixtures.barycentric(fixtures.octahedron()).triangles),
    "pinched3": pinched_torus(3),
    "3torus3": three_torus(3),
    "cycle7": SK.cycle_graph(7),
    "4-simplex boundary": SK.boundary_of_4_simplex(),
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_stored_adjacency_is_the_facet_pair_adjacency_and_stays_so(name):
    x = COMPLEXES[name]
    fresh = {i: tuple(ns) for i, ns in oracle_adjacency(x).items()}
    stored = x.adjacency()
    assert stored == fresh
    assert all(type(ns) is tuple for ns in stored.values())
    for read_out in (SK.classify_holonomy_k, SK.zero_modes_k, SK.bw_factorization_check):
        outcome(read_out, x)
    assert x.adjacency() is stored
    assert stored == fresh == {i: tuple(ns) for i, ns in oracle_adjacency(x).items()}
