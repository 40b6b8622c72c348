"""The one dual-tree sweep against the per-loop implementations it replaced.

`holonomy_generators`, `classify_holonomy`, `classify_holonomy_k`,
`vertex_orbit_classes`, `covariant_constants` and `three_vertex_coloring`
read everything off one `mesh.tree_sweep`, and the orbits off one
`simplicial.slot_classes`.  The `ref_` functions below are the former
implementations, verbatim except for their names: explicit loops through
`holonomy_matrix` and `slot_permutation`, a second seed propagation, a
depth-first colouring, and a breadth-first orbit search over every group
element.  Every result must agree exactly, order included.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import klein_bottle
from test_connection import torus_rep_matrices
from triholo import connection as C
from triholo import fixtures, mesh, ratmat, simplicial as SK, solver
from triholo.connection import (
    GROUP_TAGS,
    HolonomyClassification,
    color_permutation,
    generator_loops,
    has_zero_curvature,
    holonomy_matrix,
)
from triholo.errors import NonzeroCurvature
from triholo.mesh import Coloring, as_domain, cotree_walks, dual_tree
from triholo.ratmat import frac
from triholo.simplicial import KHolonomy, generated_group, perm_sign, slot_permutation


# --- the former implementations ---------------------------------------------

def ref_holonomy_generators(conn):
    """R_gamma for the pi_1 generators of any zero-curvature connection."""
    if not has_zero_curvature(conn):
        raise NonzeroCurvature("connection has nonzero curvature")
    return [holonomy_matrix(conn, loop) for loop in generator_loops(conn.surface)]


def ref_classify_holonomy(conn):
    """Holonomy group of a zero-curvature canonical connection on a closed
    connected surface, computed as color permutations of pi_1 generators."""
    surf = conn.surface
    if not surf.is_closed:
        raise ValueError("classification requires a closed surface")
    if not conn.is_canonical:
        raise ValueError("classification tracks colors: canonical connection only")
    if not has_zero_curvature(conn):
        raise NonzeroCurvature("connection has nonzero curvature")
    perms = tuple(color_permutation(surf, loop) for loop in generator_loops(surf))
    group = generated_group(perms, 3)
    tag = GROUP_TAGS[len(group)]
    dim = {"trivial": 2, "Z2": 1, "Z3": 0, "S3": 0}[tag]
    return HolonomyClassification(tag, perms, tuple(perm_sign(p) for p in perms), dim)


def ref_dual_tree(x, base):
    return dual_tree(x.adjacency().__getitem__, x.num_simplices, base)


def ref_carry_labels(labels, sa, sb):
    """Vertex -> slot labels moved from simplex `sa` to the facet-adjacent
    simplex `sb`: the shared facet keeps its labels, the new vertex takes
    the dropped vertex's slot."""
    sa, sb = set(sa), set(sb)
    dropped, new = sa - sb, sb - sa
    if len(dropped) != 1 or len(new) != 1:
        raise ValueError(f"simplices {sorted(sa)},{sorted(sb)} do not share a (k-1)-facet")
    out = {v: labels[v] for v in sa & sb}
    out[new.pop()] = labels[dropped.pop()]
    return out


def ref_orbits(group, k1):
    seen = set()
    orbits = []
    for s in range(k1):
        if s in seen:
            continue
        orbit = {s}
        frontier = [s]
        while frontier:
            t = frontier.pop()
            for g in group:
                if g[t] not in orbit:
                    orbit.add(g[t])
                    frontier.append(g[t])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def ref_classify_holonomy_k(x, base=0):
    """Holonomy subgroup of S_{k+1} of the canonical connection, its orbit
    count q on the value slots, and the covariant dimension q - 1."""
    if not SK.canonical_local_holonomy_ok(x):
        raise SK.LocalHolonomyNontrivial("a (k-2)-simplex has odd valence")
    parent, _, cotree = ref_dual_tree(x, base)
    gens = tuple(slot_permutation(x.simplices, walk) for walk in cotree_walks(parent, cotree))
    group = generated_group(gens, x.k + 1)
    orbits = ref_orbits(group, x.k + 1)
    q = len(orbits)
    return KHolonomy(tuple(sorted(group)), gens, q, q - 1, orbits)


def ref_vertex_orbit_classes(x, base=0):
    """Assign every vertex the orbit index of its slot under tree transport."""
    hol = ref_classify_holonomy_k(x, base)
    parent, order, _ = ref_dual_tree(x, base)
    orbit_of_slot = {}
    for i, orbit in enumerate(hol.orbits):
        for s in orbit:
            orbit_of_slot[s] = i
    labels_of = {base: {v: i for i, v in enumerate(x.simplices[base])}}
    for t in order[1:]:
        p = parent[t]
        labels_of[t] = ref_carry_labels(labels_of[p], x.simplices[p], x.simplices[t])
    classes = {}
    for t, lab in labels_of.items():
        for v, s in lab.items():
            c = orbit_of_slot[s]
            if classes.setdefault(v, c) != c:
                raise SK.LocalHolonomyNontrivial("inconsistent orbit classes")
    return classes, hol


def ref_propagate_seed(conn, seedpair):
    from triholo.connection import _solve_third

    surf = conn.surface
    _, order, _ = dual_tree(surf.dual_neighbours, surf.num_triangles)
    t0 = 0
    v0, v1, _ = sorted(surf.triangles[t0])
    values = dict(_solve_third(conn, t0, {v0: frac(seedpair[0]), v1: frac(seedpair[1])}))
    for t in order:
        tv = surf.triangles[t]
        known = {u: values[u] for u in tv if u in values}
        if len(known) == 3:
            continue
        if len(known) != 2:
            raise NonzeroCurvature("propagation lost contact; curvature nonzero?")
        values.update(_solve_third(conn, t, known))
    return values


def ref_covariant_constants(conn):
    """Solutions of Q psi = 0 on a closed connected zero-curvature surface.

    Seeds are the row vectors invariant under every holonomy generator,
    propagated from the base triangle through the dual spanning tree.
    """
    surf = conn.surface
    if not surf.is_closed:
        raise ValueError("covariant constants are defined on closed surfaces here")
    gens = ref_holonomy_generators(conn)  # raises NonzeroCurvature when curved
    rows = []
    for g in gens:
        rows.append([g[0][0] - 1, g[1][0]])
        rows.append([g[0][1], g[1][1] - 1])
    invariant = (solver.ratmat.nullspace([dict(enumerate(row)) for row in rows], 2) if rows
                 else [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    basis = [ref_propagate_seed(conn, vec) for vec in invariant]
    for psi in basis:
        solver._assert_solves(conn, psi)
    return solver.CovariantConstantSpace(basis, len(basis))


def ref_domain_neighbours(dom, t):
    return [o for o in dom.surface.dual_neighbours(t) if o in dom.tris]


def ref_three_vertex_coloring(surface_or_domain):
    """3-color vertices so every triangle is tri-chromatic; None when the
    propagation meets a contradiction.

    The lowest-index triangle receives colors (a, b, c) in vertex-index
    order; colors then propagate across shared edges, the third vertex of
    each new triangle taking the remaining color.
    """
    dom = as_domain(surface_or_domain)
    surf = dom.surface
    tris = sorted(dom.tris)
    if not tris:
        return Coloring(vertex_colors={})
    colors = {}
    seed = tris[0]
    for color, v in enumerate(sorted(surf.triangles[seed])):
        colors[v] = color
    queue = [seed]
    visited = {seed}
    while queue:
        t = queue.pop()
        tv = set(surf.triangles[t])
        got = {colors[v] for v in tv if v in colors}
        missing = [v for v in tv if v not in colors]
        if len(got) != 3 - len(missing):
            return None  # two vertices of one triangle forced to equal colors
        if len(missing) == 1:
            colors[missing[0]] = ({0, 1, 2} - got).pop()
        elif missing:
            # can only happen for disconnected domains; seed deterministically
            for color, v in zip(sorted({0, 1, 2} - got), sorted(missing)):
                colors[v] = color
        for o in ref_domain_neighbours(dom, t):
            if o not in visited:
                visited.add(o)
                queue.append(o)
    for t in tris:
        if len({colors[v] for v in surf.triangles[t]}) != 3:
            return None
    return Coloring(vertex_colors=colors)


# --- the cases ---------------------------------------------------------------

def relabelled(surf, rng):
    """The same surface with vertices renamed, triangles reordered and each
    triangle's vertex list rotated."""
    perm = list(range(surf.num_vertices))
    rng.shuffle(perm)
    tris = []
    for t in surf.triangles:
        r = rng.randrange(3)
        tris.append(tuple(perm[v] for v in t[r:] + t[:r]))
    rng.shuffle(tris)
    return mesh.build_surface(tris)


def random_tori(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 7)
        out.append(relabelled(fixtures.torus_lattice(n, rng.randrange(n)).surface, rng))
    return out


def closed_surfaces():
    out = {"octa": fixtures.octahedron()}
    for n in range(3, 9):
        for s in range(n):
            out[f"torus{n}s{s}"] = fixtures.torus_lattice(n, s).surface
    out["torus12s0"] = fixtures.torus_lattice(12).surface
    out["torus12s5"] = fixtures.torus_lattice(12, 5).surface
    out.update((f"random{i}", surf) for i, surf in enumerate(random_tori(20, 606)))
    return out


CLOSED = closed_surfaces()
PATCHES = {f"hex{r}": fixtures.hex_patch(r).surface for r in (2, 3, 4)}


def gauged(surf, seed):
    """b[T, P] = lam_T g_P: the canonical connection under a vertex gauge
    and a triangle scaling, flat with permutation holonomy up to
    conjugation."""
    rng = random.Random(seed)
    g = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
         for _ in range(surf.num_vertices)]
    coeffs = {}
    for t, tri in enumerate(surf.triangles):
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        coeffs.update({(t, v): lam * g[v] for v in tri})
    return C.DiscreteConnection(surf, coeffs)


def flat_connections():
    """Five gauged canonical connections and two from GL(2) representations
    whose holonomy is not a permutation."""
    out = [gauged(CLOSED[tag], k) for k, tag in
           enumerate(("octa", "torus3s1", "torus4s0", "torus6s3", "random3"))]
    t3 = fixtures.torus_lattice(3)
    diag = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    shear = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    unipotent = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    for a, b in ((diag, [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]),
                 (shear, unipotent)):
        out.append(C.connection_from_representation(t3.surface, torus_rep_matrices(t3, a, b)))
    return out


def cross_polytope_3():
    """Boundary of the 16-cell: a closed 3-manifold whose edges all lie in
    four tetrahedra, so the canonical connection is flat at k = 3."""
    return SK.SimplicialComplexK([tuple(2 * i + s for i, s in enumerate(signs))
                                  for signs in product((0, 1), repeat=4)])


def complexes():
    out = {tag: SK.SimplicialComplexK(surf.triangles) for tag, surf in CLOSED.items()}
    out.update((f"cycle{n}", SK.cycle_graph(n)) for n in range(3, 10))
    out["cross16"] = cross_polytope_3()
    return out


# --- agreement ---------------------------------------------------------------

@pytest.mark.parametrize("tag", sorted(CLOSED) + sorted(PATCHES))
def test_canonical_generators_match_per_loop_transport(tag):
    surf = CLOSED.get(tag) or PATCHES[tag]
    conn = C.canonical_connection(surf)
    assert C.holonomy_generators(conn) == ref_holonomy_generators(conn)
    if surf.is_closed:
        assert C.classify_holonomy(conn) == ref_classify_holonomy(conn)
        got, want = solver.covariant_constants(conn), ref_covariant_constants(conn)
        assert got.dimension == want.dimension
        assert [list(p.items()) for p in got.basis] == [list(p.items()) for p in want.basis]


def test_flat_connections_match_per_loop_transport():
    seen_non_permutation = False
    for conn in flat_connections():
        gens = C.holonomy_generators(conn)
        assert gens == ref_holonomy_generators(conn)
        seen_non_permutation |= any(g[0][0] * g[1][1] - g[0][1] * g[1][0] not in (1, -1)
                                    for g in gens)
        got, want = solver.covariant_constants(conn), ref_covariant_constants(conn)
        assert [list(p.items()) for p in got.basis] == [list(p.items()) for p in want.basis]
    assert seen_non_permutation


def test_curved_connection_rejected_by_both(ico):
    conn = C.canonical_connection(ico)
    for fn in (C.holonomy_generators, ref_holonomy_generators,
               solver.covariant_constants, ref_covariant_constants):
        with pytest.raises(NonzeroCurvature):
            fn(conn)


@pytest.mark.parametrize("tag", sorted(complexes()))
def test_slot_sweep_matches_per_walk_permutations(tag):
    x = complexes()[tag]
    assert SK.classify_holonomy_k(x) == ref_classify_holonomy_k(x)
    got, want = SK.vertex_orbit_classes(x), ref_vertex_orbit_classes(x)
    assert got == want and list(got[0].items()) == list(want[0].items())


def three_torus(n):
    """Z^3 / nZ^3 with each unit cube cut into six tetrahedra along its main
    diagonal.  Each tetrahedron holds one vertex of each coordinate sum mod
    4, so a loop around an axis shifts the slots by n mod 4: for n = 6 the
    holonomy is the double transposition (0 2)(1 3), of order 2 with two
    orbits."""
    def idx(p):
        return (p[0] % n) * n * n + (p[1] % n) * n + p[2] % n

    tets = set()
    for corner in product(range(n), repeat=3):
        for axes in permutations(range(3)):
            p, verts = list(corner), [idx(corner)]
            for a in axes:
                p[a] += 1
                verts.append(idx(p))
            tets.add(tuple(sorted(verts)))
    return SK.SimplicialComplexK(sorted(tets))


ORBIT_SURFACES = {**{f"torus9s{s}": fixtures.torus_lattice(9, s).surface for s in range(9)},
                  **{f"klein{k},{m}": klein_bottle(k, m) for k in (2, 3) for m in range(3, 7)}}
THREE_TORI = {f"3torus{n}": three_torus(n) for n in (3, 4, 5, 6)}


@pytest.mark.parametrize("tag", sorted(complexes()) + sorted(ORBIT_SURFACES) + sorted(THREE_TORI))
def test_slot_classes_of_generators_are_group_orbits(tag):
    surf = ORBIT_SURFACES.get(tag) or CLOSED.get(tag)
    x = THREE_TORI.get(tag) or complexes().get(tag) or SK.SimplicialComplexK(surf.triangles)
    k1 = x.k + 1
    _, gens = mesh.label_sweep(x.simplices, x.adjacency().__getitem__, x.num_simplices)
    want = ref_orbits(generated_group(gens, k1), k1)
    assert SK.slot_classes(((s, g[s]) for g in gens for s in range(k1)), k1) == want
    hol = SK.classify_holonomy_k(x)
    assert (hol.orbits, hol.orbit_count, hol.covariant_dimension) == (want, len(want), len(want) - 1)
    assert len(SK.zero_modes_k(x)) == len(want) - 1
    if surf is not None:
        conn = C.canonical_connection(surf)
        assert C.classify_holonomy(conn).covariant_dimension == len(want) - 1
        assert ref_classify_holonomy(conn).covariant_dimension == len(want) - 1
    if tag == "3torus6":  # an order-2 group with two orbits on four slots
        assert (len(hol.group), want) == (2, ((0, 2), (1, 3)))


def connected_subdomains(surf, rng, count):
    """Edge-connected triangle sets grown from random seeds."""
    out = []
    for _ in range(count):
        tris = {rng.randrange(surf.num_triangles)}
        for _ in range(rng.randint(1, surf.num_triangles)):
            t = rng.choice(sorted(tris))
            tris.update(rng.sample(surf.dual_neighbours(t), 1))
        out.append(mesh.SubComplexDomain(surf, frozenset(tris)))
    return out


def test_three_coloring_matches_depth_first_propagation():
    rng = random.Random(17)
    args = list(CLOSED.values()) + list(PATCHES.values()) + [fixtures.icosahedron()]
    for surf in list(PATCHES.values()) + [CLOSED[t] for t in ("torus4s1", "torus6s0",
                                                              "torus7s2", "random5")]:
        args += connected_subdomains(surf, rng, 15)
    outcomes = set()
    for arg in args:
        got, want = mesh.three_vertex_coloring(arg), ref_three_vertex_coloring(arg)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.vertex_colors == want.vertex_colors
        outcomes.add(got is None)
    assert outcomes == {True, False}


# --- invariance under relabelling --------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["octa", "torus3s0", "torus4s1", "torus5s2", "torus6s0", "torus6s3"]),
       st.integers(0, 2 ** 32))
def test_relabelling_keeps_holonomy_invariants(tag, seed):
    surf = CLOSED[tag]
    other = relabelled(surf, random.Random(seed))

    def invariants(s):
        conn = C.canonical_connection(s)
        return (C.classify_holonomy(conn).group, len(C.holonomy_generators(conn)),
                solver.covariant_constants(conn).dimension, len(solver.zero_modes(conn)))

    assert invariants(other) == invariants(surf)


@pytest.mark.parametrize("n, shear", [(4, 1), (6, 3), (7, 2)])
def test_thick_path_moves_and_concatenation_keep_the_holonomy(n, shear):
    """Every backtrack and star-rotation move at every step of a generator
    loop leaves R unchanged, and R(concat_loops(a, b)) = R(a) R(b) for
    every pair, with the canonical and a gauged connection; on about eight
    generator loops spread over the cotree."""
    surf = fixtures.torus_lattice(n, shear).surface
    loops = generator_loops(surf)
    loops = loops[::len(loops) // 8]
    for conn in (C.canonical_connection(surf), gauged(surf, n)):
        hol = [holonomy_matrix(conn, loop) for loop in loops]
        for loop, r in zip(loops, hol):
            for i, t in enumerate(loop.triangles):
                for nbr in surf.dual_neighbours(t):
                    assert holonomy_matrix(conn, mesh.backtrack_move(loop, i, nbr)) == r
                for v in loop.shared_edges[i]:
                    assert holonomy_matrix(conn, mesh.star_rotation_move(loop, i, v)) == r
        for (a, ra), (b, rb) in product(zip(loops, hol), repeat=2):
            assert holonomy_matrix(conn, mesh.concat_loops(a, b)) == ratmat.mat_mul(ra, rb)
