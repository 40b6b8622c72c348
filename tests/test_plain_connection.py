"""The plain connection (b = 1 on every triangle of the surface) on integers,
against the weighted paths it bypasses.

`has_zero_curvature` reads even valences, `holonomy_frames` reads slot
labels, and `q_matrix` writes the int 1.  The oracles are the closed-form
`local_holonomy` at every interior vertex, the weighted GL(2) sweep
`connection._gl2_frames`, and the former `Fraction(1)` equation matrix.
`ratmat` must turn int entries into Fractions before it eliminates.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ratmat import sparse
from triholo import connection as C
from triholo import fixtures, mesh, ratmat, simplicial, solver
from triholo.errors import NonzeroCurvature


def subdivided(surf, t):
    """Stellar subdivision of triangle t: a new vertex of valence 3 joined to
    its corners, whose valences rise by one.  On a surface of even valences
    this leaves four odd stars among even ones."""
    a, b, c = surf.triangles[t]
    w = surf.num_vertices
    tris = [tri for i, tri in enumerate(surf.triangles) if i != t]
    return mesh.build_surface(tris + [(a, b, w), (b, c, w), (c, a, w)])


def relabelled(surf, rng):
    """(the surface with vertices renamed by pi, triangles reordered and each
    vertex list rotated; pi as a list)."""
    pi = list(range(surf.num_vertices))
    rng.shuffle(pi)
    tris = []
    for t in surf.triangles:
        r = rng.randrange(3)
        tris.append(tuple(pi[v] for v in t[r:] + t[:r]))
    rng.shuffle(tris)
    return mesh.build_surface(tris), pi


def surfaces():
    out = {"octa": fixtures.octahedron(), "ico": fixtures.icosahedron()}
    for n in range(3, 9):
        for s in range(n):
            out[f"torus{n}s{s}"] = fixtures.torus_lattice(n, s).surface
    out.update((f"hex{r}", fixtures.hex_patch(r).surface) for r in (2, 3, 4))
    out["octa+1"] = subdivided(out["octa"], 3)
    out["torus6s0+1"] = subdivided(out["torus6s0"], 17)
    rng = random.Random(808)
    for i, tag in enumerate(("torus3s1", "torus5s2", "torus6s3", "hex3")):
        out[f"relabelled{i}"] = relabelled(out[tag], rng)[0]
    return out


SURFACES = surfaces()


def ref_has_zero_curvature(conn):
    """The closed form (k', k'') = (0, 1) at every interior vertex."""
    surf = conn.surface
    return all(C.local_holonomy(conn, v) == (0, 1)
               for v in range(surf.num_vertices) if surf.stars[v].closed)


def ref_q_matrix(simplices, rows, coeff=None):
    """The equation matrix as it was built before: every canonical
    coefficient a `Fraction(1)`."""
    one = Fraction(1)
    return [{v: one if coeff is None else coeff(i, v) for v in simplices[i]} for i in rows]


def items(rows):
    return [list(row.items()) for row in rows]


# --- curvature and frames -------------------------------------------------------

@pytest.mark.parametrize("tag", sorted(SURFACES))
def test_even_valence_curvature_matches_closed_form(tag):
    conn = C.canonical_connection(SURFACES[tag])
    assert conn.is_canonical
    flat = C.has_zero_curvature(conn)
    assert flat == ref_has_zero_curvature(conn)
    assert flat == (tag not in ("ico", "octa+1", "torus6s0+1"))


@pytest.mark.parametrize("tag", sorted(SURFACES))
def test_slot_frames_match_gl2_sweep(tag):
    conn = C.canonical_connection(SURFACES[tag])
    if not C.has_zero_curvature(conn):
        with pytest.raises(NonzeroCurvature):
            C.holonomy_frames(conn)
        return
    frames, gens = C.holonomy_frames(conn)
    want_frames, want_gens = C._gl2_frames(conn)
    assert list(frames) == list(want_frames)
    for t, pair in frames.items():
        assert [list(f.items()) for f in pair] == [list(f.items()) for f in want_frames[t]]
    assert gens == want_gens


# --- integers in Q and in the elimination ----------------------------------------

int_matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                          min_size=1, max_size=6))


def as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(int_matrices, st.data())
def test_int_matrices_eliminate_to_fractions(a, data):
    cols = len(a[0])
    ints, fracs = sparse(a), sparse(as_fractions(a))
    red, pivots = ratmat.rref(ints, cols)
    assert all_fractions([row.values() for row in red])
    assert (red, pivots) == ratmat.rref(fracs, cols)
    null = ratmat.nullspace(ints, cols)
    assert all_fractions(null) and null == ratmat.nullspace(fracs, cols)
    assert ratmat.rank(ints, cols) == ratmat.rank(fracs, cols)
    b = data.draw(st.lists(st.integers(-4, 4), min_size=len(a), max_size=len(a)))
    x, kernel = ratmat.solve_affine(ints, b, cols)
    want_x, want_kernel = ratmat.solve_affine(fracs, [Fraction(y) for y in b], cols)
    assert x == want_x and kernel == want_kernel
    assert all_fractions(kernel) and (x is None or all_fractions([x]))


@pytest.mark.parametrize("tag", sorted(SURFACES))
def test_integer_q_equals_fraction_q(tag):
    surf = SURFACES[tag]
    conn = C.canonical_connection(surf)
    rows = range(surf.num_triangles)
    q = simplicial.q_matrix(surf.triangles, rows)
    assert all(type(x) is int for row in q for x in row.values())
    assert items(q) == items(ref_q_matrix(surf.triangles, rows))
    assert items(solver.assemble_L(conn)) == items(
        ratmat.gram(ref_q_matrix(surf.triangles, rows), surf.num_vertices))
    x = simplicial.SimplicialComplexK(surf.triangles)
    assert items(simplicial.assemble_Lk(x)) == items(
        ratmat.gram(ref_q_matrix(x.simplices, range(x.num_simplices)), x.num_vertices))
    modes = solver.zero_modes(conn)
    assert all(type(m[v]) is Fraction for m in modes for v in m)
    assert modes == [dict(enumerate(vec)) for vec in ratmat.nullspace(
        ref_q_matrix(surf.triangles, rows), surf.num_vertices)]


# --- relabelling ------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["octa", "torus3s0", "torus4s1", "torus5s2", "torus6s0", "torus6s3"]),
       st.integers(0, 2 ** 32))
def test_relabelling_permutes_L_entrywise(tag, seed):
    surf = SURFACES[tag]
    other, pi = relabelled(surf, random.Random(seed))
    lmat = solver.assemble_L(C.canonical_connection(surf))
    lother = solver.assemble_L(C.canonical_connection(other))
    for u, row in enumerate(lmat):
        assert len(lother[pi[u]]) == len(row)
        for v, x in row.items():
            assert lother[pi[u]][pi[v]] == x
    assert solver.check_L_identity(other) == solver.check_L_identity(surf)
