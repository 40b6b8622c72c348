"""Every file a `write_*` function emits parses back to the same object:
meshes, triangle-subset domains, connections and lattice functions.  The
parsers reject duplicate records, so these also show that no writer emits
one."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from triholo import connection as C
from triholo import fixtures, io
from triholo.lattice import LatticeFunction, Window
from triholo.mesh import SubComplexDomain, build_surface

SURFACES = {"octa": fixtures.octahedron(), "ico": fixtures.icosahedron(),
            "torus3s1": fixtures.torus_lattice(3, 1).surface,
            "torus4s0": fixtures.torus_lattice(4, 0).surface,
            "hex2": fixtures.hex_patch(2).surface}

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
nonzero = fractions.filter(lambda x: x != 0)


def shuffled(surf, seed):
    """`surf` with relabelled vertices, reordered triangles and rotated
    vertex triples."""
    rng = random.Random(seed)
    perm = list(range(surf.num_vertices))
    rng.shuffle(perm)
    tris = [tuple(perm[v] for v in t) for t in surf.triangles]
    rng.shuffle(tris)
    return build_surface([t[r:] + t[:r] for t, r in ((t, rng.randrange(3)) for t in tris)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SURFACES)), st.integers(0, 2 ** 32))
def test_mesh_roundtrip(tag, seed):
    surf = shuffled(SURFACES[tag], seed)
    back = io.parse_mesh(io.write_mesh(surf))
    assert back.triangles == surf.triangles
    assert back.num_vertices == surf.num_vertices


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SURFACES)), st.data())
def test_domain_roundtrip(tag, data):
    surf = SURFACES[tag]
    tris = data.draw(st.frozensets(st.integers(0, surf.num_triangles - 1)))
    dom = SubComplexDomain(surf, tris)
    assert io.parse_domain(io.write_domain(dom), surf).tris == tris


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SURFACES)), st.data())
def test_connection_roundtrip(tag, data):
    surf = SURFACES[tag]
    incidences = [(t, v) for t, tri in enumerate(surf.triangles) for v in tri]
    coeffs = data.draw(st.dictionaries(st.sampled_from(incidences), nonzero))
    conn = C.DiscreteConnection(surf, coeffs)
    back = io.parse_connection(io.write_connection(conn), surf)
    assert back.coefficients == conn.coefficients


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6), st.integers(0, 5), st.integers(-6, 6), st.integers(0, 5), st.data())
def test_lattice_function_roundtrip(x0, width, y0, height, data):
    w = Window(x0, x0 + width, y0, y0 + height)
    values = {p: data.draw(fractions) for p in w.points()}
    f = LatticeFunction(values, w)
    text = io.write_lattice_function(f)
    back = io.parse_lattice_function(text)
    assert back.window == w
    assert dict(back.values) == {p: Fraction(v) for p, v in values.items()}
