import random
from fractions import Fraction

import pytest

from triholo import fixtures, mesh
from triholo.simplicial import SimplicialComplexK


@pytest.fixture(scope="session")
def octa():
    return fixtures.octahedron()


@pytest.fixture(scope="session")
def ico():
    return fixtures.icosahedron()


@pytest.fixture(scope="session")
def torus3():
    return fixtures.torus_lattice(3)


@pytest.fixture(scope="session")
def torus4():
    return fixtures.torus_lattice(4)


@pytest.fixture(scope="session")
def torus6():
    return fixtures.torus_lattice(6)


def rand_frac(rng: random.Random, lo=-9, hi=9, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_pos_frac(rng: random.Random, hi=9, den=4) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def klein_bottle(k: int, m: int):
    """The `torus_lattice` triangles on Z^2 / <g, t>, g: (a, b) -> (b+k, a+k)
    a glide reflection and t: (a, b) -> (a+m, b-m), so g t g^-1 = t^-1.

    In s = a+b, d = a-b the group is s -> s + 4k, d -> d + 2m and
    g: (s, d) -> (s + 2k, -d), so each point has one representative with
    0 <= s < 2k and 0 <= d < 2m: 2km vertices, all of valence 6.  Needs
    k >= 2 and m >= 3; the canonical holonomy is Z2 (dimension 1) when m is
    a multiple of 3 and S3 otherwise.
    """
    def rep(a, b):
        s, d = (a + b) % (4 * k), (a - b) % (2 * m)
        return (s, d) if s < 2 * k else (s - 2 * k, -d % (2 * m))

    r = 2 * (k + m)
    tris = {tuple(sorted(rep(*p) for p in tri))
            for i in range(-r, r) for j in range(-r, r)
            for tri in (((i, j), (i + 1, j), (i, j + 1)), ((i, j), (i - 1, j), (i, j - 1)))}
    ids = {p: n for n, p in enumerate(sorted({p for t in tris for p in t}))}
    surf = mesh.build_surface(sorted(tuple(ids[p] for p in t) for t in tris))
    if surf.num_vertices != 2 * k * m or surf.num_triangles != 2 * surf.num_vertices:
        raise ValueError(f"Z^2 / <g, t> with k={k}, m={m} is not a simplicial quotient")
    return surf


def pinched_torus(u: int) -> SimplicialComplexK:
    """`torus_lattice(9)` with vertex u merged into vertex 0 and the vertices
    renumbered densely.  Every edge still lies in two triangles and every
    vertex has even valence, but the star of vertex 0 is two discs meeting
    only there.  With u = 4 the two discs give vertex 0 slots in two orbits;
    with u = 3 both slots lie in one orbit."""
    merged = [tuple(0 if v == u else v for v in t)
              for t in fixtures.torus_lattice(9).surface.triangles]
    ids = {v: i for i, v in enumerate(sorted({v for t in merged for v in t}))}
    return SimplicialComplexK([tuple(ids[v] for v in t) for t in merged])
