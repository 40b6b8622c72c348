"""Connections on the k-simplices of a simplicial complex.

The canonical connection (all coefficients 1) transports solutions of
sum_{P in sigma} psi_P = 0 along k-thick paths: crossing a (k-1)-facet
moves the dropped vertex's value onto the new vertex, so holonomy is a
permutation of the k+1 value slots of the base simplex.  With trivial
local holonomy the group embeds in S_{k+1}; its orbit count q on the
slots gives covariant constants of dimension q - 1, which coincide with
the zero modes of L = Q+ Q.

A complex builds its dual adjacency (simplices sharing a (k-1)-facet)
once, at construction; `adjacency()` hands out that one read-only mapping
to every sweep, colouring and check.

One sweep of slot labels over the dual tree (`mesh.label_sweep`) gives
the holonomy generators, each vertex's orbit class and the zero modes
(`plain_kernel`, with no elimination of Q); surfaces use it at k = 2, where it
gives colour permutations.  `slot_classes` is the one union-find over
slots: the orbits are the classes of the generators' pairs (s, g[s]), so q
is their count, and `plain_kernel` ties each vertex's slots the same way.
`vertex_orbit_classes` reads the sweep once for the `KHolonomy` and the
vertex classes, and rejects a pinched vertex star whose slots fall in two
orbits.  `slot_permutation` follows one explicit closed walk.
`bw_factorization_check` still eliminates Q for its kernel, so that the
zero-mode/covariant comparison it reports tests the sweep against an
independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import ratmat
from .errors import LocalHolonomyNontrivial, NotAManifold
from .mesh import _carry_labels, label_sweep, two_coloring


class SimplicialComplexK:
    """Pure k-dimensional complex given by its top simplices."""

    def __init__(self, simplices):
        tops = [tuple(sorted(s)) for s in simplices]
        if not tops:
            raise ValueError("need at least one simplex")
        arity = len(tops[0])
        if arity < 2:
            raise ValueError("k must be >= 1")
        for s in tops:
            if len(s) != arity:
                raise ValueError("all simplices must have the same dimension")
            if len(set(s)) != arity:
                raise ValueError(f"repeated vertex in simplex {s}")
        if len(set(tops)) != len(tops):
            raise ValueError("duplicate simplices")
        self.simplices: tuple = tuple(tops)
        self.k = arity - 1
        used = sorted({v for s in tops for v in s})
        if used != list(range(len(used))):
            raise ValueError("vertex indices must be dense 0..V-1")
        self.num_vertices = len(used)
        self.facet_simplices: dict = {}
        for i, s in enumerate(tops):
            for facet in combinations(s, self.k):
                self.facet_simplices.setdefault(facet, []).append(i)
        nbrs: list = [set() for _ in tops]
        for members in self.facet_simplices.values():
            for a in members:
                nbrs[a].update(members)
        self._adjacency = {i: tuple(sorted(ns - {i})) for i, ns in enumerate(nbrs)}

    @property
    def num_simplices(self) -> int:
        return len(self.simplices)

    def corner_valences(self):
        """Valences of all (k-2)-simplices (number of k-simplices containing
        each); for k = 1 there are none."""
        if self.k < 2:
            return {}
        out: dict = {}
        for s in self.simplices:
            for c in combinations(s, self.k - 1):
                out[c] = out.get(c, 0) + 1
        return out

    def is_closed_manifold(self) -> bool:
        return all(len(v) == 2 for v in self.facet_simplices.values())

    def adjacency(self):
        """Dual adjacency via shared (k-1)-facets: simplex -> sorted tuple of
        the simplices sharing a facet with it.  The mapping is built once, at
        construction, and shared by every caller: read it, do not change it."""
        return self._adjacency


def canonical_local_holonomy_ok(x: SimplicialComplexK) -> bool:
    """Trivial local holonomy of the canonical connection: always for k = 1;
    for k >= 2, a closed triangulated k-manifold (else NotAManifold) with
    every (k-2)-simplex of even valence.  Only facets and valences are
    checked here: `vertex_orbit_classes` rejects a pinched vertex star."""
    if x.k == 1:
        return True
    for facet, members in x.facet_simplices.items():
        if len(members) > 2:
            raise NotAManifold(f"facet {facet} lies in {len(members)} simplices")
    if not x.is_closed_manifold():
        raise NotAManifold("complex has boundary facets")
    return all(v % 2 == 0 for v in x.corner_valences().values())


def slot_permutation(simplices, closed_walk) -> tuple:
    """Holonomy of the canonical connection along a closed walk of
    facet-adjacent simplices (first index == last index).

    The base simplex's sorted vertices own slots 0..k; returns sigma with
    sigma[i] the slot whose value arrives at slot i after the walk (for a
    surface, k = 2, this is the colour permutation in S3).
    """
    base = sorted(simplices[closed_walk[0]])
    labels = {v: i for i, v in enumerate(base)}
    for a, b in zip(closed_walk, closed_walk[1:]):
        labels = _carry_labels(labels, simplices[a], simplices[b])
    return tuple(labels[v] for v in base)


def perm_sign(sigma) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    s = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                s = -s
    return s


def generated_group(gens, degree: int) -> set:
    """Closure of permutations of range(degree) under composition."""
    group = {tuple(range(degree))} | set(gens)
    changed = True
    while changed:
        changed = False
        for p in list(group):
            for q in list(group):
                comp = tuple(p[i] for i in q)
                if comp not in group:
                    group.add(comp)
                    changed = True
    return group


@dataclass(frozen=True)
class KHolonomy:
    group: tuple          # sorted element tuples of the subgroup of S_{k+1}
    generators: tuple
    orbit_count: int
    covariant_dimension: int
    orbits: tuple         # tuple of sorted slot tuples


def classify_holonomy_k(x: SimplicialComplexK) -> KHolonomy:
    """Holonomy subgroup of S_{k+1} of the canonical connection, its orbit
    count q on the value slots, and the covariant dimension q - 1."""
    return vertex_orbit_classes(x)[1]


def slot_classes(ties, k1: int) -> tuple:
    """Classes of the slots 0..k1-1 under the tied pairs (s, t), each class
    a sorted tuple, in order of least slot: the one union-find over slots.
    The orbits of a permutation group are the classes of its generators'
    pairs (s, g[s])."""
    root = list(range(k1))

    def find(s):
        while root[s] != s:
            s = root[s]
        return s

    for s, t in ties:
        a, b = find(s), find(t)
        if a != b:
            root[max(a, b)] = min(a, b)
    classes: dict = {}
    for s in range(k1):
        classes.setdefault(find(s), []).append(s)
    return tuple(map(tuple, classes.values()))


def vertex_orbit_classes(x: SimplicialComplexK) -> tuple[dict, KHolonomy]:
    """Assign every vertex the orbit index of its slot under tree transport
    from simplex 0, with the `KHolonomy` of the same label sweep.

    A vertex whose slots fall in two orbits has a pinched star (two fans
    that meet only at it) and raises NotAManifold.  A pinch whose slots stay
    within one orbit is accepted: it changes no reported number."""
    if not canonical_local_holonomy_ok(x):
        raise LocalHolonomyNontrivial("a (k-2)-simplex has odd valence")
    k1 = x.k + 1
    labels, gens = label_sweep(x.simplices, x.adjacency().__getitem__, x.num_simplices)
    orbits = slot_classes(((s, g[s]) for g in gens for s in range(k1)), k1)
    orbit_of_slot = {s: i for i, orbit in enumerate(orbits) for s in orbit}
    classes = {}
    for lab in labels.values():
        for v, s in lab.items():
            c = orbit_of_slot[s]
            if classes.setdefault(v, c) != c:
                raise NotAManifold(f"the star of vertex {v} is pinched")
    group = tuple(sorted(generated_group(gens, k1)))
    return classes, KHolonomy(group, gens, len(orbits), len(orbits) - 1, orbits)


def covariant_constants_k(x: SimplicialComplexK) -> list:
    """Basis of solutions of Q psi = 0: one vector per orbit beyond the
    weighted-sum relation sum_orbits |orbit| c_orbit = 0."""
    return _orbit_basis(x, *vertex_orbit_classes(x))


def _orbit_basis(x: SimplicialComplexK, classes: dict, hol: KHolonomy) -> list:
    q = hol.orbit_count
    sizes = [len(o) for o in hol.orbits]
    basis = []
    for i in range(q - 1):
        c = [Fraction(0)] * q
        c[i] = Fraction(1, sizes[i])
        c[q - 1] = Fraction(-1, sizes[q - 1])
        basis.append({v: c[classes[v]] for v in range(x.num_vertices)})
    for psi in basis:
        for s in x.simplices:
            if sum(psi[v] for v in s) != 0:
                raise LocalHolonomyNontrivial(f"orbit-class vector fails simplex {s}")
    return basis


def q_matrix(simplices, rows, coeff=None) -> list:
    """The equation matrix Q as sparse rows (see `ratmat`): one row
    {vertex: coeff(i, vertex)} per simplex index i in `rows`, every
    coefficient the int 1 when `coeff` is None (the canonical connection),
    so `ratmat.gram` and `combine` multiply ints and `ratmat.rref`
    eliminates ints, with Fractions only where a pivot other than 1 leaves
    a remainder, and returns Fractions.  Surfaces with weights pass their
    triangles and `DiscreteConnection.b`."""
    if coeff is None:
        return [dict.fromkeys(simplices[i], 1) for i in rows]
    return [{v: coeff(i, v) for v in simplices[i]} for i in rows]


def assemble_Lk(x: SimplicialComplexK) -> list:
    """Sparse rows of L = Q+Q: (L psi)_P = n_P psi_P + sum m_{P,P'} psi_{P'}
    with m the number of k-simplices containing the edge <P P'>."""
    return ratmat.gram(q_matrix(x.simplices, range(x.num_simplices)), x.num_vertices)


def zero_modes_k(x: SimplicialComplexK) -> list:
    """Null space of L = Q+Q on a facet-connected complex (over the
    rationals ker L = ker Q), read off one label sweep by `plain_kernel`:
    nothing of Q is eliminated, `nullspace_form` reduces its class vectors."""
    return plain_kernel(x.simplices, x.adjacency().__getitem__, x.num_vertices)


def plain_kernel(simplices, neighbours, num_vertices: int) -> list:
    """ker Q of the plain equations sum_{P in sigma} psi_P = 0, one per
    simplex, as `ratmat.nullspace` gives it: one dict per free column, in
    column order, with Fraction values.  `neighbours` is the dual graph,
    which must be connected (ValueError otherwise).

    Down the dual tree of `mesh.label_sweep` a solution is fixed by its
    values c on the k+1 slots of simplex 0, which sum to 0: each simplex
    holds c on its slot labels.  That is one function exactly when every
    vertex reads one value from all its simplices, so c is constant on the
    `slot_classes` of the pairs each vertex ties together (across a cotree edge
    these are the orbits of its slot permutation; an odd-valence fan just
    ties one more pair, and no curvature check is needed).  The kernel is
    {x per class : sum of size_i x_i = 0}, size_i the slots in class i,
    spanned by size_0 on class i and -size_i on class 0 for each i >= 1;
    nothing of Q is eliminated, `ratmat.nullspace_form` reduces these k or
    fewer vectors.
    """
    labels, _ = label_sweep(simplices, neighbours, len(simplices))
    slot_of: dict = {}
    ties = [(slot_of.setdefault(v, s), s) for lab in labels.values() for v, s in lab.items()]
    classes = slot_classes(ties, len(simplices[0]))
    class_of = {s: i for i, c in enumerate(classes) for s in c}
    cls = [class_of[slot_of[v]] for v in range(num_vertices)]
    size = [len(c) for c in classes]
    basis = [[size[0] if c == i else -size[i] if c == 0 else 0 for c in cls]
             for i in range(1, len(classes))]
    return [dict(enumerate(v)) for v in ratmat.nullspace_form(basis)]


def bw_simplex_coloring(x: SimplicialComplexK) -> dict | None:
    """2-color k-simplices so facet-adjacent ones differ; None if odd dual
    cycles exist (rho3 nontrivial)."""
    return two_coloring(range(x.num_simplices), x.adjacency().__getitem__)


@dataclass
class KFactorizationReport:
    bw_exists: bool
    kernel_dimension: int
    kernel_matches_covariants: bool | None
    factorization_holds: bool | None    # L = 2 Qb+ Qb = 2 Qw+ Qw (k >= 2)
    note: str = ""


def bw_factorization_check(x: SimplicialComplexK) -> KFactorizationReport:
    """Zero-mode/covariant comparison plus, for k >= 2 with a b/w coloring,
    the entrywise identity L = 2 Qb+ Qb = 2 Qw+ Qw.

    For k = 1 the black and white operators each see only their own edges,
    so only L = Qb+ Qb + Qw+ Qw holds; the doubled identity is reported as
    out of range (None) with a note.  Where the orbit read-out
    (`vertex_orbit_classes`) raises, the comparison is reported as None.
    """
    try:
        read_out = vertex_orbit_classes(x)
    except (LocalHolonomyNontrivial, NotAManifold):
        read_out = None
    return _bw_report(x, read_out)


def _bw_report(x: SimplicialComplexK, read_out: tuple | None) -> KFactorizationReport:
    """`bw_factorization_check` given the orbit read-out of x, or None where
    it raised, so that a caller that needs the read-out as well makes it
    once."""
    nv = x.num_vertices
    q = q_matrix(x.simplices, range(x.num_simplices))
    lmat = ratmat.gram(q, nv)
    kernel = ratmat.nullspace(q, nv)  # over the rationals ker L = ker Q
    matches = None
    if read_out is not None:
        try:
            matches = ratmat.span_equal([dict(enumerate(vec)) for vec in kernel],
                                        _orbit_basis(x, *read_out), nv)
        except LocalHolonomyNontrivial:
            pass
    colors = bw_simplex_coloring(x)
    if colors is None:
        return KFactorizationReport(False, len(kernel), matches, None)
    if x.k == 1:
        return KFactorizationReport(True, len(kernel), matches, None,
                                    note="k=1: only L = Qb+Qb + Qw+Qw holds")
    holds = True
    for want in (0, 1):
        half = ratmat.gram([q[i] for i in range(x.num_simplices) if colors[i] == want], nv)
        if ratmat.combine((2, half)) != lmat:
            holds = False
    return KFactorizationReport(True, len(kernel), matches, holds)


def boundary_of_4_simplex() -> SimplicialComplexK:
    """The five tetrahedra of the 4-simplex boundary; every edge lies in
    three of them (odd), so the canonical connection is curved."""
    return SimplicialComplexK(list(combinations(range(5), 4)))


def cycle_graph(n: int) -> SimplicialComplexK:
    return SimplicialComplexK([(i, (i + 1) % n) for i in range(n)])
