"""Triangulated surfaces: stars, thick paths, colorings and loop characters.

A surface is stored purely combinatorially: a dense list of vertex indices
and a list of vertex triples.  Construction validates the manifold
property (every edge in one or two triangles) and builds, for every
vertex, the cyclically ordered star

    T_1, ..., T_n   with rim  P_1, ..., P_n,   T_i = <P, P_i, P_{i+1}>,

which is the indexing contract the holonomy formulas rely on.  Interior
vertices have a closed star cycle; boundary vertices an open path (with
n + 1 rim vertices for n triangles).  Each star is built in one pass over
the vertex's triangles: their rim pairs are read once into a local fan,
rim vertex -> the triangles on that spoke, and the walk reads only it.
Domain boundaries read the one edge map, `edge_triangles`, and so does
the dual graph, stored once at construction in stored edge order (ab, bc,
ac): `dual_neighbours` hands out its read-only tuples.

The dual-graph traversal lives here for surfaces and k-complexes alike:
`tree_sweep` carries a state once down the BFS dual tree and across each
cotree edge, behind every holonomy read-out.  `_carry_labels` is the one
slot-label carry: `label_sweep` runs it in `tree_sweep`, and the vertex
3-colouring runs it down the same tree.  `cotree_walks` spells the pi_1
generators out as loops, and `two_coloring` is the 2-colouring behind the
b/w colourings.

All structures are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BrokenStar, DegenerateTriangle, NonManifoldEdge, NotALoop

BLACK, WHITE = 0, 1

Edge = tuple[int, int]
Triple = tuple[int, int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Star:
    """Cyclic (or open) fan of triangles around a vertex.

    For a closed star, ``triangles[i]`` is the triangle spanned by the
    center, ``rim[i]`` and ``rim[(i + 1) % n]``.  For an open star the rim
    has one more entry than the triangle list.
    """

    center: int
    triangles: tuple[int, ...]
    rim: tuple[int, ...]
    closed: bool

    @property
    def valence(self) -> int:
        return len(self.triangles)


class TriangulatedSurface:
    """Immutable triangulated 2-manifold, possibly with boundary."""

    def __init__(self, triples: Sequence[Sequence[int]]):
        if not triples:
            raise DegenerateTriangle("surface needs at least one triangle")
        self.triangles: tuple[Triple, ...] = tuple(tuple(t) for t in triples)
        seen: set[frozenset[int]] = set()
        for idx, t in enumerate(self.triangles):
            if len(t) != 3 or any(v < 0 for v in t):
                raise DegenerateTriangle(f"triangle {idx} is not a vertex triple: {t}")
            if len(set(t)) != 3:
                raise DegenerateTriangle(f"triangle {idx} has repeated vertices: {t}")
            key = frozenset(t)
            if key in seen:
                raise DegenerateTriangle(f"duplicate triangle {tuple(sorted(t))}")
            seen.add(key)
        used = sorted({v for t in self.triangles for v in t})
        if used != list(range(len(used))):
            raise DegenerateTriangle("vertex indices must be dense 0..V-1")
        self.num_vertices = len(used)

        self.edge_triangles: dict[Edge, tuple[int, ...]] = {}
        acc: dict[Edge, list[int]] = {}
        tri_edges = []
        for idx, (a, b, c) in enumerate(self.triangles):
            edges = (_edge(a, b), _edge(b, c), _edge(a, c))
            tri_edges.append(edges)
            for e in edges:
                acc.setdefault(e, []).append(idx)
        for e, tris in acc.items():
            if len(tris) > 2:
                raise NonManifoldEdge(f"edge {e} lies in {len(tris)} triangles")
            self.edge_triangles[e] = tuple(tris)
        self.boundary_edges = frozenset(e for e, ts in self.edge_triangles.items() if len(ts) == 1)
        # the dual graph, built once: the triangles across each stored edge ab, bc, ac
        self._dual: tuple[tuple[int, ...], ...] = tuple(
            tuple([o for e in edges for o in acc[e] if o != idx])
            for idx, edges in enumerate(tri_edges))

        incident: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for idx, t in enumerate(self.triangles):
            for v in t:
                incident[v].append(idx)
        self.vertex_triangles: tuple[tuple[int, ...], ...] = tuple(map(tuple, incident))
        self.stars: tuple[Star, ...] = tuple(self._build_star(v) for v in range(self.num_vertices))

    # -- construction helpers ------------------------------------------

    def _build_star(self, v: int) -> Star:
        """The star of `v` in one pass over its triangles: each triangle's
        rim pair, in stored orientation, is read once into `rim_of`, and
        `fan[r]` lists the triangles on the spoke v-r in triangle order
        (the edge map's order), so the walk looks nothing up on the
        surface."""
        incident = self.vertex_triangles[v]
        if not incident:
            raise BrokenStar(f"vertex {v} has no incident triangle")
        triangles = self.triangles
        rim_of: dict[int, tuple[int, int]] = {}
        fan: dict[int, list[int]] = {}
        for ti in incident:
            a, b, c = triangles[ti]
            pair = rim_of[ti] = (b, c) if v == a else (c, a) if v == b else (a, b)
            for r in pair:
                fan.setdefault(r, []).append(ti)
        # n triangles have 2n spoke ends, so every spoke has two iff there are n rims
        closed = len(fan) == len(incident)
        if closed:
            start = incident[0]
            first_rim = rim_of[start][0]
        else:
            ends = sorted(ts[0] for ts in fan.values() if len(ts) == 1)
            if len(ends) != 2:
                raise BrokenStar(f"star of vertex {v} is not a single fan")
            start = ends[0]
            pair = rim_of[start]
            first_rim = pair[0] if len(fan[pair[0]]) == 1 else pair[1]
        order = [start]
        rim = [first_rim]
        cur, prev_rim = start, first_rim
        while True:
            a, b = rim_of[cur]
            nxt_rim = b if a == prev_rim else a
            rim.append(nxt_rim)
            ts = fan[nxt_rim]
            if len(ts) == 1:
                break
            cur = ts[1] if ts[0] == cur else ts[0]
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

    # -- basic queries ---------------------------------------------------

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edge_triangles)

    @property
    def is_closed(self) -> bool:
        return not self.boundary_edges

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_triangles

    def valence(self, v: int) -> int:
        return len(self.vertex_triangles[v])

    def shared_edge(self, t1: int, t2: int) -> Edge | None:
        common = set(self.triangles[t1]) & set(self.triangles[t2])
        if len(common) != 2:
            return None
        e = _edge(*common)
        return e if t2 in self.edge_triangles[e] else None

    def dual_neighbours(self, t: int) -> tuple[int, ...]:
        """Triangles sharing an edge with `t`, across its stored edges ab, bc,
        ac in that order: the tuple stored at construction."""
        return self._dual[t]

    def orientation_sign(self, t1: int, t2: int) -> int:
        """+1 if the stored orientations of two edge-adjacent triangles are
        coherent (the shared edge is traversed in opposite directions), -1
        otherwise.  Products over loops are independent of the stored
        per-triangle orientations."""
        e = self.shared_edge(t1, t2)
        if e is None:
            raise ValueError(f"triangles {t1},{t2} are not edge-adjacent")

        def direction(tri: int) -> int:
            t = self.triangles[tri]
            i = t.index(e[0])
            return 1 if t[(i + 1) % 3] == e[1] else -1

        return -direction(t1) * direction(t2)


def build_surface(triples: Iterable[Sequence[int]]) -> TriangulatedSurface:
    """Build and validate a surface from vertex triples.

    Raises NonManifoldEdge, BrokenStar or DegenerateTriangle when the
    input is not a valid (possibly bounded) triangulated 2-manifold.
    """
    return TriangulatedSurface(list(triples))


@dataclass(frozen=True)
class ThickPath:
    """Sequence of triangles, consecutive ones sharing exactly one edge.

    A closed path implicitly steps back from the last triangle to the
    first one; the shared edge list then has as many entries as
    triangles.
    """

    surface: TriangulatedSurface
    triangles: tuple[int, ...]
    closed: bool = False
    shared_edges: tuple[Edge, ...] = field(init=False)

    def __post_init__(self):
        tris = self.triangles
        if not tris:
            raise ValueError("empty thick path")
        pairs = list(zip(tris, tris[1:]))
        if self.closed:
            if len(tris) < 2:
                raise NotALoop("a thick loop needs at least two triangles")
            pairs.append((tris[-1], tris[0]))
        edges = []
        for a, b in pairs:
            e = self.surface.shared_edge(a, b)
            if e is None:
                raise ValueError(f"triangles {a},{b} do not share exactly one edge")
            edges.append(e)
        object.__setattr__(self, "shared_edges", tuple(edges))

    def __len__(self) -> int:
        return len(self.triangles)

    def reversed(self) -> "ThickPath":
        if self.closed:
            tris = (self.triangles[0],) + tuple(reversed(self.triangles[1:]))
        else:
            tris = tuple(reversed(self.triangles))
        return ThickPath(self.surface, tris, self.closed)


def star_loop(surface: TriangulatedSurface, v: int) -> ThickPath:
    """The closed thick path walking once around an interior vertex."""
    star = surface.stars[v]
    if not star.closed:
        raise NotALoop(f"vertex {v} lies on the boundary")
    return ThickPath(surface, star.triangles, closed=True)


def concat_loops(a: ThickPath, b: ThickPath) -> ThickPath:
    """Concatenate two loops based at the same triangle."""
    if not (a.closed and b.closed and a.triangles[0] == b.triangles[0]):
        raise NotALoop("loops must be closed and share the base triangle")
    return ThickPath(a.surface, a.triangles + b.triangles, closed=True)


def backtrack_move(path: ThickPath, i: int, neighbor: int) -> ThickPath:
    """Insert the fragment (neighbor, T_i) after position i.

    The elementary homotopy ..., T, T', T, ... <-> ..., T, ...; the result
    is homotopic to `path`.
    """
    t = path.triangles[i]
    if path.surface.shared_edge(t, neighbor) is None:
        raise ValueError(f"triangle {neighbor} is not edge-adjacent to {t}")
    tris = path.triangles[: i + 1] + (neighbor, t) + path.triangles[i + 1:]
    return ThickPath(path.surface, tris, path.closed)


def star_rotation_move(path: ThickPath, i: int, vertex: int) -> ThickPath:
    """Replace the step T_i -> T_{i+1} by the walk the other way around
    `vertex` (which must lie on the shared edge and have a closed star).

    The second elementary homotopy: both walks around a vertex star are
    homotopic when the star is a full cycle.
    """
    surf = path.surface
    m = len(path.triangles)
    j = (i + 1) % m
    if j == 0 and not path.closed:
        raise ValueError("no step after the last triangle of an open path")
    a, b = path.triangles[i], path.triangles[j]
    e = surf.shared_edge(a, b)
    if e is None or vertex not in e:
        raise ValueError(f"vertex {vertex} is not on the shared edge of step {i}")
    star = surf.stars[vertex]
    if not star.closed:
        raise NotALoop(f"vertex {vertex} lies on the boundary")
    cycle = star.triangles
    n = len(cycle)
    pa, pb = cycle.index(a), cycle.index(b)
    if (pa + 1) % n == pb:
        insert = [cycle[(pa - k) % n] for k in range(1, n - 1)]
    elif (pb + 1) % n == pa:
        insert = [cycle[(pa + k) % n] for k in range(1, n - 1)]
    else:
        raise ValueError("triangles are not star-adjacent at this vertex")
    tris = path.triangles[: i + 1] + tuple(insert) + path.triangles[i + 1:]
    return ThickPath(path.surface, tris, path.closed)


@dataclass(frozen=True)
class SubComplexDomain:
    """A finite simplicial subcomplex M' given by a triangle subset."""

    surface: TriangulatedSurface
    tris: frozenset[int]

    def __post_init__(self):
        bad = [t for t in self.tris if not 0 <= t < self.surface.num_triangles]
        if bad:
            raise ValueError(f"triangle indices out of range: {bad}")

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for t in self.tris for v in self.surface.triangles[t])

    def boundary_edges(self) -> frozenset[Edge]:
        """Edges of M' lying in exactly one triangle of M': the edges of
        `surface.edge_triangles` with exactly one triangle in M'."""
        return frozenset(e for e, ts in self.surface.edge_triangles.items()
                         if len(self.tris.intersection(ts)) == 1)

    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.boundary_edges() for v in e)

    def lower_boundary(self) -> frozenset[int]:
        """Triangles of M' touching the boundary of M'."""
        bv = self.boundary_vertices()
        return frozenset(t for t in self.tris if bv & set(self.surface.triangles[t]))


def whole_domain(surface: TriangulatedSurface) -> SubComplexDomain:
    return SubComplexDomain(surface, frozenset(range(surface.num_triangles)))


@dataclass(frozen=True)
class Coloring:
    """Optional face 2-coloring and/or vertex 3-coloring of a triangle set."""

    face_colors: dict | None = None
    vertex_colors: dict | None = None

    def black_triangles(self) -> frozenset[int]:
        return self._faces(BLACK)

    def white_triangles(self) -> frozenset[int]:
        return self._faces(WHITE)

    def _faces(self, color: int) -> frozenset[int]:
        if self.face_colors is None:
            raise ValueError("coloring has no face colours")
        return frozenset(t for t, c in self.face_colors.items() if c == color)


def as_domain(arg) -> SubComplexDomain:
    """Accept a surface (meaning: all of it) or a SubComplexDomain."""
    if isinstance(arg, TriangulatedSurface):
        return whole_domain(arg)
    return arg


# --- dual-graph traversal ------------------------------------------------------
#
# Nodes are triangles (or k-simplices) 0..count-1; `neighbours(node)` lists
# the nodes sharing an edge (facet) with it, in the order they are visited.

def dual_tree(neighbours, count: int, base: int = 0):
    """BFS spanning tree of a connected dual graph.

    Returns (parent, bfs_order, cotree): `parent` maps each node to its tree
    parent (None at `base`), `bfs_order` lists the nodes as they were reached
    and `cotree` is the sorted list of non-tree edges (a, b) with a < b; each
    one closes one pi_1 generator.
    """
    parent: dict[int, int | None] = {base: None}
    order = [base]
    queue = deque(order)
    cotree = set()
    while queue:
        t = queue.popleft()
        for o in neighbours(t):
            if o not in parent:
                parent[o] = t
                order.append(o)
                queue.append(o)
            elif parent[t] != o and parent[o] != t:
                cotree.add((min(t, o), max(t, o)))
    if len(parent) != count:
        raise ValueError("dual graph is not connected")
    return parent, order, sorted(cotree)


def tree_sweep(neighbours, count: int, base_state, cross):
    """Carry `base_state` down the BFS dual tree from node 0 with
    `cross(state, a, b)`.

    Returns the state of every node (in BFS order) and, for each sorted
    cotree edge (a, b), the pair (b, cross(state[a], a, b)): compared with
    state[b] it gives the generator the edge closes."""
    parent, order, cotree = dual_tree(neighbours, count)
    state = {0: base_state}
    for t in order[1:]:
        state[t] = cross(state[parent[t]], parent[t], t)
    return state, [(b, cross(state[a], a, b)) for a, b in cotree]


def _carry_labels(labels: dict, sa, sb) -> dict:
    """Vertex -> slot labels moved from simplex `sa` (the keys of `labels`)
    to the facet-adjacent simplex `sb`: the shared facet keeps its labels,
    and the new vertex takes the dropped vertex's slot and is inserted last
    (`connection._slot_frames` and `three_vertex_coloring` read it there)."""
    out = {}
    for v in sb:
        if v in labels:
            out[v] = labels[v]
        else:
            new = v
    if len(out) != len(labels) - 1 or len(sb) != len(labels):
        raise ValueError(f"simplices {sorted(sa)},{sorted(sb)} do not share a (k-1)-facet")
    for v, slot in labels.items():
        if v not in out:
            out[new] = slot
            return out


def label_sweep(simplices, neighbours, count: int):
    """(vertex -> slot labels per simplex, one slot permutation per cotree
    edge): `tree_sweep` from simplex 0, whose sorted vertices own slots
    0..k; sigma[labels[b][v]] = crossed[v] is the
    `simplicial.slot_permutation` of the loop through the edge."""
    start = {v: i for i, v in enumerate(sorted(simplices[0]))}
    labels, crossings = tree_sweep(
        neighbours, count, start,
        lambda lab, a, b: _carry_labels(lab, simplices[a], simplices[b]))
    gens = []
    for b, crossed in crossings:
        sigma = [0] * len(start)
        for v, slot in labels[b].items():
            sigma[slot] = crossed[v]
        gens.append(tuple(sigma))
    return labels, tuple(gens)


def tree_walk(parent: dict, t: int) -> list[int]:
    """Tree path from the root to `t`."""
    out = [t]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def dedup(seq) -> list:
    """Drop consecutive repeats: a walk never steps from a node to itself."""
    out = [seq[0]]
    for t in seq[1:]:
        if t != out[-1]:
            out.append(t)
    return out


def cotree_walks(parent: dict, cotree) -> list[list[int]]:
    """One closed walk root -> a -> b -> root through the tree per cotree edge
    (a, b); each walk ends with the root again."""
    return [dedup(tree_walk(parent, a) + tree_walk(parent, b)[::-1]) for a, b in cotree]


def two_coloring(nodes, neighbours) -> dict | None:
    """Colour nodes 0/1 so neighbours differ, the first node of each
    component (in `nodes` order) taking 0; None when an odd cycle exists."""
    colors: dict[int, int] = {}
    for seed in nodes:
        if seed in colors:
            continue
        colors[seed] = 0
        stack = [seed]
        while stack:
            t = stack.pop()
            for o in neighbours(t):
                if o not in colors:
                    colors[o] = 1 - colors[t]
                    stack.append(o)
                elif colors[o] == colors[t]:
                    return None
    return colors


def bw_face_coloring(surface_or_domain) -> Coloring | None:
    """2-color triangles so edge-adjacent ones differ; None when impossible.

    Exists iff every thick loop in the domain has even length (iff the
    dual graph is bipartite).  The lowest-index triangle is colored black.
    """
    dom = as_domain(surface_or_domain)
    colors = two_coloring(sorted(dom.tris), lambda t: _domain_neighbours(dom, t))
    return None if colors is None else Coloring(face_colors=colors)


def _domain_neighbours(dom: SubComplexDomain, t: int) -> list[int]:
    return [o for o in dom.surface.dual_neighbours(t) if o in dom.tris]


def three_vertex_coloring(surface_or_domain) -> Coloring | None:
    """3-color vertices so every triangle is tri-chromatic; None when a
    vertex reads two colours.

    The lowest-index triangle receives colors (a, b, c) in vertex-index
    order, and `_carry_labels` carries them down the BFS dual tree
    (`dual_tree`): each new triangle's third vertex takes the color of the
    parent vertex it replaces.  Every triangle's colours are then a
    bijection onto {0, 1, 2}, so a colouring exists exactly when each
    vertex reads one colour.  An edge-disconnected domain is a ValueError.
    """
    dom = as_domain(surface_or_domain)
    triangles = dom.surface.triangles
    tris = sorted(dom.tris)
    if not tris:
        return Coloring(vertex_colors={})
    parent, order, _ = dual_tree(lambda t: _domain_neighbours(dom, t), len(tris), tris[0])
    labels = {tris[0]: {v: c for c, v in enumerate(sorted(triangles[tris[0]]))}}
    colors = dict(labels[tris[0]])
    for t in order[1:]:
        p = parent[t]
        lab = labels[t] = _carry_labels(labels[p], triangles[p], triangles[t])
        new = next(reversed(lab))
        if colors.setdefault(new, lab[new]) != lab[new]:
            return None
    return Coloring(vertex_colors=colors)


def homomorphism_signs(surface: TriangulatedSurface, loop: ThickPath) -> tuple[int, int]:
    """(rho2, rho3) for a closed thick path.

    rho2 is the orientation character (product of coherence signs across
    the shared edges); rho3 = (-1)^m for a loop of m triangles.
    """
    if not loop.closed:
        raise NotALoop("homomorphism signs are defined for closed thick paths")
    tris = loop.triangles
    rho2 = 1
    for a, b in zip(tris, tris[1:] + tris[:1]):
        rho2 *= surface.orientation_sign(a, b)
    rho3 = -1 if len(tris) % 2 else 1
    return rho2, rho3
