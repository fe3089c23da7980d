"""Finite oriented graphs with a compatible group action and the deformation
moves on them: equivariant reorientation, compression of sunk components,
sliding of an edge endpoint, and subdivision of an edge orbit.

A graph is (V, E, iota, tau) with V and E finite G-sets over the same group
and iota/tau equivariant.  Moves return new values; nothing is mutated.
Each move checks what it receives (PreconditionError) and not what it
builds: the G-tree it returns, and compress's retraction and pairing of
removed edges with removed vertices, hold by construction and are checked by
the tests.

A graph keeps a private G-tree verdict, set once a G-tree check has passed
on it (validate, in a move's input check, or the retract precheck's rooting
search, which validate is the oracle of).  A legal move takes a
G-tree to a G-tree (Forester 2002), so the graph a move returns from a tree
carries the verdict, and a chain of moves checks its tree once, at its
start.  The public validate recomputes on every call.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from ._frozen import Frozen
from .errors import InputError, PreconditionError, int_list, obj
from .gaction import FiniteGroup, GSet, group_from_json, group_to_json, gset_from_rows, non_equivariant
from .unionfind import UnionFind

# per vertex: (edge, eps, other endpoint), eps +1 when leaving iota
Adjacency = list[list[tuple[int, int, int]]]


class GGraph(Frozen):
    """Vertex and edge G-sets with the incidence maps iota and tau.

    _is_tree holds the G-tree verdict once it is known (see the module
    docstring).  The adjacency is built on first use and kept.  Equality and
    hashing ignore both.
    """

    _fields = ("vertices", "edges", "iota", "tau")
    __slots__ = _fields + ("_is_tree", "_adj")

    def __init__(self, vertices: GSet, edges: GSet, iota: tuple[int, ...], tau: tuple[int, ...]) -> None:
        if vertices.group != edges.group:
            raise InputError("vertex and edge actions must share one group")
        ne = edges.size
        if len(iota) != ne or len(tau) != ne:
            raise InputError("iota/tau must assign a vertex to every edge")
        ends = iota + tau
        if not set(map(type, ends)) <= {int}:
            raise InputError("iota/tau entries must be plain ints")
        if ends and not (0 <= min(ends) and max(ends) < vertices.size):
            raise InputError("incidence map hits a missing vertex")
        super().__init__(vertices, edges, iota, tau)
        object.__setattr__(self, "_is_tree", False)
        # the adjacency, filled on the first adjacency query
        object.__setattr__(self, "_adj", None)

    @property
    def group(self) -> FiniteGroup:
        return self.vertices.group

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @property
    def n_edges(self) -> int:
        return self.edges.size

    def adjacency(self) -> Adjacency:
        """Per vertex: (edge, eps, other endpoint), eps +1 when leaving iota,
        sorted.  Built once per graph: every caller gets the same lists, so
        none may change them."""
        if self._adj is None:
            object.__setattr__(self, "_adj", self._adjacency_table())
        return self._adj

    def _adjacency_table(self) -> Adjacency:
        adj: Adjacency = [[] for _ in range(self.n_vertices)]
        for e in range(self.n_edges):
            u, v = self.iota[e], self.tau[e]
            adj[u].append((e, 1, v))
            adj[v].append((e, -1, u))
        for row in adj:
            row.sort()
        return adj

    def equivariance_failures(self) -> list[str]:
        """Where iota or tau fails to commute with a group generator."""
        out = []
        for name, ends in (("iota", self.iota), ("tau", self.tau)):
            for g, e in non_equivariant(self.edges, self.vertices, ends):
                out.append(f"{name}(g*e) != g*{name}(e) for g={g}, e={e}")
        return out

    def state_digest(self) -> str:
        """The first 16 hex digits of the sha256 of json.dumps(doc,
        sort_keys=True), doc holding nv, ne, iota, tau and the reprs of the
        vertex and edge labels (vlabels, elabels).  The text is assembled in
        that key order from each G-set's _label_json, built once per G-set,
        and from the list str of iota and tau, plain ints (see __init__)."""
        import hashlib  # on the first digest, so a command that takes none never loads it

        text = (
            f'{{"elabels": {self.edges._label_json()}, "iota": {list(self.iota)}, '
            f'"ne": {self.n_edges}, "nv": {self.n_vertices}, '
            f'"tau": {list(self.tau)}, "vlabels": {self.vertices._label_json()}}}'
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class GraphReport(NamedTuple):
    equivariance_failures: tuple[str, ...]
    connected: bool
    acyclic: bool
    edge_count_matches: bool
    is_tree: bool


class GPath(NamedTuple):
    """A reduced path: vertices v0..vk and steps (edge, eps) between them."""

    vertices: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]


def validate(t: GGraph) -> GraphReport:
    """Equivariance, connectivity, cycles; the tree verdict."""
    fails = tuple(t.equivariance_failures())
    # each successful union joins two components; a failed one closes a cycle
    merged = sum(map(UnionFind(t.n_vertices).union, t.iota, t.tau))
    acyclic = merged == t.n_edges
    connected = t.n_vertices - merged == 1
    edge_count_matches = t.n_edges == t.n_vertices - 1
    return GraphReport(
        equivariance_failures=fails,
        connected=connected,
        acyclic=acyclic,
        edge_count_matches=edge_count_matches,
        is_tree=(not fails) and connected and acyclic and edge_count_matches,
    )


def _mark_tree(t: GGraph) -> GGraph:
    """Record that t is a G-tree and return t."""
    object.__setattr__(t, "_is_tree", True)
    return t


def _require_tree(t: GGraph, where: str) -> None:
    """A move's input check: validate, unless t already carries the verdict."""
    if not t._is_tree:
        if not validate(t).is_tree:
            raise PreconditionError(f"{where} needs a G-tree input")
        _mark_tree(t)


def reorient(t: GGraph, flips: Iterable[int]) -> GGraph:
    """Swap iota and tau exactly on an action-closed edge set; involutive.
    The result of a G-tree carries its verdict."""
    fl = set(flips)
    ne = t.n_edges
    if not all(0 <= e < ne for e in fl):
        raise PreconditionError("flip-set contains a missing edge")
    if not t.edges.is_action_closed(fl):
        raise PreconditionError("flip-set is not action-closed")
    iota, tau = list(t.iota), list(t.tau)
    for e in fl:
        iota[e], tau[e] = t.tau[e], t.iota[e]
    out = GGraph(t.vertices, t.edges, tuple(iota), tuple(tau))
    return _mark_tree(out) if t._is_tree else out


class CompressResult(NamedTuple):
    tree: GGraph
    phi: tuple[int, ...]              # old vertex -> old sink vertex
    kept_vertices: tuple[int, ...]    # old indices of the sinks, in result order
    kept_edges: tuple[int, ...]       # old indices of the kept edges, in result order


def compress(t: GGraph, eprime: Iterable[int]) -> CompressResult:
    """Collapse each component of (V, E - E') to its sink, keeping edges E'.

    Every removed component must be oriented entirely towards a single sink;
    the sinks become the new vertex set and the retraction phi sends each
    vertex to the sink of its component.  In a tree, a component of k
    vertices has k - 1 edges, so it has one sink exactly when no vertex
    leaves two removed edges; that is the check, and phi follows the
    out-edges, which cannot close a cycle.  The output is a G-tree because
    collapsing each subtree of a tree to a point, equivariantly, leaves a tree.
    The removed edge set is action-closed, so G permutes its components and
    phi is equivariant; and since every non-sink leaves exactly one removed
    edge, iota maps the removed edges one-to-one onto the non-sinks.
    """
    _require_tree(t, "compress")
    keep = sorted(set(eprime))
    nv, ne = t.n_vertices, t.n_edges
    if not all(0 <= e < ne for e in keep):
        raise PreconditionError("edge subset contains a missing edge")
    if not t.edges.is_action_closed(keep):
        raise PreconditionError("edge subset is not action-closed")
    keep_set = set(keep)
    removed = [e for e in range(ne) if e not in keep_set]

    # phi starts at each vertex's one step along its removed out-edge
    phi = list(range(nv))
    twice = []
    for e in removed:
        a = t.iota[e]
        if phi[a] != a:
            twice.append(a)
        phi[a] = t.tau[e]
    if twice:
        raise PreconditionError(f"vertex {min(twice)} is not oriented towards a unique sink")
    for v in range(nv):
        sink = phi[v]
        while phi[sink] != sink:
            sink = phi[sink]
        w = v
        while phi[w] != sink:  # point the path at its sink
            phi[w], w = sink, phi[w]
    sinks = [v for v in range(nv) if phi[v] == v]
    # keep was checked above, and the sinks are phi's image, closed because
    # phi is equivariant
    new_vertices = t.vertices._restricted(sinks)
    new_edges = t.edges._restricted(keep)
    vidx = {v: i for i, v in enumerate(sinks)}
    iota = tuple([vidx[phi[t.iota[e]]] for e in keep])
    tau = tuple([vidx[phi[t.tau[e]]] for e in keep])
    return CompressResult(_mark_tree(GGraph(new_vertices, new_edges, iota, tau)), tuple(phi), tuple(sinks), tuple(keep))


def slide(t: GGraph, e: int, f: int) -> GGraph:
    """Move the terminal endpoint of the orbit of e along the orbit of f.

    Requires tau(e) = iota(f), stabilizer(e) contained in stabilizer(f), and
    disjoint orbits; the terminal map becomes tau'(g e) = tau(g f).  A legal
    slide takes a G-tree to a G-tree (Forester 2002).
    """
    _require_tree(t, "slide")
    ne = t.n_edges
    if not (0 <= e < ne and 0 <= f < ne):
        raise PreconditionError("slide edges out of range")
    failures = []
    if t.tau[e] != t.iota[f]:
        failures.append("tau(e) = iota(f) fails")
    if not t.edges.stabilizer(e) <= t.edges.stabilizer(f):
        failures.append("stabilizer(e) inside stabilizer(f) fails")
    ids = t.edges.orbit_ids()
    if ids[e] == ids[f]:
        failures.append("disjoint edge orbits fails")
    if failures:
        raise PreconditionError("slide preconditions: " + "; ".join(failures))
    ea = t.edges.act
    tau = list(t.tau)
    for g in t.group.elements:
        tau[ea[g][e]] = t.tau[ea[g][f]]
    return _mark_tree(GGraph(t.vertices, t.edges, t.iota, tuple(tau)))


class SubdivideResult(NamedTuple):
    tree: GGraph
    mid_of: dict[int, int]    # old edge in the orbit -> new midpoint vertex
    half1_of: dict[int, int]  # old edge in the orbit -> new first-half edge
    half2_of: dict[int, int]  # old edge in the orbit -> new second-half edge


def subdivide(t: GGraph, f: int) -> SubdivideResult:
    """Replace the orbit of f by two half-edge orbits through new midpoints;
    splitting each edge of a G-tree equivariantly leaves a G-tree.  The new
    G-sets' rows are the input's, restricted and extended by how each
    element permutes the orbit, so they are actions by construction."""
    _require_tree(t, "subdivide")
    if not 0 <= f < t.n_edges:
        raise PreconditionError("subdivide edge out of range")
    orbit = sorted(t.edges.orbit(f))
    pos = {e: k for k, e in enumerate(orbit)}
    kept = [e for e in range(t.n_edges) if e not in pos]

    nv, k = t.n_vertices, len(orbit)
    va, ea = t.vertices.act, t.edges.act
    vertex_rows = tuple([va[g] + tuple([nv + pos[ea[g][e]] for e in orbit]) for g in t.group.elements])
    vlabels = t.vertices.labels + tuple([("mid", t.edges.labels[e]) for e in orbit])
    vertices = GSet(t.group, vertex_rows, vlabels)

    kept_idx = {e: i for i, e in enumerate(kept)}
    nk = len(kept)
    edge_rows = []
    for g in t.group.elements:
        row = [kept_idx[ea[g][e]] for e in kept]
        row += [nk + pos[ea[g][e]] for e in orbit]
        row += [nk + k + pos[ea[g][e]] for e in orbit]
        edge_rows.append(tuple(row))
    elabels = (
        [t.edges.labels[e] for e in kept]
        + [("half1", t.edges.labels[e]) for e in orbit]
        + [("half2", t.edges.labels[e]) for e in orbit]
    )
    edges = GSet(t.group, tuple(edge_rows), tuple(elabels))

    iota = [t.iota[e] for e in kept]
    tau = [t.tau[e] for e in kept]
    iota += [t.iota[e] for e in orbit]          # half1: iota(f) -> mid
    tau += [nv + pos[e] for e in orbit]
    iota += [nv + pos[e] for e in orbit]        # half2: mid -> tau(f)
    tau += [t.tau[e] for e in orbit]

    return SubdivideResult(
        _mark_tree(GGraph(vertices, edges, tuple(iota), tuple(tau))),
        {e: nv + pos[e] for e in orbit},
        {e: nk + pos[e] for e in orbit},
        {e: nk + k + pos[e] for e in orbit},
    )


def bfs_parents(adj: Adjacency, root: int, stop: Optional[int] = None) -> dict[int, tuple[int, int, int]]:
    """Breadth-first search from root over an adjacency from GGraph.adjacency.

    Maps every reached vertex, in the order reached, to (previous vertex,
    eps, edge); the root maps to (-1, 0, -1).  The search ends once the
    vertex stop leaves the queue.
    """
    parent: dict[int, tuple[int, int, int]] = {root: (-1, 0, -1)}
    reached = [root]
    for v in reached:
        if v == stop:
            break
        for e, eps, other in adj[v]:
            if other not in parent:
                parent[other] = (v, eps, e)
                reached.append(other)
    return parent


def path_to(parent: dict[int, tuple[int, int, int]], v: int) -> GPath:
    """The path from the root of a bfs_parents search to the reached vertex v."""
    verts = [v]
    steps: list[tuple[int, int]] = []
    prev, eps, e = parent[v]
    while prev != -1:
        steps.append((e, eps))
        verts.append(prev)
        prev, eps, e = parent[prev]
    verts.reverse()
    steps.reverse()
    return GPath(tuple(verts), tuple(steps))


def geodesic(t: GGraph, a: int, b: int) -> GPath:
    """The unique reduced path between two vertices of a connected graph."""
    if not (0 <= a < t.n_vertices and 0 <= b < t.n_vertices):
        raise PreconditionError("geodesic endpoints out of range")
    rep = validate(t)
    if not rep.connected:
        raise PreconditionError("geodesic needs a connected graph")
    return path_to(bfs_parents(t.adjacency(), a, stop=b), b)


# ---------------------------------------------------------------------------
# JSON instance format and DOT export
# ---------------------------------------------------------------------------


def ggraph_to_json(t: GGraph) -> dict:
    return {
        "group": group_to_json(t.group),
        "vertices": list(t.vertices.labels),
        "edges": list(t.edges.labels),
        "iota": list(t.iota),
        "tau": list(t.tau),
        "action": {
            "vertices": [list(t.vertices.act[g]) for g in t.group.generators],
            "edges": [list(t.edges.act[g]) for g in t.group.generators],
        },
    }


def ggraph_from_json(doc: dict) -> GGraph:
    keys = ("group", "vertices", "edges", "iota", "tau", "action")
    group_doc, vertex_points, edge_points, iota, tau, action = obj(doc, "", keys)
    group = group_from_json(group_doc)
    vertex_rows, edge_rows = obj(action, "action", ("vertices", "edges"))
    vertices = gset_from_rows(group, vertex_points, vertex_rows, "vertices", "action.vertices")
    edges = gset_from_rows(group, edge_points, edge_rows, "edges", "action.edges")
    t = GGraph(vertices, edges, tuple(int_list(iota, "iota")), tuple(int_list(tau, "tau")))
    fails = t.equivariance_failures()
    if fails:
        raise InputError("instance is not equivariant: " + "; ".join(fails[:3]))
    return t


_PALETTE = ("black", "red3", "blue3", "green4", "orange3", "purple3", "cyan4", "brown")


def ggraph_to_dot(t: GGraph) -> str:
    ids = t.edges.orbit_ids()
    lines = ["digraph gtree {"]
    for v in range(t.n_vertices):
        lines.append(f'  v{v} [label="{t.vertices.labels[v]}"];')
    for e in range(t.n_edges):
        color = _PALETTE[ids[e] % len(_PALETTE)]
        lines.append(
            f'  v{t.iota[e]} -> v{t.tau[e]} [label="{t.edges.labels[e]}" color="{color}"];'
        )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def tree_with_trivial_group(edges: Sequence[tuple[int, int]], n_vertices: Optional[int] = None) -> GGraph:
    """A tree with the trivial group acting; edges as (iota, tau) pairs."""
    if n_vertices is None:
        n_vertices = max((max(u, v) for u, v in edges), default=-1) + 1
    group = FiniteGroup.trivial()
    vertices = GSet.trivial_action(group, n_vertices)
    eset = GSet.trivial_action(group, len(edges))
    return GGraph(vertices, eset, tuple(u for u, _ in edges), tuple(v for _, v in edges))
