"""Finite oriented graphs with a compatible group action and the deformation
moves on them: equivariant reorientation, compression of sunk components,
sliding of an edge endpoint, and subdivision of an edge orbit.

A graph is (V, E, iota, tau) with V and E finite G-sets over the same group
and iota/tau equivariant.  Moves return new values; nothing is mutated.
Each move checks what it receives (PreconditionError) and not what it
builds: the G-tree it returns, and compress's retraction and pairing of
removed edges with removed vertices, hold by construction and are checked by
the tests.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, PreconditionError
from .gaction import FiniteGroup, GSet, group_from_json, group_to_json, gset_from_rows, non_equivariant
from .unionfind import UnionFind

# per vertex: (edge, eps, other endpoint), eps +1 when leaving iota
Adjacency = list[list[tuple[int, int, int]]]


@dataclass(frozen=True)
class GGraph:
    vertices: GSet
    edges: GSet
    iota: tuple[int, ...]
    tau: tuple[int, ...]

    def __post_init__(self):
        if self.vertices.group != self.edges.group:
            raise InputError("vertex and edge actions must share one group")
        ne = self.edges.size
        if len(self.iota) != ne or len(self.tau) != ne:
            raise InputError("iota/tau must assign a vertex to every edge")
        nv = self.vertices.size
        for v in self.iota + self.tau:
            if not 0 <= v < nv:
                raise InputError("incidence map hits a missing vertex")

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
        """Per vertex: (edge, eps, other endpoint), eps +1 when leaving iota."""
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
        doc = {
            "nv": self.n_vertices,
            "ne": self.n_edges,
            "iota": list(self.iota),
            "tau": list(self.tau),
            "vlabels": [repr(x) for x in self.vertices.labels],
            "elabels": [repr(x) for x in self.edges.labels],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GraphReport:
    equivariant: bool
    equivariance_failures: tuple[str, ...]
    n_components: int
    connected: bool
    acyclic: bool
    edge_count_matches: bool
    is_tree: bool
    is_forest: bool


@dataclass(frozen=True)
class GPath:
    """A reduced path: vertices v0..vk and steps (edge, eps) between them."""

    vertices: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]


def validate(t: GGraph) -> GraphReport:
    """Equivariance, component count, cycles; tree/forest verdicts."""
    fails = tuple(t.equivariance_failures())
    uf = UnionFind(t.n_vertices)
    acyclic = True
    for e in range(t.n_edges):
        if not uf.union(t.iota[e], t.tau[e]):
            acyclic = False
    n_components = len({uf.find(v) for v in range(t.n_vertices)})
    connected = n_components == 1
    edge_count_matches = t.n_edges == t.n_vertices - 1
    return GraphReport(
        equivariant=not fails,
        equivariance_failures=fails,
        n_components=n_components,
        connected=connected,
        acyclic=acyclic,
        edge_count_matches=edge_count_matches,
        is_tree=(not fails) and connected and acyclic and edge_count_matches,
        is_forest=(not fails) and acyclic,
    )


def _require_tree(t: GGraph, where: str) -> None:
    rep = validate(t)
    if not rep.is_tree:
        raise PreconditionError(f"{where} needs a G-tree input")


def reorient(t: GGraph, flips: Iterable[int]) -> GGraph:
    """Swap iota and tau exactly on an action-closed edge set; involutive."""
    fl = set(flips)
    if not all(0 <= e < t.n_edges for e in fl):
        raise PreconditionError("flip-set contains a missing edge")
    if not t.edges.is_action_closed(fl):
        raise PreconditionError("flip-set is not action-closed")
    iota = tuple([t.tau[e] if e in fl else t.iota[e] for e in range(t.n_edges)])
    tau = tuple([t.iota[e] if e in fl else t.tau[e] for e in range(t.n_edges)])
    return GGraph(t.vertices, t.edges, iota, tau)


@dataclass(frozen=True)
class CompressResult:
    tree: GGraph
    phi: tuple[int, ...]              # old vertex -> old sink vertex
    kept_vertices: tuple[int, ...]    # old indices of the sinks, in result order
    kept_edges: tuple[int, ...]       # old indices of the kept edges, in result order


def compress(t: GGraph, eprime: Iterable[int]) -> CompressResult:
    """Collapse each component of (V, E - E') to its sink, keeping edges E'.

    Every removed component must be oriented entirely towards a single sink;
    the sinks become the new vertex set and the retraction phi sends each
    vertex to the sink of its component.  The output is a G-tree because
    collapsing each subtree of a tree to a point, equivariantly, leaves a tree.
    The removed edge set is action-closed, so G permutes its components and
    phi is equivariant; and since every non-sink leaves exactly one removed
    edge, iota maps the removed edges one-to-one onto the non-sinks.
    """
    _require_tree(t, "compress")
    keep = sorted(set(eprime))
    if not all(0 <= e < t.n_edges for e in keep):
        raise PreconditionError("edge subset contains a missing edge")
    if not t.edges.is_action_closed(keep):
        raise PreconditionError("edge subset is not action-closed")
    keep_set = set(keep)
    removed = [e for e in range(t.n_edges) if e not in keep_set]

    uf = UnionFind(t.n_vertices)
    for e in removed:
        uf.union(t.iota[e], t.tau[e])
    comp_of = {v: uf.find(v) for v in range(t.n_vertices)}
    out_deg = {v: 0 for v in range(t.n_vertices)}
    for e in removed:
        out_deg[t.iota[e]] += 1

    sink_of: dict[int, int] = {}
    for v in range(t.n_vertices):
        c = comp_of[v]
        if out_deg[v] == 0:
            if c in sink_of:
                raise PreconditionError(f"component of vertex {v} has two sinks")
            sink_of[c] = v
    for v in range(t.n_vertices):
        if comp_of[v] not in sink_of:
            raise PreconditionError(f"component of vertex {v} has no sink")
        if v != sink_of[comp_of[v]] and out_deg[v] != 1:
            raise PreconditionError(f"vertex {v} is not oriented towards a unique sink")

    phi = tuple([sink_of[comp_of[v]] for v in range(t.n_vertices)])
    sinks = sorted(set(phi))
    new_vertices = t.vertices.restrict(sinks)
    new_edges = t.edges.restrict(keep)
    vidx = {v: i for i, v in enumerate(sinks)}
    iota = tuple([vidx[phi[t.iota[e]]] for e in keep])
    tau = tuple([vidx[phi[t.tau[e]]] for e in keep])
    return CompressResult(GGraph(new_vertices, new_edges, iota, tau), phi, tuple(sinks), tuple(keep))


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
    if t.edges.orbit(e) & t.edges.orbit(f):
        failures.append("disjoint edge orbits fails")
    if failures:
        raise PreconditionError("slide preconditions: " + "; ".join(failures))
    ea = t.edges.act
    tau = list(t.tau)
    for g in t.group.elements:
        tau[ea[g][e]] = t.tau[ea[g][f]]
    return GGraph(t.vertices, t.edges, t.iota, tuple(tau))


@dataclass(frozen=True)
class SubdivideResult:
    tree: GGraph
    mid_of: dict[int, int]    # old edge in the orbit -> new midpoint vertex
    half1_of: dict[int, int]  # old edge in the orbit -> new first-half edge
    half2_of: dict[int, int]  # old edge in the orbit -> new second-half edge


def subdivide(t: GGraph, f: int) -> SubdivideResult:
    """Replace the orbit of f by two half-edge orbits through new midpoints;
    splitting each edge of a G-tree equivariantly leaves a G-tree."""
    _require_tree(t, "subdivide")
    if not 0 <= f < t.n_edges:
        raise PreconditionError("subdivide edge out of range")
    orbit = sorted(t.edges.orbit(f))
    pos = {e: k for k, e in enumerate(orbit)}
    kept = [e for e in range(t.n_edges) if e not in pos]

    nv, k = t.n_vertices, len(orbit)
    va, ea = t.vertices.act, t.edges.act
    vertex_rows = [
        tuple(list(va[g]) + [nv + pos[ea[g][e]] for e in orbit]) for g in t.group.elements
    ]
    vlabels = list(t.vertices.labels) + [("mid", t.edges.labels[e]) for e in orbit]
    vertices = GSet.build(t.group, nv + k, vertex_rows, vlabels)

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
    edges = GSet.build(t.group, nk + 2 * k, edge_rows, elabels)

    iota = [t.iota[e] for e in kept]
    tau = [t.tau[e] for e in kept]
    iota += [t.iota[e] for e in orbit]          # half1: iota(f) -> mid
    tau += [nv + pos[e] for e in orbit]
    iota += [nv + pos[e] for e in orbit]        # half2: mid -> tau(f)
    tau += [t.tau[e] for e in orbit]

    return SubdivideResult(
        GGraph(vertices, edges, tuple(iota), tuple(tau)),
        {e: nv + pos[e] for e in orbit},
        {e: nk + pos[e] for e in orbit},
        {e: nk + k + pos[e] for e in orbit},
    )


def bfs_parents(
    adj: Adjacency,
    root: int,
    crossable: Optional[Callable[[int, int], bool]] = None,
    stop: Optional[int] = None,
) -> dict[int, tuple[int, int, int]]:
    """Breadth-first search from root over an adjacency from GGraph.adjacency.

    Maps every reached vertex, in the order reached, to (previous vertex,
    eps, edge); the root maps to (-1, 0, -1).  Only entries (e, eps, other)
    with crossable(e, other) are followed, and the search ends once the
    vertex stop leaves the queue.
    """
    parent: dict[int, tuple[int, int, int]] = {root: (-1, 0, -1)}
    queue = deque((root,))
    while queue:
        v = queue.popleft()
        if v == stop:
            break
        for e, eps, other in adj[v]:
            if other not in parent and (crossable is None or crossable(e, other)):
                parent[other] = (v, eps, e)
                queue.append(other)
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


def rooted_path(parent: dict[int, tuple[int, int, int]], depth: Sequence[int], a: int, b: int) -> GPath:
    """The path from a to b in a tree, read from a bfs_parents search over
    the whole tree and each vertex's depth in it.

    Both ends climb towards the root until they meet at their lowest common
    ancestor, so the cost is the path's length, and no call recurses.  In a
    tree this is the path that path_to(bfs_parents(adj, a, stop=b), b) gives:
    a climbing step crosses its edge against the search, so its eps is the
    negated one of the parent entry.
    """
    verts, steps = [a], []
    back_verts, back_steps = [b], []
    while a != b:
        if depth[a] >= depth[b]:
            a, eps, e = parent[a]
            verts.append(a)
            steps.append((e, -eps))
        else:
            b, eps, e = parent[b]
            back_verts.append(b)
            back_steps.append((e, eps))
    verts += reversed(back_verts[:-1])
    steps += reversed(back_steps)
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


def _label_from_json(x):
    """A vertex or edge label read back from JSON, lists as tuples at every depth."""
    if isinstance(x, list):
        return tuple(_label_from_json(y) for y in x)
    if isinstance(x, dict):
        raise InputError("vertex/edge labels must be numbers, strings or lists of them")
    return x


def ggraph_from_json(doc: dict) -> GGraph:
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    for key in ("group", "vertices", "edges", "iota", "tau", "action"):
        if key not in doc:
            raise InputError(f"instance document is missing {key!r}")
    group = group_from_json(doc["group"])
    vlab = doc["vertices"]
    elab = doc["edges"]
    for name, lab in (("vertices", vlab), ("edges", elab)):
        if not (type(lab) is int and lab >= 0 or isinstance(lab, list)):
            raise InputError(f"{name} must be a count or a list of labels")
    nv = vlab if isinstance(vlab, int) else len(vlab)
    ne = elab if isinstance(elab, int) else len(elab)
    act = doc["action"]
    if not isinstance(act, dict) or "vertices" not in act or "edges" not in act:
        raise InputError("action must give vertex and edge permutations")

    def build(size, rows, labels):
        labels = None if isinstance(labels, int) else [_label_from_json(x) for x in labels]
        if labels is not None and len(set(labels)) != len(labels):
            raise InputError("vertex/edge labels must be pairwise distinct")
        return gset_from_rows(group, size, rows, labels)

    vertices = build(nv, act["vertices"], vlab)
    edges = build(ne, act["edges"], elab)
    iota, tau = doc["iota"], doc["tau"]
    for name, ends in (("iota", iota), ("tau", tau)):
        if not isinstance(ends, list) or len(ends) != ne:
            raise InputError(f"{name} must list one vertex per edge")
        if not all(type(v) is int and 0 <= v < nv for v in ends):
            raise InputError(f"{name} must hold vertex indices below {nv}")
    t = GGraph(vertices, edges, tuple(iota), tuple(tau))
    fails = t.equivariance_failures()
    if fails:
        raise InputError("instance is not equivariant: " + "; ".join(fails[:3]))
    return t


_PALETTE = ("black", "red3", "blue3", "green4", "orange3", "purple3", "cyan4", "brown")


def ggraph_to_dot(t: GGraph) -> str:
    orbit_ix: dict[int, int] = {}
    for i, orb in enumerate(t.edges.orbits()):
        for e in orb:
            orbit_ix[e] = i
    lines = ["digraph gtree {"]
    for v in range(t.n_vertices):
        lines.append(f'  v{v} [label="{t.vertices.labels[v]}"];')
    for e in range(t.n_edges):
        color = _PALETTE[orbit_ix[e] % len(_PALETTE)]
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
