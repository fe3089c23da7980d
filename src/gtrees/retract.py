"""Retracting the vertex set of a finite G-tree onto a G-retract.

The pipeline assigns a degree map (a filtration) to vertices and edges,
removes the "problematic" configurations where every shortest descent path
must first climb one level (by equivariant sliding), and finally compresses
one distinguished edge per outside vertex to land on a G-tree whose vertex
set is exactly the retract.

Degrees are natural numbers here: on finite instances every stage of the
transfinite construction is a successor step, so there is no limit stage.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ._frozen import Frozen
from .errors import InternalCheckError, PreconditionError
from .ggraph import GGraph, GPath, _mark_tree, bfs_parents, compress, path_to, reorient, slide
from .unionfind import UnionFind


class Filtration(NamedTuple):
    """Degree map on vertices and edges; kappa = 1 + max degree."""

    vdeg: tuple[int, ...]
    edeg: tuple[int, ...]
    kappa: int


class Move(NamedTuple):
    kind: str
    detail: dict
    pre: str
    post: str


class RetractState(Frozen):
    """Immutable snapshot of the pipeline: tree + filtration + move history.

    Each snapshot builds the outside set w_set once, keeps what the
    shortest-only search (_descent) found for each outside vertex, and the
    problematic sets once problematic has swept them.  A slide changes
    which paths exist, so eliminate_problematic makes a new snapshot
    (with_tree) after each slide step.  A reorientation changes only the
    signs of the flipped edges on those paths, so compress_to_U reads the
    snapshot it is given (see there) and makes none.  Every tree version
    shares the input's vertex G-set, so its stabilizer table is read from
    the tree; so is the adjacency, which each tree version builds once
    (GGraph.adjacency).  Equality and hashing ignore w_set and the kept
    searches and problematic sets.
    """

    _fields = ("tree", "filtration", "u_set", "move_log")
    __slots__ = _fields + ("w_set", "_descents", "_problematic")

    def __init__(
        self, tree: GGraph, filtration: Filtration, u_set: frozenset[int], move_log: tuple[Move, ...] = ()
    ) -> None:
        super().__init__(tree, filtration, u_set, move_log)
        set_field = object.__setattr__
        set_field(self, "w_set", frozenset(range(tree.n_vertices)) - u_set)
        set_field(self, "_descents", {})
        set_field(self, "_problematic", None)

    def vstab(self, v: int) -> frozenset[int]:
        return self.tree.vertices.stabilizers()[v]

    def with_tree(self, tree: GGraph, new_moves: Iterable[Move]) -> "RetractState":
        return RetractState(tree, self.filtration, self.u_set, self.move_log + tuple(new_moves))


def make_state(tree: GGraph, u_set: Iterable[int], filtration: Optional[Filtration] = None) -> RetractState:
    """The first snapshot, with the filtration build_filtration assigns
    unless one is given."""
    u = frozenset(u_set)
    return RetractState(tree, build_filtration(tree, u) if filtration is None else filtration, u)


# ---------------------------------------------------------------------------
# building a filtration
# ---------------------------------------------------------------------------


def _retract_precheck(tree: GGraph, u: frozenset[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Check that tree is a G-tree and u a G-retract, and return the tree
    rooted at vertex 0: each vertex's depth and (parent, edge to it).

    The rooting search is the G-tree check: an equivariant graph is a G-tree
    exactly when it has one edge fewer than vertices and a breadth-first
    search (bfs_parents) reaches every vertex (validate, its oracle, says the
    same).
    """
    from .gaction import is_retract

    nv = tree.n_vertices
    parents = bfs_parents(tree.adjacency(), 0) if nv and tree.n_edges == nv - 1 else {}
    if not nv or len(parents) < nv or tree.equivariance_failures():
        raise PreconditionError("input graph is not a G-tree")
    depth = [0] * nv
    up = [(-1, -1)] * nv  # vertex -> (parent, edge to it) in the rooted tree
    for v, (prev, _, e) in parents.items():
        if prev != -1:
            depth[v] = depth[prev] + 1
            up[v] = (prev, e)
    _mark_tree(tree)  # so the moves that follow skip their input check
    if not is_retract(tree.vertices, u):
        raise PreconditionError("the given vertex subset is not a G-retract")
    return depth, up


def build_filtration(tree: GGraph, u_set: Iterable[int]) -> Filtration:
    """Assign degrees stagewise.

    Stage 1 consumes one fresh edge orbit.  A later stage alpha+1 routes each
    vertex first seen at level alpha down a geodesic towards an already-placed
    vertex fixed by its stabilizer; the new edges on those geodesics form the
    next level (or, if none are new, one fresh orbit is consumed).

    The vertices first placed at each level are kept in a bucket, so no stage
    rescans the tree.  The target of w is the lowest candidate (a vertex
    below alpha) whose stabilizer holds stab(w), so it depends on stab(w)
    alone; one dict keeps it per stabilizer.  Candidates only ever join, a
    bucket at a time on the stages that walk, so each entry is lowered as a
    bucket joins, and a stabilizer met for the first time scans the
    candidates once.  A stage with an empty bucket walks nothing, and a walk
    keeps only the orbits still unplaced.  Orbits are
    read from the G-sets' orbit numbers.  The precheck's search roots the
    tree at vertex 0, keeping each vertex's depth and (parent, edge), and
    each geodesic is walked only up to its cut, its first vertex below alpha
    (_cut_orbits).

    The loop ends within ne stages: each stage places at least one whole
    edge orbit that was unplaced, either the orbits of fresh, which holds
    only orbits whose first member, and so every member, is unplaced, or,
    when fresh is empty, the orbit of the lowest unplaced edge, which exists
    while n_placed < ne.  So n_placed grows at every stage.
    """
    u = frozenset(u_set)
    depth, up = _retract_precheck(tree, u)
    nv, ne, iota, tau = tree.n_vertices, tree.n_edges, tree.iota, tree.tau
    vstab = tree.vertices.stabilizers()
    vorb, eorb = tree.vertices.orbit_ids(), tree.edges.orbit_ids()
    edge_members: list[list[int]] = [[] for _ in range(max(eorb, default=-1) + 1)]
    for e, k in enumerate(eorb):
        edge_members[k].append(e)
    edge_level = [-1] * ne
    vertex_level = [-1] * nv
    for v in u:
        vertex_level[v] = 0
    buckets: list[list[int]] = [sorted(u)]  # level -> vertices first placed there
    candidates: list[int] = []  # the vertices of the first `joined` buckets
    joined = 0
    target_of: dict[frozenset[int], int] = {}  # stab(w) -> lowest candidate holding it
    n_placed = 0
    lowest_unplaced = 0  # every edge below it has a level

    gamma = 0
    while n_placed < ne:
        gamma += 1
        alpha = gamma - 1
        fresh: set[int] = set()  # the unplaced edge orbits on this stage's geodesics
        if alpha and buckets[alpha]:  # a stage with an empty bucket walks nothing
            for joining in buckets[joined:alpha]:
                candidates += joining
                for v in joining:
                    for sw, target in target_of.items():
                        if v < target and sw <= vstab[v]:
                            target_of[sw] = v
            joined = alpha
            seen_orbit: set[int] = set()  # vertex orbit numbers
            for w in sorted(buckets[alpha]):
                if vorb[w] in seen_orbit:
                    continue
                seen_orbit.add(vorb[w])
                sw = vstab[w]
                target = target_of.get(sw)
                if target is None:  # bucket 0, the retract, holds one (_retract_precheck's is_retract)
                    target_of[sw] = target = min(v for v in candidates if sw <= vstab[v])
                # an orbit is placed whole, so its first member tells whether it is unplaced
                fresh.update(
                    k for k in _cut_orbits(up, depth, vertex_level, alpha, eorb, w, target) if edge_level[edge_members[k][0]] < 0
                )
        if fresh:
            placing = sorted(e for k in fresh for e in edge_members[k])
        else:  # stage 1, and every stage whose geodesics hold no unplaced orbit
            while edge_level[lowest_unplaced] >= 0:
                lowest_unplaced += 1
            placing = edge_members[eorb[lowest_unplaced]]
        bucket = []
        for e in placing:
            edge_level[e] = gamma
            for v in (iota[e], tau[e]):
                if vertex_level[v] < 0:
                    vertex_level[v] = gamma
                    bucket.append(v)
        n_placed += len(placing)
        buckets.append(bucket)

    kappa = 1 + max(edge_level, default=0)
    return Filtration(tuple(vertex_level), tuple(edge_level), kappa)


def _cut_orbits(
    up: list[tuple[int, int]], depth: list[int], level: list[int], alpha: int, eorb: tuple[int, ...], w: int, target: int
) -> list[int]:
    """The edge orbits that the geodesic from w to target crosses, in path
    order, up to its first vertex at a level below alpha (target is one).
    Both ends climb the rooted tree (up, depth) until they meet: w's side
    comes first, so it is read as it climbs and stops at the cut; target's
    side is climbed into a list and read back from the meeting vertex."""
    orbits, back = [], []  # back: target's side, climbed from target
    a, b = w, target
    while a != b:
        if depth[a] >= depth[b]:
            a, e = up[a]
            orbits.append(eorb[e])
            if 0 <= level[a] < alpha:
                return orbits
        else:
            back.append(b)
            b = up[b][0]
    for v in reversed(back):
        orbits.append(eorb[up[v][1]])
        if 0 <= level[v] < alpha:
            break
    return orbits


def check_filtration(state: RetractState) -> list[str]:
    """Executable form of the four filtration conditions on state.filtration
    over state.tree and the retract state.u_set; empty means valid.

    The caller's state is checked as it stands (make_state builds one from a
    tree, a retract and a filtration), so its stabilizers and adjacency are
    not derived again, and a tree that carries the G-tree verdict (see
    gtrees.ggraph) is not searched for cycles.  (4) is read from the
    shortest-only search (_descent), which finds a path exactly when
    paths_P does.  The conditions are stated for a tree.  On a graph with a
    cycle, (1) reports the cycle, and (4) asks whether the search finds
    some window path (see paths_P), not whether the BFS tree of the whole
    graph holds one.
    """
    tree, u, filt = state.tree, state.u_set, state.filtration
    problems: list[str] = []
    nv, ne = tree.n_vertices, tree.n_edges

    # degrees must be constant on orbits (action-closed level sets; also (3)):
    # a point is reported once per generator that moves its degree
    for kind, deg, gset in (("vertex", filt.vdeg, tree.vertices), ("edge", filt.edeg, tree.edges)):
        rows = [gset.act[g] for g in tree.group.generators]
        for p in range(gset.size):
            for row in rows:
                if deg[row[p]] != deg[p]:
                    problems.append(f"(1) {kind} degree not constant on the orbit of {p}")

    # (1) every initial segment is a subforest with both endpoints present
    vdeg, edeg = filt.vdeg, filt.edeg
    for e, (a, b) in enumerate(zip(tree.iota, tree.tau)):
        if max(vdeg[a], vdeg[b]) > edeg[e]:
            problems.append(f"(1) edge {e} enters a level before both endpoints")
    # the edges below beta hold a cycle exactly when beta exceeds the degree
    # of the first edge that closes one, adding edges in degree order; a
    # graph that carries the G-tree verdict has no cycle
    if not tree._is_tree:
        uf = UnionFind(nv)
        for e in sorted(range(ne), key=edeg.__getitem__):
            if not uf.union(tree.iota[e], tree.tau[e]):
                for beta in range(max(0, edeg[e] + 1), filt.kappa + 1):
                    problems.append(f"(1) level set below {beta} contains a cycle")
                break

    # (2) level zero is exactly the retract, and holds no edges
    if {v for v in range(nv) if filt.vdeg[v] == 0} != u:
        problems.append("(2) vertex level zero differs from the retract")
    if any(filt.edeg[e] == 0 for e in range(ne)):
        problems.append("(2) an edge has degree zero")

    # (3) each positive level is a finite union of orbits: finiteness is
    # automatic here; orbit-closure was checked above.

    # (4) every outside vertex has a descent path
    for w in sorted(state.w_set):
        if _descent(state, w) is None:
            problems.append(f"(4) no descent path from vertex {w}")
    return problems


# ---------------------------------------------------------------------------
# descent paths, the lower-than order, problematic configurations
# ---------------------------------------------------------------------------


def _window_search(state: RetractState, w: int) -> dict[int, tuple[int, int, int]]:
    """bfs_parents from w, crossing only the window edges into vertices z
    with stab(w) <= stab(z) (see paths_P)."""
    filt, vstab, adj = state.filtration, state.tree.vertices.stabilizers(), state.tree.adjacency()
    edeg, lo, sw = filt.edeg, filt.vdeg[w], vstab[w]
    parent, reached = {w: (-1, 0, -1)}, [w]
    for v in reached:
        for e, eps, z in adj[v]:
            if z not in parent and lo <= edeg[e] <= lo + 1 and sw <= vstab[z]:
                parent[z] = (v, eps, e)
                reached.append(z)
    return parent


def paths_P(state: RetractState, w: int) -> list[GPath]:
    """All reduced paths from w whose pointwise stabilizer equals stab(w),
    which end strictly below deg(w), and whose edges stay in the window
    {deg(w), deg(w)+1}.  Sorted by (length, steps).

    The search (_window_search) only crosses window edges into vertices z
    with stab(w) <= stab(z).  In a tree the path to each vertex is unique,
    and both conditions hold for a path exactly when they hold for each of
    its prefixes, so this reaches precisely the endpoints of qualifying
    paths, along those paths, without visiting the rest of the tree.

    The input is meant to be a tree.  On a graph with a cycle, each vertex
    the windowed search reaches gets one path, its first shortest path
    inside the window; the rest of the graph plays no part.

    The pipeline reads the shortest-only form (_descent), which builds no
    path, and the slide path (_slide_path); this full form is their oracle.
    """
    if w in state.u_set:
        raise PreconditionError("descent paths are defined for outside vertices only")
    vdeg = state.filtration.vdeg
    parent, dw = _window_search(state, w), vdeg[w]
    out = [path_to(parent, v) for v in parent if vdeg[v] < dw]
    if len(out) > 1:
        out.sort(key=lambda p: (len(p.steps), p.steps))
    return out


def _descent(state: RetractState, w: int) -> Optional[tuple[int, int, int, tuple[int, ...]]]:
    """The shortest descent paths of w as the pipeline reads them: (their
    length, the first edge of the least one, that edge's far vertex, the
    first edges of those whose second vertex is one level above w), or None
    when paths_P(state, w) is empty.

    The search is _window_search's, run layer by layer in the same order,
    so each vertex gets the same path; it stops after the first layer that
    holds an endpoint, and keeps only each reached vertex's first edge.  A
    layer lists its vertices in the order of their first edges, so its first
    endpoint's is the least.  The result is kept on the state, once per
    snapshot and vertex.
    """
    memo = state._descents
    if w in memo:
        return memo[w]
    if w in state.u_set:
        raise PreconditionError("descent paths are defined for outside vertices only")
    tree, filt, vstab = state.tree, state.filtration, state.tree.vertices.stabilizers()
    adj, edeg, vdeg = tree.adjacency(), filt.edeg, filt.vdeg
    lo, sw = vdeg[w], vstab[w]
    for e, _, z in adj[w]:  # most searches end in the first layer, at its first endpoint
        if vdeg[z] < lo and lo <= edeg[e] <= lo + 1 and sw <= vstab[z]:
            memo[w] = out = (1, e, z, ())
            return out
    first, layer, d, ends = {w: -1}, [w], 0, []  # first: reached vertex -> first edge of its path
    while layer and not ends:
        d, grown = d + 1, []
        for v in layer:
            f = first[v]
            for e, _, z in adj[v]:
                if z not in first and lo <= edeg[e] <= lo + 1 and sw <= vstab[z]:
                    first[z] = g = e if f < 0 else f
                    grown.append(z)
                    if vdeg[z] < lo:
                        ends.append(g)
        layer = grown
    # a first edge is no loop, so its far vertex is its end other than w
    far = [tree.iota[e] + tree.tau[e] - w for e in ends]
    out = (d, ends[0], far[0], tuple(sorted({e for e, z in zip(ends, far) if vdeg[z] == lo + 1}))) if ends else None
    memo[w] = out
    return out


def d_T(state: RetractState, w: int) -> int:
    desc = _descent(state, w)
    if desc is None:
        raise InternalCheckError(f"no descent path from vertex {w}: filtration invalid")
    return desc[0]


def is_lower(state: RetractState, v1: int, v0: int) -> bool:
    """True when v1 is lower than v0: smaller degree, or equal positive degree
    with strictly larger stabilizer, or equal stabilizers and shorter descent."""
    filt = state.filtration
    d0, d1 = filt.vdeg[v0], filt.vdeg[v1]
    if d0 > d1:
        return True
    if d0 != d1 or d0 == 0:
        return False
    s0, s1 = state.vstab(v0), state.vstab(v1)
    if s0 < s1:
        return True
    if s0 != s1:
        return False
    return d_T(state, v0) > d_T(state, v1)


def problematic(state: RetractState) -> tuple[frozenset[int], frozenset[int]]:
    """Problematic vertices and the edges that witness them.

    A vertex is problematic when some shortest descent path must first climb
    one level; the first edges of those paths (one level above the vertex)
    are the problematic edges reported here.  Both sets are empty after
    eliminate_problematic.  The sweep runs once per snapshot; the pair is
    kept on the state.
    """
    if state._problematic is not None:
        return state._problematic
    bad_edges = set()
    bad_vertices = set()
    for w in state.w_set:
        desc = _descent(state, w)
        if desc is None:
            raise InternalCheckError(f"no descent path from vertex {w}: filtration invalid")
        if desc[3]:
            bad_vertices.add(w)
            bad_edges.update(desc[3])
    out = frozenset(bad_edges), frozenset(bad_vertices)
    object.__setattr__(state, "_problematic", out)
    return out


# ---------------------------------------------------------------------------
# the problem-reducing slide procedure
# ---------------------------------------------------------------------------


def _log_move(state: RetractState, log: list[Move], kind: str, detail: dict, tree: GGraph) -> GGraph:
    """Record the move that produced tree and return tree.

    The move's pre digest is the post digest of the move before it, in log or
    else in state.move_log; state.tree is digested only before the first
    move.  So each tree version is digested once.
    """
    before = log or state.move_log
    pre = before[-1].post if before else state.tree.state_digest()
    log.append(Move(kind, detail, pre, tree.state_digest()))
    return tree


def _slide_endpoint(
    state: RetractState, tree: GGraph, moving_edge: int, step_edge: int, step_eps: int, log: list[Move]
) -> GGraph:
    """One equivariant sliding operation: move the tau-endpoint of the orbit
    of moving_edge along step_edge traversed with sign step_eps, restoring the
    step edge's stored orientation afterwards."""
    if step_eps == -1:
        tree = _log_move(state, log, "reorient", {"orbit_of": step_edge}, reorient(tree, tree.edges.orbit(step_edge)))
    try:
        moved = slide(tree, moving_edge, step_edge)
    except PreconditionError as exc:
        raise InternalCheckError(f"problem-reducing slide became illegal: {exc}") from exc
    tree = _log_move(state, log, "slide", {"edge": moving_edge, "along": step_edge}, moved)
    if step_eps == -1:
        tree = _log_move(state, log, "reorient", {"orbit_of": step_edge}, reorient(tree, tree.edges.orbit(step_edge)))
    return tree


def _problem_orbit_count(state: RetractState, level: int) -> int:
    """Orbits of level edges joining a level vertex to one a level below.

    This is the quantity the sliding procedure strictly decreases; it is the
    termination measure, independent of the vertex-witness report above.
    """
    tree, filt = state.tree, state.filtration
    eorb = tree.edges.orbit_ids()
    counted = set()
    for e in range(tree.n_edges):
        if filt.edeg[e] != level:
            continue
        a, b = filt.vdeg[tree.iota[e]], filt.vdeg[tree.tau[e]]
        if (a == level and b == level - 1) or (b == level and a == level - 1):
            counted.add(eorb[e])
    return len(counted)


def _slide_path(state: RetractState, v0: int) -> GPath:
    """The path a slide step at the problematic vertex v0 follows: the least,
    in paths_P's (length, steps) order, of v0's shortest descent paths whose
    second vertex climbs one level, which exist as v0 is problematic.  The
    window search reaches vertices in that order (a layer lists them by their
    parents' places, then by the sorted adjacency rows), so it ends at the
    first endpoint whose second vertex climbs; only paths up to it are built."""
    vdeg = state.filtration.vdeg
    parent, lo = _window_search(state, v0), vdeg[v0]
    paths = (path_to(parent, v) for v in parent if vdeg[v] < lo)
    return next(p for p in paths if vdeg[p.vertices[1]] == lo + 1)


def eliminate_problematic(state: RetractState) -> RetractState:
    """Slide away problematic vertices, lowest level first.

    Each step takes the least problematic vertex v0 of the lowest level, and
    slides the far endpoint of e1 along its slide path v0, e1, v1, ...
    (_slide_path) to the first vertex placed at or below v0's level; the
    moved orbit stops being problematic and no other edge's incidence
    changes.  The degree map never changes.

    Nor does the action, and the moved tau lands below its orbit's level in
    a tree that stays a G-tree, so filtration conditions (1)-(3) still hold
    after a slide; problematic re-reads (4) and raises on a vertex with no
    descent path.  slide checks its own preconditions, and _slide_endpoint
    reports a failed one as an internal fault.
    """
    vdeg = state.filtration.vdeg
    _, bad_v = problematic(state)  # once per snapshot: again only after a slide
    level = 0
    while bad_v:
        v0 = min(bad_v, key=lambda v: (vdeg[v], v))
        if vdeg[v0] < level:
            raise InternalCheckError("a lower level became problematic again")
        level = vdeg[v0]
        before = _problem_orbit_count(state, level + 1)
        path = _slide_path(state, v0)
        (e1, eps1), vertices = path.steps[0], path.vertices
        i = next(j for j in range(2, len(vertices)) if vdeg[vertices[j]] <= level)
        log: list[Move] = []
        tree = state.tree
        if eps1 == -1:
            tree = _log_move(state, log, "reorient", {"orbit_of": e1}, reorient(tree, tree.edges.orbit(e1)))
        for e, eps in path.steps[1:i]:
            tree = _slide_endpoint(state, tree, e1, e, eps, log)
        if eps1 == -1:
            tree = _log_move(state, log, "reorient", {"orbit_of": e1}, reorient(tree, tree.edges.orbit(e1)))
        state = state.with_tree(tree, log)
        if _problem_orbit_count(state, level + 1) >= before:
            raise InternalCheckError("problem-reducing step did not reduce problematic orbits")
        _, bad_v = problematic(state)
    return state


# ---------------------------------------------------------------------------
# compressing onto the retract
# ---------------------------------------------------------------------------


def _distinguished_edges(state: RetractState, tree: GGraph) -> dict[int, int]:
    """Outside vertex -> its distinguished edge in tree, state.tree
    reoriented downhill: the first edge of the least descent path of the
    least vertex of each orbit, translated along the orbit.

    The translation follows the vertex G-set's generator walk, whose roots
    are the least vertices of their orbits: every other vertex takes the
    image of its parent's edge under the generator that reaches it.  Once
    stab(e1) = stab(v0) is checked no image clashes: g v0 = h v0 puts h^-1 g
    in stab(v0) = stab(e1), so g e1 = h e1.
    """
    distinguished: dict[int, int] = {}
    if not state.w_set:
        return distinguished
    iota, vstab, estab, eact = tree.iota, tree.vertices.stabilizers(), tree.edges.stabilizers(), tree.edges.act
    _, order, parent, via = tree.vertices._forest()
    for v0 in order:
        if v0 not in state.w_set:
            continue
        if parent[v0] >= 0:
            distinguished[v0] = eact[via[v0]][distinguished[parent[v0]]]
            continue
        _, e1, far, _ = _descent(state, v0)
        if iota[e1] != v0:
            raise InternalCheckError("distinguished edge does not leave its vertex")
        if estab[e1] != vstab[v0]:
            raise InternalCheckError("distinguished edge stabilizer differs from its vertex")
        if not is_lower(state, far, v0):
            raise InternalCheckError("distinguished neighbour is not lower")
        distinguished[v0] = e1
    return distinguished


class RetractResult(NamedTuple):
    tree: GGraph
    move_log: tuple[Move, ...]
    removed_edges: tuple[int, ...]            # edge indices of the input tree
    removed_to_vertex: dict[int, int]         # removed edge -> outside vertex (input indices)
    bijection_by_label: dict                  # removed edge label -> vertex label


def compress_to_U(state: RetractState) -> RetractResult:
    """Reorient downhill, pick one distinguished edge per outside vertex, and
    compress those edges away; the vertex set becomes exactly the retract.

    The reoriented tree needs no new snapshot: is_lower reads degrees,
    stabilizers and d_T, none of which see orientation, and its descent
    paths are state's in the same order, with the flipped edges' signs
    negated.  is_lower is a strict order that the action preserves, so
    flipping the orbits whose representative points uphill leaves no edge
    uphill.  compress gives every non-sink exactly one removed out-edge, so
    once its sinks are the retract the distinguished edges biject onto the
    outside vertices; a compress that refuses this tree is an internal fault.
    """
    _, bad_v = problematic(state)
    if bad_v:
        raise PreconditionError("problematic vertices present; eliminate them first")
    tree = state.tree
    log: list[Move] = []

    # e is the least edge of its orbit when its number is the count of
    # orbits met before it
    eorb = tree.edges.orbit_ids()
    flipped: set[int] = set()
    n_orbits = 0
    for e, k in enumerate(eorb):
        if k == n_orbits:
            n_orbits += 1
            if is_lower(state, tree.iota[e], tree.tau[e]):
                flipped.add(k)
    flips = [e for e, k in enumerate(eorb) if k in flipped]
    if flips:
        tree = _log_move(state, log, "reorient", {"flips": flips}, reorient(tree, flips))

    removed_set = set(_distinguished_edges(state, tree).values())
    removed = sorted(removed_set)

    keep = [e for e in range(tree.n_edges) if e not in removed_set]
    try:
        res = compress(tree, keep)
    except PreconditionError as exc:
        raise InternalCheckError(f"compression onto the retract became illegal: {exc}") from exc
    _log_move(state, log, "compress", {"removed": removed}, res.tree)
    if res.kept_vertices != tuple(sorted(state.u_set)):
        raise InternalCheckError("compressed vertex set is not the retract")

    removed_to_vertex = {e: tree.iota[e] for e in removed}
    bij = {tree.edges.labels[e]: tree.vertices.labels[tree.iota[e]] for e in removed}
    return RetractResult(
        tree=res.tree,
        move_log=state.move_log + tuple(log),
        removed_edges=tuple(removed),
        removed_to_vertex=removed_to_vertex,
        bijection_by_label=bij,
    )


def retract_tree(tree: GGraph, u_set: Iterable[int]) -> RetractResult:
    """Full pipeline: filtration, problem-reducing slides, compression.

    The output is a G-tree with vertex set the retract, edge set a subset of
    the input edges with unchanged stabilizers, plus the equivariant pairing
    of removed edges with outside vertices.  These hold by construction:
    compress returns a G-tree and restricts the input's edge G-set, so every
    retained edge keeps its stabilizer, and the pairing is iota of a G-tree
    on an action-closed edge set.  The tests check all three.
    """
    # build_filtration runs the input prechecks first; each move checks the
    # tree it receives
    state = make_state(tree, u_set)
    bad = check_filtration(state)
    if bad:
        raise InternalCheckError("freshly built filtration invalid: " + "; ".join(bad))
    return compress_to_U(eliminate_problematic(state))
