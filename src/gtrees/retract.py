"""Retracting the vertex set of a finite G-tree onto a G-retract.

The pipeline assigns a degree map (a filtration) to vertices and edges,
removes the "problematic" configurations where every shortest descent path
must first climb one level (by equivariant sliding), and finally compresses
one distinguished edge per outside vertex to land on a G-tree whose vertex
set is exactly the retract.

Degrees are natural numbers here: on finite instances every stage of the
transfinite construction collapses to a successor step, and the limit-stage
branches are unreachable (guarded by internal checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .errors import InternalCheckError, PreconditionError
from .ggraph import (
    Adjacency,
    GGraph,
    GPath,
    bfs_parents,
    compress,
    path_to,
    reorient,
    rooted_path,
    slide,
    validate,
)
from .unionfind import UnionFind


@dataclass(frozen=True)
class Filtration:
    """Degree map on vertices and edges; kappa = 1 + max degree."""

    vdeg: tuple[int, ...]
    edeg: tuple[int, ...]
    kappa: int


@dataclass(frozen=True)
class Move:
    kind: str
    detail: dict
    pre: str
    post: str


@dataclass(frozen=True)
class RetractState:
    """Immutable snapshot of the pipeline: tree + filtration + move history.

    Each snapshot builds its tree's adjacency once and keeps the descent
    paths of each outside vertex once paths_P has searched them.  A slide
    changes which paths exist, so eliminate_problematic makes a new snapshot
    (with_tree) after each one.  A reorientation changes only the signs of
    the flipped edges on those paths, so compress_to_U reads the snapshot it
    is given (see there) and makes none.  Every tree version shares the
    input's vertex G-set, so its stabilizer table is read from the tree.
    """

    tree: GGraph
    filtration: Filtration
    u_set: frozenset[int]
    move_log: tuple[Move, ...] = ()
    _adj: Adjacency = field(init=False, compare=False, repr=False)
    _paths: dict[int, list[GPath]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # built per snapshot, so dataclasses.replace in with_tree never
        # carries the adjacency or the descent paths of the tree before a move
        object.__setattr__(self, "_adj", self.tree.adjacency())
        object.__setattr__(self, "_paths", {})

    @property
    def w_set(self) -> frozenset[int]:
        return frozenset(range(self.tree.n_vertices)) - self.u_set

    def vstab(self, v: int) -> frozenset[int]:
        return self.tree.vertices.stabilizers()[v]

    def with_tree(self, tree: GGraph, new_moves: Iterable[Move]) -> "RetractState":
        return replace(self, tree=tree, move_log=self.move_log + tuple(new_moves))


def make_state(tree: GGraph, u_set: Iterable[int], filtration: Optional[Filtration] = None) -> RetractState:
    u = frozenset(u_set)
    if filtration is None:
        filtration = build_filtration(tree, u)
    return RetractState(tree, filtration, u)


# ---------------------------------------------------------------------------
# building a filtration
# ---------------------------------------------------------------------------


def _retract_precheck(tree: GGraph, u: frozenset[int]) -> None:
    from .gaction import retraction_map

    rep = validate(tree)
    if not rep.is_tree:
        raise PreconditionError("input graph is not a G-tree")
    if retraction_map(tree.vertices, u) is None:
        raise PreconditionError("the given vertex subset is not a G-retract")


def build_filtration(tree: GGraph, u_set: Iterable[int]) -> Filtration:
    """Assign degrees stagewise.

    Stage 1 consumes one fresh edge orbit.  A later stage alpha+1 routes each
    vertex first seen at level alpha down a geodesic towards an already-placed
    vertex fixed by its stabilizer; the new edges on those geodesics form the
    next level (or, if none are new, one fresh orbit is consumed).

    The vertices first placed at each level are kept in a bucket, and the
    candidate targets (levels below alpha) in one ascending list that grows
    by a bucket per stage, so no stage rescans the tree.  The tree is rooted
    once at vertex 0, and each geodesic is read by walking its two ends up
    to their lowest common ancestor (rooted_path), in time proportional to
    its length.
    """
    u = frozenset(u_set)
    _retract_precheck(tree, u)
    nv, ne = tree.n_vertices, tree.n_edges
    vstab = tree.vertices.stabilizers()
    parent = bfs_parents(tree.adjacency(), 0)
    depth = [0] * nv
    for v, (prev, _, _) in parent.items():
        if prev != -1:
            depth[v] = depth[prev] + 1
    edge_level: dict[int, int] = {}
    vertex_level: dict[int, int] = {v: 0 for v in u}
    buckets: list[list[int]] = [sorted(u)]  # level -> vertices first placed there
    candidates: list[int] = []  # the vertices below the current alpha, ascending
    lowest_unplaced = 0  # every edge below it has a level

    def place_edges(es: Iterable[int], gamma: int) -> None:
        bucket = []
        for e in es:
            edge_level[e] = gamma
            for v in (tree.iota[e], tree.tau[e]):
                if v not in vertex_level:
                    vertex_level[v] = gamma
                    bucket.append(v)
        buckets.append(bucket)

    def lowest_fresh_orbit() -> list[int]:
        nonlocal lowest_unplaced
        while lowest_unplaced in edge_level:
            lowest_unplaced += 1
        return sorted(tree.edges.orbit(lowest_unplaced))

    gamma = 0
    while len(edge_level) < ne:
        gamma += 1
        if gamma > ne + 1:
            raise InternalCheckError("filtration construction failed to terminate")
        if gamma == 1:
            place_edges(lowest_fresh_orbit(), gamma)
            continue
        alpha = gamma - 1
        candidates += buckets[alpha - 1]
        candidates.sort()
        # the target of w is the lowest candidate whose stabilizer holds
        # stab(w), so within a stage it depends on stab(w) alone
        target_of: dict[frozenset[int], int] = {}
        collected: set[int] = set()
        seen_orbit: set[int] = set()
        for w in sorted(buckets[alpha]):
            if w in seen_orbit:
                continue
            seen_orbit |= tree.vertices.orbit(w)
            sw = vstab[w]
            target = target_of.get(sw)
            if target is None:
                target = next((v for v in candidates if sw <= vstab[v]), None)
                if target is None:
                    raise InternalCheckError("no placed vertex absorbs the stabilizer of a placed vertex")
                target_of[sw] = target
            path = rooted_path(parent, depth, w, target)
            cut = next(
                i
                for i in range(1, len(path.vertices))
                if path.vertices[i] in vertex_level and vertex_level[path.vertices[i]] < alpha
            )
            for e, _ in path.steps[:cut]:
                collected |= tree.edges.orbit(e)
        fresh = sorted(e for e in collected if e not in edge_level)
        if fresh:
            place_edges(fresh, gamma)
        else:
            place_edges(lowest_fresh_orbit(), gamma)

    kappa = 1 + max(edge_level.values(), default=0)
    vdeg = tuple([vertex_level[v] for v in range(nv)])
    edeg = tuple([edge_level[e] for e in range(ne)])
    return Filtration(vdeg, edeg, kappa)


def check_filtration(state: RetractState) -> list[str]:
    """Executable form of the four filtration conditions on state.filtration
    over state.tree and the retract state.u_set; empty means valid.

    The caller's state is checked as it stands (make_state builds one from a
    tree, a retract and a filtration), so its stabilizers and adjacency are
    not derived again.  The conditions are stated for a tree.  On a graph
    with a cycle, (1) reports the cycle, and (4) asks whether paths_P finds
    some window path (see there), not whether the BFS tree of the whole
    graph holds one.
    """
    tree, u, filt = state.tree, state.u_set, state.filtration
    problems: list[str] = []
    nv, ne = tree.n_vertices, tree.n_edges

    # degrees must be constant on orbits (action-closed level sets; also (3))
    for v in range(nv):
        for g in tree.group.generators:
            if filt.vdeg[tree.vertices.act[g][v]] != filt.vdeg[v]:
                problems.append(f"(1) vertex degree not constant on the orbit of {v}")
    for e in range(ne):
        for g in tree.group.generators:
            if filt.edeg[tree.edges.act[g][e]] != filt.edeg[e]:
                problems.append(f"(1) edge degree not constant on the orbit of {e}")

    # (1) every initial segment is a subforest with both endpoints present
    for e in range(ne):
        if max(filt.vdeg[tree.iota[e]], filt.vdeg[tree.tau[e]]) > filt.edeg[e]:
            problems.append(f"(1) edge {e} enters a level before both endpoints")
    # the edges below beta hold a cycle exactly when beta exceeds the degree
    # of the first edge that closes one, adding edges in degree order
    uf = UnionFind(nv)
    for e in sorted(range(ne), key=filt.edeg.__getitem__):
        if not uf.union(tree.iota[e], tree.tau[e]):
            for beta in range(max(0, filt.edeg[e] + 1), filt.kappa + 1):
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
        if not paths_P(state, w):
            problems.append(f"(4) no descent path from vertex {w}")
    return problems


# ---------------------------------------------------------------------------
# descent paths, the lower-than order, problematic configurations
# ---------------------------------------------------------------------------


def paths_P(state: RetractState, w: int) -> list[GPath]:
    """All reduced paths from w whose pointwise stabilizer equals stab(w),
    which end strictly below deg(w), and whose edges stay in the window
    {deg(w), deg(w)+1}.  Sorted by (length, steps).

    The search only crosses window edges into vertices z with
    stab(w) <= stab(z).  In a tree the path to each vertex is unique, and
    both conditions hold for a path exactly when they hold for each of its
    prefixes, so this reaches precisely the endpoints of qualifying paths,
    along those paths, without visiting the rest of the tree.

    The input is meant to be a tree.  On a graph with a cycle, each vertex
    the windowed search reaches gets one path, its first shortest path
    inside the window; the rest of the graph plays no part.

    The search runs once per snapshot and vertex: the list is kept on the
    state, and every caller gets that same list, so none may change it.
    """
    memo = state._paths
    if w in memo:
        return memo[w]
    if w in state.u_set:
        raise PreconditionError("descent paths are defined for outside vertices only")
    vdeg, edeg, vstab = state.filtration.vdeg, state.filtration.edeg, state.tree.vertices.stabilizers()
    dw = vdeg[w]
    window, sw = (dw, dw + 1), vstab[w]
    parent = bfs_parents(state._adj, w, lambda e, z: edeg[e] in window and sw <= vstab[z])
    out = [path_to(parent, v) for v in parent if vdeg[v] < dw]
    out.sort(key=lambda p: (p.length, p.steps))
    memo[w] = out
    return out


def d_T(state: RetractState, w: int) -> int:
    ps = paths_P(state, w)
    if not ps:
        raise InternalCheckError(f"no descent path from vertex {w}: filtration invalid")
    return ps[0].length


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
    eliminate_problematic.
    """
    tree, filt = state.tree, state.filtration
    bad_edges = set()
    bad_vertices = set()
    for w in state.w_set:
        ps = paths_P(state, w)
        if not ps:
            raise InternalCheckError(f"no descent path from vertex {w}: filtration invalid")
        d = ps[0].length
        dw = filt.vdeg[w]
        for p in ps:
            if p.length != d:
                break
            if filt.vdeg[p.vertices[1]] == dw + 1:
                bad_vertices.add(w)
                bad_edges.add(p.steps[0][0])
    return frozenset(bad_edges), frozenset(bad_vertices)


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
    seen: set[int] = set()
    count = 0
    for e in range(tree.n_edges):
        if e in seen or filt.edeg[e] != level:
            continue
        a, b = filt.vdeg[tree.iota[e]], filt.vdeg[tree.tau[e]]
        if (a == level and b == level - 1) or (b == level and a == level - 1):
            count += 1
            seen |= tree.edges.orbit(e)
    return count


def eliminate_problematic(state: RetractState) -> RetractState:
    """Slide away problematic vertices level by level.

    For a problematic vertex v0 with minimal descent path v0, e1, v1, ...,
    the far endpoint of e1 is slid along the path to the first vertex already
    placed at or below v0's level; the moved orbit stops being problematic
    and no other edge's incidence changes.  The degree map never changes.

    Nor does the action, and the moved tau lands below its orbit's level in
    a tree that stays a G-tree, so filtration conditions (1)-(3) still hold
    after a slide; problematic re-reads (4) and raises on a vertex with no
    descent path.  slide checks its own preconditions, and _slide_endpoint
    reports a failed one as an internal fault.
    """
    filt = state.filtration
    # the tree only changes on a slide, so the problematic set is recomputed
    # exactly then
    _, bad_v = problematic(state)
    for alpha in range(1, filt.kappa):
        while True:
            level_bad = sorted(v for v in bad_v if filt.vdeg[v] == alpha)
            if not level_bad:
                if bad_v and min(filt.vdeg[v] for v in bad_v) < alpha:
                    raise InternalCheckError("a lower level became problematic again")
                break
            v0 = level_bad[0]
            before = _problem_orbit_count(state, alpha + 1)
            ps = paths_P(state, v0)
            d = ps[0].length
            chosen = next(
                p for p in ps if p.length == d and filt.vdeg[p.vertices[1]] == alpha + 1
            )
            e1, eps1 = chosen.steps[0]
            i = next(
                j
                for j in range(2, d + 1)
                if filt.vdeg[chosen.vertices[j]] < alpha + 1
            )

            log: list[Move] = []
            tree = state.tree
            if eps1 == -1:
                tree = _log_move(state, log, "reorient", {"orbit_of": e1}, reorient(tree, tree.edges.orbit(e1)))
            for e, eps in chosen.steps[1:i]:
                tree = _slide_endpoint(state, tree, e1, e, eps, log)
            if eps1 == -1:
                tree = _log_move(state, log, "reorient", {"orbit_of": e1}, reorient(tree, tree.edges.orbit(e1)))
            state = state.with_tree(tree, log)

            after = _problem_orbit_count(state, alpha + 1)
            if after >= before:
                raise InternalCheckError("problem-reducing step did not reduce problematic orbits")
            _, bad_v = problematic(state)
    if bad_v:
        raise InternalCheckError("problematic vertices survived elimination")
    return state


# ---------------------------------------------------------------------------
# compressing onto the retract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetractResult:
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

    flips: set[int] = set()
    seen: set[int] = set()
    for e in range(tree.n_edges):
        if e in seen:
            continue
        orb = tree.edges.orbit(e)
        seen |= orb
        if is_lower(state, tree.iota[e], tree.tau[e]):
            flips |= orb
    if flips:
        tree = _log_move(state, log, "reorient", {"flips": sorted(flips)}, reorient(tree, flips))

    distinguished: dict[int, int] = {}
    va, ea = tree.vertices.act, tree.edges.act
    for v0 in sorted(state.w_set):
        if v0 in distinguished:
            continue
        ps = paths_P(state, v0)
        chosen = ps[0]
        e1 = chosen.steps[0][0]
        if tree.iota[e1] != v0:
            raise InternalCheckError("distinguished edge does not leave its vertex")
        if tree.edges.stabilizer(e1) != state.vstab(v0):
            raise InternalCheckError("distinguished edge stabilizer differs from its vertex")
        if not is_lower(state, chosen.vertices[1], v0):
            raise InternalCheckError("distinguished neighbour is not lower")
        for g in tree.group.elements:
            w, eg = va[g][v0], ea[g][e1]
            if distinguished.setdefault(w, eg) != eg:
                raise InternalCheckError("equivariant distinguished choice clashed")
    removed_set = set(distinguished.values())
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
