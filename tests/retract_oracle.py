"""Reference forms of the retract pipeline's fast paths, kept only as
differential test oracles:

- descent paths by a BFS over the whole tree, then a filter (the unpruned
  form of `gtrees.retract.paths_P` and of `problematic` on top of it);
- the path a slide step follows, picked from the sorted list of `paths_P`
  (the form before `_slide_path` took the search's first climbing endpoint);
- orbits and stabilizers by a scan over the group elements, one point at a
  time (the form before `GSet` kept a stabilizer table and orbit numbers);
- the filtration by rescanning the placed vertices at every stage and every
  orbit representative (the form before `build_filtration` kept level
  buckets and its lowest target per stabilizer);
- the distinguished edges of `compress_to_U` by translating each chosen edge
  by every group element (the form before `_distinguished_edges` translated
  it along the generators);
- the whole geodesic between two vertices of a rooted tree (`rooted_path`,
  the form before `build_filtration` walked each geodesic only up to its cut
  in `_cut_orbits`).

The retract criterion `gtrees.gaction.is_retract` has its oracle in the
library: `retraction_map`, which builds the map it asserts.
"""

from gtrees.errors import InternalCheckError, PreconditionError
from gtrees.ggraph import GPath, bfs_parents, path_to
from gtrees.retract import Filtration, _retract_precheck, is_lower, paths_P


def oracle_orbit(s, p):
    if not 0 <= p < s.size:
        raise PreconditionError(f"point {p} outside the carrier")
    return frozenset(s.act[g][p] for g in s.group.elements)


def oracle_stabilizer(s, p):
    if not 0 <= p < s.size:
        raise PreconditionError(f"point {p} outside the carrier")
    return frozenset(g for g in s.group.elements if s.act[g][p] == p)


def rooted_path(parent, depth, a, b):
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


def oracle_build_filtration(tree, u_set):
    """Degrees stagewise, as `gtrees.retract.build_filtration` assigns them."""
    u = frozenset(u_set)
    _retract_precheck(tree, u)
    nv, ne = tree.n_vertices, tree.n_edges
    vstab = [oracle_stabilizer(tree.vertices, v) for v in range(nv)]
    adj = tree.adjacency()
    edge_level = {}
    vertex_level = {v: 0 for v in u}

    def place_edges(es, gamma):
        for e in es:
            edge_level[e] = gamma
            for v in (tree.iota[e], tree.tau[e]):
                if v not in vertex_level:
                    vertex_level[v] = gamma

    def lowest_fresh_orbit():
        e0 = min(e for e in range(ne) if e not in edge_level)
        return sorted(oracle_orbit(tree.edges, e0))

    gamma = 0
    while len(edge_level) < ne:
        gamma += 1
        if gamma > ne + 1:
            raise InternalCheckError("filtration construction failed to terminate")
        if gamma == 1:
            place_edges(lowest_fresh_orbit(), gamma)
            continue
        alpha = gamma - 1
        v_alpha = sorted(v for v, lvl in vertex_level.items() if lvl == alpha)
        collected = set()
        seen_orbit = set()
        for w in v_alpha:
            if w in seen_orbit:
                continue
            seen_orbit |= oracle_orbit(tree.vertices, w)
            target = None
            for v in sorted(vertex_level):
                if vertex_level[v] < alpha and vstab[w] <= vstab[v]:
                    target = v
                    break
            if target is None:
                raise InternalCheckError("no placed vertex absorbs the stabilizer of a placed vertex")
            path = path_to(bfs_parents(adj, w, stop=target), target)
            cut = next(
                i
                for i in range(1, len(path.vertices))
                if path.vertices[i] in vertex_level and vertex_level[path.vertices[i]] < alpha
            )
            for z in path.vertices[: cut + 1]:
                if not vstab[w] <= vstab[z]:
                    raise InternalCheckError("stabilizer does not fix the chosen descent geodesic")
            for e, _ in path.steps[:cut]:
                collected |= oracle_orbit(tree.edges, e)
        if any(edge_level.get(e, gamma) < alpha for e in collected):
            raise InternalCheckError("descent geodesic used an edge below its window")
        fresh = sorted(e for e in collected if e not in edge_level)
        if fresh:
            place_edges(fresh, gamma)
        else:
            place_edges(lowest_fresh_orbit(), gamma)

    kappa = 1 + max(edge_level.values(), default=0)
    vdeg = tuple([vertex_level[v] for v in range(nv)])
    edeg = tuple([edge_level[e] for e in range(ne)])
    return Filtration(vdeg, edeg, kappa)


def oracle_paths_P(state, w):
    """All reduced paths from w whose pointwise stabilizer equals stab(w),
    which end strictly below deg(w), and whose edges stay in the window
    {deg(w), deg(w)+1}.  Sorted by (length, steps)."""
    if w in state.u_set:
        raise PreconditionError("descent paths are defined for outside vertices only")
    tree, filt = state.tree, state.filtration
    dw = filt.vdeg[w]
    adj = tree.adjacency()
    parent = {w: (-1, 0, -1)}
    order = [w]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for e, eps, other in adj[v]:
            if other not in parent:
                parent[other] = (v, eps, e)
                order.append(other)
    out = []
    for v in order:
        if v == w or filt.vdeg[v] >= dw:
            continue
        verts = [v]
        steps = []
        cur = v
        ok = True
        while cur != w:
            prev, eps, e = parent[cur]
            if filt.edeg[e] not in (dw, dw + 1):
                ok = False
                break
            steps.append((e, eps))
            verts.append(prev)
            cur = prev
        if not ok:
            continue
        verts.reverse()
        steps.reverse()
        if all(state.vstab(w) <= state.vstab(z) for z in verts):
            out.append(GPath(tuple(verts), tuple(steps)))
    out.sort(key=lambda p: (len(p.steps), p.steps))
    return out


def oracle_slide_path(state, v0):
    """The path a slide step at the problematic vertex v0 follows, chosen
    from the whole sorted list of paths_P (the form before
    `gtrees.retract._slide_path` read it off the window search): the least
    shortest path whose second vertex is one level above v0."""
    vdeg = state.filtration.vdeg
    ps = paths_P(state, v0)
    d = len(ps[0].steps)
    return next(p for p in ps if len(p.steps) == d and vdeg[p.vertices[1]] == vdeg[v0] + 1)


def oracle_problematic(state):
    """(problematic edges, problematic vertices) from the oracle paths."""
    filt = state.filtration
    bad_edges = set()
    bad_vertices = set()
    for w in state.w_set:
        ps = oracle_paths_P(state, w)
        if not ps:
            raise InternalCheckError(f"no descent path from vertex {w}: filtration invalid")
        d = len(ps[0].steps)
        dw = filt.vdeg[w]
        for p in ps:
            if len(p.steps) != d:
                break
            if filt.vdeg[p.vertices[1]] == dw + 1:
                bad_vertices.add(w)
                bad_edges.add(p.steps[0][0])
    return frozenset(bad_edges), frozenset(bad_vertices)


def oracle_distinguished_edges(state, tree):
    """Outside vertex -> distinguished edge, as `compress_to_U` chooses them
    on tree, state.tree reoriented downhill."""
    distinguished = {}
    va, ea = tree.vertices.act, tree.edges.act
    for v0 in sorted(state.w_set):
        if v0 in distinguished:
            continue
        chosen = paths_P(state, v0)[0]
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
    return distinguished
