"""Reference descent paths: a BFS over the whole tree, then a filter.

This is the original, unpruned form of `gtrees.retract.paths_P` and of
`problematic` on top of it.  It is kept only as a differential test oracle
for the windowed search in `gtrees.retract`.
"""

from gtrees.errors import InternalCheckError, PreconditionError
from gtrees.ggraph import GPath


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
    out.sort(key=lambda p: (p.length, p.steps))
    return out


def oracle_problematic(state):
    """(problematic edges, problematic vertices) from the oracle paths."""
    filt = state.filtration
    bad_edges = set()
    bad_vertices = set()
    for w in state.w_set:
        ps = oracle_paths_P(state, w)
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
