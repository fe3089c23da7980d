"""Reference form of `gtrees.ggraph.compress`, kept only as a differential
test oracle: the components of the removed forest by a union-find, then one
sink per component, checked on every vertex (the form before compress
followed each vertex's removed out-edge to its sink).
"""

from gtrees.errors import PreconditionError
from gtrees.ggraph import CompressResult, GGraph, _mark_tree, _require_tree
from gtrees.unionfind import UnionFind


def oracle_compress(t, eprime):
    """compress(t, eprime), with the union-find's checks and messages."""
    _require_tree(t, "compress")
    keep = sorted(set(eprime))
    nv, ne = t.n_vertices, t.n_edges
    if not all(0 <= e < ne for e in keep):
        raise PreconditionError("edge subset contains a missing edge")
    if not t.edges.is_action_closed(keep):
        raise PreconditionError("edge subset is not action-closed")
    keep_set = set(keep)
    removed = [e for e in range(ne) if e not in keep_set]

    uf = UnionFind(nv)
    for e in removed:
        uf.union(t.iota[e], t.tau[e])
    comp_of = [uf.find(v) for v in range(nv)]
    out_deg = [0] * nv
    for e in removed:
        out_deg[t.iota[e]] += 1

    sink_of = {}
    for v in range(nv):
        c = comp_of[v]
        if out_deg[v] == 0:
            if c in sink_of:
                raise PreconditionError(f"component of vertex {v} has two sinks")
            sink_of[c] = v
    for v in range(nv):
        if comp_of[v] not in sink_of:
            raise PreconditionError(f"component of vertex {v} has no sink")
        if v != sink_of[comp_of[v]] and out_deg[v] != 1:
            raise PreconditionError(f"vertex {v} is not oriented towards a unique sink")

    phi = tuple([sink_of[comp_of[v]] for v in range(nv)])
    sinks = sorted(set(phi))
    new_vertices = t.vertices._restricted(sinks)
    new_edges = t.edges._restricted(keep)
    vidx = {v: i for i, v in enumerate(sinks)}
    iota = tuple([vidx[phi[t.iota[e]]] for e in keep])
    tau = tuple([vidx[phi[t.tau[e]]] for e in keep])
    return CompressResult(_mark_tree(GGraph(new_vertices, new_edges, iota, tau)), phi, tuple(sinks), tuple(keep))
