"""Reference folding: the scan-all-edges `fold`, spur trimming and
`core_vertices` that `gtrees.stallings` replaced with worklist and queue
versions, and the eager `letter_runs` that its power reads replaced with
runs split on first entry.

Each pass of `fold` rescans every edge and unions one conflict, and the
trimming loops rescan the whole vertex (or edge) set for every removal, so
this is quadratic; the differential tests in `test_fold_worklist.py` compare
the fast code with it on small and medium graphs.
"""

from __future__ import annotations

from gtrees.stallings import CoreGraph, LabeledGraphBuilder


def trim_spurs(n: int, base: int, edges: set[tuple[int, int, int]]) -> tuple[int, int, list]:
    """Drop degree-1 vertices other than the base, renumber densely."""
    deg: dict[int, int] = {v: 0 for v in range(n)}
    for u, _, v in edges:
        deg[u] += 1
        deg[v] += 1
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if v != base and deg[v] <= 1:
                alive.discard(v)
                changed = True
                for u, lab, t in list(edges):
                    if u == v or t == v:
                        edges.discard((u, lab, t))
                        other = t if u == v else u
                        if other in alive and other != v:
                            deg[other] -= 1
    renum = {v: i for i, v in enumerate(sorted(alive))}
    new_edges = [(renum[u], lab, renum[v]) for u, lab, v in edges]
    return len(alive), renum[base], new_edges


def fold(builder: LabeledGraphBuilder) -> CoreGraph:
    """Union the lowest-index conflict, rescan, repeat."""
    n = builder.n_vertices
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    edges = list(builder.edges)
    while True:
        conflicts = []
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        for u, lab, v in edges:
            ru, rv = find(u), find(v)
            w = seen_out.get((ru, lab))
            if w is None:
                seen_out[(ru, lab)] = rv
            elif w != rv:
                conflicts.append((w, rv))
            w = seen_in.get((rv, lab))
            if w is None:
                seen_in[(rv, lab)] = ru
            elif w != ru:
                conflicts.append((w, ru))
        if not conflicts:
            break
        union(*min(conflicts))

    roots = sorted({find(v) for v in range(n)})
    renum = {r: i for i, r in enumerate(roots)}
    folded_edges = {(renum[find(u)], lab, renum[find(v)]) for u, lab, v in edges}
    n2, base2, edges2 = trim_spurs(len(roots), renum[find(builder.base)], folded_edges)
    return core_from_edges(builder.alphabet, n2, base2, edges2)


def core_from_edges(alphabet, n: int, base: int, edges) -> CoreGraph:
    """The CoreGraph with these (source, label, target) edges: one column
    per label and side, `out[lab][u] = v` and `inn[lab][v] = u`."""
    k = alphabet.size
    out = [[None] * n for _ in range(k)]
    inn = [[None] * n for _ in range(k)]
    for u, lab, v in edges:
        assert out[lab][u] is None and inn[lab][v] is None, "edge set is not folded"
        out[lab][u] = v
        inn[lab][v] = u
    return CoreGraph(alphabet, base, tuple(map(tuple, out)), tuple(map(tuple, inn)))


def core_vertices(core: CoreGraph) -> frozenset[int]:
    """Vertices on some cyclically reduced closed path, by repeated sweeps."""
    if core.n_edges == 0:
        return frozenset({core.base})
    alive = set(range(core.n_vertices))
    deg = {v: core.degree(v) for v in alive}
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if deg[v] <= 1:
                alive.discard(v)
                changed = True
                for lab in range(core.alphabet.size):
                    w = core.out[lab][v]
                    if w is not None and w in alive:
                        deg[w] -= 1
                    w = core.inn[lab][v]
                    if w is not None and w in alive:
                        deg[w] -= 1
    return frozenset(alive)


def letter_runs(core: CoreGraph) -> tuple:
    """Each letter's partial injection, cut into cycles and paths, all at once.

    `letter_runs(core)[lab][v]` is (vertices, i, cyclic): the cycle or maximal
    path of lab-edges through v, in out-edge order, and v's index in it; an
    isolated vertex is a path of one.
    """
    per_label = []
    for lab in range(core.alphabet.size):
        place: list = [None] * core.n_vertices
        # paths start where no lab-edge comes in; what is left lies on cycles
        starts = [v for v in range(core.n_vertices) if core.inn[lab][v] is None]
        for first in starts + list(range(core.n_vertices)):
            if place[first] is not None:
                continue
            seq = [first]
            nxt = core.out[lab][first]
            while nxt is not None and nxt != first:
                seq.append(nxt)
                nxt = core.out[lab][nxt]
            run = tuple(seq)
            for i, v in enumerate(run):
                place[v] = (run, i, nxt is not None)
        per_label.append(tuple(place))
    return tuple(per_label)
