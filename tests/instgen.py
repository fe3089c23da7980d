"""Random finite G-tree instances for property suites.

Builds a random tree, harvests automorphisms by swapping isomorphic sibling
subtrees, closes a few of them into a small permutation group (rejecting any
group that inverts an edge), equips the edges with an equivariant
orientation, and samples a valid retract of the vertex set.
"""

import random
from collections import defaultdict

from gtrees.gaction import FiniteGroup, GSet, is_retract
from gtrees.ggraph import GGraph, tree_with_trivial_group


def random_tree_edges(rng, n):
    return [(rng.randrange(i), i) for i in range(1, n)]


def _adjacency(n, edges):
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _center(n, edges):
    if n == 1:
        return [0]
    adj = {v: set(ns) for v, ns in _adjacency(n, edges).items()}
    alive = set(range(n))
    while len(alive) > 2:
        leaves = [v for v in alive if len(adj[v]) <= 1]
        for leaf in leaves:
            alive.discard(leaf)
            for w in adj[leaf]:
                adj[w].discard(leaf)
            adj[leaf] = set()
    return sorted(alive)


def _rooted_children(n, edges, root):
    adj = _adjacency(n, edges)
    children = {v: [] for v in range(n)}
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                queue.append(w)
    return children


def _ahu_codes(children, root):
    code = {}

    def go(v):
        subs = sorted(go(c) for c in children[v])
        code[v] = "(" + "".join(subs) + ")"
        return code[v]

    go(root)
    return code


def _align(children, code, a, b, perm):
    """Extend perm with an isomorphism of the subtrees rooted at a and b."""
    perm[a] = b
    perm[b] = a
    ca = sorted(children[a], key=lambda v: (code[v], v))
    cb = sorted(children[b], key=lambda v: (code[v], v))
    for x, y in zip(ca, cb):
        _align(children, code, x, y, perm)


def sibling_swap_generators(n, edges):
    """Permutations swapping two isomorphic sibling subtrees, one per pair."""
    root = _center(n, edges)[0]
    children = _rooted_children(n, edges, root)
    code = _ahu_codes(children, root)
    gens = []
    for v in range(n):
        groups = defaultdict(list)
        for c in children[v]:
            groups[code[c]].append(c)
        for group in groups.values():
            for i in range(len(group) - 1):
                perm = list(range(n))
                swap = {}
                _align(children, code, group[i], group[i + 1], swap)
                for x, y in swap.items():
                    perm[x] = y
                gens.append(tuple(perm))
    return gens


def _mulclose(perms, cap):
    ident = tuple(range(len(perms[0])))
    els = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                b = tuple(g[a[i]] for i in range(len(a)))
                if b not in els:
                    if len(els) >= cap:
                        return None
                    els.add(b)
                    nxt.append(b)
        frontier = nxt
    return els


def _inverts_an_edge(els, edges):
    return any(p[u] == v and p[v] == u for p in els for u, v in edges)


def random_instance(rng, max_vertices=40, max_group=24):
    """A G-tree plus a valid retract of its vertex set."""
    n = rng.randrange(2, max_vertices + 1)
    tree_edges = random_tree_edges(rng, n)
    candidates = sibling_swap_generators(n, tree_edges)
    rng.shuffle(candidates)
    chosen = []
    for perm in candidates[: rng.randrange(0, 4)]:
        trial = chosen + [perm]
        els = _mulclose(trial, max_group + 1)
        if els is None or len(els) > max_group or _inverts_an_edge(els, tree_edges):
            continue
        chosen = trial
    if not chosen:
        chosen = [tuple(range(n))]

    group = FiniteGroup.from_generator_permutations(chosen)
    vertices = GSet.from_generator_images(group, n, chosen)

    # equivariant edge orientation: orbit representatives flip a fair coin
    pair_index = {}
    for k, (u, v) in enumerate(tree_edges):
        pair_index[frozenset((u, v))] = k
    oriented = {}
    for u, v in tree_edges:
        key = frozenset((u, v))
        if key in oriented:
            continue
        if rng.random() < 0.5:
            u, v = v, u
        stack = [(u, v)]
        oriented[key] = (u, v)
        while stack:
            a, b = stack.pop()
            for g in chosen:
                ga, gb = g[a], g[b]
                k2 = frozenset((ga, gb))
                if k2 not in oriented:
                    oriented[k2] = (ga, gb)
                    stack.append((ga, gb))
    iota = []
    tau = []
    keys = sorted(pair_index, key=lambda k: pair_index[k])
    for key in keys:
        a, b = oriented[key]
        iota.append(a)
        tau.append(b)
    edge_pos = {key: i for i, key in enumerate(keys)}
    gen_rows = []
    for g in chosen:
        row = [edge_pos[frozenset((g[iota[i]], g[tau[i]]))] for i in range(len(keys))]
        gen_rows.append(row)
    eset = GSet.from_generator_images(group, len(keys), gen_rows)
    t = GGraph(vertices, eset, tuple(iota), tuple(tau))

    u_set = sample_retract(rng, t)
    return t, u_set


def instance_with_vertices(rng, n, max_vertices, max_group=24):
    """random_instance conditioned on n vertices, as the benchmark's
    retract workload draws it: generator states whose first draw, the
    vertex count, is another count are skipped, so no instance is built
    only to be rejected."""
    while True:
        state = rng.getstate()
        if rng.randrange(2, max_vertices + 1) == n:
            rng.setstate(state)
            return random_instance(rng, max_vertices=max_vertices, max_group=max_group)


def sample_retract(rng, t: GGraph):
    """A random action-closed vertex subset satisfying the retract condition."""
    orbits = t.vertices.orbits()
    fixed = [v for v in range(t.n_vertices) if len(t.vertices.orbit(v)) == 1 and len(t.vertices.stabilizer(v)) == t.group.order]
    for _ in range(6):
        picked = [orb for orb in orbits if rng.random() < 0.4]
        u = set().union(*picked) if picked else set()
        if u and is_retract(t.vertices, u):
            return frozenset(u)
    anchor = {fixed[0]} if fixed else set(orbits[0])
    u = set(anchor)
    for orb in orbits:
        if rng.random() < 0.3:
            u |= orb
    assert is_retract(t.vertices, u)
    return frozenset(u)


def random_slide_candidates(t: GGraph):
    """All (e, f) pairs satisfying the slide preconditions."""
    out = []
    for e in range(t.n_edges):
        se = t.edges.stabilizer(e)
        oe = t.edges.orbit(e)
        for f in range(t.n_edges):
            if t.tau[e] == t.iota[f] and not (oe & t.edges.orbit(f)) and se <= t.edges.stabilizer(f):
                out.append((e, f))
    return out


def equivariant_sink_orientation(rng, t: GGraph, removed: set[int]):
    """Flip-set making every component of (V, removed) point at one sink."""
    uf = {v: v for v in range(t.n_vertices)}

    def find(a):
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    for e in removed:
        ra, rb = find(t.iota[e]), find(t.tau[e])
        if ra != rb:
            uf[max(ra, rb)] = min(ra, rb)
    comps = defaultdict(set)
    for v in range(t.n_vertices):
        comps[find(v)].add(v)
    comp_edges = defaultdict(list)
    for e in removed:
        comp_edges[find(t.iota[e])].append(e)

    sink_of_comp = {}
    va = t.vertices.act
    for root, verts in sorted(comps.items()):
        if root in sink_of_comp:
            continue
        sub_edges = [(t.iota[e], t.tau[e]) for e in comp_edges[root]]
        renum = {v: i for i, v in enumerate(sorted(verts))}
        back = {i: v for v, i in renum.items()}
        local = [(renum[a], renum[b]) for a, b in sub_edges]
        center = back[_center(len(verts), local)[0]]
        for g in t.group.elements:
            img_root = find(va[g][root])
            sink_of_comp.setdefault(img_root, va[g][center])

    flips = set()
    for e in removed:
        comp = find(t.iota[e])
        sink = sink_of_comp[comp]
        # the edge must point towards the sink inside its component tree
        verts = comps[comp]
        sub = [ee for ee in comp_edges[comp]]
        dist = {sink: 0}
        queue = [sink]
        adj = defaultdict(list)
        for ee in sub:
            adj[t.iota[ee]].append(t.tau[ee])
            adj[t.tau[ee]].append(t.iota[ee])
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist[t.iota[e]] < dist[t.tau[e]]:
            flips.add(e)
    return flips


# Shape families: trees with the trivial group on n vertices, each with a
# one-point retract.  Each returns (tree, U); edges point away from vertex 0.


def path_instance(n, u_end):
    """The path 0 - 1 - ... - n-1, with U = {u_end}, u_end 0 or n - 1."""
    return tree_with_trivial_group([(i, i + 1) for i in range(n - 1)]), frozenset({u_end})


def star_instance(n):
    """The star with centre 0 and leaves 1..n-1, with U = {n - 1}."""
    return tree_with_trivial_group([(0, i) for i in range(1, n)]), frozenset({n - 1})


def broom_instance(n, u_at):
    """A broom: the handle 0 - 1 - ... - h-1 (h = n // 2), and the bristles
    h..n-1 joined to h - 1.  U is the handle's far end {0} when u_at is
    "handle", and the last bristle {n - 1} when it is "bristle"."""
    h = n // 2
    edges = [(i, i + 1) for i in range(h - 1)] + [(h - 1, b) for b in range(h, n)]
    return tree_with_trivial_group(edges), frozenset({0 if u_at == "handle" else n - 1})


def caterpillar_instance(n):
    """A caterpillar: the spine 0 - 1 - ... - k-1 (k = n // 2), a leg k + i
    on each spine vertex i (and one more on spine vertex 0 when n is odd),
    with U = {k - 1}, the spine's far end."""
    k = n // 2
    edges = [(i, i + 1) for i in range(k - 1)] + [((v - k) % k, v) for v in range(k, n)]
    return tree_with_trivial_group(edges), frozenset({k - 1})
