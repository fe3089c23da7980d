"""Behaviour lock for the retract pipeline.

The windowed descent-path search must return exactly what the full-tree BFS
oracle returns, on every state the pipeline passes through, and the move
logs and results of a seeded corpus must keep their recorded digest.
"""

import copy
import hashlib
import json
import random
from collections import Counter

import pytest

from gaction_oracle import oracle_is_equivariant, oracle_retraction_map
from instgen import (
    broom_instance,
    caterpillar_instance,
    every_retract,
    instance_with_vertices,
    path_instance,
    random_instance,
    random_slide_candidates,
    sibling_swap_generators,
    small_coset_trees,
    star_instance,
)
from retract_oracle import (
    oracle_build_filtration,
    oracle_distinguished_edges,
    oracle_orbit,
    oracle_paths_P,
    oracle_problematic,
    oracle_slide_path,
    oracle_stabilizer,
    rooted_path,
)
from test_verify_lock import log_log_slope

import gtrees.gaction as ga
import gtrees.ggraph as gg
import gtrees.retract as rt
from gtrees.errors import PreconditionError
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import GGraph, ggraph_to_json, reorient, tree_with_trivial_group, validate
from gtrees.retract import (
    Filtration,
    RetractState,
    build_filtration,
    check_filtration,
    compress_to_U,
    eliminate_problematic,
    is_lower,
    make_state,
    paths_P,
    problematic,
    retract_tree,
)

# sha256 of the corpus outputs below, recorded before descent paths were
# limited to their window; any change to a move, its order or a result shows
GOLDEN_SHA256 = "a03311ed73450fe56b0f1dc40977999eafc59592dd1e9b2bbeea2b3d2cfe806c"
# sha256 of the shape families' outputs (_shape_instances), recorded before
# the pipeline read the shortest-only search
SHAPES_SHA256 = "f633cd69220c43415be7c9436b750484a93fae73d07a958a70b5d3b4121bda8b"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20261017)
    small = [random_instance(rng, max_vertices=40, max_group=24) for _ in range(200)]
    medium = [random_instance(rng, max_vertices=80, max_group=24) for _ in range(20)]
    return small + medium


def _result_text(res) -> str:
    doc = {
        "moves": [[m.kind, m.detail, m.pre, m.post] for m in res.move_log],
        "tree": ggraph_to_json(res.tree),
        "removed_edges": list(res.removed_edges),
        "removed_to_vertex": {str(e): v for e, v in res.removed_to_vertex.items()},
        "bijection": {str(k): v for k, v in res.bijection_by_label.items()},
    }
    return json.dumps(doc, sort_keys=True, default=str)


def test_retract_corpus_matches_golden_digest(corpus):
    h = hashlib.sha256()
    for t, u in corpus:
        h.update(_result_text(retract_tree(t, u)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


def _shape_instances():
    """instgen's shape families at 12 and 41 vertices: the path with U at
    either end, the star, the broom with U at its handle's end or at a
    bristle, and the caterpillar."""
    out = []
    for n in (12, 41):
        out += [
            path_instance(n, 0),
            path_instance(n, n - 1),
            star_instance(n),
            broom_instance(n, "handle"),
            broom_instance(n, "bristle"),
            caterpillar_instance(n),
        ]
    return out


def test_shape_families_match_recorded_digest():
    # the path with U = {n - 1} slides n - 3 times, the broom with U at a
    # bristle and the caterpillar about n / 2 times, the rest never
    h = hashlib.sha256()
    slides = []
    for t, u in _shape_instances():
        res = retract_tree(t, u)
        assert validate(res.tree).is_tree and res.tree.vertices.labels == tuple(sorted(u))
        slides.append(sum(m.kind == "slide" for m in res.move_log))
        h.update(_result_text(res).encode() + b"\n")
    assert slides == [0, 9, 0, 0, 4, 3, 0, 38, 0, 0, 18, 17]
    assert h.hexdigest() == SHAPES_SHA256


def _fresh(t):
    """The same tree over new G-set objects, which hold no stabilizer table yet."""
    vs, es = t.vertices, t.edges
    return GGraph(GSet(vs.group, vs.act, vs.labels), GSet(es.group, es.act, es.labels), t.iota, t.tau)


def test_retract_derives_each_fact_once_per_tree_version(corpus, monkeypatch):
    # the input is checked once, by build_filtration's precheck, whose
    # rooting search is the G-tree check and which leaves the verdict on it; every move after it receives a tree that carries
    # the verdict, so no move runs a G-tree check.  Each tree the pipeline
    # passes through is digested once: before a move, the digest is the one
    # the previous move left.  Each snapshot searches the descent paths of a
    # vertex at most once, and each G-set builds its stabilizer table once
    # and its orbit numbers at most once.  The retract precheck tests the
    # criterion with is_retract and builds no retraction map.
    # build_filtration roots the tree with that one unwindowed search, and
    # compress_to_U's reorientation makes no new snapshot, so a tree with no
    # slide runs one shortest-only search (_descent) per outside vertex and
    # no full one (_window_search, under _slide_path), which only a slide step
    # runs, once for the vertex whose path it slides along.  Each graph builds
    # its adjacency once: the input's serves the filtration and the first
    # snapshot, and the tree of each slide step's snapshot builds its own
    calls = Counter()

    def count(owner, name, key=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ga, "is_retract")
    count(ga, "retraction_map")
    count(rt, "_retract_precheck", "precheck")
    count(gg, "validate", "move_validate")
    count(GGraph, "state_digest")
    count(rt, "build_filtration")
    count(rt, "bfs_parents", "unwindowed_bfs")
    count(GGraph, "_adjacency_table", "adjacency")
    count(RetractState, "with_tree", "slide_steps")

    # keyed by id; `alive` keeps every keyed object alive, so no id is reused
    alive = []
    searches, full_searches = Counter(), Counter()
    descent, window_search = rt._descent, rt._window_search

    def counted_descent(state, w):
        # a search runs only when the state keeps no result for w
        alive.append(state)
        searches[id(state), w] += w not in state._descents
        return descent(state, w)

    def counted_window_search(state, w):
        alive.append(state)
        full_searches[id(state), w] += 1
        return window_search(state, w)

    monkeypatch.setattr(rt, "_descent", counted_descent)
    monkeypatch.setattr(rt, "_window_search", counted_window_search)
    # per G-set: whether its stabilizers were asked for, and how often it
    # built its table; a G-set with no table fails the builds assertion
    queried, builds = set(), Counter()
    stabilizer = GSet.stabilizer
    stabilizers = getattr(GSet, "stabilizers", None)
    table = getattr(GSet, "_stabilizer_table", None)

    def queried_one(self, p):
        alive.append(self)
        queried.add(id(self))
        return stabilizer(self, p)

    def queried_all(self):
        alive.append(self)
        queried.add(id(self))
        return stabilizers(self)

    def built(self):
        builds[id(self)] += 1
        return table(self)

    monkeypatch.setattr(GSet, "stabilizer", queried_one)
    monkeypatch.setattr(GSet, "stabilizers", queried_all, raising=False)
    monkeypatch.setattr(GSet, "_stabilizer_table", built, raising=False)
    # per G-set: how often it built its generator walk (orbit numbers, and
    # the translation of the distinguished edges)
    orbit_builds = Counter()
    forest = GSet._forest

    def built_orbits(self):
        alive.append(self)
        orbit_builds[id(self)] += self._walk is None
        return forest(self)

    monkeypatch.setattr(GSet, "_forest", built_orbits)
    flipped_without_slides = 0
    for t, u in corpus:
        t = _fresh(t)
        calls.clear()
        searches.clear()
        full_searches.clear()
        queried.clear()
        builds.clear()
        orbit_builds.clear()
        res = retract_tree(t, u)
        slides = sum(m.kind == "slide" for m in res.move_log)
        # a slide step may slide along several edges and makes one snapshot
        steps = calls["slide_steps"]
        assert (steps > 0) == (slides > 0) and steps <= slides
        assert calls == Counter(
            is_retract=1,
            precheck=1,
            move_validate=0,
            state_digest=len(res.move_log) + 1,
            build_filtration=1,
            unwindowed_bfs=1,
            adjacency=1 + steps,
            slide_steps=steps,
        )
        assert max(searches.values(), default=0) <= 1
        assert max(full_searches.values(), default=0) <= 1
        assert sum(full_searches.values()) == steps
        n_outside = t.n_vertices - len(u)
        windowed = sum(searches.values())
        assert windowed <= n_outside * (1 + slides)
        if not slides:
            assert windowed == n_outside
            flipped_without_slides += any(m.kind == "reorient" for m in res.move_log)
        # edge stabilizers are read only by slide and by the choice of one
        # edge per outside vertex
        assert id(t.vertices) in queried
        assert (id(t.edges) in queried) == (len(u) < t.n_vertices)
        assert builds == Counter(queried)
        assert max(orbit_builds.values(), default=0) <= 1
    # compress_to_U flips an orbit on most of the trees that make no slide
    # (190 of 195), where a new snapshot would search every vertex again
    assert flipped_without_slides > 100, flipped_without_slides


def test_retract_work_grows_linearly_with_the_vertices(monkeypatch):
    # work contract on a seeded ladder of 125 to 1000 vertices, three trees
    # a rung, and on the star and the broom with U at its handle's end at
    # 250 to 2000 vertices.  build_filtration walks each geodesic only up to
    # its cut (the whole geodesic gives slope 1.2 on the random ladder), and
    # retract_tree runs one unwindowed search (the precheck's rooting
    # search) and one shortest-only search
    # (_descent) per outside vertex and snapshot (slopes 1.00 and 1.03 on
    # the random ladder).  A shortest-only search stops after the first
    # layer that holds an endpoint; its work is the adjacency rows it reads
    # (the vertices it expands) and the entries of those rows it scans, and
    # every vertex it reaches but its start is the far end of a scanned
    # entry.  A search that runs on past that layer reads the centre's row
    # of n - 1 entries from every leaf of the star (entries slope 2.0)
    rng = random.Random("retract-ladder")
    rungs = (125, 250, 500, 1000)
    ladder = [[instance_with_vertices(rng, n, n) for _ in range(3)] for n in rungs]
    shape_rungs = (250, 500, 1000, 2000)
    shapes = {
        "star": [[star_instance(n)] for n in shape_rungs],
        "broom-handle": [[broom_instance(n, "handle")] for n in shape_rungs],
    }
    work = Counter()

    def counting(f, key, amount):
        def counted(*args, **kwargs):
            out = f(*args, **kwargs)
            work[key] += amount(out)
            return out

        return counted

    class CountedRows:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, v):
            work["rows"] += 1
            work["entries"] += len(self.rows[v])
            return self.rows[v]

    searching = []
    adjacency, descent = GGraph.adjacency, rt._descent

    def counted_descent(state, w):
        work["search"] += w not in state._descents
        searching.append(w)
        try:
            return descent(state, w)
        finally:
            searching.pop()

    monkeypatch.setattr(GGraph, "adjacency", lambda self: CountedRows(adjacency(self)) if searching else adjacency(self))
    monkeypatch.setattr(rt, "_descent", counted_descent)
    monkeypatch.setattr(rt, "_cut_orbits", counting(rt._cut_orbits, "cut", len))
    monkeypatch.setattr(rt, "bfs_parents", counting(rt.bfs_parents, "search", lambda out: 1))

    def measure(family):
        per_rung = []
        for trees in family:
            work.clear()
            for t, u in trees:
                retract_tree(t, u)
            per_rung.append(dict(work))
        return {key: [rung.get(key, 0) for rung in per_rung] for key in ("cut", "search", "rows", "entries")}

    random_work = measure(ladder)
    assert log_log_slope(rungs, random_work["cut"]) <= 1.05, random_work
    for key in ("search", "rows", "entries"):
        assert log_log_slope(rungs, random_work[key]) <= 1.1, (key, random_work)
    for name, family in shapes.items():
        shape_work = measure(family)
        for key in ("search", "rows", "entries"):
            assert log_log_slope(shape_rungs, shape_work[key]) <= 1.1, (name, key, shape_work)


def test_every_tree_the_pipeline_builds_is_a_g_tree(corpus, monkeypatch):
    # the moves do not check the trees they return; every one the pipeline
    # builds is checked here
    built = Counter()

    def checked(name, tree_of):
        move = getattr(rt, name)

        def wrapped(*args):
            out = move(*args)
            assert validate(tree_of(out)).is_tree, name
            built[name] += 1
            return out

        monkeypatch.setattr(rt, name, wrapped)

    checked("slide", lambda t: t)
    checked("reorient", lambda t: t)
    checked("compress", lambda res: res.tree)
    for t, u in corpus:
        retract_tree(t, u)
    assert built["compress"] == len(corpus)
    assert built["slide"] > 0 and built["reorient"] > 0, built


def _assert_verdict_matches_validate(tree):
    # copy.copy rebuilds through GGraph.__init__, so the copy carries no verdict
    assert tree._is_tree == validate(copy.copy(tree)).is_tree


def test_carried_tree_verdict_matches_validate_on_a_fresh_copy(corpus, monkeypatch):
    # every tree a move builds inside the pipeline carries the verdict
    built = Counter()

    def checked(name, tree_of):
        move = getattr(rt, name)

        def wrapped(*args):
            out = move(*args)
            assert tree_of(out)._is_tree, name
            _assert_verdict_matches_validate(tree_of(out))
            built[name] += 1
            return out

        monkeypatch.setattr(rt, name, wrapped)

    checked("slide", lambda t: t)
    checked("reorient", lambda t: t)
    checked("compress", lambda res: res.tree)
    for t, u in corpus:
        retract_tree(t, u)
    assert built["slide"] > 0 and built["reorient"] > 0 and built["compress"] == len(corpus), built

    # chains of random legal slides on instgen trees: only the first slide
    # of a chain checks its input
    rng = random.Random(23)
    chained = 0
    for _ in range(100):
        t, _ = random_instance(rng, max_vertices=30, max_group=12)
        assert not t._is_tree
        for _ in range(5):
            cands = random_slide_candidates(t)
            if not cands:
                break
            t = gg.slide(t, *rng.choice(cands))
            assert t._is_tree
            _assert_verdict_matches_validate(t)
            chained += 1
        if t.n_edges:
            sub = gg.subdivide(t, rng.randrange(t.n_edges)).tree
            assert sub._is_tree
            _assert_verdict_matches_validate(sub)
    assert chained > 200, chained


def test_a_graph_that_is_no_tree_never_carries_the_verdict():
    # a triangle: reorient keeps what its input carries, and a move refuses it
    group = FiniteGroup.trivial()
    cycle = GGraph(GSet.trivial_action(group, 3), GSet.trivial_action(group, 3), (0, 1, 2), (1, 2, 0))
    flipped = reorient(cycle, [0])
    assert not flipped._is_tree
    _assert_verdict_matches_validate(flipped)
    with pytest.raises(PreconditionError, match="slide needs a G-tree input"):
        gg.slide(flipped, 0, 1)
    assert not flipped._is_tree


def _precheck_verdict(t, u):
    """Whether _retract_precheck accepts (t, u), on a copy that carries no
    G-tree verdict."""
    try:
        rt._retract_precheck(copy.copy(t), frozenset(u))
    except PreconditionError:
        return False
    return True


def test_precheck_verdict_matches_validate_and_is_retract(corpus):
    # the rooting search is the G-tree check: an equivariant graph with one
    # edge fewer than vertices is a tree exactly when the search reaches
    # every vertex, so each of these fails one of the three tests
    c2 = FiniteGroup.cyclic(2)
    swap3, swap2 = GSet.from_generator_images(c2, 3, [[2, 1, 0]]), GSet.from_generator_images(c2, 2, [[1, 0]])
    graphs = [
        tree_with_trivial_group([(0, 1), (1, 2), (2, 0)], n_vertices=4),  # a cycle and an isolated vertex
        tree_with_trivial_group([(0, 1), (2, 3)], n_vertices=5),  # a forest
        tree_with_trivial_group([(0, 1), (2, 3)], n_vertices=4),
        tree_with_trivial_group([(0, 0), (0, 1)], n_vertices=3),  # a loop edge
        GGraph(swap3, swap2, (0, 1), (1, 2)),  # a path whose iota is not equivariant
        GGraph(swap3, swap2, (0, 2), (1, 1)),  # the same path, equivariant
        tree_with_trivial_group([], n_vertices=0),
        tree_with_trivial_group([], n_vertices=1),
        tree_with_trivial_group([], n_vertices=2),
    ]
    graphs += [t for t, _ in corpus[:40]]
    checked = Counter()
    for t in graphs:
        everything = frozenset(range(t.n_vertices))
        first = t.vertices.orbits()[0] if t.n_vertices else everything
        for u in {frozenset(), everything, first, everything - first}:
            want = validate(t).is_tree and ga.is_retract(t.vertices, u)
            assert _precheck_verdict(t, u) == want, (t, u)
            checked[want] += 1
    assert checked[True] > 40 and checked[False] > 40, checked


def test_precheck_roots_the_tree_as_bfs_parents_does(corpus):
    for t, u in corpus:
        depth, up = rt._retract_precheck(copy.copy(t), frozenset(u))
        want_depth, want_up = [0] * t.n_vertices, [(-1, -1)] * t.n_vertices
        for v, (prev, _, e) in gg.bfs_parents(t.adjacency(), 0).items():
            if prev != -1:
                want_depth[v] = want_depth[prev] + 1
                want_up[v] = (prev, e)
        assert (depth, up) == (want_depth, want_up)


def _least_choice_not_equivariant():
    """Klein four-group V = <a, b> on a tree with U = {c, p_i, q_i}, and each
    outside vertex w_i joined to c, p_i and q_i (i in V, acting by left
    multiplication).  Each w_i descends in one step to c and to p_i, and
    takes the least edge index: the wp edge for w_0 and w_a, the cw edge for
    w_b and w_ab.  So only the translation of w_0's choice by b is
    equivariant, and a walk that read only the generator a would keep the
    least choice of w_b."""
    a, b = [1, 0, 3, 2], [2, 3, 0, 1]
    group = FiniteGroup.from_generator_permutations([a, b])
    # vertices: w_i = i, c = 4, p_i = 5 + i, q_i = 9 + i
    vertex_images = [[g[i] for i in range(4)] + [4] + [5 + g[i] for i in range(4)] + [9 + g[i] for i in range(4)] for g in (a, b)]
    vertices = GSet.from_generator_images(group, 13, vertex_images)
    # the wp edges come first at w_0 and w_a, the cw edges at w_b and w_ab
    names = [("wp", 0), ("cw", 0), ("cw", 2), ("wp", 2), ("cw", 3), ("wp", 3), ("wp", 1), ("cw", 1)]
    names += [("wq", i) for i in range(4)]
    index = {name: k for k, name in enumerate(names)}
    edges = GSet.from_generator_images(group, 12, [[index[kind, g[i]] for kind, i in names] for g in (a, b)])
    ends = {"wp": lambda i: (i, 5 + i), "cw": lambda i: (4, i), "wq": lambda i: (i, 9 + i)}
    iota, tau = zip(*[ends[kind](i) for kind, i in names])
    return GGraph(vertices, edges, iota, tau), frozenset(range(4, 13))


def test_distinguished_edges_walk_matches_all_elements_oracle(corpus):
    # on the corpus, on trees whose orbits need several generators, and on
    # one where the least choice at each vertex is not equivariant
    t, u = _least_choice_not_equivariant()
    state = eliminate_problematic(make_state(t, u))
    walked = rt._distinguished_edges(state, state.tree)
    assert [paths_P(state, w)[0].steps[0][0] for w in range(4)] == [0, 6, 2, 4]
    assert walked == {0: 0, 1: 6, 2: 3, 3: 5}
    moved_orbits = 0
    for t, u in corpus + _symmetric_instances() + small_coset_trees() + [(t, u)]:
        state = eliminate_problematic(make_state(t, u))
        res = compress_to_U(state)
        flips = [e for m in res.move_log[len(state.move_log) :] if m.kind == "reorient" for e in m.detail["flips"]]
        tree = reorient(state.tree, flips)
        walked = rt._distinguished_edges(state, tree)
        assert walked == oracle_distinguished_edges(state, tree)
        assert sorted(walked.values()) == list(res.removed_edges)
        moved_orbits += sum(len(tree.vertices.orbit(v)) > 1 for v in state.w_set)
    assert moved_orbits > 100, moved_orbits


def _large_instances():
    """Three instgen trees of 700-1000 vertices: random_instance draws its
    vertex count first, so generator states that would draw fewer are skipped."""
    rng = random.Random(20261018)
    out = []
    while len(out) < 3:
        state = rng.getstate()
        if rng.randrange(2, 1001) >= 700:
            rng.setstate(state)
            out.append(random_instance(rng, max_vertices=1000))
    return out


def _star(n):
    """S_n on a star: the centre 0 is fixed, and the leaves 1..n and their
    edges from the centre are permuted as the symmetric group permutes n points."""
    group = FiniteGroup.symmetric(n)
    swaps = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        swaps.append(p)
    vertices = GSet.from_generator_images(group, n + 1, [[0] + [1 + q for q in p] for p in swaps])
    edges = GSet.from_generator_images(group, n, swaps)
    return GGraph(vertices, edges, (0,) * n, tuple(range(1, n + 1)))


def _binary_tree(depth):
    """The complete binary tree of the given depth, edges pointing away from
    the root 0, with the group that all its sibling swaps generate."""
    nv = 2 ** (depth + 1) - 1
    pairs = [((c - 1) // 2, c) for c in range(1, nv)]  # edge c - 1 ends at c
    swaps = sibling_swap_generators(nv, pairs)
    group = FiniteGroup.from_generator_permutations(swaps)
    vertices = GSet.from_generator_images(group, nv, swaps)
    edges = GSet.from_generator_images(group, nv - 1, [[p[c] - 1 for c in range(1, nv)] for p in swaps])
    return GGraph(vertices, edges, tuple(a for a, _ in pairs), tuple(b for _, b in pairs))


def _symmetric_instances():
    """Trees whose outside stabilizers differ, unlike instgen trees (mean orbit
    size 1.05): S_n on a star (n = 3..5) with U = {centre}, and the
    sibling-swap groups of complete binary trees of depth 2 and 3 (orders 8
    and 128) on every retract."""
    out = [(_star(n), frozenset({0})) for n in (3, 4, 5)]
    for depth in (2, 3):
        t = _binary_tree(depth)
        assert t.group.order == 2 ** (2**depth - 1)
        out += [(t, u) for u in every_retract(t.vertices)]
    return out


def test_filtration_matches_rescanning_oracle(corpus):
    large = _large_instances()
    assert all(700 <= t.n_vertices <= 1000 for t, _ in large)
    for t, u in corpus + large + small_coset_trees():
        assert build_filtration(t, u) == oracle_build_filtration(t, u)


def _renumbered(t, u, rng):
    """t and u with vertices and edges renumbered at random.  instgen numbers
    every parent before its children, and on its trees no cached filtration
    target was seen to drop to a vertex that joins later; after renumbering,
    targets often drop."""
    vperm, eperm = list(range(t.n_vertices)), list(range(t.n_edges))
    rng.shuffle(vperm)
    rng.shuffle(eperm)

    def moved(s, perm):
        rows = []
        for row in s.act:
            new = [0] * s.size
            for p, q in enumerate(row):
                new[perm[p]] = perm[q]
            rows.append(new)
        return GSet.build(s.group, s.size, rows)

    iota, tau = [0] * t.n_edges, [0] * t.n_edges
    for e in range(t.n_edges):
        iota[eperm[e]], tau[eperm[e]] = vperm[t.iota[e]], vperm[t.tau[e]]
    tree = GGraph(moved(t.vertices, vperm), moved(t.edges, eperm), tuple(iota), tuple(tau))
    return tree, frozenset(vperm[v] for v in u)


def test_filtration_matches_rescanning_oracle_on_renumbered_trees(corpus):
    # a cached target must drop to a lower-numbered vertex that joins the
    # candidates after the target was found
    rng = random.Random(17)
    for t, u in corpus:
        t, u = _renumbered(t, u, rng)
        assert build_filtration(t, u) == oracle_build_filtration(t, u)


def test_cut_walk_matches_the_whole_rooted_geodesic(corpus, monkeypatch):
    # at every stage of build_filtration, on the corpus and renumbered, the
    # walk gives the orbits of the whole geodesic (rooted_path, over the
    # tree rooted at 0) read up to its first vertex below alpha; the cut
    # lies on w's side, up to the meeting vertex, or on target's side
    walk = rt._cut_orbits
    rooted = {}
    branches = Counter()

    def checked(up, depth, vertex_level, alpha, eorb, w, target):
        got = walk(up, depth, vertex_level, alpha, eorb, w, target)
        parent, depths = rooted["tree"]
        path = rooted_path(parent, depths, w, target)
        cut = next(i for i in range(1, len(path.vertices)) if 0 <= vertex_level[path.vertices[i]] < alpha)
        assert got == [eorb[e] for e, _ in path.steps[:cut]], (w, target, alpha)
        meet = min(range(len(path.vertices)), key=lambda i: depths[path.vertices[i]])
        branches["w side" if cut <= meet else "target side"] += 1
        return got

    monkeypatch.setattr(rt, "_cut_orbits", checked)
    rng = random.Random(17)
    for t, u in corpus + [_renumbered(t, u, rng) for t, u in corpus]:
        parent = gg.bfs_parents(t.adjacency(), 0)
        depths = [0] * t.n_vertices
        for v, (prev, _, _) in parent.items():
            depths[v] = 0 if prev == -1 else depths[prev] + 1
        rooted["tree"] = parent, depths
        build_filtration(t, u)
    assert min(branches["w side"], branches["target side"]) > 100, branches


def test_filtration_matches_rescanning_oracle_where_stabilizers_differ():
    symmetric = _symmetric_instances()
    # the root is in every retract, and depth 2 and 3 have 3 and 4 vertex orbits
    assert len(symmetric) == 3 + 4 + 8
    for t, u in symmetric:
        assert len(set(t.vertices.stabilizers())) > 2
        assert build_filtration(t, u) == oracle_build_filtration(t, u)
        assert check_filtration(make_state(t, u)) == []
        assert retract_tree(t, u).tree.n_vertices == len(u)


def test_stabilizers_and_orbits_match_elementwise_oracle(corpus):
    # on the input G-sets and on the restricted G-sets that compress returns,
    # of the corpus and of the coset trees, and on their groups' regular G-sets
    for t, u in corpus + small_coset_trees():
        res = retract_tree(t, u)
        for s in (t.vertices, t.edges, res.tree.vertices, res.tree.edges, GSet.regular(t.group)):
            table = s.stabilizers()
            assert table == tuple(oracle_stabilizer(s, p) for p in range(s.size))
            assert all(s.stabilizer(p) is table[p] for p in range(s.size))
            # one shared frozenset per distinct subgroup
            assert len({id(h) for h in table}) == len(set(table))
            assert all(s.orbit(p) == oracle_orbit(s, p) for p in range(s.size))
            _assert_orbits_match_oracle(s)


def _assert_orbits_match_oracle(s):
    """orbit_ids and orbits against one oracle_orbit per orbit, in the order
    of the orbits' least points, and the generator walk they are read from:
    it lists every point once, its roots are the least points of their
    orbits, in order, and every other point is its parent's image under a
    generator, with the parent listed before it and in the same orbit."""
    oracle = []
    for p in range(s.size):
        if not any(p in o for o in oracle):
            oracle.append(oracle_orbit(s, p))
    assert s.orbits() == oracle
    ids, order, parent, via = s._forest()
    assert ids == s.orbit_ids() == tuple(next(k for k, o in enumerate(oracle) if p in o) for p in range(s.size))
    assert sorted(order) == list(range(s.size))
    place = {p: i for i, p in enumerate(order)}
    assert [p for p in order if parent[p] < 0] == [min(o) for o in oracle]
    for p in order:
        if parent[p] >= 0:
            assert via[p] in s.group.generators and s.act[via[p]][parent[p]] == p
            assert place[parent[p]] < place[p] and ids[parent[p]] == ids[p]


def _needs_several_generators(s):
    """Whether some orbit is larger than the cycle of each single generator
    through its point."""

    def cycle(row, p):
        out = {p}
        while row[p] not in out:
            p = row[p]
            out.add(p)
        return out

    rows = [s.act[g] for g in s.group.generators]
    return any(all(len(cycle(row, p)) < len(s.orbit(p)) for row in rows) for p in range(s.size))


def test_orbit_ids_match_oracle_on_several_generators():
    s4, d5 = FiniteGroup.symmetric(4), FiniteGroup.dihedral(5)
    c3, d4 = FiniteGroup.cyclic(3), FiniteGroup.dihedral(4)
    product = FiniteGroup.direct_product(c3, d4)
    swaps = [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]
    rot4, ref4 = [(i + 1) % 4 for i in range(4)], [(-i) % 4 for i in range(4)]
    ident3, ident4 = list(range(3)), list(range(4))

    def on_pairs(a, b):
        # (i, j) is point 4 i + j
        return [a[i] * 4 + b[j] for i in range(3) for j in range(4)]

    gsets = [
        GSet.from_generator_images(s4, 4, swaps),
        # two fixed points, then S4 on the last four
        GSet.from_generator_images(s4, 6, [[0, 1] + [2 + q for q in p] for p in swaps]),
        # D5 on its own elements: on the pentagon the rotation alone closes
        GSet.regular(d5),
        GSet.regular(product),
        GSet.from_generator_images(
            product, 12, [on_pairs([1, 2, 0], ident4), on_pairs(ident3, rot4), on_pairs(ident3, ref4)]
        ),
    ]
    for s in gsets:
        assert _needs_several_generators(s)
        _assert_orbits_match_oracle(s)
    assert len(gsets[1].orbits()) == 3


def test_is_retract_matches_retraction_map(corpus):
    # random action-closed subsets of every corpus and coset-tree G-set:
    # unions of random orbits, drawn once from all orbits and once from the
    # moved ones; the map is the element-wise oracle's
    rng = random.Random(13)
    verdicts = Counter()
    for t, _ in corpus + small_coset_trees():
        for s in (t.vertices, t.edges):
            orbits = s.orbits()
            moved = [o for o in orbits if len(o) > 1]
            for pool in (orbits, moved):
                u = frozenset().union(*[o for o in pool if rng.random() < 0.5])
                verdict, ret = ga.is_retract(s, u), ga.retraction_map(s, u)
                assert ret == oracle_retraction_map(s, u)
                assert verdict == (ret is not None)
                verdicts[verdict] += 1
            if moved:
                not_closed = {min(moved[0])}
                for check in (ga.is_retract, ga.retraction_map):
                    with pytest.raises(PreconditionError, match="subset is not action-closed"):
                        check(s, not_closed)
                    with pytest.raises(PreconditionError, match="subset point outside the carrier"):
                        check(s, not_closed | {s.size})
            for check in (ga.is_retract, ga.retraction_map):
                with pytest.raises(PreconditionError, match="subset point outside the carrier"):
                    check(s, {-1})
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def _perturbed(f, n_target, rng):
    """f with one value moved to a random target point, or, for a dict, one key
    dropped half of the time."""
    if isinstance(f, dict):
        out = dict(f)
        if out:
            key = rng.choice(sorted(out))
            if rng.random() < 0.5:
                del out[key]
            else:
                out[key] = rng.randrange(n_target)
        return out
    out = list(f)
    if out:
        out[rng.randrange(len(out))] = rng.randrange(n_target)
    return tuple(out)


def test_generator_equivariance_check_matches_elementwise_oracle(corpus):
    # the maps the four checking sites see, on every corpus tree, and one
    # random perturbation of each
    rng = random.Random(11)
    verdicts = Counter()
    for t, u in corpus:
        res = retract_tree(t, u)
        maps = [
            (t.edges, t.vertices, t.iota),
            (t.edges, t.vertices, t.tau),
            (t.vertices, t.vertices, ga.retraction_map(t.vertices, u)),
            (t.edges, t.vertices, res.removed_to_vertex),
            (res.tree.edges, res.tree.vertices, res.tree.tau),
        ]
        for source, target, f in maps:
            assert not ga.non_equivariant(source, target, f) and oracle_is_equivariant(source, target, f)
            bad = _perturbed(f, target.size, rng)
            verdict = not ga.non_equivariant(source, target, bad)
            assert verdict == oracle_is_equivariant(source, target, bad)
            verdicts[verdict] += 1
    # the perturbations reach both verdicts often
    assert min(verdicts.values()) > 100, verdicts


def _assert_matches_oracle(state):
    for w in sorted(state.w_set):
        assert paths_P(state, w) == oracle_paths_P(state, w), w
    assert problematic(state) == oracle_problematic(state)


def test_windowed_paths_match_full_bfs_oracle(corpus, monkeypatch):
    # every state that eliminate_problematic asks about is compared as well,
    # and its filtration still satisfies conditions (1)-(4): eliminate_problematic
    # does not re-check it after a slide
    seen = []

    def checked(state):
        seen.append(state)
        assert check_filtration(state) == []
        _assert_matches_oracle(state)
        return problematic(state)

    monkeypatch.setattr(rt, "problematic", checked)
    for t, u in corpus + small_coset_trees():
        state = make_state(t, u)
        _assert_matches_oracle(state)
        _assert_matches_oracle(eliminate_problematic(state))
    assert len(seen) >= len(corpus)


def _assert_descent_matches_paths_P(state):
    """_descent against the full list of paths_P, for every outside vertex;
    counts the vertices with a descent path, and those whose shortest one
    may climb."""
    vdeg = state.filtration.vdeg
    found = Counter()
    for w in sorted(state.w_set):
        ps = paths_P(state, w)
        if not ps:
            assert rt._descent(state, w) is None, w
            continue
        d = len(ps[0].steps)
        climbing = {p.steps[0][0] for p in ps if len(p.steps) == d and vdeg[p.vertices[1]] == vdeg[w] + 1}
        assert rt._descent(state, w) == (d, ps[0].steps[0][0], ps[0].vertices[1], tuple(sorted(climbing))), w
        found["paths"] += 1
        found["climbing"] += bool(climbing)
    return found


def _random_filtration(t, u, rng):
    """Degrees drawn at random, 0 on U: most outside vertices have no
    descent path, or one that another window would not allow."""
    vdeg = tuple(0 if v in u else rng.randrange(1, 4) for v in range(t.n_vertices))
    edeg = tuple(rng.randrange(1, 5) for _ in range(t.n_edges))
    return Filtration(vdeg, edeg, 5)


def test_shortest_only_search_matches_paths_P(corpus, monkeypatch):
    # on the corpus, renumbered and as drawn, on the shape families, on
    # every state that eliminate_problematic passes through, on random
    # filtrations (where paths_P is often empty) and on two graphs with a
    # cycle, where each vertex gets the first shortest path of the search
    states = []

    def checked(state):
        states.append(state)
        return problematic(state)

    monkeypatch.setattr(rt, "problematic", checked)
    rng = random.Random(29)
    instances = corpus + [_renumbered(t, u, rng) for t, u in corpus] + _shape_instances()
    found, drawn = Counter(), Counter()
    for t, u in instances:
        states.clear()
        final = eliminate_problematic(make_state(t, u))
        for state in states + [final]:
            found += _assert_descent_matches_paths_P(state)
        state = make_state(t, u, _random_filtration(t, u, rng))
        drawn += _assert_descent_matches_paths_P(state)
        drawn["outside"] += len(state.w_set)
    assert found["paths"] > 10_000 and found["climbing"] > 100, found
    assert drawn["outside"] - drawn["paths"] > 1000 and drawn["climbing"] > 100, drawn

    def trivial(nv, iota, tau):
        group = FiniteGroup.trivial()
        return GGraph(GSet.trivial_action(group, nv), GSet.trivial_action(group, len(iota)), iota, tau)

    # a triangle with a tail, a square, and a vertex 0 whose two shortest
    # descent paths both climb, through 1 and through 2, to 3 and to 4
    two_climbs = make_state(trivial(5, (0, 0, 1, 2), (1, 2, 3, 4)), {3, 4}, Filtration((1, 2, 2, 0, 0), (2, 2, 2, 2), 3))
    for state in (
        make_state(trivial(5, (0, 1, 2, 2, 4), (1, 2, 0, 3, 3)), {0}, Filtration((0, 1, 1, 2, 3), (1, 1, 1, 2, 5), 6)),
        make_state(trivial(4, (1, 2, 1, 3), (2, 0, 3, 0)), {0}, Filtration((0, 1, 3, 1), (3, 3, 1, 1), 4)),
        two_climbs,
    ):
        _assert_descent_matches_paths_P(state)
    assert rt._descent(two_climbs, 0) == (2, 0, 1, (0, 1))


def test_slide_path_matches_the_sorted_paths_P_choice(corpus, monkeypatch):
    # every problematic vertex of every state that eliminate_problematic
    # passes through, on the corpus, the shape families and the symmetric
    # instances, and of four random filtrations of each.  Built filtrations
    # give no vertex two climbing shortest paths here; random ones give a
    # few, and longer climbing paths, so a choice of another path shows
    states = []

    def checked(state):
        states.append(state)
        return problematic(state)

    monkeypatch.setattr(rt, "problematic", checked)
    rng = random.Random(31)
    compared = Counter()
    for t, u in corpus + _shape_instances() + _symmetric_instances():
        states.clear()
        eliminate_problematic(make_state(t, u))
        drawn = [make_state(t, u, _random_filtration(t, u, rng)) for _ in range(4)]
        for kind, state in [("pipeline", s) for s in states] + [("drawn", s) for s in drawn]:
            for v0 in sorted(state.w_set):
                desc = rt._descent(state, v0)
                if desc and desc[3]:
                    assert rt._slide_path(state, v0) == oracle_slide_path(state, v0), v0
                    compared[kind] += 1
                    compared["several"] += len(desc[3]) > 1
    assert compared["pipeline"] >= 30 and compared["drawn"] > 400 and compared["several"] >= 4, compared


def test_compress_to_U_reorientation_leaves_no_edge_uphill(corpus):
    # compress_to_U flips the orbits whose representative points uphill and
    # does not re-check the result; is_lower is a strict order that the
    # action preserves, so no edge of the flipped tree points uphill
    flipped = 0
    for t, u in corpus:
        state = eliminate_problematic(make_state(t, u))
        res = compress_to_U(state)
        flips = [e for m in res.move_log[len(state.move_log) :] if m.kind == "reorient" for e in m.detail["flips"]]
        tree = reorient(state.tree, flips)
        assert [e for e in range(tree.n_edges) if is_lower(state, tree.iota[e], tree.tau[e])] == []
        flipped += bool(flips)
    assert flipped > 100, flipped


def test_check_filtration_reports_cycles_per_level():
    # a triangle 0-1-2 with a tail 2-3-4; degree 5 on the last edge puts it
    # outside the window of vertex 4, which then has no descent path
    group = FiniteGroup.trivial()
    t = GGraph(
        GSet.trivial_action(group, 5),
        GSet.trivial_action(group, 5),
        (0, 1, 2, 2, 4),
        (1, 2, 0, 3, 3),
    )
    filt = Filtration(vdeg=(0, 1, 1, 2, 3), edeg=(1, 1, 1, 2, 5), kappa=6)
    assert check_filtration(make_state(t, {0}, filt)) == [
        "(1) level set below 2 contains a cycle",
        "(1) level set below 3 contains a cycle",
        "(1) level set below 4 contains a cycle",
        "(1) level set below 5 contains a cycle",
        "(1) level set below 6 contains a cycle",
        "(4) no descent path from vertex 4",
    ]


def test_check_filtration_on_a_cycle_uses_window_paths():
    # a square 1-2-0-3-1: vertex 1 descends to 0 through 3 on degree-1 edges,
    # while 1-2-0 runs over degree-3 edges outside its window {1, 2}; a BFS
    # over the whole graph would reach 0 through 2 first and find no path
    group = FiniteGroup.trivial()
    t = GGraph(
        GSet.trivial_action(group, 4),
        GSet.trivial_action(group, 4),
        (1, 2, 1, 3),
        (2, 0, 3, 0),
    )
    filt = Filtration(vdeg=(0, 1, 3, 1), edeg=(3, 3, 1, 1), kappa=4)
    assert [p.vertices for p in paths_P(make_state(t, {0}, filt), 1)] == [(1, 3, 0)]
    assert check_filtration(make_state(t, {0}, filt)) == ["(1) level set below 4 contains a cycle"]
