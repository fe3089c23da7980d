import hashlib
import json
import random

import pytest

from ggraph_oracle import oracle_compress
from instgen import equivariant_sink_orientation, random_instance
from retract_oracle import rooted_path

import gtrees.ggraph as gg
from gtrees.errors import InputError, PreconditionError
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import (
    GGraph,
    bfs_parents,
    compress,
    geodesic,
    ggraph_from_json,
    ggraph_to_dot,
    ggraph_to_json,
    path_to,
    reorient,
    slide,
    subdivide,
    tree_with_trivial_group,
    validate,
)


def z2_path3():
    """Path a - c - b with the swap exchanging a and b, fixing the center."""
    g = FiniteGroup.cyclic(2)
    vertices = GSet.from_generator_images(g, 3, [[1, 0, 2]], labels=["a", "b", "c"])
    edges = GSet.from_generator_images(g, 2, [[1, 0]], labels=["ea", "eb"])
    # ea: a -> c, eb: b -> c
    return GGraph(vertices, edges, (0, 1), (2, 2))


def test_validate_single_vertex():
    t = tree_with_trivial_group([], n_vertices=1)
    rep = validate(t)
    assert rep.is_tree and rep.connected and rep.acyclic


def test_validate_three_cycle():
    g = tree_with_trivial_group([(0, 1), (1, 2), (2, 0)])
    rep = validate(g)
    assert not rep.is_tree and not rep.acyclic and rep.connected


def test_validate_equivariant_path():
    t = z2_path3()
    rep = validate(t)
    assert rep.is_tree and not rep.equivariance_failures


def test_validate_checks_are_independent():
    # |E| = |V| - 1 but disconnected (multi-edge forms a cycle)
    g = tree_with_trivial_group([(0, 1), (0, 1)], n_vertices=3)
    rep = validate(g)
    assert rep.edge_count_matches and not rep.connected and not rep.acyclic and not rep.is_tree


def test_compress_keep_everything_is_identity():
    t = z2_path3()
    res = compress(t, [0, 1])
    assert res.tree.n_vertices == 3 and res.tree.n_edges == 2
    assert res.phi == (0, 1, 2)
    assert res.tree.vertices.labels == t.vertices.labels


def test_compress_path_example():
    # u <-e1- w -e2-> u2, keep only e2
    t = tree_with_trivial_group([(1, 0), (1, 2)])  # e1: w->u, e2: w->u2
    res = compress(t, [1])
    assert res.tree.n_vertices == 2 and res.tree.n_edges == 1
    assert res.phi[1] == 0  # w collapses to u
    assert res.tree.iota == (0,) and res.tree.tau == (1,)
    assert res.tree.vertices.labels == (0, 2)


def test_compress_whole_tree_to_sink():
    # star oriented toward the center 0
    t = tree_with_trivial_group([(1, 0), (2, 0), (3, 0)])
    res = compress(t, [])
    assert res.tree.n_vertices == 1 and res.tree.n_edges == 0
    assert set(res.phi) == {0}


def test_compress_sink_violation():
    t = tree_with_trivial_group([(0, 1), (1, 2)])  # 0->1->2, keep nothing: sink is 2
    res = compress(t, [])
    assert res.tree.vertices.labels == (2,)
    # edges that point apart give their component two sinks, 0 and 2, and
    # vertex 1 leaves both removed edges
    bad = tree_with_trivial_group([(1, 0), (1, 2)])
    with pytest.raises(PreconditionError, match="^vertex 1 is not oriented towards a unique sink$"):
        compress(bad, [])


def test_compress_requires_action_closed():
    t = z2_path3()
    with pytest.raises(PreconditionError):
        compress(t, [0])  # half of an orbit


def test_compress_two_sink_component_rejected():
    t = tree_with_trivial_group([(0, 1), (2, 1)])  # both edges point into 1: component sink is 1? out-deg: 0:1, 2:1, 1:0 -> fine
    res = compress(t, [])
    assert res.tree.vertices.labels == (1,)
    # opposite orientations create a vertex with out-degree 2 -> no unique flow
    bad = tree_with_trivial_group([(1, 0), (1, 2)])
    with pytest.raises(PreconditionError):
        compress(bad, [])


def _compress_outcome(compress_fn, t, keep):
    """What compress_fn gives, as comparable values, or None when it refuses."""
    try:
        res = compress_fn(t, keep)
    except PreconditionError:
        return None
    return res.phi, res.kept_vertices, res.kept_edges, res.tree.state_digest()


def test_compress_matches_union_find_oracle():
    # instgen G-trees and action-closed keep sets.  Oriented towards one sink
    # per removed component (equivariant_sink_orientation), both accept with
    # the same retraction and tree; oriented by a random action-closed flip
    # set, both refuse, or both accept alike
    rng = random.Random(28)
    accepted = refused = 0
    for _ in range(150):
        t, _ = random_instance(rng, max_vertices=30, max_group=12)
        orbits = t.edges.orbits()
        for _ in range(3):
            removed = set().union(*[o for o in orbits if rng.random() < 0.5])
            keep = [e for e in range(t.n_edges) if e not in removed]
            sunk = reorient(t, equivariant_sink_orientation(rng, t, removed))
            want = _compress_outcome(oracle_compress, sunk, keep)
            assert want is not None and _compress_outcome(compress, sunk, keep) == want
            mixed = reorient(t, set().union(*[o for o in orbits if rng.random() < 0.5]))
            want = _compress_outcome(oracle_compress, mixed, keep)
            assert _compress_outcome(compress, mixed, keep) == want
            accepted += want is not None
            refused += want is None
    assert accepted > 50 and refused > 50, (accepted, refused)


def test_slide_trivial_path():
    # a -e-> b -f-> c  slides to  a -e-> c, b -f-> c
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    out = slide(t, 0, 1)
    assert out.iota == (0, 1) and out.tau == (2, 2)
    assert validate(out).is_tree


def test_slide_precondition_gates():
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match="tau"):
        slide(t, 1, 0)  # tau(e) != iota(f)
    with pytest.raises(PreconditionError, match="orbit"):
        slide(t, 0, 0)  # same orbit
    # stabilizer violation: fixed edge into a vertex with swapped leaf edges
    g = FiniteGroup.cyclic(2)
    vertices = GSet.from_generator_images(g, 4, [[0, 1, 3, 2]], labels=["u", "c", "l1", "l2"])
    edges = GSet.from_generator_images(g, 3, [[0, 2, 1]], labels=["e", "d1", "d2"])
    t2 = GGraph(vertices, edges, (0, 1, 1), (1, 2, 3))  # u->c, c->l1, c->l2
    # stab(e) = Z/2 is not inside stab(d1) = {1}
    with pytest.raises(PreconditionError, match="stabilizer"):
        slide(t2, 0, 1)


def test_slide_equivariant_pair():
    # Z/2 instance where the whole d-orbit slides at once
    g = FiniteGroup.cyclic(2)
    vertices2 = GSet.from_generator_images(g, 6, [[0, 1, 3, 2, 5, 4]], labels=list("ucabxy"))
    edges2 = GSet.from_generator_images(g, 5, [[0, 2, 1, 4, 3]], labels=["e", "d1", "d2", "h1", "h2"])
    # u->c, c->a, c->b, a->x, b->y
    t2 = GGraph(vertices2, edges2, (0, 1, 1, 2, 3), (1, 2, 3, 4, 5))
    # tau(d1) = a = iota(h1), stab(d1) = {1} <= stab(h1), orbits disjoint
    out = slide(t2, 1, 3)
    assert validate(out).is_tree
    assert out.tau[1] == 4 and out.tau[2] == 5  # equivariant: d2 slid too


def test_subdivide_single_edge():
    t = tree_with_trivial_group([(0, 1)])
    res = subdivide(t, 0)
    assert res.tree.n_vertices == 3 and res.tree.n_edges == 2
    mid = res.mid_of[0]
    assert res.tree.iota[res.half1_of[0]] == 0 and res.tree.tau[res.half1_of[0]] == mid
    assert res.tree.iota[res.half2_of[0]] == mid and res.tree.tau[res.half2_of[0]] == 1


def test_subdivide_free_orbit_counts():
    t = z2_path3()
    res = subdivide(t, 0)
    assert res.tree.n_vertices == 3 + 2
    assert res.tree.n_edges == 2 + 2
    assert validate(res.tree).is_tree


def test_subdivide_builds_a_g_tree_with_edge_stabilized_midpoints():
    # subdivide does not check what it returns; this does, on every edge orbit
    rng = random.Random(31)
    for _ in range(40):
        t, _ = random_instance(rng, max_vertices=30, max_group=24)
        for orbit in t.edges.orbits():
            res = subdivide(t, min(orbit))
            assert validate(res.tree).is_tree
            assert res.tree.n_vertices == t.n_vertices + len(orbit)
            assert res.tree.n_edges == t.n_edges + len(orbit)
            for e in orbit:
                assert res.tree.vertices.stabilizer(res.mid_of[e]) == t.edges.stabilizer(e)


def relabel(graph: GGraph, rename):
    """Compare-helper: map labels, return the set of labeled edges and vertices."""
    vl = tuple(rename(x) for x in graph.vertices.labels)
    el = tuple(rename(x) for x in graph.edges.labels)
    incidences = {(el[e], vl[graph.iota[e]], vl[graph.tau[e]]) for e in range(graph.n_edges)}
    return set(vl), incidences


def test_subdivide_compress_round_trip():
    for t in (tree_with_trivial_group([(0, 1), (1, 2), (1, 3)]), z2_path3()):
        for f in range(t.n_edges):
            res = subdivide(t, f)
            flipped = reorient(res.tree, res.half1_of.values())
            back = compress(flipped, [e for e in range(flipped.n_edges) if e not in set(res.half1_of.values())])

            def rename(lbl):
                return lbl[1] if isinstance(lbl, tuple) and lbl and lbl[0] == "half2" else lbl

            orig_v, orig_inc = relabel(t, lambda x: x)
            new_v, new_inc = relabel(back.tree, rename)
            assert orig_v == new_v
            assert orig_inc == new_inc


def test_geodesic_examples():
    t = tree_with_trivial_group([(0, 1), (1, 2), (2, 3)])
    assert len(geodesic(t, 1, 1).steps) == 0
    p = geodesic(t, 0, 3)
    assert p.vertices == (0, 1, 2, 3)
    assert p.steps == ((0, 1), (1, 1), (2, 1))
    star = tree_with_trivial_group([(0, 1), (0, 2), (0, 3)])
    q = geodesic(star, 1, 3)
    assert len(q.steps) == 2 and q.vertices == (1, 0, 3)
    assert q.steps[0] == (0, -1)  # against the first edge's orientation


def test_geodesic_refuses_disconnected():
    t = tree_with_trivial_group([(0, 1)], n_vertices=4)
    with pytest.raises(PreconditionError):
        geodesic(t, 0, 3)


def test_geodesic_matches_bfs_distance_oracle():
    t = tree_with_trivial_group([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (0, 6)])
    # plain BFS distances
    adj = {v: [] for v in range(7)}
    for e, (u, v) in enumerate([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (0, 6)]):
        adj[u].append(v)
        adj[v].append(u)
    import collections

    for a in range(7):
        dist = {a: 0}
        dq = collections.deque([a])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        for b in range(7):
            assert len(geodesic(t, a, b).steps) == dist[b]


def _depths(parent):
    depth = {}
    for v, (prev, _, _) in parent.items():
        depth[v] = 0 if prev == -1 else depth[prev] + 1
    return [depth[v] for v in range(len(depth))]


def test_rooted_path_matches_bfs_oracle_on_every_pair():
    rng = random.Random(9)
    for _ in range(30):
        t, _ = random_instance(rng, max_vertices=40)
        adj = t.adjacency()
        for root in {0, rng.randrange(t.n_vertices)}:
            parent = bfs_parents(adj, root)
            depth = _depths(parent)
            for a in range(t.n_vertices):
                for b in range(t.n_vertices):
                    p = rooted_path(parent, depth, a, b)
                    assert p == path_to(bfs_parents(adj, a, stop=b), b), (root, a, b)


def test_rooted_path_climbs_a_deep_path_without_recursion():
    # a path rooted at one end: depth 2999, deeper than the recursion limit
    rng = random.Random(3)
    n = 3000
    t = tree_with_trivial_group([(v, v + 1) if rng.random() < 0.5 else (v + 1, v) for v in range(n - 1)])
    adj = t.adjacency()
    parent = bfs_parents(adj, 0)
    depth = _depths(parent)
    assert max(depth) == n - 1
    pairs = [(0, n - 1), (n - 1, 0), (n - 1, n - 2), (n - 1, n - 1)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(16)]
    for a, b in pairs:
        assert rooted_path(parent, depth, a, b) == path_to(bfs_parents(adj, a, stop=b), b), (a, b)


def test_reorient_involutive_and_flips_geodesics():
    t = z2_path3()
    assert reorient(t, []) == t
    r = reorient(t, [0, 1])
    assert reorient(r, [0, 1]) == t
    path = tree_with_trivial_group([(0, 1), (1, 2)])
    flipped = reorient(path, [0, 1])
    p0 = geodesic(path, 0, 2)
    p1 = geodesic(flipped, 0, 2)
    assert [eps for _, eps in p0.steps] == [1, 1]
    assert [eps for _, eps in p1.steps] == [-1, -1]


def test_reorient_requires_action_closed():
    t = z2_path3()
    with pytest.raises(PreconditionError):
        reorient(t, [0])


def test_json_round_trip_and_dot():
    t = z2_path3()
    doc = ggraph_to_json(t)
    t2 = ggraph_from_json(doc)
    assert t2 == t
    dot = ggraph_to_dot(t)
    assert dot.startswith("digraph") and "->" in dot


def _oracle_digest(t):
    doc = {
        "nv": t.n_vertices,
        "ne": t.n_edges,
        "iota": list(t.iota),
        "tau": list(t.tau),
        "vlabels": [repr(x) for x in t.vertices.labels],
        "elabels": [repr(x) for x in t.edges.labels],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def test_state_digest_matches_the_json_document_oracle():
    # the digest text is assembled from each G-set's cached label text; it
    # must be the bytes json.dumps gives for the whole document
    group = FiniteGroup.trivial()
    awkward = ['say "hi"', "back\\slash", "caf\u00e9 \u2603", None, ("nested", ('q"', 2.5)), -3]
    vertices = GSet.trivial_action(group, len(awkward), labels=awkward)
    edges = GSet.trivial_action(group, len(awkward) - 1, labels=["\n", "\t", "\u00fc", None, 7])
    mixed = GGraph(vertices, edges, (0, 1, 2, 3, 4), (1, 2, 3, 4, 5))
    twice = subdivide(subdivide(z2_path3(), 0).tree, 0).tree
    nulls = GGraph(GSet.trivial_action(group, 2, [None, None]), GSet.trivial_action(group, 1, [None]), (0,), (1,))
    ints = tree_with_trivial_group([(0, 1), (1, 2), (3, 1)])
    no_edges = [tree_with_trivial_group([], n_vertices=n) for n in (0, 1)]
    graphs = [ints, nulls, mixed, twice] + no_edges
    assert twice.vertices.labels[-1] == ("mid", ("half1", "eb"))
    for t in graphs:
        assert t.state_digest() == _oracle_digest(t)
        assert t.state_digest() == _oracle_digest(t)  # from the cached label text
    rng = random.Random(4)
    for _ in range(20):
        t, _ = random_instance(rng, max_vertices=40)
        assert t.state_digest() == _oracle_digest(t)


def test_incidence_entries_must_be_plain_ints():
    # state_digest writes iota and tau as their list str, which is their
    # JSON text only for plain ints: str(True) is "True", JSON's is "true"
    class Vertex(int):
        def __repr__(self):
            return f"Vertex({int(self)})"

    group = FiniteGroup.trivial()
    vertices, edges = GSet.trivial_action(group, 3), GSet.trivial_action(group, 2)
    for iota, tau in [((True, 1), (1, 2)), ((0, 1), (1, False)), ((0, Vertex(1)), (1, 2)), ((0, 1.0), (1, 2))]:
        with pytest.raises(InputError, match="iota/tau entries must be plain ints"):
            GGraph(vertices, edges, iota, tau)
    t = GGraph(vertices, edges, (0, 1), (1, 2))
    assert t.state_digest() == _oracle_digest(t)


def test_validate_runs_its_union_find_on_every_call(monkeypatch):
    # a move's output carries the G-tree verdict, and the moves skip their
    # input check on it, but the public validate still recomputes
    unions = []

    class CountingUnionFind(gg.UnionFind):
        def union(self, a, b):
            unions.append((a, b))
            return super().union(a, b)

    monkeypatch.setattr(gg, "UnionFind", CountingUnionFind)
    t = slide(tree_with_trivial_group([(0, 1), (1, 2), (2, 3)]), 0, 1)
    assert t._is_tree and len(unions) == 3  # the slide checked its input
    unions.clear()
    for k in range(1, 4):
        assert validate(t).is_tree
        assert len(unions) == k * t.n_edges
    unions.clear()
    slide(t, 0, 2)  # carries the verdict: no check
    assert unions == []
