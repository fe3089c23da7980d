"""Behaviour lock for the retract pipeline.

The windowed descent-path search must return exactly what the full-tree BFS
oracle returns, on every state the pipeline passes through, and the move
logs and results of a seeded corpus must keep their recorded digest.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from instgen import random_instance
from retract_oracle import oracle_paths_P, oracle_problematic

import gtrees.gaction as ga
import gtrees.retract as rt
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import GGraph, ggraph_to_json
from gtrees.retract import (
    Filtration,
    check_filtration,
    eliminate_problematic,
    make_state,
    paths_P,
    problematic,
    retract_tree,
)

# sha256 of the corpus outputs below, recorded before descent paths were
# limited to their window; any change to a move, its order or a result shows
GOLDEN_SHA256 = "a03311ed73450fe56b0f1dc40977999eafc59592dd1e9b2bbeea2b3d2cfe806c"


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


def test_retract_derives_each_fact_once_per_tree_version(corpus, monkeypatch):
    # the input is checked once, by build_filtration, and each tree the
    # pipeline passes through is digested once: before a move, the digest is
    # the one the previous move left
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ga, "retraction_map")
    count(rt, "validate")
    count(GGraph, "state_digest")
    for t, u in corpus:
        calls.clear()
        res = retract_tree(t, u)
        assert calls == {"retraction_map": 1, "validate": 1, "state_digest": len(res.move_log) + 1}


def _assert_matches_oracle(state):
    for w in sorted(state.w_set):
        assert paths_P(state, w) == oracle_paths_P(state, w), w
    assert problematic(state) == oracle_problematic(state)


def test_windowed_paths_match_full_bfs_oracle(corpus, monkeypatch):
    # every state that eliminate_problematic asks about is compared as well
    seen = []

    def checked(state):
        seen.append(state)
        _assert_matches_oracle(state)
        return problematic(state)

    monkeypatch.setattr(rt, "problematic", checked)
    for t, u in corpus:
        state = make_state(t, u)
        _assert_matches_oracle(state)
        _assert_matches_oracle(eliminate_problematic(state))
    assert len(seen) >= len(corpus)


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
