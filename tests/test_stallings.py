import gc
import random

import pytest

from gtrees import stallings
from gtrees.errors import InternalCheckError, PreconditionError
from gtrees.stallings import LabeledGraphBuilder, fold, from_generators
from gtrees.words import XY, Word, multiply, parse_generators, parse_word


def w(text):
    return parse_word(XY, text)


def gens(text):
    return parse_generators(XY, text)


def subgroup_ball(generators, max_len):
    """Oracle: BFS over products of generators, keeping reduced words up to max_len."""
    seen = {Word.identity(XY)}
    frontier = [Word.identity(XY)]
    steps = [g for g in generators] + [~g for g in generators]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in steps:
                prod = multiply(cur, s)
                if len(prod) <= max_len and prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def all_reduced_words(max_len):
    out = [Word.identity(XY)]
    frontier = [Word.identity(XY)]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for i in range(2):
                for s in (1, -1):
                    cand = multiply(word, Word.gen(XY, i, s))
                    if len(cand) == len(word) + 1:
                        nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def test_from_generators_counts_squares():
    h = from_generators(gens("x^2, y^2"))
    assert h.n_vertices == 3
    assert h.n_edges == 4


def test_from_generators_counts_big_example():
    h = from_generators(gens("x^4, xyx, y^4"))
    assert h.n_vertices == 7
    assert h.n_edges == 9
    assert h.canonical_form().n_vertices == 7


def test_from_generators_single_loop():
    h = from_generators(gens("x"))
    assert h.n_vertices == 1
    assert h.n_edges == 1


def test_fold_wedge_of_duplicate_loops():
    builder = LabeledGraphBuilder(XY)
    builder.add_word_loop(w("x"))
    builder.add_word_loop(w("x"))
    h = fold(builder)
    assert h.n_vertices == 1 and h.n_edges == 1


def test_fold_idempotent_on_folded_graph():
    h = from_generators(gens("x^2, y^2"))
    builder = LabeledGraphBuilder(XY, h.n_vertices, h.base)
    for e in h.edges():
        builder.add_edge(*e)
    assert fold(builder).canonical_key() == h.canonical_key()


def test_fold_order_independence():
    for text in ("x^2, y^2", "x^4, xyx, y^4", "xy, y^-1x, x^3"):
        reference = from_generators(gens(text)).canonical_key()
        for seed in range(6):
            builder = LabeledGraphBuilder(XY)
            for g in gens(text):
                builder.add_word_loop(g)
            random.Random(seed).shuffle(builder.edges)
            assert fold(builder).canonical_key() == reference


def test_contains_examples():
    h2 = from_generators(gens("x^2, y^2"))
    assert h2.contains(w("x^2"))
    assert not h2.contains(w("xy"))
    h4 = from_generators(gens("x^4, xyx, y^4"))
    assert h4.contains(w("x^4y^4x^4"))
    # cross-check by brute-force enumeration
    assert w("x^4y^4x^4") in subgroup_ball(gens("x^4, xyx, y^4"), 12)


def test_membership_agrees_with_enumeration_oracle():
    rng = random.Random(21)
    corpora = [
        gens("x^2, y^2"),
        gens("x^4, xyx, y^4"),
        gens("xy, yx"),
        gens("x^2, y^3"),
        gens("xyX, y^2"),
    ]
    queries = [word for word in all_reduced_words(6)]
    for generators in corpora:
        h = from_generators(generators)
        ball = subgroup_ball(generators, 6 + 24 // 4)
        in_ball = {word for word in ball if len(word) <= 6}
        sample = rng.sample(queries, 250)
        for word in sample + list(in_ball):
            if len(word) <= 6:
                assert h.contains(word) == (word in in_ball), (generators, word)


def test_closed_path_vertices_examples():
    h2 = from_generators(gens("x^2, y^2"))
    assert h2.closed_path_vertices(w("xyx")) == frozenset()
    assert h2.closed_path_vertices(w("x^2y^2x^2")) == frozenset({h2.base})
    h4 = from_generators(gens("x^4, xyx, y^4"))
    assert h4.closed_path_vertices(w("x^2y^2x^2")) == frozenset()


def test_closed_path_vertices_preconditions():
    h = from_generators(gens("x^2, y^2"))
    with pytest.raises(PreconditionError):
        h.closed_path_vertices(Word.identity(XY))
    with pytest.raises(PreconditionError):
        h.closed_path_vertices(w("xyX"))


def test_census_iff_contains_for_cyclically_reduced():
    rng = random.Random(22)
    h = from_generators(gens("x^2, y^2"))
    for _ in range(200):
        word = Word(XY, [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(1, 8))])
        if word.is_identity() or not word.is_cyclically_reduced():
            continue
        assert (h.base in h.closed_path_vertices(word)) == h.contains(word)


def test_non_core_vertices_never_close():
    # reading a cyclically reduced word from outside the core leaves or fails
    h = from_generators(gens("xyX"))  # core is a y-loop plus a base tail
    core = h.core_vertices()
    assert h.base not in core
    for word in all_reduced_words(5):
        if word.is_identity() or not word.is_cyclically_reduced():
            continue
        for v in range(h.n_vertices):
            if v not in core:
                assert h.read(word, v) != v


def test_canonical_form_contract():
    a = from_generators(gens("x^2, y^2"))
    b = from_generators(gens("y^2, x^2"))
    assert a.canonical_key() == b.canonical_key()
    assert from_generators(gens("x")).canonical_key() != from_generators(gens("x^2")).canonical_key()
    # same subgroup through different generating sets
    c = from_generators(gens("xyX, xy^2X"))
    d = from_generators(gens("xyX"))
    assert c.canonical_key() == d.canonical_key()


def test_coset_labels_and_text():
    h = from_generators(gens("x^2, y^2"))
    labels = h.coset_labels()
    assert labels[h.base] == "H1"
    assert set(labels) == {"H1", "Hx", "Hy"}
    text = h.to_text()
    assert "vertices: 3" in text and "edges: 4" in text
    assert h.to_dot().startswith("digraph")


def test_from_generators_folds_with_gc_paused_and_restores_it(monkeypatch):
    real_core_graph = stallings._core_graph
    during = []

    def spy(*args):
        during.append(gc.isenabled())
        return real_core_graph(*args)

    def broken(*args):
        raise InternalCheckError("edge set is not folded")

    was_enabled = gc.isenabled()
    try:
        monkeypatch.setattr(stallings, "_core_graph", spy)
        for enabled in (True, False, True):
            gc.enable() if enabled else gc.disable()
            assert from_generators(gens("x^2, y^2")).n_vertices == 3
            assert gc.isenabled() == enabled
        assert during == [False] * 3
        monkeypatch.setattr(stallings, "_core_graph", broken)
        gc.enable()
        with pytest.raises(InternalCheckError):
            from_generators(gens("x^2, y^2"))
        assert gc.isenabled()
    finally:
        gc.enable() if was_enabled else gc.disable()
