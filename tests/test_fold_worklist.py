"""The worklist `fold`, the queue trimming, `core_vertices` and the power
reads' runs against the scan-all-edges oracles in `fold_oracle.py`, on
seeded random inputs and on hand-made edge cases."""

import random
import time

import pytest

import fold_oracle
import words_oracle
from gtrees.stallings import LabeledGraphBuilder, fold, from_generators
from gtrees.words import XY, Alphabet, Word, parse_word

XYZ = Alphabet.of("x", "y", "z")


def random_word(rng, alphabet, length, cyclic=False):
    letters = []
    while len(letters) < length:
        lt = (rng.randrange(alphabet.size), rng.choice((1, -1)))
        if letters and letters[-1] == (lt[0], -lt[1]):
            continue
        if cyclic and length > 1 and len(letters) == length - 1 and letters[0] == (lt[0], -lt[1]):
            continue
        letters.append(lt)
    return Word(alphabet, letters)


def power_family(rng):
    a = rng.randint(1, 40)
    return XY, [parse_word(XY, f"x^{a}y^{a}x^{a}"), parse_word(XY, f"x^{a}")]


def proper_powers(rng):
    w = random_word(rng, XY, rng.randint(2, 6), cyclic=True)
    p = rng.randint(2, 12)
    return XY, [w**p, w ** (p - 1)]


def random_words(rng):
    alphabet = rng.choice((XY, XYZ))
    return alphabet, [random_word(rng, alphabet, rng.randint(0, 30)) for _ in range(rng.randint(1, 4))]


def duplicate_loops(rng):
    alphabet, words = random_words(rng)
    return alphabet, words + [rng.choice(words) for _ in range(rng.randint(1, 3))]


def loop_builder(alphabet, words):
    builder = LabeledGraphBuilder(alphabet)
    for g in words:
        builder.add_word_loop(g)
    return builder


def edge_builder(rng):
    """An arbitrary labeled graph: loops, parallel edges, isolated vertices,
    components away from the base."""
    alphabet = rng.choice((XY, XYZ))
    n = rng.randint(1, 14)
    builder = LabeledGraphBuilder(alphabet, n, rng.randrange(n))
    for _ in range(rng.randint(0, 2 * n)):
        builder.add_edge(rng.randrange(n), rng.randrange(alphabet.size), rng.randrange(n))
    return builder


def assert_same_core(got, want):
    assert (got.n_vertices, got.base, got.out, got.inn) == (want.n_vertices, want.base, want.out, want.inn)
    # core_vertices walks the base's tail; the oracle sweeps every vertex
    assert got.core_vertices() == fold_oracle.core_vertices(want)


@pytest.mark.parametrize("family", [power_family, proper_powers, random_words, duplicate_loops])
def test_fold_matches_oracle_on_generator_sets(family):
    rng = random.Random(family.__name__)
    for s in range(60):
        alphabet, words = family(rng)
        builder = loop_builder(alphabet, words)
        want = fold_oracle.fold(builder)
        assert_same_core(fold(builder), want)
        random.Random(s).shuffle(builder.edges)
        assert_same_core(fold(builder), want)
        got = from_generators(words, alphabet)
        assert_same_core(got, want)
        # canonical_form only renumbers, so it keeps the trim core_vertices reads
        cf = got.canonical_form()
        assert cf.core_vertices() == fold_oracle.core_vertices(cf)


def test_fold_matches_oracle_on_arbitrary_graphs():
    rng = random.Random(5)
    for s in range(200):
        builder = edge_builder(rng)
        want = fold_oracle.fold(builder)
        assert_same_core(fold(builder), want)
        random.Random(s).shuffle(builder.edges)
        assert_same_core(fold(builder), want)


def builder_with(alphabet, n, base, edges):
    builder = LabeledGraphBuilder(alphabet, n, base)
    for u, lab, v in edges:
        builder.add_edge(u, lab, v)
    return builder


# (name, builder, vertices after folding, core vertices of the result)
EDGE_CASES = [
    # the path 0-1-2 ends in a y-loop, so 2 has degree 3 and nothing is trimmed
    ("loop at a spur's tip", builder_with(XY, 3, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 1, 2)]), 3, {0, 1, 2}),
    # 2 carries only its loop: degree 2, never trimmed
    ("loop alone off the base", builder_with(XY, 3, 0, [(0, 0, 0), (2, 1, 2)]), 2, {0, 1}),
    # a tree hanging off the base's loop: 1, and the leaves 2 and 3 at 1
    ("spurs off a loop", builder_with(XYZ, 4, 0, [(0, 0, 0), (0, 1, 1), (1, 2, 2), (3, 0, 1)]), 1, {0}),
    ("base on a tail of two edges", builder_with(XY, 3, 0, [(0, 0, 1), (1, 1, 2), (2, 0, 2)]), 3, {2}),
    ("base on a tail of three edges", builder_with(XYZ, 4, 0, [(0, 2, 1), (2, 1, 1), (3, 2, 2), (3, 0, 3)]), 4, {3}),
    ("no edges", LabeledGraphBuilder(XYZ, 4, 2), 1, {0}),
    # the base has no edge but another component has a cycle: the base is
    # a tail of one vertex
    ("base alone beside a loop", builder_with(XY, 3, 0, [(1, 0, 1), (2, 1, 1)]), 2, {1}),
    ("a path that trims to the base", builder_with(XY, 4, 1, [(0, 0, 1), (1, 0, 2), (3, 1, 2)]), 1, {0}),
    ("a tree that trims to the base", builder_with(XYZ, 6, 3, [(0, 0, 1), (2, 1, 1), (3, 2, 1), (3, 0, 4), (5, 1, 4)]), 1, {0}),
]


@pytest.mark.parametrize("name, builder, n_vertices, core", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_fold_edge_cases_match_oracle(name, builder, n_vertices, core):
    want = fold_oracle.fold(builder)
    got = fold(builder)
    assert_same_core(got, want)
    assert got.n_vertices == n_vertices
    assert got.core_vertices() == core


def random_core(rng):
    """A folded graph made directly: per label, a random permutation with some
    edges removed, so that its runs are cycles, paths, self-loops and
    isolated vertices."""
    alphabet = rng.choice((XY, XYZ))
    n = rng.randint(1, 12)
    edges = []
    for lab in range(alphabet.size):
        perm = list(range(n))
        rng.shuffle(perm)
        drop = rng.random()
        edges += [(v, lab, perm[v]) for v in range(n) if rng.random() >= drop]
    return fold_oracle.core_from_edges(alphabet, n, rng.randrange(n), edges)


def test_power_reads_split_runs_on_first_entry():
    rng = random.Random(12)
    for _ in range(150):
        core = random_core(rng)
        want = fold_oracle.letter_runs(core)
        entries = [(lab, v) for lab in range(core.alphabet.size) for v in range(core.n_vertices)]
        rng.shuffle(entries)
        entered = set()  # (label, run) of every run a read has entered
        for lab, v in entries:
            run, i, cyclic = want[lab][v]
            exp = rng.choice((1, -1)) * rng.randint(2, len(run) + 3)
            power = Word.gen(core.alphabet, lab) ** exp
            got = core.read(power, v)
            assert got == words_oracle.read(core, words_oracle.LetterWord.of(power), v)
            if cyclic:
                assert got == run[(i + exp) % len(run)]
            elif not 0 <= i + exp < len(run):
                assert got is None
            entered.add((lab, run))
            # exactly the runs entered so far are cut, as the eager oracle
            # cuts them
            for lab2, place in enumerate(core._runs):
                for u in range(core.n_vertices):
                    cut = (lab2, want[lab2][u][0]) in entered
                    assert (place[u] if place else None) == (want[lab2][u] if cut else None)
        assert all(list(place) == list(runs) for place, runs in zip(core._runs, want))


def test_add_word_loop_numbers_vertices_in_reading_order():
    builder = LabeledGraphBuilder(XY)
    builder.add_word_loop(parse_word(XY, "x^2y^-2x"))
    assert builder.n_vertices == 5
    assert builder.edges == [(0, 0, 1), (1, 0, 2), (3, 1, 2), (4, 1, 3), (4, 0, 0)]
    builder.add_word_loop(parse_word(XY, "y^-1"))
    assert builder.n_vertices == 5 and builder.edges[-1] == (0, 1, 0)


def test_power_fold_scales_near_linearly():
    a = 2**12
    gens = [parse_word(XY, f"x^{a}y^{a}x^{a}"), parse_word(XY, f"x^{a}")]
    start = time.perf_counter()
    core = from_generators(gens)
    elapsed = time.perf_counter() - start
    assert core.n_vertices == 2 * a - 1
    assert elapsed < 1.0, f"folding 4a = {4 * a} letters took {elapsed:.2f} s"
