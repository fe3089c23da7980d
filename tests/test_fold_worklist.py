"""The worklist `fold`, the queue trimming and `core_vertices` against the
scan-all-edges oracle in `fold_oracle.py`, on seeded random inputs."""

import random
import time

import pytest

import fold_oracle
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
    assert got.core_vertices() == fold_oracle.core_vertices(want)


@pytest.mark.parametrize("family", [power_family, proper_powers, random_words, duplicate_loops])
def test_fold_matches_oracle_on_generator_sets(family):
    rng = random.Random(family.__name__)
    for s in range(60):
        alphabet, words = family(rng)
        builder = loop_builder(alphabet, words)
        want = fold_oracle.fold(builder)
        assert_same_core(fold(builder), want)
        assert_same_core(fold(builder, rng=random.Random(s)), want)
        assert_same_core(from_generators(words, alphabet), want)


def test_fold_matches_oracle_on_arbitrary_graphs():
    rng = random.Random(5)
    for s in range(200):
        builder = edge_builder(rng)
        want = fold_oracle.fold(builder)
        assert_same_core(fold(builder), want)
        assert_same_core(fold(builder, rng=random.Random(s)), want)


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
