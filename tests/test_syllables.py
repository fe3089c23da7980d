"""Syllable words and power reads against the letter-by-letter oracle."""

import random

import pytest

from gtrees.errors import InputError
from gtrees.stallings import MAX_FOLD_LETTERS, from_generators
from gtrees.words import (
    XY,
    Alphabet,
    Word,
    cyclic_reduce,
    format_word,
    multiply,
    parse_word,
    power_word,
    substitute,
)

import words_oracle as oracle

XYZ = Alphabet.of("x", "y", "z")
AUX = Alphabet.of("X", "Y")


def random_letters(rng, rank, syllables, max_exp):
    """Letters of random powers of generators, not reduced."""
    letters = []
    for _ in range(syllables):
        gen, exp = rng.randrange(rank), rng.randint(1, max_exp)
        letters += [(gen, rng.choice((1, -1)))] * exp
    return letters


def random_pair(rng, alph=XY, syllables=6, max_exp=4):
    letters = random_letters(rng, alph.size, rng.randrange(syllables + 1), max_exp)
    return Word(alph, letters), oracle.LetterWord(alph, letters)


def test_construction_matches_letter_reduction():
    rng = random.Random(200)
    for _ in range(400):
        alph = rng.choice((XY, XYZ))
        letters = random_letters(rng, alph.size, rng.randrange(10), 4)
        w = Word(alph, letters)
        assert w.letters == oracle._reduce(letters)
        assert len(w) == w.length() == len(w.letters)
        gens = [g for g, _ in w.syllables]
        assert all(e != 0 for _, e in w.syllables)
        assert all(a != b for a, b in zip(gens, gens[1:]))


def test_multiply_invert_power_match_oracle():
    rng = random.Random(201)
    for _ in range(400):
        (a, la), (b, lb) = random_pair(rng), random_pair(rng)
        assert multiply(a, b).letters == (la * lb).letters
        assert len(multiply(a, b)) == len(la * lb)
        assert (~a).letters == (~la).letters
        k = rng.randint(-4, 4)
        assert (a**k).letters == (la**k).letters
        assert a.is_cyclically_reduced() == la.is_cyclically_reduced()


def test_cyclic_reduce_matches_oracle():
    rng = random.Random(202)
    for _ in range(400):
        a, la = random_pair(rng)
        g, lg = random_pair(rng, syllables=3)
        # conjugates have long matching ends, often with partial cancellation
        w, lw = multiply(multiply(~g, a), g), ~lg * la * lg
        core, conj = cyclic_reduce(w)
        lcore, lconj = oracle.cyclic_reduce(lw)
        assert (core.letters, conj.letters) == (lcore.letters, lconj.letters)


def test_substitute_matches_oracle():
    rng = random.Random(203)
    for _ in range(300):
        w, lw = random_pair(rng, AUX, syllables=5, max_exp=6)
        images, limages = {}, {}
        for nm in AUX.names:
            kind = rng.randrange(3)
            if kind == 0:  # one syllable, the O(1) case
                img, limg = random_pair(rng, XY, syllables=1, max_exp=9)
            elif kind == 1:  # a conjugate, whose core is repeated
                g, lg = random_pair(rng, XY, syllables=2)
                c, lc = random_pair(rng, XY, syllables=3)
                img, limg = multiply(multiply(~g, c), g), ~lg * lc * lg
            else:
                img, limg = random_pair(rng, XY)
            images[nm], limages[nm] = img, limg
        assert substitute(w, images).letters == oracle.substitute(lw, limages).letters


def test_parse_format_round_trip_matches_oracle():
    rng = random.Random(204)
    for _ in range(300):
        w, lw = random_pair(rng, max_exp=12)
        text = format_word(w)
        assert text == oracle.format_letters(lw)
        assert parse_word(XY, text) == w


def test_huge_exponents_stay_syllables():
    text = "x^" + "9" * 30
    w = parse_word(XY, text)
    assert w.syllables == ((0, 10**30 - 1),)
    assert format_word(w) == text
    assert parse_word(XY, format_word(~w)) == ~w
    assert power_word(200).syllables == ((0, 2**200), (1, 2**200), (0, 2**200))
    assert power_word(200).length() == 3 * 2**200
    assert substitute(power_word(100, alphabet=AUX), {"X": parse_word(XY, "x^4"), "Y": parse_word(XY, "y^4")}) == power_word(102)
    with pytest.raises(InputError):
        parse_word(XY, "x^²")


def test_fold_rejects_generators_beyond_the_letter_cap():
    with pytest.raises(InputError):
        from_generators([parse_word(XY, f"x^{MAX_FOLD_LETTERS + 1}")])


def random_generators(rng):
    alph = rng.choice((XY, XYZ))
    gens = []
    while not gens:
        gens = [w for w, _ in (random_pair(rng, alph, syllables=4, max_exp=5) for _ in range(rng.randint(1, 3)))]
        gens = [g for g in gens if not g.is_identity()]
    return gens


def random_core(rng):
    return from_generators(random_generators(rng))


def test_power_reads_match_letter_reads():
    rng = random.Random(205)
    for _ in range(60):
        core = random_core(rng)
        for _ in range(8):
            w, lw = random_pair(rng, core.alphabet, syllables=3, max_exp=rng.choice((3, 40, 3000)))
            for v in range(core.n_vertices):
                assert core.read(w, v) == oracle.read(core, lw, v)
            assert core.contains(w) == (oracle.read(core, lw, core.base) == core.base)
            if not w.is_identity() and w.is_cyclically_reduced():
                assert core.closed_path_vertices(w) == oracle.closed_path_vertices(core, lw)


def test_single_letter_powers_match_letter_reads():
    # x^k from every vertex, around the cycles and off the ends of the paths
    rng = random.Random(207)
    for _ in range(20):
        core = random_core(rng)
        for gen in range(core.alphabet.size):
            for k in (rng.randint(-40, 40), rng.randint(-3000, 3000)):
                w = parse_word(core.alphabet, f"{core.alphabet.names[gen]}^{k}")
                lw = oracle.LetterWord.of(w)
                for v in range(core.n_vertices):
                    assert core.read(w, v) == oracle.read(core, lw, v)


def test_power_reads_on_generator_powers():
    # generators read back as members at every exponent, on cycles and paths alike
    rng = random.Random(206)
    for _ in range(40):
        gens = random_generators(rng)
        core = from_generators(gens)
        for g in gens:
            k = rng.randint(1, 300)
            assert core.contains(g**k) and core.contains(g ** (-k))
