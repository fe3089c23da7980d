import random

import pytest

from gtrees.errors import AlphabetMismatch, InputError
from gtrees.words import (
    XY,
    Alphabet,
    Word,
    conjugate,
    cyclic_reduce,
    format_word,
    multiply,
    parse_generators,
    parse_word,
    power_word,
    substitute,
)

AUX = Alphabet.of("X", "Y")


def w(text, alph=XY):
    return parse_word(alph, text)


def naive_reduce(letters, rng):
    """Oracle: cancel adjacent inverse pairs in a random order until stuck."""
    letters = list(letters)
    while True:
        sites = [
            i
            for i in range(len(letters) - 1)
            if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]
        ]
        if not sites:
            return tuple(letters)
        i = rng.choice(sites)
        del letters[i : i + 2]


def random_letters(rng, n, rank=2):
    return [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(n)]


def random_word(rng, n, alph=XY):
    return Word(alph, random_letters(rng, n, alph.size))


def test_reduction_confluence_matches_randomized_oracle():
    rng = random.Random(100)
    for _ in range(300):
        letters = random_letters(rng, rng.randrange(0, 14))
        reference = Word(XY, letters).letters
        for seed in range(4):
            assert naive_reduce(letters, random.Random(seed)) == reference


def test_multiply_examples():
    assert multiply(w("x"), w("x^-1")).is_identity()
    assert multiply(w("xy"), w("y^-1x")) == w("xx")
    # no cancellation at the junction: checked against brute-force reduction
    prod = multiply(w("x^2y^2"), w("y^2x^2"))
    assert prod == w("x^2y^4x^2")
    assert prod.letters == naive_reduce(list(w("x^2y^2").letters) + list(w("y^2x^2").letters), random.Random(0))


def test_multiply_is_associative_with_identity():
    rng = random.Random(7)
    e = Word.identity(XY)
    for _ in range(100):
        a, b, c = (random_word(rng, rng.randrange(0, 9)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, e) == a and multiply(e, a) == a


def test_multiply_length_bound():
    rng = random.Random(8)
    for _ in range(200):
        a, b = random_word(rng, rng.randrange(0, 9)), random_word(rng, rng.randrange(0, 9))
        prod = multiply(a, b)
        assert len(prod) <= len(a) + len(b)
        no_cancel = not (
            a.letters and b.letters and a.letters[-1][0] == b.letters[0][0] and a.letters[-1][1] == -b.letters[0][1]
        )
        assert (len(prod) == len(a) + len(b)) == no_cancel


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatch):
        multiply(w("x"), w("X", AUX))
    with pytest.raises(AlphabetMismatch):
        conjugate(w("x"), w("X", AUX))


def test_conjugate_examples():
    assert conjugate(w("x"), Word.identity(XY)) == w("x")
    assert conjugate(w("xyx"), w("y")) == w("y^-1xyxy")
    rng = random.Random(9)
    for _ in range(100):
        word, g = random_word(rng, 6), random_word(rng, 5)
        assert conjugate(conjugate(word, g), ~g) == word


def test_conjugate_composes():
    rng = random.Random(10)
    for _ in range(100):
        word, g, h = random_word(rng, 6), random_word(rng, 4), random_word(rng, 4)
        assert conjugate(word, multiply(g, h)) == conjugate(conjugate(word, g), h)


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(w("x^-1yx"))
    assert (core, conj) == (w("y"), w("x"))
    assert cyclic_reduce(w("xyx")) == (w("xyx"), Word.identity(XY))
    assert cyclic_reduce(Word.identity(XY)) == (Word.identity(XY), Word.identity(XY))


def test_cyclic_reduce_postcondition():
    rng = random.Random(11)
    for _ in range(200):
        word = random_word(rng, rng.randrange(0, 10))
        core, conj = cyclic_reduce(word)
        assert core.is_cyclically_reduced()
        assert conjugate(core, conj) == word


def enumerate_reduced(alph, max_len):
    out = [Word.identity(alph)]
    frontier = [Word.identity(alph)]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for i in range(alph.size):
                for s in (1, -1):
                    cand = multiply(word, Word.gen(alph, i, s))
                    if len(cand) == len(word) + 1:
                        nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def test_cyclic_core_has_minimal_conjugacy_length():
    # oracle: enumerate every conjugator of length <= 8
    conjugators = enumerate_reduced(XY, 8)
    rng = random.Random(12)
    samples = [random_word(rng, rng.randrange(1, 9)) for _ in range(12)]
    for word in samples:
        core, _ = cyclic_reduce(word)
        best = min(len(conjugate(word, g)) for g in conjugators)
        assert len(core) == best


def test_substitute_examples():
    images = {"X": w("x^4"), "Y": w("y^4")}
    assert substitute(w("XY", AUX), images) == w("x^4y^4")
    assert substitute(w("X^-1", AUX), images) == w("x^-4")
    assert substitute(w("XYX", AUX), images) == w("x^4y^4x^4")


def test_substitute_missing_image():
    with pytest.raises(InputError):
        substitute(w("XY", AUX), {"X": w("x")})


def test_substitute_composes():
    rng = random.Random(13)
    phi = {"X": w("X^2", AUX), "Y": w("Y^2", AUX)}
    emb = {"X": w("x^4"), "Y": w("y^4")}
    composed = {nm: substitute(phi[nm], emb) for nm in ("X", "Y")}
    for _ in range(60):
        word = random_word(rng, rng.randrange(0, 8), AUX)
        assert substitute(substitute(word, phi), emb) == substitute(word, composed)


def test_power_word_examples():
    assert power_word(0) == w("xyx")
    assert power_word(1) == w("x^2y^2x^2")
    assert power_word(2) == w("x^4y^4x^4")
    for n in range(8):
        assert len(power_word(n)) == 3 * 2**n


def test_parse_and_format_round_trip():
    rng = random.Random(14)
    for _ in range(300):
        word = random_word(rng, rng.randrange(0, 12))
        assert parse_word(XY, format_word(word)) == word
    assert parse_word(XY, "1") == parse_word(XY, "x x^-1")
    # uppercase-inverse convention is on for lowercase alphabets only
    assert parse_word(XY, "X") == w("x^-1")
    assert parse_word(AUX, "X") == Word.gen(AUX, 0)


def test_parse_generators():
    gens = parse_generators(XY, "x^2, y^2")
    assert gens == [w("x^2"), w("y^2")]
    with pytest.raises(InputError):
        parse_word(XY, "z^2")
