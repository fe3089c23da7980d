"""The census `CoreGraph.closed_path_vertices`, which reads its word only from
the core vertices that the word's first letter leaves and its last letter
enters, against the letter-by-letter census from every core vertex in
`words_oracle.py`: on small cores of the fold benchmark's three families and
on the cores the verifier takes censuses of; and the census's work contract."""

import random

import words_oracle
from gtrees import counterexample
from gtrees.stallings import CoreGraph, from_generators
from gtrees.words import XY, Word, cyclic_reduce, parse_word
from test_fold_worklist import XYZ, random_word


def bench_family_generators(rng):
    """Small generator sets of the fold benchmark's three families: the power
    family with a <= 64, proper powers, and random words of rank 2 and 3.
    Now and then each generator is conjugated by one short word, which gives
    the core a tail at the base."""
    family = rng.choice(("power", "proper power", "random"))
    if family == "power":
        a = rng.randint(1, 64)
        alphabet, gens = XY, [parse_word(XY, f"x^{a}y^{a}x^{a}"), parse_word(XY, f"x^{a}")]
    elif family == "proper power":
        w = random_word(rng, XY, rng.randint(2, 6), cyclic=True)
        p = rng.randint(2, 12)
        alphabet, gens = XY, [w**p, w ** (p - 1)]
    else:
        alphabet = rng.choice((XY, XYZ))
        gens = [random_word(rng, alphabet, rng.randint(1, 40)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        c = random_word(rng, alphabet, rng.randint(1, 4))
        gens = [c * g * ~c for g in gens]
    return alphabet, gens


def census_words(rng, core):
    """Cyclically reduced census words for one core.

    Every generator's powers x^k of both signs; the cyclic reductions of
    products of the core's basic loops at the base, which close at some core
    vertex, with their inverses and a rotation, which closes at another one
    and, when it cuts a syllable, starts and ends on one generator; and a
    random word, which mostly closes nowhere.
    """
    alphabet = core.alphabet
    words = [
        parse_word(alphabet, f"{name}^{k}")
        for name in alphabet.names
        for k in (1, -1, 2, -3, rng.randint(4, 70), -rng.randint(4, 70))
    ]
    parent = core.bfs_parents()
    tree = {(u, lab, v) if sg == 1 else (v, lab, u) for v, (u, lab, sg) in parent.items() if u != -1}

    def word_to(v):
        letters = []
        while v != core.base:
            v, lab, sg = parent[v]
            letters.append((lab, sg))
        return Word(alphabet, reversed(letters))

    loops = [word_to(u) * Word.gen(alphabet, lab) * ~word_to(v) for u, lab, v in core.edges() if (u, lab, v) not in tree]
    for _ in range(6 if loops else 0):
        prod = Word.identity(alphabet)
        for _ in range(rng.randint(1, 3)):
            loop = rng.choice(loops)
            prod = prod * (loop if rng.random() < 0.5 else ~loop)
        w = cyclic_reduce(prod)[0]
        if w.is_identity():
            continue
        k = rng.randrange(len(w))
        words += [w, ~w, Word(alphabet, w.letters[k:] + w.letters[:k])]
    words.append(random_word(rng, alphabet, rng.randint(1, 12), cyclic=True))
    return words


def check_census(core, words, seen):
    """Compare each census with the oracle's, and note in `seen` the kinds of
    word and core that had a nonempty census."""
    tail = len(core.core_vertices()) < core.n_vertices
    for w in words:
        census = core.closed_path_vertices(w)
        assert census == words_oracle.closed_path_vertices(core, words_oracle.LetterWord.of(w)), (core.to_text(), w)
        if census:
            (i0, e0), (i1, e1) = w.syllables[0], w.syllables[-1]
            seen.add(("signs", e0 > 0, e1 > 0))
            seen.add(("one syllable", len(w.syllables) == 1))
            seen.add(("ends share a generator", len(w.syllables) > 1 and i0 == i1))
            seen.add(("base tail", tail))


ALL_KINDS = {("signs", a, b) for a in (True, False) for b in (True, False)} | {
    (kind, True) for kind in ("one syllable", "ends share a generator", "base tail")
}


def test_census_matches_the_letter_census_on_the_fold_families():
    rng = random.Random("census")
    seen = set()
    for _ in range(120):
        alphabet, gens = bench_family_generators(rng)
        core = from_generators(gens, alphabet)
        check_census(core, census_words(rng, core), seen)
    assert ALL_KINDS <= seen, ALL_KINDS - seen


def test_census_matches_the_letter_census_on_the_verifiers_cores(monkeypatch):
    # the verifier's own censuses, on the documented data and its six
    # mutants, and then the census words above on each of their cores
    calls = []
    real = CoreGraph.closed_path_vertices

    def census(core, w):
        calls.append((core, w))
        return real(core, w)

    with monkeypatch.context() as m:
        m.setattr(CoreGraph, "closed_path_vertices", census)
        data = counterexample.default_data()
        counterexample.verify_all(data, n_max=8)
        for mutant in counterexample.documented_mutations(data).values():
            counterexample.verify_all(mutant, n_max=3)
    cores = {id(core): core for core, _ in calls}
    assert len(calls) > 50 and len(cores) >= 3
    for core, w in calls:
        assert core.closed_path_vertices(w) == words_oracle.closed_path_vertices(core, words_oracle.LetterWord.of(w))
    rng = random.Random("verifier census")
    seen = set()
    for core in cores.values():
        check_census(core, census_words(rng, core), seen)
    assert {("signs", a, b) for a in (True, False) for b in (True, False)} <= seen, seen


def test_census_reads_only_where_both_end_letters_admit(monkeypatch):
    # work contract: the census reads its word once from each core vertex
    # that the word's first letter leaves and its last letter enters, and on
    # the fold benchmark's rank-2 random-word cores those are at most half
    # the core (a fifth or less here); a census that reads from every core
    # vertex fails both
    reads = [0]
    real_read = CoreGraph.read

    def read(core, w, start):
        reads[0] += 1
        return real_read(core, w, start)

    rng = random.Random("census work")
    for _ in range(8):
        gens = [random_word(rng, XY, 300) for _ in range(3)]
        core = from_generators(gens)
        w = cyclic_reduce(gens[0])[0]
        first = words_oracle.LetterWord(XY, w.letters[:1])
        last_back = ~words_oracle.LetterWord(XY, w.letters[-1:])
        admitted = {
            v
            for v in core.core_vertices()
            if words_oracle.read(core, first, v) is not None and words_oracle.read(core, last_back, v) is not None
        }
        reads[0] = 0
        with monkeypatch.context() as m:
            m.setattr(CoreGraph, "read", read)
            census = core.closed_path_vertices(w)
        assert reads[0] == len(admitted), (reads[0], len(admitted))
        assert 2 * reads[0] <= len(core.core_vertices()), (reads[0], len(core.core_vertices()))
        # the first generator's cyclic reduction closes at a core vertex
        assert census and census <= admitted
