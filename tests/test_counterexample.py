import pytest

from gtrees.errors import VerificationMismatch
from gtrees.counterexample import (
    AUX,
    ExampleData,
    RunCache,
    default_data,
    derive_phi,
    documented_mutations,
    express_in_generators,
    fixed_point_profile,
    ge_t2_generators,
    t_conjugate,
    verify_all,
    verify_really,
    verify_schreier,
    verify_stabilizer_inclusions,
)
from gtrees.stallings import from_generators
from gtrees.words import XY, Alphabet, Word, conjugate, multiply, parse_word, power_word


def w(text, alph=XY):
    return parse_word(alph, text)


@pytest.fixture(scope="module")
def data():
    return default_data()


def subgroup_ball(gens, max_len):
    """The subgroup elements reached by multiplying generators and their
    inverses one at a time without a partial product longer than max_len."""
    seen = {Word.identity(gens[0].alphabet)}
    frontier = [Word.identity(gens[0].alphabet)]
    steps = [g for g in gens] + [~g for g in gens]
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


def test_express_in_generators_basics(data):
    assert express_in_generators(data.gw_gens, w("x^8"), AUX) == w("X^2", AUX)
    assert express_in_generators(data.gw_gens, w("x^4y^4x^4"), AUX) == w("XYX", AUX)
    assert express_in_generators(data.gw_gens, w("x^-4y^4"), AUX) == w("X^-1Y", AUX)
    with pytest.raises(VerificationMismatch):
        express_in_generators(data.gw_gens, w("x^2"), AUX)


def test_derive_phi_doubles_letters(data):
    phi = derive_phi(data)
    assert phi.images == {"X": w("X^2", AUX), "Y": w("Y^2", AUX)}
    assert phi.start == w("XYX", AUX)
    assert phi.apply(w("XYX", AUX), 1) == w("X^2Y^2X^2", AUX)


def test_t_conjugate_realizes_relators(data):
    phi = derive_phi(data)
    assert t_conjugate(data, phi, w("x^4")) == w("x^8")
    assert t_conjugate(data, phi, w("y^4"), 2) == w("y^16")
    assert ge_t2_generators(data, phi) == [w("x^16"), w("x^4y^4x^4"), w("y^16")]


def test_schreier_part_i_pattern(data):
    for n in range(6):
        rep = verify_schreier(data, "i", n)
        assert rep.passed, rep.to_text()
        assert rep.checks[0].computed == ("empty" if n == 0 else "base")


def test_schreier_part_ii_pattern(data):
    for n in range(6):
        rep = verify_schreier(data, "ii", n)
        assert rep.passed, rep.to_text()
        assert rep.checks[0].computed == ("empty" if n == 1 else "base")


def test_schreier_examples_from_statement(data):
    assert verify_schreier(data, "i", 0).checks[0].computed == "empty"
    assert verify_schreier(data, "ii", 1).checks[0].computed == "empty"
    assert verify_schreier(data, "ii", 0).checks[0].computed == "base"


def test_census_agrees_with_small_conjugation_oracle(data):
    # brute force over all cosets Hg with |g| <= 3
    for gens in (data.schreier_small_gens, data.ge_gens):
        core = from_generators(gens)
        ball = subgroup_ball(gens, 14)
        for n in (0, 1, 2):
            word = power_word(n)
            census = core.closed_path_vertices(word)
            gs = [Word.identity(XY)]
            frontier = [Word.identity(XY)]
            for _ in range(3):
                nxt = []
                for cur in frontier:
                    for i in range(2):
                        for s in (1, -1):
                            cand = multiply(cur, Word.gen(XY, i, s))
                            if len(cand) == len(cur) + 1:
                                nxt.append(cand)
                frontier = nxt
                gs.extend(nxt)
            for g in gs:
                vertex = core.read(g, core.base)
                in_census = vertex is not None and vertex in census
                expected = conjugate(word, ~g) in ball
                if len(multiply(multiply(g, word), ~g)) <= 14:
                    assert in_census == expected, (gens, n, g)


def test_verify_really_base_cases(data):
    rep0 = verify_really(data, 0)
    assert rep0.passed
    phi = derive_phi(data)
    assert phi.embed(phi.apply(phi.start, 0)) == w("x^4y^4x^4")
    rep1 = verify_really(data, 1)
    assert rep1.passed
    assert phi.embed(phi.apply(phi.start, 1)) == w("x^8y^8x^8") == power_word(3)


PQ = Alphabet.of("P", "Q")


def test_run_cache_words_match_a_fresh_derivation():
    # the kept iterates, embeddings, rewrites and t^2-conjugates are the
    # words derived from scratch, whatever order they are asked in
    for d in [default_data(), *documented_mutations().values()]:
        cache = RunCache()
        try:
            words = cache.phi_words(d)
        except VerificationMismatch:
            with pytest.raises(VerificationMismatch):
                derive_phi(d)
            with pytest.raises(VerificationMismatch):
                cache.phi_words(d)
            continue
        phi = derive_phi(d)
        assert words.phi == phi
        for k in (5, 0, 3, 5, 9, 1):
            assert words.iterate(k) == phi.apply(phi.start, k)
            assert words.embed(words.iterate(k)) == phi.embed(phi.apply(phi.start, k))
            aux = power_word(k, alphabet=AUX)
            assert words.embed(aux) == phi.embed(aux)
        for g in d.gw_gens + d.t_images + (d.base_rhs,):
            kept = express_in_generators(d.gw_gens, g, AUX, cache=cache)
            assert kept == express_in_generators(d.gw_gens, g, AUX)
            assert express_in_generators(d.gw_gens, g, AUX, cache=cache) is kept
            assert express_in_generators(d.gw_gens, g, PQ, cache=cache) == express_in_generators(d.gw_gens, g, PQ)
        try:
            fresh = ge_t2_generators(d, phi)
        except VerificationMismatch:
            with pytest.raises(VerificationMismatch):
                cache.ge_t2(d)
            continue
        assert cache.ge_t2(d) == fresh
        assert cache.ge_t2(d) is cache.ge_t2(d)


def test_verify_really_through_ten(data):
    for n in range(11):
        rep = verify_really(data, n)
        assert rep.passed, rep.to_text()


def test_stabilizer_inclusions(data):
    rep = verify_stabilizer_inclusions(data)
    assert rep.passed, rep.to_text()
    # spot checks from the statement
    gw_core = from_generators(data.gw_gens)
    assert gw_core.contains(w("x^16"))
    assert gw_core.contains(w("x^4y^4x^4"))
    doc = from_generators(data.documented_ge_t2)
    assert doc.contains(w("x^4y^4x^4"))
    assert not doc.contains(w("x^4"))


def test_fixed_point_profile_matches_statement(data):
    rep = fixed_point_profile(data, 10)
    assert rep.passed, rep.to_text()
    rows = {(c.name, c.n): c for c in rep.checks}
    # t^1 u is not fixed, every other t^n u is
    assert rows[("fixed.vertex.u", 1)].computed is False
    for n in (0, 2, 5, 10):
        assert rows[("fixed.vertex.u", n)].computed is True
    # edges at t^2 w are e and t^2 f
    assert rows[("fixed.edges.at-w", 0)].computed == [("e", 0), ("f", 2)]
    # neighbours of t^3 w are t^2 w and t^4 w
    assert rows[("fixed.neighbours.of-w", 1)].computed == [("w", 2), ("w", 4)]
    # deep levels see all three neighbours
    assert rows[("fixed.neighbours.of-w", 3)].computed == [("u", 3), ("w", 4), ("w", 6)]


def test_verify_all_passes_and_reports(data):
    rep = verify_all(data, 5)
    assert rep.passed
    doc = rep.to_dict()
    assert doc["pass"] is True
    assert all(set(c) >= {"name", "n", "expected", "computed", "pass"} for c in doc["checks"])
    text = rep.to_text()
    assert "PASS" in text
    sub = verify_all(data, 3, parts=["schreier"])
    assert sub.passed and all(c.name.startswith(("schreier", "wordlength")) for c in sub.checks)


def test_every_documented_mutation_is_detected(data):
    muts = documented_mutations(data)
    assert len(muts) == 6
    for name, mutated in muts.items():
        rep = verify_all(mutated, 6)
        assert not rep.passed, f"mutation {name} was not detected"


def test_fixture_json_round_trip(data):
    doc = data.to_json()
    back = ExampleData.from_json(doc)
    assert back == data
