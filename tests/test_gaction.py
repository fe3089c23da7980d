import random
import tracemalloc
from collections import Counter

import pytest
from gaction_oracle import oracle_from_generator_images, oracle_from_mult_table, oracle_validate, outcome

import gtrees.gaction as ga

from gtrees.errors import InputError, PreconditionError
from gtrees.gaction import (
    FiniteGroup,
    GSet,
    conjugate_subgroup,
    group_from_json,
    group_to_json,
    gset_from_json,
    gset_to_json,
    is_conjugate_incomparable,
    is_retract,
    is_subgroup,
    non_equivariant,
    retraction_map,
)


def z2_swap():
    g = FiniteGroup.cyclic(2)
    return GSet.from_generator_images(g, 2, [[1, 0]])


def test_group_constructions_validate():
    for grp in (FiniteGroup.trivial(), FiniteGroup.cyclic(5), FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        assert grp.mult[grp.identity][0] == 0
        for a in grp.elements:
            assert grp.mult[a][grp.inverse[a]] == grp.identity
    assert FiniteGroup.symmetric(3).order == 6
    assert FiniteGroup.dihedral(4).order == 8
    assert FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)).order == 4


def test_bad_tables_rejected():
    with pytest.raises(InputError):
        FiniteGroup.from_mult_table([[0, 1], [1, 1]], [1])  # not a group
    with pytest.raises(InputError):
        FiniteGroup.from_mult_table([[0, 1], [1, 0]], [0])  # identity alone generates nothing


def test_orbit_examples():
    triv = GSet.trivial_action(FiniteGroup.trivial(), 3)
    assert triv.orbit(0) == frozenset({0})
    sw = z2_swap()
    assert sw.orbit(0) == frozenset({0, 1})
    s3 = GSet.from_generator_images(FiniteGroup.symmetric(3), 3, [[1, 0, 2], [0, 2, 1]])
    assert s3.orbit(1) == frozenset({0, 1, 2})


def test_stabilizer_examples_and_orbit_stabilizer():
    grp = FiniteGroup.symmetric(3)
    triv = GSet.trivial_action(grp, 2)
    assert triv.stabilizer(0) == frozenset(grp.elements)
    reg = GSet.regular(grp)
    assert reg.stabilizer(0) == frozenset({grp.identity})
    nat = GSet.from_generator_images(grp, 3, [[1, 0, 2], [0, 2, 1]])
    for p in range(3):
        assert len(nat.stabilizer(p)) == 2
        assert len(nat.orbit(p)) * len(nat.stabilizer(p)) == grp.order


def test_orbit_stabilizer_on_more_actions():
    for grp, gset in [
        (FiniteGroup.dihedral(4), GSet.from_generator_images(FiniteGroup.dihedral(4), 4, [[1, 2, 3, 0], [0, 3, 2, 1]])),
        (FiniteGroup.cyclic(6), GSet.from_generator_images(FiniteGroup.cyclic(6), 6, [[1, 2, 3, 4, 5, 0]])),
    ]:
        for p in range(gset.size):
            assert len(gset.orbit(p)) * len(gset.stabilizer(p)) == grp.order


def test_is_retract_whole_set_and_trivial_group():
    sw = z2_swap()
    assert is_retract(sw, {0, 1})
    assert retraction_map(sw, {0, 1}) == {0: 0, 1: 1}
    triv = GSet.trivial_action(FiniteGroup.trivial(), 4)
    assert is_retract(triv, {2})
    assert retraction_map(triv, {2}) == {0: 2, 1: 2, 2: 2, 3: 2}


def test_is_retract_requires_action_closed():
    sw = z2_swap()
    with pytest.raises(PreconditionError):
        is_retract(sw, {0})


def test_restrict_checks_closure_and_keeps_labels():
    # Z/2 swapping 0 and 1 and fixing 2 and 3
    g = FiniteGroup.cyclic(2)
    s = GSet.from_generator_images(g, 4, [[1, 0, 2, 3]], labels=("a", "b", "c", "d"))
    sub = s.restrict([3, 1, 0, 1])
    assert sub == s._restricted([0, 1, 3])
    assert sub.labels == ("a", "b", "d")
    assert sub.act == ((0, 1, 2), (1, 0, 2))
    oracle_validate(sub)
    with pytest.raises(PreconditionError, match="subset is not action-closed"):
        s.restrict([1, 2])


def test_retract_stabilizer_condition():
    # Z/2 acting on 4 points: swap {0,1}, fix 2 and 3.
    g = FiniteGroup.cyclic(2)
    s = GSet.from_generator_images(g, 4, [[1, 0, 2, 3]])
    assert is_retract(s, {2})  # stabilizers of 0,1 are trivial, of 2 full
    r = retraction_map(s, {2})
    for gg in g.elements:
        for p in range(4):
            assert r[s.act[gg][p]] == s.act[gg][r[p]]
    # the swapped pair alone is NOT a retract target for the fixed points
    assert not is_retract(s, {0, 1})


def test_retract_two_orbit_model():
    # finite model of a two-orbit vertex set Gu v Gw with G_w <= G_u:
    # D4 fixes u (full stabilizer) and moves a 4-orbit of w's (stabilizer C2)
    d4 = FiniteGroup.dihedral(4)
    rot = [0, 2, 3, 4, 1]
    ref = [0, 1, 4, 3, 2]
    s = GSet.from_generator_images(d4, 5, [rot, ref], labels=["u", "w0", "w1", "w2", "w3"])
    u_orbit = {0}
    assert s.orbit(0) == frozenset({0})
    assert len(s.stabilizer(1)) == 2  # C2 inside D4
    assert is_retract(s, u_orbit)
    r = retraction_map(s, u_orbit)
    assert set(r.values()) == {0}


def test_retraction_is_equivariant_exhaustively():
    grp = FiniteGroup.dihedral(3)
    # action on 6 points = two triangles
    rot = [1, 2, 0, 4, 5, 3]
    ref = [0, 2, 1, 3, 5, 4]
    s = GSet.from_generator_images(grp, 6, [rot, ref])
    u = {3, 4, 5}
    assert is_retract(s, u)
    r = retraction_map(s, u)
    assert all(r[p] == p for p in u)
    for g in grp.elements:
        for p in range(s.size):
            assert r[s.act[g][p]] == s.act[g][r[p]]


def powers(grp, g):
    """The subgroup of the powers of g."""
    h, x = {grp.identity}, g
    while x not in h:
        h.add(x)
        x = grp.mult[x][g]
    return frozenset(h)


def test_subgroup_helpers():
    grp = FiniteGroup.symmetric(3)
    # the generators swap points 0, 1 and points 1, 2: point 2's stabilizer is the first one's powers
    h = GSet.from_generator_images(grp, 3, [[1, 0, 2], [0, 2, 1]]).stabilizer(2)
    assert h == powers(grp, grp.generators[0])
    assert is_subgroup(grp, h)
    assert len(h) == 2
    g = grp.generators[1]
    assert len(conjugate_subgroup(grp, h, g)) == 2


def test_conjugate_incomparable_always_true_for_finite():
    grp = FiniteGroup.symmetric(3)
    subs = [frozenset({grp.identity}), powers(grp, grp.generators[0]), frozenset(grp.elements)]
    for h in subs:
        assert is_conjugate_incomparable(grp, h)
    d4 = FiniteGroup.dihedral(4)
    for g in d4.elements:
        assert is_conjugate_incomparable(d4, powers(d4, g))


def test_json_round_trip():
    grp = FiniteGroup.dihedral(3)
    doc = group_to_json(grp)
    grp2 = group_from_json(doc)
    assert grp2.mult == grp.mult
    grp3 = group_from_json({"generator_permutations": [[1, 2, 0], [0, 2, 1]]})
    assert grp3.order == 6
    s = GSet.from_generator_images(grp, 6, [[1, 2, 0, 4, 5, 3], [0, 2, 1, 3, 5, 4]])
    s2 = gset_from_json(grp, gset_to_json(s))
    assert s2.act == s.act and s2.labels == s.labels
    with pytest.raises(InputError):
        group_from_json({"order": 3})
    with pytest.raises(InputError):
        gset_from_json(grp, {"points": 2, "action": [[0, 1]]})


def _library_groups():
    groups = [FiniteGroup.cyclic(n) for n in range(1, 9)]
    groups += [FiniteGroup.dihedral(n) for n in range(3, 9)]
    groups += [FiniteGroup.symmetric(n) for n in range(1, 6)]
    factors = [FiniteGroup.cyclic(n) for n in range(1, 5)] + [FiniteGroup.dihedral(3), FiniteGroup.dihedral(4)]
    groups += [FiniteGroup.direct_product(a, b) for a in factors for b in factors]
    return groups


def test_library_built_groups_match_the_checked_table_path():
    # the unchecked constructors give what the checked path gives on their tables
    for grp in _library_groups():
        checked = FiniteGroup.from_mult_table(grp.mult, grp.generators)
        assert grp == checked
        assert grp.inverse == checked.inverse
        assert grp.gen_words == checked.gen_words


def test_symmetric_six_builds():
    s6 = FiniteGroup.symmetric(6)
    assert s6.order == 720
    assert all(s6.mult[a][s6.inverse[a]] == s6.identity == s6.mult[s6.inverse[a]][a] for a in s6.elements)
    # the checked path runs Light's test on 5 x 720 rows, not 720^3 triples
    assert FiniteGroup.from_mult_table(s6.mult, s6.generators) == s6


def test_build_accepts_exactly_what_the_elementwise_oracle_accepts():
    # the regular action with its points relabeled on every row, on a random
    # set of rows, or swapped in one row, a wrong identity row, a
    # non-generator row that is not a permutation, and one that holds True
    # for 1 (equal under ==): GSet.build, which reads the generators' rows
    # and checks the law on generators, accepts exactly the tables that the
    # row-by-row checks accept
    rng = random.Random(3)
    verdicts = Counter()
    for grp in _library_groups():
        if grp.order > 24:
            continue
        reg = GSet.regular(grp)
        n = grp.order
        rows = [g for g in grp.elements if g != grp.identity]
        non_generators = [g for g in rows if g not in grp.generators]
        for trial in range(9):
            sigma = rng.sample(range(n), n)
            inv = sorted(range(n), key=sigma.__getitem__)
            changed = set(rows) if trial in (0, 6, 7, 8) else set(rng.sample(rows, rng.randint(0, len(rows))))
            act = [
                [sigma[row[inv[p]]] for p in range(n)] if g in changed else list(row) for g, row in enumerate(reg.act)
            ]
            if trial == 5 and n > 2:
                g = rng.choice(rows)
                i, j = rng.sample(range(n), 2)
                act[g][i], act[g][j] = act[g][j], act[g][i]
            if trial == 6 and rows:
                act[grp.identity] = list(act[rng.choice(rows)])
            if trial == 7 and non_generators:
                g = rng.choice(non_generators)
                i, j = rng.sample(range(n), 2)
                act[g][i] = act[g][j]
            if trial == 8 and non_generators:
                g = rng.choice(non_generators)
                act[g] = [True if p == 1 else p for p in act[g]]
            s = GSet(grp, tuple(map(tuple, act)), reg.labels)
            ok = outcome(oracle_validate, s) is None
            got = outcome(GSet.build, grp, n, act)
            assert (got == s) == ok, (grp, trial, got)
            verdicts[trial, ok] += 1
    # relabeling every row gives an action; a wrong identity row, a repeated
    # point or a bool gives none, but on groups too small to hold them; the
    # random subsets and swaps give both
    assert verdicts[0, False] == 0 and min(verdicts[t, False] for t in (6, 7, 8)) > 40, verdicts
    assert min(sum(verdicts[t, ok] for t in range(1, 6)) for ok in (True, False)) > 40, verdicts


def test_non_equivariant_reports_generator_pairs():
    s = GSet.from_generator_images(FiniteGroup.cyclic(2), 4, [[1, 0, 2, 3]])
    assert non_equivariant(s, s, (0, 1, 2, 3)) == []
    assert non_equivariant(s, s, (2, 2, 2, 2)) == []
    assert non_equivariant(s, s, (0, 0, 2, 3)) == [(1, 0), (1, 1)]
    # a dict is checked on its keys, which must be action-closed
    assert non_equivariant(s, s, {2: 3, 3: 2}) == []
    assert non_equivariant(s, s, {0: 2}) == [(1, 0)]


def test_build_refuses_a_wrong_shape_before_allocating():
    # a million points with two-point rows: the shape fails before the
    # million default labels are built
    grp = FiniteGroup.cyclic(2)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="wrong shape"):
            GSet.build(grp, 10**6, [[0, 1], [1, 0]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_every_constructor_takes_one_label_per_point():
    # a G-set's size is its number of labels, so labels of another length
    # would leave its rows longer or shorter than the G-set
    c2 = FiniteGroup.cyclic(2)
    for make in (
        lambda labels: GSet.build(c2, 3, [[0, 1, 2], [1, 0, 2]], labels),
        lambda labels: GSet.from_generator_images(c2, 3, [[1, 0, 2]], labels),
        lambda labels: GSet.trivial_action(c2, 3, labels),
    ):
        assert make("abc").labels == ("a", "b", "c")
        for labels in ("ab", "abcd"):
            with pytest.raises(InputError, match="need one label per point: 3 points"):
                make(labels)


def test_gset_from_json_refuses_more_points_than_the_cap(monkeypatch):
    # the trivial group with no generators needs no rows, so only the cap
    # stops a bare count
    grp = FiniteGroup.from_mult_table([[0]], [])
    monkeypatch.setattr(ga, "MAX_GSET_POINTS", 5)
    assert gset_from_json(grp, {"points": 5, "action": []}).size == 5
    with pytest.raises(InputError, match="at most 5 points"):
        gset_from_json(grp, {"points": 6, "action": []})


def test_generator_closure_stops_past_the_order_cap(monkeypatch):
    # lower the cap rather than build a large group: S_4 has order 24
    monkeypatch.setattr(ga, "MAX_GROUP_ORDER", 24)
    assert FiniteGroup.symmetric(4).order == 24
    monkeypatch.setattr(ga, "MAX_GROUP_ORDER", 23)
    with pytest.raises(InputError, match="more than 23 elements"):
        FiniteGroup.symmetric(4)


def test_generator_closure_stops_past_the_entry_cap(monkeypatch):
    # lower the cap rather than permute many points: C_5 on 5 points stores
    # 5 elements x 5 points = 25 entries while it closes
    monkeypatch.setattr(ga, "MAX_CLOSURE_ENTRIES", 25)
    assert FiniteGroup.cyclic(5).order == 5
    monkeypatch.setattr(ga, "MAX_CLOSURE_ENTRIES", 24)
    with pytest.raises(InputError, match="permutations of 5 points need more than 24 entries to close"):
        FiniteGroup.cyclic(5)


def test_group_order_is_read_as_an_integer():
    assert group_from_json({"mult_table": [[0]], "order": 1}).order == 1
    for order in (True, 1.0, "1"):
        with pytest.raises(InputError, match="group.order must be an integer"):
            group_from_json({"mult_table": [[0]], "order": order})
    with pytest.raises(InputError, match="group.order does not match the table's 1 rows"):
        group_from_json({"mult_table": [[0]], "order": 2})


def _relabeled_table(grp, sigma):
    """grp's table with element i renamed sigma[i], and its generators renamed."""
    inv = sorted(range(grp.order), key=sigma.__getitem__)
    table = [[sigma[grp.mult[inv[a]][inv[b]]] for b in grp.elements] for a in grp.elements]
    return table, [sigma[g] for g in grp.generators]


def test_light_associativity_test_matches_the_cubic_check():
    # a relabeled group table passes; one with two entries of a row swapped
    # breaks a law.  A table that breaks one law gets the cubic check's
    # message; one that also breaks associativity may be refused for another
    rng = random.Random(11)
    verdicts = Counter()
    for grp in _library_groups():
        n = grp.order
        if n > 64:
            continue
        for trial in range(4):
            table, gens = _relabeled_table(grp, rng.sample(range(n), n))
            if trial and n > 1:
                row = table[rng.randrange(n)]
                i, j = rng.sample(range(n), 2)
                row[i], row[j] = row[j], row[i]
            got = outcome(FiniteGroup.from_mult_table, table, gens)
            want = outcome(oracle_from_mult_table, table, gens)
            if isinstance(want, tuple):
                assert got == want or want[1] == "multiplication table is not associative", (got, want)
                assert isinstance(got, tuple) and got[0] == "InputError"
            else:
                assert got == want and got.gen_words == want.gen_words
            verdicts[got if isinstance(got, tuple) else "ok"] += 1
    assert verdicts["ok"] > 60 and verdicts["InputError", "multiplication table is not associative"] > 60, verdicts


def test_every_given_generator_image_is_read():
    # a mult_table group without listed generators takes every element as
    # one, the identity included, and a group built directly may list a
    # generator twice; each given image must be the permutation its
    # generator acts by, as in the word-replay oracle
    c2 = FiniteGroup.from_mult_table([[0, 1], [1, 0]], [0, 1])
    twice = FiniteGroup(c2.mult, c2.identity, (1, 1), c2.inverse, c2.gen_words)
    for grp, images, ok in [
        (c2, [[1, 0], [1, 0]], False),
        (c2, [[0, 1], [1, 0]], True),
        (twice, [[0, 1], [1, 0]], False),
        (twice, [[1, 0], [1, 0]], True),
    ]:
        got = outcome(GSet.from_generator_images, grp, 2, images)
        assert got == outcome(oracle_from_generator_images, grp, 2, images)
        if ok:
            assert got.act == ((0, 1), (1, 0))
        else:
            assert got[0] == "InputError" and got[1].startswith("inconsistent image for generator ")


def test_generator_images_match_the_word_replay_oracle():
    # a relabeled regular action or coset action satisfies every relation;
    # random images of a few points mostly break one, and both forms refuse
    # those with the same message
    rng = random.Random(12)
    verdicts = Counter()
    for grp in _library_groups():
        n = grp.order
        for trial in range(4):
            if trial < 2:
                size = n
                sigma = rng.sample(range(n), n)
                inv = sorted(range(n), key=sigma.__getitem__)
                images = [[sigma[grp.mult[g][inv[p]]] for p in range(n)] for g in grp.generators]
                if trial:
                    images[rng.randrange(len(images))] = rng.sample(range(n), n)
            else:
                size = rng.randint(0, 4)
                images = [rng.sample(range(size), size) for _ in grp.generators]
            got = outcome(GSet.from_generator_images, grp, size, images)
            want = outcome(oracle_from_generator_images, grp, size, images)
            assert got == want
            if isinstance(got, tuple):
                # a product with the trivial group lists its identity as a
                # generator, whose random image is refused before the law
                assert got == ("InputError", "action is not associative: (gh)p != g(hp)") or (
                    grp.identity in grp.generators and got[1].startswith("inconsistent image for generator ")
                )
            else:
                assert got.act == want.act and got.labels == want.labels
            verdicts[isinstance(got, tuple)] += 1
    assert min(verdicts.values()) > 40, verdicts
