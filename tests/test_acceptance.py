"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing the stated exactness and runtime budget."""

import random
import time

import pytest

from gtrees.almost import (
    AbelianGroup,
    GModule,
    ag_shift,
    ag_sub,
    check_derivation,
    function_action,
    hochschild_v,
    inner_derivation,
    twisted_gset,
    twisted_stabilizer_kernel,
    untwist,
)
from gtrees.counterexample import (
    default_data,
    documented_mutations,
    fixed_point_profile,
    verify_really,
    verify_schreier,
)
from gtrees.gaction import FiniteGroup, GSet
from gtrees.ggraph import compress, reorient, slide, subdivide, validate
from gtrees.retract import build_filtration, check_filtration, make_state, retract_tree
from gtrees.stallings import from_generators
from gtrees.words import XY, parse_generators

from instgen import (
    equivariant_sink_orientation,
    random_instance,
    random_slide_candidates,
    small_coset_trees,
)

DATA = default_data()


def report(criterion, elapsed, detail):
    print(f"PASS criterion {criterion} ({elapsed:.2f}s): {detail}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260808)
    return [random_instance(rng, max_vertices=40, max_group=24) for _ in range(500)]


def test_criterion_1_core_graph_census():
    t0 = time.perf_counter()
    small = from_generators(parse_generators(XY, "x^2,y^2"))
    big = from_generators(parse_generators(XY, "x^4,xyx,y^4"))
    assert (small.n_vertices, small.n_edges) == (3, 4)
    assert (big.n_vertices, big.n_edges) == (7, 9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "core graphs have exactly 3/4 and 7/9 vertices/edges")


def test_criterion_2_schreier_replication():
    t0 = time.perf_counter()
    for n in range(11):
        rep_i = verify_schreier(DATA, "i", n)
        rep_ii = verify_schreier(DATA, "ii", n)
        assert rep_i.passed and rep_i.checks[0].computed == ("empty" if n == 0 else "base")
        assert rep_ii.passed and rep_ii.checks[0].computed == ("empty" if n == 1 else "base")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, elapsed, "census pattern over n = 0..10 is exact for both parts")


def test_criterion_3_conjugation_identities():
    t0 = time.perf_counter()
    for n in range(11):
        rep = verify_really(DATA, n)
        assert rep.passed, rep.to_text()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, elapsed, "doubling-endomorphism identities hold for n = 0..10")


def test_criterion_4_fixed_point_profile():
    t0 = time.perf_counter()
    rep = fixed_point_profile(DATA, 10)
    assert rep.passed, rep.to_text()
    rows = {(c.name, c.n): c for c in rep.checks}
    for n in range(11):
        assert rows[("fixed.vertex.u", n)].computed == (n != 1)
        assert rows[("fixed.vertex.w", n)].computed is True
        assert rows[("fixed.edges.at-w", n)].passed
        assert rows[("fixed.neighbours.of-w", n)].passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, elapsed, "fixed vertices/edges match the documented profile up to n = 10")


def test_criterion_5_retract_pipeline_property_suite(corpus):
    t0 = time.perf_counter()
    slides_used = 0
    for t, u in corpus + small_coset_trees():
        res = retract_tree(t, u)
        assert validate(res.tree).is_tree
        assert set(res.tree.vertices.labels) == {t.vertices.labels[v] for v in u}
        old_stabs = {t.edges.labels[e]: t.edges.stabilizer(e) for e in range(t.n_edges)}
        for i in range(res.tree.n_edges):
            assert res.tree.edges.stabilizer(i) == old_stabs[res.tree.edges.labels[i]]
        assert len(res.removed_edges) == t.n_vertices - len(u)
        # the pairing is a bijection from the removed edges onto the outside vertices
        assert sorted(res.removed_to_vertex) == list(res.removed_edges)
        assert sorted(res.removed_to_vertex.values()) == sorted(set(range(t.n_vertices)) - set(u))
        ea, va = t.edges.act, t.vertices.act
        for g in t.group.elements:
            for e, wv in res.removed_to_vertex.items():
                assert res.removed_to_vertex[ea[g][e]] == va[g][wv]
        if any(m.kind == "slide" for m in res.move_log):
            slides_used += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, elapsed, f"500/500 randomized instances and 44/44 coset trees satisfy all postconditions ({slides_used} needed slides)")


def test_criterion_6_filtration_validity(corpus):
    t0 = time.perf_counter()
    for t, u in corpus + small_coset_trees():
        filt = build_filtration(t, u)
        problems = check_filtration(make_state(t, u, filt))
        assert problems == [], problems
    elapsed = time.perf_counter() - t0
    report(6, elapsed, "filtration conditions (1)-(4) hold verbatim on all 500 instances and 44 coset trees")


def test_criterion_7_move_level_properties():
    t0 = time.perf_counter()
    rng = random.Random(90125)
    slide_count = 0
    compress_count = 0
    roundtrips = 0
    while slide_count < 1000 or compress_count < 1000:
        t, _ = random_instance(rng, max_vertices=18, max_group=12)
        cands = random_slide_candidates(t)
        if cands and slide_count < 1000:
            e, f = rng.choice(cands)
            out = slide(t, e, f)
            assert validate(out).is_tree
            assert out.vertices == t.vertices and out.edges == t.edges and out.iota == t.iota
            assert all(out.edges.stabilizer(k) == t.edges.stabilizer(k) for k in range(t.n_edges))
            slide_count += 1
        if compress_count < 1000:
            orbs = t.edges.orbits()
            removed = set().union(*[o for o in orbs if rng.random() < 0.5]) if orbs else set()
            flips = equivariant_sink_orientation(rng, t, removed)
            t2 = reorient(t, flips) if flips else t
            keep = sorted(e for e in range(t.n_edges) if e not in removed)
            res = compress(t2, keep)
            # iota maps the removed edges one-to-one onto the non-sinks
            non_sinks = sorted(set(range(t2.n_vertices)) - set(res.kept_vertices))
            assert sorted(t2.iota[e] for e in removed) == non_sinks
            assert validate(res.tree).is_tree
            assert list(res.kept_edges) == keep
            assert set(res.tree.edges.labels) == {t.edges.labels[e] for e in keep}
            assert set(res.tree.vertices.labels) == {t.vertices.labels[res.phi[v]] for v in range(t.n_vertices)}
            va = t2.vertices.act
            for g in t2.group.elements:
                for v in range(t2.n_vertices):
                    assert res.phi[va[g][v]] == va[g][res.phi[v]]
            compress_count += 1
        if roundtrips < 60 and t.n_edges:
            f = rng.randrange(t.n_edges)
            sub = subdivide(t, f)
            half1 = set(sub.half1_of.values())
            flipped = reorient(sub.tree, half1)
            back = compress(flipped, [e for e in range(flipped.n_edges) if e not in half1])

            def rename(lbl):
                return lbl[1] if isinstance(lbl, tuple) and len(lbl) == 2 and lbl[0] == "half2" else lbl

            orig = {(t.edges.labels[e], t.vertices.labels[t.iota[e]], t.vertices.labels[t.tau[e]]) for e in range(t.n_edges)}
            new = {
                (rename(back.tree.edges.labels[e]), back.tree.vertices.labels[back.tree.iota[e]], back.tree.vertices.labels[back.tree.tau[e]])
                for e in range(back.tree.n_edges)
            }
            assert orig == new
            assert set(back.tree.vertices.labels) == set(t.vertices.labels)
            roundtrips += 1
    elapsed = time.perf_counter() - t0
    report(7, elapsed, f"{slide_count} slides, {compress_count} compresses, {roundtrips} subdivide/compress round-trips all clean")


def q8_group():
    # regular representation of the quaternion group via its left-multiplication table
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {n: k for k, n in enumerate(names)}

    def neg(a):
        return a[1:] if a.startswith("-") else "-" + a

    base = {
        ("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a, b):
        sign = (a.startswith("-")) ^ (b.startswith("-"))
        ua, ub = a.lstrip("-"), b.lstrip("-")
        if ua == "1":
            r = ub
        elif ub == "1":
            r = ua
        elif ua == ub:
            r = "-1"
        else:
            r = base[(ua, ub)]
        return neg(r) if sign else r

    table = [[idx[mul(a, b)] for b in names] for a in names]
    return FiniteGroup.from_mult_table(table, [idx["i"], idx["j"]])


def fixture_groups():
    fg = FiniteGroup
    return [
        fg.trivial(), fg.cyclic(2), fg.cyclic(3), fg.cyclic(4), fg.cyclic(5),
        fg.cyclic(6), fg.cyclic(8), fg.cyclic(12), fg.cyclic(16),
        fg.direct_product(fg.cyclic(2), fg.cyclic(2)),
        fg.direct_product(fg.cyclic(2), fg.cyclic(4)),
        fg.direct_product(fg.cyclic(2), fg.direct_product(fg.cyclic(2), fg.cyclic(2))),
        fg.symmetric(3), fg.dihedral(4), fg.dihedral(5), fg.dihedral(6),
        fg.from_generator_permutations([[1, 2, 0, 3], [1, 0, 3, 2]]),  # alternating on 4 points
        q8_group(),
    ]


def fixture_modules(group):
    """A few modules of order <= 64 per group: trivial ones plus an order-2
    negation action when the group has a subgroup of index two."""
    mods = [
        GModule.trivial(group, AbelianGroup.from_factors([2])),
        GModule.trivial(group, AbelianGroup.from_factors([3, 3])),
        GModule.trivial(group, AbelianGroup.from_factors([8])),
    ]
    z4 = AbelianGroup.from_factors([4])
    negation = [0, 3, 2, 1]
    identity = [0, 1, 2, 3]
    # try mapping each generator to negation or identity consistently
    for pattern in range(1, 2 ** len(group.generators)):
        maps = [negation if (pattern >> i) & 1 else identity for i in range(len(group.generators))]
        try:
            mods.append(GModule.from_generator_maps(group, z4, maps))
            break
        except Exception:
            continue
    return mods


def test_criterion_8_twisted_action_constructions():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    groups = fixture_groups()
    assert all(g.order <= 16 for g in groups)
    n_checks = 0
    for group in groups:
        for module in fixture_modules(group):
            assert module.carrier.size <= 64
            samples = [module.carrier.zero] + [rng.randrange(module.carrier.size) for _ in range(3)]
            for v in samples:
                d = inner_derivation(module, v)
                assert check_derivation(module, d)
                tw = twisted_gset(module, d)
                for p in range(module.carrier.size):
                    assert tw.stabilizer(p) == twisted_stabilizer_kernel(module, d, p)
                n_checks += 1
        # potential identity over the function module
        for a in (AbelianGroup.from_factors([2]), AbelianGroup.from_factors([4])):
            for _ in range(3):
                u = tuple(rng.randrange(a.size) for _ in group.elements)
                d = tuple(ag_sub(a, ag_shift(group, u, x), u) for x in group.elements)
                v = hochschild_v(group, a, d)
                for g in group.elements:
                    assert ag_sub(a, ag_shift(group, v, g), v) == d[g]
                n_checks += 1
        # untwisting on a free orbit with a genuinely moving value set
        e_set = GSet.regular(group)
        a_set = GSet.build(group, group.order, [tuple(group.mult[g][h] for h in group.elements) for g in group.elements])
        pair = untwist(e_set, a_set, [group.identity])
        abar = GSet.trivial_action(group, a_set.size)
        for _ in range(3):
            phi = tuple(rng.randrange(a_set.size) for _ in range(e_set.size))
            assert pair.tilde(pair.hat(phi)) == phi
            assert pair.hat(pair.tilde(phi)) == phi
            for g in group.elements:
                assert pair.hat(function_action(e_set, a_set, g, phi)) == function_action(e_set, abar, g, pair.hat(phi))
            n_checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, elapsed, f"{n_checks} exhaustive construction checks over {len(groups)} groups")


def test_criterion_9_mutation_sensitivity():
    t0 = time.perf_counter()
    muts = documented_mutations(DATA)
    assert len(muts) == 6
    detected = 0
    for name, mutated in muts.items():
        from gtrees.counterexample import verify_all

        rep = verify_all(mutated, 6)
        assert not rep.passed, f"mutation {name} went undetected"
        detected += 1
    elapsed = time.perf_counter() - t0
    report(9, elapsed, f"{detected}/6 documented mutations detected")
