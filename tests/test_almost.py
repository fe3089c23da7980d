import random
from collections import Counter
from itertools import product

import pytest
from gaction_oracle import (
    oracle_check_derivation,
    oracle_check_function_derivation,
    oracle_coset_retraction,
    oracle_untwist,
    oracle_validate,
    outcome,
)

import gtrees.almost as almost
from gtrees.errors import InputError, PreconditionError
from gtrees.gaction import FiniteGroup, GSet, _closure_generators
from gtrees.almost import (
    AbelianGroup,
    GModule,
    ag_add,
    ag_shift,
    ag_sub,
    check_derivation,
    check_function_derivation,
    coset_retraction,
    function_action,
    function_gset,
    hochschild_v,
    inner_derivation,
    twisted_gset,
    twisted_stabilizer_kernel,
    untwist,
)


def z4_negation_module():
    g = FiniteGroup.cyclic(2)
    z4 = AbelianGroup.from_factors([4])
    return GModule.from_generator_maps(g, z4, [[0, 3, 2, 1]])


def test_from_factors_refuses_an_order_above_the_cap(monkeypatch):
    monkeypatch.setattr(almost, "MAX_ABELIAN_ORDER", 8)
    assert AbelianGroup.from_factors([2, 4]).size == 8
    with pytest.raises(InputError, match="more than 8 elements"):
        AbelianGroup.from_factors([4, 4])


def test_abelian_group_from_factors_and_table():
    z6 = AbelianGroup.from_factors([2, 3])
    assert z6.size == 6
    assert z6.add[z6.zero][3] == 3
    assert z6.decode(5) == (1, 2) and z6.encode((1, 2)) == 5 and z6.encode((3, -1)) == 5
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    z5 = AbelianGroup.from_table(table)
    assert z5.size == 5 and z5.neg[2] == 3
    with pytest.raises(InputError):
        AbelianGroup.from_table([[0, 1], [1, 1]])


def test_module_validation():
    m = z4_negation_module()
    assert m.act[1] == (0, 3, 2, 1)
    g = FiniteGroup.cyclic(3)
    z2 = AbelianGroup.from_factors([2])
    with pytest.raises(InputError):
        # order-3 element cannot act by negation on Z/4 consistently
        GModule.from_generator_maps(g, AbelianGroup.from_factors([4]), [[0, 3, 2, 1]])
    t = GModule.trivial(g, z2)
    assert t.as_gset().size == 2


def test_module_generator_maps_must_be_permutations():
    g = FiniteGroup.cyclic(2)
    z4 = AbelianGroup.from_factors([4])
    for bad in ([[0, 3, 2]], [[0, 1, 1, 3]], [[0, 3, 2, 1], [0, 1, 2, 3]], []):
        with pytest.raises(InputError, match="permutation"):
            GModule.from_generator_maps(g, z4, bad)
    with pytest.raises(InputError, match="additively"):
        GModule.from_generator_maps(g, z4, [[1, 0, 3, 2]])  # x -> x + 1 swapped pairwise: not additive


def test_abelian_group_table_checks():
    with pytest.raises(InputError, match="out of range"):
        AbelianGroup.from_table([[0, 1], [1, 2]])
    s3 = FiniteGroup.symmetric(3)
    with pytest.raises(InputError, match="not commutative"):
        AbelianGroup.from_table(s3.mult)


def all_elements_from_table(table):
    """AbelianGroup.from_table as it was: every element a generator, so
    Light's test reads |A|³ entries, and commutativity checked on all pairs."""
    group = FiniteGroup.from_mult_table(table, range(len(table)))
    add = group.mult
    if any(add[a][b] != add[b][a] for a in group.elements for b in range(a)):
        raise InputError("addition table is not commutative")
    return AbelianGroup(add, group.inverse, group.identity)


def relabeled(table, perm):
    """The same table with element i renamed perm[i]."""
    out = [[None] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = perm[x]
    return out


def test_from_table_matches_the_all_elements_form():
    rng = random.Random("from_table")
    tables = [[[(i + j) % n for j in range(n)] for i in range(n)] for n in range(1, 13)]
    tables.append([list(row) for row in AbelianGroup.from_factors([2, 4]).add])
    for table in tables:
        n = len(table)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            t = relabeled(table, perm)
            got = AbelianGroup.from_table(t)
            assert got == all_elements_from_table(t)
            assert got.zero == perm[0] and got.size == n
            # each generator the walk adds at least doubles the subgroup reached
            assert 2 ** len(_closure_generators(t, perm[0])) <= n
            # one entry changed: both forms refuse it alike, or accept it alike
            t[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            assert outcome(AbelianGroup.from_table, t) == outcome(all_elements_from_table, t)


def test_closure_generators_walk_the_elements_in_order():
    z256 = [[(i + j) % 256 for j in range(256)] for i in range(256)]
    assert _closure_generators(z256, 0) == [1]
    # Z/2 x Z/4 in mixed radix: 1 = (0, 1) reaches 0..3, and 4 = (1, 0) the rest
    assert _closure_generators(AbelianGroup.from_factors([2, 4]).add, 0) == [1, 4]
    assert _closure_generators([[0]], 0) == []


def test_from_table_refuses_non_groups_and_non_abelian_groups():
    # commutative, with an identity and inverses, but (1 + 1) + 2 = 2 and
    # 1 + (1 + 2) = 1
    loop = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    for table, message in (
        (loop, "not associative"),
        (FiniteGroup.symmetric(3).mult, "not commutative"),
        (FiniteGroup.dihedral(4).mult, "not commutative"),
        (FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.symmetric(3)).mult, "not commutative"),
    ):
        with pytest.raises(InputError, match=message):
            AbelianGroup.from_table(table)
        with pytest.raises(InputError, match=message):
            all_elements_from_table(table)


def test_check_derivation_values_are_module_elements():
    m = z4_negation_module()
    for bad in ((0, 4), (0, -1), (0, True), (0, "1")):
        with pytest.raises(InputError, match="module element"):
            check_derivation(m, bad)


def test_check_derivation_examples():
    m = z4_negation_module()
    zero = (0, 0)
    assert check_derivation(m, zero)
    for v in range(4):
        assert check_derivation(m, inner_derivation(m, v))
    # perturbing an inner derivation at one point breaks the rule
    # (use a group of order > 2 so one entry is truly overdetermined)
    g4 = FiniteGroup.cyclic(4)
    m4 = GModule.from_generator_maps(g4, AbelianGroup.from_factors([5]), [[0, 2, 4, 1, 3]])
    d = list(inner_derivation(m4, 1))
    d[1] = m4.carrier.add[d[1]][1]
    assert not check_derivation(m4, tuple(d))


def test_non_inner_derivation_on_negation_module():
    m = z4_negation_module()
    # d(1)=0, d(s)=1 satisfies the cocycle rule but is not inner
    d = (0, 1)
    assert check_derivation(m, d)
    inners = {inner_derivation(m, v) for v in range(4)}
    assert d not in inners


def test_twisted_gset_examples():
    m = z4_negation_module()
    assert twisted_gset(m, (0, 0)).act == m.as_gset().act
    # twisting by an inner derivation is conjugate to the plain action by translation
    for v in range(4):
        d = inner_derivation(m, v)
        tw = twisted_gset(m, d)
        for g in m.group.elements:
            for x in range(4):
                shifted = m.carrier.add[x][v]
                assert m.carrier.add[tw.act[g][x]][v] == m.as_gset().act[g][shifted]
    with pytest.raises(PreconditionError):
        twisted_gset(m, (1, 0))


def test_twisted_stabilizer_is_derivation_kernel():
    m = z4_negation_module()
    for d in [(0, 0), (0, 1), (0, 2), inner_derivation(m, 3)]:
        if not check_derivation(m, d):
            continue
        tw = twisted_gset(m, d)
        for p in range(m.carrier.size):
            assert tw.stabilizer(p) == twisted_stabilizer_kernel(m, d, p)


def test_twisted_stabilizer_kernel_bigger_fixture():
    # S3 acting on Z/3 through the sign character would not be additive;
    # use C4 acting on Z/5 by doubling instead
    g = FiniteGroup.cyclic(4)
    z5 = AbelianGroup.from_factors([5])
    m = GModule.from_generator_maps(g, z5, [[0, 2, 4, 1, 3]])
    for v in range(5):
        d = inner_derivation(m, v)
        tw = twisted_gset(m, d)
        for p in range(5):
            assert tw.stabilizer(p) == twisted_stabilizer_kernel(m, d, p)


def test_hochschild_v_zero_and_inner():
    g = FiniteGroup.cyclic(4)
    z2 = AbelianGroup.from_factors([2])
    zero = tuple((0,) * g.order for _ in g.elements)
    assert hochschild_v(g, z2, zero) == (0, 0, 0, 0)
    rng = random.Random(5)
    for _ in range(20):
        u = tuple(rng.randrange(2) for _ in g.elements)
        d = tuple(ag_sub(z2, ag_shift(g, u, x), u) for x in g.elements)
        v = hochschild_v(g, z2, d)
        for x in g.elements:
            assert ag_sub(z2, ag_shift(g, v, x), v) == d[x]


def test_hochschild_v_over_several_groups():
    rng = random.Random(6)
    for grp in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        for a in (AbelianGroup.from_factors([2]), AbelianGroup.from_factors([3])):
            for _ in range(10):
                u = tuple(rng.randrange(a.size) for _ in grp.elements)
                d = tuple(ag_sub(a, ag_shift(grp, u, x), u) for x in grp.elements)
                assert check_function_derivation(grp, a, d)
                v = hochschild_v(grp, a, d)
                for x in grp.elements:
                    assert ag_sub(a, ag_shift(grp, v, x), v) == d[x]


def test_hochschild_rejects_non_cocycle():
    g = FiniteGroup.cyclic(2)
    z2 = AbelianGroup.from_factors([2])
    bad = ((0, 0), (1, 0))
    if not check_function_derivation(g, z2, bad):
        with pytest.raises(PreconditionError):
            hochschild_v(g, z2, bad)


def full_function_module(group, a):
    return [tuple(m) for m in product(range(a.size), repeat=group.order)]


def test_coset_retraction_identity_projection():
    g = FiniteGroup.cyclic(2)
    z2 = AbelianGroup.from_factors([2])
    everything = full_function_module(g, z2)
    pi = {m: m for m in everything}
    u = (0, 1)
    d = tuple(ag_sub(z2, ag_shift(g, u, x), u) for x in g.elements)
    v = hochschild_v(g, z2, d)
    out = coset_retraction(g, z2, v, everything, pi, d)
    for m in everything:
        assert out[ag_add(z2, v, m)] == ag_add(z2, v, m)


def test_coset_retraction_zero_projection():
    g = FiniteGroup.cyclic(2)
    z2 = AbelianGroup.from_factors([2])
    everything = full_function_module(g, z2)
    zero = tuple([0] * g.order)
    pi = {m: zero for m in everything}
    # zero projection is equivariant and additive; requires d = 0 to stay in P
    d = tuple(zero for _ in g.elements)
    v = hochschild_v(g, z2, d)
    out = coset_retraction(g, z2, v, [zero], pi, d)
    assert set(out.values()) == {ag_add(z2, v, zero)}


def test_coset_retraction_constants_summand():
    # over Z/3 the constants split off equivariantly (|G| is invertible)
    g = FiniteGroup.cyclic(2)
    z3 = AbelianGroup.from_factors([3])
    everything = full_function_module(g, z3)
    # non-equivariant projection is rejected
    pi_bad = {m: (m[0], m[0]) for m in everything}
    u = (0, 1)
    d = tuple(ag_sub(z3, ag_shift(g, u, x), u) for x in g.elements)
    v = hochschild_v(g, z3, d)
    with pytest.raises(PreconditionError):
        coset_retraction(g, z3, v, [m for m in everything if m[0] == m[1]], pi_bad, d)
    # averaging projection onto the constants: (a,b) -> (2(a+b), 2(a+b))
    def avg(m):
        s = (2 * (m[0] + m[1])) % 3
        return (s, s)

    pi = {m: avg(m) for m in everything}
    p_members = [m for m in everything if m[0] == m[1]]
    zero = (0, 0)
    dz = (zero, zero)
    vz = hochschild_v(g, z3, dz)
    out = coset_retraction(g, z3, vz, p_members, pi, dz)
    assert out[(0, 1)] == (2, 2)
    # and with a derivation valued in the constants: d = ad(u) for constant-shift u? inner
    # derivations of constants are zero under the swap action, so exercise v != 0 instead
    u2 = (1, 2)
    d2 = tuple(ag_sub(z3, ag_shift(g, u2, x), u2) for x in g.elements)
    if all(tuple(val) in set(map(tuple, p_members)) for val in d2):
        v2 = hochschild_v(g, z3, d2)
        coset_retraction(g, z3, v2, p_members, pi, d2)


def test_function_gset_and_action_law():
    g = FiniteGroup.cyclic(2)
    e = GSet.from_generator_images(g, 2, [[1, 0]])
    a = GSet.trivial_action(g, 3)
    fs = function_gset(e, a)
    assert fs.size == 9
    oracle_validate(fs)


def test_function_gset_refuses_a_space_above_the_cap(monkeypatch):
    monkeypatch.setattr(almost, "MAX_FUNCTION_POINTS", 8)
    g = FiniteGroup.cyclic(2)
    e = GSet.from_generator_images(g, 3, [[1, 0, 2]])
    assert function_gset(e, GSet.trivial_action(g, 2)).size == 8
    with pytest.raises(InputError, match="function space too large to enumerate"):
        function_gset(e, GSet.trivial_action(g, 3))


def untwist_fixture():
    # E = regular C3 (free, so stabilizers are trivial), A = C3 rotating 3 points
    g = FiniteGroup.cyclic(3)
    e = GSet.regular(g)
    a = GSet.from_generator_images(g, 3, [[1, 2, 0]])
    return g, e, a


def test_untwist_round_trip_and_equivariance():
    g, e, a = untwist_fixture()
    pair = untwist(e, a, [0])
    rng = random.Random(7)
    abar = GSet.trivial_action(g, a.size)
    for _ in range(40):
        phi = tuple(rng.randrange(a.size) for _ in range(e.size))
        assert pair.tilde(pair.hat(phi)) == phi
        assert pair.hat(pair.tilde(phi)) == phi
        for gg in g.elements:
            # hat intertwines the twisted action with the trivial-value action
            lhs = pair.hat(function_action(e, a, gg, phi))
            rhs = function_action(e, abar, gg, pair.hat(phi))
            assert lhs == rhs


def test_untwist_trivial_value_action_is_identity():
    g = FiniteGroup.cyclic(2)
    e = GSet.regular(g)
    a = GSet.trivial_action(g, 4)
    pair = untwist(e, a, [0])
    phi = (3, 1)
    assert pair.hat(phi) == phi and pair.tilde(phi) == phi


def test_untwist_stabilizer_precondition():
    g = FiniteGroup.cyclic(2)
    e = GSet.trivial_action(g, 2)  # stabilizers are the whole group
    a = GSet.from_generator_images(g, 2, [[1, 0]])  # the group moves A
    with pytest.raises(PreconditionError):
        untwist(e, a, [0, 1])
    # and indeed well-definedness breaks: two group elements writing the same
    # point give different values
    assert a.act[0][0] != a.act[1][0]


def test_untwist_bad_transversal():
    g, e, a = untwist_fixture()
    with pytest.raises(PreconditionError):
        untwist(e, a, [0, 1])


def test_untwist_transversal_point_outside_e():
    # E has points 0..2; an orbit-number lookup alone would read -1 as point 2
    g, e, a = untwist_fixture()
    for tr in ([5], [-1]):
        with pytest.raises(PreconditionError, match="transversal must meet each orbit exactly once"):
            untwist(e, a, tr)


def test_untwist_mixed_orbits():
    # E with one free orbit and one fixed point; A moved by the group.
    g = FiniteGroup.cyclic(2)
    e = GSet.from_generator_images(g, 3, [[1, 0, 2]])
    a = GSet.from_generator_images(g, 2, [[1, 0]])
    # stabilizer of the fixed point 2 is the whole group, which moves A
    with pytest.raises(PreconditionError):
        untwist(e, a, [0, 2])
    # with A untouched by the stabilizers (free E), everything works
    e_free = GSet.from_generator_images(g, 2, [[1, 0]])
    pair = untwist(e_free, a, [0])
    phi = (0, 0)
    assert pair.tilde(pair.hat(phi)) == phi


def test_the_trivial_group_without_generators():
    # no generator law to check, so d(1) = 0 is checked on its own
    t = FiniteGroup.from_mult_table([[0]], [])
    z3 = AbelianGroup.from_factors([3])
    assert not check_derivation(GModule.trivial(t, z3), [1])
    assert check_derivation(GModule.trivial(t, z3), [0])
    assert not check_function_derivation(t, z3, [[1]])
    assert check_function_derivation(t, z3, [[0]])
    assert GSet.from_generator_images(t, 3, []).act == ((0, 1, 2),)


def test_coset_retraction_refuses_keys_outside_the_function_module():
    # the right number of keys, one of which is no function C2 -> Z2
    g = FiniteGroup.cyclic(2)
    z2 = AbelianGroup.from_factors([2])
    pi = {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (5, 5): (0, 0)}
    d = ((0, 0), (0, 0))
    with pytest.raises(PreconditionError, match="the projection must be defined on the whole function module"):
        coset_retraction(g, z2, (0, 0), [(0, 0)], pi, d)
    # and a submodule member outside the module is not fixed by pi
    everything = full_function_module(g, z2)
    with pytest.raises(PreconditionError, match="the projection is not the identity on the submodule"):
        coset_retraction(g, z2, (0, 0), everything + [(7, 7)], {m: m for m in everything}, d)


FIXTURE_GROUPS = {
    "C2": FiniteGroup.cyclic(2),
    "C3": FiniteGroup.cyclic(3),
    "C4": FiniteGroup.cyclic(4),
    "S3": FiniteGroup.symmetric(3),
    "D4": FiniteGroup.dihedral(4),
}


def _modules(grp, a):
    """A with the trivial action, and with every generator acting by
    negation when that is an action."""
    out = [GModule.trivial(grp, a)]
    try:
        out.append(GModule.from_generator_maps(grp, a, [list(a.neg)] * len(grp.generators)))
    except InputError:
        pass
    return out


def _along_words(grp, gen_value, step, zero):
    """The map with d(1) = zero and d(bs) = step(d(b), b, d(s)) along the
    breadth-first Cayley tree of right multiplication by the generators: a
    derivation exactly when the relations allow one."""
    d, reached = {grp.identity: zero}, [grp.identity]
    for b in reached:
        for s in grp.generators:
            x = grp.mult[b][s]
            if x not in d:
                d[x] = step(d[b], b, gen_value[s])
                reached.append(x)
    return [d[x] for x in grp.elements]


@pytest.mark.parametrize("factors", [[2], [3]])
@pytest.mark.parametrize("name", list(FIXTURE_GROUPS))
def test_check_derivation_matches_the_square_oracle(name, factors):
    grp, a = FIXTURE_GROUPS[name], AbelianGroup.from_factors(factors)
    rng = random.Random(f"{name}{factors}")
    verdicts = Counter()
    for module in _modules(grp, a):
        for trial in range(24):
            if trial % 3 == 0:
                d = list(inner_derivation(module, rng.randrange(a.size)))
            else:
                gen_value = {s: rng.randrange(a.size) for s in grp.generators}
                d = _along_words(grp, gen_value, lambda db, b, ds: a.add[db][module.act[b][ds]], a.zero)
            if trial % 3 == 2:
                x = rng.randrange(grp.order)
                d[x] = a.add[d[x]][1]
            verdicts[check_derivation(module, d)] += 1
            assert check_derivation(module, d) == oracle_check_derivation(module, d)
            if check_derivation(module, d):
                # twisted_gset builds its action unchecked: it is one by construction
                oracle_validate(twisted_gset(module, d))
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("factors", [[2], [3]])
@pytest.mark.parametrize("name", list(FIXTURE_GROUPS))
def test_check_function_derivation_matches_the_square_oracle(name, factors):
    grp, a = FIXTURE_GROUPS[name], AbelianGroup.from_factors(factors)
    rng = random.Random(f"{name}{factors}")
    zero = (a.zero,) * grp.order
    verdicts = Counter()
    for trial in range(24):
        if trial % 3 == 0:
            u = tuple(rng.randrange(a.size) for _ in grp.elements)
            d = [ag_sub(a, ag_shift(grp, u, x), u) for x in grp.elements]
        else:
            gen_value = {s: tuple(rng.randrange(a.size) for _ in grp.elements) for s in grp.generators}
            d = _along_words(grp, gen_value, lambda db, b, ds: ag_add(a, db, ag_shift(grp, ds, b)), zero)
        if trial % 3 == 2:
            x, y = rng.randrange(grp.order), rng.randrange(grp.order)
            d[x] = d[x][:y] + (a.add[d[x][y]][1],) + d[x][y + 1 :]
        verdicts[check_function_derivation(grp, a, d)] += 1
        assert check_function_derivation(grp, a, d) == oracle_check_function_derivation(grp, a, d)
    assert verdicts[True] and verdicts[False], verdicts


def _projections(grp, a):
    """(P, pi) pairs on the function module, for A = Z/k: the identity, zero,
    averaging onto the constants when |G| is a unit mod k, and the value at
    the identity, which is additive but not equivariant."""
    everything, n = full_function_module(grp, a), grp.order
    out = [(everything, {m: m for m in everything}), ([(0,) * n], {m: (0,) * n for m in everything})]
    constants = [(c,) * n for c in range(a.size)]
    unit = [k for k in range(a.size) if k * n % a.size == 1]
    if unit:
        out.append((constants, {m: (unit[0] * sum(m) % a.size,) * n for m in everything}))
    out.append((constants, {m: (m[grp.identity],) * n for m in everything}))
    return out


# the oracle checks additivity over pairs of module elements, so it runs
# only where the function module has at most 81 elements: D4 with Z/2 (256
# elements) alone would take about 3 s
@pytest.mark.parametrize(
    "name, factors",
    [(name, [k]) for name, grp in FIXTURE_GROUPS.items() for k in (2, 3) if k**grp.order <= 81],
)
def test_coset_retraction_matches_the_elementwise_oracle(name, factors):
    grp, a = FIXTURE_GROUPS[name], AbelianGroup.from_factors(factors)
    rng = random.Random(f"{name}{factors}")

    def bump(m, i):
        return m[:i] + (a.add[m[i]][1],) + m[i + 1 :]

    verdicts = Counter()
    for p_members, pi in _projections(grp, a):
        for change in range(4):
            if len(p_members) == a.size**grp.order:
                v = tuple(rng.randrange(a.size) for _ in grp.elements)
                d = [ag_sub(a, ag_shift(grp, v, x), v) for x in grp.elements]
            else:  # a potential of the zero derivation: a constant
                v, d = (rng.randrange(a.size),) * grp.order, [(0,) * grp.order] * grp.order
            proj = dict(pi)
            if change == 1:
                proj[rng.choice(list(proj))] = rng.choice(p_members)
            elif change == 2:
                x = rng.randrange(grp.order)
                d[x] = bump(d[x], rng.randrange(grp.order))
            elif change == 3:
                v = bump(v, rng.randrange(grp.order))
            got = outcome(coset_retraction, grp, a, v, p_members, proj, d)
            assert got == outcome(oracle_coset_retraction, grp, a, v, p_members, proj, d)
            verdicts[got[1] if isinstance(got, tuple) else "ok"] += 1
    assert verdicts["ok"] and len(verdicts) >= 3, verdicts


def _union(*blocks):
    """Generator images of the disjoint union of actions, each block given by
    its generator images."""
    images, offset = [[] for _ in blocks[0]], 0
    for block in blocks:
        for row, image in zip(images, block):
            row += [offset + p for p in image]
        offset += len(block[0])
    return images


@pytest.mark.parametrize(
    "name, natural",
    [("C4", [[1, 2, 3, 0]]), ("S3", [[1, 0, 2], [0, 2, 1]]), ("D4", [[1, 2, 3, 0], [0, 3, 2, 1]])],
)
def test_untwist_matches_the_stabilizer_table_oracle(name, natural):
    # E has several orbits of different kinds: the natural action, the
    # regular action and a fixed point; A is moved by the group or not
    grp = FIXTURE_GROUPS[name]
    regular = [list(grp.mult[s]) for s in grp.generators]
    fixed = [[0] for _ in grp.generators]
    rng = random.Random(name)
    a_sets = [GSet.trivial_action(grp, 2), GSet.from_generator_images(grp, len(natural[0]), natural)]
    verdicts = Counter()
    for blocks in ([natural, natural], [natural, regular, fixed], [regular, regular], [fixed, natural]):
        images = _union(*blocks)
        e_set = GSet.from_generator_images(grp, len(images[0]), images)
        for a_set in a_sets:
            for trial in range(3):
                tr = [rng.choice(sorted(orbit)) for orbit in e_set.orbits()]
                rng.shuffle(tr)
                if trial == 2:
                    tr.append(rng.randrange(e_set.size))
                got = outcome(untwist, e_set, a_set, tr)
                assert got == outcome(oracle_untwist, e_set, a_set, tr)
                verdicts["ok" if isinstance(got, almost.UntwistPair) else got[1]] += 1
    assert len(verdicts) == 3, verdicts


def test_coset_retraction_checks_each_generator_and_each_direction():
    # onto the constants of C3 -> Z/2, a projection that is additive along
    # the functions c.delta_0 but not along c.delta_2
    c3, z2 = FIXTURE_GROUPS["C3"], AbelianGroup.from_factors([2])
    zero3, constants = ((0,) * 3, [(0,) * 3, (1,) * 3])
    pi = {m: ((m[0] + (m[1:] == (0, 1))) % 2,) * 3 for m in full_function_module(c3, z2)}
    with pytest.raises(PreconditionError, match="the projection is not additive"):
        coset_retraction(c3, z2, zero3, constants, pi, [zero3] * 3)
    # onto the constants of S3 -> Z/3, the average over the subgroup that the
    # first generator s generates: equivariant under s, not under the second
    s3, z3 = FIXTURE_GROUPS["S3"], AbelianGroup.from_factors([3])
    e, s = s3.identity, s3.generators[0]
    zero6 = (0,) * 6
    pi = {m: (2 * (m[e] + m[s]) % 3,) * 6 for m in full_function_module(s3, z3)}
    with pytest.raises(PreconditionError, match="the projection is not equivariant"):
        coset_retraction(s3, z3, zero6, [(c,) * 6 for c in range(3)], pi, [zero6] * 6)
