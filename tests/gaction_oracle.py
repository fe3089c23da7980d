"""Element-wise reference forms of the group-action checks, kept only as
differential test oracles.  Each is the form a generator-only check in
`gtrees` replaced:

- equivariance of a map between G-sets, checked for every group element
  (before `gtrees.gaction.non_equivariant` checked the generators);
- the action law (gh)p = g(hp), checked for every pair of elements (before
  `GSet.validate` checked it for generators g);
- a G-set's action table checked row by row (`oracle_validate`, the form of
  `GSet.validate` before `GSet.build` went through
  `GSet.from_generator_images`);
- associativity of a multiplication table over every triple (before
  `FiniteGroup.from_mult_table` ran Light's test on the generators);
- a G-set's rows from generator images, each element's generator word
  replayed over every point and then checked by `oracle_validate` (before
  `GSet.from_generator_images` composed along the Cayley tree);
- `retraction_map` with each outside orbit's least point and its target
  translated by every element (before it followed the G-set's generator
  walk);
- the derivation rule over the whole group square, into a module and into
  the function module (before `check_derivation` and
  `check_function_derivation` checked generators);
- `coset_retraction` with additivity over pairs of module elements and both
  equivariance checks over every element;
- `untwist` with the full stabilizer table (before it checked one
  stabilizer per orbit).
"""

from itertools import product

from gtrees.almost import UntwistPair, ag_add, ag_shift, ag_sub
from gtrees.errors import GtreesError, InputError, InternalCheckError, PreconditionError
from gtrees.gaction import FiniteGroup, GSet


def outcome(f, *args):
    """f's value, or the type and message of the library error it raised, so
    that a check and its oracle can be compared with ==."""
    try:
        return f(*args)
    except GtreesError as exc:
        return type(exc).__name__, str(exc)


def oracle_is_equivariant(source, target, f):
    """Whether f(g p) = g f(p) for every element g and every point p where f
    is defined: f is a sequence over all points of source, or a dict, which
    then must also hold g p among its keys."""
    items = list(f.items()) if isinstance(f, dict) else list(enumerate(f))
    lookup = dict(items).get
    return all(
        lookup(source.act[g][p]) == target.act[g][fp] for g in source.group.elements for p, fp in items
    )


def oracle_action_is_homomorphism(s):
    """Whether act[gh][p] = act[g][act[h][p]] for all elements g, h and points p."""
    mult, act = s.group.mult, s.act
    return all(
        act[mult[g][h]][p] == act[g][act[h][p]]
        for g in s.group.elements
        for h in s.group.elements
        for p in range(s.size)
    )


def oracle_validate(s):
    """The action laws of s, row by row: shape, the identity acts
    trivially, every element acts by a permutation of int points, and
    (gh)p = g(hp) for every pair of elements.  Returns None or raises
    InputError."""
    n, m = s.group.order, s.size
    if len(s.act) != n or any(len(row) != m for row in s.act):
        raise InputError("action table has wrong shape")
    if tuple(s.act[s.group.identity]) != tuple(range(m)):
        raise InputError("identity does not act trivially")
    for g, row in enumerate(s.act):
        if not all(type(p) is int for p in row) or sorted(row) != list(range(m)):
            raise InputError(f"element {g} does not act by a permutation")
    if not oracle_action_is_homomorphism(s):
        raise InputError("action is not associative: (gh)p != g(hp)")


def oracle_retraction_map(s, u):
    """retraction_map onto an action-closed subset u of the points: the
    least point of each outside orbit goes to the least inside point whose
    stabilizer, found by a scan of the elements, holds its own, and both are
    translated by every element; None when some orbit has no target."""

    def stab(x):
        return {g for g in s.group.elements if s.act[g][x] == x}

    ret = {p: p for p in u}
    for p in range(s.size):
        if p in ret:
            continue
        target = next((q for q in sorted(u) if stab(p) <= stab(q)), None)
        if target is None:
            return None
        for g in s.group.elements:
            if ret.setdefault(s.act[g][p], s.act[g][target]) != s.act[g][target]:
                raise InternalCheckError("the translated retraction clashed")
    return ret


def oracle_from_mult_table(table, generators):
    """FiniteGroup.from_mult_table with associativity checked on every
    triple, before the inverses and the generators."""
    mult = tuple(tuple(row) for row in table)
    n = len(mult)
    if any(len(row) != n for row in mult):
        raise InputError("multiplication table must be square")
    if any(not 0 <= x < n for row in mult for x in row):
        raise InputError("multiplication table entry out of range")
    identity = next((e for e in range(n) if all(mult[e][g] == g == mult[g][e] for g in range(n))), None)
    if identity is None:
        raise InputError("multiplication table has no identity")
    for a, b, c in product(range(n), repeat=3):
        if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
            raise InputError("multiplication table is not associative")
    if any(identity not in row for row in mult):
        raise InputError("some element has no inverse")
    gens = list(generators)
    if any(not 0 <= g < n for g in gens):
        raise InputError("generator index out of range")
    return FiniteGroup._from_group_table(mult, identity, gens)


def oracle_from_generator_images(group, size, gen_images, labels=None):
    """GSet.from_generator_images by replaying each element's generator word
    over every point, then oracle_validate."""
    if len(gen_images) != len(group.generators):
        raise InputError("need one permutation per group generator")
    per_gen = {}
    for g, img in zip(group.generators, gen_images):
        ints = isinstance(img, (list, tuple)) and len(img) == size and all(type(p) is int for p in img)
        if not ints or sorted(img) != list(range(size)):
            raise InputError("generator image is not a permutation of the points")
        per_gen[g] = tuple(img)
    # each element's word in the generators, breadth first by right
    # multiplication: b = a g has the word of a, then g
    words, reached = {group.identity: ()}, [group.identity]
    for a in reached:
        for g in group.generators:
            b = group.mult[a][g]
            if b not in words:
                words[b] = words[a] + (g,)
                reached.append(b)
    rows = []
    for a in group.elements:
        row = list(range(size))
        # a = g1 g2 ... gk acts by applying gk first
        for g in reversed(words[a]):
            row = [per_gen[g][p] for p in row]
        rows.append(tuple(row))
    for g, img in zip(group.generators, gen_images):
        if rows[g] != tuple(img):
            raise InputError(
                f"inconsistent image for generator {g}: the identity acts trivially "
                "and a repeated generator by one permutation"
            )
    s = GSet(group, tuple(rows), tuple(range(size)) if labels is None else tuple(labels))
    oracle_validate(s)
    return s


def oracle_check_derivation(module, d):
    """check_derivation's rule d(xy) = d(x) + x.d(y) over the whole group square."""
    group, add = module.group, module.carrier.add
    return all(
        d[group.mult[x][y]] == add[d[x]][module.act[x][d[y]]] for x in group.elements for y in group.elements
    )


def oracle_check_function_derivation(group, a, d):
    """check_function_derivation's rule over the whole group square."""
    return all(
        tuple(d[group.mult[x][y]]) == ag_add(a, d[x], ag_shift(group, d[y], x))
        for x in group.elements
        for y in group.elements
    )


def oracle_coset_retraction(group, a, v, p_members, pi, d):
    """coset_retraction with every law checked element-wise, and the key set
    compared with the function module first."""
    p_set = {tuple(m) for m in p_members}
    dom = list(pi.keys())
    if set(dom) != set(product(range(a.size), repeat=group.order)):
        raise PreconditionError("the projection must be defined on the whole function module")
    if set(pi.values()) - p_set:
        raise PreconditionError("the projection does not land in the submodule")
    for m in p_set:
        if tuple(pi.get(m, ())) != m:
            raise PreconditionError("the projection is not the identity on the submodule")
    for m in dom:
        for m2 in dom:
            if pi.get(ag_add(a, m, m2)) != ag_add(a, pi[m], pi[m2]):
                raise PreconditionError("the projection is not additive")
    for g in group.elements:
        for m in dom:
            if pi.get(ag_shift(group, m, g)) != ag_shift(group, pi[m], g):
                raise PreconditionError("the projection is not equivariant")
    for g in group.elements:
        if tuple(d[g]) not in p_set:
            raise PreconditionError("the derivation leaves the submodule")
    v = tuple(v)
    for g in group.elements:
        if ag_sub(a, ag_shift(group, v, g), v) != tuple(d[g]):
            raise PreconditionError("the shifted coset is not action-closed for this derivation")
    out = {ag_add(a, v, m): ag_add(a, v, pi[m]) for m in dom}
    # equivariance in the ambient function space: g(v+m) = v + (gm + d(g))
    for g in group.elements:
        for m in dom:
            src = ag_add(a, v, m)
            moved = ag_shift(group, src, g)
            if moved != ag_add(a, v, ag_add(a, ag_shift(group, m, g), d[g])):
                raise InternalCheckError("ambient action disagrees with the twisted form")
            if out[moved] != ag_shift(group, out[src], g):
                raise InternalCheckError("coset retraction is not equivariant")
    return out


def oracle_untwist(e_set, a_set, transversal):
    """untwist with every point's whole stabilizer checked against A."""
    if e_set.group != a_set.group:
        raise PreconditionError("both G-sets must share one group")
    tr = list(transversal)
    if not all(0 <= x < e_set.size for x in tr) or sorted(
        min(e_set.orbit(x)) for x in tr
    ) != sorted(min(o) for o in e_set.orbits()):
        raise PreconditionError("transversal must meet each orbit exactly once")
    ident = tuple(range(a_set.size))
    for x in range(e_set.size):
        for s in e_set.stabilizer(x):
            if a_set.act[s] != ident:
                raise PreconditionError("a point stabilizer acts nontrivially on the value set")
    g_of = [None] * e_set.size
    for x0 in tr:
        for g in e_set.group.elements:
            y = e_set.act[g][x0]
            if g_of[y] is None:
                g_of[y] = g
    return UntwistPair(e_set, a_set, tuple(tr), tuple(g_of))
