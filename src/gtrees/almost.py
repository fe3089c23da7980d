"""Twisted-action constructions on finite models: derivations into modules,
the twisted G-set they define, the explicit potential trivializing any
derivation into a function module, coset retractions, and the untwisting
isomorphism between function G-sets.

Function spaces (E, A) are represented as tuples indexed by the points of E
with values in A; the ambient action is (g.v)(e) = g(v(g^-1 e)).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError, InternalCheckError, PreconditionError, int_list, int_rows, obj
from .gaction import FiniteGroup, GSet, _closure_generators, _table_identity

#: largest order `AbelianGroup.from_factors` builds: it lists every element
#: and an order x order addition table (1024 takes about 1 s and 50 MB)
MAX_ABELIAN_ORDER = 1024

#: most maps E -> A `function_gset` enumerates: it lists every map and one
#: action row of that length per group element
MAX_FUNCTION_POINTS = 100_000


class AbelianGroup(NamedTuple):
    """A finite abelian group: addition table, negation, zero index."""

    add: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    zero: int
    factors: Optional[tuple[int, ...]] = None

    @property
    def size(self) -> int:
        return len(self.add)

    @classmethod
    def from_factors(cls, factors: Sequence[int]) -> "AbelianGroup":
        """Product of cyclic groups; elements are mixed-radix tuples."""
        factors = tuple(int(f) for f in factors)
        if any(f < 1 for f in factors):
            raise InputError("cyclic factors must be positive")
        size = 1
        for f in factors:
            size *= f
            if size > MAX_ABELIAN_ORDER:
                raise InputError(f"cyclic factors multiply to more than {MAX_ABELIAN_ORDER} elements")
        codec = cls((), (), 0, factors)  # decode and encode read only the factors
        elems = [codec.decode(i) for i in range(size)]
        add = tuple(tuple(codec.encode([a + b for a, b in zip(x, y)]) for y in elems) for x in elems)
        neg = tuple(codec.encode([-a for a in x]) for x in elems)
        return cls(add, neg, 0, factors)

    def decode(self, i: int) -> tuple[int, ...]:
        """The mixed-radix tuple of element i of a group built by from_factors."""
        out = []
        for f in reversed(self.factors):
            out.append(i % f)
            i //= f
        return tuple(reversed(out))

    def encode(self, t: Sequence[int]) -> int:
        """The element index of a tuple of integers, each reduced mod its factor."""
        i = 0
        for f, x in zip(self.factors, t):
            i = i * f + (x % f)
        return i

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]]) -> "AbelianGroup":
        """The group laws are FiniteGroup.from_mult_table's, checked on a
        generating set that one closure walk finds, so Light's test reads
        |A|²·|S| entries.  Commutativity is checked on those generators only:
        generators that commute generate an abelian group."""
        mult, identity = _table_identity(table)
        group = FiniteGroup._generated(mult, identity, _closure_generators(mult, identity))
        add, gens = group.mult, group.generators
        if any(add[g][h] != add[h][g] for i, g in enumerate(gens) for h in gens[:i]):
            raise InputError("addition table is not commutative")
        return cls(add, group.inverse, group.identity)

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]


class GModule(NamedTuple):
    """A finite abelian group on which the group acts by additive automorphisms.

    The action laws are checked by the G-set of the carrier's points
    (GSet.from_generator_images); a module checks only that the action is
    additive.
    """

    group: FiniteGroup
    carrier: AbelianGroup
    act: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, group: FiniteGroup, carrier: AbelianGroup, element_images: Sequence[Sequence[int]]) -> "GModule":
        return cls._additive(carrier, GSet.build(group, carrier.size, element_images))

    @classmethod
    def from_generator_maps(
        cls, group: FiniteGroup, carrier: AbelianGroup, gen_maps: Sequence[Sequence[int]]
    ) -> "GModule":
        return cls._additive(carrier, GSet.from_generator_images(group, carrier.size, gen_maps))

    @classmethod
    def trivial(cls, group: FiniteGroup, carrier: AbelianGroup) -> "GModule":
        return cls._additive(carrier, GSet.trivial_action(group, carrier.size))

    @classmethod
    def _additive(cls, carrier: AbelianGroup, points: GSet) -> "GModule":
        """The module of a validated action on the carrier's points.

        Additivity is checked on the generators: every element acts by a
        composite of theirs, and composites of additive maps are additive.
        """
        add, m = carrier.add, carrier.size
        for g in points.group.generators:
            row = points.act[g]
            for a in range(m):
                for b in range(m):
                    if row[add[a][b]] != add[row[a]][row[b]]:
                        raise InputError(f"element {g} does not act additively")
        return cls(points.group, carrier, points.act)

    def as_gset(self) -> GSet:
        return GSet(self.group, self.act, tuple(range(self.carrier.size)))


def module_from_json(group: FiniteGroup, doc: dict) -> GModule:
    """A module document: cyclic factors, and per group generator an integer
    matrix acting on the carrier's mixed-radix tuples."""
    factors, action = obj(doc, "module", ("factors", "action"))
    carrier = AbelianGroup.from_factors(int_list(factors, "module.factors"))
    if not isinstance(action, list):
        raise InputError("module.action must be a list of matrices")
    k = len(factors)
    gen_maps = []
    for i, mat in enumerate(action):
        int_rows(mat, f"module.action[{i}]", k, k)
        elements = map(carrier.decode, range(carrier.size))
        gen_maps.append([carrier.encode([sum(a * b for a, b in zip(row, t)) for row in mat]) for t in elements])
    return GModule.from_generator_maps(group, carrier, gen_maps)


# ---------------------------------------------------------------------------
# derivations and the twisted G-set
# ---------------------------------------------------------------------------


def check_derivation(module: GModule, d: Sequence[int]) -> bool:
    """Whether d(xy) = d(x) + x.d(y), checked as d(1) = 0 and d(xs) = d(x) +
    x.d(s) for generators s: the y it holds for are closed under products."""
    group, add = module.group, module.carrier.add
    if len(d) != group.order:
        raise InputError("derivation must assign a value to every group element")
    if not all(type(x) is int and 0 <= x < module.carrier.size for x in d):
        raise InputError(f"derivation values must be module element indices below {module.carrier.size}")
    if d[group.identity] != module.carrier.zero:
        return False
    mult, act = group.mult, module.act
    return all(d[mult[x][s]] == add[d[x]][act[x][d[s]]] for s in group.generators for x in group.elements)


def inner_derivation(module: GModule, v: int) -> tuple[int, ...]:
    """g -> g.v - v."""
    car = module.carrier
    return tuple(car.sub(module.act[g][v], v) for g in module.group.elements)


def twisted_gset(module: GModule, d: Sequence[int]) -> GSet:
    """The module's carrier with the action g.m = gm + d(g)."""
    if not check_derivation(module, d):
        raise PreconditionError("the map is not a derivation")
    add, act = module.carrier.add, module.act
    rows = tuple(tuple([add[x][d[g]] for x in act[g]]) for g in module.group.elements)
    # an action by construction, as d is a checked derivation
    return GSet(module.group, rows, tuple(range(module.carrier.size)))


def twisted_stabilizer_kernel(module: GModule, d: Sequence[int], p: int) -> frozenset[int]:
    """{g : d(g) + g.p - p = 0}; equals the twisted-action stabilizer of p."""
    car = module.carrier
    return frozenset(
        g
        for g in module.group.elements
        if car.add[d[g]][car.sub(module.act[g][p], p)] == car.zero
    )


# ---------------------------------------------------------------------------
# function spaces (E, A)
# ---------------------------------------------------------------------------


def function_action(e_set: GSet, a_set: GSet, g: int, fn: Sequence[int]) -> tuple[int, ...]:
    """(g.v)(e) = g(v(g^-1 e))."""
    inv = e_set.group.inverse[g]
    return tuple(a_set.act[g][fn[e_set.act[inv][e]]] for e in range(e_set.size))


def function_gset(e_set: GSet, a_set: GSet) -> GSet:
    """All maps E -> A as an explicit G-set (small instances only)."""
    if a_set.size**e_set.size > MAX_FUNCTION_POINTS:
        raise InputError("function space too large to enumerate")
    fns = list(product(range(a_set.size), repeat=e_set.size))
    index = {fn: i for i, fn in enumerate(fns)}
    rows = tuple(tuple(index[function_action(e_set, a_set, g, fn)] for fn in fns) for g in e_set.group.elements)
    # an action by construction, from the two validated actions
    return GSet(e_set.group, rows, tuple(fns))


# ---------------------------------------------------------------------------
# the function module A[G] and the explicit potential
# ---------------------------------------------------------------------------


def ag_shift(group: FiniteGroup, u: Sequence[int], g: int) -> tuple[int, ...]:
    """(g.u)(x) = u(g^-1 x): the function-module action with A untouched."""
    inv = group.inverse[g]
    return tuple(u[group.mult[inv][x]] for x in group.elements)


def ag_add(a: AbelianGroup, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(a.add[x][y] for x, y in zip(u, v))


def ag_sub(a: AbelianGroup, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(a.sub(x, y) for x, y in zip(u, v))


def check_function_derivation(group: FiniteGroup, a: AbelianGroup, d: Sequence[Sequence[int]]) -> bool:
    """Cocycle rule for d: G -> (functions G -> A), checked on generators as
    in check_derivation."""
    if len(d) != group.order or any(len(row) != group.order for row in d):
        raise InputError("derivation must give one function per group element")
    if tuple(d[group.identity]) != (a.zero,) * group.order:
        return False
    mult, gens = group.mult, group.generators
    return all(tuple(d[mult[x][s]]) == ag_add(a, d[x], ag_shift(group, d[s], x)) for s in gens for x in group.elements)


def hochschild_v(group: FiniteGroup, a: AbelianGroup, d: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The explicit potential v(x) = -(d(x))(x), with g.v - v = d(g) for all g:
    checked for generators g, as two derivations agreeing there are equal."""
    if not check_function_derivation(group, a, d):
        raise PreconditionError("the map is not a derivation into the function module")
    v = tuple(a.neg[d[x][x]] for x in group.elements)
    for g in group.generators:
        if ag_sub(a, ag_shift(group, v, g), v) != tuple(d[g]):
            raise InternalCheckError("potential fails its defining identity")
    return v


def coset_retraction(
    group: FiniteGroup,
    a: AbelianGroup,
    v: Sequence[int],
    p_members: Iterable[tuple[int, ...]],
    pi: Mapping[tuple[int, ...], tuple[int, ...]],
    d: Sequence[Sequence[int]],
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The equivariant retraction v + m -> v + pi(m) of the shifted coset.

    pi must be an additive, equivariant projection of the function module
    onto the submodule P, and the derivation must take values in P.  pi's
    additivity is checked against the functions c.delta_x (value c at x, 0
    elsewhere), which generate the module, and equivariance on generators.
    """
    p_set = {tuple(m) for m in p_members}
    dom = list(pi.keys())
    if len(dom) != a.size**group.order or set(dom) != set(product(range(a.size), repeat=group.order)):
        raise PreconditionError("the projection must be defined on the whole function module")
    if set(pi.values()) - p_set:
        raise PreconditionError("the projection does not land in the submodule")
    for m in p_set:
        if tuple(pi.get(m, ())) != m:
            raise PreconditionError("the projection is not the identity on the submodule")
    zero = (a.zero,) * group.order
    for delta in [zero[:x] + (c,) + zero[x + 1 :] for x in group.elements for c in range(a.size)]:
        for m in dom:
            if pi[ag_add(a, m, delta)] != ag_add(a, pi[m], pi[delta]):
                raise PreconditionError("the projection is not additive")
    for g in group.generators:
        for m in dom:
            if pi[ag_shift(group, m, g)] != ag_shift(group, pi[m], g):
                raise PreconditionError("the projection is not equivariant")
    for g in group.elements:
        if tuple(d[g]) not in p_set:
            raise PreconditionError("the derivation leaves the submodule")
    v = tuple(v)
    for g in group.elements:
        if ag_sub(a, ag_shift(group, v, g), v) != tuple(d[g]):
            raise PreconditionError("the shifted coset is not action-closed for this derivation")

    out = {ag_add(a, v, m): ag_add(a, v, pi[m]) for m in dom}
    for g in group.generators:
        for src, image in out.items():
            if out[ag_shift(group, src, g)] != ag_shift(group, image, g):
                raise InternalCheckError("coset retraction is not equivariant")
    return out


# ---------------------------------------------------------------------------
# untwisting function G-sets
# ---------------------------------------------------------------------------


class UntwistPair(NamedTuple):
    """Mutually inverse maps between (E, A) and (E, A-with-trivial-action)."""

    e_set: GSet
    a_set: GSet
    transversal: tuple[int, ...]
    g_of: tuple[int, ...]

    def hat(self, phi: Sequence[int]) -> tuple[int, ...]:
        inv = self.e_set.group.inverse
        return tuple(self.a_set.act[inv[self.g_of[x]]][phi[x]] for x in range(self.e_set.size))

    def tilde(self, psi: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.a_set.act[self.g_of[x]][psi[x]] for x in range(self.e_set.size))


def untwist(e_set: GSet, a_set: GSet, transversal: Sequence[int]) -> UntwistPair:
    """Build the untwisting pair; point stabilizers of E must fix A pointwise."""
    if e_set.group != a_set.group:
        raise PreconditionError("both G-sets must share one group")
    ids = e_set.orbit_ids()
    tr = list(transversal)
    # the k orbits are numbered 0..k-1, so the transversal meets each one
    # exactly once when its points' numbers, sorted, are 0..k-1
    k = max(ids, default=-1) + 1
    if not all(0 <= x < e_set.size for x in tr) or sorted([ids[x] for x in tr]) != list(range(k)):
        raise PreconditionError("transversal must meet each orbit exactly once")
    # stabilizers in one orbit are conjugate: one per orbit must fix A pointwise
    ident = tuple(range(a_set.size))
    g_of = [None] * e_set.size
    for x0 in tr:
        for g in e_set.group.elements:
            y = e_set.act[g][x0]
            if g_of[y] is None:
                g_of[y] = g
            if y == x0 and a_set.act[g] != ident:
                raise PreconditionError("a point stabilizer acts nontrivially on the value set")
    return UntwistPair(e_set, a_set, tuple(tr), tuple(g_of))
