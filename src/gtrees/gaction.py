"""Explicit finite groups, their actions on finite sets, orbits, stabilizers,
retract checks, and conjugate-incomparability."""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from ._frozen import Frozen
from .errors import InputError, PreconditionError, int_, int_list, int_rows, label_list, obj

#: most points of a G-set read from JSON: a G-set stores one permutation of
#: its points per group element, and a bare count asks for no other data
MAX_GSET_POINTS = 1_000_000

#: largest group from_generator_permutations closes: the group is stored as
#: an order x order table (5040, the order of S_7, takes 25M entries)
MAX_GROUP_ORDER = 5040

#: most entries from_generator_permutations stores while it closes, one per
#: element and permuted point: no more than the largest table it may build
MAX_CLOSURE_ENTRIES = MAX_GROUP_ORDER * MAX_GROUP_ORDER


class FiniteGroup(Frozen):
    """A finite group given by its full multiplication table over element indices.

    A table from outside enters through from_mult_table, which checks the
    group laws.  The constructors that compose the table themselves
    (from_generator_permutations, cyclic, dihedral, symmetric,
    direct_product) build a group by construction and only derive its
    inverses and generator words.  Equality and hashing ignore the derived
    inverse and gen_words.
    """

    _fields = ("mult", "identity", "generators", "inverse", "gen_words")
    _key = ("mult", "identity", "generators")
    __slots__ = _fields

    def __init__(
        self,
        mult: tuple[tuple[int, ...], ...],
        identity: int,
        generators: tuple[int, ...],
        inverse: tuple[int, ...] = (),
        gen_words: tuple[tuple[int, ...], ...] = (),
    ) -> None:
        super().__init__(mult, identity, generators, inverse, gen_words)

    @property
    def order(self) -> int:
        return len(self.mult)

    @property
    def elements(self) -> range:
        return range(self.order)

    @classmethod
    def from_mult_table(cls, table: Sequence[Sequence[int]], generators: Iterable[int]) -> "FiniteGroup":
        """The group of a table from outside: checks the range, the identity,
        inverses, that the generators generate and, on the generators only,
        associativity."""
        return cls._generated(*_table_identity(table), generators)

    @classmethod
    def _generated(cls, mult: tuple[tuple[int, ...], ...], identity: int, generators: Iterable[int]) -> "FiniteGroup":
        """The group of a table whose range, identity and inverses are
        checked: checks that the generators generate and, on them only,
        associativity."""
        gens = list(generators)
        if any(not 0 <= g < len(mult) for g in gens):
            raise InputError("generator index out of range")
        group = cls._from_group_table(mult, identity, gens)
        # Light's test, now that every element is a product of generators
        _check_composes(group, mult, "multiplication table is not associative")
        return group

    @classmethod
    def _from_group_table(
        cls, mult: tuple[tuple[int, ...], ...], identity: int, generators: Iterable[int]
    ) -> "FiniteGroup":
        """A group from a table known to be a group table: derives the
        inverses and each element's word in the generators (breadth first)."""
        gens = tuple(dict.fromkeys(generators))
        words: dict[int, tuple[int, ...]] = {identity: ()}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = mult[a][g]
                    if b not in words:
                        words[b] = words[a] + (g,)
                        nxt.append(b)
            frontier = nxt
        if len(words) != len(mult):
            raise InputError("the listed generators do not generate the group")
        inverse = tuple([row.index(identity) for row in mult])
        return cls(mult, identity, gens, inverse, tuple([words[a] for a in range(len(mult))]))

    @classmethod
    def from_generator_permutations(cls, perms: Sequence[Sequence[int]]) -> "FiniteGroup":
        """Closure of permutations of a faithful finite set; identity gets index 0.

        The table composes permutations, so it is a group table by
        construction and is not checked again.  The closure stops as soon as
        it passes MAX_GROUP_ORDER elements, or its elements times the degree
        pass MAX_CLOSURE_ENTRIES.
        """
        if not perms:
            raise InputError("need at least one generator permutation")
        npts = len(perms[0])
        gens = []
        for p in perms:
            t = tuple(p)
            if len(t) != npts or sorted(t) != list(range(npts)):
                raise InputError(f"not a permutation: {p}")
            gens.append(t)
        ident = tuple(range(npts))
        elements = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = tuple([g[i] for i in a])  # b = g after a (left action)
                    if b not in index:
                        if len(elements) == MAX_GROUP_ORDER:
                            raise InputError(f"generator permutations generate more than {MAX_GROUP_ORDER} elements")
                        if (len(elements) + 1) * npts > MAX_CLOSURE_ENTRIES:
                            raise InputError(
                                f"generator permutations of {npts} points need more than "
                                f"{MAX_CLOSURE_ENTRIES} entries to close"
                            )
                        index[b] = len(elements)
                        elements.append(b)
                        nxt.append(b)
            frontier = nxt
        mult = tuple([tuple([index[tuple([a[i] for i in b])] for b in elements]) for a in elements])
        return cls._from_group_table(mult, 0, [index[g] for g in gens])

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls._from_group_table(((0,),), 0, [0])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls.from_generator_permutations([[(i + 1) % n for i in range(n)]])

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        rot = [(i + 1) % n for i in range(n)]
        ref = [(-i) % n for i in range(n)]
        return cls.from_generator_permutations([rot, ref])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if n == 1:
            return cls.trivial()
        perms = []
        for i in range(n - 1):
            p = list(range(n))
            p[i], p[i + 1] = p[i + 1], p[i]
            perms.append(p)
        return cls.from_generator_permutations(perms)

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        pairs = [(i, j) for i in a.elements for j in b.elements]
        index = {p: k for k, p in enumerate(pairs)}
        mult = tuple(
            [tuple([index[(a.mult[i1][i2], b.mult[j1][j2])] for (i2, j2) in pairs]) for (i1, j1) in pairs]
        )
        gens = [index[(g, b.identity)] for g in a.generators]
        gens += [index[(a.identity, g)] for g in b.generators]
        return cls._from_group_table(mult, index[(a.identity, b.identity)], gens)

    def conj(self, h: int, g: int) -> int:
        """g^-1 h g."""
        return self.mult[self.mult[self.inverse[g]][h]][g]


def _table_identity(table: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of a table from outside as tuples, and its identity: checks
    that the table is square, its range, the identity and inverses."""
    mult = tuple(tuple(row) for row in table)
    n = len(mult)
    if any(len(row) != n for row in mult):
        raise InputError("multiplication table must be square")
    if any(not 0 <= x < n for row in mult for x in row):
        raise InputError("multiplication table entry out of range")
    identity = None
    for e in range(n):
        if all(mult[e][g] == g and mult[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise InputError("multiplication table has no identity")
    # in a finite associative table with an identity, a right inverse is
    # two-sided, so a row holding the identity suffices
    if any(identity not in row for row in mult):
        raise InputError("some element has no inverse")
    return mult, identity


def _closure_generators(mult: Sequence[Sequence[int]], identity: int) -> list[int]:
    """A generating set of a table with an identity, by one closure walk.

    The elements are taken in order, and each one the generators before it
    do not reach from the identity by right multiplication becomes a
    generator.  Each generator multiplies every reached element once, so the
    walk reads |A|·|S| entries, and the reached elements, every element in
    the end, are closed under right multiplication by every generator.
    """
    gens: list[int] = []
    reached = [identity]
    seen = [False] * len(mult)
    seen[identity] = True
    for a in range(len(mult)):
        if seen[a]:
            continue
        # the elements reached so far are closed under the earlier
        # generators: a multiplies them, and every generator the new ones
        closed = len(reached)
        gens.append(a)
        for i, b in enumerate(reached):
            row = mult[b]
            for g in gens if i >= closed else (a,):
                c = row[g]
                if not seen[c]:
                    seen[c] = True
                    reached.append(c)
    return gens


def _check_composes(group: FiniteGroup, rows: Sequence[tuple[int, ...]], message: str) -> None:
    """InputError(message) unless rows[gh] = rows[g] after rows[h] for every
    generator g and element h: the law (gh)p = g(hp), or for rows = mult
    associativity.  The g it holds for are closed under products."""
    for g in group.generators:
        row, gh = rows[g], group.mult[g]
        for h, hrow in enumerate(rows):
            if rows[gh[h]] != _compose(row, hrow):
                raise InputError(message)


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    # p[q[i]] for every i; itemgetter returns a tuple for two or more indices
    return itemgetter(*q)(p) if len(q) > 1 else tuple([p[i] for i in q])


def _point_labels(points: tuple[int, ...], labels: Optional[Sequence[Hashable]]) -> tuple[Hashable, ...]:
    """The given labels as a tuple, one per point, or else the points."""
    labels = points if labels is None else tuple(labels)
    if len(labels) != len(points):
        raise InputError(f"need one label per point: {len(points)} points, {len(labels)} labels")
    return labels


class GSet(Frozen):
    """A finite set with a left action of a FiniteGroup, one permutation per element.

    from_generator_images is the one place where the action laws are
    checked: it composes each element's row from checked generator
    permutations and checks (gh)p = g(hp) for generators g.  build reads a
    table with one row per element through it, and checks that each given
    row is the row composed there.  A direct GSet(...) expects a table that
    is already valid, as trivial_action, regular, restrict and
    ggraph.subdivide compose it.

    Three tables are built on first use and kept: every point's stabilizer
    (stabilizers), every point's orbit number (orbit_ids) and the JSON text
    of the labels' reprs (_label_json).  No per-orbit object is kept;
    orbits() rebuilds the member sets from the numbers.  Equality and
    hashing ignore the tables.
    """

    _fields = ("group", "act", "labels")
    __slots__ = _fields + ("_stabs", "_orbit_ids", "_label_text")

    def __init__(
        self, group: FiniteGroup, act: tuple[tuple[int, ...], ...], labels: tuple[Hashable, ...]
    ) -> None:
        super().__init__(group, act, labels)
        set_field = object.__setattr__
        # every point's stabilizer, filled on the first stabilizer query
        set_field(self, "_stabs", None)
        # every point's orbit number, filled on the first orbit_ids query
        set_field(self, "_orbit_ids", None)
        # the labels' JSON text, filled on the first _label_json query
        set_field(self, "_label_text", None)

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def build(
        cls,
        group: FiniteGroup,
        size: int,
        element_images: Sequence[Sequence[int]],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "GSet":
        """The G-set of one row per element: the generators' rows go through
        from_generator_images, and every given row must be the row composed
        there.  So a table passes exactly when it is an action: each row is
        then a composite of checked permutations (the identity's is the
        empty one), and the law holds on generators, so for all elements."""
        # the shape first: a huge size with short rows allocates nothing
        if len(element_images) != group.order or any(len(row) != size for row in element_images):
            raise InputError("action table has wrong shape")
        gset = cls.from_generator_images(group, size, [tuple(element_images[g]) for g in group.generators], labels)
        for a, (given, row) in enumerate(zip(element_images, gset.act)):
            # == takes True for 1: the type scan refuses what a generator image may not hold
            if tuple(given) != row or not set(map(type, given)) <= {int}:
                raise InputError(f"the row of element {a} is not the product of its generators' rows")
        return gset

    @classmethod
    def from_generator_images(
        cls,
        group: FiniteGroup,
        size: int,
        gen_images: Sequence[Sequence[int]],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "GSet":
        """Extend per-generator permutations to the whole group along the
        Cayley tree of gen_words, one composition per element; this is the one
        place where generator images become element images, and where the
        action laws are checked (build comes through here).  A composite of
        permutations is one, so only (gh)p = g(hp) is checked, and that each
        given image is the row built for its generator (the identity's row
        and a generator listed twice read no image or one of two)."""
        if len(gen_images) != len(group.generators):
            raise InputError("need one permutation per group generator")
        points = tuple(range(size))
        labels = _point_labels(points, labels)
        per_gen = {}
        for g, img in zip(group.generators, gen_images):
            ints = isinstance(img, (list, tuple)) and len(img) == size and all(type(p) is int for p in img)
            if not ints or sorted(img) != list(points):
                raise InputError("generator image is not a permutation of the points")
            per_gen[g] = tuple(img)
        words, rows = group.gen_words, [points] * group.order
        # by word length: a = b s, s the last letter of a's word, comes after
        # its parent b, and acts by s first
        for a in sorted(group.elements, key=lambda a: len(words[a]))[1:]:
            s = words[a][-1]
            rows[a] = _compose(rows[group.mult[a][group.inverse[s]]], per_gen[s])
        for g, img in zip(group.generators, gen_images):
            if rows[g] != tuple(img):
                raise InputError(
                    f"inconsistent image for generator {g}: the identity acts trivially "
                    "and a repeated generator by one permutation"
                )
        gset = cls(group, tuple(rows), labels)
        _check_composes(group, gset.act, "action is not associative: (gh)p != g(hp)")
        return gset

    @classmethod
    def trivial_action(cls, group: FiniteGroup, size: int, labels=None) -> "GSet":
        row = tuple(range(size))
        return cls(group, (row,) * group.order, _point_labels(row, labels))

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GSet":
        return cls(group, group.mult, tuple(group.elements))

    # -- queries -------------------------------------------------------

    def orbit(self, p: int) -> frozenset[int]:
        if not 0 <= p < self.size:
            raise PreconditionError(f"point {p} outside the carrier")
        return frozenset([row[p] for row in self.act])

    def orbits(self) -> list[frozenset[int]]:
        """Every orbit, in the order of their least points."""
        ids = self.orbit_ids()
        members: list[list[int]] = [[] for _ in range(max(ids, default=-1) + 1)]
        for p, k in enumerate(ids):
            members[k].append(p)
        return [frozenset(m) for m in members]

    def orbit_ids(self) -> tuple[int, ...]:
        """Every point's orbit number, orbits numbered in the order of their
        least points, built once per G-set.

        So a point p is the least of its orbit exactly when ids[p] is the
        number of orbits met before p.
        """
        if self._orbit_ids is None:
            object.__setattr__(self, "_orbit_ids", self._orbit_id_table())
        return self._orbit_ids

    def _orbit_id_table(self) -> tuple[int, ...]:
        # a search over the generator rows, O(|X| * |gens|): in a finite
        # group the generators reach every element as a product
        rows = [self.act[g] for g in self.group.generators]
        ids = [-1] * self.size
        n_orbits = 0
        for p in range(self.size):
            if ids[p] < 0:
                ids[p] = n_orbits
                reached = [p]
                for q in reached:
                    for row in rows:
                        r = row[q]
                        if ids[r] < 0:
                            ids[r] = n_orbits
                            reached.append(r)
                n_orbits += 1
        return tuple(ids)

    def stabilizer(self, p: int) -> frozenset[int]:
        """The elements fixing p.

        The first query builds every point's stabilizer in one pass over the
        action table (see stabilizers); later queries are lookups.
        """
        if not 0 <= p < self.size:
            raise PreconditionError(f"point {p} outside the carrier")
        return self.stabilizers()[p]

    def stabilizers(self) -> tuple[frozenset[int], ...]:
        """Every point's stabilizer, indexed by point, built once per G-set.

        Points with the same stabilizer share one frozenset.
        """
        if self._stabs is None:
            object.__setattr__(self, "_stabs", self._stabilizer_table())
        return self._stabs

    def _stabilizer_table(self) -> tuple[frozenset[int], ...]:
        interned: dict[tuple[int, ...], frozenset[int]] = {}
        table = []
        for p, column in enumerate(zip(*self.act)):
            key = tuple([g for g, q in enumerate(column) if q == p])
            stab = interned.get(key)
            if stab is None:
                stab = interned[key] = frozenset(key)
            table.append(stab)
        return tuple(table)

    def _label_json(self) -> str:
        """json.dumps of the list of the labels' reprs, built once per G-set;
        GGraph.state_digest hashes it."""
        if self._label_text is None:
            import json  # on the first digest, like hashlib in GGraph.state_digest

            object.__setattr__(self, "_label_text", json.dumps([repr(x) for x in self.labels]))
        return self._label_text

    def is_action_closed(self, subset: Iterable[int]) -> bool:
        ss = set(subset)
        return all(self.act[g][p] in ss for p in ss for g in self.group.generators)

    def restrict(self, points: Sequence[int]) -> "GSet":
        """Sub-GSet on an action-closed subset; original labels are kept."""
        pts = sorted(set(points))
        if not self.is_action_closed(pts):
            raise PreconditionError("subset is not action-closed")
        return self._restricted(pts)

    def _restricted(self, pts: Sequence[int]) -> "GSet":
        """restrict to ascending, distinct points that the caller knows to
        be action-closed."""
        renum = {p: i for i, p in enumerate(pts)}
        rows = [tuple([renum[row[p]] for p in pts]) for row in self.act]
        return GSet(self.group, tuple(rows), tuple([self.labels[p] for p in pts]))


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


def is_subgroup(group: FiniteGroup, elements: Iterable[int]) -> bool:
    ss = set(elements)
    if group.identity not in ss:
        return False
    return all(group.mult[a][b] in ss for a in ss for b in ss) and all(
        group.inverse[a] in ss for a in ss
    )


def conjugate_subgroup(group: FiniteGroup, h: Iterable[int], g: int) -> frozenset[int]:
    """H^g = g^-1 H g."""
    return frozenset(group.conj(a, g) for a in h)


def is_conjugate_incomparable(group: FiniteGroup, h: Iterable[int]) -> bool:
    """H^g contained in H only when equal; automatic for finite groups."""
    hs = frozenset(h)
    if not is_subgroup(group, hs):
        raise PreconditionError("not a subgroup")
    for g in group.elements:
        hg = conjugate_subgroup(group, hs, g)
        if hg <= hs and hg != hs:
            return False
    return True


# ---------------------------------------------------------------------------
# equivariant maps
# ---------------------------------------------------------------------------


def non_equivariant(source: GSet, target: GSet, f: Union[Sequence[int], Mapping[int, int]]) -> list[tuple[int, int]]:
    """The pairs (g, p) with g a generator of the group and f(g p) != g f(p).

    f sends points of source to points of target: a sequence indexed by every
    point, or a dict whose keys should form an action-closed subset, in which
    case a generator moving a key out of the keys is reported as well.
    Generators suffice: both actions are homomorphisms (see GSet), so a
    map that commutes with each generator commutes with every element.
    """
    domain = f if isinstance(f, Mapping) else range(len(f))
    out = []
    for g in source.group.generators:
        moved, image = source.act[g], target.act[g]
        for p in domain:
            q = moved[p]
            if q not in domain or f[q] != image[f[p]]:
                out.append((g, p))
    return out


# ---------------------------------------------------------------------------
# retracts
# ---------------------------------------------------------------------------


def _closed_subset(s: GSet, u_set: Iterable[int]) -> set[int]:
    """The subset as a set, once it is known to lie in the carrier and be action-closed."""
    u = set(u_set)
    if not all(0 <= p < s.size for p in u):
        raise PreconditionError("subset point outside the carrier")
    if not s.is_action_closed(u):
        raise PreconditionError("subset is not action-closed")
    return u


def retraction_map(s: GSet, u_set: Iterable[int]) -> Optional[dict[int, int]]:
    """An equivariant retraction onto the subset, or None when none exists.

    Built on orbit representatives: the lowest-index point of each outside
    orbit is sent to the lowest-index inside point whose stabilizer contains
    its own, then translated along the action.  Since stab(p) fixes the
    target, each point of the orbit gets one image, and the map is
    equivariant by construction.
    """
    u = _closed_subset(s, u_set)
    ret = {p: p for p in u}
    outside = [p for p in range(s.size) if p not in u]
    stabs = s.stabilizers()
    inside = sorted(u)
    done: set[int] = set()
    for p in outside:
        if p in done:
            continue
        target = None
        for q in inside:
            if stabs[p] <= stabs[q]:
                target = q
                break
        if target is None:
            return None
        for g in s.group.elements:
            ret[s.act[g][p]] = s.act[g][target]
            done.add(s.act[g][p])
    return ret


def is_retract(s: GSet, u_set: Iterable[int]) -> bool:
    """True iff every outside point has its stabilizer inside some subset stabilizer.

    The criterion itself, with the checks and errors of retraction_map,
    which returns a map exactly when it holds; no map is built, and each
    distinct stabilizer is compared once.
    """
    u = _closed_subset(s, u_set)
    stabs = s.stabilizers()
    inside = {stabs[q] for q in u}
    outside = {stabs[p] for p in range(s.size) if p not in u} - inside
    return all(any(h <= k for k in inside) for h in outside)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "mult_table": [list(r) for r in group.mult],
        "generators": list(group.generators),
    }


def group_from_json(doc: dict) -> FiniteGroup:
    """A group document: a multiplication table, with optional generators
    and order, or generator permutations."""
    # `...` marks an absent key: a null mult_table or order is a wrong value
    optional = {"mult_table": ..., "generator_permutations": ..., "generators": None, "order": ...}
    table, perms, gens, order = obj(doc, "group", (), optional)
    if table is not ...:
        int_rows(table, "group.mult_table")
        gens = range(len(table)) if gens is None else int_list(gens, "group.generators")
        group = FiniteGroup.from_mult_table(table, gens)
        if order is not ... and int_(order, "group.order") != group.order:
            raise InputError(f"group.order does not match the table's {group.order} rows")
        return group
    if perms is not ...:
        return FiniteGroup.from_generator_permutations(int_rows(perms, "group.generator_permutations"))
    raise InputError("group needs mult_table or generator_permutations")


def gset_to_json(s: GSet) -> dict:
    return {
        "points": list(s.labels),
        "action": [list(s.act[g]) for g in s.group.generators],
    }


def gset_from_json(group: FiniteGroup, doc: dict) -> GSet:
    """A G-set document: points, a count or a list of labels, and action rows."""
    return gset_from_rows(group, *obj(doc, "gset", ("points", "action")), "gset.points", "gset.action")


def gset_from_rows(group: FiniteGroup, points, rows, points_path: str, rows_path: str) -> GSet:
    """A G-set from its JSON points (a count or labels) and action rows, one
    permutation per generator or per element, read at the paths given."""
    size, point_labels = label_list(points, points_path)
    if size > MAX_GSET_POINTS:
        raise InputError(f"{points_path}: a G-set has at most {MAX_GSET_POINTS} points, got {size}")
    int_rows(rows, rows_path)
    if len(rows) == len(group.generators):
        return GSet.from_generator_images(group, size, rows, point_labels)
    if len(rows) == group.order:
        return GSet.build(group, size, rows, point_labels)
    raise InputError(f"{rows_path} must list one permutation per generator or per element")
