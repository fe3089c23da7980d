"""Mechanical verification of the free-group facts behind the rank-two
HNN-style example ⟨x, y, t | x^{4t} = x^8, y^{4t} = y^8, (xyx)^{t^2} = x^4 y^4 x^4⟩.

Every check reduces to finite core-graph computations:

* "schreier": closed-path censuses of the words x^{2^n} y^{2^n} x^{2^n} over
  the fixed rank-two subgroups, giving a complete decision over all
  conjugators because the words are cyclically reduced;
* "really": conjugation by t doubles exponents on the rank-two subgroup
  ⟨x^4, y^4⟩; iterating the induced endomorphism and substituting back must
  reproduce the doubled power words as freely reduced words;
* "stabilizers": the documented conjugate subgroups and their inclusions;
* "fixed": which vertices and edges of the acting tree are fixed by xyx,
  family by family, inferred from the censuses plus the incidence data.

The tree itself is never materialized; everything is word arithmetic.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, InternalCheckError, VerificationMismatch, int_, obj
from .stallings import CoreGraph, from_generators
from .words import XY, Alphabet, Word, format_word, multiply, parse_word, power_word, substitute

AUX = Alphabet.of("X", "Y")

#: largest depth `verify_all` accepts; words stay three syllables at every
#: depth, so the cap only bounds the run time
N_MAX_CAP = 256


# ---------------------------------------------------------------------------
# fixture data
# ---------------------------------------------------------------------------


class ExampleData(NamedTuple):
    """The presentation and incidence constants of the example, as data.

    The three relators are stored structurally: conjugation by t sends the
    degree-four generators to `t_images`, and `(base_lhs)^{t^2} = base_rhs`.
    Subgroups are generator lists over {x, y}.  `documented_*` hold the
    asserted forms of the conjugated edge/vertex groups, which the verifiers
    re-derive and compare.
    """

    gu_gens: tuple[Word, ...]
    gw_gens: tuple[Word, ...]
    ge_gens: tuple[Word, ...]
    t_images: tuple[Word, ...]
    base_lhs: Word
    base_rhs: Word
    schreier_small_gens: tuple[Word, ...]
    documented_ge_t2: tuple[Word, ...]
    documented_gf_t: tuple[Word, ...]
    tau_e_exp: int = 2
    tau_f_exp: int = 1

    def to_json(self) -> dict:
        return {
            "gu_gens": [format_word(w) for w in self.gu_gens],
            "gw_gens": [format_word(w) for w in self.gw_gens],
            "ge_gens": [format_word(w) for w in self.ge_gens],
            "t_images": [format_word(w) for w in self.t_images],
            "base_lhs": format_word(self.base_lhs),
            "base_rhs": format_word(self.base_rhs),
            "schreier_small_gens": [format_word(w) for w in self.schreier_small_gens],
            "documented_ge_t2": [format_word(w) for w in self.documented_ge_t2],
            "documented_gf_t": [format_word(w) for w in self.documented_gf_t],
            "tau_e_exp": self.tau_e_exp,
            "tau_f_exp": self.tau_f_exp,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExampleData":
        """The fields from a JSON object: word lists, words, and the two
        exponents, which default to 2 and 1."""
        defaults = cls._field_defaults
        values = obj(doc, "", [key for key in cls._fields if key not in defaults], defaults)
        return cls(*[_fixture_value(key, value) for key, value in zip(cls._fields, values)])


def _fixture_value(key: str, value):
    if key in ExampleData._field_defaults:
        return int_(value, key)
    if key in ("base_lhs", "base_rhs"):
        if not isinstance(value, str):
            raise InputError(f"{key} must be a word")
        return parse_word(XY, value)
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{key} must be a list of words")
    return tuple(parse_word(XY, s) for s in value)


def default_data() -> ExampleData:
    w = lambda s: parse_word(XY, s)
    return ExampleData(
        gu_gens=(w("x"), w("y")),
        gw_gens=(w("x^4"), w("y^4")),
        ge_gens=(w("x^4"), w("xyx"), w("y^4")),
        t_images=(w("x^8"), w("y^8")),
        base_lhs=w("xyx"),
        base_rhs=w("x^4y^4x^4"),
        schreier_small_gens=(w("x^2"), w("y^2")),
        documented_ge_t2=(w("x^16"), w("x^4y^4x^4"), w("y^16")),
        documented_gf_t=(w("x^8"), w("y^8")),
    )


def documented_mutations(data: Optional[ExampleData] = None) -> dict[str, ExampleData]:
    """The six single-alteration mutants used to guard against vacuous checks."""
    data = data or default_data()
    w = lambda s: parse_word(XY, s)
    return {
        "relator-x-image": data._replace(t_images=(w("x^6"), data.t_images[1])),
        "relator-y-image": data._replace(t_images=(data.t_images[0], w("y^4"))),
        "relator-base-rhs": data._replace(base_rhs=w("x^4y^4x^8")),
        "subgroup-ge-generator": data._replace(ge_gens=(data.ge_gens[0], w("xy"), data.ge_gens[2])),
        "subgroup-gw-generator": data._replace(gw_gens=(data.gw_gens[0], w("y^8"))),
        "incidence-tau-f": data._replace(tau_f_exp=2),
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    """One verified fact: what was expected at depth n, what was computed,
    and whether they agree."""

    name: str
    n: Optional[int]
    expected: object
    computed: object
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            **({"note": self.note} if self.note else {}),
        }


class Report:
    """The checks of one verification run, in the order they were made."""

    __slots__ = ("title", "checks", "runtime_seconds")

    def __init__(self, title: str, checks: Optional[list[Check]] = None, runtime_seconds: float = 0.0):
        self.title = title
        self.checks = [] if checks is None else checks
        self.runtime_seconds = runtime_seconds

    def __repr__(self) -> str:
        return f"Report(title={self.title!r}, checks={self.checks!r}, runtime_seconds={self.runtime_seconds!r})"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, n, expected, computed, note="") -> Check:
        c = Check(name, n, expected, computed, expected == computed, note)
        self.checks.append(c)
        return c

    def fail(self, name, n, message) -> Check:
        c = Check(name, n, "consistent derived data", message, False)
        self.checks.append(c)
        return c

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "pass": self.passed,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            where = f" n={c.n}" if c.n is not None else ""
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"  [{mark}] {c.name}{where}: expected {c.expected!r}, got {c.computed!r}{note}")
        return "\n".join(lines)


def _census_value(core: CoreGraph, word: Word) -> str:
    census = core.closed_path_vertices(word)
    if not census:
        return "empty"
    if census == frozenset({core.base}):
        return "base"
    return f"{len(census)} vertices"


# ---------------------------------------------------------------------------
# rewriting a subgroup element in terms of the given generators
# ---------------------------------------------------------------------------


class RunCache:
    """Each graph and word that one run derives, derived once.

    `verify_all` makes one per call and passes it to every verifier.  A
    verifier called without one makes its own, which lives for that call.
    It keeps:

    * the folded core per generator tuple and alphabet, and the loop basis
      of each folded generator tuple;
    * each `express_in_generators` result per (generators, word, output
      alphabet), so each distinct rewrite runs its certificate once;
    * per data: `derive_phi(data)` (or the mismatch deriving it raised) with
      the words derived from it (`PhiWords`), and the t^2-conjugates of the
      edge-group generators.

    So a run to depth n_max makes O(n_max) substitutions, not O(n_max²).
    """

    def __init__(self) -> None:
        self._cores: dict = {}
        self._bases: dict = {}
        self._rewrites: dict = {}
        self._phi_words: dict = {}
        self._ge_t2: dict = {}

    def core(self, gens: Sequence[Word], alphabet: Optional[Alphabet] = None) -> CoreGraph:
        """`from_generators(gens, alphabet)`, folded once per run."""
        key = (tuple(gens), alphabet)
        if key not in self._cores:
            self._cores[key] = from_generators(key[0], alphabet=alphabet)
        return self._cores[key]

    def loop_basis(self, gens: tuple[Word, ...]) -> dict[tuple[int, int, int], tuple[int, int]]:
        """`_loop_basis` of the folded graph of gens, once per run."""
        if gens not in self._bases:
            self._bases[gens] = _loop_basis(self.core(gens), gens)
        return self._bases[gens]

    def phi_words(self, data: ExampleData) -> "PhiWords":
        """`derive_phi(data)` with its derived words, once per run; a
        mismatch is raised on every call."""
        words = self._phi_words.get(data)
        if words is None:
            try:
                words = PhiWords(derive_phi(data, cache=self))
            except VerificationMismatch as exc:
                words = exc
            self._phi_words[data] = words
        if isinstance(words, VerificationMismatch):
            raise words
        return words

    def ge_t2(self, data: ExampleData) -> list[Word]:
        """`ge_t2_generators(data, phi)`, once per run."""
        if data not in self._ge_t2:
            self._ge_t2[data] = ge_t2_generators(data, self.phi_words(data).phi, cache=self)
        return self._ge_t2[data]


def _loop_basis(h: CoreGraph, gens: tuple[Word, ...]) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Match the loops of h's edges outside its BFS tree with the generators.

    Maps each such edge (u, label, v) to (generator index, ±1); raises
    VerificationMismatch when some loop is no generator or its inverse.
    """
    parent = h.bfs_parents()
    tree_edges = {
        (u, lab, v) if sg == 1 else (v, lab, u) for v, (u, lab, sg) in parent.items() if u != -1
    }

    def word_to(v: int) -> Word:
        letters = []
        while v != h.base:
            v, lab, sg = parent[v]
            letters.append((lab, sg))
        return Word(h.alphabet, [lt for lt in reversed(letters)])

    petal_of: dict[tuple[int, int, int], tuple[int, int]] = {}
    used: set[int] = set()
    for trip in h.edges():
        if trip in tree_edges:
            continue
        u, lab, v = trip
        loop = multiply(multiply(word_to(u), Word.gen(h.alphabet, lab)), ~word_to(v))
        hit = None
        for j, g in enumerate(gens):
            if j in used:
                continue
            if loop == g:
                hit = (j, 1)
                break
            if loop == ~g:
                hit = (j, -1)
                break
        if hit is None:
            raise VerificationMismatch(
                "the folded-graph loop basis does not match the generators"
            )
        used.add(hit[0])
        petal_of[trip] = hit
    return petal_of


def express_in_generators(
    gens: Sequence[Word], w: Word, out_alphabet: Alphabet, *, cache: Optional[RunCache] = None
) -> Word:
    """Rewrite w over new letters, one per generator.

    Works via the folded graph of the subgroup: the walk of w is decomposed
    against a spanning tree, and the loop basis must match the generators up
    to inversion.  The result is certified by substituting back, once per
    distinct rewrite and cache.  The walk goes letter by letter, so w should
    be short; the verifiers rewrite only fixture words, never the depth-n
    words.
    """
    gens = tuple(g for g in gens if not g.is_identity())
    if not gens:
        raise InputError("cannot rewrite over an empty generating set")
    if len(gens) > out_alphabet.size:
        raise InputError("not enough output letters for the generators")
    cache = cache or RunCache()
    key = (gens, w, out_alphabet)
    if key in cache._rewrites:
        return cache._rewrites[key]
    h = cache.core(gens)
    if w.alphabet != h.alphabet:
        raise InputError("word and generators live over different alphabets")
    if not h.contains(w):
        raise VerificationMismatch(
            f"{format_word(w)} is not in the subgroup generated by "
            + ", ".join(format_word(g) for g in gens)
        )
    petal_of = cache.loop_basis(gens)

    out_letters = []
    cur = h.base
    for idx, sg in w.letters:
        if sg > 0:
            nxt = h.out[idx][cur]
            trip = (cur, idx, nxt)
        else:
            nxt = h.inn[idx][cur]
            trip = (nxt, idx, cur)
        if trip in petal_of:
            j, orient = petal_of[trip]
            out_letters.append((j, orient * sg))
        cur = nxt
    expr = Word(out_alphabet, out_letters)

    images = {out_alphabet.names[j]: gens[j] for j in range(len(gens))}
    for k in range(len(gens), out_alphabet.size):
        images[out_alphabet.names[k]] = Word.identity(h.alphabet)
    if substitute(expr, images) != w:
        raise InternalCheckError("rewriting certificate failed")
    cache._rewrites[key] = expr
    return expr


# ---------------------------------------------------------------------------
# derived structure: the exponent-doubling endomorphism
# ---------------------------------------------------------------------------


class PhiEndo(NamedTuple):
    """Conjugation by t, realized on the rank-two subgroup.

    `emb` identifies the auxiliary letters with the subgroup generators, and
    `images` is the endomorphism those relators induce on the auxiliary free
    group (letter doubling, on the unmutated fixture).
    """

    emb: dict
    images: dict
    start: Word  # the auxiliary word whose embedding is (base_lhs)^{t^2}

    def apply(self, w: Word, times: int = 1) -> Word:
        for _ in range(times):
            w = substitute(w, self.images)
        return w

    def embed(self, w: Word) -> Word:
        return substitute(w, self.emb)


class PhiWords:
    """The words one run derives from phi, each once: the iterates φ^k(start),
    extended one `substitute` past the deepest so far, and the embedding of
    each auxiliary word asked for."""

    __slots__ = ("phi", "_iterates", "_embedded")

    def __init__(self, phi: PhiEndo) -> None:
        self.phi = phi
        self._iterates = [phi.start]
        self._embedded: dict[Word, Word] = {}

    def iterate(self, k: int) -> Word:
        """`phi.apply(phi.start, k)`."""
        iterates = self._iterates
        while len(iterates) <= k:
            iterates.append(self.phi.apply(iterates[-1]))
        return iterates[k]

    def embed(self, w: Word) -> Word:
        """`phi.embed(w)`."""
        if w not in self._embedded:
            self._embedded[w] = self.phi.embed(w)
        return self._embedded[w]


def derive_phi(data: ExampleData, *, cache: Optional[RunCache] = None) -> PhiEndo:
    if len(data.gw_gens) != AUX.size:
        raise VerificationMismatch("the rank-two subgroup does not have two generators")
    if len(data.t_images) < AUX.size:
        raise VerificationMismatch("the conjugation relators give fewer than two images")
    cache = cache or RunCache()
    emb = {AUX.names[i]: data.gw_gens[i] for i in range(AUX.size)}
    images = {
        AUX.names[i]: express_in_generators(data.gw_gens, data.t_images[i], AUX, cache=cache)
        for i in range(AUX.size)
    }
    start = express_in_generators(data.gw_gens, data.base_rhs, AUX, cache=cache)
    return PhiEndo(emb, images, start)


def t_conjugate(
    data: ExampleData, phi: PhiEndo, w: Word, times: int = 1, *, cache: Optional[RunCache] = None
) -> Word:
    """w^(t^times) for w in the rank-two subgroup, via the relators."""
    expr = express_in_generators(data.gw_gens, w, AUX, cache=cache)
    return phi.embed(phi.apply(expr, times))


def ge_t2_generators(data: ExampleData, phi: PhiEndo, *, cache: Optional[RunCache] = None) -> list[Word]:
    """The t^2-conjugates of the edge-group generators, derived from the relators."""
    out = []
    for g in data.ge_gens:
        if g == data.base_lhs:
            out.append(data.base_rhs)
        else:
            out.append(t_conjugate(data, phi, g, times=2, cache=cache))
    return out


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_schreier(data: ExampleData, part: str, n: int, *, cache: Optional[RunCache] = None) -> Report:
    """Census of x^{2^n} y^{2^n} x^{2^n} over the part's subgroup.

    The word is cyclically reduced, so the census decides membership in every
    conjugate at once: part (i) must be empty exactly at n = 0, part (ii)
    exactly at n = 1, and otherwise pin the base coset alone.
    """
    report = Report(f"schreier part ({part})")
    if part == "i":
        gens, miss = data.schreier_small_gens, 0
    elif part == "ii":
        gens, miss = data.ge_gens, 1
    else:
        raise InputError("part must be 'i' or 'ii'")
    core = (cache or RunCache()).core(gens)
    expected = "empty" if n == miss else "base"
    computed = _census_value(core, power_word(n))
    report.add(f"schreier.{part}.census", n, expected, computed)
    return report


def verify_really(data: ExampleData, n: int, *, cache: Optional[RunCache] = None) -> Report:
    """The conjugation identities, by iterating the doubling endomorphism.

    Chain: (base_lhs)^{t^2} = base_rhs embeds the auxiliary start word, and
    each further conjugation by t applies the endomorphism the first two
    relators induce; the result must equal the doubled power word after
    substitution, as freely reduced words.
    """
    report = Report("conjugation identities")
    try:
        words = (cache or RunCache()).phi_words(data)
    except VerificationMismatch as exc:
        report.fail("really.derive", n, str(exc))
        return report

    lhs = words.embed(words.iterate(n))
    rhs_stated = words.embed(power_word(n, alphabet=AUX))
    report.add(
        "really.ii.identity",
        n,
        True,
        lhs == rhs_stated,
        note="conjugate of the base word vs the doubled-generator word",
    )
    report.add(
        "really.ii.reduced-form",
        n,
        True,
        rhs_stated == power_word(n + 2),
        note="exponent bookkeeping: substituted powers reduce to the doubled power word",
    )
    if n == 0:
        report.add("really.i.identity", 0, format_word(power_word(0)), format_word(data.base_lhs))
    elif n == 1:
        report.checks.append(
            Check("really.i.identity", 1, "excluded", "excluded", True, "the statement excludes n = 1")
        )
    else:
        lhs_i = words.embed(words.iterate(n - 2))
        report.add(
            "really.i.identity",
            n,
            True,
            lhs_i == power_word(n),
            note="coincides with part (ii) two steps earlier",
        )
    return report


def verify_stabilizer_inclusions(data: ExampleData, *, cache: Optional[RunCache] = None) -> Report:
    """Membership checks for the documented conjugate subgroups."""
    report = Report("stabilizer inclusions")
    cache = cache or RunCache()
    gu_core = cache.core(data.gu_gens)
    gw_core = cache.core(data.gw_gens)
    for g in data.ge_gens:
        report.add("stab.ge-in-gu", None, True, gu_core.contains(g), note=format_word(g))
    try:
        phi = cache.phi_words(data).phi
        derived_ge_t2 = cache.ge_t2(data)
        derived_gf_t = [t_conjugate(data, phi, g, 1, cache=cache) for g in data.gw_gens]
    except VerificationMismatch as exc:
        report.fail("stab.derive", None, str(exc))
        return report
    for w in derived_ge_t2:
        report.add("stab.ge-t2-in-gw", None, True, gw_core.contains(w), note=format_word(w))
    for w in derived_gf_t:
        report.add("stab.gf-t-in-gw", None, True, gw_core.contains(w), note=format_word(w))
    report.add(
        "stab.ge-t2-documented",
        None,
        True,
        cache.core(derived_ge_t2).canonical_key() == cache.core(data.documented_ge_t2).canonical_key(),
        note="derived t^2-conjugate of the edge group equals its documented form",
    )
    report.add(
        "stab.gf-t-documented",
        None,
        True,
        cache.core(derived_gf_t).canonical_key() == cache.core(data.documented_gf_t).canonical_key(),
        note="derived t-conjugate of the second edge group equals its documented form",
    )
    doc_core = cache.core(data.documented_ge_t2)
    report.add("stab.base-rhs-in-ge-t2", None, True, doc_core.contains(data.base_rhs))
    report.add("stab.x4-not-in-ge-t2", None, False, doc_core.contains(data.gw_gens[0]))
    return report


def fixed_point_profile(data: ExampleData, n_max: int, *, cache: Optional[RunCache] = None) -> Report:
    """Which tree vertices and edges the element xyx fixes, per coset family.

    For each n, four censuses decide the fixed incident edges of the two
    vertex families, and the neighbour pattern of the fixed subtree follows
    from the incidence exponents; everything must reproduce the documented
    profile (the u-family vertex is fixed exactly when n != 1, the deep
    w-family vertices always are).
    """
    report = Report("fixed-point profile")
    cache = cache or RunCache()
    try:
        words = cache.phi_words(data)
        aux_ii = [express_in_generators(data.gw_gens, w, AUX, cache=cache) for w in cache.ge_t2(data)]
        aux_iii = [express_in_generators(data.gw_gens, w, AUX, cache=cache) for w in data.t_images]
    except VerificationMismatch as exc:
        report.fail("fixed.derive", None, str(exc))
        return report
    core_i = cache.core(data.ge_gens)
    core_ii = cache.core(aux_ii, alphabet=AUX)
    core_iii = cache.core(aux_iii, alphabet=AUX)
    gw_core = cache.core(data.gw_gens)

    for n in range(n_max + 1):
        word_xy = power_word(n)
        word_aux = power_word(n, alphabet=AUX)
        c_i = _census_value(core_i, word_xy)
        c_ii = _census_value(core_ii, word_aux)
        c_iii = _census_value(core_iii, word_aux)
        c_iv = gw_core.contains(words.embed(word_aux))

        report.add("fixed.census.u-edges", n, "empty" if n == 1 else "base", c_i)
        report.add("fixed.census.w-in-e-edges", n, "empty" if n == 1 else "base", c_ii)
        report.add("fixed.census.w-in-f-edges", n, "empty" if n == 0 else "base", c_iii)
        report.add("fixed.census.w-out-f-edge", n, True, c_iv)

        # vertex conclusions
        u_fixed = c_i == "base" if n != 1 else not (c_ii == "empty")
        report.add("fixed.vertex.u", n, n != 1, u_fixed, note=f"vertex t^{n} u")
        report.add("fixed.vertex.w", n, True, bool(c_iv), note=f"vertex t^{n + 2} w")

        # fixed edges incident to the w-family vertex t^(n+2) w
        edges = []
        if c_ii == "base":
            edges.append(("e", n + 2 - data.tau_e_exp))
        if c_iii == "base":
            edges.append(("f", n + 2 - data.tau_f_exp))
        if c_iv:
            edges.append(("f", n + 2))
        expected_edges = []
        if n != 1:
            expected_edges.append(("e", n))
        if n != 0:
            expected_edges.append(("f", n + 1))
        expected_edges.append(("f", n + 2))
        report.add("fixed.edges.at-w", n, sorted(expected_edges), sorted(edges))

        # neighbours of t^(n+2) w inside the fixed subtree
        neigh = []
        if c_ii == "base":
            neigh.append(("u", n + 2 - data.tau_e_exp))
        if c_iii == "base":
            neigh.append(("w", n + 2 - data.tau_f_exp))
        if c_iv:
            neigh.append(("w", n + 2 + data.tau_f_exp))
        expected_neigh = []
        if n != 1:
            expected_neigh.append(("u", n))
        if n != 0:
            expected_neigh.append(("w", n + 1))
        expected_neigh.append(("w", n + 3))
        report.add("fixed.neighbours.of-w", n, sorted(expected_neigh), sorted(neigh))
    return report


def verify_all(data: Optional[ExampleData] = None, n_max: int = 10, parts: Optional[Sequence[str]] = None) -> Report:
    """Run every verifier up to the depth bound and aggregate one report.

    The depth bound must lie in 0..N_MAX_CAP; one `RunCache` serves every
    verifier, so each graph and word is derived once per call.
    """
    if not 0 <= n_max <= N_MAX_CAP:
        raise InputError(f"n_max must lie between 0 and {N_MAX_CAP}, got {n_max}")
    data = data or default_data()
    wanted = set(parts) if parts else {"schreier", "really", "stabilizers", "fixed"}
    bad = wanted - {"schreier", "really", "stabilizers", "fixed"}
    if bad:
        raise InputError(f"unknown parts: {sorted(bad)}")
    t0 = time.perf_counter()
    cache = RunCache()
    report = Report(f"verification up to n = {n_max}")
    for n in range(n_max + 1):
        report.add("wordlength", n, 3 * 2**n, power_word(n).length())
    if "schreier" in wanted:
        for n in range(n_max + 1):
            report.extend(verify_schreier(data, "i", n, cache=cache))
            report.extend(verify_schreier(data, "ii", n, cache=cache))
    if "really" in wanted:
        for n in range(n_max + 1):
            report.extend(verify_really(data, n, cache=cache))
    if "stabilizers" in wanted:
        report.extend(verify_stabilizer_inclusions(data, cache=cache))
    if "fixed" in wanted:
        report.extend(fixed_point_profile(data, n_max, cache=cache))
    report.runtime_seconds = time.perf_counter() - t0
    return report
