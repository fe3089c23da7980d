"""Core graphs (Stallings automata) for finitely generated subgroups of free
groups.

A based, folded, letter-labeled digraph represents a subgroup H: the freely
reduced words readable along closed paths at the base vertex are exactly the
elements of H.  The *core* is the subgraph carrying every cyclically reduced
closed path; the based graph may additionally carry a simple tail from the
base into the core.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator, Optional

from .errors import AlphabetMismatch, InputError, InternalCheckError, PreconditionError
from .words import Alphabet, Word, format_word

#: most letters `from_generators` folds: the unfolded graph has one vertex
#: per letter, and a short exponent such as x^(10^12) asks for more than fits
#: in memory
MAX_FOLD_LETTERS = 1_000_000


class LabeledGraphBuilder:
    """Mutable based graph with letter-labeled oriented edges; may be unfolded."""

    def __init__(self, alphabet: Alphabet, n_vertices: int = 1, base: int = 0):
        if n_vertices < 1 or not 0 <= base < n_vertices:
            raise InputError("builder needs at least a base vertex")
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.base = base
        self.edges: list[tuple[int, int, int]] = []  # (source, label, target)

    def add_vertex(self) -> int:
        self.n_vertices += 1
        return self.n_vertices - 1

    def add_edge(self, u: int, label: int, v: int) -> None:
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            raise InputError("edge endpoint out of range")
        if not 0 <= label < self.alphabet.size:
            raise InputError("edge label out of range")
        self.edges.append((u, label, v))

    def add_word_loop(self, w: Word) -> None:
        """Attach a loop at the base spelling w (a letter (i,-1) adds a reverse edge)."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("loop word over a different alphabet")
        cur = self.base
        left = w.length()
        for idx, exp in w.syllables:
            for _ in range(abs(exp)):
                left -= 1
                nxt = self.base if left == 0 else self.add_vertex()
                if exp > 0:
                    self.add_edge(cur, idx, nxt)
                else:
                    self.add_edge(nxt, idx, cur)
                cur = nxt


class CoreGraph:
    """Folded based graph of a subgroup; immutable after construction."""

    __slots__ = ("alphabet", "n_vertices", "base", "out", "inn", "generators", "_core", "_runs")

    def __init__(
        self,
        alphabet: Alphabet,
        n_vertices: int,
        base: int,
        edges: Iterable[tuple[int, int, int]],
        generators: tuple[Word, ...] = (),
    ):
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.base = base
        out: list[list[Optional[int]]] = [[None] * alphabet.size for _ in range(n_vertices)]
        inn: list[list[Optional[int]]] = [[None] * alphabet.size for _ in range(n_vertices)]
        for u, lab, v in edges:
            if out[u][lab] is not None or inn[v][lab] is not None:
                raise InternalCheckError("edge set is not folded")
            out[u][lab] = v
            inn[v][lab] = u
        self.out = tuple(tuple(row) for row in out)
        self.inn = tuple(tuple(row) for row in inn)
        self.generators = generators
        self._core = None
        self._runs = None

    # -- structure ---------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u in range(self.n_vertices):
            for lab in range(self.alphabet.size):
                v = self.out[u][lab]
                if v is not None:
                    yield (u, lab, v)

    @property
    def n_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def degree(self, v: int) -> int:
        d = 0
        for lab in range(self.alphabet.size):
            if self.out[v][lab] is not None:
                d += 1
            if self.inn[v][lab] is not None:
                d += 1
        return d

    def core_vertices(self) -> frozenset[int]:
        """Vertices on some cyclically reduced closed path (degree-1 trimming)."""
        if self._core is not None:
            return self._core
        if self.n_edges == 0:
            core = frozenset({self.base})
        else:
            alive = set(range(self.n_vertices))
            deg = {v: self.degree(v) for v in alive}
            changed = True
            while changed:
                changed = False
                for v in sorted(alive):
                    if deg[v] <= 1:
                        alive.discard(v)
                        changed = True
                        for lab in range(self.alphabet.size):
                            w = self.out[v][lab]
                            if w is not None and w in alive:
                                deg[w] -= 1
                            w = self.inn[v][lab]
                            if w is not None and w in alive:
                                deg[w] -= 1
            core = frozenset(alive)
        self._core = core
        return core

    def _letter_runs(self) -> tuple[tuple[tuple[tuple[int, ...], int, bool], ...], ...]:
        """Each letter's partial injection, cut into cycles and paths.

        `_letter_runs()[lab][v]` is (vertices, i, cyclic): the cycle or maximal path
        of lab-edges through v, in out-edge order, and v's index in it; an
        isolated vertex is a path of one.  Built on first use.
        """
        if self._runs is None:
            per_label = []
            for lab in range(self.alphabet.size):
                place: list = [None] * self.n_vertices
                # paths start where no lab-edge comes in; what is left lies on cycles
                starts = [v for v in range(self.n_vertices) if self.inn[v][lab] is None]
                for first in starts + list(range(self.n_vertices)):
                    if place[first] is not None:
                        continue
                    seq = [first]
                    nxt = self.out[first][lab]
                    while nxt is not None and nxt != first:
                        seq.append(nxt)
                        nxt = self.out[nxt][lab]
                    run = tuple(seq)
                    for i, v in enumerate(run):
                        place[v] = (run, i, nxt is not None)
                per_label.append(tuple(place))
            self._runs = tuple(per_label)
        return self._runs

    # -- queries -----------------------------------------------------------

    def read(self, w: Word, start: int) -> Optional[int]:
        """Walk w from a vertex; None when the walk leaves the graph.

        A syllable x^k moves in one step along the cycle or path of x-edges
        through the current vertex, so the cost is per syllable, not per
        letter.
        """
        out, inn, runs = self.out, self.inn, self._runs
        cur = start
        for idx, exp in w.syllables:
            if exp == 1:
                cur = out[cur][idx]
            elif exp == -1:
                cur = inn[cur][idx]
            else:
                runs = runs or self._letter_runs()
                run, i, cyclic = runs[idx][cur]
                i += exp
                if cyclic:
                    cur = run[i % len(run)]
                elif 0 <= i < len(run):
                    cur = run[i]
                else:
                    return None
            if cur is None:
                return None
        return cur

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("membership query over a different alphabet")
        return self.read(w, self.base) == self.base

    def closed_path_vertices(self, w: Word) -> frozenset[int]:
        """Core vertices from which reading w traces a closed path."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("census query over a different alphabet")
        if w.is_identity():
            raise PreconditionError("census word must be nonempty")
        if not w.is_cyclically_reduced():
            raise PreconditionError("census word must be cyclically reduced")
        return frozenset(v for v in self.core_vertices() if self.read(w, v) == v)

    def bfs_parents(self) -> dict[int, tuple[int, int, int]]:
        """Breadth-first search from the base, labels ascending, out-edge
        before in-edge.

        Maps every reached vertex, in the order reached, to (previous vertex,
        label, sign), sign +1 when the vertex was reached along an out-edge
        and -1 along an in-edge; the base maps to (-1, -1, 0).
        """
        parent = {self.base: (-1, -1, 0)}
        queue = deque((self.base,))
        while queue:
            v = queue.popleft()
            for lab in range(self.alphabet.size):
                for nxt, sg in ((self.out[v][lab], 1), (self.inn[v][lab], -1)):
                    if nxt is not None and nxt not in parent:
                        parent[nxt] = (v, lab, sg)
                        queue.append(nxt)
        return parent

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> "CoreGraph":
        """Breadth-first relabeling from the base with fixed label order."""
        order = {v: i for i, v in enumerate(self.bfs_parents())}
        if len(order) != self.n_vertices:
            raise InternalCheckError("based graph is not connected")
        edges = [(order[u], lab, order[v]) for u, lab, v in self.edges()]
        return CoreGraph(self.alphabet, self.n_vertices, 0, sorted(edges), self.generators)

    def canonical_key(self) -> tuple:
        cf = self.canonical_form()
        return (cf.alphabet.names, cf.n_vertices, tuple(sorted(cf.edges())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoreGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # -- reports -----------------------------------------------------------

    def coset_labels(self) -> tuple[str, ...]:
        """Shortest-word coset names H1, Hx, ... for human-readable reports."""
        words = {self.base: Word.identity(self.alphabet)}
        for v, (prev, lab, sg) in self.bfs_parents().items():
            if prev != -1:
                words[v] = words[prev] * Word.gen(self.alphabet, lab, sg)
        return tuple(
            "H" + format_word(words[v]) if v in words else f"H?{v}" for v in range(self.n_vertices)
        )

    def to_text(self) -> str:
        labels = self.coset_labels()
        lines = [f"base: {labels[self.base]}", f"vertices: {self.n_vertices}", f"edges: {self.n_edges}"]
        for u, lab, v in sorted(self.edges()):
            lines.append(f"({labels[u]}, {self.alphabet.names[lab]}, {labels[v]})")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["digraph core {", "  rankdir=LR;"]
        for v in range(self.n_vertices):
            shape = "doublecircle" if v == self.base else "circle"
            lines.append(f'  v{v} [shape={shape} label="{v}"];')
        for u, lab, v in sorted(self.edges()):
            lines.append(f'  v{u} -> v{v} [label="{self.alphabet.names[lab]}"];')
        lines.append("}")
        return "\n".join(lines)


def _trim_spurs(n: int, base: int, edges: set[tuple[int, int, int]]) -> tuple[int, int, list]:
    """Drop degree-1 vertices other than the base, renumber densely."""
    deg: dict[int, int] = {v: 0 for v in range(n)}
    for u, _, v in edges:
        deg[u] += 1
        deg[v] += 1
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if v != base and deg[v] <= 1:
                alive.discard(v)
                changed = True
                for u, lab, t in list(edges):
                    if u == v or t == v:
                        edges.discard((u, lab, t))
                        other = t if u == v else u
                        if other in alive and other != v:
                            deg[other] -= 1
    renum = {v: i for i, v in enumerate(sorted(alive))}
    new_edges = [(renum[u], lab, renum[v]) for u, lab, v in edges]
    return len(alive), renum[base], new_edges


def fold(
    builder: LabeledGraphBuilder,
    generators: tuple[Word, ...] = (),
    rng: random.Random | None = None,
) -> CoreGraph:
    """Fold a based labeled graph.

    Identifies exactly the vertex pairs forced by label-determinism; the
    language of closed base paths is unchanged.  The default strategy picks
    the lowest-index conflict first; passing an rng randomizes the order
    (the result is order-independent either way).
    """
    n = builder.n_vertices
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    edges = list(builder.edges)
    while True:
        conflicts = []
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        for u, lab, v in edges:
            ru, rv = find(u), find(v)
            w = seen_out.get((ru, lab))
            if w is None:
                seen_out[(ru, lab)] = rv
            elif w != rv:
                conflicts.append((w, rv))
            w = seen_in.get((rv, lab))
            if w is None:
                seen_in[(rv, lab)] = ru
            elif w != ru:
                conflicts.append((w, ru))
        if not conflicts:
            break
        pick = rng.choice(conflicts) if rng is not None else min(conflicts)
        union(*pick)

    roots = sorted({find(v) for v in range(n)})
    renum = {r: i for i, r in enumerate(roots)}
    folded_edges = {(renum[find(u)], lab, renum[find(v)]) for u, lab, v in edges}
    n2, base2, edges2 = _trim_spurs(len(roots), renum[find(builder.base)], folded_edges)
    return CoreGraph(builder.alphabet, n2, base2, edges2, generators)


def from_generators(gens: Iterable[Word], alphabet: Alphabet | None = None) -> CoreGraph:
    """Folded based graph whose closed base paths spell exactly <gens>."""
    gens = tuple(gens)
    nonempty = [g for g in gens if not g.is_identity()]
    if alphabet is None:
        if not nonempty:
            raise InputError("cannot infer the alphabet from empty generators")
        alphabet = nonempty[0].alphabet
    for g in nonempty:
        if g.alphabet != alphabet:
            raise AlphabetMismatch("subgroup generators over different alphabets")
    letters = sum(g.length() for g in nonempty)
    if letters > MAX_FOLD_LETTERS:
        raise InputError(f"generators have {letters} letters; at most {MAX_FOLD_LETTERS} can be folded")
    builder = LabeledGraphBuilder(alphabet)
    for g in nonempty:
        builder.add_word_loop(g)
    return fold(builder, generators=gens)
