"""Core graphs (Stallings automata) for finitely generated subgroups of free
groups.

A based, folded, letter-labeled digraph represents a subgroup H: the freely
reduced words readable along closed paths at the base vertex are exactly the
elements of H.  The *core* is the subgraph carrying every cyclically reduced
closed path; the based graph may additionally carry a simple tail from the
base into the core.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import AlphabetMismatch, InputError, InternalCheckError, PreconditionError
from .unionfind import UnionFind
from .words import Alphabet, Word, format_word

if TYPE_CHECKING:
    import random

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

    def add_edge(self, u: int, label: int, v: int) -> None:
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            raise InputError("edge endpoint out of range")
        if not 0 <= label < self.alphabet.size:
            raise InputError("edge label out of range")
        self.edges.append((u, label, v))

    def add_word_loop(self, w: Word) -> None:
        """Attach a loop at the base spelling w (a letter (i,-1) adds a reverse edge).

        The loop's inner vertices are new and numbered in reading order, and
        each syllable adds its edges in one step.
        """
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("loop word over a different alphabet")
        if w.is_identity():
            return
        n = self.n_vertices
        self.n_vertices += w.length() - 1
        path = [self.base, *range(n, self.n_vertices), self.base]
        edges = self.edges
        p = 0
        for idx, exp in w.syllables:
            if exp == 1:
                edges.append((path[p], idx, path[p + 1]))
            elif exp == -1:
                edges.append((path[p + 1], idx, path[p]))
            elif exp > 0:
                edges.extend(zip(path[p : p + exp], repeat(idx), path[p + 1 : p + exp + 1]))
            else:
                edges.extend(zip(path[p + 1 : p - exp + 1], repeat(idx), path[p : p - exp]))
            p += abs(exp)


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
        k = alphabet.size
        out: list[list[Optional[int]]] = [[None] * k for _ in range(n_vertices)]
        inn: list[list[Optional[int]]] = [[None] * k for _ in range(n_vertices)]
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
        if self._core is None:
            ends = [[w for w in self.out[v] + self.inn[v] if w is not None] for v in range(self.n_vertices)]
            if any(ends):
                alive = _peel(ends)
                self._core = frozenset(v for v in range(self.n_vertices) if alive[v])
            else:
                self._core = frozenset({self.base})
        return self._core

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


def _peel(ends: list[list[int]], keep: int = -1) -> list[bool]:
    """Which vertices survive repeatedly dropping those of degree at most one.

    `ends[v]` lists the far end of every edge at v (a loop twice); the vertex
    `keep` is never dropped.  A degree-1 queue visits each vertex once, and
    the survivors do not depend on the order of removal.
    """
    deg = [len(e) for e in ends]
    alive = [True] * len(ends)
    queue = [v for v, d in enumerate(deg) if d <= 1 and v != keep]
    while queue:
        v = queue.pop()
        alive[v] = False
        for w in ends[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1 and w != keep:
                    queue.append(w)
    return alive


def _trim_spurs(n: int, base: int, edges: list[tuple[int, int, int]]) -> tuple[int, int, list]:
    """Drop vertices of degree at most one other than the base, renumber densely."""
    ends: list[list[int]] = [[] for _ in range(n)]
    for u, _, v in edges:
        ends[u].append(v)
        ends[v].append(u)
    alive = _peel(ends, base)
    kept = [v for v in range(n) if alive[v]]
    renum = {v: i for i, v in enumerate(kept)}
    new_edges = [(renum[u], lab, renum[v]) for u, lab, v in edges if alive[u] and alive[v]]
    return len(renum), renum[base], new_edges


def fold(
    builder: LabeledGraphBuilder,
    generators: tuple[Word, ...] = (),
    rng: random.Random | None = None,
) -> CoreGraph:
    """Fold a based labeled graph.

    Identifies exactly the vertex pairs forced by label-determinism; the
    language of closed base paths is unchanged.  Every vertex class keeps
    one out-slot and one in-slot per label, and a worklist holds the vertex
    pairs still to be identified.  Placing the builder's edges in the slots
    seeds it with one pair per edge that finds its slot taken; merging two
    classes moves the absorbed class's slots into the survivor and adds one
    pair per slot both fill.  Each merge costs O(alphabet size), so folding
    is near-linear in the number of edges.  Passing an rng shuffles the
    edges, and so the initial worklist; the folded partition is unique, and
    classes are numbered by their smallest vertex, so the result does not
    depend on the order either way.
    """
    k = builder.alphabet.size
    n = builder.n_vertices
    out = [-1] * (n * k)  # out[v*k + lab]: a vertex the lab-edge from v's class enters
    inn = [-1] * (n * k)
    pending = []
    edges = list(builder.edges)
    if rng is not None:
        rng.shuffle(edges)
    for u, lab, v in edges:
        i, j = u * k + lab, v * k + lab
        if out[i] < 0:
            out[i] = v
        elif out[i] != v:
            pending.append((out[i], v))
        if inn[j] < 0:
            inn[j] = u
        elif inn[j] != u:
            pending.append((inn[j], u))

    uf = UnionFind(n)
    find = uf.find
    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        uf.union(ra, rb)  # the smaller root survives
        keep, gone = (ra, rb) if ra < rb else (rb, ra)
        for table in (out, inn):
            for i in range(gone * k, gone * k + k):
                t = table[i]
                if t >= 0:
                    j = i + (keep - gone) * k
                    s = table[j]
                    if s < 0:
                        table[j] = t
                    elif s != t:
                        pending.append((s, t))

    parent = uf.parent
    folded = [
        (u, lab, find(out[u * k + lab])) for u in range(n) if parent[u] == u for lab in range(k) if out[u * k + lab] >= 0
    ]
    n2, base2, edges2 = _trim_spurs(n, find(builder.base), folded)
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
