"""Core graphs (Stallings automata) for finitely generated subgroups of free
groups.

A based, folded, letter-labeled digraph represents a subgroup H: the freely
reduced words readable along closed paths at the base vertex are exactly the
elements of H.  The *core* is the subgraph carrying every cyclically reduced
closed path; the based graph may additionally carry a simple tail from the
base into the core.
"""

from __future__ import annotations

import gc
import operator
from collections import deque
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, Optional

from .errors import AlphabetMismatch, InputError, InternalCheckError, PreconditionError
from .unionfind import UnionFind
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
    """Folded based graph of a subgroup; immutable after construction.

    The rows are spur-trimmed except for the base's tail: no vertex off that
    simple path has degree at most one.  `fold` leaves its graphs so, and
    `canonical_form`, which only renumbers, keeps it.
    """

    __slots__ = ("alphabet", "n_vertices", "base", "out", "inn", "_core", "_runs")

    def __init__(
        self,
        alphabet: Alphabet,
        base: int,
        out: tuple[tuple[Optional[int], ...], ...],
        inn: tuple[tuple[Optional[int], ...], ...],
    ):
        """`out[v][lab]` is the far end of the lab-edge leaving v and
        `inn[v][lab]` that of the lab-edge entering it, None when there is
        none; the two tables describe the same folded edge set."""
        self.alphabet = alphabet
        self.n_vertices = len(out)
        self.base = base
        self.out = out
        self.inn = inn
        self._core: Optional[frozenset[int]] = None
        self._runs: list[Optional[list]] = [None] * alphabet.size

    # -- structure ---------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u in range(self.n_vertices):
            for lab in range(self.alphabet.size):
                v = self.out[u][lab]
                if v is not None:
                    yield (u, lab, v)

    @property
    def n_edges(self) -> int:
        k = self.alphabet.size
        return sum(k - row.count(None) for row in self.out)

    def degree(self, v: int) -> int:
        return 2 * self.alphabet.size - self.out[v].count(None) - self.inn[v].count(None)

    def core_vertices(self) -> frozenset[int]:
        """Vertices on some cyclically reduced closed path.

        The rows are trimmed but for the base's tail, so this is every vertex
        off that tail, or the base alone when the tail is every vertex (no
        edges).  The tail is walked from the base: each of its vertices has
        at most one edge end besides the one it was entered by.
        """
        if self._core is None:
            out, inn = self.out, self.inn
            tail = []
            prev, v = None, self.base
            while True:
                nbrs = [w for w in out[v] + inn[v] if w is not None]
                if prev is not None:
                    nbrs.remove(prev)
                if len(nbrs) > 1:
                    break
                tail.append(v)
                if not nbrs:
                    break
                prev, v = v, nbrs[0]
            n = self.n_vertices
            self._core = frozenset(range(n)).difference(tail) if len(tail) < n else frozenset({self.base})
        return self._core

    def _run_through(self, lab: int, v: int) -> tuple[tuple[int, ...], int, bool]:
        """The cycle or maximal path of lab-edges through v, as (vertices, i,
        cyclic): the vertices in out-edge order, from the path's first vertex
        or the cycle's smallest one, and v's index among them; an isolated
        vertex is a path of one.  Split on first entry and cached for every
        vertex of the run.
        """
        out, inn = self.out, self.inn
        seq = []  # the vertices before v, nearest first
        u = inn[v][lab]
        while u is not None and u != v:
            seq.append(u)
            u = inn[u][lab]
        seq.reverse()
        seq.append(v)
        cyclic = u is not None
        if cyclic:
            i = seq.index(min(seq))
            seq = seq[i:] + seq[:i]
        else:
            u = out[v][lab]
            while u is not None:
                seq.append(u)
                u = out[u][lab]
        run = tuple(seq)
        place = self._runs[lab]
        if place is None:
            place = self._runs[lab] = [None] * self.n_vertices
        for i, u in enumerate(run):
            place[u] = (run, i, cyclic)
        return place[v]

    # -- queries -----------------------------------------------------------

    def read(self, w: Word, start: int) -> Optional[int]:
        """Walk w from a vertex; None when the walk leaves the graph.

        A syllable x^k moves in one step along the cycle or path of x-edges
        through the current vertex, so the cost is per syllable, not per
        letter; the first read that enters a run also splits it.
        """
        out, inn, runs = self.out, self.inn, self._runs
        cur = start
        for idx, exp in w.syllables:
            if exp == 1:
                cur = out[cur][idx]
            elif exp == -1:
                cur = inn[cur][idx]
            else:
                place = runs[idx]
                entry = place[cur] if place else None
                run, i, cyclic = entry or self._run_through(idx, cur)
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
        order = list(self.bfs_parents())
        if len(order) != self.n_vertices:
            raise InternalCheckError("based graph is not connected")
        pos = {v: i for i, v in enumerate(order)}

        def relabel(rows):
            return tuple(tuple([None if w is None else pos[w] for w in rows[v]]) for v in order)

        return CoreGraph(self.alphabet, 0, relabel(self.out), relabel(self.inn))

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


def _peel(deg: list[int], alive: list[bool], ends: Callable[[int], Iterable[int]], keep: int = -1) -> None:
    """Repeatedly drop the alive vertices of degree at most one, in place.

    `deg[v]` counts the edge ends at v (a loop twice) and `ends(v)` lists
    their far ends; the vertex `keep` is never dropped.  A degree-1 queue
    visits each dropped vertex once, and the survivors do not depend on the
    order of removal.
    """
    queue = [v for v, d in enumerate(deg) if d <= 1 and alive[v] and v != keep]
    while queue:
        v = queue.pop()
        alive[v] = False
        for w in ends(v):
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1 and w != keep:
                    queue.append(w)


def fold(builder: LabeledGraphBuilder) -> CoreGraph:
    """Fold a based labeled graph.

    Identifies exactly the vertex pairs forced by label-determinism; the
    language of closed base paths is unchanged.  Every vertex class keeps
    one out-slot and one in-slot per label, and a worklist holds the vertex
    pairs still to be identified.  Placing the builder's edges in the slots
    seeds it with one pair per edge that finds its slot taken; merging two
    classes moves the absorbed class's slots into the survivor and adds one
    pair per slot both fill.  Each merge costs O(alphabet size), so folding
    is near-linear in the number of edges.  The surviving classes' slots then
    give the spur trimming and the CoreGraph rows directly.  The folded
    partition is unique, and classes are numbered by their smallest vertex,
    so the result does not depend on the order of the builder's edges.
    """
    k = builder.alphabet.size
    n = builder.n_vertices
    out = [-1] * (n * k)  # out[v*k + lab]: a vertex the lab-edge from v's class enters
    inn = [-1] * (n * k)
    pending = []
    for u, lab, v in builder.edges:
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
    find, parent = uf.find, uf.parent
    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        keep, gone = (ra, rb) if ra < rb else (rb, ra)
        parent[gone] = keep  # the smaller root survives
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

    # parent[v] <= v, so one ascending pass points every vertex at its root
    for v in range(n):
        parent[v] = parent[parent[v]]

    # a class's edges sit in its root's slots: count their ends there (a loop
    # twice) and trim the spurs; only the roots start alive
    alive = list(map(operator.eq, parent, range(n)))
    slots = [table[lab::k] for table in (out, inn) for lab in range(k)]  # columns: out per label, then inn
    deg = [2 * k - row.count(-1) for row in zip(*slots)]

    def ends(v: int) -> list[int]:
        return [parent[t] for t in out[v * k : v * k + k] + inn[v * k : v * k + k] if t >= 0]

    _peel(deg, alive, ends, parent[builder.base])

    # renumber the surviving classes densely and read their rows off the
    # out-slots; an edge into a dropped class, like an empty slot (index -1),
    # reads None, and each in-row entry is the one out-edge entering it
    kept = list(compress(range(n), alive))
    m = len(kept)
    renum = dict(zip(kept, range(m)))
    ids = [renum.get(r) for r in parent]
    ids.append(None)
    out_cols, in_cols = [], []
    for lab in range(k):
        col = [ids[t] for t in compress(slots[lab], alive)]
        sources = dict(zip(col, range(m)))
        sources.pop(None, None)
        if len(sources) != m - col.count(None):
            raise InternalCheckError("edge set is not folded")
        out_cols.append(col)
        in_cols.append(list(map(sources.get, range(m))))
    return CoreGraph(builder.alphabet, ids[builder.base], tuple(zip(*out_cols)), tuple(zip(*in_cols)))


def from_generators(gens: Iterable[Word], alphabet: Alphabet | None = None) -> CoreGraph:
    """Folded based graph whose closed base paths spell exactly <gens>."""
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
    # the builder and the fold make no reference cycles, only millions of
    # tuples and ints, which would set off the cyclic collector again and again
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        builder = LabeledGraphBuilder(alphabet)
        for g in nonempty:
            builder.add_word_loop(g)
        return fold(builder)
    finally:
        if gc_was_enabled:
            gc.enable()
