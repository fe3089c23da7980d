"""Core graphs (Stallings automata) for finitely generated subgroups of free
groups.

A based, folded, letter-labeled digraph represents a subgroup H: the freely
reduced words readable along closed paths at the base vertex are exactly the
elements of H.  The *core* is the subgraph carrying every cyclically reduced
closed path; the based graph may additionally carry a simple tail from the
base into the core.

`from_generators` folds by reading: it reads each generator from the base
along the graph folded so far and adds only the rest that graph cannot
spell, as a path of fresh vertices.  `fold` folds any `LabeledGraphBuilder`
and trims its spurs.  Both keep one out-slot and one in-slot per label and
vertex, identify vertices through one worklist (`_merge`) and hand the slots
to one tail (`_core_graph`), which numbers the classes and reads each
label's out- and in-column off them, so on the same loops they give the
same columns.  A `CoreGraph` keeps those columns: one tuple per label and
side, indexed by vertex.
"""

from __future__ import annotations

import gc
import operator
from collections import deque
from itertools import accumulate, compress, repeat
from typing import Iterable, Iterator, Optional

from .errors import AlphabetMismatch, InputError, InternalCheckError, PreconditionError
from .unionfind import UnionFind
from .words import Alphabet, Word, format_word

#: most letters `from_generators` folds: it may add a vertex per letter, and
#: a short exponent such as x^(10^12) asks for more than fits in memory
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

    The edges are kept as columns, one tuple per label and side, each with
    an entry per vertex: `out[lab][v]` and `inn[lab][v]`.  The graph is
    spur-trimmed except for the base's tail: no vertex off that simple path
    has degree at most one.  `fold` trims its graphs so, `from_generators`
    makes no spurs, and `canonical_form`, which only renumbers, keeps it.
    """

    __slots__ = ("alphabet", "n_vertices", "base", "out", "inn", "_core", "_runs")

    def __init__(
        self,
        alphabet: Alphabet,
        base: int,
        out: tuple[tuple[Optional[int], ...], ...],
        inn: tuple[tuple[Optional[int], ...], ...],
    ):
        """`out[lab][v]` is the far end of the lab-edge leaving v and
        `inn[lab][v]` that of the lab-edge entering it, None when there is
        none; the two tables describe the same folded edge set."""
        self.alphabet = alphabet
        self.n_vertices = len(out[0])
        self.base = base
        self.out = out
        self.inn = inn
        self._core: Optional[frozenset[int]] = None
        self._runs: list[Optional[list]] = [None] * alphabet.size

    # -- structure ---------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u in range(self.n_vertices):
            for lab, col in enumerate(self.out):
                v = col[u]
                if v is not None:
                    yield (u, lab, v)

    @property
    def n_edges(self) -> int:
        return sum(self.n_vertices - col.count(None) for col in self.out)

    def degree(self, v: int) -> int:
        return sum(col[v] is not None for col in self.out + self.inn)

    def core_vertices(self) -> frozenset[int]:
        """Vertices on some cyclically reduced closed path.

        The graph is trimmed but for the base's tail, so this is every vertex
        off that tail, or the base alone when the tail is every vertex (no
        edges).  The tail is walked from the base: each of its vertices has
        at most one edge end besides the one it was entered by.
        """
        if self._core is None:
            cols = self.out + self.inn
            tail = []
            prev, v = None, self.base
            while True:
                nbrs = [col[v] for col in cols if col[v] is not None]
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
        out, inn = self.out[lab], self.inn[lab]
        seq = []  # the vertices before v, nearest first
        u = inn[v]
        while u is not None and u != v:
            seq.append(u)
            u = inn[u]
        seq.reverse()
        seq.append(v)
        cyclic = u is not None
        if cyclic:
            i = seq.index(min(seq))
            seq = seq[i:] + seq[:i]
        else:
            u = out[v]
            while u is not None:
                seq.append(u)
                u = out[u]
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
        letter; the first read that enters a run also splits it, and a read
        whose first letter has no edge at the current vertex splits none.
        """
        out, inn, runs = self.out, self.inn, self._runs
        cur = start
        for idx, exp in w.syllables:
            if exp == 1:
                cur = out[idx][cur]
            elif exp == -1:
                cur = inn[idx][cur]
            else:
                place = runs[idx]
                entry = place[cur] if place else None
                if entry is None:
                    if (out if exp > 0 else inn)[idx][cur] is None:
                        return None
                    entry = self._run_through(idx, cur)
                run, i, cyclic = entry
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
        labels = list(enumerate(zip(self.out, self.inn)))
        while queue:
            v = queue.popleft()
            for lab, (out, inn) in labels:
                for nxt, sg in ((out[v], 1), (inn[v], -1)):
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
        pos = dict(zip(order, range(self.n_vertices)))
        pos[None] = None

        def relabel(cols):
            return tuple(tuple(map(pos.__getitem__, map(col.__getitem__, order))) for col in cols)

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


def _peel(alive: list[bool], parent: list[int], slots: list[list[int]], keep: int) -> None:
    """Drop the spurs of merged slots, in place: repeatedly the alive
    classes with at most one edge end (a loop counts twice), other than
    keep's, clearing the slot that leads into each dropped class.

    `parent` points every vertex at its class's root and `alive` marks the
    roots.  A degree-1 queue visits each dropped class once, and the
    survivors do not depend on the order of removal.
    """
    k = len(slots) // 2
    deg = [2 * k - row.count(-1) for row in zip(*slots)]
    queue = [v for v in compress(range(len(deg)), alive) if deg[v] <= 1 and v != keep]
    while queue:
        v = queue.pop()
        alive[v] = False
        for c, col in enumerate(slots):
            if col[v] >= 0:
                # the far class's slot of the same label and the other side
                w = parent[col[v]]
                slots[c - k][w] = -1
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1 and w != keep:
                        queue.append(w)


def _merge(uf: UnionFind, slots: list[list[int]], pending: list[tuple[int, int]]) -> None:
    """Identify the vertex pairs on the worklist and every pair they force.

    For a label lab < k, `slots[lab][v]` holds a vertex of the class that
    the lab-edge from v's class enters, or -1, and `slots[k + lab][v]`
    likewise for the entering edge; a class keeps its edges in its root's
    slots.  Merging two classes moves the absorbed class's slots into the
    survivor, the smaller root, and queues one pair per slot both fill, so
    each merge costs O(k).
    """
    find, parent = uf.find, uf.parent
    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        keep, gone = (ra, rb) if ra < rb else (rb, ra)
        parent[gone] = keep
        for col in slots:
            t = col[gone]
            if t >= 0:
                s = col[keep]
                if s < 0:
                    col[keep] = t
                elif s != t:
                    pending.append((s, t))


def _roots(parent: list[int]) -> list[bool]:
    """Point every vertex at its class's root, in place, and mark the roots.

    Each root is its class's least vertex, so parent[v] < v off the roots,
    and one ascending pass suffices.
    """
    roots = list(map(operator.eq, parent, range(len(parent))))
    for v in compress(range(len(parent)), map(operator.not_, roots)):
        parent[v] = parent[parent[v]]
    return roots


def _core_graph(alphabet: Alphabet, base: int, parent: list[int], slots: list[list[int]], alive: list[bool]) -> CoreGraph:
    """The CoreGraph of merged slots: number the kept classes in order of
    their roots and read each label's out- and in-column off the roots'
    slots.  `parent` points every vertex at its class's root (`_roots`),
    `alive` marks the kept roots, and no kept root's slot leads into a class
    that is not kept.  Both `parent` and `slots` are emptied as the columns
    are read.

    An empty slot (index -1) reads None.  Each in-column must invert its
    out-column; otherwise the slots were not folded.
    """
    k = alphabet.size
    # ids[v] is the number of v's class, the count of kept roots before its
    # root, and ids[-1] (an empty slot) is None
    num = list(accumulate(alive, initial=0))
    ids = list(map(num.__getitem__, parent))
    ids.append(None)
    del num
    parent.clear()
    # free each slot column as soon as its tuple is read off it
    slots.reverse()
    cols = [tuple(map(ids.__getitem__, compress(slots.pop(), alive))) for _ in range(2 * k)]
    out, inn = tuple(cols[:k]), tuple(cols[k:])
    for oc, ic in zip(out, inn):
        back = [ic[j] for j in oc if j is not None]
        if back != [i for i, j in enumerate(oc) if j is not None] or len(back) != len(ic) - ic.count(None):
            raise InternalCheckError("edge set is not folded")
    return CoreGraph(alphabet, ids[base], out, inn)


def fold(builder: LabeledGraphBuilder) -> CoreGraph:
    """Fold a based labeled graph.

    Identifies exactly the vertex pairs forced by label-determinism; the
    language of closed base paths is unchanged.  Every vertex class keeps
    one out-slot and one in-slot per label.  Placing the builder's edges in
    the slots seeds a worklist with one pair per edge that finds its slot
    taken, and `_merge` identifies them and every pair they force, so
    folding is near-linear in the number of edges.  The spurs are peeled off
    the classes' slots (`_peel`), and the surviving classes' slots give the
    CoreGraph columns directly.  The folded partition is unique, and classes
    are numbered by their smallest vertex, so the result does not depend on
    the order of the builder's edges.
    """
    k = builder.alphabet.size
    n = builder.n_vertices
    slots = [[-1] * n for _ in range(2 * k)]
    pending = []
    for u, lab, v in builder.edges:
        col = slots[lab]
        if col[u] < 0:
            col[u] = v
        elif col[u] != v:
            pending.append((col[u], v))
        col = slots[k + lab]
        if col[v] < 0:
            col[v] = u
        elif col[v] != u:
            pending.append((col[v], u))
    uf = UnionFind(n)
    _merge(uf, slots, pending)
    parent = uf.parent
    alive = _roots(parent)
    _peel(alive, parent, slots, parent[builder.base])
    return _core_graph(builder.alphabet, builder.base, parent, slots, alive)


def _read_prefix(syllables: tuple, uf: UnionFind, slots: list[list[int]], k: int) -> tuple[int, int, tuple]:
    """Read a word from the base (vertex 0) along folded slots, as far as
    they spell it: (the root reached, the letters read, the syllables of the
    unread rest)."""
    find = uf.find
    cur = read = 0
    for s, (idx, exp) in enumerate(syllables):
        col = slots[idx] if exp > 0 else slots[k + idx]
        for r in range(abs(exp)):
            t = col[cur]
            if t < 0:
                left = exp - r if exp > 0 else exp + r
                return cur, read + r, ((idx, left),) + syllables[s + 1 :]
            cur = find(t)
        read += abs(exp)
    return cur, read, ()


def from_generators(gens: Iterable[Word], alphabet: Alphabet | None = None) -> CoreGraph:
    """Folded based graph whose closed base paths spell exactly <gens>.

    The words are read in one at a time, and the graph is folded after
    each.  A word is read from the base as far as the folded graph already
    spells it; only the rest is added, as a path of fresh vertices back to
    the base.  The slot where reading stopped is empty and the inner
    vertices are new, so only the base's slot of the last edge can already
    be taken, or, when the whole word was read, its end is a second vertex
    for the base; that one pair goes to `_merge`.  Fresh vertices are
    numbered in creation order: the order in which
    `LabeledGraphBuilder.add_word_loop` numbers the words' letters, with the
    read letters left out, and each read letter lands on an older vertex.
    So numbering the classes by their least vertex gives exactly the
    CoreGraph that `fold` makes of those loops.  A reduced word read in a
    folded graph never backtracks, so every vertex but the base keeps two
    edge ends and there is no spur to trim.
    """
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
    # the fold makes no reference cycles, only millions of ints, which would
    # set off the cyclic collector again and again
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        k = alphabet.size
        # room for a vertex per letter and for the vertex m below; the
        # columns are cut to the vertices made at the end
        slots = [[-1] * (letters + 1) for _ in range(2 * k)]
        uf = UnionFind(1)
        parent = uf.parent
        for g in nonempty:
            cur, read, rest = _read_prefix(g.syllables, uf, slots, k)
            if not rest:
                if cur:
                    _merge(uf, slots, [(cur, 0)])
                continue
            # the rest is the path cur, n, n+1, ..., m-1, 0; it is written
            # as if the last edge entered a vertex m, and then re-aimed
            n = len(parent)
            m = n + g.length() - read - 1
            parent.extend(range(n, m))
            u, v = cur, n  # the vertex the next edge leaves, and the next fresh one
            for idx, exp in rest:
                if exp > 0:
                    fwd, bwd = slots[idx], slots[k + idx]
                else:
                    fwd, bwd = slots[k + idx], slots[idx]
                fwd[u] = v
                bwd[v] = u
                if exp > 1 or exp < -1:
                    e = abs(exp)
                    fwd[v : v + e - 1] = range(v + 1, v + e)
                    bwd[v + 1 : v + e] = range(v, v + e - 1)
                    v += e - 1
                u = v
                v += 1
            # the last edge enters the base, whose slot may be taken; of m's
            # slots only this in-slot was written
            bwd[m] = -1
            src = m - 1 if m > n else cur
            fwd[src] = 0
            t = bwd[0]
            if t < 0:
                bwd[0] = src
            else:
                _merge(uf, slots, [(t, src)])
        for col in slots:
            del col[len(parent) :]
        return _core_graph(alphabet, 0, parent, slots, _roots(parent))
    finally:
        if gc_was_enabled:
            gc.enable()
