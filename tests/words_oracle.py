"""Letter-by-letter free-group words, kept as the reference for the syllable
words of `gtrees.words` and the syllable reads of `gtrees.stallings`.

A `LetterWord` stores its letters (generator index, ±1) as a reduced tuple and
does every operation one letter at a time, as the library did before words
became syllables.  Tests compare the two on random inputs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from gtrees.stallings import CoreGraph
from gtrees.words import Alphabet, Word

Letter = tuple[int, int]


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for idx, sg in letters:
        if sg not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sg}")
        if out and out[-1][0] == idx and out[-1][1] == -sg:
            out.pop()
        else:
            out.append((idx, sg))
    return tuple(out)


class LetterWord:
    """A freely reduced word kept as a tuple of letters."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        self.alphabet = alphabet
        self.letters = _reduce(letters)

    @classmethod
    def of(cls, w: Word) -> "LetterWord":
        return cls(w.alphabet, w.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "LetterWord") -> "LetterWord":
        return LetterWord(self.alphabet, self.letters + other.letters)

    def __invert__(self) -> "LetterWord":
        return LetterWord(self.alphabet, [(i, -s) for i, s in reversed(self.letters)])

    def __pow__(self, n: int) -> "LetterWord":
        if n < 0:
            return (~self) ** (-n)
        return LetterWord(self.alphabet, self.letters * n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LetterWord):
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def is_cyclically_reduced(self) -> bool:
        if len(self.letters) < 2:
            return True
        (i0, s0), (i1, s1) = self.letters[0], self.letters[-1]
        return not (i0 == i1 and s0 == -s1)


def cyclic_reduce(w: LetterWord) -> tuple[LetterWord, LetterWord]:
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] and letters[i][1] == -letters[j - 1][1]:
        i += 1
        j -= 1
    return LetterWord(w.alphabet, letters[i:j]), ~LetterWord(w.alphabet, letters[:i])


def substitute(w: LetterWord, images: Mapping[str, LetterWord]) -> LetterWord:
    vals = [images[nm] for nm in w.alphabet.names]
    out: list[Letter] = []
    for idx, sg in w.letters:
        img = vals[idx].letters if sg > 0 else (~vals[idx]).letters
        for lt in img:
            if out and out[-1][0] == lt[0] and out[-1][1] == -lt[1]:
                out.pop()
            else:
                out.append(lt)
    return LetterWord(vals[0].alphabet, out)


def format_letters(w: LetterWord) -> str:
    """The text form, one run of equal letters at a time."""
    if not w.letters:
        return "1"
    parts = []
    run_idx, run_sign, run_len = None, 0, 0
    for idx, sg in list(w.letters) + [(-1, 0)]:
        if idx == run_idx and sg == run_sign:
            run_len += 1
            continue
        if run_idx is not None and run_idx >= 0:
            k = run_sign * run_len
            nm = w.alphabet.names[run_idx]
            parts.append(nm if k == 1 else f"{nm}^{k}")
        run_idx, run_sign, run_len = idx, sg, 1
    return "".join(parts)


def read(core: CoreGraph, w: LetterWord, start: int) -> Optional[int]:
    """Walk w from a vertex one edge per letter; None when the walk leaves the graph."""
    cur = start
    for idx, sg in w.letters:
        cur = core.out[idx][cur] if sg > 0 else core.inn[idx][cur]
        if cur is None:
            return None
    return cur


def closed_path_vertices(core: CoreGraph, w: LetterWord) -> frozenset[int]:
    return frozenset(v for v in core.core_vertices() if read(core, w, v) == v)
