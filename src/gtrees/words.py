"""Free-group word arithmetic over a fixed finite alphabet.

A word is stored as its freely reduced *syllables*: pairs (generator index,
exponent) with a nonzero integer exponent of any size and different
generators in adjacent syllables.  That form is unique, so equality and
hashing compare syllables, and x^{2^n} y^{2^n} x^{2^n} takes three syllables
at every n.  Every constructor and operation returns the reduced form, so
downstream code may assume it.

`Word(alphabet, letters)` builds a word from (generator index, ±1) letters
in one linear pass, and `w.letters` is the letter view, derived from the
syllables on first access and cached; code that must stay cheap on long
words reads `w.syllables` instead.  All values are immutable.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._frozen import Frozen
from .errors import AlphabetMismatch, InputError

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Syllable = tuple[int, int]  # (generator index, nonzero exponent)

_FORBIDDEN_IN_NAMES = set("^-,*() \t\n") | set("0123456789")


class Alphabet(Frozen):
    """Generator names of a free group."""

    _fields = ("names",)
    __slots__ = _fields

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(names) < 1:
            raise InputError("an alphabet needs at least one generator")
        if len(set(names)) != len(names):
            raise InputError("generator names must be pairwise distinct")
        for nm in names:
            if not nm or any(c in _FORBIDDEN_IN_NAMES for c in nm):
                raise InputError(f"unusable generator name: {nm!r}")
        super().__init__(names)

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None


#: default rank-2 alphabet used by `power_word` and most fixtures
XY = Alphabet.of("x", "y")


def _push(out: list[Syllable], gen: int, exp: int) -> None:
    """Append gen^exp to a reduced syllable list, reducing at the junction."""
    if out and out[-1][0] == gen:
        exp += out[-1][1]
        if exp:
            out[-1] = (gen, exp)
        else:
            out.pop()
    elif exp:
        out.append((gen, exp))


class Word:
    """A freely reduced word, stored as syllables (generator index, exponent)."""

    __slots__ = ("alphabet", "syllables", "_letters", "_len", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        out: list[Syllable] = []
        for idx, sg in letters:
            if sg not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {sg}")
            _push(out, idx, sg)
        size = alphabet.size
        for idx, _ in out:
            if not 0 <= idx < size:
                raise InputError(f"letter index {idx} out of range")
        self.alphabet = alphabet
        self.syllables = tuple(out)
        self._letters = None
        self._len = None
        self._hash = None

    @classmethod
    def _of(cls, alphabet: Alphabet, syllables: tuple[Syllable, ...]) -> "Word":
        """A word from syllables the caller guarantees to be reduced."""
        w = cls.__new__(cls)
        w.alphabet = alphabet
        w.syllables = syllables
        w._letters = None
        w._len = None
        w._hash = None
        return w

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls._of(alphabet, ())

    @classmethod
    def gen(cls, alphabet: Alphabet, index: int, sign: int = 1) -> "Word":
        return cls(alphabet, [(index, sign)])

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The word letter by letter; |w| pairs, so only for short words."""
        if self._letters is None:
            out: list[Letter] = []
            for idx, exp in self.syllables:
                out += [(idx, 1)] * exp if exp > 0 else [(idx, -1)] * -exp
            self._letters = tuple(out)
        return self._letters

    def length(self) -> int:
        """Number of letters; unlike len(), also beyond sys.maxsize."""
        if self._len is None:
            self._len = sum([abs(exp) for _, exp in self.syllables])
        return self._len

    def is_identity(self) -> bool:
        return not self.syllables

    def is_cyclically_reduced(self) -> bool:
        syl = self.syllables
        if len(syl) < 2:
            return True
        (i0, e0), (i1, e1) = syl[0], syl[-1]
        return not (i0 == i1 and (e0 > 0) != (e1 > 0))

    def __len__(self) -> int:
        return self.length()

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return Word._of(self.alphabet, tuple([(i, -e) for i, e in reversed(self.syllables)]))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        out = Word.identity(self.alphabet)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.alphabet == other.alphabet and self.syllables == other.syllables

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet, self.syllables))
        return self._hash

    def __repr__(self) -> str:
        return format_word(self)


def _require_same_alphabet(a: Word, b: Word) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"words over different alphabets: {a.alphabet.names} vs {b.alphabet.names}"
        )


def multiply(a: Word, b: Word) -> Word:
    """Freely reduced concatenation."""
    _require_same_alphabet(a, b)
    # only the junction can cancel since both factors are reduced
    sa, sb = a.syllables, b.syllables
    i, j = len(sa), 0
    length = a.length() + b.length()
    while i and j < len(sb) and sa[i - 1][0] == sb[j][0]:
        ea, eb = sa[i - 1][1], sb[j][1]
        if ea + eb == 0:
            length -= 2 * abs(ea)
            i -= 1
            j += 1
            continue
        if (ea > 0) != (eb > 0):
            length -= 2 * min(abs(ea), abs(eb))
        w = Word._of(a.alphabet, sa[: i - 1] + ((sb[j][0], ea + eb),) + sb[j + 1 :])
        w._len = length
        return w
    w = Word._of(a.alphabet, sa[:i] + sb[j:])
    w._len = length
    return w


def conjugate(w: Word, g: Word) -> Word:
    """Reduced form of g^-1 w g."""
    _require_same_alphabet(w, g)
    return multiply(multiply(~g, w), g)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Strip matching "l ... l^-1" outer pairs.

    Returns (core, conjugator) with core cyclically reduced and
    w == conjugate(core, conjugator).
    """
    syl = w.syllables
    i, j = 0, len(syl)
    while j - i >= 2 and syl[i][0] == syl[j - 1][0] and syl[i][1] == -syl[j - 1][1]:
        i += 1
        j -= 1
    prefix, core = syl[:i], syl[i:j]
    if len(core) >= 2 and core[0][0] == core[-1][0] and (core[0][1] > 0) != (core[-1][1] > 0):
        # the outer syllables cancel in part: strip the shorter one and as
        # much of the longer one, which leaves the core cyclically reduced
        (gen, e0), (_, e1) = core[0], core[-1]
        if abs(e0) < abs(e1):
            prefix += ((gen, e0),)
            core = core[1:-1] + ((gen, e1 + e0),)
        else:
            prefix += ((gen, -e1),)
            core = ((gen, e0 + e1),) + core[1:-1]
    return Word._of(w.alphabet, core), ~Word._of(w.alphabet, prefix)


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Extend a generator assignment to a homomorphism and apply it to w.

    A syllable whose image is one syllable (h, f) becomes (h, e*f) in one
    step.  Any other image v enters through its cyclic reduction
    v = c^-1 u c as c^-1 u^e c, so only the core u is repeated.
    """
    for nm in w.alphabet.names:
        if nm not in images:
            raise InputError(f"missing image for generator {nm!r}")
    vals = [images[nm] for nm in w.alphabet.names]
    target = vals[0].alphabet
    for v in vals[1:]:
        if v.alphabet != target:
            raise AlphabetMismatch("substitution images live over different alphabets")
    split: dict[int, tuple] = {}
    out: list[Syllable] = []
    for idx, exp in w.syllables:
        img = vals[idx].syllables
        if len(img) == 1:
            _push(out, img[0][0], img[0][1] * exp)
            continue
        if idx not in split:
            core, conj = cyclic_reduce(vals[idx])
            split[idx] = ((~conj).syllables, core.syllables, conj.syllables)
        head, core, tail = split[idx]
        for gen, e in head:
            _push(out, gen, e)
        if len(core) == 1:
            _push(out, core[0][0], core[0][1] * exp)
        elif core:
            run = core if exp > 0 else tuple([(gen, -e) for gen, e in reversed(core)])
            for _ in range(abs(exp)):
                for gen, e in run:
                    _push(out, gen, e)
        for gen, e in tail:
            _push(out, gen, e)
    return Word._of(target, tuple(out))


def power_word(n: int, alphabet: Alphabet = XY) -> Word:
    """The word a^b b'^b a^b over the first two generators, with b = 2^n."""
    if alphabet.size < 2:
        raise InputError("power_word needs an alphabet with at least two generators")
    if n < 0:
        raise InputError("power_word takes a natural argument")
    b = 2**n
    return Word._of(alphabet, ((0, b), (1, b), (0, b)))


# ---------------------------------------------------------------------------
# text syntax: generators by name, inverses as name^-1 (or uppercase variant),
# powers as name^k; parse(format(w)) == w exactly.
# ---------------------------------------------------------------------------


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse a word; an uppercase name is an inverse iff no name is uppercase."""
    upper_inverse = all(nm == nm.lower() for nm in alphabet.names)
    by_len = sorted(range(alphabet.size), key=lambda i: -len(alphabet.names[i]))
    out: list[Syllable] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t*":
            pos += 1
            continue
        if ch == "1":  # identity token, as printed by format_word
            pos += 1
            continue
        idx = sign = None
        for i in by_len:
            nm = alphabet.names[i]
            if text.startswith(nm, pos):
                idx, sign, pos = i, 1, pos + len(nm)
                break
            if upper_inverse and text.startswith(nm.upper(), pos) and nm != nm.upper():
                idx, sign, pos = i, -1, pos + len(nm)
                break
        if idx is None:
            raise InputError(f"cannot read a generator at position {pos} of {text!r}")
        exp = 1
        if pos < n and text[pos] == "^":
            pos += 1
            m = pos
            if pos < n and text[pos] == "-":
                pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            try:
                exp = int(text[m:pos])
            except ValueError:
                raise InputError(f"bad exponent at position {m} of {text!r}") from None
        _push(out, idx, sign * exp)
    return Word._of(alphabet, tuple(out))


def format_word(w: Word) -> str:
    """Canonical text form; round-trips exactly through parse_word."""
    if w.is_identity():
        return "1"
    names = w.alphabet.names
    return "".join([names[idx] if exp == 1 else f"{names[idx]}^{exp}" for idx, exp in w.syllables])


def parse_generators(alphabet: Alphabet, text: str) -> list[Word]:
    """Parse a comma-separated list of words (subgroup generators)."""
    items = [part.strip() for part in text.split(",")]
    return [parse_word(alphabet, part) for part in items if part]
