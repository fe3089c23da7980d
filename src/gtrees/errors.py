"""Exception taxonomy shared by the library and the CLI exit-code contract,
and the readers that every JSON input goes through."""


class GtreesError(Exception):
    """Base class for all library errors."""


class InputError(GtreesError):
    """Malformed input data (bad JSON, bad word syntax, bad tables). CLI exit 2."""


class PreconditionError(GtreesError):
    """An operation precondition does not hold for the given arguments. CLI exit 3."""


class AlphabetMismatch(PreconditionError):
    """Words over different alphabets were mixed."""


class InternalCheckError(GtreesError):
    """A consistency check that should never fail did fail. CLI exit 4."""


class VerificationMismatch(GtreesError):
    """A computed value contradicts the documented expectation. CLI exit 1."""


# ---------------------------------------------------------------------------
# JSON readers, the one home of the shapes of JSON inputs.  Each takes the
# path of its value, e.g. "group.generator_permutations", and its InputError
# names the offending entry, e.g. "group.generator_permutations[2][5]"; an
# entry's path is built only then.  A JSON integer is an int but not a bool.
# ---------------------------------------------------------------------------

#: deepest list nesting of a label read from JSON; `moves subdivide` nests
#: the labels of the orbit it splits one level deeper per call
MAX_LABEL_DEPTH = 256


def obj(doc, path: str, required, optional=None) -> list:
    """The values of a JSON object's required keys, then of its optional
    ones, given as key: value when absent (`...` tells absent from null)."""
    if not isinstance(doc, dict):
        raise InputError(f"{path or 'input document'} must be a JSON object")
    for key in required:
        if key not in doc:
            raise InputError(f"{path or 'input document'} is missing {key!r}")
    return [doc[key] for key in required] + [doc.get(key, absent) for key, absent in (optional or {}).items()]


def _is_int(x, lo, hi) -> bool:
    return type(x) is int and (lo is None or x >= lo) and (hi is None or x < hi)


def _of_length(length) -> str:
    return "" if length is None else f" of length {length}"


def int_(x, path: str, lo=None, hi=None) -> int:
    """x, a JSON integer in [lo, hi); a bound of None is no bound."""
    if not _is_int(x, lo, hi):
        raise InputError(f"{path} must be an integer" + ("" if hi is None else f" in [{lo}, {hi})"))
    return x


def int_list(x, path: str, lo=None, hi=None, length=None) -> list:
    """x, a JSON list of integers in [lo, hi), of the given length if any."""
    if not isinstance(x, list) or (length is not None and len(x) != length):
        raise InputError(f"{path} must be a list{_of_length(length)} of integers")
    for i, v in enumerate(x):
        if not _is_int(v, lo, hi):
            int_(v, f"{path}[{i}]", lo, hi)
    return x


def int_rows(x, path: str, n_rows=None, row_len=None) -> list:
    """x, a JSON list of n_rows lists of row_len integers; a count of None is any count."""
    if not isinstance(x, list) or (n_rows is not None and len(x) != n_rows):
        raise InputError(f"{path} must be a list{_of_length(n_rows)} of integer lists")
    for i, row in enumerate(x):
        ok = isinstance(row, list) and (row_len is None or len(row) == row_len) and all(type(v) is int for v in row)
        if not ok:
            int_list(row, f"{path}[{i}]", length=row_len)  # raises, naming the row or its entry
    return x


def label_list(x, path: str):
    """A G-set's points: (count, None) for a count, (count, labels) for a list
    of distinct labels: numbers, strings, null or lists of labels nested at
    most MAX_LABEL_DEPTH deep, read back with their lists as tuples."""
    if type(x) is int and x >= 0:
        return x, None
    if not isinstance(x, list):
        raise InputError(f"{path} must be a count or a list of labels")
    out = [_label(y, path, i) for i, y in enumerate(x)]
    first: dict = {}
    for j, y in enumerate(out):
        i = first.setdefault(y, j)
        if i != j:
            raise InputError(f"{path}[{j}] repeats the label of {path}[{i}]")
    return len(out), out


def _label(x, path: str, i: int):
    # depth first without recursion: one (entries left, entries read) per open list
    open_lists = [(iter((x,)), [])]
    while True:
        entries, read = open_lists[-1]
        for y in entries:
            if isinstance(y, dict) or (isinstance(y, list) and len(open_lists) > MAX_LABEL_DEPTH):
                raise InputError(f"{path}[{i}] must be a number, string or list of them, at most {MAX_LABEL_DEPTH} deep")
            if isinstance(y, list):
                open_lists.append((iter(y), []))
                break
            read.append(y)
        else:
            open_lists.pop()
            if not open_lists:
                return read[0]
            open_lists[-1][1].append(tuple(read))
