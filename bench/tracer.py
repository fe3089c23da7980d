"""Span tracer that measures the layers of gtrees from outside.

`Tracer.install()` replaces the public functions and methods listed in
`SPANS` with wrappers that record one span per call.  A function is patched
in every gtrees module namespace that holds it, because callers look names
up in their own module (`retract` calls `gtrees.retract.slide`, `verify_really`
calls `gtrees.counterexample.substitute`); methods are patched on their
class.  `Tracer.uninstall()` puts the originals back.  No source file is
changed.

Per span name the tracer keeps the call count and the self time: the span's
duration minus the time covered by its child spans.  Work counters (letters
in, vertices folded, paths returned, moves by kind) are kept at the same
boundaries.  Span records stay in memory and are written out by `dump_spans`
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" attributes patch the class
SPANS = (
    ("words.substitute", "gtrees.words", "substitute"),
    ("words.power_word", "gtrees.words", "power_word"),
    ("words.multiply", "gtrees.words", "multiply"),
    ("words.parse_word", "gtrees.words", "parse_word"),
    ("words.Word.init", "gtrees.words", "Word.__init__"),
    ("stallings.from_generators", "gtrees.stallings", "from_generators"),
    ("stallings.fold", "gtrees.stallings", "fold"),
    ("stallings.contains", "gtrees.stallings", "CoreGraph.contains"),
    ("stallings.closed_path_vertices", "gtrees.stallings", "CoreGraph.closed_path_vertices"),
    ("stallings.read", "gtrees.stallings", "CoreGraph.read"),
    ("stallings.canonical_key", "gtrees.stallings", "CoreGraph.canonical_key"),
    ("gaction.GSet.orbit", "gtrees.gaction", "GSet.orbit"),
    ("gaction.GSet.stabilizer", "gtrees.gaction", "GSet.stabilizer"),
    ("gaction.retraction_map", "gtrees.gaction", "retraction_map"),
    ("gaction.is_conjugate_incomparable", "gtrees.gaction", "is_conjugate_incomparable"),
    ("gaction.FiniteGroup.from_generator_permutations", "gtrees.gaction", "FiniteGroup.from_generator_permutations"),
    ("ggraph.validate", "gtrees.ggraph", "validate"),
    ("ggraph.adjacency", "gtrees.ggraph", "GGraph.adjacency"),
    ("ggraph.geodesic", "gtrees.ggraph", "geodesic"),
    ("ggraph.slide", "gtrees.ggraph", "slide"),
    ("ggraph.reorient", "gtrees.ggraph", "reorient"),
    ("ggraph.compress", "gtrees.ggraph", "compress"),
    ("ggraph.state_digest", "gtrees.ggraph", "GGraph.state_digest"),
    ("retract.retract_tree", "gtrees.retract", "retract_tree"),
    ("retract.build_filtration", "gtrees.retract", "build_filtration"),
    ("retract.check_filtration", "gtrees.retract", "check_filtration"),
    ("retract.paths_P", "gtrees.retract", "paths_P"),
    ("retract.problematic", "gtrees.retract", "problematic"),
    ("retract.eliminate_problematic", "gtrees.retract", "eliminate_problematic"),
    ("retract.compress_to_U", "gtrees.retract", "compress_to_U"),
    ("counterexample.verify_schreier", "gtrees.counterexample", "verify_schreier"),
    ("counterexample.verify_really", "gtrees.counterexample", "verify_really"),
    ("counterexample.verify_stabilizer_inclusions", "gtrees.counterexample", "verify_stabilizer_inclusions"),
    ("counterexample.fixed_point_profile", "gtrees.counterexample", "fixed_point_profile"),
    ("counterexample.derive_phi", "gtrees.counterexample", "derive_phi"),
    ("counterexample.express_in_generators", "gtrees.counterexample", "express_in_generators"),
    ("almost.check_derivation", "gtrees.almost", "check_derivation"),
    ("almost.untwist", "gtrees.almost", "untwist"),
    ("cli.main", "gtrees.cli", "main"),
)

# work counters reported next to the spans
COUNTERS = (
    "words.Word.init.letters_in",
    "words.substitute.letters_out",
    "stallings.fold.vertices_in",
    "stallings.fold.vertices_out",
    "stallings.closed_path_vertices.letters_read",
    "retract.paths_P.paths_returned",
    "retract.moves.slide",
    "retract.moves.reorient",
    "retract.moves.compress",
    "retract.problematic.found",
)

# span records kept for the spans file; counting goes on past the cap
MAX_SPAN_RECORDS = 100_000


def _count_substitute(tr, args, out):
    tr.counts["words.substitute.letters_out"] += len(out.letters)


def _count_fold(tr, args, out):
    tr.counts["stallings.fold.vertices_in"] += args[0].n_vertices
    tr.counts["stallings.fold.vertices_out"] += out.n_vertices


def _count_census(tr, args, out):
    core, word = args[0], args[1]
    tr.counts["stallings.closed_path_vertices.letters_read"] += len(word.letters) * len(core.core_vertices())


def _count_paths(tr, args, out):
    tr.counts["retract.paths_P.paths_returned"] += len(out)


def _count_problematic(tr, args, out):
    if out[1]:
        tr.counts["retract.problematic.found"] += 1


def _count_moves(tr, args, out):
    for m in out.move_log:
        tr.counts["retract.moves." + m.kind] += 1


AFTER = {
    "words.substitute": _count_substitute,
    "stallings.fold": _count_fold,
    "stallings.closed_path_vertices": _count_census,
    "retract.paths_P": _count_paths,
    "retract.problematic": _count_problematic,
    "retract.retract_tree": _count_moves,
}


class Tracer:
    """Span recorder; `enabled` gates recording while the wrappers are installed."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1  # identifier shared by the spans of one operation
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # time covered by spans that have no parent span
        self.records: list[list] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            if len(tracer.records) < MAX_SPAN_RECORDS:
                idx = len(tracer.records)
                tracer.records.append([tracer.op, name, 0.0, 0.0, parent])
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_s += dur
                if idx >= 0:
                    rec = tracer.records[idx]
                    rec[2], rec[3] = t0, t1
            if after is not None:
                after(tracer, args, out)
            return out

        return span

    def _word_init(self, orig):
        tracer = self

        def init(self, alphabet, letters=()):
            if tracer.enabled:
                if not isinstance(letters, (list, tuple)):
                    letters = tuple(letters)
                tracer.counts["words.Word.init.letters_in"] += len(letters)
            orig(self, alphabet, letters)

        return init

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in SPANS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, AFTER.get(name)))
                elif meth == "__init__":
                    new = self.wrap(name, self._word_init(raw))
                else:
                    new = self.wrap(name, raw, AFTER.get(name))
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self.wrap(name, orig, AFTER.get(name))
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("gtrees") and m.__dict__.get(attr) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Calls, self time and work counts, as one flat mapping."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    def dump_spans(self, path) -> None:
        """Write the span records as CSV: op, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for op, name, t0, t1, parent in self.records:
                fh.write(f"{op},{name},{t0:.9f},{t1:.9f},{parent}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans counted but not recorded\n")
