"""Seeded benchmark for gtrees.

    python3 bench/run.py --workload retract|verify|fold|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports `gtrees` from `src`
and the instance generator from `tests/instgen.py`.  Each workload builds a
fixed, seeded list of operations and replays it in passes from one process
and one caller (a closed loop), until the next pass would overrun `--seconds`.
Every operation's output is checked; an operation that raises or fails its
check counts as failed.

`--trace 0` prints the end-to-end metrics: set-up time (median of several
set-ups), wall time of one pass (median over passes), the median and 90th
percentile operation latency (over all passes pooled) and peak memory.
Times are calibrated against a reference loop timed every few milliseconds
(see REFERENCE_TICK_S); the raw times are in the details.
`--trace 1` first runs untraced passes, then traced passes with every layer
of `src/gtrees` wrapped in spans (see tracer.py), and prints the per-layer
metrics: per-pass calls and self time of each span, work counters, scaling
curves and slopes, the tracing overhead and the share of the wall time the
spans cover.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's details (environment, output digest, sample counts).  Both are
also written to `.bench_out/`.  README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

from hostclock import Ticker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5

# String hashing seed of the benchmark process and of every command it starts.
# The order in which gtrees visits string-keyed sets and dicts follows it, and
# with it the time: one retract seed took 4.08-4.78 s per pass over three
# random hashing seeds and 4.45-4.54 s over three runs with this one
HASH_SEED = "0"

# Host-speed calibration.  On a shared 2-core VM the same pure-Python loop
# switched between two speeds, about 1.7x apart, every 0.1 s to several
# seconds, with CPU time equal to wall time, so medians within a run cannot
# remove it and a probe at each end of an operation misses the switches in
# between.  So while a run measures, a timer signal every few milliseconds
# runs a fixed reference loop that does not touch gtrees (a tick, see
# hostclock.py) and records how long it took; each command of the cli
# workload ticks in its own process.  An interval's time, less the ticks
# inside it, is multiplied by the mean over the ticks within TICK_PAD_S of
# it of REFERENCE_TICK_S / tick time: the host's speed in that stretch
# relative to a host where a tick takes REFERENCE_TICK_S (about the fast
# state of that VM, a Xeon with Python 3.11).  Reported times are seconds on
# such a host; the raw times go to the details.
REFERENCE_TICK_S = 7e-5
TICK_PAD_S = 0.05
EDGE_TICKS = 10
TRACED_SHARE = 0.6  # share of --seconds given to traced passes in a traced run
CLI_TIMEOUT_S = 120

# retract: instgen bands (name, max_vertices, replicates).  instgen draws the
# vertex count uniformly from 2..max_vertices; a band with k replicate counts
# takes that many instances at each of k evenly spaced quantiles of that
# range, so every seed has the same size mix and differs only in the trees,
# groups and retracts.  Retract time grows about with the cube of the size,
# so the operations fall into groups of one size, and the mix puts each
# latency quantile inside a large group, where one unusually slow or fast
# tree moves it little: the median among the forty 28-vertex trees of band
# S, the 90th percentile among the twenty 67-vertex trees of band M (the
# slowest after the seven 120-vertex trees of band L).  Trees of one size
# differ in cost by 10-15%, so the groups have to be this large for the
# quantiles to hold from seed to seed.
RETRACT_BANDS = (("S", 40, (12, 12, 12, 12, 12, 40, 12, 12)), ("M", 80, (20, 20, 20)), ("L", 160, (7, 7)))
RETRACT_MAX_GROUP = 24

# verify: the depth ladder on the documented data, the depths at which each
# mutant is verified, and the depth of the warm-up run that set-up ends with.
# With 18 short mutant runs per pass the latency quantiles fall among many
# similar operations instead of between two rungs of the ladder.
VERIFY_LADDER = (10, 12, 14, 16)
MUTANT_LADDER = (6, 8, 10)
VERIFY_WARMUP_N_MAX = 8

# cli: vertex count of the `retract run` instance (instgen band 80)
CLI_RETRACT_VERTICES = 60

# fold: power family exponents a = 2^k, and the sizes of the seeded families
POWER_K = (5, 6, 7, 8, 9)
# proper-power sets as (count, letters): the longer ones and a = 256 are the
# slowest seven operations of a pass after a = 512, so the 90th percentile
# latency falls in the middle of a group of similar operations, not on the
# upper edge of the short ones, where it would follow the host's noise
PROPER_POWERS = ((20, 448), (6, 700))
LIGHT_WORDS = 10
LIGHT_GENERATORS = 3
LIGHT_LETTERS = 900

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Op(NamedTuple):
    """One operation: `run()` calls the program, `check(output)` verifies the
    output and returns the text that enters the workload's output digest.
    `group` and `size` place it on the workload's scaling curve."""

    name: str
    group: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any], str]


# ---------------------------------------------------------------------------
# workload: retract
# ---------------------------------------------------------------------------


def build_retract(seed: int, ctx) -> list[Op]:
    from gtrees import retract as rt

    rng = random.Random(f"retract:{seed}")
    ops = []
    for band, max_vertices, replicates in RETRACT_BANDS:
        sizes = [round(2 + (max_vertices - 2) * (k + 0.5) / len(replicates)) for k in range(len(replicates))]
        for i, n in enumerate(n for n, r in zip(sizes, replicates) for _ in range(r)):
            t, u = instance_with_vertices(rng, n, max_vertices)
            ops.append(
                Op(
                    f"{band}{i:03d}",
                    band,
                    n,
                    lambda t=t, u=u: rt.retract_tree(t, u),
                    lambda res, t=t, u=u: check_retract(t, u, res),
                )
            )
    return ops


def instance_with_vertices(rng: random.Random, n: int, max_vertices: int):
    """`instgen.random_instance` conditioned on n vertices.

    random_instance's first draw is its vertex count; generator states whose
    first draw is another count are skipped, so no instance is built only to
    be rejected.
    """
    from instgen import random_instance

    while True:
        state = rng.getstate()
        if rng.randrange(2, max_vertices + 1) == n:
            rng.setstate(state)
            t, u = random_instance(rng, max_vertices=max_vertices, max_group=RETRACT_MAX_GROUP)
            if t.n_vertices != n:
                raise RuntimeError("instgen.random_instance no longer draws the vertex count first")
            return t, u


def check_retract(t, u, res) -> str:
    from gtrees.ggraph import ggraph_to_json, validate

    expect(validate(res.tree).is_tree, "result is not a G-tree")
    expect(set(res.tree.vertices.labels) == {t.vertices.labels[v] for v in u}, "result vertices differ from U")
    expect(len(res.removed_edges) == t.n_vertices - len(u), "removed edge count differs from |W|")
    old = {t.edges.labels[e]: t.edges.stabilizer(e) for e in range(t.n_edges)}
    for i in range(res.tree.n_edges):
        expect(res.tree.edges.stabilizer(i) == old[res.tree.edges.labels[i]], "a retained edge changed stabilizer")
    ea, va = t.edges.act, t.vertices.act
    for g in t.group.elements:
        for e, w in res.removed_to_vertex.items():
            expect(res.removed_to_vertex.get(ea[g][e]) == va[g][w], "removed-edge pairing is not equivariant")
    doc = {
        "moves": [[m.kind, m.detail] for m in res.move_log],
        "tree": ggraph_to_json(res.tree),
        "removed_edges": list(res.removed_edges),
        "bijection": {str(k): v for k, v in res.bijection_by_label.items()},
    }
    return json.dumps(doc, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# workload: verify
# ---------------------------------------------------------------------------


def build_verify(seed: int, ctx) -> list[Op]:
    # the inputs are the documented example and its six mutants; the seed
    # changes nothing here
    from gtrees import counterexample as cx

    data = cx.default_data()
    ops = [
        Op(f"default-n{n}", f"n{n}", n, lambda n=n: cx.verify_all(data, n_max=n), lambda rep: check_report(rep, True))
        for n in VERIFY_LADDER
    ]
    for name, mutant in cx.documented_mutations(data).items():
        for n in MUTANT_LADDER:
            ops.append(
                Op(
                    f"mutant-{name}-n{n}",
                    "mutant",
                    n,
                    lambda m=mutant, n=n: cx.verify_all(m, n_max=n),
                    lambda rep: check_report(rep, False),
                )
            )
    cx.verify_all(data, n_max=VERIFY_WARMUP_N_MAX)
    return ops


def check_report(report, should_pass: bool) -> str:
    expect(report.passed is should_pass, "verifier verdict is " + ("FAIL" if should_pass else "PASS (mutant missed)"))
    doc = report.to_dict()
    del doc["runtime_seconds"]
    return json.dumps(doc, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# workload: fold
# ---------------------------------------------------------------------------


def random_reduced_word(rng: random.Random, rank: int, length: int, cyclic: bool = False) -> list:
    letters: list = []
    while len(letters) < length:
        lt = (rng.randrange(rank), rng.choice((1, -1)))
        if letters and letters[-1] == (lt[0], -lt[1]):
            continue
        if cyclic and len(letters) == length - 1 and letters[0] == (lt[0], -lt[1]):
            continue
        letters.append(lt)
    return letters


def build_fold(seed: int, ctx) -> list[Op]:
    from gtrees.words import XY, Alphabet, Word, cyclic_reduce

    xyz = Alphabet.of("x", "y", "z")
    rng = random.Random(f"fold:{seed}")
    ops = []
    for k in POWER_K:
        a = 2**k
        x, y = [(0, 1)] * a, [(1, 1)] * a
        gens = (Word(XY, x + y + x), Word(XY, x))
        probe = Word(XY, random_reduced_word(rng, 2, 24))
        ops.append(fold_op(f"power-a{a}", f"a{a}", 4 * a, gens, probe, gens[0], 2 * a - 1))
    for count, letters in PROPER_POWERS:
        for i in range(count):
            # <w^p, w^(p-1)> = <w>: both loops fold onto one cycle of length |w|
            w = random_reduced_word(rng, 2, rng.randint(2, 6), cyclic=True)
            p = letters // (2 * len(w))
            gens = (Word(XY, w * p), Word(XY, w * (p - 1)))
            probe = Word(XY, w)
            ops.append(fold_op(f"proper{letters}-{i:02d}", "proper", (2 * p - 1) * len(w), gens, probe, gens[0], len(w)))
    for i in range(LIGHT_WORDS):
        rank = rng.choice((2, 3))
        alphabet = XY if rank == 2 else xyz
        gens = tuple(Word(alphabet, random_reduced_word(rng, rank, LIGHT_LETTERS)) for _ in range(LIGHT_GENERATORS))
        probe = Word(alphabet, random_reduced_word(rng, rank, 24))
        census_word = cyclic_reduce(gens[0])[0]
        ops.append(fold_op(f"light-{i:02d}", "light", LIGHT_GENERATORS * LIGHT_LETTERS, gens, probe, census_word, None))
    return ops


def fold_op(name, group, letters, gens, probe, census_word, expected_vertices) -> Op:
    from gtrees import stallings as st

    def run():
        core = st.from_generators(gens)
        members = [core.contains(g) for g in gens]
        return core, members, core.contains(probe), core.closed_path_vertices(census_word)

    def check(out) -> str:
        core, members, probe_in, census = out
        expect(all(members), "a core does not contain one of its generators")
        if expected_vertices is not None:
            expect(core.n_vertices == expected_vertices, f"core has {core.n_vertices} vertices, family predicts {expected_vertices}")
            expect(core.base in census, "the census misses the base vertex")
        return json.dumps([repr(core.canonical_key()), members, probe_in, len(census)])

    return Op(name, group, letters, run, check)


# ---------------------------------------------------------------------------
# workload: cli
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs `gtrees ARG...` as a subprocess in the work directory, through
    cli_child.py, or with `stats_path` set through the traced shim, whose
    spans it merges.  The command ticks in its own process while the
    benchmark's ticker stands still, and its ticks join the run's clock."""

    def __init__(self, work: Path, clock: HostClock):
        self.work = work
        self.clock = clock
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
        self.stats_path: Path | None = None
        self.tracer = None

    def __call__(self, args: list[str]):
        out_path = self.stats_path or self.work / "ticks.json"
        out_path.unlink(missing_ok=True)
        script = "cli_child.py" if self.stats_path is None else "cli_shim.py"
        cmd = [sys.executable, str(BENCH / script), str(out_path), *args]
        with self.clock.paused():
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        out = json.loads(out_path.read_text())
        if self.stats_path is not None:
            self.merge(out)
            out = out["ticks"]
        self.clock.add(*out)
        return proc

    def merge(self, stats: dict) -> None:
        tr = self.tracer
        tr.top_s += stats["top_s"]
        for key, value in stats["layers"].items():
            if key.endswith(".calls"):
                tr.calls[key[: -len(".calls")]] += value
            elif key.endswith(".self_s"):
                tr.self_s[key[: -len(".self_s")]] += value
            else:
                tr.counts[key] += value
        offset = len(tr.records)
        for op, name, t0, t1, parent in stats["records"]:
            tr.records.append([tr.op, name, t0, t1, parent + offset if parent >= 0 else -1])


def build_cli(seed: int, ctx) -> list[Op]:
    from instgen import equivariant_sink_orientation, random_instance, random_slide_candidates

    from gtrees.almost import untwist
    from gtrees.gaction import FiniteGroup, GSet, group_to_json, gset_to_json
    from gtrees.ggraph import compress, ggraph_to_json, reorient, slide, subdivide

    work, cli = ctx.work, ctx.cli
    rng = random.Random(f"cli:{seed}")

    def write(name: str, doc: dict) -> None:
        (work / name).write_text(json.dumps(doc))

    def as_json(doc):
        return json.loads(json.dumps(doc, default=str))

    t, u = instance_with_vertices(rng, CLI_RETRACT_VERTICES, 80)
    inst = ggraph_to_json(t)
    inst["retract_U"] = sorted(u)
    write("instance.json", inst)
    u_labels = sorted(t.vertices.labels[v] for v in u)

    cands: list = []
    while not cands:
        tm, _ = random_instance(rng, max_vertices=40, max_group=RETRACT_MAX_GROUP)
        cands = random_slide_candidates(tm)
    write("t.json", ggraph_to_json(tm))
    e, f = rng.choice(cands)
    orbits = tm.edges.orbits()
    removed = set().union(*[o for o in orbits if rng.random() < 0.5])
    flips = equivariant_sink_orientation(rng, tm, removed)
    tc = reorient(tm, flips) if flips else tm
    write("c.json", ggraph_to_json(tc))
    keep = sorted(x for x in range(tm.n_edges) if x not in removed)
    sub_edge = rng.randrange(tm.n_edges)
    flip_orbit = sorted(rng.choice(orbits))
    slid = as_json(ggraph_to_json(slide(tm, e, f)))
    compressed = as_json(ggraph_to_json(compress(tc, keep).tree))
    subdivided = as_json(ggraph_to_json(subdivide(tm, sub_edge).tree))
    flipped = as_json(ggraph_to_json(reorient(tm, flip_orbit)))

    c2 = FiniteGroup.cyclic(2)
    write("derivation.json", {"group": group_to_json(c2), "module": {"factors": [4], "action": [[[-1]]]}, "derivation": [0, 1]})
    c3 = FiniteGroup.cyclic(3)
    e_set, a_set = GSet.regular(c3), GSet.from_generator_images(c3, 3, [[1, 2, 0]])
    function = [rng.randrange(3) for _ in range(3)]
    write("untwist.json", {"group": group_to_json(c3), "E": gset_to_json(e_set), "A": gset_to_json(a_set), "function": function})
    pair = untwist(e_set, a_set, [min(o) for o in e_set.orbits()])
    hat = list(pair.hat(function))

    def first_line_is(text: str):
        def check(proc) -> str:
            expect(proc.stdout.split("\n", 1)[0] == text, f"first line is not {text!r}")
            return ""

        return check

    def stdout_is(value):
        def check(proc) -> str:
            expect(json.loads(proc.stdout) == value, f"output is not {value!r}")
            return ""

        return check

    def check_dot(proc) -> str:
        first_line_is("7 vertices, 9 edges")(proc)
        expect((work / "core.dot").read_text().startswith("digraph"), "the DOT file is not a digraph")
        return ""

    def check_verify_json(proc) -> str:
        doc = json.loads((work / "report.json").read_text())
        expect(doc["pass"] is True, "verification report does not pass")
        del doc["runtime_seconds"]
        return json.dumps(doc, sort_keys=True)

    def check_retract_run(proc) -> str:
        from gtrees.ggraph import ggraph_from_json, validate

        doc = json.loads((work / "result.json").read_text())
        tree = ggraph_from_json(doc["tree"])
        expect(validate(tree).is_tree, "retract run output is not a G-tree")
        expect(sorted(tree.vertices.labels) == u_labels, "retract run output vertices differ from U")
        expect(len(doc["removed_edges"]) == t.n_vertices - len(u), "retract run removed edge count differs from |W|")
        trace = (work / "moves.log").read_text().splitlines()
        expect(len(trace) == doc["moves"], "move trace length differs from the move count")
        return json.dumps([doc, [json.loads(line)["kind"] for line in trace]], sort_keys=True)

    def check_untwist(proc) -> str:
        doc = json.loads(proc.stdout)
        expect(doc["round_trip_ok"] is True and doc["hat"] == hat, "untwist output differs")
        return ""

    # (name, arguments, check of the output beyond exit code 0; returns extra digest text)
    commands = [
        ("stallings-core", ["stallings", "core", "x^2,y^2"], first_line_is("3 vertices, 4 edges")),
        ("stallings-core-dot", ["stallings", "core", "x^4,xyx,y^4", "--dot", "core.dot"], check_dot),
        ("stallings-member", ["stallings", "member", "x^2,y^2", "xy"], stdout_is(False)),
        ("stallings-member-true", ["stallings", "member", "x^2,y^2", "x^2y^2"], stdout_is(True)),
        ("stallings-census", ["stallings", "census", "x^2,y^2", "x^2y^2x^2"], stdout_is(["H1"])),
        (
            "counterexample-verify",
            ["counterexample", "verify", "--n-max", "10", "--report", "json", "--out", "report.json"],
            check_verify_json,
        ),
        (
            "counterexample-verify-parts",
            ["counterexample", "verify", "--n-max", "5", "--part", "schreier", "--part", "fixed"],
            first_line_is("== verification up to n = 5: PASS =="),
        ),
        (
            "retract-run",
            ["retract", "run", "--input", "instance.json", "--out", "result.json", "--trace", "moves.log"],
            check_retract_run,
        ),
        ("moves-slide", ["moves", "slide", "--input", "t.json", "--edge", str(e), "--along", str(f)], stdout_is(slid)),
        ("moves-compress", ["moves", "compress", "--input", "c.json", "--keep", ",".join(map(str, keep))], stdout_is(compressed)),
        ("moves-subdivide", ["moves", "subdivide", "--input", "t.json", "--edge", str(sub_edge)], stdout_is(subdivided)),
        ("moves-reorient", ["moves", "reorient", "--input", "t.json", "--flips", ",".join(map(str, flip_orbit))], stdout_is(flipped)),
        ("almost-check-derivation", ["almost", "check-derivation", "--input", "derivation.json"], stdout_is(True)),
        ("almost-untwist", ["almost", "untwist", "--input", "untwist.json"], check_untwist),
    ]

    def make_check(check):
        def run_check(proc) -> str:
            expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return json.dumps([proc.returncode, proc.stdout, check(proc)])

        return run_check

    ops = [Op(name, name, 0, lambda args=args: cli(args), make_check(check)) for name, args, check in commands]
    cli(commands[0][1])  # warm-up: the interpreter and modules into the page cache
    return ops


WORKLOADS = {"retract": build_retract, "verify": build_verify, "fold": build_fold, "cli": build_cli}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.clock = HostClock()
        self.cli = CliRunner(self.work, self.clock)


class HostClock(Ticker):
    """The ticks of a run, the benchmark's own and those its commands
    report, and the calibration of timed intervals against them."""

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()

    def add(self, starts: list[float], durations: list[float]) -> None:
        """Add a child's ticks, taken while this process's ticker was paused."""
        self.starts += starts
        self.durations += durations

    def calibrate(self, raw_s: float, t0: float) -> float:
        t1 = t0 + raw_s
        # a tick runs in the main thread of the process that is working, so
        # one that starts inside the interval also ends inside it
        inside = sum(self.durations[bisect_left(self.starts, t0) : bisect_left(self.starts, t1)])
        near = self.durations[bisect_left(self.starts, t0 - TICK_PAD_S) : bisect_right(self.starts, t1 + TICK_PAD_S)]
        return (raw_s - inside) * statistics.fmean(REFERENCE_TICK_S / d for d in near)

    def timed(self, fn):
        """Run fn; return (its result, raw seconds, start)."""
        t0 = perf_counter()
        out = fn()
        return out, perf_counter() - t0, t0


class Passes:
    """Raw op latencies and start times per pass, the output digest texts, and failure counts."""

    def __init__(self) -> None:
        self.raw: list[list[float]] = []
        self.starts: list[list[float]] = []
        self.texts: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def calibrated(self, clock: HostClock, first: int = 0, last: int | None = None) -> list[list[float]]:
        return [
            [clock.calibrate(dt, t0) for dt, t0 in zip(raw, starts)]
            for raw, starts in zip(self.raw[first:last], self.starts[first:last])
        ]


def run_passes(ops: list[Op], budget_s: float, res: Passes, clock: HostClock, tracer=None) -> None:
    """Replay the op list until the next pass would overrun budget_s (at least one pass)."""
    start = perf_counter()
    passes = 0
    while True:
        raw, starts = [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
                tracer.enabled = True
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a raising operation counts as failed
                out, err = None, exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            raw.append(dt)
            starts.append(t0)
            res.attempted += 1
            try:
                if err is not None:
                    raise err
                text = op.check(out)
                expect(res.texts.setdefault(op.name, text) == text, "output differs between passes")
            except Exception:
                res.failed += 1
                print(f"op {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        res.raw.append(raw)
        res.starts.append(starts)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > budget_s:
            return


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(times: list[list[float]]) -> dict[str, float]:
    samples = [dt for p in times for dt in p]
    return {
        "wall_s": statistics.median(sum(p) for p in times),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_p90_ms": 1000 * percentile(samples, 90),
    }


def loglog_slope(xs: list[float], ys: list[float], log_x: bool = True) -> float:
    """Least-squares slope of log2(y) against log2(x) (or against x)."""
    px = [math.log2(x) if log_x else float(x) for x in xs]
    py = [math.log2(y) for y in ys]
    mx, my = statistics.fmean(px), statistics.fmean(py)
    den = sum((x - mx) ** 2 for x in px)
    return sum((x - mx) * (y - my) for x, y in zip(px, py)) / den if den else 0.0


def scaling_metrics(workload: str, ops: list[Op], times: list[list[float]]) -> dict[str, float]:
    """Per-band, per-depth and per-size times (median over passes) and the fitted slopes."""

    def group_s(group: str) -> float:
        return statistics.median(sum(dt for op, dt in zip(ops, p) if op.group == group) for p in times)

    def slope(keep, log_x: bool = True) -> float:
        pts = [(op.size, statistics.median(p[i] for p in times)) for i, op in enumerate(ops) if keep(op)]
        return loglog_slope([x for x, _ in pts], [y for _, y in pts], log_x)

    out = {}
    for band, *_ in RETRACT_BANDS:
        out[f"retract.band_{band}_s"] = group_s(band) if workload == "retract" else 0.0
    for n in VERIFY_LADDER:
        out[f"counterexample.verify_all.n{n}_s"] = group_s(f"n{n}") if workload == "verify" else 0.0
    for k in POWER_K:
        out[f"stallings.power_a{2**k}_s"] = group_s(f"a{2**k}") if workload == "fold" else 0.0
    out["retract.slope_vs_vertices"] = slope(lambda op: op.size >= 10) if workload == "retract" else 0.0
    out["stallings.fold.slope_vs_letters"] = slope(lambda op: op.group.startswith("a")) if workload == "fold" else 0.0
    out["counterexample.slope_vs_n"] = slope(lambda op: op.group.startswith("n"), False) if workload == "verify" else 0.0
    return out


def subprocess_seconds(code: str, clock: HostClock, repeats: int = 5) -> float:
    """Median calibrated time of `python -c code`.  The command does not
    tick, so the benchmark pauses its ticker while the command runs and
    ticks EDGE_TICKS times right before and after it instead."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        with clock.paused():
            for _ in range(EDGE_TICKS):
                clock.tick()
            _, raw, t0 = clock.timed(
                lambda: subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=CLI_TIMEOUT_S)
            )
            for _ in range(EDGE_TICKS):
                clock.tick()
        times.append(clock.calibrate(raw, t0))
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").is_dir():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu}


def traced_metrics(workload: str, ops: list[Op], seconds: float, start: float, res: Passes, ctx: Context, detail: dict) -> dict:
    """Per-layer metrics: untraced passes first, then traced passes for the rest of the budget."""
    from tracer import Tracer

    clock = ctx.clock
    run_passes(ops, seconds * (1 - TRACED_SHARE), res, clock)
    untraced = len(res.raw)
    tracer = Tracer()
    if workload == "cli":
        ctx.cli.stats_path = ctx.work / "shim-stats.json"
        ctx.cli.tracer = tracer
    else:
        tracer.install()
    try:
        run_passes(ops, seconds - (perf_counter() - start), res, clock, tracer)
    finally:
        tracer.uninstall()
        ctx.cli.stats_path = None
    traced = len(res.raw) - untraced
    before, after = res.calibrated(clock, 0, untraced), res.calibrated(clock, untraced)
    metrics = scaling_metrics(workload, ops, before)
    for key, value in tracer.layer_stats().items():
        metrics[key] = value / traced
    found = metrics.pop("retract.problematic.found")
    calls = metrics["retract.problematic.calls"]
    metrics["retract.problematic.useful_ratio"] = found / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(map(sum, after)) / statistics.median(map(sum, before))
    metrics["trace.coverage_ratio"] = tracer.top_s / sum(map(sum, res.raw[untraced:]))
    metrics["fail_ratio"] = res.failed / res.attempted
    interpreter = subprocess_seconds("pass", clock) if workload == "cli" else 0.0
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = subprocess_seconds("import gtrees", clock) - interpreter if workload == "cli" else 0.0
    detail.update(passes=untraced, traced_passes=traced, spans_recorded=len(tracer.records))
    tracer.dump_spans(OUT / f"{workload}-seed{ctx.seed}-spans.csv")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Passes, dict]:
    """Metrics, run details, the passes, and the timing trail for the results file."""
    ctx = Context(workload, seed)
    ctx.work.mkdir(parents=True, exist_ok=True)
    clock = ctx.clock
    clock.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            ops, raw, t0 = clock.timed(lambda: WORKLOADS[workload](seed, ctx))
            setups.append((raw, t0))
        start = perf_counter()
        res = Passes()
        detail: dict = {}
        if trace:
            metrics = traced_metrics(workload, ops, seconds, start, res, ctx, detail)
        else:
            run_passes(ops, seconds, res, clock)
            metrics = {
                "setup_s": statistics.median(clock.calibrate(raw, t0) for raw, t0 in setups),
                **latency_metrics(res.calibrated(clock)),
                "peak_rss_mb": peak_rss_mb(workload),
            }
            detail["passes"] = len(res.raw)
            detail["raw"] = {"setup_s": statistics.median(raw for raw, _ in setups), **latency_metrics(res.raw)}
        detail["op_samples"] = sum(map(len, res.raw))
        detail["ops_per_pass"] = len(ops)
        detail["digest"] = digest(res.texts)
        detail["tick_ms"] = 1000 * statistics.median(clock.durations)
        trail = {
            "op_raw_seconds": {op.name: [p[i] for p in res.raw] for i, op in enumerate(ops)},
            "op_starts": res.starts,
            "ticks": [clock.starts, clock.durations],
        }
        return metrics, detail, res, trail
    finally:
        clock.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gtrees" / "__init__.py").is_file() or not (TESTS / "instgen.py").is_file():
        print(f"error: {ROOT} is not a gtrees checkout (need src/gtrees and tests/instgen.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC), str(TESTS)]
    import gtrees

    if Path(gtrees.__file__).resolve().parent != SRC / "gtrees":
        print(f"error: imported gtrees from {gtrees.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    metrics, detail, res, trail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail, **environment()}
    units = END_TO_END_UNITS if not args.trace else layer_units(metrics)
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result, **trail})
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def layer_units(metrics: dict) -> dict[str, str]:
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("slope_vs_n"):
            units[name] = "log2/n"
        elif ".slope_vs_" in name:
            units[name] = "log/log"
        else:
            units[name] = "count"
    return units


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replace this process (no child is started) by one with the fixed seed
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
