"""Scaling ladders for gtrees, outside the benchmark: how cost grows with size.

    python3 ladders/run.py [--n-max 256] [--fold-a-max 262144]
                           [--retract-n-max 16000] [--repeats 3] [--tag TAG]

Run from any directory; the runner imports `gtrees` from the `src` of the
checkout it sits in, and runs the `verify` ladder, the `fold` ladder and
then the `retract` ladder.

The `verify` ladder runs `verify_all` at n_max 32, 64, 128 and 256 (the
rungs up to `--n-max`) on the documented example data and on each of its
six documented mutants, and checks every verdict: the data must pass and
each mutant must fail.  Per rung it records

* `time_s`: the best of `--repeats` timed runs on the documented data, and
  `mutants_time_s`: the sum over the mutants of the best of theirs;
* `substitute_calls`: the `words.substitute` calls that the run on the
  documented data makes through `gtrees.counterexample`, counted in a
  separate untimed run;
* the exponents of both against the rung below, log(y1/y0) / log(n1/n0).

The `fold` ladder runs `from_generators` on the power family
[x^a y^a x^a, x^a] at a = 2^10 ... 2^18 (the rungs up to `--fold-a-max`)
and, once `--fold-a-max` reaches 250,000, on two rungs at the 1,000,000
letter cap (`MAX_FOLD_LETTERS`): the power family at a = 250,000 and four
seeded random reduced words of 250,000 letters each over x, y, drawn by
the benchmark's `random_reduced_word` (bench/run.py).  At a = 2^18
the family has 1,048,576 letters, so that rung checks that the cap refuses
it with `InputError`.  Each rung runs in a child process of its own, so
that its peak RSS is its own; it is the child's high-water RSS (VmHWM, or
`ru_maxrss` where /proc is missing) after its first run, and includes the
interpreter and the input words.  After each run the child takes the
census (`closed_path_vertices`) of the first generator's cyclic reduction
on the fresh core: x^a y^a x^a on the power family, the first random word's
cyclic reduction on the random rung.  Per rung it records `time_s`, the best
of `--repeats` runs of `from_generators`, `census_s`, the best of the
censuses, the core's vertex count, the peak RSS, which is taken before the
first census, and for the power family the time exponent against the rung
below, over the letters.  Each core must have 2a - 1 vertices on the power
family and contain every generator, every vertex of its census must read
the census word back to itself, and on the power family the census must
hold the base.

The `retract` ladder runs `retract_tree` on four families of
`tests/instgen.py` at 1000, 2000, 4000, 8000 and 16,000 vertices (the rungs
up to `--retract-n-max`): random trees, drawn as the tier-1 retract
contract draws them (`instance_with_vertices(random.Random(
"retract-ladder:<n>"), n, n)`, groups of order up to 24), and three shapes
with the trivial group: the star with U a leaf, the broom with U at its
handle's far end, and the path with U at the end far from vertex 0, which
slides n - 3 times and so stays quadratic.  A
family stops after the first rung whose time passes `RETRACT_STOP_S`
seconds, and its larger rungs are recorded as not reached.  Each timed run
gets a freshly built tree (the random family draws the same tree again from
its seed), so no table that a tree keeps is warm.  Per rung
it records `time_s`, the best of `--repeats` runs, the slides per tree, and
the exponent per doubling against the rung below; each result must be a
G-tree whose vertices are U.

The least-squares log-log slopes over all rungs (of the fold ladder, over
the power rungs that the cap admits; of each retract family, over the rungs
it reaches) are the fitted exponents.
The results, with the git sha of the checkout (and whether `src` differs
from it), the Python version and the machine, go to BENCH_<tag>.json at the
root of the checkout; the tag defaults to the short git sha.  The exit code
is 1 when a verdict, a core, a census or a retract result is wrong, after
the file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gtrees import counterexample as cx  # noqa: E402
from gtrees import stallings as st  # noqa: E402
from gtrees.errors import InputError  # noqa: E402
from gtrees.words import XY, Word, cyclic_reduce, parse_word  # noqa: E402

VERIFY_RUNGS = (32, 64, 128, 256)
FOLD_POWER_A = tuple(2**k for k in range(10, 19))
FOLD_CAP_A = st.MAX_FOLD_LETTERS // 4
FOLD_CAP_WORDS = 4
RETRACT_RUNGS = (1000, 2000, 4000, 8000, 16000)
RETRACT_STOP_S = 10.0


def slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of log y against log x; None below two points."""
    if len(xs) < 2:
        return None
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def best_time(fn, repeats: int) -> tuple[float, object]:
    best, out = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def count_substitutions(fn) -> int:
    calls = 0
    real = cx.substitute

    def counted(w, images):
        nonlocal calls
        calls += 1
        return real(w, images)

    cx.substitute = counted
    try:
        fn()
    finally:
        cx.substitute = real
    return calls


def verify_ladder(n_max: int, repeats: int) -> tuple[dict, list[str]]:
    """The verify rungs up to n_max, and every wrong verdict."""
    data = cx.default_data()
    mutants = cx.documented_mutations(data)
    wrong: list[str] = []
    rungs = []
    for n in [n for n in VERIFY_RUNGS if n <= n_max]:
        t, report = best_time(lambda: cx.verify_all(data, n_max=n), repeats)
        if not report.passed:
            wrong.append(f"documented data fails at n_max {n}")
        mutants_t = 0.0
        for name, mutant in mutants.items():
            mt, mreport = best_time(lambda: cx.verify_all(mutant, n_max=n), repeats)
            mutants_t += mt
            if mreport.passed:
                wrong.append(f"mutant {name} passes at n_max {n}")
        rung = {
            "n_max": n,
            "time_s": round(t, 6),
            "mutants_time_s": round(mutants_t, 6),
            "substitute_calls": count_substitutions(lambda: cx.verify_all(data, n_max=n)),
        }
        if rungs:
            prev = rungs[-1]
            step = math.log(n / prev["n_max"])
            rung["time_exponent"] = round(math.log(t / prev["time_s"]) / step, 3)
            rung["substitute_exponent"] = round(math.log(rung["substitute_calls"] / prev["substitute_calls"]) / step, 3)
        rungs.append(rung)
    ns = [r["n_max"] for r in rungs]
    fit = {
        "time_exponent": slope(ns, [r["time_s"] for r in rungs]),
        "substitute_exponent": slope(ns, [r["substitute_calls"] for r in rungs]),
    }
    ladder = {
        "what": "verify_all on the documented data and its six mutants, by n_max",
        "repeats": repeats,
        "rungs": rungs,
        "fit": {k: None if v is None else round(v, 3) for k, v in fit.items()},
        "verdicts_ok": not wrong,
    }
    return ladder, wrong


def fold_rungs(a_max: int) -> list[dict]:
    """The fold rungs up to a_max, in order of letters."""
    rungs = [{"name": f"power-a{a}", "family": "power", "a": a, "letters": 4 * a} for a in FOLD_POWER_A if a <= a_max]
    if a_max >= FOLD_CAP_A:
        cap = st.MAX_FOLD_LETTERS
        rungs.append({"name": "power-cap", "family": "power", "a": FOLD_CAP_A, "letters": cap})
        rungs.append({"name": "random-cap", "family": "random", "words": FOLD_CAP_WORDS, "letters": cap})
    return sorted(rungs, key=lambda r: r["letters"])


def fold_generators(rung: dict) -> list[Word]:
    if rung["family"] == "power":
        a = rung["a"]
        return [parse_word(XY, f"x^{a}y^{a}x^{a}"), parse_word(XY, f"x^{a}")]
    # loaded here, in the random rung's child only, so that the benchmark's
    # imports add nothing to the other rungs' peak RSS; bench/run.py imports
    # hostclock from its directory
    sys.path.insert(0, str(ROOT / "bench"))
    random_reduced_word = runpy.run_path(str(ROOT / "bench" / "run.py"))["random_reduced_word"]
    length = rung["letters"] // rung["words"]
    return [Word(XY, random_reduced_word(random.Random(f"fold-cap:{i}"), 2, length)) for i in range(rung["words"])]


def peak_rss_mb() -> float:
    """This process's high-water RSS.  VmHWM belongs to the process image,
    while ru_maxrss also counts the parent's RSS at the fork."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fold_child(name: str, repeats: int) -> dict:
    """One fold rung, run in this process: its times, core and peak RSS."""
    rung = next(r for r in fold_rungs(FOLD_POWER_A[-1]) if r["name"] == name)
    gens = fold_generators(rung)
    wrong = []
    if rung["letters"] > st.MAX_FOLD_LETTERS:
        t0 = time.perf_counter()
        try:
            st.from_generators(gens)
            wrong.append(f"{name}: {rung['letters']} letters are folded, above the cap")
        except InputError:
            pass
        return {"refused": True, "time_s": time.perf_counter() - t0, "peak_rss_mb": peak_rss_mb(), "wrong": wrong}
    census_word = cyclic_reduce(gens[0])[0]  # x^a y^a x^a itself on the power family
    best, best_census, peak = math.inf, math.inf, None
    for _ in range(repeats):
        core = None  # so that a run's core is not alive during the next one
        t0 = time.perf_counter()
        core = st.from_generators(gens)
        best = min(best, time.perf_counter() - t0)
        # later runs start from a heap the first one left fragmented
        peak = peak or peak_rss_mb()
        t0 = time.perf_counter()
        census = core.closed_path_vertices(census_word)
        best_census = min(best_census, time.perf_counter() - t0)
    if rung["family"] == "power" and core.n_vertices != 2 * rung["a"] - 1:
        wrong.append(f"{name}: the core has {core.n_vertices} vertices, not 2a - 1 = {2 * rung['a'] - 1}")
    if not all(core.contains(g) for g in gens):
        wrong.append(f"{name}: the core does not contain every generator")
    if any(core.read(census_word, v) != v for v in census):
        wrong.append(f"{name}: the census returns a vertex that does not read its word back to itself")
    if rung["family"] == "power" and core.base not in census:
        wrong.append(f"{name}: the census of x^a y^a x^a misses the base")
    return {"time_s": best, "census_s": best_census, "vertices": core.n_vertices, "peak_rss_mb": peak, "wrong": wrong}


def fold_ladder(a_max: int, repeats: int) -> tuple[dict, list[str]]:
    """The fold rungs up to a_max, each in a child process, and every wrong core."""
    wrong: list[str] = []
    rungs = []
    for spec in fold_rungs(a_max):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--fold-child", spec["name"], "--repeats", str(repeats)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            wrong.append(f"{spec['name']}: the child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        got = json.loads(proc.stdout.splitlines()[-1])
        wrong += got.pop("wrong")
        rung = {**spec, **got, "time_s": round(got["time_s"], 6), "peak_rss_mb": round(got["peak_rss_mb"], 1)}
        if "census_s" in got:
            rung["census_s"] = round(got["census_s"], 6)
        below = [r for r in rungs if r["family"] == "power" and not r.get("refused")]
        if spec["family"] == "power" and not rung.get("refused") and below:
            prev = below[-1]
            rung["time_exponent"] = round(math.log(rung["time_s"] / prev["time_s"]) / math.log(rung["letters"] / prev["letters"]), 3)
        rungs.append(rung)
    power = [r for r in rungs if r["family"] == "power" and not r.get("refused")]
    fit = slope([r["letters"] for r in power], [r["time_s"] for r in power])
    ladder = {
        "what": (
            "from_generators on [x^a y^a x^a, x^a] by a, and on four random words at the letter cap, then the census of the "
            "first generator's cyclic reduction; each rung in a child process"
        ),
        "repeats": repeats,
        "rungs": rungs,
        "fit": {"time_exponent": None if fit is None else round(fit, 3)},
        "cores_ok": not wrong,
    }
    return ladder, wrong


def retract_ladder(n_max: int, repeats: int) -> tuple[dict, list[str]]:
    """Each retract family's rungs up to n_max, up to its first rung past
    RETRACT_STOP_S, and every wrong result."""
    # imported here, so that the fold rungs' children do not load them
    import instgen
    from gtrees.ggraph import validate
    from gtrees.retract import retract_tree

    makers = {
        "random": lambda n: instgen.instance_with_vertices(random.Random(f"retract-ladder:{n}"), n, n),
        "star": instgen.star_instance,
        "broom-handle": lambda n: instgen.broom_instance(n, "handle"),
        "path-far": lambda n: instgen.path_instance(n, n - 1),
    }
    wrong: list[str] = []
    families = {}
    for name, make in makers.items():
        rungs: list[dict] = []
        for n in [n for n in RETRACT_RUNGS if n <= n_max]:
            if rungs and (not rungs[-1]["reached"] or rungs[-1]["time_s"] > RETRACT_STOP_S):
                rungs.append({"vertices": n, "reached": False})
                continue
            best = math.inf
            for _ in range(repeats):
                res = None  # so that a run's result is not alive during the next one
                t, u = make(n)
                t0 = time.perf_counter()
                res = retract_tree(t, u)
                best = min(best, time.perf_counter() - t0)
            if not validate(res.tree).is_tree or res.tree.vertices.labels != tuple(t.vertices.labels[v] for v in sorted(u)):
                wrong.append(f"retract {name} at {n} vertices: the result is not a G-tree on U")
            rung = {"vertices": n, "reached": True, "time_s": round(best, 6), "slides": sum(m.kind == "slide" for m in res.move_log)}
            if rungs:
                rung["time_exponent"] = round(math.log(best / rungs[-1]["time_s"]) / math.log(n / rungs[-1]["vertices"]), 3)
            rungs.append(rung)
        reached = [r for r in rungs if r["reached"]]
        fit = slope([r["vertices"] for r in reached], [r["time_s"] for r in reached])
        families[name] = {"rungs": rungs, "fit": {"time_exponent": None if fit is None else round(fit, 3)}}
    ladder = {
        "what": (
            "retract_tree on instgen's random trees (instance_with_vertices, groups of order up to 24) and, with the trivial group, "
            "its star (U a leaf), broom (U at the handle's end) and path (U = {n-1}); a fresh tree per run"
        ),
        "repeats": repeats,
        "stop_s": RETRACT_STOP_S,
        "families": families,
        "results_ok": not wrong,
    }
    return ladder, wrong


def git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = git("rev-parse", "HEAD") or "unknown"
    return {
        "git_sha": sha,
        "src_differs_from_sha": bool(git("status", "--porcelain", "--", "src")) if sha != "unknown" else None,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpu_model": cpu, "nproc": os.cpu_count()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-max", type=int, default=VERIFY_RUNGS[-1], help="the deepest verify rung to run")
    ap.add_argument("--fold-a-max", type=int, default=FOLD_POWER_A[-1], help="the largest power-family a to run; the cap rungs run from 250000 on")
    ap.add_argument("--retract-n-max", type=int, default=RETRACT_RUNGS[-1], help="the largest retract rung to run, in vertices")
    ap.add_argument("--repeats", type=int, default=3, help="timed runs per rung; the best one counts")
    ap.add_argument("--tag", default=None, help="BENCH_<tag>.json; defaults to the short git sha")
    ap.add_argument("--fold-child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not VERIFY_RUNGS[0] <= args.n_max <= cx.N_MAX_CAP:
        ap.error(f"--n-max must lie between {VERIFY_RUNGS[0]} and {cx.N_MAX_CAP}")
    if args.fold_a_max < FOLD_POWER_A[0]:
        ap.error(f"--fold-a-max must be at least {FOLD_POWER_A[0]}")
    if args.retract_n_max < RETRACT_RUNGS[0]:
        ap.error(f"--retract-n-max must be at least {RETRACT_RUNGS[0]}")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.fold_child:
        print(json.dumps(fold_child(args.fold_child, args.repeats)))
        return 0
    env = environment()
    tag = args.tag or (env["git_sha"][:12] if env["git_sha"] != "unknown" else "local")
    doc = {"tag": tag, **env, "ladders": {}}
    wrong: list[str] = []
    verify, bad = verify_ladder(args.n_max, args.repeats)
    doc["ladders"]["verify"] = verify
    wrong += bad
    for rung in verify["rungs"]:
        print(
            f"verify n_max={rung['n_max']:>3}: {rung['time_s'] * 1e3:8.2f} ms, mutants {rung['mutants_time_s'] * 1e3:8.2f} ms, "
            f"{rung['substitute_calls']:>6} substitute calls"
        )
    print(f"verify fitted exponents: {verify['fit']}")
    fold, bad = fold_ladder(args.fold_a_max, args.repeats)
    doc["ladders"]["fold"] = fold
    wrong += bad
    for rung in fold["rungs"]:
        what = (
            "refused by the cap"
            if rung.get("refused")
            else f"{rung['time_s'] * 1e3:9.2f} ms, {rung['vertices']:>7} vertices, census {rung['census_s'] * 1e3:8.2f} ms"
        )
        print(f"fold {rung['name']:>14}: {rung['letters']:>8} letters, {what}, peak RSS {rung['peak_rss_mb']:6.1f} MB")
    print(f"fold fitted exponents: {fold['fit']}")
    retract, bad = retract_ladder(args.retract_n_max, args.repeats)
    doc["ladders"]["retract"] = retract
    wrong += bad
    for name, family in retract["families"].items():
        for rung in family["rungs"]:
            what = f"{rung['time_s'] * 1e3:9.2f} ms, {rung['slides']:>6} slides" if rung["reached"] else "not reached"
            print(f"retract {name:>12}: {rung['vertices']:>6} vertices, {what}")
        print(f"retract {name} fitted exponent: {family['fit']['time_exponent']}")
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name}")
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
