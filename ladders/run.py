"""Scaling ladders for gtrees, outside the benchmark: how cost grows with size.

    python3 ladders/run.py [--n-max 256] [--repeats 3] [--tag TAG]

Run from any directory; the runner imports `gtrees` from the `src` of the
checkout it sits in.  The `verify` ladder runs `verify_all` at n_max 32, 64,
128 and 256 (the rungs up to `--n-max`) on the documented example data and
on each of its six documented mutants, and checks every verdict: the data
must pass and each mutant must fail.  Per rung it records

* `time_s`: the best of `--repeats` timed runs on the documented data, and
  `mutants_time_s`: the sum over the mutants of the best of theirs;
* `substitute_calls`: the `words.substitute` calls that the run on the
  documented data makes through `gtrees.counterexample`, counted in a
  separate untimed run;
* the exponents of both against the rung below, log(y1/y0) / log(n1/n0).

The least-squares log-log slopes over all rungs are the fitted exponents.
The results, with the git sha of the checkout (and whether `src` differs
from it), the Python version and the machine, go to BENCH_<tag>.json at the
root of the checkout; the tag defaults to the short git sha.  The exit code
is 1 when a verdict is wrong, after the file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gtrees import counterexample as cx  # noqa: E402

VERIFY_RUNGS = (32, 64, 128, 256)


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
    ap.add_argument("--repeats", type=int, default=3, help="timed runs per rung; the best one counts")
    ap.add_argument("--tag", default=None, help="BENCH_<tag>.json; defaults to the short git sha")
    args = ap.parse_args(argv)
    if not VERIFY_RUNGS[0] <= args.n_max <= cx.N_MAX_CAP:
        ap.error(f"--n-max must lie between {VERIFY_RUNGS[0]} and {cx.N_MAX_CAP}")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    env = environment()
    tag = args.tag or (env["git_sha"][:12] if env["git_sha"] != "unknown" else "local")
    verify, wrong = verify_ladder(args.n_max, args.repeats)
    doc = {"tag": tag, **env, "ladders": {"verify": verify}}
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for rung in verify["rungs"]:
        print(
            f"verify n_max={rung['n_max']:>3}: {rung['time_s'] * 1e3:8.2f} ms, mutants {rung['mutants_time_s'] * 1e3:8.2f} ms, "
            f"{rung['substitute_calls']:>6} substitute calls"
        )
    print(f"fitted exponents: {verify['fit']}; wrote {out.name}")
    for line in wrong:
        print(f"wrong verdict: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
