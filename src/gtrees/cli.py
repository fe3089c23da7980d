"""Command-line front end.

Subcommands: `retract run`, `stallings core|member|census`,
`counterexample verify`, `moves slide|compress|subdivide`,
`almost check-derivation|untwist`.

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 precondition failure, 4 internal check failure or any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import almost as almost_mod
from . import counterexample as cx
from .errors import InputError, InternalCheckError, PreconditionError, VerificationMismatch
from .gaction import group_from_json, gset_from_json
from .ggraph import compress, ggraph_from_json, ggraph_to_json, reorient, slide, subdivide
from .retract import retract_tree
from .stallings import from_generators
from .words import XY, Alphabet, parse_generators, parse_word

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _dump_json(path: Optional[str], doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if path:
        _write_text(path, text + "\n")
    else:
        print(text)


def _alphabet_from_flag(names: Optional[str]) -> Alphabet:
    if not names:
        return XY
    return Alphabet(tuple(n.strip() for n in names.split(",") if n.strip()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_retract_run(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    if "retract_U" not in doc:
        raise InputError("instance document is missing 'retract_U'")
    tree = ggraph_from_json(doc)
    u = doc["retract_U"]
    if not isinstance(u, list) or not all(type(v) is int and 0 <= v < tree.n_vertices for v in u):
        raise InputError(f"'retract_U' must be a list of vertex indices below {tree.n_vertices}")
    result = retract_tree(tree, u)
    out_doc = {
        "tree": ggraph_to_json(result.tree),
        "removed_edges": list(result.removed_edges),
        "bijection": {str(k): v for k, v in result.bijection_by_label.items()},
        "moves": len(result.move_log),
    }
    _dump_json(args.out, out_doc)
    if args.trace:
        lines = [
            json.dumps({"kind": m.kind, "detail": m.detail, "pre": m.pre, "post": m.post}, default=str) + "\n"
            for m in result.move_log
        ]
        _write_text(args.trace, "".join(lines))
    return EXIT_OK


def cmd_stallings(args) -> int:
    alphabet = _alphabet_from_flag(args.alphabet)
    gens = parse_generators(alphabet, args.generators)
    core = from_generators(gens, alphabet=alphabet)
    if args.subcommand == "core":
        print(f"{core.n_vertices} vertices, {core.n_edges} edges")
        print(core.to_text())
        if args.dot:
            _write_text(args.dot, core.to_dot() + "\n")
        return EXIT_OK
    word = parse_word(alphabet, args.word)
    if args.subcommand == "member":
        print("true" if core.contains(word) else "false")
        return EXIT_OK
    census = core.closed_path_vertices(word)
    labels = core.coset_labels()
    print(json.dumps(sorted(labels[v] for v in census)))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    data = cx.ExampleData.from_json(_load_json(args.fixture)) if args.fixture else cx.default_data()
    report = cx.verify_all(data, n_max=args.n_max, parts=args.part or None)
    if (args.report or "text") == "json":
        _dump_json(args.out, report.to_dict())
    else:
        text = report.to_text()
        if args.out:
            _write_text(args.out, text + "\n")
        else:
            print(text)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _parse_index_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad index list {text!r}") from exc


def cmd_moves(args) -> int:
    tree = ggraph_from_json(_load_json(args.input))
    if args.subcommand == "slide":
        out = slide(tree, args.edge, args.along)
    elif args.subcommand == "subdivide":
        out = subdivide(tree, args.edge).tree
    elif args.subcommand == "compress":
        keep = _parse_index_list(args.keep)
        out = compress(tree, keep).tree
    else:  # reorient
        out = reorient(tree, _parse_index_list(args.flips))
    _dump_json(args.out, ggraph_to_json(out))
    return EXIT_OK


def _module_from_json(doc: dict):
    group = group_from_json(doc["group"])
    mdoc = doc["module"]
    if not isinstance(mdoc, dict) or "factors" not in mdoc or "action" not in mdoc:
        raise InputError("module document needs factors and action matrices")
    factors = mdoc["factors"]
    if not isinstance(factors, list) or not all(type(f) is int for f in factors):
        raise InputError("module factors must be a list of integers")
    carrier = almost_mod.AbelianGroup.from_factors(factors)
    k = len(factors)

    action = mdoc["action"]
    if not isinstance(action, list):
        raise InputError("module action must be a list of matrices")
    gen_maps = []
    for mat in action:
        if not isinstance(mat, list) or len(mat) != k or any(not isinstance(row, list) or len(row) != k for row in mat):
            raise InputError("action matrix has the wrong shape")
        if not all(type(x) is int for row in mat for x in row):
            raise InputError("action matrix entries must be integers")
        img = []
        for i in range(carrier.size):
            t = carrier.decode(i)
            img.append(carrier.encode([sum(mat[r][c] * t[c] for c in range(k)) for r in range(k)]))
        gen_maps.append(img)
    return group, almost_mod.GModule.from_generator_maps(group, carrier, gen_maps)


def _require_keys(doc, keys: Sequence[str]) -> None:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise InputError(f"input document is missing {key!r}")


def cmd_almost(args) -> int:
    doc = _load_json(args.input)
    if args.subcommand == "check-derivation":
        _require_keys(doc, ("group", "module"))
        group, module = _module_from_json(doc)
        d = doc.get("derivation")
        if not isinstance(d, list):
            raise InputError("derivation must list one module element per group element")
        ok = almost_mod.check_derivation(module, d)
        print("true" if ok else "false")
        return EXIT_OK
    # untwist
    _require_keys(doc, ("group", "E", "A"))
    group = group_from_json(doc["group"])
    e_set = gset_from_json(group, doc["E"])
    a_set = gset_from_json(group, doc["A"])
    transversal = doc.get("transversal")
    if transversal is None:
        transversal = [min(orb) for orb in e_set.orbits()]
    elif not isinstance(transversal, list) or not all(type(x) is int and 0 <= x < e_set.size for x in transversal):
        raise InputError(f"transversal must list point indices of E below {e_set.size}")
    pair = almost_mod.untwist(e_set, a_set, transversal)
    out_doc = {"transversal": list(pair.transversal), "g_of": list(pair.g_of)}
    if "function" in doc:
        phi = doc["function"]
        if not isinstance(phi, list) or len(phi) != e_set.size:
            raise InputError("function must assign a value to every point of E")
        if not all(type(x) is int and 0 <= x < a_set.size for x in phi):
            raise InputError(f"function values must be point indices of A below {a_set.size}")
        phi = tuple(phi)
        hat = pair.hat(phi)
        out_doc["hat"] = list(hat)
        out_doc["round_trip_ok"] = pair.tilde(hat) == phi
    _dump_json(args.out, out_doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtrees", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0, help="seed (all commands are deterministic; kept for the contract)")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("retract", help="run the retract pipeline on an instance file")
    prs = pr.add_subparsers(dest="subcommand", required=True)
    run = prs.add_parser("run")
    run.add_argument("--input", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--trace", default=None)
    run.set_defaults(func=cmd_retract_run)

    ps = sub.add_parser("stallings", help="core graphs of subgroups of free groups")
    pss = ps.add_subparsers(dest="subcommand", required=True)
    for name in ("core", "member", "census"):
        q = pss.add_parser(name)
        q.add_argument("generators", help='comma-separated generator words, e.g. "x^2,y^2"')
        if name != "core":
            q.add_argument("word")
        else:
            q.add_argument("--dot", default=None)
        q.add_argument("--alphabet", default=None, help="comma-separated generator names (default x,y)")
        q.set_defaults(func=cmd_stallings)

    pc = sub.add_parser("counterexample", help="verify the documented example facts")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    v = pcs.add_parser("verify")
    v.add_argument("--n-max", type=int, default=10)
    v.add_argument("--part", action="append", choices=["schreier", "really", "stabilizers", "fixed"])
    v.add_argument("--report", choices=["json", "text"], default="text")
    v.add_argument("--fixture", default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_counterexample)

    pm = sub.add_parser("moves", help="apply a single deformation move to an instance")
    pms = pm.add_subparsers(dest="subcommand", required=True)
    sl = pms.add_parser("slide")
    sl.add_argument("--input", required=True)
    sl.add_argument("--edge", type=int, required=True)
    sl.add_argument("--along", type=int, required=True)
    sl.add_argument("--out", default=None)
    sl.set_defaults(func=cmd_moves)
    sd = pms.add_parser("subdivide")
    sd.add_argument("--input", required=True)
    sd.add_argument("--edge", type=int, required=True)
    sd.add_argument("--out", default=None)
    sd.set_defaults(func=cmd_moves)
    cp = pms.add_parser("compress")
    cp.add_argument("--input", required=True)
    cp.add_argument("--keep", required=True, help="comma-separated edge indices to keep")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_moves)
    ro = pms.add_parser("reorient")
    ro.add_argument("--input", required=True)
    ro.add_argument("--flips", required=True, help="comma-separated edge indices to flip")
    ro.add_argument("--out", default=None)
    ro.set_defaults(func=cmd_moves)

    pa = sub.add_parser("almost", help="derivation and untwisting utilities")
    pas = pa.add_subparsers(dest="subcommand", required=True)
    cd = pas.add_parser("check-derivation")
    cd.add_argument("--input", required=True)
    cd.set_defaults(func=cmd_almost)
    ut = pas.add_parser("untwist")
    ut.add_argument("--input", required=True)
    ut.add_argument("--out", default=None)
    ut.set_defaults(func=cmd_almost)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other failure is a defect, not a mismatch: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
