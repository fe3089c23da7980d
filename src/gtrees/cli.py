"""Command-line front end.

Subcommands: `retract run`, `stallings core|member|census`,
`counterexample verify`, `moves slide|compress|subdivide`,
`almost check-derivation|untwist`.

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 precondition failure, 4 internal check failure or any other error.

Each command imports the gtrees modules it runs inside its own function, so
`stallings` loads no G-tree code and `moves` no retract or Stallings code.
A command renders all of its outputs and checks that every output path can
be written before it writes or prints anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .errors import InputError, InternalCheckError, PreconditionError, VerificationMismatch, int_list, obj

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
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.load recurses once per nesting level of the document
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _check_writable(path: str) -> None:
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(outputs: Sequence[tuple[Optional[str], str]]) -> None:
    """Write each rendered (path, text) output; a path of None is stdout.

    Every path is checked first, so a command whose last output path cannot
    be written exits 2 and leaves none of its other outputs behind.
    """
    for path, _ in outputs:
        if path:
            _check_writable(path)
    for path, text in outputs:
        if path:
            _write_text(path, text)
        else:
            sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def _alphabet_from_flag(names: Optional[str]):
    from .words import XY, Alphabet

    if not names:
        return XY
    return Alphabet(tuple(n.strip() for n in names.split(",") if n.strip()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_retract_run(args) -> int:
    from .ggraph import ggraph_from_json, ggraph_to_json
    from .retract import retract_tree

    doc = _load_json(args.input)
    (u,) = obj(doc, "", ("retract_U",))
    tree = ggraph_from_json(doc)
    result = retract_tree(tree, int_list(u, "retract_U", 0, tree.n_vertices))
    out_doc = {
        "tree": ggraph_to_json(result.tree),
        "removed_edges": list(result.removed_edges),
        "bijection": {str(k): v for k, v in result.bijection_by_label.items()},
        "moves": len(result.move_log),
    }
    outputs = [(args.out, _json_text(out_doc))]
    if args.trace:
        lines = [
            json.dumps({"kind": m.kind, "detail": m.detail, "pre": m.pre, "post": m.post}, default=str) + "\n"
            for m in result.move_log
        ]
        outputs.append((args.trace, "".join(lines)))
    _emit(outputs)
    return EXIT_OK


def cmd_stallings(args) -> int:
    from .stallings import from_generators
    from .words import parse_generators, parse_word

    alphabet = _alphabet_from_flag(args.alphabet)
    gens = parse_generators(alphabet, args.generators)
    core = from_generators(gens, alphabet=alphabet)
    if args.subcommand == "core":
        outputs = [(None, f"{core.n_vertices} vertices, {core.n_edges} edges\n{core.to_text()}\n")]
        if args.dot:
            outputs.append((args.dot, core.to_dot() + "\n"))
        _emit(outputs)
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
    from .counterexample import ExampleData, default_data, verify_all

    data = ExampleData.from_json(_load_json(args.fixture)) if args.fixture else default_data()
    report = verify_all(data, n_max=args.n_max, parts=args.part or None)
    text = _json_text(report.to_dict()) if args.report == "json" else report.to_text() + "\n"
    _emit([(args.out, text)])
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _parse_index_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad index list {text!r}") from exc


def cmd_moves(args) -> int:
    from .ggraph import compress, ggraph_from_json, ggraph_to_json, reorient, slide, subdivide

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
    _emit([(args.out, _json_text(ggraph_to_json(out)))])
    return EXIT_OK


def cmd_almost(args) -> int:
    from .gaction import group_from_json, gset_from_rows

    doc = _load_json(args.input)
    if args.subcommand == "check-derivation":
        from .almost import check_derivation, module_from_json

        group_doc, module_doc, d = obj(doc, "", ("group", "module", "derivation"))
        group = group_from_json(group_doc)
        module = module_from_json(group, module_doc)
        ok = check_derivation(module, int_list(d, "derivation", 0, module.carrier.size, group.order))
        print("true" if ok else "false")
        return EXIT_OK
    from .almost import untwist

    group_doc, e_doc, a_doc, transversal, phi = obj(doc, "", ("group", "E", "A"), {"transversal": None, "function": ...})
    group = group_from_json(group_doc)
    e_set = gset_from_rows(group, *obj(e_doc, "E", ("points", "action")), "E.points", "E.action")
    a_set = gset_from_rows(group, *obj(a_doc, "A", ("points", "action")), "A.points", "A.action")
    if transversal is None:
        transversal = [min(orb) for orb in e_set.orbits()]
    pair = untwist(e_set, a_set, int_list(transversal, "transversal", 0, e_set.size))
    out_doc = {"transversal": list(pair.transversal), "g_of": list(pair.g_of)}
    if phi is not ...:  # an absent function; a null one is a wrong value
        phi = tuple(int_list(phi, "function", 0, a_set.size, e_set.size))
        hat = pair.hat(phi)
        out_doc["hat"] = list(hat)
        out_doc["round_trip_ok"] = pair.tilde(hat) == phi
    _emit([(args.out, _json_text(out_doc))])
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
