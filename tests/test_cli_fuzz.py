"""Fuzzing of the CLI's JSON inputs.

Each JSON example of the README, and the counterexample fixture, is mutated
and fed to `cli.main()` in process: at random from a seed (a dropped key or
list entry, a value of the wrong type, a small out-of-range integer, or a
boolean), and by structure (every integer to true, -1 and 10^12, every list
to {} and to itself less its last entry).  Whatever the input, the exit code
is 0, 2 or 3 (or 1, a failed verification, for the fixture), no exception
escapes, and a failure is one stderr line; a true or {} that exits 2 is
named by its path.  Inputs nested too deep and groups too large exit 2 too.
"""

import copy
import json
import random
import re
from pathlib import Path

import pytest

import gtrees.gaction as ga
from gtrees.cli import main
from gtrees.counterexample import default_data
from gtrees.errors import MAX_LABEL_DEPTH

README = Path(__file__).resolve().parents[1] / "README.md"
MUTANTS_PER_COMMAND = 60

# the commands that read each README example, keyed by a key only it has
COMMANDS = {
    "retract_U": [
        ["retract", "run"],
        ["moves", "slide", "--edge", "0", "--along", "1"],
        ["moves", "compress", "--keep", ""],
        ["moves", "subdivide", "--edge", "0"],
        ["moves", "reorient", "--flips", "0,1"],
    ],
    "derivation": [["almost", "check-derivation"]],
    "E": [["almost", "untwist"]],
}

WRONG_TYPES = ("x", 2.5, None, {}, [], [[]], {"a": 1})
SMALL_INTS = (-1, 0, 1, 2, 3, 99)


def readme_examples():
    """The README's JSON examples, each with the commands that read it."""
    docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]
    out = []
    for key, commands in COMMANDS.items():
        (doc,) = [d for d in docs if key in d]
        out += [(doc, command) for command in commands]
    return out


def _paths(node, prefix=()):
    """Every position inside a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def render(path):
    """A position as the readers name it: keys joined by dots, indices in brackets."""
    text = ""
    for step in path:
        text += f"[{step}]" if type(step) is int else f".{step}" if text else step
    return text


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def structured_mutants(doc):
    """(path, new value, mutant) for every integer made true, -1 and 10^12,
    and every list made {} and, when not empty, cut by its last entry."""
    for path in _paths(doc):
        node = doc
        for step in path:
            node = node[step]
        if type(node) is int:
            for new in (True, -1, 10**12):
                yield path, new, replaced(doc, path, new)
        elif isinstance(node, list) and path:
            yield path, {}, replaced(doc, path, {})
            if node:
                yield path, node[:-1], replaced(doc, path, copy.deepcopy(node[:-1]))


def mutate(doc, rng):
    """A copy of doc with one position dropped or replaced."""
    out = copy.deepcopy(doc)
    path = rng.choice([p for p in _paths(out) if p])
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    kind = rng.choice(("drop", "type", "int", "bool"))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "type":
        parent[path[-1]] = copy.deepcopy(rng.choice(WRONG_TYPES))
    elif kind == "int":
        old = parent[path[-1]]
        near = (old - 1, old + 1) if type(old) is int else ()
        parent[path[-1]] = rng.choice(SMALL_INTS + near)
    else:
        parent[path[-1]] = rng.choice((True, False))
    return out


def _run(command, doc, path, capsys, flag="--input"):
    path.write_text(json.dumps(doc))
    code = main(command + [flag, str(path)])
    captured = capsys.readouterr()
    return code, captured.err


PREFIXES = {1: "verification mismatch: ", 2: "input error: ", 3: "precondition failed: "}


def _assert_contract(code, err, allowed, mutant):
    assert code in allowed, (mutant, err)
    if code == 0:
        assert err == "", (mutant, err)
    elif not (code == 1 and err == ""):  # a failed report prints no error line
        assert err.startswith(PREFIXES[code]) and err.count("\n") == 1, (mutant, err)


EXAMPLES = readme_examples()


@pytest.mark.parametrize("doc, command", EXAMPLES, ids=["-".join(command[:2]) for _, command in EXAMPLES])
def test_mutated_readme_inputs_keep_the_exit_code_contract(tmp_path, capsys, doc, command):
    path = tmp_path / "in.json"
    code, err = _run(command, doc, path, capsys)
    assert code in (0, 3) and (err == "") == (code == 0), err  # the example itself is well formed
    rng = random.Random(" ".join(command))
    for _ in range(MUTANTS_PER_COMMAND):
        mutant = mutate(doc, rng)
        code, err = _run(command, mutant, path, capsys)
        _assert_contract(code, err, (0, 2, 3), mutant)


def test_mutated_fixture_keeps_the_exit_code_contract(tmp_path, capsys):
    # a fixture that parses may still fail its verification, which is exit 1
    command = ["counterexample", "verify", "--n-max", "3"]
    doc = default_data().to_json()
    path = tmp_path / "fixture.json"
    assert _run(command, doc, path, capsys, "--fixture") == (0, "")
    rng = random.Random(" ".join(command))
    codes = set()
    for _ in range(5 * MUTANTS_PER_COMMAND):
        mutant = mutate(doc, rng)
        code, err = _run(command, mutant, path, capsys, "--fixture")
        _assert_contract(code, err, (0, 1, 2), mutant)
        codes.add(code)
    assert codes == {0, 1, 2}


# every README input with each command that reads it, and the fixture
STRUCTURED = EXAMPLES + [(default_data().to_json(), ["counterexample", "verify", "--n-max", "3"])]


@pytest.mark.parametrize(
    "doc, command", STRUCTURED, ids=["-".join(command[:2]) for _, command in STRUCTURED]
)
def test_structured_mutants_keep_the_exit_code_contract_and_name_their_path(tmp_path, capsys, doc, command):
    fixture = command[0] == "counterexample"
    path = tmp_path / "in.json"
    for at, new, mutant in structured_mutants(doc):
        code, err = _run(command, mutant, path, capsys, "--fixture" if fixture else "--input")
        _assert_contract(code, err, (0, 1, 2) if fixture else (0, 2, 3), (at, new))
        if code == 2 and (new is True or new == {}):
            assert render(at) in err, (at, new, err)


NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, flag",
    [(["retract", "run"], "--input"), (["almost", "untwist"], "--input"), (["counterexample", "verify"], "--fixture")],
    ids=["retract-run", "almost-untwist", "counterexample-verify"],
)
def test_json_nested_past_the_parser_exits_two(tmp_path, capsys, command, flag):
    # json.load recurses once per level and runs out of stack first
    path = tmp_path / "deep.json"
    path.write_text(NESTED)
    assert main(command + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path} is not valid JSON") and err.count("\n") == 1


def _nested(depth):
    label = 0
    for _ in range(depth):
        label = [label]
    return label


def _instance_with_vertex_label(label):
    (doc,) = [doc for doc, command in EXAMPLES if command == ["retract", "run"]]
    return replaced(doc, ("vertices", 0), label)


def test_vertex_label_nested_past_the_cap_exits_two(tmp_path, capsys):
    # 600 levels pass json.load but not the label reader; a recursive reader
    # ran out of stack here
    path = tmp_path / "in.json"
    code, err = _run(["retract", "run"], _instance_with_vertex_label(_nested(600)), path, capsys)
    assert code == 2 and err.startswith("input error: vertices[0] must be") and err.count("\n") == 1
    code, err = _run(["retract", "run"], _instance_with_vertex_label(_nested(MAX_LABEL_DEPTH + 1)), path, capsys)
    assert code == 2 and f"at most {MAX_LABEL_DEPTH} deep" in err


def test_vertex_label_nested_to_the_cap_reads_back(tmp_path, capsys):
    path = tmp_path / "in.json"
    out = tmp_path / "out.json"
    command = ["moves", "subdivide", "--edge", "0", "--out", str(out)]
    assert _run(command, _instance_with_vertex_label(_nested(MAX_LABEL_DEPTH)), path, capsys) == (0, "")
    assert json.loads(out.read_text())["vertices"][0] == _nested(MAX_LABEL_DEPTH)


def test_group_closure_past_the_order_cap_exits_two(tmp_path, capsys, monkeypatch):
    # S_4 (order 24) against a cap of 10: the closure stops at the 11th element
    monkeypatch.setattr(ga, "MAX_GROUP_ORDER", 10)
    one_point = {"points": 1, "action": [[0], [0]]}
    doc = {"group": {"generator_permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]}, "E": one_point, "A": one_point}
    code, err = _run(["almost", "untwist"], doc, tmp_path / "in.json", capsys)
    assert (code, err) == (2, "input error: generator permutations generate more than 10 elements\n")


def test_group_closure_past_the_entry_cap_exits_two(tmp_path, capsys, monkeypatch):
    # C_5 on 5 points against a cap of 20 entries: the closure stops at the
    # 5th element, before it stores 25
    monkeypatch.setattr(ga, "MAX_CLOSURE_ENTRIES", 20)
    one_point = {"points": 1, "action": [[0]]}
    doc = {"group": {"generator_permutations": [[1, 2, 3, 4, 0]]}, "E": one_point, "A": one_point}
    code, err = _run(["almost", "untwist"], doc, tmp_path / "in.json", capsys)
    assert (code, err) == (2, "input error: generator permutations of 5 points need more than 20 entries to close\n")
