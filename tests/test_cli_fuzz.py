"""Seeded fuzzing of the CLI's JSON inputs.

Each JSON example of the README, and the counterexample fixture, is mutated
once per run (a dropped key or list entry, a value of the wrong type, a small
out-of-range integer, or a boolean) and fed to `cli.main()` in process.
Whatever the input, the exit code is 0, 2 or 3 (or 1, a failed verification,
for the fixture), no exception escapes, and a failure is one stderr line.
"""

import copy
import json
import random
import re
from pathlib import Path

import pytest

from gtrees.cli import main
from gtrees.counterexample import default_data

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
