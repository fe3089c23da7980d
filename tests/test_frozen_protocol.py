"""The read-only value protocol has one home: `gtrees._frozen.Frozen`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gtrees"

PROTOCOL = {"__setattr__", "__delattr__", "__reduce__"}


def test_only_frozen_defines_the_write_guards_and_the_copy_hook():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name != "Frozen":
                found += [
                    f"{path.name}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in PROTOCOL
                ]
    assert found == []
