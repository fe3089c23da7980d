"""`import gtrees` is lazy, each CLI command loads only the modules it runs,
and the package still exports every public name of its submodules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtrees

SRC = Path(__file__).resolve().parent.parent / "src"

# submodule -> the public names `gtrees` takes from it, in `__all__` order
EXPORTS = {
    "words": ["Alphabet", "Word", "conjugate", "cyclic_reduce", "format_word", "multiply", "parse_word", "power_word", "substitute"],
    "stallings": ["CoreGraph", "fold", "from_generators"],
    "gaction": ["FiniteGroup", "GSet", "is_conjugate_incomparable", "is_retract", "retraction_map"],
    "ggraph": ["GGraph", "compress", "geodesic", "reorient", "slide", "subdivide", "validate"],
    "retract": [
        "Filtration", "RetractState", "build_filtration", "check_filtration", "compress_to_U",
        "eliminate_problematic", "make_state", "paths_P", "problematic", "retract_tree",
    ],
    "almost": ["AbelianGroup", "GModule", "check_derivation", "coset_retraction", "hochschild_v", "twisted_gset", "untwist"],
    "counterexample": [
        "ExampleData", "default_data", "documented_mutations", "fixed_point_profile", "verify_all",
        "verify_really", "verify_schreier", "verify_stabilizer_inclusions",
    ],
}

ALL = [name for names in EXPORTS.values() for name in names]


def loaded_submodules(code: str, cwd: Path) -> set[str]:
    """The gtrees.* modules loaded after running `code` in a fresh interpreter."""
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('gtrees.'))))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name[len("gtrees."):] for name in json.loads(proc.stdout.splitlines()[-1])}


def run_cli(argv: list[str]) -> str:
    return f"import gtrees.cli\nassert gtrees.cli.main({argv!r}) == 0"


def test_bare_import_loads_no_submodule(tmp_path):
    assert loaded_submodules("import gtrees", tmp_path) == set()


def test_stallings_commands_load_no_gtree_code(tmp_path):
    loaded = loaded_submodules(run_cli(["stallings", "member", "x^2,y^2", "xy"]), tmp_path)
    assert loaded == {"cli", "errors", "words", "stallings", "unionfind"}


def test_counterexample_verify_loads_no_gtree_code(tmp_path):
    loaded = loaded_submodules(run_cli(["counterexample", "verify", "--n-max", "2"]), tmp_path)
    assert not loaded & {"gaction", "ggraph", "retract", "almost"}
    assert "counterexample" in loaded


def test_moves_commands_load_no_retract_or_free_group_code(tmp_path):
    from gtrees.ggraph import ggraph_to_json, tree_with_trivial_group

    (tmp_path / "t.json").write_text(json.dumps(ggraph_to_json(tree_with_trivial_group([(0, 1), (1, 2)]))))
    loaded = loaded_submodules(run_cli(["moves", "subdivide", "--input", "t.json", "--edge", "0"]), tmp_path)
    assert not loaded & {"retract", "almost", "counterexample", "stallings", "words"}
    assert {"gaction", "ggraph"} <= loaded


def test_almost_commands_load_no_gtree_or_free_group_code(tmp_path):
    from gtrees.gaction import FiniteGroup, group_to_json

    doc = {"group": group_to_json(FiniteGroup.cyclic(2)), "module": {"factors": [4], "action": [[[-1]]]}, "derivation": [0, 1]}
    (tmp_path / "d.json").write_text(json.dumps(doc))
    loaded = loaded_submodules(run_cli(["almost", "check-derivation", "--input", "d.json"]), tmp_path)
    assert not loaded & {"ggraph", "retract", "counterexample", "stallings", "words"}
    assert {"gaction", "almost"} <= loaded


def test_all_lists_every_export_once_in_order():
    assert gtrees.__all__ == ALL
    assert len(ALL) == len(set(ALL)) == 49


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_the_submodule_object(module):
    mod = importlib.import_module(f"gtrees.{module}")
    for name in EXPORTS[module]:
        assert getattr(gtrees, name) is getattr(mod, name), name


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from gtrees import *", namespace)
    assert set(ALL) <= set(namespace)
    assert set(ALL) <= set(dir(gtrees))


def test_submodule_attribute_after_bare_import(tmp_path):
    probe = "import gtrees\nassert gtrees.retract.retract_tree is gtrees.retract_tree\nassert gtrees.words.Word is gtrees.Word"
    assert {"retract", "words"} <= loaded_submodules(probe, tmp_path)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'retract_forest'"):
        gtrees.retract_forest
    assert not hasattr(gtrees, "_no_such_name")
