import json

import pytest

import gtrees.almost as almost
import gtrees.retract
from gtrees.cli import main
from gtrees.counterexample import default_data, documented_mutations
from gtrees.gaction import FiniteGroup, GSet, group_to_json, gset_to_json
from gtrees.ggraph import ggraph_from_json, ggraph_to_json, tree_with_trivial_group


def make_instance_doc(u=(0,)):
    t = tree_with_trivial_group([(2, 3), (0, 1), (1, 2)])
    doc = ggraph_to_json(t)
    doc["retract_U"] = list(u)
    return doc


def test_stallings_core_counts(capsys):
    assert main(["stallings", "core", "x^2,y^2"]) == 0
    out = capsys.readouterr().out
    assert "3 vertices, 4 edges" in out


def test_stallings_core_dot_export(tmp_path, capsys):
    dot = tmp_path / "core.dot"
    assert main(["stallings", "core", "x^4,xyx,y^4", "--dot", str(dot)]) == 0
    assert "7 vertices, 9 edges" in capsys.readouterr().out
    assert dot.read_text().startswith("digraph")


def test_stallings_member(capsys):
    assert main(["stallings", "member", "x^2,y^2", "xy"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["stallings", "member", "x^2,y^2", "x^2y^2"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_stallings_census(capsys):
    assert main(["stallings", "census", "x^2,y^2", "x^2y^2x^2"]) == 0
    assert json.loads(capsys.readouterr().out) == ["H1"]
    assert main(["stallings", "census", "x^2,y^2", "xyx"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_stallings_parse_error_exit_code(capsys):
    assert main(["stallings", "member", "x^2,y^2", "z^3"]) == 2


def test_counterexample_verify_ok(capsys):
    assert main(["counterexample", "verify", "--n-max", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("n_max", ["-3", "257"])
def test_counterexample_verify_depth_out_of_range_exits_two(capsys, n_max):
    assert main(["counterexample", "verify", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: n_max must lie between 0 and 256")


def test_stallings_member_huge_exponent(capsys):
    assert main(["stallings", "member", "x^2,y^2", "x^" + "9" * 30]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["stallings", "member", "x^2,y^2", "x^" + "9" * 29 + "8"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_counterexample_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["counterexample", "verify", "--n-max", "2", "--report", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert all({"name", "n", "expected", "computed", "pass"} <= set(c) for c in doc["checks"])


def test_counterexample_mutated_fixture_fails(tmp_path, capsys):
    mut = documented_mutations(default_data())["relator-base-rhs"]
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(mut.to_json()))
    assert main(["counterexample", "verify", "--n-max", "3", "--fixture", str(fixture)]) == 1


def test_counterexample_fixture_with_one_t_image_is_a_mismatch(tmp_path, capsys):
    doc = {**default_data().to_json(), "t_images": ["x^8"]}
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(doc))
    assert main(["counterexample", "verify", "--n-max", "2", "--fixture", str(fixture)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] really.derive n=0" in captured.out and captured.err == ""


def test_almost_factors_over_the_cap_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(almost, "MAX_ABELIAN_ORDER", 8)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(_derivation_doc([16])))
    assert main(["almost", "check-derivation", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "input error: cyclic factors multiply to more than 8 elements\n"


def test_retract_run_single_edge(tmp_path, capsys):
    doc = make_instance_doc()
    inp = tmp_path / "inst.json"
    out = tmp_path / "result.json"
    trace = tmp_path / "moves.log"
    inp.write_text(json.dumps(doc))
    assert main(["retract", "run", "--input", str(inp), "--out", str(out), "--trace", str(trace)]) == 0
    result = json.loads(out.read_text())
    assert len(result["tree"]["vertices"]) == 1
    assert result["moves"] >= 1
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert all({"kind", "detail", "pre", "post"} <= set(entry) for entry in lines)
    assert any(entry["kind"] == "compress" for entry in lines)


def test_retract_run_invalid_u_exit_three(tmp_path):
    g = FiniteGroup.cyclic(2)
    vertices = GSet.from_generator_images(g, 3, [[1, 0, 2]])
    edges = GSet.from_generator_images(g, 2, [[1, 0]])
    doc = {
        "group": group_to_json(g),
        "vertices": [0, 1, 2],
        "edges": [0, 1],
        "iota": [0, 1],
        "tau": [2, 2],
        "action": {"vertices": [[1, 0, 2]], "edges": [[1, 0]]},
        "retract_U": [0, 1],
    }
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps(doc))
    assert main(["retract", "run", "--input", str(inp)]) == 3


def test_retract_run_schema_error_exit_two(tmp_path):
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps({"vertices": 3}))
    assert main(["retract", "run", "--input", str(inp)]) == 2
    inp.write_text("{nope")
    assert main(["retract", "run", "--input", str(inp)]) == 2


def test_retract_run_bad_incidence_exit_two(tmp_path, capsys):
    inp = tmp_path / "inst.json"
    for tau in (["1", 2, 3], [1, 2, 4], [1, 2, -1], [1, 2, 3.0], [1, 2, True], 7):
        doc = make_instance_doc()
        doc["tau"] = tau
        inp.write_text(json.dumps(doc))
        assert main(["retract", "run", "--input", str(inp)]) == 2, tau
        assert "input error" in capsys.readouterr().err


def test_retract_run_deterministic(tmp_path):
    doc = make_instance_doc(u=(0, 3))
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps(doc))
    outs = []
    for k in range(2):
        out = tmp_path / f"res{k}.json"
        assert main(["--seed", "7", "retract", "run", "--input", str(inp), "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_moves_slide_and_subdivide(tmp_path, capsys):
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    inp = tmp_path / "t.json"
    inp.write_text(json.dumps(ggraph_to_json(t)))
    out = tmp_path / "slid.json"
    assert main(["moves", "slide", "--input", str(inp), "--edge", "0", "--along", "1", "--out", str(out)]) == 0
    slid = ggraph_from_json(json.loads(out.read_text()))
    assert slid.tau == (2, 2)
    assert main(["moves", "subdivide", "--input", str(inp), "--edge", "0", "--out", str(out)]) == 0
    sub = ggraph_from_json(json.loads(out.read_text()))
    assert sub.n_vertices == 4 and sub.n_edges == 3
    assert main(["moves", "slide", "--input", str(inp), "--edge", "1", "--along", "0"]) == 3


def test_moves_subdivide_twice_reads_nested_labels(tmp_path, capsys):
    # a second subdivision labels its new vertex ("mid", ("half2", 0)): JSON
    # nests the lists, and reading it back must give hashable labels
    t = tree_with_trivial_group([(0, 1), (1, 2)])
    inp = tmp_path / "t.json"
    inp.write_text(json.dumps(ggraph_to_json(t)))
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["moves", "subdivide", "--input", str(inp), "--edge", "0", "--out", str(once)]) == 0
    assert main(["moves", "subdivide", "--input", str(once), "--edge", "2", "--out", str(twice)]) == 0
    assert main(["moves", "subdivide", "--input", str(twice), "--edge", "0"]) == 0
    sub = ggraph_from_json(json.loads(twice.read_text()))
    assert sub.n_vertices == 5 and ("mid", ("half2", 0)) in sub.vertices.labels


def test_moves_compress_and_reorient(tmp_path, capsys):
    t = tree_with_trivial_group([(1, 0), (1, 2)])
    inp = tmp_path / "t.json"
    inp.write_text(json.dumps(ggraph_to_json(t)))
    out = tmp_path / "res.json"
    assert main(["moves", "compress", "--input", str(inp), "--keep", "1", "--out", str(out)]) == 0
    res = ggraph_from_json(json.loads(out.read_text()))
    assert res.n_vertices == 2 and res.n_edges == 1
    assert main(["moves", "reorient", "--input", str(inp), "--flips", "0,1", "--out", str(out)]) == 0
    flipped = ggraph_from_json(json.loads(out.read_text()))
    assert flipped.iota == (0, 2)


def test_almost_check_derivation(tmp_path, capsys):
    g = FiniteGroup.cyclic(2)
    doc = {
        "group": group_to_json(g),
        "module": {"factors": [4], "action": [[[-1]]]},
        "derivation": [0, 1],
    }
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps(doc))
    assert main(["almost", "check-derivation", "--input", str(inp)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    doc["derivation"] = [1, 0]
    inp.write_text(json.dumps(doc))
    assert main(["almost", "check-derivation", "--input", str(inp)]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_almost_untwist(tmp_path, capsys):
    g = FiniteGroup.cyclic(3)
    e = GSet.regular(g)
    a = GSet.from_generator_images(g, 3, [[1, 2, 0]])
    doc = {
        "group": group_to_json(g),
        "E": gset_to_json(e),
        "A": gset_to_json(a),
        "function": [0, 1, 2],
    }
    inp = tmp_path / "u.json"
    inp.write_text(json.dumps(doc))
    assert main(["almost", "untwist", "--input", str(inp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["round_trip_ok"] is True
    assert len(out["hat"]) == 3


def test_almost_missing_keys_exit_two(tmp_path, capsys):
    inp = tmp_path / "bad.json"
    for sub, doc in (
        ("untwist", {"E": {}}),
        ("untwist", [1, 2]),
        ("check-derivation", {"derivation": [0]}),
    ):
        inp.write_text(json.dumps(doc))
        assert main(["almost", sub, "--input", str(inp)]) == 2, (sub, doc)
        assert "input error" in capsys.readouterr().err


def _derivation_doc(factors):
    return {
        "group": group_to_json(FiniteGroup.cyclic(2)),
        "module": {"factors": factors, "action": [[[-1]]]},
        "derivation": [0, 1],
    }


def _untwist_doc(function):
    g = FiniteGroup.cyclic(3)
    return {
        "group": group_to_json(g),
        "E": gset_to_json(GSet.regular(g)),
        "A": gset_to_json(GSet.from_generator_images(g, 3, [[1, 2, 0]])),
        "function": function,
    }


@pytest.mark.parametrize(
    "points, message",
    [
        ([0, 0, 1], "E.points[1] repeats the label of E.points[0]"),
        ([{"a": 1}, 1, 2], "E.points[0] must be a number, string or list of them"),
    ],
    ids=["duplicate", "object"],
)
def test_gset_labels_follow_the_instance_label_rule(tmp_path, capsys, points, message):
    # G-set points and G-tree vertices are read by one labels reader, so a
    # repeated or object label exits 2 in both (untwist used to accept them)
    doc = _untwist_doc([0, 1, 2])
    doc["E"]["points"] = points
    inp = tmp_path / "u.json"
    inp.write_text(json.dumps(doc))
    assert main(["almost", "untwist", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1
    doc = _instance_doc(vertices=[0, 1, 1, 3] if points == [0, 0, 1] else [0, 1, {"a": 1}, 3])
    inp.write_text(json.dumps(doc))
    assert main(["retract", "run", "--input", str(inp)]) == 2
    assert capsys.readouterr().err.startswith("input error: vertices[2] ")


def _untwist_element_rows_doc(row, points=2):
    return {
        "group": {"generator_permutations": [[1, 0]]},
        "E": {"points": points, "action": [[0, 1], row]},
        "A": {"points": 2, "action": [[0, 1]]},
    }


def _instance_doc(**changes):
    doc = make_instance_doc()
    doc.update(changes)
    return doc


def _untwist_group_doc(group):
    one_point = {"points": 1, "action": [[0]]}
    return {"group": group, "E": one_point, "A": one_point}


@pytest.mark.parametrize(
    "command, doc",
    [
        (["almost", "check-derivation"], _derivation_doc(["a"])),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "module": {"factors": [4], "action": [[["a"]]]}}),
        (["almost", "untwist"], _untwist_element_rows_doc(["a", 0])),
        (["almost", "untwist"], _untwist_element_rows_doc([1, 2])),
        (["almost", "untwist"], _untwist_doc(5)),
        (["almost", "untwist"], _untwist_doc([0, 1, 3])),
        (["retract", "run"], _instance_doc(action={"vertices": [["a", 1, 2, 3]], "edges": [[0, 1, 2]]})),
        (["retract", "run"], _instance_doc(retract_U=[4])),
        (["retract", "run"], _instance_doc(retract_U=[-1])),
        (["retract", "run"], _instance_doc(retract_U=[False])),
        (["retract", "run"], _instance_doc(retract_U=[True])),
        (["almost", "untwist"], _untwist_group_doc({"generator_permutations": [["a", 0]]})),
        (["almost", "untwist"], _untwist_group_doc({"mult_table": 5})),
        (["almost", "untwist"], _untwist_group_doc({"mult_table": [[0]], "generators": "0"})),
        (["counterexample", "verify"], {"gu_gens": 5}),
        (["counterexample", "verify"], {**default_data().to_json(), "base_lhs": 3}),
        (["counterexample", "verify"], {**default_data().to_json(), "tau_e_exp": "two"}),
        (["counterexample", "verify"], [1, 2]),
        (["retract", "run"], _instance_doc(vertices="abcd")),
        (["retract", "run"], _instance_doc(edges=2.5)),
        (["retract", "run"], _instance_doc(vertices=[0, 1, {"a": 1}, 3])),
        (["retract", "run"], _instance_doc(action={"vertices": 5, "edges": [[0, 1, 2]]})),
        (["moves", "subdivide", "--edge", "0"], 5),
        (["retract", "run"], 5),
        (["almost", "untwist"], {**_untwist_doc([0, 1, 2]), "A": {"points": 2.5, "action": [[0, 1]]}}),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "module": "factors action"}),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "module": ["factors", "action"]}),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "derivation": ["a", 1]}),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "derivation": [0, 99]}),
        (["almost", "check-derivation"], {**_derivation_doc([4]), "derivation": [0, True]}),
        (["almost", "untwist"], {**_untwist_doc([0, 1, 2]), "transversal": "x"}),
        (["almost", "untwist"], {**_untwist_doc([0, 1, 2]), "transversal": [True]}),
        (["almost", "untwist"], {**_untwist_doc([0, 1, 2]), "transversal": [5]}),
        (["counterexample", "verify"], {**default_data().to_json(), "tau_e_exp": 1.5}),
        (["counterexample", "verify"], {**default_data().to_json(), "tau_f_exp": True}),
        (["counterexample", "verify"], {**default_data().to_json(), "tau_e_exp": "2"}),
        (["almost", "untwist"], _untwist_element_rows_doc([1, 0], points=10**6)),
        (["almost", "untwist"], _untwist_doc(None)),
        (["almost", "untwist"], _untwist_group_doc({"mult_table": None, "generator_permutations": [[0]]})),
        (["almost", "untwist"], _untwist_group_doc({"mult_table": [[0]], "order": None})),
        (["almost", "untwist"], _untwist_group_doc({"mult_table": [[0]], "order": True})),
        (["counterexample", "verify"], {**default_data().to_json(), "tau_e_exp": None}),
        (
            ["almost", "untwist"],
            {
                "group": {"mult_table": [[0, 1], [1, 0]]},
                "E": {"points": 2, "action": [[1, 0], [1, 0]]},
                "A": {"points": 1, "action": [[0], [0]]},
                "function": [0, 0],
            },
        ),
    ],
    ids=[
        "factor-not-int", "matrix-entry-not-int", "element-row-not-int", "element-row-range", "function-not-list",
        "function-value-range", "action-not-int", "u-too-big", "u-negative", "u-false", "u-true",
        "permutation-not-int",
        "mult-table-not-list", "generators-not-list", "fixture-words-not-list", "fixture-word-not-text",
        "fixture-exponent-not-int", "fixture-not-object", "vertices-text", "edges-float", "label-object",
        "action-rows-not-list", "instance-not-object", "retract-instance-not-object",
        "points-float", "module-text", "module-list", "derivation-not-int", "derivation-range",
        "derivation-bool", "transversal-text", "transversal-bool", "transversal-range",
        "fixture-exponent-float", "fixture-exponent-bool", "fixture-exponent-text",
        "points-past-rows", "function-null", "mult-table-null", "order-null", "order-bool", "fixture-exponent-null",
        "identity-generator-image",
    ],
)
def test_malformed_input_exits_two_with_one_line(tmp_path, capsys, command, doc):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    flag = "--fixture" if command[0] == "counterexample" else "--input"
    assert main(command + [flag, str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_unexpected_exception_exits_four_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(tree, u):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(gtrees.retract, "retract_tree", broken)
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps(make_instance_doc()))
    assert main(["retract", "run", "--input", str(inp)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: first line second line\n"


@pytest.mark.parametrize(
    "command",
    [
        ["retract", "run", "--input", "{inst}", "--out", "{bad}"],
        ["retract", "run", "--input", "{inst}", "--trace", "{bad}"],
        ["stallings", "core", "x^2,y", "--dot", "{bad}"],
        ["counterexample", "verify", "--n-max", "2", "--out", "{bad}"],
        ["retract", "run", "--input", "{inst}", "--out", "{tmp}/res.json", "--trace", "{bad}"],
        ["retract", "run", "--input", "{inst}", "--trace", "{tmp}/moves.log", "--out", "{bad}"],
    ],
    ids=["json-out", "retract-trace", "stallings-dot", "verify-text-out", "out-then-bad-trace", "trace-then-bad-out"],
)
def test_unwritable_output_path_exits_two_with_one_line(tmp_path, capsys, command):
    # and the failed command writes no other output file and prints nothing
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps(make_instance_doc()))
    bad = tmp_path / "missing" / "out.txt"
    argv = [a.format(inst=inp, tmp=tmp_path, bad=bad) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: cannot write {bad}: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]


def test_failed_command_keeps_an_existing_output_file(tmp_path, capsys):
    inp = tmp_path / "inst.json"
    inp.write_text(json.dumps(make_instance_doc()))
    res = tmp_path / "res.json"
    res.write_text("earlier result\n")
    bad = tmp_path / "missing" / "t.log"
    assert main(["retract", "run", "--input", str(inp), "--out", str(res), "--trace", str(bad)]) == 2
    assert capsys.readouterr().out == ""
    assert res.read_text() == "earlier result\n"
