"""Command-line interface: every verb end to end, exit codes, determinism."""

import json

import pytest

from convval import DiscreteMeasure, MaxAffineFn, Q, ValuationSpec
from convval.cli import main
from convval.suites import run_suite
from convval.io import (
    dump_json,
    function_to_doc,
    lifted_from_doc,
    function_from_doc,
    polytope_to_doc,
    valuation_spec_to_doc,
    witness_doc,
)
from convval import Polytope, difference_body


@pytest.fixture
def files(tmp_path):
    """Standard input documents used across verbs."""
    paths = {}

    absval = MaxAffineFn(1, [((Q(1),), Q(0)), ((Q(-1),), Q(0))])
    paths["absval"] = tmp_path / "absval.json"
    paths["absval"].write_text(dump_json(function_to_doc(absval)))

    three = MaxAffineFn(
        2, [((Q(1), Q(0)), Q(1)), ((Q(-1), Q(0)), Q(0)), ((Q(0), Q(1)), Q(0))]
    )
    paths["three"] = tmp_path / "three.json"
    paths["three"].write_text(dump_json(function_to_doc(three)))

    square = Polytope.hull([(Q(a), Q(b)) for a in (0, 1) for b in (0, 1)], dim=2)
    paths["square"] = tmp_path / "square.json"
    paths["square"].write_text(dump_json(polytope_to_doc(square)))

    spec = ValuationSpec("equivariant", 1, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))
    paths["spec1d"] = tmp_path / "spec1d.json"
    paths["spec1d"].write_text(dump_json(valuation_spec_to_doc(spec)))

    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_function_at_point(capsys, files):
    code, out, err = run(capsys, "eval", files["three"], "--point", "1,0")
    assert code == 0
    assert "2" in out


def test_eval_machine_format(capsys, files):
    # Values starting with a dash use the --point=value spelling.
    code, out, _ = run(capsys, "eval", files["absval"], "--point=-3/2", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "rational", "value": "3/2"}


def test_eval_outside_conjugate_domain_reports_inf(capsys, files, tmp_path):
    code, out, _ = run(capsys, "conjugate", files["absval"], "--out", tmp_path / "conj.json")
    assert code == 0
    code, out, _ = run(capsys, "eval", tmp_path / "conj.json", "--point", "2")
    assert code == 0
    assert "inf" in out


def test_conjugate_round_trip_files(capsys, files, tmp_path):
    conj = tmp_path / "conj.json"
    code, _, _ = run(capsys, "conjugate", files["absval"], "--out", conj)
    assert code == 0
    doc = json.loads(conj.read_text())
    g = lifted_from_doc(doc)
    assert g.vertices == ((Q(-1), Q(0)), (Q(1), Q(0)))
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "conjugate", conj, "--out", back)
    assert code == 0
    f = function_from_doc(json.loads(back.read_text()))
    assert {(tuple(a), b) for a, b in f.pieces} == {((Q(1),), Q(0)), ((Q(-1),), Q(0))}


def test_diffbody_and_projbody(capsys, files):
    code, out, _ = run(capsys, "diffbody", files["square"], "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    verts = {tuple(v) for v in doc["vertices"]}
    assert verts == {
        ("-1/1", "-1/1"),
        ("-1/1", "1/1"),
        ("1/1", "-1/1"),
        ("1/1", "1/1"),
    }
    code, out, _ = run(
        capsys, "projbody", files["square"], "--direction", "1,0", "--format", "machine"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "rational", "value": "1/1"}


def test_psi_value_and_expansion(capsys, files):
    code, out, _ = run(
        capsys, "psi", files["spec1d"], files["absval"], "--point", "2", "--format", "machine"
    )
    assert code == 0
    assert json.loads(out) == {"kind": "rational", "value": "4/1"}
    code, out, _ = run(capsys, "psi", files["spec1d"], files["absval"], "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    f = function_from_doc(doc)
    assert f((Q(3),)) == Q(6)


def test_check_verb_passes_and_is_deterministic(capsys):
    code, out1, _ = run(
        capsys, "check", "--suite", "thm-b", "--seed", "3", "--trials", "2",
        "--format", "machine",
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "check", "--suite", "thm-b", "--seed", "3", "--trials", "2",
        "--format", "machine",
    )
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failures"] == 0


def test_check_verb_human_report(capsys):
    code, out, _ = run(capsys, "check", "--suite", "cor-e", "--seed", "1", "--trials", "1")
    assert code == 0
    assert "PASS" in out


def test_falsify_finds_witness_and_exits_zero(capsys, tmp_path):
    wpath = tmp_path / "witness.json"
    code, out, _ = run(
        capsys, "falsify", "--dim", "3", "--budget", "1000", "--format", "machine",
        "--out", wpath,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "contravariance-gap"
    saved = json.loads(wpath.read_text())
    assert saved == doc


def test_falsify_budget_exhausted_exits_one(capsys):
    code, out, _ = run(capsys, "falsify", "--dim", "3", "--budget", "1", "--format", "machine")
    assert code == 1
    doc = json.loads(out)
    assert doc == {"found": False, "tried": 1}


def test_replay_verb_round_trip(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, _, _ = run(capsys, "falsify", "--dim", "3", "--out", wpath)
    assert code == 0
    code, out, _ = run(capsys, "replay", wpath, "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["lhs"] == doc["recorded_lhs"]


def test_parse_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"pieces\": [], \"dim\": 1}")
    code, out, err = run(capsys, "eval", bad, "--point", "0")
    assert code == 2
    assert "error" in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "eval", tmp_path / "nope.json", "--point", "0")
    assert code == 2
    assert "error" in err


def test_wrong_document_shape_exits_two(capsys, files):
    # A polytope where a function is expected.
    code, out, err = run(capsys, "eval", files["square"], "--point", "0,0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("bad", ["abc", 1.5, True])
def test_malformed_dim_exits_two_with_location(capsys, files, bad):
    function = {"dim": bad, "pieces": [{"a": ["1/1"], "b": "0/1"}]}
    lifted = {"dim": bad, "lifted_vertices": [["0/1", "0/1"], ["1/1", "1/1"]]}
    polytope = {"dim": bad, "vertices": [["0/1"], ["1/1"]]}
    spec = {"variant": "equivariant", "dim": bad, "c": "0/1",
            "nu": {"atoms": [{"s": "1/1", "w": "1/1"}]}}
    paths = {}
    for name, doc in (("function", function), ("lifted", lifted),
                      ("polytope", polytope), ("spec", spec)):
        paths[name] = files["dir"] / f"bad_{name}.json"
        paths[name].write_text(json.dumps(doc))
    for argv in (
        ("eval", paths["function"], "--point", "0"),
        ("eval", paths["lifted"], "--point", "0"),
        ("diffbody", paths["polytope"]),
        ("projbody", paths["polytope"], "--direction", "1"),
        ("psi", paths["spec"], files["absval"], "--point", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert ".dim: expected an integer dimension" in err, argv


def test_eval_point_of_wrong_length_exits_two_at_the_flag(capsys, files):
    code, out, err = run(capsys, "eval", files["three"], "--point", "1,2,3")
    assert code == 2
    assert err == "error: --point: point has length 3, expected 2\n"


def test_psi_dim_mismatch_exits_two_at_the_function_or_flag(capsys, files):
    code, out, err = run(capsys, "psi", files["spec1d"], files["three"], "--point", "1")
    assert code == 2
    assert err == f"error: {files['three']}: function dim 2, valuation dim 1\n"
    code, out, err = run(capsys, "psi", files["spec1d"], files["three"])
    assert code == 2
    assert err == f"error: {files['three']}: function dim 2, valuation dim 1\n"
    code, out, err = run(capsys, "psi", files["spec1d"], files["absval"], "--point", "1,2")
    assert code == 2
    assert err == "error: --point: point has length 2, expected 1\n"


def test_projbody_direction_of_wrong_length_exits_two_at_the_flag(capsys, files):
    code, out, err = run(capsys, "projbody", files["square"], "--direction", "1")
    assert code == 2
    assert err == "error: --direction: direction has length 1, expected 2\n"


def test_vertex_length_error_exits_two_with_location(capsys, files):
    bad = files["dir"] / "short_vertex.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [["0/1", "0/1"], ["1/1"]]}))
    code, out, err = run(capsys, "diffbody", bad)
    assert code == 2
    assert "vertices[1]: point has length 1, expected 2" in err
    bad = files["dir"] / "short_lifted.json"
    bad.write_text(json.dumps({"dim": 1, "lifted_vertices": [["0/1", "0/1"], ["1/1"]]}))
    code, out, err = run(capsys, "eval", bad, "--point", "0")
    assert code == 2
    assert "lifted_vertices[1]: point has length 1, expected 2" in err


def test_empty_vertex_lists_exit_two_with_location(capsys, files):
    polytope = files["dir"] / "no_vertices.json"
    polytope.write_text(json.dumps({"dim": 2, "vertices": []}))
    lifted = files["dir"] / "no_lifted_vertices.json"
    lifted.write_text(json.dumps({"dim": 1, "lifted_vertices": {}}))
    lifted_list = files["dir"] / "empty_lifted_vertices.json"
    lifted_list.write_text(json.dumps({"dim": 1, "lifted_vertices": []}))
    for argv, path in (
        (("diffbody", polytope), polytope),
        (("projbody", polytope, "--direction", "1,0"), polytope),
        (("eval", lifted, "--point", "0"), lifted),
        (("conjugate", lifted), lifted),
        (("conjugate", lifted_list), lifted_list),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: {path}: "), (argv, err)
        assert "Traceback" not in err


def test_replay_of_unknown_or_case_error_witness_exits_two(capsys, files):
    unknown = files["dir"] / "unknown_check.json"
    unknown.write_text(json.dumps({"check": "unheard-of", "inputs": {}, "lhs": None, "rhs": None}))
    code, out, err = run(capsys, "replay", unknown)
    assert code == 2
    assert "check: no replay rule for check 'unheard-of'" in err
    crashed = files["dir"] / "case_error.json"
    crashed.write_text(json.dumps(witness_doc("case-error", {"case": "thm-a/x"},
                                              "ZeroDivisionError", "boom", "")))
    code, out, err = run(capsys, "replay", crashed)
    assert code == 2
    assert "check: a case-error witness" in err and "not replayable" in err


def test_replay_with_missing_or_unexpected_input_exits_two(capsys, files):
    missing = files["dir"] / "missing.json"
    missing.write_text(json.dumps({"check": "equivariance", "inputs": {},
                                   "lhs": None, "rhs": None}))
    code, out, err = run(capsys, "replay", missing)
    assert code == 2
    assert err.startswith("error: inputs.spec: ") and "Traceback" not in err
    rep = run_suite("thm-b", seed=1, trials=1)
    extra = dict(rep.exhibits[0])
    extra["inputs"] = dict(extra["inputs"], h=extra["inputs"]["f"])
    unexpected = files["dir"] / "unexpected.json"
    unexpected.write_text(json.dumps(extra))
    code, out, err = run(capsys, "replay", unexpected)
    assert code == 2
    assert err.startswith("error: inputs.h: ")
    for inputs, where in ((dict(rep.exhibits[0]["inputs"], x=5), "inputs.x"), ([], "inputs")):
        unexpected.write_text(json.dumps(dict(extra, inputs=inputs)))
        code, out, err = run(capsys, "replay", unexpected)
        assert code == 2
        assert err.startswith(f"error: {where}: ")


def test_replay_with_wrong_input_kind_or_valueless_scalar_exits_two(capsys, files):
    # The kind of an input is per check: `expected` is a polytope for
    # difference-exact and a rational for projection-exact.
    gap = run_suite("thm-b", seed=1, trials=1).exhibits[0]
    square = Polytope.hull([(Q(a), Q(b)) for a in (0, 1) for b in (0, 1)], dim=2)
    D = difference_body(square)
    diff = witness_doc("difference-exact", {"P": square, "expected": D}, D, D)
    proj = witness_doc("projection-exact", {"P": square, "u": (Q(1), Q(0)), "expected": Q(1)},
                       Q(1), Q(1))
    ratio = witness_doc("volume-ratio", {"P": square, "factor": 4}, Q(4), Q(4))
    bad = files["dir"] / "bad_kind.json"
    for doc, key, value, where in (
        (gap, "spec", {"kind": "int", "value": 1}, "inputs.spec"),
        (diff, "expected", proj["inputs"]["expected"], "inputs.expected"),
        (proj, "expected", diff["inputs"]["expected"], "inputs.expected"),
        (ratio, "factor", {"kind": "int"}, "inputs.factor.value"),
        (ratio, "factor", {"kind": "int", "value": "abc"}, "inputs.factor.value"),
        (ratio, "factor", {"kind": "bool"}, "inputs.factor"),
    ):
        bad.write_text(json.dumps(dict(doc, inputs=dict(doc["inputs"], **{key: value}))))
        code, out, err = run(capsys, "replay", bad)
        assert code == 2, (key, value)
        assert err.startswith(f"error: {where}: ") and "Traceback" not in err, err
    for doc in (gap, diff, proj, ratio):
        bad.write_text(json.dumps(doc))
        assert run(capsys, "replay", bad)[0] == 0, doc["check"]


def test_falsify_witness_is_the_thm_b_exhibit(capsys, tmp_path):
    wpath = tmp_path / "gap.json"
    code, _, _ = run(capsys, "falsify", "--out", wpath)
    assert code == 0
    exhibit = run_suite("thm-b", seed=0, trials=1).exhibits[0]
    assert exhibit["check"] == "contravariance-gap"
    recorded = {k: v for k, v in exhibit.items() if k not in ("case", "index")}
    assert json.loads(wpath.read_text()) == recorded
