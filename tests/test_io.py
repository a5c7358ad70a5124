"""Document serialization: round trips, shape sniffing, exact error locations."""

import json

import pytest

from convval import (
    DiscreteMeasure,
    MaxAffineFn,
    ParseError,
    Polytope,
    POS_INF,
    Q,
    ValuationSpec,
    conjugate,
)
from convval.io import (
    dump_json,
    function_from_doc,
    function_to_doc,
    lifted_from_doc,
    lifted_to_doc,
    load_path,
    matrix_from_doc,
    matrix_to_doc,
    measure_from_doc,
    measure_to_doc,
    parse_document,
    polytope_from_doc,
    polytope_to_doc,
    valuation_spec_from_doc,
    valuation_spec_to_doc,
    value_from_doc,
    value_to_doc,
    witness_doc,
)
from convval.errors import CapabilityLimit
from convval.linalg import RationalMatrix


def mf(dim, *pieces):
    return MaxAffineFn(dim, [(tuple(Q(v) for v in a), Q(b)) for a, b in pieces])


def test_function_round_trip_identical():
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    doc = function_to_doc(f)
    assert doc["dim"] == 2
    assert all(set(p) == {"a", "b"} for p in doc["pieces"])
    back = function_from_doc(doc)
    assert back == f
    # A second trip is byte-stable.
    assert dump_json(function_to_doc(back)) == dump_json(doc)


def test_function_doc_uses_reduced_strings():
    f = MaxAffineFn(1, [((Q(3, 6),), Q(2))])
    doc = function_to_doc(f)
    assert doc["pieces"][0]["a"] == ["1/2"]
    assert doc["pieces"][0]["b"] == "2/1"


def test_function_doc_parses_unreduced_strings():
    doc = {"dim": 1, "pieces": [{"a": ["3/6"], "b": "0/1"}]}
    f = function_from_doc(doc)
    assert f.pieces[0][0] == (Q(1, 2),)


def test_function_doc_malformed():
    with pytest.raises(ParseError):
        function_from_doc({"dim": 1, "pieces": []})
    with pytest.raises(ParseError):
        function_from_doc({"dim": 1, "pieces": [{"a": ["1/2", "1/3"], "b": "0/1"}]})
    with pytest.raises(ParseError) as info:
        function_from_doc({"dim": 1, "pieces": [{"a": ["1/0"], "b": "0/1"}]})
    assert "pieces[0]" in str(info.value)


def test_polytope_round_trip():
    K = Polytope.hull([(Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))], dim=2)
    doc = polytope_to_doc(K)
    assert polytope_from_doc(doc) == K


def test_lifted_round_trip():
    g = conjugate(mf(1, ((1,), 0), ((-1,), 0)))
    doc = lifted_to_doc(g)
    assert "lifted_vertices" in doc
    assert lifted_from_doc(doc) == g


def test_matrix_round_trip():
    m = RationalMatrix([[Q(1), Q(2)], [Q(0), Q(1)]])
    assert matrix_from_doc(matrix_to_doc(m)) == m


def test_measure_round_trip_and_atom_errors():
    nu = DiscreteMeasure([(1, 1), (-2, Q(1, 2))])
    assert measure_from_doc(measure_to_doc(nu)) == nu
    with pytest.raises(ParseError) as info:
        measure_from_doc({"atoms": [{"s": "0/1", "w": "1/1"}]})
    assert "atoms[0]" in str(info.value)


def test_valuation_spec_round_trip():
    spec = ValuationSpec(
        "contravariant-2d", 2, Q(1, 3), DiscreteMeasure([(1, 1), (-1, 1)])
    )
    doc = valuation_spec_to_doc(spec)
    assert doc["variant"] == "contravariant-2d"
    assert valuation_spec_from_doc(doc) == spec


def test_value_docs_cover_all_kinds():
    samples = [
        Q(3, 4),
        (Q(1), Q(-2)),
        mf(1, ((1,), 0)),
        Polytope.hull([(Q(0),), (Q(1),)], dim=1),
        conjugate(mf(1, ((2,), -1))),
        RationalMatrix.identity(2),
        DiscreteMeasure([(1, 1), (-1, 1)]),
        ValuationSpec("equivariant", 1, Q(0), DiscreteMeasure.empty()),
        True,
        7,
        "inf",
        None,
    ]
    for value in samples:
        doc = value_to_doc(value)
        back = value_from_doc(doc)
        if isinstance(value, tuple):
            assert tuple(back) == value
        else:
            assert back == value or back is value


def test_value_doc_unknown_kind():
    with pytest.raises(ParseError):
        value_from_doc({"kind": "mystery", "value": 1})


@pytest.mark.parametrize("doc", [
    {"kind": "bool"},
    {"kind": "int"},
    {"kind": "str"},
    {"kind": "vector"},
    {"kind": "rational"},
    {"kind": "int", "value": "abc"},
    {"kind": "int", "value": 1.5},
    {"kind": "int", "value": True},
    {"kind": "bool", "value": 1},
    {"kind": "str", "value": 3},
    {"kind": "vector", "value": "1/2"},
    {"kind": "rational", "value": 2},
])
def test_scalar_value_docs_need_a_well_typed_value(doc):
    with pytest.raises(ParseError) as info:
        value_from_doc(doc, where="inputs.x")
    assert info.value.where == "inputs.x.value"


def test_witness_doc_replayable_shape():
    w = witness_doc(
        "example-check",
        {"f": mf(1, ((1,), 0)), "x": (Q(2),)},
        Q(1),
        Q(0),
        note="demo",
    )
    assert set(w) == {"check", "inputs", "lhs", "rhs", "note"}
    assert w["inputs"]["f"]["kind"] == "function"
    assert value_from_doc(w["lhs"]) == Q(1)


def test_parse_document_shape_sniffing():
    f = mf(2, ((1, 0), 0), ((0, 0), 1))
    assert parse_document(function_to_doc(f)) == f
    K = Polytope.hull([(Q(0), Q(0)), (Q(1), Q(1))], dim=2)
    assert parse_document(polytope_to_doc(K)) == K
    g = conjugate(f)
    assert parse_document(lifted_to_doc(g)) == g
    nu = DiscreteMeasure([(2, 1)])
    assert parse_document(measure_to_doc(nu)) == nu
    spec = ValuationSpec("equivariant", 2, Q(0), nu)
    assert parse_document(valuation_spec_to_doc(spec)) == spec
    m = RationalMatrix.identity(3)
    assert parse_document(matrix_to_doc(m)) == m
    w = {"check": "anything", "inputs": {}, "lhs": None, "rhs": None}
    assert parse_document(w) is w
    with pytest.raises(ParseError):
        parse_document({"unknown": 1})
    with pytest.raises(ParseError):
        parse_document([1, 2, 3])


def test_load_path_and_error_location(tmp_path):
    f = mf(1, ((1,), 0), ((-1,), 0))
    p = tmp_path / "f.json"
    p.write_text(dump_json(function_to_doc(f)))
    assert load_path(p) == f
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as info:
        load_path(bad)
    assert "bad.json" in str(info.value)


def test_dump_json_deterministic_formatting():
    doc = {"b": 1, "a": {"z": 2, "y": 3}}
    text = dump_json(doc)
    assert text.endswith("\n")
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert dump_json(doc) == text


def test_pos_inf_round_trips_through_the_codec():
    doc = value_to_doc(POS_INF)
    assert doc == {"kind": "posinf"}
    assert value_from_doc(doc) is POS_INF


@pytest.mark.parametrize("bad", ["abc", "2", 1.5, True, None, [2]])
@pytest.mark.parametrize(
    "parse, doc",
    [
        (function_from_doc, {"pieces": [{"a": ["1/1"], "b": "0/1"}]}),
        (polytope_from_doc, {"vertices": [["0/1"], ["1/1"]]}),
        (lifted_from_doc, {"lifted_vertices": [["0/1", "0/1"]]}),
        (valuation_spec_from_doc,
         {"variant": "equivariant", "c": "0/1", "nu": {"atoms": [{"s": "1/1", "w": "1/1"}]}}),
    ],
)
def test_dim_must_be_a_json_integer(parse, doc, bad):
    with pytest.raises(ParseError) as info:
        parse(dict(doc, dim=bad), where="doc")
    assert info.value.where == "doc.dim"


def test_vertex_length_errors_carry_their_index():
    with pytest.raises(ParseError) as info:
        polytope_from_doc({"dim": 2, "vertices": [["0/1", "0/1"], ["1/1"]]})
    assert info.value.where == "polytope.vertices[1]"
    assert "length 1, expected 2" in str(info.value)
    with pytest.raises(ParseError) as info:
        lifted_from_doc({"dim": 1, "lifted_vertices": [["0/1", "0/1"], ["1/1", "2/1", "3/1"]]})
    assert info.value.where == "lifted.lifted_vertices[1]"
    assert "length 3, expected 2" in str(info.value)


def test_empty_vertex_lists_are_parse_errors_but_size_limits_stay_capability_limits():
    with pytest.raises(ParseError) as info:
        polytope_from_doc({"dim": 2, "vertices": []}, where="doc")
    assert info.value.where == "doc"
    with pytest.raises(ParseError) as info:
        lifted_from_doc({"dim": 1, "lifted_vertices": {}}, where="doc")
    assert info.value.where == "doc"
    for parse, doc in (
        (polytope_from_doc, {"dim": 5, "vertices": [["0/1"] * 5]}),
        (lifted_from_doc, {"dim": 5, "lifted_vertices": [["0/1"] * 6]}),
    ):
        with pytest.raises(CapabilityLimit) as info:
            parse(doc)
        assert not isinstance(info.value, ParseError)
