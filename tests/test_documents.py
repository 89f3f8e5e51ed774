import json
from fractions import Fraction

import pytest

from nliealg.constructions import LinearFunctional
from nliealg.documents import (
    algebra_document,
    emit_document,
    functional_document,
    ns_document,
    operator_document,
    parse_document,
    representation_document,
)
from nliealg.errors import InputError
from nliealg.linalg import Matrix


def test_algebra_round_trip(sl2_like, three_lie4, trunc_xy):
    for alg in (sl2_like, three_lie4, trunc_xy):
        text = emit_document(algebra_document(alg))
        back = parse_document(text, expect="n_lie_algebra")
        assert back == alg


def test_operator_round_trip(family1):
    text = emit_document(operator_document(family1))
    assert parse_document(text, expect="linear_operator") == family1


def test_functional_round_trip(trace_functional):
    text = emit_document(functional_document(trace_functional))
    back = parse_document(text, expect="functional")
    assert back.coefficients == trace_functional.coefficients


def test_ns_round_trip(lie3, family1):
    from nliealg.ns import ns_from_reynolds
    ns = ns_from_reynolds(lie3, family1)
    text = emit_document(ns_document(ns))
    back = parse_document(text, expect="ns_algebra")
    assert back.curly_table == ns.curly_table
    assert back.square == ns.square


def test_representation_round_trip(three_lie4):
    from nliealg.algebra import adjoint_representation
    rep = adjoint_representation(three_lie4)
    text = emit_document(representation_document(rep))
    back = parse_document(text, expect="representation")
    assert back.tables == rep.tables


def test_emission_is_deterministic(sl2_like):
    a = emit_document(algebra_document(sl2_like))
    b = emit_document(algebra_document(parse_document(a)))
    assert a == b


def test_rationals_travel_as_strings(trunc_x3):
    doc = algebra_document(trunc_x3)
    for entry in doc["brackets"]:
        assert all(isinstance(v, str) for v in entry["value"])
    op = Matrix([[Fraction(1, 2)]])
    assert operator_document(op)["matrix"] == [["1/2"]]


def test_error_pointers():
    doc = {"kind": "n_lie_algebra", "dim": 2, "arity": 2,
           "brackets": [{"on": [1, 2], "value": ["1", "x"]}]}
    with pytest.raises(InputError, match=r"/brackets/0/value/1"):
        parse_document(json.dumps(doc))
    doc["brackets"][0]["value"] = ["1", "0"]
    doc["brackets"][0]["on"] = [2, 1]
    with pytest.raises(InputError, match=r"/brackets/0/on"):
        parse_document(json.dumps(doc))


def test_kind_mismatch_and_unknown_kind():
    with pytest.raises(InputError, match="expected"):
        parse_document(json.dumps({"kind": "functional", "dim": 1,
                                   "coefficients": ["1"]}),
                       expect="n_lie_algebra")
    with pytest.raises(InputError, match="unknown document kind"):
        parse_document(json.dumps({"kind": "mystery"}))


def test_missing_file_and_malformed_json(tmp_path):
    # the text is parsed, never opened as a path; the CLI opens the files
    with pytest.raises(InputError, match="malformed JSON"):
        parse_document(str(tmp_path / "absent.json"))
    with pytest.raises(InputError, match="malformed JSON"):
        parse_document("{not json")


def test_duplicate_bracket_tuple_rejected():
    doc = {"kind": "n_lie_algebra", "dim": 2, "arity": 2, "brackets": [
        {"on": [1, 2], "value": ["1", "0"]},
        {"on": [1, 2], "value": ["0", "1"]},
    ]}
    with pytest.raises(InputError, match="duplicate"):
        parse_document(json.dumps(doc))


def test_wedge_element_merges_terms():
    doc = {"kind": "wedge_element", "dim": 3, "arity": 3, "terms": [
        {"on": [1, 2], "coeff": "1/2"},
        {"on": [1, 2], "coeff": "1/2"},
        {"on": [1, 3], "coeff": "0"},
    ]}
    assert parse_document(json.dumps(doc)) == {(1, 2): Fraction(1)}
