import json
from fractions import Fraction

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from nliealg.documents import (
    Report,
    algebra_document,
    emit_document,
    functional_document,
    ns_document,
    operator_document,
    parse_document,
    representation_document,
    wedge_document,
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
    for kind in ("mystery", [], {"n_lie_algebra": 1}, None):
        with pytest.raises(InputError, match="unknown document kind"):
            parse_document(json.dumps({"kind": kind}))


def test_missing_file_and_malformed_json(tmp_path):
    # the text is parsed, never opened as a path; the CLI opens the files
    with pytest.raises(InputError, match="malformed JSON"):
        parse_document(str(tmp_path / "absent.json"))
    with pytest.raises(InputError, match="malformed JSON"):
        parse_document("{not json")


def test_duplicate_bracket_tuple_rejected():
    """In every table but the terms of a wedge element, which add up
    (``test_wedge_element_merges_terms``), a repeated key is an error."""
    doc = {"kind": "n_lie_algebra", "dim": 2, "arity": 2, "brackets": [
        {"on": [1, 2], "value": ["1", "0"]},
        {"on": [1, 2], "value": ["0", "1"]},
    ]}
    duplicated = [
        doc,
        {"kind": "representation", "algebra_dim": 2, "module_dim": 1,
         "tables": [{"on": [1], "matrix": [["1"]]}, {"on": [1], "matrix": [["2"]]}]},
        {"kind": "ns_algebra", "dim": 2, "curly": [{"wedge": [1], "last": 2, "value": ["1", "0"]}] * 2},
        {"kind": "ns_algebra", "dim": 2, "square": [{"on": [1, 2], "value": ["1", "0"]}] * 2},
    ]
    for doc in duplicated:
        with pytest.raises(InputError, match="duplicate"):
            parse_document(json.dumps(doc))


def test_wedge_element_merges_terms():
    doc = {"kind": "wedge_element", "dim": 3, "arity": 3, "terms": [
        {"on": [1, 2], "coeff": "1/2"},
        {"on": [1, 2], "coeff": "1/2"},
        {"on": [1, 3], "coeff": "0"},
    ]}
    assert parse_document(json.dumps(doc)) == (3, 3, {(1, 2): Fraction(1)})


def test_wedge_element_round_trip():
    """The parser gives back the arity, dim and terms the emitter took."""
    terms = {(1, 2): Fraction(1, 2), (2, 3): -3}
    text = emit_document(wedge_document(3, 4, terms))
    assert parse_document(text, expect="wedge_element") == (3, 4, terms)
    assert json.loads(text)["terms"] == [{"on": [1, 2], "coeff": "1/2"}, {"on": [2, 3], "coeff": "-3"}]


def test_every_table_must_be_a_list_of_objects():
    """Each table of each kind: not a list, or an entry that is not an
    object, is an input error at its pointer."""
    kinds = {
        "n_lie_algebra": ({"dim": 2}, ["brackets"]),
        "ns_algebra": ({"dim": 2}, ["curly", "square"]),
        "representation": ({"algebra_dim": 2, "module_dim": 1}, ["tables"]),
        "wedge_element": ({"dim": 2}, ["terms"]),
    }
    for kind, (base, tables) in kinds.items():
        for table in tables:
            for bad, pointer in ((5, f"/{table}"), ({"on": [1, 2]}, f"/{table}"), ([7], f"/{table}/0")):
                doc = {"kind": kind, **base, table: bad}
                with pytest.raises(InputError, match=f"at {pointer}\\)"):
                    parse_document(json.dumps(doc))


def test_ns_basis_is_validated_like_an_algebras():
    for basis in (7, "xy", ["x"], ["x", 2]):
        for kind in ("n_lie_algebra", "ns_algebra"):
            with pytest.raises(InputError, match="/basis"):
                parse_document(json.dumps({"kind": kind, "dim": 2, "basis": basis}))
    ns = parse_document(json.dumps({"kind": "ns_algebra", "dim": 2, "basis": ["x", "y"]}))
    assert ns.basis_names == ["x", "y"]


def test_bounded_integers():
    for doc, pointer in (
        ({"kind": "functional", "dim": 0, "coefficients": []}, "/dim"),
        ({"kind": "n_lie_algebra", "dim": 2, "arity": True}, "/arity"),
        ({"kind": "representation", "algebra_dim": 2, "module_dim": "1"}, "/module_dim"),
        ({"kind": "ns_algebra", "dim": 2, "curly": [{"wedge": [1], "last": 3, "value": ["1", "0"]}]},
         "/curly/0/last"),
        ({"kind": "n_lie_algebra", "dim": 2, "brackets": [{"on": [0, 2], "value": ["1", "0"]}]}, "/brackets/0/on/0"),
    ):
        with pytest.raises(InputError, match=f"must be an integer .*at {pointer}\\)"):
            parse_document(json.dumps(doc))


# strings with non-ASCII, surrogate-free and control characters, ints past 64 bits
SCALARS = st.none() | st.booleans() | st.integers(-(10 ** 40), 10 ** 40) | st.text(max_size=6)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                                        max_size=4), max_leaves=20)


@seed(20261020)
@settings(max_examples=100, deadline=None, database=None, phases=(Phase.generate,))
@given(payload=JSON)
def test_emission_is_json_dumps_with_indent_2(payload):
    """``emit_document`` and ``Report.to_json`` write what ``json.dumps(..., indent=2)`` writes."""
    assert emit_document(payload) == json.dumps(payload, indent=2) + "\n"
    report = Report(command=["x"], artifacts=[payload], notes=["\u00e9\x00"])
    assert report.to_json() == json.dumps(
        {"command": ["x"], "verdicts": [], "artifacts": [payload], "notes": ["\u00e9\x00"]}, indent=2) + "\n"


def test_emission_refuses_what_is_not_json_of_the_report_types():
    for value in (1.5, Fraction(1, 2), (1, 2), {1: "a"}, ["x", {"y": object()}]):
        with pytest.raises(TypeError):
            emit_document({"kind": value})
