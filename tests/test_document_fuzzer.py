"""A seeded document fuzzer over every entry of ``cli.COMMANDS``.

Each job starts from valid documents for one (command, what), passes
exactly the flags that entry takes, and mutates one document once: a key
deleted, a value of the wrong JSON type, an entry repeated, a huge integer,
"1/0", a literal over the interpreter's digit limit, a list nested past the
recursion limit, or the text cut short.
Every job must end as a defined outcome: exit 0, 1 or 2 with a report,
never exit 3 and never an escaping exception.  The same mutants, parsed
alone, must give what ``conftest.naive_parse_document`` gives.
One mutation per document keeps each job small: a huge "dim" or "arity"
always meets a basis, vector or tuple of the old length and is refused.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from nliealg.algebra import NAryAlgebra, adjoint_representation
from nliealg.cli import COMMANDS, FLAG_KINDS, run_command
from nliealg.cohomology import delta_r_operator
from nliealg.constructions import LinearFunctional, comm_assoc_algebra
from nliealg.documents import (
    algebra_document,
    functional_document,
    ns_document,
    operator_document,
    parse_document,
    representation_document,
    wedge_document,
)
from nliealg.errors import InputError
from nliealg.linalg import Matrix
from nliealg.ns import ns_from_reynolds
from nliealg.reynolds import derivation_to_reynolds

from conftest import naive_parse_document, wedge_single


def _specs():
    """[(key, options, [(flag, document)])]: valid jobs, one or more per entry."""
    lie3 = NAryAlgebra(2, 3, {(1, 2): [0, 1, 0]})
    family1 = Matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])
    scaling = Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])  # e2 -> e2, a derivation
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # e1 -> e2, a nilpotent derivation
    trunc_x2 = comm_assoc_algebra(2, {(1, 1): [1, 0], (1, 2): [0, 1]})
    euler = Matrix([[0, 0], [0, 1]])
    g, r = ("--algebra", algebra_document(lie3)), operator_document(family1)
    f = ("--functional", functional_document(LinearFunctional([1, 0, 1])))
    k2, d2 = ("--algebra", algebra_document(trunc_x2)), ("--operator", operator_document(euler))
    rep = ("--representation", representation_document(adjoint_representation(lie3)))
    deform = [g, ("--reynolds", r), ("--direction", operator_document(
        delta_r_operator(lie3, family1, wedge_single((2,), 3))))]
    return [
        (("check", "filippov"), [], [g]),
        (("check", "derivation"), [], [g, ("--operator", operator_document(scaling))]),
        (("check", "representation"), [], [g, rep]),
        (("check", "reynolds"), [], [g, ("--operator", r)]),
        (("check", "nijenhuis"), [], [g, ("--operator", operator_document(Matrix.identity(3)))]),
        (("check", "ns"), [], [("--algebra", ns_document(ns_from_reynolds(lie3, family1)))]),
        (("check", "assoc-reynolds"), [], [k2, ("--operator", operator_document(Matrix.identity(2)))]),
        (("check", "lift"), [], [g, ("--operator", r), f]),
        (("construct", "induced"), [], [g, ("--operator", r)]),
        (("construct", "gf"), [], [g, f]),
        (("construct", "corollary"), [], [g, ("--operator", r), f]),
        (("construct", "ns-from-reynolds"), [], [g, ("--operator", r)]),
        (("construct", "ns-from-nijenhuis"), [], [g, ("--operator", operator_document(Matrix.identity(3)))]),
        (("construct", "deformed"), [], [g, ("--operator", operator_document(scaling))]),
        (("construct", "det3"), ["--variant", "fd"], [k2, ("--functional", functional_document(
            LinearFunctional([1, 0]))), d2]),
        (("construct", "det3"), ["--variant", "dd"], [k2, d2, d2]),
        (("construct", "det3"), ["--variant", "ddd"], [k2, d2, d2, d2]),
        (("construct", "semidirect"), [], [g]),
        (("construct", "semidirect"), [], [g, rep]),
        (("cohomology", None), ["--max-degree", "1", "--size-guard", "100000"], [g, ("--reynolds", r)]),
        (("deform", None), [], deform),
        (("deform", None), [], deform + [("--witness", wedge_document(2, 3, {(2,): 1}))]),
        (("operator", "from-derivation"), [], [g, ("--operator", operator_document(scaling))]),
        (("operator", "series"), [], [g, ("--operator", operator_document(shift))]),
        (("operator", "to-derivation"), [], [g, ("--operator", operator_document(
            derivation_to_reynolds(lie3, scaling)))]),
    ]


SPECS = _specs()
# json.dumps refuses an int over the digit limit and a list nested 5,000 deep,
# so the text gets these in place of the markers
HUGE_INT = "<an integer of 5000 digits>"
DEEP = "<a list nested 5000 deep>"
MARKERS = {json.dumps(HUGE_INT): "1" * 5000, json.dumps(DEEP): "[" * 5000 + "]" * 5000}
# wrong-type, malformed, huge and deep values; floats are not rationals
VALUES = [None, True, False, 0, -1, 1, 2, 1.5, "1/0", "x", "", 2 ** 64, -(10 ** 30), "99999999999999999999/7",
          "1" * 5000, HUGE_INT, DEEP, [], {}, [1], [[1]], {"a": 1}]


def _argv(spec, paths):
    (command, what), options, docs = spec
    argv = [command] + ([what] if what else []) + options
    for (flag, _), path in zip(docs, paths):
        argv += [flag, path]
    return argv + ["--json"]


def test_the_jobs_cover_every_command_with_exactly_its_flags():
    assert {key for key, _, _ in SPECS} == set(COMMANDS)
    for key, options, docs in SPECS:
        flags = COMMANDS[key][1]
        assert {flag for flag, _ in docs} | set(options[::2]) <= {"--algebra", *flags}
        assert {flag for flag in flags if flag in ("--max-degree", "--size-guard")} <= set(options[::2])
    for key, (_, flags, _) in COMMANDS.items():
        given = {flag for k, options, docs in SPECS if k == key for flag in [*options[::2], *(f for f, _ in docs)]}
        assert set(flags) <= given, key


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_every_unmutated_job_runs(fuzz_dir):
    for i, spec in enumerate(SPECS):
        paths = [_write(fuzz_dir, f"valid{i}-{j}.json", json.dumps(doc)) for j, (_, doc) in enumerate(spec[2])]
        report, code = run_command(_argv(spec, paths))
        assert code in (0, 1) and report is not None, (spec[0], report and report.notes)


def _nodes(node, at=()):
    """Paths to every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _nodes(value, at + (key,))


@st.composite
def mutated(draw, doc):
    """The text of ``doc`` after one mutation."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    how = draw(st.sampled_from(("delete", "replace", "repeat", "cut")))
    if how == "delete":
        del parent[key]
    elif how == "replace":
        parent[key] = draw(st.sampled_from(VALUES))
    elif how == "repeat":
        if isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], parent[key]]
    text = json.dumps(doc)
    for marker, raw in MARKERS.items():
        text = text.replace(marker, raw)
    return text[:draw(st.integers(0, len(text) - 1))] if how == "cut" else text


# no shrinking: a failure reports the job it ran, at once
@seed(20261019)
@settings(max_examples=250, deadline=None, database=None, phases=(Phase.generate,))
@given(data=st.data())
def test_mutated_documents_end_in_a_defined_outcome(data, fuzz_dir):
    spec = data.draw(st.sampled_from(SPECS))
    docs = spec[2]
    target = data.draw(st.integers(0, len(docs) - 1))
    texts = [data.draw(mutated(doc)) if j == target else json.dumps(doc) for j, (_, doc) in enumerate(docs)]
    paths = [_write(fuzz_dir, f"doc{j}.json", text) for j, text in enumerate(texts)]
    report, code = run_command(_argv(spec, paths))
    assert report is not None and code in (0, 1, 2), (spec[0], texts[target], report and report.notes)


def _kind(spec, flag):
    return "ns_algebra" if spec[0] == ("check", "ns") and flag == "--algebra" else FLAG_KINDS[flag]


def _state(value):
    """A parsed value as nested builtins, each scalar with its type, so that
    two parses compare equal only when they built the same objects."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return type(value).__name__, value
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_state(v) for v in value]
    if isinstance(value, dict):
        return {key: _state(v) for key, v in value.items()}
    if hasattr(value, "__slots__") or hasattr(value, "__dict__"):
        fields = value.__slots__ if hasattr(value, "__slots__") else vars(value)
        return type(value).__name__, {name: _state(getattr(value, name)) for name in fields}
    return value


def _outcome(parse, text, kind):
    """The state of what ``parse`` builds from ``text``, or its error message."""
    try:
        return _state(parse(text, expect=kind))
    except InputError as exc:
        return str(exc)


def test_the_parser_builds_what_the_entry_by_entry_parser_builds(docs):
    """Every valid document of the fuzzer and of the CLI fixtures parses to
    the same objects as with ``naive_parse_document``."""
    fixtures = [(_kind(spec, flag), json.dumps(doc)) for spec in SPECS for flag, doc in spec[2]]
    fixtures += [(None, Path(path).read_text(encoding="utf-8")) for path in docs.values()]
    outcomes = [_outcome(parse_document, text, kind) for kind, text in fixtures]
    assert outcomes == [_outcome(naive_parse_document, text, kind) for kind, text in fixtures]
    assert sum(isinstance(outcome, str) for outcome in outcomes) == 1  # the fixtures' bad.json


@seed(20261020)
@settings(max_examples=1000, deadline=None, database=None, phases=(Phase.generate,))
@given(data=st.data())
def test_a_mutated_document_parses_or_fails_as_the_entry_by_entry_parser_does(data):
    spec = data.draw(st.sampled_from(SPECS))
    flag, doc = data.draw(st.sampled_from(spec[2]))
    text, kind = data.draw(mutated(doc)), _kind(spec, flag)
    assert _outcome(parse_document, text, kind) == _outcome(naive_parse_document, text, kind)
