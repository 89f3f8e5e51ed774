"""Metamorphic: how an input document spells an integral scalar does not
change a single output byte.

Each integral entry may be written "3", 3, "6/2" or, for zero, "-0"; the
parser turns all of them into the same exact value, so ``nlie check``,
``construct`` and ``cohomology`` must print the same ``--json`` report for
every mix of spellings, next to the non-integral entries that stay
``Fraction``s.
"""

import json
import os
import re
import tempfile
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nliealg.algebra import NAryAlgebra, RepresentationTable, ad, adjoint_representation
from nliealg.cli import run_command
from nliealg.documents import (
    algebra_document,
    emit_document,
    ns_document,
    operator_document,
    representation_document,
)
from nliealg.linalg import Matrix
from nliealg.ns import ns_from_reynolds
from nliealg.reynolds import derivation_to_reynolds

from conftest import simple_n_lie, wedge_single

INTEGRAL = re.compile(r"^-?\d+$")


def _documents():
    lie3 = NAryAlgebra(2, 3, {(1, 2): [0, 1, 0]})
    family1 = Matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])
    a4 = simple_n_lie(3)
    r4 = derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4)))
    two_ad = RepresentationTable(3, 4, 4, {k: m.scale(2) for k, m in adjoint_representation(a4).tables.items()})
    return {
        "lie3": algebra_document(lie3),
        "family1": operator_document(family1),
        "a4": algebra_document(a4),
        "r4": operator_document(r4),
        "2id": operator_document(Matrix.identity(4).scale(2)),
        "a4-r4-ns": ns_document(ns_from_reynolds(a4, r4)),
        "2ad": representation_document(two_ad),
    }


DOCS = _documents()

# (argv with document names in place of paths); passing and failing checks
COMMANDS = [
    ["check", "reynolds", "--algebra", "a4", "--operator", "r4"],
    ["check", "reynolds", "--algebra", "a4", "--operator", "2id"],
    ["check", "filippov", "--algebra", "a4"],
    ["check", "representation", "--algebra", "a4", "--representation", "2ad"],
    ["check", "ns", "--algebra", "a4-r4-ns"],
    ["construct", "induced", "--algebra", "lie3", "--operator", "family1"],
    ["construct", "ns-from-reynolds", "--algebra", "a4", "--operator", "r4"],
    ["construct", "semidirect", "--algebra", "a4"],
    ["cohomology", "--algebra", "lie3", "--reynolds", "family1", "--max-degree", "2"],
    ["cohomology", "--algebra", "a4", "--reynolds", "r4"],
]


def spellings(text):
    """The ways to write the integral entry ``text``."""
    k = int(text)
    return [text, k, f"{2 * k}/2"] + (["-0"] if k == 0 else [])


def respell(doc, draw):
    """``doc`` with each integral scalar entry written as ``draw`` picks."""
    if isinstance(doc, dict):
        return {key: respell(value, draw) for key, value in doc.items()}
    if isinstance(doc, list):
        return [respell(value, draw) for value in doc]
    if isinstance(doc, str) and INTEGRAL.match(doc):
        return draw(st.sampled_from(spellings(doc)))
    return doc


def report(argv, docs, directory):
    """Exit code and ``--json`` bytes of ``argv``, its documents written to
    the same paths in ``directory`` on every call."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    got, code = run_command([paths.get(a, a) for a in argv] + ["--json"])
    return code, got.to_json()


def test_spellings_cover_mixed_inputs():
    """The documents mix integral entries with non-integral ones."""
    entries = [v for doc in DOCS.values() for v in re.findall(r'"(-?\d+(?:/\d+)?)"', emit_document(doc))]
    assert any("/" in v for v in entries) and any(v == "0" for v in entries)
    assert all(Fraction(v) for v in entries if "/" in v)


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data(), argv=st.sampled_from(COMMANDS))
def test_integral_spelling_does_not_change_the_report(data, argv):
    used = {name: DOCS[name] for name in argv if name in DOCS}
    with tempfile.TemporaryDirectory() as directory:
        expected = report(argv, used, directory)
        respelled = {name: respell(doc, data.draw) for name, doc in used.items()}
        assert report(argv, respelled, directory) == expected
