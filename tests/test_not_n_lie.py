"""An alternating bracket that is not n-Lie, through the shared walks.

g = [e1, e2] = e3, [e1, e3] = e1 fails the Filippov identity at x = (1,),
y = (2, 3), while Id passes both the Reynolds and the Nijenhuis walk on it.
The NS constructions and the square d_m d_{m-1} = 0 of the Reynolds complex
rest on theorems about n-Lie algebras, so their re-checks can trip here:
that is a precondition failing (exit 2, with the Filippov counterexample),
not a bug trap (exit 3).
"""

import json
from fractions import Fraction

import pytest

from nliealg.algebra import NAryAlgebra, adjoint_representation, check_filippov
from nliealg import deformation
from nliealg.cli import COMMANDS, run_command
from nliealg.cohomology import ReynoldsComplex, delta_r_operator
from nliealg.constructions import LinearFunctional
from nliealg.documents import (
    algebra_document,
    emit_document,
    functional_document,
    operator_document,
    representation_document,
    wedge_document,
)
from nliealg.errors import PreconditionError
from nliealg.linalg import Matrix
from nliealg.nijenhuis import check_nijenhuis
from nliealg.ns import ns_from_nijenhuis, ns_from_reynolds
from nliealg.reynolds import check_reynolds
from nliealg.verdict import fail, jsonable

from conftest import wedge_single

FILIPPOV = "applies to n-Lie algebras, and the bracket fails the Filippov identity"


@pytest.fixture
def not_lie():
    return NAryAlgebra(2, 3, {(1, 2): [0, 0, 1], (1, 3): [1, 0, 0]})


def test_identity_is_reynolds_and_nijenhuis_on_a_bracket_that_is_not_lie(not_lie):
    verdict = check_filippov(not_lie)
    assert not verdict and verdict.counterexample["where"] == {"x": (1,), "y": (2, 3)}
    ident = Matrix.identity(3)
    assert check_reynolds(not_lie, ident) and check_nijenhuis(not_lie, ident)


def test_constructions_that_need_filippov_name_its_counterexample(not_lie):
    """The NS structures of R = Id and of N = Id, 2 Id, and the complex of
    R = Id, refuse the bracket with the counterexample ``check_filippov``
    finds, as a ``PreconditionError`` that carries it."""
    ident = Matrix.identity(3)
    expected = check_filippov(not_lie).counterexample
    calls = [
        (ns_from_reynolds, (not_lie, ident), "the NS construction"),
        (ns_from_nijenhuis, (not_lie, ident), "the NS construction"),
        (ns_from_nijenhuis, (not_lie, ident.scale(2)), "the NS construction"),
        (lambda *args: ReynoldsComplex(*args).dimensions(1), (not_lie, ident), "the Reynolds complex"),
    ]
    for entry, args, what in calls:
        with pytest.raises(PreconditionError) as caught:
            entry(*args)
        assert str(caught.value) == f"{what} {FILIPPOV}: {jsonable(expected)}"
        assert caught.value.counterexample == expected


def test_every_command_on_a_bracket_that_is_not_lie_ends_in_a_report(not_lie, tmp_path):
    """Every subcommand on g with R = N = Id, f = 0, the direction delta_R(e_2)
    and the witness e_2 exits 0, 1 or 2 with a report, never the bug-trap exit
    3; the NS constructions and the complex exit 2 with the Filippov note."""
    ident = Matrix.identity(3)
    docs = {
        "g": algebra_document(not_lie), "r": operator_document(ident),
        "f": functional_document(LinearFunctional([0, 0, 0])),
        "rep": representation_document(adjoint_representation(not_lie)),
        "s": operator_document(delta_r_operator(not_lie, ident, wedge_single((2,), 3))),
        "x": wedge_document(2, 3, {(2,): Fraction(1)}),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(emit_document(doc))
    g, r, f = ("--algebra", paths["g"]), ("--operator", paths["r"]), ("--functional", paths["f"])
    argvs = [["check", "filippov", *g], ["check", "derivation", *g, *r],
             ["check", "representation", *g, "--representation", paths["rep"]], ["check", "reynolds", *g, *r],
             ["check", "nijenhuis", *g, *r], ["check", "ns", *g], ["check", "assoc-reynolds", *g, *r],
             ["check", "lift", *g, *r, *f]]
    argvs += [["construct", what, *g, *r] for what in ("induced", "ns-from-reynolds", "ns-from-nijenhuis", "deformed")]
    argvs += [["construct", "gf", *g, *f], ["construct", "corollary", *g, *r, *f], ["construct", "semidirect", *g],
              ["construct", "det3", *g, "--variant", "fd", *r, *f]]
    deform = ["deform", *g, "--reynolds", paths["r"], "--direction", paths["s"]]
    argvs += [["cohomology", *g, "--reynolds", paths["r"]], deform, deform + ["--witness", paths["x"]]]
    argvs += [["operator", what, *g, *r] for what in ("from-derivation", "series", "to-derivation")]
    codes = {}
    for argv in argvs:
        report, code = run_command(argv + ["--json"])
        assert report is not None and code in (0, 1, 2), (argv, code, report and report.notes)
        json.loads(report.to_json())
        what = argv[1] if argv[1] != "--algebra" else None
        codes[argv[0], what] = code, report.notes
    assert set(codes) == set(COMMANDS)
    for key in (("construct", "ns-from-reynolds"), ("construct", "ns-from-nijenhuis"), ("cohomology", None)):
        code, notes = codes[key]
        assert code == 2 and notes[-1].startswith("error: ") and FILIPPOV in notes[-1], (key, notes)


def test_a_failing_witness_pair_names_the_filippov_counterexample(not_lie, tmp_path, monkeypatch):
    """The zero direction is a cocycle of R = Id and solves to X = 0; a
    homomorphism pair that then fails is a bug trap on an n-Lie algebra, but
    here the triviality decision exits 2 with the Filippov note."""
    ident, zero = Matrix.identity(3), Matrix.zero(3)
    monkeypatch.setattr(deformation, "check_hom_pair",
                        lambda *args: fail("hom-square", {"identity": "phi.R = R'.psi"}, [1], [0]))
    paths = {}
    for name, doc in (("g", algebra_document(not_lie)), ("r", operator_document(ident)),
                      ("s", operator_document(zero))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(emit_document(doc))
    report, code = run_command(["deform", "--algebra", paths["g"], "--reynolds", paths["r"],
                                "--direction", paths["s"], "--json"])
    expected = jsonable(check_filippov(not_lie).counterexample)
    assert code == 2
    assert report.notes == [f"error: the triviality decision {FILIPPOV}: {expected}"]
