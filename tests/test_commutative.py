"""Commutative associative products through the shared walks.

Every operator identity is walked over ``NAryAlgebra.basis_tuples``, so a
commutative product is checked on its diagonal pairs (i, i) too, and what
is built from a verified operator keeps the product's symmetry.  The
n-Lie-only entries refuse a commutative product with an input error.
"""

import json
from fractions import Fraction

import pytest

from nliealg.algebra import SYMMETRIC, adjoint_representation, check_filippov, check_representation
from nliealg.cli import run_command
from nliealg.cohomology import ReynoldsComplex, delta_r_operator, integer_delta
from nliealg.constructions import (
    LinearFunctional,
    check_assoc_reynolds,
    corollary_bracket,
    extend_by_functional,
    reynolds_lift_criterion,
)
from nliealg.deformation import _witness_verdict, is_infinitesimal_deformation, is_trivial_deformation
from nliealg.documents import (
    algebra_document,
    emit_document,
    functional_document,
    operator_document,
    representation_document,
    wedge_document,
)
from nliealg.errors import InputError
from nliealg.linalg import Matrix
from nliealg.nijenhuis import check_nijenhuis, deformed_algebra, deformed_bracket_ladder
from nliealg.ns import ns_from_nijenhuis, ns_from_reynolds
from nliealg.reynolds import check_reynolds, induced_bracket

from conftest import naive_check_nijenhuis, naive_check_reynolds, naive_t_linear_check, wedge_single

REFUSED = "applies to alternating brackets"


def _write(tmp_path, docs):
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    return {name: str(path) for name, path in paths.items()}


def test_reynolds_walk_checks_the_diagonal_pairs(field_k, trunc_x2):
    """2 on k and [[-1, 0], [-1, 0]] on k[x]/(x^2) hold on every pair
    i < j and fail at (1, 1), as the binary Reynolds law says."""
    for alg, op in ((field_k, Matrix([[2]])), (trunc_x2, Matrix([[-1, 0], [-1, 0]]))):
        verdict = check_reynolds(alg, op)
        assert not verdict and verdict.counterexample["where"] == {"tuple": (1, 1)}
        assert verdict == naive_check_reynolds(alg, op)
        law = check_assoc_reynolds(alg, op)
        assert not law and law.counterexample["where"] == {"pair": (1, 1)}
        assert [law.counterexample[k] for k in ("lhs", "rhs")] == [verdict.counterexample[k] for k in ("lhs", "rhs")]
        assert check_reynolds(alg, Matrix.identity(alg.dim)) and check_assoc_reynolds(alg, Matrix.identity(alg.dim))


def test_induced_bracket_of_a_commutative_product_is_symmetric(field_k, trunc_x2, tmp_path):
    """Id induces the product itself; the CLI artifact says so."""
    for alg in (field_k, trunc_x2):
        induced = induced_bracket(alg, Matrix.identity(alg.dim))
        assert induced.symmetry == SYMMETRIC and induced == alg
    paths = _write(tmp_path, {"g": algebra_document(field_k), "r": operator_document(Matrix.identity(1))})
    report, code = run_command(["construct", "induced", "--algebra", paths["g"], "--operator", paths["r"], "--json"])
    assert code == 0
    (artifact,) = json.loads(report.to_json())["artifacts"]
    assert artifact["symmetry"] == "symmetric" and artifact["brackets"] == [{"on": [1, 1], "value": ["1"]}]
    paths = _write(tmp_path, {"g": algebra_document(field_k), "r": operator_document(Matrix([[2]]))})
    _, code = run_command(["construct", "induced", "--algebra", paths["g"], "--operator", paths["r"]])
    assert code == 2


def test_nijenhuis_walk_checks_the_diagonal_pairs(trunc_x2, tmp_path):
    """[[-1, -1], [0, -1]] on k[x]/(x^2) fails at (2, 2): (Nx)^2 = 1 + 2x,
    but N of ladder level 1 is 2 + 2x; every level keeps the symmetry."""
    op = Matrix([[-1, -1], [0, -1]])
    verdict = check_nijenhuis(trunc_x2, op)
    assert not verdict and verdict.counterexample["where"] == {"tuple": (2, 2)}
    assert verdict == naive_check_nijenhuis(trunc_x2, op)
    assert check_nijenhuis(trunc_x2, Matrix.identity(2))
    assert [level.symmetry for level in deformed_bracket_ladder(trunc_x2, op).levels] == [SYMMETRIC] * 2
    assert deformed_algebra(trunc_x2, Matrix.identity(2)) == trunc_x2
    paths = _write(tmp_path, {"g": algebra_document(trunc_x2), "n": operator_document(Matrix.identity(2))})
    report, code = run_command(["construct", "deformed", "--algebra", paths["g"], "--operator", paths["n"], "--json"])
    assert code == 0 and report.artifacts[0]["symmetry"] == "symmetric"


def test_first_order_check_walks_the_diagonal_pairs(field_k):
    """On k with R = Id, the first-order condition 2s = s forces S = 0:
    both routes fail S = 1 at (1, 1).  At R = 0 every direction passes."""
    one = Matrix([[1]])
    for route in (is_infinitesimal_deformation, naive_t_linear_check):
        verdict = route(field_k, Matrix.identity(1), one)
        assert not verdict and verdict.counterexample["where"] == {"tuple": (1, 1)}
    assert is_infinitesimal_deformation(field_k, Matrix.zero(1), one)


def test_n_lie_only_entries_refuse_a_commutative_product(trunc_x2):
    """On k[x]/(x^2) with R = Id, which the binary Reynolds law passes."""
    ident, f = Matrix.identity(2), LinearFunctional([0, 1])
    assert check_assoc_reynolds(trunc_x2, ident)
    entries = [
        (check_filippov, (trunc_x2,)),
        (check_representation, (trunc_x2, adjoint_representation(trunc_x2))),
        (ReynoldsComplex, (trunc_x2, ident)),
        (integer_delta, (trunc_x2, ident)),
        (delta_r_operator, (trunc_x2, ident, wedge_single((1,), 2))),
        (is_trivial_deformation, (trunc_x2, ident, Matrix.zero(2))),
        (_witness_verdict, (trunc_x2, ident, Matrix.zero(2), Matrix.zero(2), wedge_single((1,), 2))),
        (ns_from_reynolds, (trunc_x2, ident)),
        (ns_from_nijenhuis, (trunc_x2, ident)),
        (extend_by_functional, (trunc_x2, f)),
        (reynolds_lift_criterion, (trunc_x2, ident, f)),
        (corollary_bracket, (trunc_x2, ident, f)),
    ]
    for entry, args in entries:
        with pytest.raises(InputError, match=REFUSED):
            entry(*args)


def test_cli_refuses_n_lie_only_commands_with_exit_2(trunc_x2, tmp_path):
    paths = _write(tmp_path, {"g": algebra_document(trunc_x2), "r": operator_document(Matrix.identity(2))})
    for argv in (["construct", "ns-from-reynolds", "--algebra", paths["g"], "--operator", paths["r"]],
                 ["cohomology", "--algebra", paths["g"], "--reynolds", paths["r"]]):
        report, code = run_command(argv)
        assert code == 2 and report.notes[-1].startswith("error: ") and report.notes[-1].endswith(REFUSED)


@pytest.mark.parametrize("name", ["zero", "identity"])
def test_every_command_on_a_commutative_product_ends_in_a_report(name, trunc_x2, tmp_path):
    """Every subcommand on k[x]/(x^2) with R = 0 or Id exits 0, 1 or 2, with
    a report: never the bug-trap exit 3, never an escaped exception."""
    op = Matrix.zero(2) if name == "zero" else Matrix.identity(2)
    paths = _write(tmp_path, {
        "g": algebra_document(trunc_x2), "r": operator_document(op),
        "f": functional_document(LinearFunctional([0, 1])),
        "rep": representation_document(adjoint_representation(trunc_x2)),
        "x": wedge_document(2, 2, {(1,): Fraction(1, 2)}),
    })
    g, r, f = ("--algebra", paths["g"]), ("--operator", paths["r"]), ("--functional", paths["f"])
    rep = ("--representation", paths["rep"])
    argvs = [["check", "filippov", *g], ["check", "derivation", *g, *r], ["check", "representation", *g, *rep],
             ["check", "reynolds", *g, *r], ["check", "nijenhuis", *g, *r], ["check", "ns", *g],
             ["check", "assoc-reynolds", *g, *r], ["check", "lift", *g, *r, *f]]
    argvs += [["construct", what, *g, *r] for what in ("induced", "ns-from-reynolds", "ns-from-nijenhuis", "deformed")]
    argvs += [["construct", "gf", *g, *f], ["construct", "corollary", *g, *r, *f], ["construct", "semidirect", *g],
              ["construct", "semidirect", *g, *rep], ["construct", "det3", *g, "--variant", "fd", *r, *f],
              ["construct", "det3", *g, "--variant", "dd", *r, *r],
              ["construct", "det3", *g, "--variant", "ddd", *r, *r, *r]]
    deform = ["deform", *g, "--reynolds", paths["r"], "--direction", paths["r"]]
    argvs += [["cohomology", *g, "--reynolds", paths["r"]], deform, deform + ["--witness", paths["x"]]]
    argvs += [["operator", what, *g, *r] for what in ("from-derivation", "series", "to-derivation")]
    codes = {}
    for argv in argvs:
        report, code = run_command(argv + ["--json"])
        assert report is not None and code in (0, 1, 2), (argv, code, report and report.notes)
        json.loads(report.to_json())
        codes[" ".join(argv[:2])] = code
    assert set(codes.values()) >= {0, 2}
