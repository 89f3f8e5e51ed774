import json
from collections import Counter
from fractions import Fraction

import pytest

from nliealg import algebra as algebra_module
from nliealg import deformation, reynolds
from nliealg.algebra import ad
from nliealg.cli import run_command
from nliealg.cohomology import Cochain, ReynoldsComplex, delta_r_operator
from nliealg.documents import algebra_document, emit_document, operator_document
from nliealg.deformation import (
    _t_linear_check,
    check_equivalence_witness,
    is_infinitesimal_deformation,
    is_trivial_deformation,
)
from nliealg.errors import InputError, InternalConsistencyError, PreconditionError, UnsupportedRingError
from nliealg.linalg import Matrix
from nliealg.reynolds import check_hom_pair, check_reynolds, derivation_to_reynolds
from nliealg.rings import EPS, Dual
from nliealg.verdict import fail, jsonable, ok, spelled

from conftest import (
    naive_is_trivial_deformation,
    naive_t_linear_check,
    rand_matrix,
    report_bytes,
    simple_n_lie,
    wedge_single,
)


def test_zero_direction_is_a_trivial_cocycle(lie3, family1):
    zero = Matrix.zero(3)
    assert is_infinitesimal_deformation(lie3, family1, zero)
    res = is_trivial_deformation(lie3, family1, zero)
    assert res.status == "trivial"


def test_coboundaries_are_cocycles_and_trivial(lie3, family1):
    for tup in ((1,), (2,), (3,)):
        direction = delta_r_operator(lie3, family1, wedge_single(tup, 3))
        assert is_infinitesimal_deformation(lie3, family1, direction)
        res = is_trivial_deformation(lie3, family1, direction)
        assert res.status == "trivial"
        assert res.witness is not None
        recon = Matrix.zero(3)
        for key, c in res.witness.items():
            recon = recon + delta_r_operator(lie3, family1, {key: Fraction(1)}).scale(c)
        assert recon == direction


def test_random_directions_mostly_fail_with_agreeing_routes(lie3, family1, rng):
    cocycles = 0
    for _ in range(30):
        direction = rand_matrix(rng, 3)
        # raises InternalConsistencyError if the two routes ever disagree
        if is_infinitesimal_deformation(lie3, family1, direction):
            cocycles += 1
    assert cocycles <= 5


def test_scaled_coboundary_combinations_are_cocycles(lie3, family2, rng):
    for _ in range(10):
        direction = Matrix.zero(3)
        for tup in ((1,), (2,), (3,)):
            c = Fraction(rng.randint(-3, 3))
            direction = direction + delta_r_operator(
                lie3, family2, wedge_single(tup, 3)).scale(c)
        assert is_infinitesimal_deformation(lie3, family2, direction)
        assert is_trivial_deformation(lie3, family2, direction).status == "trivial"


def test_equivalence_witness_pass_and_fail(lie3, family1):
    x = wedge_single((2,), 3)
    direction = delta_r_operator(lie3, family1, x)
    assert check_equivalence_witness(lie3, family1, direction, Matrix.zero(3), x)
    wrong = wedge_single((3,), 3)
    delta_wrong = delta_r_operator(lie3, family1, wrong)
    if delta_wrong != direction:
        assert not check_equivalence_witness(
            lie3, family1, direction, Matrix.zero(3), wrong)


def test_non_cocycle_direction_is_rejected(lie3, family1, rng):
    for _ in range(20):
        direction = rand_matrix(rng, 3)
        if is_infinitesimal_deformation(lie3, family1, direction):
            continue
        with pytest.raises(PreconditionError):
            is_trivial_deformation(lie3, family1, direction)
        return
    pytest.fail("no non-cocycle direction found")


def test_both_routes_agree_on_zero_coboundary_and_non_cocycle(lie3, family1):
    """The t-linear check and the dual-number re-check give one verdict.
    R + EPS*0 holds rational zeros, so S = 0 re-checks R itself."""
    zero = Matrix.zero(3)
    cases = [(zero, True),
             (delta_r_operator(lie3, family1, wedge_single((2,), 3)), True),
             (Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), False)]
    for direction, verdict in cases:
        dual_op = family1 + direction.scale(EPS)
        assert bool(_t_linear_check(lie3, family1, direction)) is verdict
        assert bool(check_reynolds(lie3, dual_op)) is verdict
        assert bool(is_infinitesimal_deformation(lie3, family1, direction)) is verdict
    assert family1 + zero.scale(EPS) == family1
    assert (family1 + zero.scale(EPS)).rank() == family1.rank()


def _cocycle_directions(alg, op):
    """A basis of Z^1 of the Reynolds complex, as operators."""
    cx = ReynoldsComplex(alg, op)
    d1 = Matrix(cx.differential_matrix(1).entries)
    return [Cochain(alg.arity, alg.dim, alg.dim, 1, v).to_operator() for v in d1.nullspace_basis()]


def test_is_trivial_deformation_matches_naive_oracle(lie3, family1, family2, rng):
    statuses = []
    for op in (family1, family2):
        cocycles = _cocycle_directions(lie3, op)
        directions = [Matrix.zero(3)] + cocycles
        directions += [delta_r_operator(lie3, op, wedge_single(t, 3)) for t in ((1,), (2,), (3,))]
        directions += [cocycles[0] + cocycles[-1].scale(Fraction(-2)), rand_matrix(rng, 3)]
        for direction in directions:
            try:
                expected = naive_is_trivial_deformation(lie3, op, direction)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as info:
                    is_trivial_deformation(lie3, op, direction)
                assert info.value.args == exc.args
                statuses.append("non-cocycle")
                continue
            assert is_trivial_deformation(lie3, op, direction) == expected
            statuses.append(expected.status)
    assert {"trivial", "nontrivial", "non-cocycle"} <= set(statuses)


def test_dual_base_operator_is_rejected_before_the_solve(lie3, family1):
    """R + eps*delta_R(e_1) is Reynolds over the dual numbers, and the zero
    direction is its cocycle; deciding triviality needs a field."""
    dual_op = family1 + delta_r_operator(lie3, family1, wedge_single((1,), 3)).scale(EPS)
    with pytest.raises(UnsupportedRingError):
        is_trivial_deformation(lie3, dual_op, Matrix.zero(3))


def test_a_dual_operator_or_direction_is_refused_before_either_route(lie3, family1, rng, monkeypatch):
    """R = family1 + eps*delta_R(e_1) is Reynolds over the dual numbers, but
    the dual-number route would take R's own eps for t: on 200 seeded
    directions with entries in -1..1 the cocycle test refuses R with
    ``UnsupportedRingError`` before either route runs, and a dual direction
    the same way."""
    dual_op = family1 + delta_r_operator(lie3, family1, wedge_single((1,), 3)).scale(EPS)
    assert check_reynolds(lie3, dual_op)

    def route(*args):
        raise AssertionError("a route ran")

    for name in ("reynolds_values", "check_reynolds"):
        monkeypatch.setattr(deformation, name, route)
    calls = [(dual_op, Matrix([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])) for _ in range(200)]
    calls.append((family1, Matrix.identity(3).scale(EPS)))
    for op, direction in calls:
        with pytest.raises(UnsupportedRingError, match="first-order deformation check is only defined over"):
            is_infinitesimal_deformation(lie3, op, direction)


def test_the_two_first_order_routes_share_no_kernel(lie3, family1, monkeypatch):
    """The t-linear route reads the graded-wedge walk and expands no bracket;
    the dual-number route expands its brackets and walks no graded wedge.
    Each runs with the other's kernel gone, and they agree."""
    def gone(*args):
        raise AssertionError("the routes share a kernel")

    directions = [delta_r_operator(lie3, family1, wedge_single((2,), 3)), Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])]
    with monkeypatch.context() as patched:
        for name in ("expand", "expand_supports"):
            patched.setattr(algebra_module, name, gone)
        t_linear = [bool(_t_linear_check(lie3, family1, s)) for s in directions]
    with monkeypatch.context() as patched:
        for module in (algebra_module, reynolds, deformation):
            patched.setattr(module, "graded_wedges", gone)
        dual = [bool(check_reynolds(lie3, family1 + s.scale(EPS))) for s in directions]
    assert t_linear == dual == [True, False]


def test_a_failing_pair_of_a_solved_witness_is_a_bug_trap(lie3, family1, tmp_path, monkeypatch):
    """Once delta_R X = S is solved, (Id + eps ad_X, Id + eps ad_X - eps ad_X R)
    is a homomorphism pair on an n-Lie algebra: ad_X is a derivation and the
    square is S = delta_R(X).  A pair that fails there is exit 3 with the
    witness and the failing check's counterexample, not a FAIL verdict."""
    direction = delta_r_operator(lie3, family1, wedge_single((2,), 3))
    witness = is_trivial_deformation(lie3, family1, direction).witness
    failing = fail("hom-square", {"identity": "phi.R = R'.psi"}, [1], [0])
    monkeypatch.setattr(deformation, "check_hom_pair", lambda *args: failing)
    message = (f"the homomorphism pair of the solved witness X = {spelled(witness)} fails: "
               f"{jsonable(failing.counterexample)}")
    with pytest.raises(InternalConsistencyError) as caught:
        is_trivial_deformation(lie3, family1, direction)
    assert str(caught.value) == message
    paths = {}
    for name, doc in (("g", algebra_document(lie3)), ("r", operator_document(family1)),
                      ("s", operator_document(direction))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    report, code = run_command(["deform", "--algebra", str(paths["g"]), "--reynolds", str(paths["r"]),
                                "--direction", str(paths["s"]), "--json"])
    assert code == 3
    assert report.notes == [f"internal error: {message}"]


def test_trivial_deform_job_runs_the_cocycle_check_once(lie3, family1, tmp_path, monkeypatch):
    """One CLI triviality job: only the CLI's own cocycle check runs; the
    triviality decision and its witness pair do not re-check the direction.
    Two Reynolds walks run: the t-linear route's, which verifies R and gives
    [.]_R, and the dual-number route's."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("is_infinitesimal_deformation", "check_reynolds", "_t_linear_check"):
        monkeypatch.setattr(deformation, name, counted(name, getattr(deformation, name)))
    walk = counted("reynolds_values", reynolds.reynolds_values)
    for module in (deformation, reynolds):
        monkeypatch.setattr(module, "reynolds_values", walk)
    paths = {}
    direction = delta_r_operator(lie3, family1, wedge_single((2,), 3))
    for name, doc in (("g", algebra_document(lie3)), ("r", operator_document(family1)),
                      ("s", operator_document(direction))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    report, code = run_command(["deform", "--algebra", str(paths["g"]), "--reynolds", str(paths["r"]),
                                "--direction", str(paths["s"]), "--json"])
    assert code == 0
    assert "status: trivial" in report.notes
    assert calls == {"is_infinitesimal_deformation": 1, "reynolds_values": 2, "check_reynolds": 1, "_t_linear_check": 1}


def test_a_nontrivial_deform_reports_its_verdict_without_a_counterexample(lie3, family1, tmp_path):
    """The triviality verdict carries no counterexample: its text line is
    ``FAIL deformation-trivial`` alone, and its JSON verdict has no
    counterexample key."""
    docs = {"g": algebra_document(lie3), "r": operator_document(family1),
            "s": operator_document(Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    report, code = run_command(["deform", "--algebra", str(paths["g"]), "--reynolds", str(paths["r"]),
                                "--direction", str(paths["s"])])
    assert code == 1
    assert report.to_text() == "PASS deformation-cocycle\nFAIL deformation-trivial\nstatus: nontrivial\n"
    assert json.loads(report.to_json())["verdicts"][1] == {"check": "deformation-trivial", "passed": False}


def test_witness_deform_job_runs_the_cocycle_check_once(lie3, family1, tmp_path, monkeypatch):
    """One CLI witness job: only the CLI's own cocycle check runs; the
    witness pair is judged without re-checking either direction, and R is
    walked once per route."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("is_infinitesimal_deformation", "check_reynolds", "_t_linear_check"):
        monkeypatch.setattr(deformation, name, counted(name, getattr(deformation, name)))
    walk = counted("reynolds_values", reynolds.reynolds_values)
    for module in (deformation, reynolds):
        monkeypatch.setattr(module, "reynolds_values", walk)
    direction = delta_r_operator(lie3, family1, wedge_single((2,), 3))
    docs = {"g": algebra_document(lie3), "r": operator_document(family1), "s": operator_document(direction)}
    for coeff in ("1", "2"):
        docs[f"x{coeff}"] = {"kind": "wedge_element", "dim": 3, "arity": 2,
                             "terms": [{"on": [2], "coeff": coeff}]}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    matmul = Matrix.__matmul__

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    outcomes = []
    for witness, code, products in (("x1", 0, 7), ("x2", 1, 3)):
        calls.clear()
        report, got = run_command(["deform", "--algebra", str(paths["g"]), "--reynolds", str(paths["r"]),
                                   "--direction", str(paths["s"]), "--witness", str(paths[witness]), "--json"])
        assert got == code
        # [X, R] and each side of phi.R = R'.psi formed once; a passing pair
        # also builds delta_R(X) for the consistency check
        assert calls == {"is_infinitesimal_deformation": 1, "reynolds_values": 2, "check_reynolds": 1,
                         "_t_linear_check": 1, "matmul": products}
        outcomes.append([(v.check_name, v.passed) for v in report.verdicts])
    assert outcomes == [[("deformation-cocycle", True), ("hom-pair", True)],
                        [("deformation-cocycle", True), ("hom-square", False)]]
    # the failing witness: each scalar of the square's sides is spelled one way
    square = json.loads(report.to_json())["verdicts"][1]["counterexample"]
    dual = {"a": "1", "b": "-1"}
    assert square["lhs"] == ["1", "0", "1", dual, "0", dual, "0", "0", "1"]
    assert square["rhs"] == ["1", "0", "1", "1", "0", "1", "0", "0", "1"]
    assert all(isinstance(x, str) or x["b"] != "0" for x in square["difference"])


def test_report_spells_a_dual_without_eps_part_as_a_rational(lie3, family2):
    """A dual number whose eps-part is 0 is written as its rational part:
    on the failing witness X = 2 e1 of the coboundary of e1 under family2,
    phi.R holds Dual(-1, 0) and R'.psi holds Dual(1, 0)."""
    assert jsonable([Dual(1, 0), Dual(0, 0), Dual(Fraction(-2, 3)), Dual(1, -1)]) == [
        "1", "0", "-2/3", {"a": "1", "b": "-1"}]
    direction = delta_r_operator(lie3, family2, wedge_single((1,), 3))
    verdict = deformation._witness_verdict(lie3, family2, direction, Matrix.zero(3), {(1,): 2})
    square = json.loads(report_bytes(verdict))["verdicts"][0]["counterexample"]
    assert square["lhs"][3:5] == ["-1", {"a": "1", "b": "1"}]
    assert square["rhs"][1] == square["rhs"][4] == "1"
    assert square["difference"][1] == "0"


def test_t_linear_check_matches_naive_oracle(lie3, family1, family2, rng):
    a4 = simple_n_lie(3)
    r4 = derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4)))
    verdicts = []
    for alg, op in ((lie3, family1), (lie3, family2), (a4, r4), (a4, Matrix.zero(4))):
        directions = [Matrix.zero(alg.dim)] + _cocycle_directions(alg, op)[:3]
        directions += [rand_matrix(rng, alg.dim) for _ in range(3)]
        for direction in directions:
            result = _t_linear_check(alg, op, direction)
            expected = naive_t_linear_check(alg, op, direction)
            assert result == expected
            assert report_bytes(result) == report_bytes(expected)
            verdicts.append(result.passed)
    assert True in verdicts and False in verdicts


def test_disagreeing_cocycle_routes_trip_with_both_verdicts(lie3, family1, monkeypatch):
    """A t-linear route that passes everything disagrees with the dual-number
    route on a non-cocycle: the note names the direction, each route's
    verdict and the failing route's tuple."""
    direction = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, Fraction(1, 2)]])
    failing = check_reynolds(lie3, family1 + direction.scale(EPS))
    assert not failing
    monkeypatch.setattr(deformation, "_t_linear_check", lambda *args: ok("deformation-cocycle"))
    with pytest.raises(InternalConsistencyError) as caught:
        is_infinitesimal_deformation(lie3, family1, direction)
    assert str(caught.value) == (
        "t-linear check and dual-number check disagree on the direction [[1, 0, 0], [0, 0, 0], [0, 0, 1/2]]: "
        f"t-linear PASS, dual-number FAIL at tuple {failing.counterexample['where']['tuple']}"
    )


def test_corrupted_coboundary_trips_the_witness_check(lie3, family1, monkeypatch):
    """The note names X and the first entry where dir1 - dir2 and delta_R(X)
    differ, with both values."""
    x_wedge = {(2,): Fraction(1, 3)}
    dir1 = delta_r_operator(lie3, family1, x_wedge)
    zero = Matrix.zero(3)
    assert check_equivalence_witness(lie3, family1, dir1, zero, x_wedge)

    def corrupt(algebra, op, wedge):
        entries = [list(row) for row in delta_r_operator(algebra, op, wedge).entries]
        entries[1][2] += 1
        return Matrix(entries)

    monkeypatch.setattr(deformation, "delta_r_operator", corrupt)
    with pytest.raises(InternalConsistencyError) as caught:
        check_equivalence_witness(lie3, family1, dir1, zero, x_wedge)
    assert str(caught.value) == (
        "homomorphism pair verified for X = {(2,): 1/3} but dir1 - dir2 is not the coboundary of X: "
        f"entry (2, 3) of dir1 - dir2 is {spelled(dir1[1, 2])}, of delta_R(X) {spelled(dir1[1, 2] + 1)}"
    )


def test_every_operator_argument_is_checked_for_the_algebra_dimension(lie3, family1):
    """A dim-2 operator in any operator slot on a dim-3 algebra is one
    ``InputError``, raised by ``NAryAlgebra.require_operator`` before any
    walk, where a slot unchecked before failed inside a product or an apply."""
    small, zero, ident = Matrix.identity(2), Matrix.zero(3), Matrix.identity(3)
    x = wedge_single((2,), 3)
    calls = [
        ("direction", lambda: is_infinitesimal_deformation(lie3, family1, small)),
        ("direction", lambda: is_trivial_deformation(lie3, family1, small)),
        ("direction", lambda: check_equivalence_witness(lie3, family1, small, zero, x)),
        ("direction", lambda: check_equivalence_witness(lie3, family1, zero, small, x)),
        ("operator", lambda: is_infinitesimal_deformation(lie3, small, zero)),
        ("operator", lambda: delta_r_operator(lie3, small, x)),
    ]
    for slot in range(4):  # r_from, r_to, phi, psi
        ops = [ident] * 4
        ops[slot] = small
        calls.append(("operator", lambda ops=ops: check_hom_pair(lie3, *ops)))
    for what, call in calls:
        with pytest.raises(InputError) as raised:
            call()
        assert str(raised.value) == f"{what} dimension mismatch"
