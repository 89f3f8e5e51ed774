"""End-to-end acceptance suite.

Each test_criterion_NN function covers one advertised guarantee; a
conftest hook prints one ACCEPTANCE line per criterion.  Claims that are
false as stated are carried by strict-xfail companions below the main
criterion tests, so a silent fix would surface as a test failure.
"""

from fractions import Fraction

import pytest

from nliealg.algebra import (
    NAryAlgebra,
    adjoint_representation,
    check_filippov,
)
from nliealg.cli import run_command
from nliealg.cohomology import (
    Cochain,
    ReynoldsComplex,
    coboundary,
)
from nliealg.constructions import (
    LinearFunctional,
    check_reynolds_on_det_3lie,
    extend_by_functional,
    three_lie_from_f_D,
    three_lie_from_three_derivations,
    three_lie_from_two_derivations,
)
from nliealg.deformation import (
    is_infinitesimal_deformation,
    is_trivial_deformation,
)
from nliealg.cohomology import delta_r_operator
from nliealg.documents import (
    algebra_document,
    emit_document,
    functional_document,
    operator_document,
)
from nliealg.linalg import Matrix
from nliealg.nijenhuis import check_nijenhuis, deformed_algebra
from nliealg.ns import check_ns, ns_from_nijenhuis, ns_from_reynolds, subadjacent
from nliealg.reynolds import (
    check_reynolds,
    derivation_to_reynolds,
    induced_bracket,
    reynolds_from_nilpotent_derivation,
    reynolds_to_derivation,
)
from nliealg.wedge import increasing_tuples

from conftest import (
    check_complex,
    det_triple_identity,
    is_abelian,
    lie3_nilpotent_derivation,
    naive_delta_r_cochain,
    rand_fraction,
    rand_matrix,
    rand_vector,
    strictly_upper,
    trunc_xyz,
    wedge_single,
)

from test_nijenhuis import ladder_level_oracle


def _rand_cochain(rng, arity, dim, degree):
    size = len(increasing_tuples(dim, arity - 1)) ** (degree - 1) * dim * dim
    return Cochain(arity, dim, dim, degree,
                   [rand_fraction(rng, 2) for _ in range(size)])


def _reynolds_corpus(rng):
    """(algebra, verified Reynolds operator) pairs used across criteria."""
    lie3 = NAryAlgebra(2, 3, {(1, 2): [0, 1, 0]})
    gf = extend_by_functional(lie3, LinearFunctional([1, 0, 1]))
    family1 = Matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])
    family2 = Matrix([[-1, 1, 0], [-1, 1, 0], [0, 0, 1]])
    three_lie4 = NAryAlgebra(3, 4, {(1, 2, 3): [0, 0, 0, 1]})
    abelian33 = NAryAlgebra(3, 3, {})
    corpus = [
        (lie3, family1), (lie3, family2),
        (gf, family1), (gf, family2),
        (abelian33, Matrix.zero(3)),
        (lie3, Matrix.zero(3)),
    ]
    for _ in range(3):
        deriv = lie3_nilpotent_derivation(rng)
        corpus.append((lie3, derivation_to_reynolds(lie3, deriv)))
    deriv = Matrix([[Fraction(0)] * 4 for _ in range(4)])
    deriv = deriv + Matrix([[Fraction(1) if (i, j) == (3, 0) else Fraction(0)
                             for j in range(4)] for i in range(4)])
    corpus.append((three_lie4, derivation_to_reynolds(three_lie4, deriv)))
    return corpus


def test_criterion_01_worked_example(lie3, family1, family2, trace_functional, tmp_path):
    g_path = tmp_path / "g.json"
    f_path = tmp_path / "f.json"
    g_path.write_text(emit_document(algebra_document(lie3)))
    f_path.write_text(emit_document(functional_document(trace_functional)))
    report, code = run_command([
        "construct", "gf", "--algebra", str(g_path), "--functional", str(f_path)])
    assert code == 0
    assert report.artifacts[0]["brackets"] == [
        {"on": [1, 2, 3], "value": ["0", "1", "0"]}]
    gf = extend_by_functional(lie3, trace_functional)
    for op in (family1, family2):
        assert check_reynolds(lie3, op)
        assert check_reynolds(gf, op)


def test_criterion_02_perturbation_sensitivity(lie3, family1, family2, trace_functional):
    gf = extend_by_functional(lie3, trace_functional)
    for base in (family1, family2):
        for i in range(3):
            for j in range(3):
                if not base.entries[i][j]:
                    continue
                entries = [list(row) for row in base.entries]
                entries[i][j] = entries[i][j] + 1
                perturbed = Matrix(entries)
                on_g = check_reynolds(lie3, perturbed)
                on_gf = check_reynolds(gf, perturbed)
                if (i, j) == (2, 2):
                    # the bottom-right entry is a free parameter of both
                    # families; perturbing it yields another operator that
                    # genuinely passes both checks
                    assert on_g and on_gf
                    continue
                assert not (on_g and on_gf), (i, j)
                failing = on_gf if on_g else on_g
                assert failing.counterexample is not None


def test_criterion_03_complex_property(lie3, sl2_like, three_lie4, family1, family2,
                                       abelian33, rng):
    instances = 0
    # square-zero of the plain coboundary with the adjoint action
    plans = [(sl2_like, (1, 2, 3)), (lie3, (1, 2, 3)), (three_lie4, (1, 2))]
    for alg, degrees in plans:
        rho = adjoint_representation(alg)
        for m in degrees:
            samples = [_rand_cochain(rng, alg.arity, alg.dim, m) for _ in range(4)]
            assert check_complex(alg, rho, m, samples)
            instances += len(samples)
    # square-zero of d_R and d_R after delta_R on Reynolds complexes
    complexes = [
        ReynoldsComplex(lie3, family1),
        ReynoldsComplex(lie3, family2),
        ReynoldsComplex(abelian33, Matrix.zero(3)),
    ]
    for cx in complexes:
        alg = cx.base
        for m in (1, 2):
            for _ in range(3):
                f = _rand_cochain(rng, alg.arity, alg.dim, m)
                assert coboundary(cx.induced, cx.rho, coboundary(cx.induced, cx.rho, f)).is_zero()
                instances += 1
        for tup in cx.tuples:
            f = naive_delta_r_cochain(alg, cx.op, wedge_single(tup, alg.dim))
            assert coboundary(cx.induced, cx.rho, f).is_zero()
            instances += 1
    assert instances >= 50


def test_criterion_04_induced_bracket_suite(rng):
    for alg, op in _reynolds_corpus(rng):
        induced = induced_bracket(alg, op)
        assert check_filippov(induced)
        for tup in induced.basis_tuples():
            lhs = op.apply(induced.bracket_on_basis(tup))
            rhs = alg.bracket([op.apply(u) for u in alg.units(tup)])
            assert lhs == rhs
        assert check_reynolds(induced, op)


def test_criterion_05_derivation_correspondence(lie3, abelian33, rng):
    count = 0
    cases = [(abelian33, lambda: strictly_upper(rng, 3)) for _ in range(12)]
    cases += [(lie3, lambda: lie3_nilpotent_derivation(rng)) for _ in range(12)]
    for alg, make in cases:
        deriv = make()
        series = reynolds_from_nilpotent_derivation(alg, deriv)
        assert series == derivation_to_reynolds(alg, deriv)
        assert check_reynolds(alg, series)
        assert reynolds_to_derivation(alg, series) == deriv
        count += 1
    assert count >= 20


def test_criterion_06_nijenhuis_suite(lie3, three_lie4, rng):
    four_lie5 = NAryAlgebra(4, 5, {(1, 2, 3, 4): [0, 0, 0, 0, 1]})
    lambdas = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for alg in (lie3, three_lie4, four_lie5):
        n = alg.arity
        for lam in lambdas:
            op = Matrix.identity(alg.dim).scale(lam)
            assert check_nijenhuis(alg, op)
            deformed = deformed_algebra(alg, op)
            coeff = lam ** (n - 1)
            for tup in increasing_tuples(alg.dim, n):
                expect = [coeff * v for v in alg.bracket_on_basis(tup)]
                assert deformed.bracket_on_basis(tup) == expect
    # ladder recursion against the brute-force closed form on random N
    small = NAryAlgebra(3, 3, {(1, 2, 3): [1, 0, 0]})
    from nliealg.nijenhuis import deformed_bracket_ladder
    for _ in range(5):
        op = rand_matrix(rng, 3)
        ladder = deformed_bracket_ladder(small, op)
        for j in range(3):
            for tup in increasing_tuples(3, 3):
                assert ladder.level(j).bracket_on_basis(tup) == \
                    ladder_level_oracle(small, op, j, tup)


def test_criterion_07_ns_suite(lie3, three_lie4, rng):
    for alg, op in _reynolds_corpus(rng):
        structure = ns_from_reynolds(alg, op)
        assert check_ns(structure)
        sub, _ = subadjacent(structure)
        assert sub == induced_bracket(alg, op)
    for alg, lam in ((lie3, Fraction(2)), (three_lie4, Fraction(1, 2))):
        op = Matrix.identity(alg.dim).scale(lam)
        structure = ns_from_nijenhuis(alg, op)
        assert check_ns(structure)
        sub, _ = subadjacent(structure)
        assert sub == deformed_algebra(alg, op)


def test_criterion_08_deformation_consistency(lie3, abelian33, rng):
    pairs = 0
    bases = []
    for _ in range(8):
        deriv = lie3_nilpotent_derivation(rng)
        bases.append((lie3, derivation_to_reynolds(lie3, deriv)))
    for _ in range(8):
        deriv = strictly_upper(rng, 3)
        bases.append((abelian33, derivation_to_reynolds(abelian33, deriv)))
    for alg, op in bases:
        for _ in range(7):
            direction = rand_matrix(rng, 3)
            # raises InternalConsistencyError if the explicit t-linear
            # identity and the dual-number re-run ever disagree
            is_infinitesimal_deformation(alg, op, direction)
            pairs += 1
    assert pairs >= 100
    for alg, op in bases[:3] + bases[8:11]:
        for tup in increasing_tuples(alg.dim, alg.arity - 1):
            direction = delta_r_operator(alg, op, wedge_single(tup, alg.dim))
            assert is_infinitesimal_deformation(alg, op, direction)
            assert is_trivial_deformation(alg, op, direction).status == "trivial"


def test_criterion_09_determinant_suite(trunc_xy, rng):
    f = LinearFunctional([1, 0, 0, 0])
    d1 = Matrix([[Fraction(1) if i == j and i in (1, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    d2 = Matrix([[Fraction(1) if i == j and i in (2, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    assert check_filippov(three_lie_from_f_D(trunc_xy, f, d1))
    assert check_filippov(three_lie_from_two_derivations(trunc_xy, d1, d2))
    big = trunc_xyz()
    degs = {
        "x": [0, 1, 0, 0, 1, 1, 0, 1],
        "y": [0, 0, 1, 0, 1, 0, 1, 1],
        "z": [0, 0, 0, 1, 0, 1, 1, 1],
    }
    ops = [Matrix([[Fraction(degs[v][i]) if i == j else Fraction(0)
                    for j in range(8)] for i in range(8)]) for v in ("x", "y", "z")]
    assert check_filippov(three_lie_from_three_derivations(big, *ops))
    # determinant identity, in the corrected form that actually holds
    d0 = Matrix([[Fraction(1) if (i, j) == (3, 1) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    series = Matrix.identity(4) - d0
    for _ in range(50):
        cols = [[rand_vector(rng, 4) for _ in range(3)] for _ in range(3)]
        assert det_triple_identity(trunc_xy, series, cols, correction=2)
    # the attainable operator cases: R = 0 passes every variant, and the
    # identity passes exactly when the determinant bracket vanishes
    zero = Matrix.zero(4)
    assert check_reynolds_on_det_3lie(trunc_xy, zero, "fd", (f, d1))
    assert check_reynolds_on_det_3lie(trunc_xy, zero, "dd", (d1, d2))
    assert check_reynolds_on_det_3lie(big, Matrix.zero(8), "ddd", tuple(ops))
    degenerate = three_lie_from_two_derivations(trunc_xy, d1, d1)
    assert is_abelian(degenerate)
    assert check_reynolds(degenerate, Matrix.identity(4))


def test_criterion_10_cohomology_fixtures(lie3, family1, family2, abelian33, tmp_path):
    frozen = [
        (abelian33, Matrix.zero(3), [3, 9]),
        (lie3, family1, [2, 5]),
        (lie3, family2, [1, 3]),
    ]
    for alg, op, expect in frozen:
        dims = ReynoldsComplex(alg, op).dimensions(1)
        assert [row[3] for row in dims] == expect
    g_path = tmp_path / "g.json"
    r_path = tmp_path / "r1.json"
    g_path.write_text(emit_document(algebra_document(lie3)))
    r_path.write_text(emit_document(operator_document(family1)))
    args = ["cohomology", "--algebra", str(g_path), "--reynolds", str(r_path),
            "--max-degree", "1", "--json"]
    first, code = run_command(args)
    assert code == 0
    second, _ = run_command(args)
    assert first.to_json() == second.to_json()
    assert first.artifacts[0] == {
        "kind": "cohomology_table",
        "max_degree": 1,
        "rows": [
            {"degree": 0, "cocycles": 2, "coboundaries": 0, "dimension": 2},
            {"degree": 1, "cocycles": 6, "coboundaries": 1, "dimension": 5},
        ],
    }


# -- claims that are false as stated, kept visible as strict xfails ------


@pytest.mark.xfail(strict=True,
                   reason="the bottom-right entry of both families is a free parameter")
def test_unattainable_every_entry_is_sensitive(lie3, family1, trace_functional):
    gf = extend_by_functional(lie3, trace_functional)
    entries = [list(row) for row in family1.entries]
    entries[2][2] = entries[2][2] + 1
    perturbed = Matrix(entries)
    assert not (check_reynolds(lie3, perturbed) and check_reynolds(gf, perturbed))


@pytest.mark.xfail(strict=True,
                   reason="the identity operator fails on a nonzero fd bracket")
def test_unattainable_identity_fd(trunc_xy):
    f = LinearFunctional([1, 0, 0, 0])
    d1 = Matrix([[Fraction(1) if i == j and i in (1, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    assert check_reynolds_on_det_3lie(trunc_xy, Matrix.identity(4), "fd", (f, d1))


@pytest.mark.xfail(strict=True,
                   reason="the identity operator fails on a nonzero dd bracket")
def test_unattainable_identity_dd(trunc_xy):
    d1 = Matrix([[Fraction(1) if i == j and i in (1, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    d2 = Matrix([[Fraction(1) if i == j and i in (2, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    assert check_reynolds_on_det_3lie(trunc_xy, Matrix.identity(4), "dd", (d1, d2))


@pytest.mark.xfail(strict=True,
                   reason="the identity operator fails on a nonzero ddd bracket")
def test_unattainable_identity_ddd():
    big = trunc_xyz()
    degs = {
        "x": [0, 1, 0, 0, 1, 1, 0, 1],
        "y": [0, 0, 1, 0, 1, 0, 1, 1],
        "z": [0, 0, 0, 1, 0, 1, 1, 1],
    }
    ops = [Matrix([[Fraction(degs[v][i]) if i == j else Fraction(0)
                    for j in range(8)] for i in range(8)]) for v in ("x", "y", "z")]
    assert check_reynolds_on_det_3lie(big, Matrix.identity(8), "ddd", tuple(ops))


@pytest.mark.xfail(strict=True,
                   reason="the series operator fails the fd determinant criterion")
def test_unattainable_series_fd(trunc_xy):
    d0 = Matrix([[Fraction(1) if (i, j) == (3, 1) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    d1 = Matrix([[Fraction(1) if i == j and i in (1, 3) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    f = LinearFunctional([1, 0, 0, 0])
    op = Matrix.identity(4) - d0
    assert check_reynolds_on_det_3lie(trunc_xy, op, "fd", (f, d1))


@pytest.mark.xfail(strict=True,
                   reason="the determinant identity fails with correction 1")
def test_unattainable_det_identity_correction_one(trunc_xy, rng):
    d0 = Matrix([[Fraction(1) if (i, j) == (3, 1) else Fraction(0)
                  for j in range(4)] for i in range(4)])
    op = Matrix.identity(4) - d0
    for _ in range(20):
        cols = [[rand_vector(rng, 4) for _ in range(3)] for _ in range(3)]
        assert det_triple_identity(trunc_xy, op, cols, correction=1)
