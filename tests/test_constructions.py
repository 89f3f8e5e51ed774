from collections import Counter
from fractions import Fraction

import pytest

from nliealg import constructions, reynolds
from nliealg.algebra import NAryAlgebra, check_filippov, is_derivation
from nliealg.cli import run_command
from nliealg.constructions import (
    LinearFunctional,
    check_assoc_reynolds,
    check_associative,
    check_reynolds_on_det_3lie,
    corollary_bracket,
    det_triple_identity,
    extend_by_functional,
    lie_from_derivation,
    reynolds_lift_criterion,
    three_lie_from_f_D,
    three_lie_from_three_derivations,
    three_lie_from_two_derivations,
)
from nliealg.documents import algebra_document, emit_document, functional_document, operator_document
from nliealg.errors import InputError, NLieError, PreconditionError
from nliealg.linalg import Matrix, unit_vector
from nliealg.reynolds import check_reynolds, derivation_to_reynolds, induced_bracket

from conftest import (
    naive_check_assoc_reynolds,
    naive_corollary_bracket,
    naive_lift_criterion,
    rand_vector,
    report_bytes,
    trunc_xyz,
)


def diag(*vals):
    n = len(vals)
    return Matrix([[Fraction(vals[i]) if i == j else Fraction(0) for j in range(n)]
                   for i in range(n)])


def d1_op():
    """x d/dx on basis 1, x, y, xy."""
    return diag(0, 1, 0, 1)


def d2_op():
    """y d/dy on basis 1, x, y, xy."""
    return diag(0, 0, 1, 1)


def d0_op():
    """xy d/dx: sends x to xy, kills the rest."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[3][1] = Fraction(1)
    return Matrix(m)


def test_truncated_algebras_are_associative(trunc_xy, trunc_x3):
    assert check_associative(trunc_xy)
    assert check_associative(trunc_x3)
    assert check_associative(trunc_xyz())


def test_partial_derivative_scalings_are_derivations(trunc_xy):
    assert is_derivation(trunc_xy, d1_op())
    assert is_derivation(trunc_xy, d2_op())
    assert is_derivation(trunc_xy, d0_op())


def test_extend_by_functional_worked_example(lie3, trace_functional):
    gf = extend_by_functional(lie3, trace_functional)
    assert gf.arity == 3
    assert gf.bracket_on_basis((1, 2, 3)) == [0, 1, 0]
    assert check_filippov(gf)


def test_extension_rejects_nonvanishing_functional(lie3):
    with pytest.raises(PreconditionError):
        extend_by_functional(lie3, LinearFunctional([0, 1, 0]))


def test_lift_criterion_for_operator_families(lie3, family1, family2, trace_functional):
    assert reynolds_lift_criterion(lie3, family1, trace_functional)
    assert reynolds_lift_criterion(lie3, family2, trace_functional)
    gf = extend_by_functional(lie3, trace_functional)
    assert check_reynolds(gf, family1)
    assert check_reynolds(gf, family2)


def test_corollary_bracket_equals_induced_of_extension(lie3, family1, family2, trace_functional):
    gf = extend_by_functional(lie3, trace_functional)
    for op in (family1, family2):
        result = corollary_bracket(lie3, op, trace_functional)
        assert result == induced_bracket(gf, op)
        assert check_filippov(result)


def test_assoc_reynolds_series(trunc_xy):
    op = Matrix.identity(4) - d0_op()
    assert check_assoc_reynolds(trunc_xy, op)
    assert check_assoc_reynolds(trunc_xy, Matrix.zero(4))
    assert not check_assoc_reynolds(trunc_xy, Matrix.identity(4).scale(Fraction(2)))


def test_lie_from_derivation(trunc_xy):
    lie = lie_from_derivation(trunc_xy, d1_op())
    assert check_filippov(lie)
    # [1, x]_D = D(1)x - D(x)1 = -x
    assert lie.bracket_on_basis((1, 2)) == [0, -1, 0, 0]


def test_fd_determinant_bracket(trunc_xy):
    f = LinearFunctional([1, 0, 0, 0])
    three = three_lie_from_f_D(trunc_xy, f, d1_op())
    assert check_filippov(three)
    # {1, x, y} = f(1)(D(x)y - D(y)x) = xy
    assert three.bracket_on_basis((1, 2, 3)) == [0, 0, 0, 1]


def test_fd_rejects_unbalanced_functional(trunc_xy):
    # f = coefficient of x: f(D(1).x) = 0 but f(1.D(x)) = 1 for D = x d/dx
    with pytest.raises(PreconditionError):
        three_lie_from_f_D(trunc_xy, LinearFunctional([0, 1, 0, 0]), d1_op())


def test_dd_determinant_bracket(trunc_xy):
    three = three_lie_from_two_derivations(trunc_xy, d1_op(), d2_op())
    assert check_filippov(three)
    assert three.bracket_on_basis((1, 2, 3)) == [0, 0, 0, 1]


def test_dd_degenerate_pair_gives_zero(trunc_xy):
    d0b = Matrix([[Fraction(0)] * 4 for _ in range(4)])
    d0b = d0b + Matrix([[Fraction(1) if (i, j) == (3, 2) else Fraction(0)
                         for j in range(4)] for i in range(4)])
    three = three_lie_from_two_derivations(trunc_xy, d0_op(), d0b)
    assert three.is_abelian()


def test_ddd_determinant_bracket():
    alg = trunc_xyz()
    degs = {
        "x": [0, 1, 0, 0, 1, 1, 0, 1],
        "y": [0, 0, 1, 0, 1, 0, 1, 1],
        "z": [0, 0, 0, 1, 0, 1, 1, 1],
    }
    ops = [diag(*degs[v]) for v in ("x", "y", "z")]
    three = three_lie_from_three_derivations(alg, *ops)
    assert check_filippov(three)
    # {x, y, z} = det of degree rows times xyz
    got = three.bracket_on_basis((2, 3, 4))
    assert got == [0, 0, 0, 0, 0, 0, 0, 1]


def test_noncommuting_derivations_rejected(trunc_xy):
    # xy d/dx does not commute with y d/dy
    with pytest.raises(PreconditionError):
        three_lie_from_two_derivations(trunc_xy, d0_op(), d2_op())


def test_det_triple_identity_holds_with_correction_two(trunc_xy, rng):
    op = Matrix.identity(4) - d0_op()
    for _ in range(10):
        cols = [[rand_vector(rng, 4) for _ in range(3)] for _ in range(3)]
        assert det_triple_identity(trunc_xy, op, cols, correction=2)


@pytest.mark.xfail(strict=True, reason="the identity needs correction 2, not 1")
def test_det_triple_identity_with_correction_one(trunc_xy, rng):
    op = Matrix.identity(4) - d0_op()
    for _ in range(10):
        cols = [[rand_vector(rng, 4) for _ in range(3)] for _ in range(3)]
        assert det_triple_identity(trunc_xy, op, cols, correction=1)


def test_zero_operator_is_reynolds_on_det_3lie(trunc_xy):
    zero = Matrix.zero(4)
    assert check_reynolds_on_det_3lie(trunc_xy, zero, "dd", (d1_op(), d2_op()))
    f = LinearFunctional([1, 0, 0, 0])
    assert check_reynolds_on_det_3lie(trunc_xy, zero, "fd", (f, d1_op()))


@pytest.mark.xfail(strict=True,
                   reason="the identity operator is not Reynolds on a nonzero 3-bracket")
def test_identity_on_nondegenerate_dd_instance(trunc_xy):
    assert check_reynolds_on_det_3lie(
        trunc_xy, Matrix.identity(4), "dd", (d1_op(), d2_op()))


@pytest.mark.xfail(strict=True,
                   reason="the identity operator is not Reynolds on a nonzero 3-bracket")
def test_identity_on_nondegenerate_fd_instance(trunc_xy):
    f = LinearFunctional([1, 0, 0, 0])
    assert check_reynolds_on_det_3lie(trunc_xy, Matrix.identity(4), "fd", (f, d1_op()))


def test_series_operator_fails_fd_criterion(trunc_xy):
    # R = Id - xy d/dx commutes with x d/dx and is Reynolds for the
    # product, yet the determinant criterion fails on (1, x, y)
    op = Matrix.identity(4) - d0_op()
    f = LinearFunctional([1, 0, 0, 0])
    verdict = check_reynolds_on_det_3lie(trunc_xy, op, "fd", (f, d1_op()))
    assert not verdict
    assert verdict.counterexample is not None


def test_series_operator_fails_commuting_precondition(trunc_xy):
    op = Matrix.identity(4) - d0_op()
    with pytest.raises(PreconditionError):
        check_reynolds_on_det_3lie(trunc_xy, op, "dd", (d1_op(), d2_op()))


def outcome(fn, *args):
    """The document bytes of a construction or the report bytes of a
    check, or the error raised, with its message."""
    try:
        out = fn(*args)
    except NLieError as exc:
        return type(exc), str(exc)
    return emit_document(algebra_document(out)) if isinstance(out, NAryAlgebra) else report_bytes(out)


def lie3_reynolds_operators(lie3, rng):
    """(D + Id)^-1 for seeded derivations De1 = b e2 + c e3, De2 = a e2,
    De3 = e e3 of [e1,e2] = e2, and the zero operator."""
    ops = [Matrix.zero(3)]
    while len(ops) < 7:
        a, b, c, e = (rng.randint(-2, 2) for _ in range(4))
        if -1 not in (a, e):
            ops.append(derivation_to_reynolds(lie3, Matrix([[0, 0, 0], [b, a, 0], [c, 0, e]])))
    return ops


def test_corollary_bracket_matches_naive_oracle(lie3, family1, family2, rng):
    """The same bytes, or the same error, as the written-out double sum: on
    lifts that hold, lifts whose criterion fails, a functional that does
    not vanish on brackets and an operator that is not Reynolds."""
    ops = [family1, family2] + lie3_reynolds_operators(lie3, rng) + [Matrix.identity(3).scale(2)]
    functionals = [LinearFunctional([1, 0, 1]), LinearFunctional([0, 1, 0])]
    functionals += [LinearFunctional([rng.randint(-2, 2), 0, Fraction(rng.randint(-2, 2), rng.randint(1, 2))])
                    for _ in range(4)]
    seen = Counter()
    for op in ops:
        for functional in functionals:
            got = outcome(corollary_bracket, lie3, op, functional)
            assert got == outcome(naive_corollary_bracket, lie3, op, functional), (op, functional.coefficients)
            seen["built" if isinstance(got, str) else got[1]] += 1
    assert set(seen) == {"built", "lift criterion fails", "functional does not vanish on brackets",
                         "operator is not a Reynolds operator"}


def test_lift_criterion_matches_naive_oracle(lie3, three_lie4, family1, family2, rng):
    """The same report bytes, or the same error, as the criterion written
    out on dense vectors, with [Rx_1,...,^Rx_i,...,Rx_{n+1}] read off the
    operator's Reynolds walk: on lifts that hold, lifts whose criterion
    fails, functionals that do not vanish on brackets and operators that
    are not Reynolds."""
    deriv = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    cases = []
    lie3_ops = [family1, family2] + lie3_reynolds_operators(lie3, rng) + [Matrix.identity(3).scale(2)]
    lie3_functionals = [LinearFunctional([1, 0, 1]), LinearFunctional([0, 1, 0])]
    lie3_functionals += [LinearFunctional([rng.randint(-2, 2), 0, Fraction(rng.randint(-2, 2), rng.randint(1, 2))])
                         for _ in range(3)]
    cases += [(lie3, op, f) for op in lie3_ops for f in lie3_functionals]
    ops = [Matrix.zero(4), Matrix.identity(4).scale(2), derivation_to_reynolds(three_lie4, deriv),
           Matrix([[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])]
    functionals = [LinearFunctional([1, 0, 0, 0]), LinearFunctional([0, 1, 1, 0]), LinearFunctional([0, 0, 0, 1])]
    functionals += [LinearFunctional([rng.randint(-2, 2) for _ in range(3)] + [0]) for _ in range(2)]
    cases += [(three_lie4, op, f) for op in ops for f in functionals]
    seen = Counter()
    for alg, op, functional in cases:
        got = outcome(reynolds_lift_criterion, alg, op, functional)
        assert got == outcome(naive_lift_criterion, alg, op, functional), (op, functional.coefficients)
        seen[got[1] if isinstance(got, tuple) else '"passed": true' in got] += 1
    assert set(seen) == {True, False, "functional does not vanish on brackets",
                         "operator is not a Reynolds operator"}


def test_check_assoc_reynolds_matches_naive_oracle(lie3, trunc_xy, trunc_x3, rng):
    cases = [(trunc_xy, Matrix.identity(4) - d0_op()), (trunc_xy, Matrix.zero(4)),
             (trunc_xy, Matrix.identity(4).scale(2)), (lie3, Matrix.zero(3))]
    for alg in (trunc_xy, trunc_x3, trunc_xyz()):
        cases += [(alg, Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)]
                                for _ in range(alg.dim)])) for _ in range(4)]
    seen = []
    for alg, op in cases:
        got = outcome(check_assoc_reynolds, alg, op)
        assert got == outcome(naive_check_assoc_reynolds, alg, op)
        seen.append(got[0] if isinstance(got, tuple) else '"passed": true' in got)
    assert seen[:4] == [True, True, False, InputError] and set(seen) == {True, False, InputError}


def test_corollary_job_builds_and_walks_the_extension_once(lie3, family1, trace_functional, tmp_path,
                                                          monkeypatch):
    """One CLI corollary job: the lift criterion, its re-check on the
    extension and the cross-check of the double sum share one extension,
    one vanishing check, one Reynolds walk on the algebra and one on the
    extension."""
    calls = Counter()
    extension, vanishes, walk = (constructions._extension, LinearFunctional.vanishes_on_brackets,
                                 reynolds.reynolds_values)
    induced_value, bracket = reynolds.induced_value, NAryAlgebra.bracket

    def counted_extension(*args):
        calls["extension"] += 1
        return extension(*args)

    def counted_vanishes(*args):
        calls["vanishes"] += 1
        return vanishes(*args)

    def counted_walk(algebra, op):
        calls[f"walk, arity {algebra.arity}"] += 1
        return walk(algebra, op)

    def counted_induced_value(*args):
        calls["induced_value"] += 1
        return induced_value(*args)

    def counted_bracket(*args):
        calls["bracket"] += 1
        return bracket(*args)

    monkeypatch.setattr(reynolds, "induced_value", counted_induced_value)
    monkeypatch.setattr(constructions, "induced_value", counted_induced_value)
    monkeypatch.setattr(NAryAlgebra, "bracket", counted_bracket)
    monkeypatch.setattr(constructions, "_extension", counted_extension)
    monkeypatch.setattr(LinearFunctional, "vanishes_on_brackets", counted_vanishes)
    monkeypatch.setattr(reynolds, "reynolds_values", counted_walk)
    monkeypatch.setattr(constructions, "reynolds_values", counted_walk)
    paths = {}
    for name, doc in (("g", algebra_document(lie3)), ("r", operator_document(family1)),
                      ("f", functional_document(trace_functional))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    report, code = run_command(["construct", "corollary", "--algebra", str(paths["g"]), "--operator",
                                str(paths["r"]), "--functional", str(paths["f"]), "--json"])
    assert code == 0 and report.artifacts[0]["arity"] == 3
    # the criterion and the double sum read the walk of arity 2: no induced
    # value or bracket is formed again (3 + 1 induced values, one per tuple)
    assert calls == {"extension": 1, "vanishes": 1, "walk, arity 2": 1, "walk, arity 3": 1, "induced_value": 4}
