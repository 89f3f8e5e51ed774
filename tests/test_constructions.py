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
    comm_assoc_algebra,
    corollary_bracket,
    extend_by_functional,
    lie_from_derivation,
    reynolds_lift_criterion,
    three_lie_algebra,
    three_lie_from_f_D,
    three_lie_from_three_derivations,
    three_lie_from_two_derivations,
)
from nliealg.documents import algebra_document, emit_document, functional_document, operator_document
from nliealg.errors import InputError, InternalConsistencyError, NLieError, NotInvertibleError, PreconditionError
from nliealg.linalg import Matrix, vec_sub
from nliealg.reynolds import check_reynolds, derivation_to_reynolds, induced_bracket
from nliealg.verdict import spelled
from nliealg.wedge import increasing_tuples

from conftest import (
    balanced_functionals,
    commuting_derivations,
    derivation_space,
    det_triple_identity,
    euler_derivation,
    is_abelian,
    naive_check_assoc_reynolds,
    naive_check_associative,
    naive_corollary_bracket,
    naive_det3_fd_check,
    naive_fd_sum,
    naive_induced_value,
    naive_lift_criterion,
    naive_three_lie_from_f_D,
    rand_combination,
    rand_matrix,
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


def test_check_associative_matches_naive_oracle(trunc_xy, trunc_x3, field_k, rng):
    """The tabulated check against the two-bracket walk: the same verdict,
    first failing triple and sides, on the truncated algebras and on seeded
    sparse commutative products, most of them not associative."""
    products = [trunc_xy, trunc_x3, trunc_xyz(), field_k]
    for _ in range(40):
        d = rng.randint(1, 4)
        pairs = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
        table = {pair: [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) if rng.random() < 0.4 else 0
                        for _ in range(d)] for pair in rng.sample(pairs, rng.randint(0, len(pairs)))}
        products.append(comm_assoc_algebra(d, table))
    triples = Counter()
    for alg in products:
        verdict = check_associative(alg)
        assert verdict == naive_check_associative(alg)
        triples[verdict.counterexample["where"]["triple"] if not verdict else "pass"] += 1
    assert triples["pass"] > 4 and len(triples) > 5


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
    assert is_abelian(three)


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


def test_det3_variants_dispatch_in_one_place(trunc_xy):
    """``three_lie_algebra`` builds each variant as its own constructor does,
    and refuses an unknown variant or a wrong number of entries."""
    f, d1, d2 = LinearFunctional([1, 0, 0, 0]), d1_op(), d2_op()
    for variant, data, build in (("fd", (f, d1), three_lie_from_f_D), ("dd", (d1, d2), three_lie_from_two_derivations),
                                 ("ddd", (d1, d2, d1 + d2), three_lie_from_three_derivations)):
        assert three_lie_algebra(trunc_xy, variant, data) == build(trunc_xy, *data)
        with pytest.raises(InputError, match=f"variant {variant} takes"):
            three_lie_algebra(trunc_xy, variant, data[:-1])
    with pytest.raises(InputError, match="unknown variant 'df'"):
        three_lie_algebra(trunc_xy, "df", (f, d1))


def test_check_reynolds_matches_naive_assoc_oracle(trunc_xy, trunc_x3, rng):
    """The shared Reynolds walk on a commutative product against the former
    pair loop of ``check_assoc_reynolds``: same verdict, same first pair,
    same sides; passing operators from derivations, failing ones seeded."""
    cases = []
    for alg, degrees in ((trunc_xy, [0, 1, 0, 1]), (trunc_xy, [0, 1, 1, 2]), (trunc_x3, [0, 1, 2])):
        deriv = euler_derivation(alg.dim, degrees).scale(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        cases += [(alg, derivation_to_reynolds(alg, deriv)), (alg, Matrix.identity(alg.dim))]
        cases += [(alg, Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)]
                                for _ in range(alg.dim)])) for _ in range(6)]
    verdicts = []
    for alg, op in cases:
        got, want = check_reynolds(alg, op), naive_check_assoc_reynolds(alg, op)
        assert got.passed is want.passed
        if not got:
            assert got.counterexample["where"]["tuple"] == want.counterexample["where"]["pair"]
            assert {k: v for k, v in got.counterexample.items() if k != "where"} == {
                k: v for k, v in want.counterexample.items() if k != "where"}
        verdicts.append(got.passed)
    assert True in verdicts and False in verdicts


def test_corollary_job_builds_and_walks_the_extension_once(lie3, family1, trace_functional, tmp_path,
                                                          monkeypatch):
    """One CLI corollary job: the lift criterion, its re-check on the
    extension and the cross-check of the double sum share one extension,
    one vanishing check, one Reynolds walk on the algebra and one on the
    extension."""
    calls = Counter()
    extension, vanishes, walk = (constructions._extension, LinearFunctional.vanishes_on_brackets,
                                 reynolds.reynolds_values)
    wedge, bracket = reynolds.graded_wedges, NAryAlgebra.bracket

    def counted_extension(*args):
        calls["extension"] += 1
        return extension(*args)

    def counted_vanishes(*args):
        calls["vanishes"] += 1
        return vanishes(*args)

    def counted_walk(algebra, op):
        calls[f"walk, arity {algebra.arity}"] += 1
        return walk(algebra, op)

    def counted_wedge(*args):
        calls["graded_wedges"] += 1
        return wedge(*args)

    def counted_bracket(*args):
        calls["bracket"] += 1
        return bracket(*args)

    monkeypatch.setattr(reynolds, "graded_wedges", counted_wedge)
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
    # value or bracket is formed again (one graded-wedge walk per Reynolds walk)
    assert calls == {"extension": 1, "vanishes": 1, "walk, arity 2": 1, "walk, arity 3": 1, "graded_wedges": 2}


def test_corrupted_extension_walk_trips_the_corollary_check(lie3, family1, trace_functional, monkeypatch):
    """The note names the first tuple where the double sum and the induced
    bracket of the extension differ, and both vectors."""
    walk = constructions.reynolds_values
    corrupted = []

    def corrupt(algebra, op):
        verdict, values = walk(algebra, op)
        tup = list(values)[-1]
        top, induced = values[tup]
        values[tup] = top, [induced[0] + Fraction(1, 2)] + induced[1:]
        corrupted.append((tup, induced, values[tup][1]))
        return verdict, values

    monkeypatch.setattr(constructions, "reynolds_values", corrupt)
    with pytest.raises(InternalConsistencyError) as caught:
        corollary_bracket(lie3, family1, trace_functional)
    (tup, good, bad), = corrupted
    assert str(caught.value) == (
        f"double-sum bracket disagrees with the induced bracket of the extension at tuple {tup}: "
        f"double sum {spelled(good)}, induced {spelled(bad)}"
    )
    assert "/2" in spelled(bad) and "Fraction" not in str(caught.value)


def test_f_D_bracket_matches_naive_oracle(trunc_xy, trunc_x3, rng):
    """``three_lie_from_f_D``, the functional extension of [.]_D, gives the
    bytes of the determinant written out, or the same error with the same
    first failing pair: on seeded derivations with balanced and unbalanced
    functionals, and on operators that are not derivations."""
    seen = Counter()
    for alg in (trunc_xy, trunc_x3, trunc_xyz()):
        basis = derivation_space(alg)
        for _ in range(5):
            deriv = rand_combination(rng, basis)
            balanced = balanced_functionals(alg, deriv)
            functionals = [rand_combination(rng, balanced) for _ in range(2)] + [rand_vector(rng, alg.dim)]
            cases = [(f, deriv) for f in functionals] + [(functionals[0], deriv + rand_matrix(rng, alg.dim))]
            for coefficients, op in cases:
                f = LinearFunctional(coefficients)
                got = outcome(three_lie_from_f_D, alg, f, op)
                assert got == outcome(naive_three_lie_from_f_D, alg, f, op), (alg.dim, coefficients, op)
                seen["built" if isinstance(got, str) else got[1].split(" at pair")[0]] += 1
    assert set(seen) == {"built", "functional is not balanced against the derivation",
                         "operator is not a derivation"}


def _det3_fd_cases(rng, *algebras):
    """(algebra, R, f, D) for assoc-Reynolds operators R that commute with a
    seeded derivation D, with balanced functionals f: zero, Id and
    (Id + E)^-1 for seeded derivations E that commute with D."""
    cases = []
    for alg in algebras:
        basis = derivation_space(alg)
        for _ in range(3):
            deriv = rand_combination(rng, basis)
            ops, commuting = [Matrix.zero(alg.dim), Matrix.identity(alg.dim)], commuting_derivations(basis, deriv)
            for _ in range(3):
                try:
                    ops.append(derivation_to_reynolds(alg, rand_combination(rng, commuting)))
                except NotInvertibleError:
                    pass
            balanced = balanced_functionals(alg, deriv)
            cases += [(alg, op, rand_combination(rng, balanced), deriv) for op in ops for _ in range(2)]
    return cases


def test_det3_fd_criterion_matches_naive_oracle(trunc_xy, trunc_x3, rng):
    """``check_reynolds_on_det_3lie`` on 'fd' gives the verdict and the
    counterexample of R of the determinant criterion written out, and the
    verdict of R checked on the 3-Lie algebra directly: on the series
    operator Id - xy d/dx (which fails, ``test_series_operator_fails_fd_criterion``)
    and the seeded cases of ``_det3_fd_cases``."""
    cases = [(trunc_xy, Matrix.identity(4) - d0_op(), [1, 0, 0, 0], d1_op())]
    cases += _det3_fd_cases(rng, trunc_xy, trunc_x3, trunc_xyz())
    seen = Counter()
    for alg, op, coefficients, deriv in cases:
        f = LinearFunctional(coefficients)
        got = outcome(check_reynolds_on_det_3lie, alg, op, "fd", (f, deriv))
        assert got == outcome(naive_det3_fd_check, alg, op, f, deriv), (alg.dim, coefficients, op, deriv)
        passed = '"passed": true' in got
        assert passed == bool(check_reynolds(three_lie_algebra(alg, "fd", (f, deriv)), op)), (alg.dim, op, deriv)
        seen[passed] += 1
    assert set(seen) == {True, False}


def test_det3_fd_defect_is_minus_r_of_the_lift_sum(trunc_xy, trunc_x3, rng):
    """For R Reynolds on [.]_D, the Reynolds defect of R on the fd 3-Lie
    algebra at each basis triple is -R of the lift sum there (the
    determinant with rows f-values, D(R.)-images and R-images), both written
    out on dense vectors; the singular R of
    ``test_det3_fd_criterion_applies_r_to_the_lift_sum`` included."""
    singular = Matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    cases = [(trunc_xy, singular, [1, 0, 1, 0], d1_op()),
             (trunc_xy, Matrix.identity(4) - d0_op(), [1, 0, 0, 0], d1_op())]
    cases += _det3_fd_cases(rng, trunc_xy, trunc_x3, trunc_xyz())
    nonzero = 0
    for alg, op, coefficients, deriv in cases:
        f = LinearFunctional(coefficients)
        three = three_lie_algebra(alg, "fd", (f, deriv))
        for tup in increasing_tuples(alg.dim, 3):
            units = alg.units(tup)
            r_units = [op.apply(u) for u in units]
            defect = vec_sub(three.bracket(r_units), op.apply(naive_induced_value(three, op, tup)))
            lift = naive_fd_sum(alg, [f(u) for u in units], [deriv.apply(r) for r in r_units], r_units)
            assert defect == [-x for x in op.apply(lift)], (alg.dim, coefficients, op, deriv, tup)
            nonzero += any(defect)
    assert nonzero


def test_det3_fd_criterion_applies_r_to_the_lift_sum(trunc_xy):
    """A singular assoc-Reynolds R that commutes with D = x d/dx and whose
    image meets its kernel: R1 = 1, Rx = xy, Ry = R(xy) = 0.  The lift sum on
    [.]_D at (1, 2, 3) is -xy, which R kills; the criterion reads R of the
    sum, so it passes, as R is Reynolds on the 3-Lie algebra."""
    op = Matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    functional, deriv = LinearFunctional([1, 0, 1, 0]), d1_op()
    assert check_assoc_reynolds(trunc_xy, op) and op @ deriv == deriv @ op and op.rank() == 2
    units = trunc_xy.units((1, 2, 3))
    r_units = [op.apply(u) for u in units]
    lift = naive_fd_sum(trunc_xy, [functional(u) for u in units], [deriv.apply(r) for r in r_units], r_units)
    assert lift == [0, 0, 0, -1] and op.apply(lift) == [0] * 4
    verdict = check_reynolds_on_det_3lie(trunc_xy, op, "fd", (functional, deriv))
    assert verdict == naive_det3_fd_check(trunc_xy, op, functional, deriv)
    assert verdict and verdict.check_name == "reynolds"
    assert check_reynolds(three_lie_algebra(trunc_xy, "fd", (functional, deriv)), op)


def test_a_functional_of_the_wrong_dimension_is_refused_before_any_walk(lie3, family1, trunc_xy, field_k,
                                                                        tmp_path, monkeypatch):
    """Every command that reads --functional exits 2 with one note, on an
    n-Lie algebra and on commutative products of dimension 4 and 1, and
    before it walks anything: an operator that is not Reynolds, or not a
    derivation, is never looked at."""
    def untouched(*_):
        raise AssertionError("walked before the dimension check")

    for module, name in ((reynolds, "reynolds_values"), (constructions, "reynolds_values"),
                         (constructions, "verified_values"), (constructions, "is_derivation"),
                         (constructions, "check_assoc_reynolds"), (LinearFunctional, "vanishes_on_brackets")):
        monkeypatch.setattr(module, name, untouched)
    not_reynolds = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    files = {}
    for name, doc in (("lie3", algebra_document(lie3)), ("trunc_xy", algebra_document(trunc_xy)),
                      ("k", algebra_document(field_k)), ("r1", operator_document(family1)),
                      ("bad_r", operator_document(not_reynolds)), ("zero4", operator_document(Matrix.zero(4))),
                      ("one4", operator_document(Matrix.identity(4))), ("zero1", operator_document(Matrix.zero(1))),
                      ("f2", functional_document(LinearFunctional([1, 0]))),
                      ("f3", functional_document(LinearFunctional([1, 0, 1])))):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(emit_document(doc))
    argvs = [["construct", "gf", "--algebra", files["lie3"]]]
    for command in (["check", "lift"], ["construct", "corollary"]):
        argvs += [command + ["--algebra", files["lie3"], "--operator", files[r]] for r in ("r1", "bad_r")]
    argvs += [["construct", "det3", "--variant", "fd", "--algebra", files["trunc_xy"], "--operator", files[d]]
              for d in ("zero4", "one4")]
    argvs.append(["construct", "det3", "--variant", "fd", "--algebra", files["k"], "--operator", files["zero1"]])
    for argv in argvs:
        f = files["f3"] if argv[argv.index("--algebra") + 1] != files["lie3"] else files["f2"]
        report, code = run_command(argv + ["--functional", f])
        assert (code, report.notes) == (2, ["error: functional dimension mismatch"]), argv
    with pytest.raises(InputError, match="^functional dimension mismatch$"):
        check_reynolds_on_det_3lie(trunc_xy, Matrix.identity(4), "fd", (LinearFunctional([1, 0, 1]), Matrix.zero(4)))
