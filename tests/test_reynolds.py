import random
from fractions import Fraction

import pytest

from nliealg.algebra import NAryAlgebra, ad, check_filippov, integer_brackets, is_derivation, support
from nliealg.cohomology import delta_r_operator
from nliealg.errors import NotInvertibleError, PreconditionError
from nliealg.linalg import Matrix
from nliealg.nijenhuis import check_nijenhuis, deformed_bracket_ladder
from nliealg.reynolds import (
    check_hom_pair,
    check_reynolds,
    derivation_to_reynolds,
    induced_bracket,
    induced_value,
    reynolds_from_nilpotent_derivation,
    reynolds_to_derivation,
    reynolds_values,
)
from nliealg.rings import EPS, Dual
from nliealg.wedge import increasing_tuples

from conftest import (
    lie3_nilpotent_derivation,
    naive_check_nijenhuis,
    naive_check_reynolds,
    naive_deformed_bracket_ladder,
    naive_induced_value,
    rand_matrix,
    report_bytes,
    simple_n_lie,
    strictly_upper,
    unimodular_conjugate,
    wedge_single,
)


def test_operator_families_are_reynolds(lie3, family1, family2):
    assert check_reynolds(lie3, family1)
    assert check_reynolds(lie3, family2)


def test_identity_is_reynolds_only_in_special_cases(lie3, three_lie4, abelian33):
    # Id on a binary algebra: [x,y] = R([x,y] + [x,y] - [x,y]) holds.
    assert check_reynolds(lie3, Matrix.identity(3))
    # For n = 3 with a nonzero bracket it forces [x,y,z] = 2[x,y,z].
    assert not check_reynolds(three_lie4, Matrix.identity(4))
    assert check_reynolds(abelian33, Matrix.identity(3))


def test_zero_operator_is_reynolds(lie3, three_lie4):
    for alg in (lie3, three_lie4):
        assert check_reynolds(alg, Matrix.zero(alg.dim))


def test_random_operator_usually_fails(lie3, rng):
    failures = 0
    for _ in range(20):
        mat = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
        if not check_reynolds(lie3, mat):
            failures += 1
    assert failures >= 15


def test_induced_bracket_is_filippov_and_r_is_a_homomorphism(lie3, family1, family2):
    for op in (family1, family2):
        induced = induced_bracket(lie3, op)
        assert check_filippov(induced)
        # R: induced -> original is a homomorphism on basis tuples
        for tup in induced.basis_tuples():
            lhs = op.apply(induced.bracket_on_basis(tup))
            rhs = lie3.bracket([op.apply(u) for u in lie3.units(tup)])
            assert lhs == rhs


def test_induced_bracket_requires_reynolds(lie3):
    with pytest.raises(PreconditionError):
        induced_bracket(lie3, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_hom_pair_identity(lie3, family1):
    ident = Matrix.identity(3)
    assert check_hom_pair(lie3, family1, family1, ident, ident)
    bad_phi = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert not check_hom_pair(lie3, family1, family1, bad_phi, bad_phi)


def test_derivation_reynolds_round_trip(lie3, rng):
    for _ in range(15):
        deriv = lie3_nilpotent_derivation(rng)
        op = derivation_to_reynolds(lie3, deriv)
        assert check_reynolds(lie3, op)
        back = reynolds_to_derivation(lie3, op)
        assert back == deriv


def test_nilpotent_series_matches_inverse(abelian33, rng):
    for _ in range(15):
        deriv = strictly_upper(rng, 3)
        assert is_derivation(abelian33, deriv)
        series = reynolds_from_nilpotent_derivation(abelian33, deriv)
        assert series == derivation_to_reynolds(abelian33, deriv)
        assert check_reynolds(abelian33, series)


def test_series_rejects_non_nilpotent(abelian33):
    diag = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        reynolds_from_nilpotent_derivation(abelian33, diag)


def test_series_of_a_non_nilpotent_derivation_is_a_precondition_error(lie3):
    """ad(e_1) is a derivation with e_2 -> e_2, so no power of it vanishes."""
    deriv = ad(lie3, wedge_single((1,), 3))
    assert is_derivation(lie3, deriv)
    with pytest.raises(PreconditionError, match="^derivation is not nilpotent; the series does not terminate$"):
        reynolds_from_nilpotent_derivation(lie3, deriv)


def test_singular_reynolds_has_no_derivation(lie3, family1):
    with pytest.raises(NotInvertibleError):
        reynolds_to_derivation(lie3, family1)


def test_reynolds_on_three_lie(three_lie4, rng):
    for _ in range(15):
        # strictly upper with De4 = 0, which is exactly the derivation
        # condition for [e1,e2,e3] = e4
        entries = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(3):
            for j in range(i + 1, 3):
                entries[i][j] = Fraction(rng.randint(-2, 2))
        deriv = Matrix(entries)
        assert is_derivation(three_lie4, deriv)
        op = derivation_to_reynolds(three_lie4, deriv)
        assert check_reynolds(three_lie4, op)


def _reynolds_cases(lie3, family1, family2, three_lie4, abelian33):
    """Passing and failing operators: the families, c * Id for c in and out
    of {0, n - 1}, seeded random and conjugated operators, and dual-number
    operators R + eps * S."""
    rng = random.Random(83)
    a4 = simple_n_lie(3)
    cases = [(lie3, family1), (lie3, family2), (abelian33, Matrix.identity(3))]
    for alg in (lie3, three_lie4, a4):
        n = alg.arity
        for c in (0, n - 1, 2 * n - 1, Fraction(1, 2), -1):
            cases.append((alg, Matrix.identity(alg.dim).scale(Fraction(c))))
        cases += [(alg, rand_matrix(rng, alg.dim)) for _ in range(3)]
    cases.append((a4, derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4)))))
    for _ in range(3):
        direction = rand_matrix(rng, 3)
        cases.append((lie3, family1 + direction.scale(EPS)))
    cases.append((lie3, family1 + delta_r_operator(lie3, family1, wedge_single((2,), 3)).scale(EPS)))
    cases.append((lie3, family1 + Matrix.zero(3).scale(EPS)))
    return cases


def test_check_reynolds_matches_naive_oracle(lie3, family1, family2, three_lie4, abelian33):
    verdicts = []
    for alg, op in _reynolds_cases(lie3, family1, family2, three_lie4, abelian33):
        result = check_reynolds(alg, op)
        expected = naive_check_reynolds(alg, op)
        assert result == expected
        assert report_bytes(result) == report_bytes(expected)
        verdicts.append(result.passed)
    assert True in verdicts and False in verdicts


def test_induced_value_matches_naive_induced_value(lie3, family1, family2, three_lie4, abelian33):
    """``induced_value`` on every tuple, and the one Reynolds walk: its
    values up to the first failing tuple, all of them on a pass, and the
    induced bracket tabulated from them."""
    walked = []
    # the last operator fails at its second tuple
    cases = _reynolds_cases(lie3, family1, family2, three_lie4, abelian33)
    for alg, op in cases + [(lie3, Matrix([[-1, 0, 0], [-1, 0, 1], [0, 0, 0]]))]:
        verdict, values = reynolds_values(alg, op)
        rational = not any(isinstance(a, Dual) for row in op.entries for a in row)
        table = induced_bracket(alg, op) if verdict and rational else None
        tuples = increasing_tuples(alg.dim, alg.arity)
        stop = len(tuples) if verdict else tuples.index(verdict.counterexample["where"]["tuple"])
        assert list(values) == tuples[:stop]
        walked.append((verdict.passed, stop))
        for tup in tuples:
            units = alg.units(tup)
            r_units = [op.apply(u) for u in units]
            expected = naive_induced_value(alg, op, tup)
            got = induced_value(alg, [support(u) for u in units], [support(r) for r in r_units])
            assert got == (alg.bracket(r_units), expected)
            if tup in values:
                assert values[tup] == (alg.bracket(r_units), expected)
            if table is not None:
                assert table.bracket_on_basis(tup) == expected
    # passing walks, and a failing one that stopped past its first tuple
    assert any(passed for passed, _ in walked) and any(not passed and stop for passed, stop in walked)


def _halved(alg):
    """The algebra with every structure constant divided by 2."""
    brackets = {key: [Fraction(x, 2) for x in vec] for key, vec in alg.brackets.items()}
    return NAryAlgebra(alg.arity, alg.dim, brackets, alg.basis_names, alg.symmetry)


def test_integer_walks_report_the_naive_counterexamples(lie3, three_lie4, sl2_like, trunc_x2):
    """Seeded operators with non-integral entries, on algebras with integral
    and halved structure constants (seeded unimodular conjugates of the
    alternating ones, k[x]/(x^2) as it is): the integer Reynolds and
    Nijenhuis walks scale by D > 1 and report the naive route's failing
    tuple, lhs, rhs and difference, and the ladder is the naive one."""
    rng = random.Random(89)
    algebras = [trunc_x2, _halved(trunc_x2)]
    for alg in (lie3, three_lie4, sl2_like, simple_n_lie(3)):
        algebras += [alg, _halved(unimodular_conjugate(rng, alg, Matrix.identity(alg.dim))[0])]
    failures = 0
    for alg in algebras:
        for _ in range(4):
            entries = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(alg.dim)]
                       for _ in range(alg.dim)]
            entries[rng.randrange(alg.dim)][rng.randrange(alg.dim)] = Fraction(rng.choice((-1, 1)), 2)
            op = Matrix(entries)
            assert integer_brackets(alg, op)[0] > 1
            for got, expected in ((check_reynolds(alg, op), naive_check_reynolds(alg, op)),
                                  (check_nijenhuis(alg, op), naive_check_nijenhuis(alg, op))):
                assert got == expected
                assert report_bytes(got) == report_bytes(expected)
                failures += not got
            assert deformed_bracket_ladder(alg, op).levels == naive_deformed_bracket_ladder(alg, op).levels
    assert failures > 3 * len(algebras)
