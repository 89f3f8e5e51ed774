from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from nliealg import nijenhuis
from nliealg.algebra import check_filippov, check_representation
from nliealg.cli import run_command
from nliealg.errors import PreconditionError, UnsupportedRingError
from nliealg.linalg import Matrix, vec_add, vec_zero
from nliealg.nijenhuis import (
    check_nijenhuis,
    deformed_algebra,
    deformed_bracket_ladder,
    nijenhuis_representation,
)
from nliealg.rings import EPS
from nliealg.wedge import increasing_tuples

from conftest import (
    is_abelian,
    naive_check_nijenhuis,
    naive_deformed_bracket_ladder,
    rand_matrix,
    report_bytes,
    simple_n_lie,
)


def ladder_level_oracle(algebra, op, j, tup):
    """Closed form L_j = sum_k (-N)^{j-k} A_k, where A_k applies N to
    every k-subset of the slots; independent of the library recursion."""
    n, d = algebra.arity, algebra.dim
    units = algebra.units(tup)
    n_units = [op.apply(u) for u in units]
    out = vec_zero(d)
    for k in range(j + 1):
        a_k = vec_zero(d)
        for subset in combinations(range(n), k):
            args = list(units)
            for i in subset:
                args[i] = n_units[i]
            a_k = vec_add(a_k, algebra.bracket(args))
        power = Matrix.identity(d)
        for _ in range(j - k):
            power = power @ op.scale(Fraction(-1))
        out = vec_add(out, power.apply(a_k))
    return out


def test_ladder_matches_oracle(lie3, three_lie4, rng):
    for alg in (lie3, three_lie4):
        for _ in range(6):
            op = rand_matrix(rng, alg.dim)
            ladder = deformed_bracket_ladder(alg, op)
            for j in range(alg.arity):
                level = ladder.level(j)
                for tup in increasing_tuples(alg.dim, alg.arity):
                    assert level.bracket_on_basis(tup) == ladder_level_oracle(alg, op, j, tup)


def test_scalar_multiples_of_identity_are_nijenhuis(three_lie4):
    for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        op = Matrix.identity(4).scale(lam)
        assert check_nijenhuis(three_lie4, op)
        ladder = deformed_bracket_ladder(three_lie4, op)
        n = three_lie4.arity
        for j in range(n):
            coeff = Fraction(comb(n - 1, j)) * lam ** j
            for tup in increasing_tuples(4, n):
                expect = [coeff * v for v in three_lie4.bracket_on_basis(tup)]
                assert ladder.level(j).bracket_on_basis(tup) == expect


def test_zero_operator_is_nijenhuis(lie3, three_lie4):
    for alg in (lie3, three_lie4):
        op = Matrix.zero(alg.dim)
        assert check_nijenhuis(alg, op)
        assert is_abelian(deformed_algebra(alg, op))


def test_deformed_algebra_is_filippov(three_lie4):
    op = Matrix.identity(4).scale(Fraction(1, 2))
    deformed = deformed_algebra(three_lie4, op)
    assert check_filippov(deformed)


def test_nijenhuis_representation_represents_deformed(lie3, three_lie4):
    for alg, lam in ((lie3, Fraction(2)), (three_lie4, Fraction(3))):
        op = Matrix.identity(alg.dim).scale(lam)
        rho = nijenhuis_representation(alg, op)
        assert check_representation(deformed_algebra(alg, op), rho)


def test_non_nijenhuis_is_rejected(sl2_like):
    op = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    if check_nijenhuis(sl2_like, op):
        pytest.skip("unexpectedly a Nijenhuis operator")
    with pytest.raises(PreconditionError):
        deformed_algebra(sl2_like, op)


def test_dual_number_operator_is_refused(lie3, abelian33):
    """The ladder of a dual-number N would not be an algebra over the
    rationals: the walk refuses it, on an abelian algebra too."""
    for alg in (lie3, abelian33):
        op = Matrix.identity(3) + Matrix.identity(3).scale(EPS)
        with pytest.raises(UnsupportedRingError, match="Nijenhuis check"):
            check_nijenhuis(alg, op)


def test_projection_nijenhuis_on_lie3(lie3):
    # N = diag(0, 1, 0): Ne2 = e2, others 0
    op = Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert check_nijenhuis(lie3, op)
    deformed = deformed_algebra(lie3, op)
    assert check_filippov(deformed)


def test_nijenhuis_walk_matches_naive_oracles(lie3, three_lie4, rng):
    """One walk gives the former check's report bytes and the former
    level-by-level ladder, on passing and failing operators, and a failing
    operator is refused with the former counterexample."""
    cases = [(lie3, Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]]))]
    # operators that first fail on the tuples (2, 3) and (1, 2, 4)
    cases += [(lie3, Matrix([[-1, -1, 1], [0, 0, 0], [0, 0, 0]])),
              (three_lie4, Matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0]]))]
    for alg in (lie3, three_lie4, simple_n_lie(3), simple_n_lie(4)):
        cases += [(alg, Matrix.identity(alg.dim).scale(lam)) for lam in (0, 1, Fraction(-1, 2), 3)]
        cases += [(alg, rand_matrix(rng, alg.dim, span=1)) for _ in range(3)]
    passed, first_failing = set(), set()
    for alg, op in cases:
        verdict, expected = check_nijenhuis(alg, op), naive_check_nijenhuis(alg, op)
        assert report_bytes(verdict) == report_bytes(expected)
        assert deformed_bracket_ladder(alg, op).levels == naive_deformed_bracket_ladder(alg, op).levels
        passed.add(bool(verdict))
        if verdict:
            assert deformed_algebra(alg, op) == naive_deformed_bracket_ladder(alg, op).level(alg.arity - 1)
            continue
        with pytest.raises(PreconditionError, match="not a Nijenhuis operator") as exc:
            deformed_algebra(alg, op)
        assert exc.value.counterexample == expected.counterexample
        # the walk goes on past a failing tuple; the report names the first one
        first_failing.add(expected.counterexample["where"]["tuple"] == tuple(range(1, alg.arity + 1)))
    assert passed == first_failing == {True, False}


@pytest.mark.parametrize("what", ["deformed", "ns-from-nijenhuis"])
def test_construct_job_walks_the_operator_once(what, docs, monkeypatch):
    """A construction from a Nijenhuis operator reads its ladder off the
    walk that verified the operator."""
    calls = []
    walk = nijenhuis.nijenhuis_values

    def counted(algebra, op):
        calls.append(algebra.arity)
        return walk(algebra, op)

    monkeypatch.setattr(nijenhuis, "nijenhuis_values", counted)
    report, code = run_command(["construct", what, "--algebra", docs["g.json"],
                                "--operator", docs["ident3.json"], "--json"])
    assert code == 0 and len(report.artifacts) == 1
    assert calls == [2]
