from fractions import Fraction

import pytest

from nliealg.algebra import wedge_single
from nliealg.cohomology import delta_r_operator
from nliealg.deformation import (
    _t_linear_check,
    check_equivalence_witness,
    is_infinitesimal_deformation,
    is_trivial_deformation,
)
from nliealg.errors import PreconditionError
from nliealg.linalg import Matrix
from nliealg.reynolds import check_reynolds
from nliealg.rings import EPS

from conftest import rand_matrix


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
