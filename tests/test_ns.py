import random
from fractions import Fraction
from itertools import product

import pytest

from nliealg.algebra import check_filippov
from nliealg.errors import InputError, PreconditionError
from nliealg.linalg import Matrix
from nliealg.nijenhuis import deformed_algebra
from nliealg.ns import (
    NSAlgebra,
    angle_on_basis,
    check_ns,
    ns_from_nijenhuis,
    ns_from_reynolds,
    subadjacent,
)
from nliealg.reynolds import induced_bracket
from nliealg.wedge import increasing_tuples

from conftest import naive_expansion, rand_fraction, sparse_args, stored_curly


def test_zero_curly_reduces_to_filippov(lie3, three_lie4):
    for alg in (lie3, three_lie4):
        ns = NSAlgebra(alg.arity, alg.dim, {}, alg.brackets)
        assert check_ns(ns)
        sub, _ = subadjacent(ns)
        assert sub == alg


def test_zero_curly_with_non_filippov_square_fails():
    bad = {(1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 1]}
    ns = NSAlgebra(2, 3, {}, bad)
    assert not check_ns(ns)
    with pytest.raises(PreconditionError):
        subadjacent(ns)


def test_curly_prefix_skew_symmetry(three_lie4):
    curly = {((1, 2), 3): [0, 0, 0, 1]}
    ns = NSAlgebra(3, 4, curly, {})
    assert ns.curly_on_basis((2, 1), 3) == [0, 0, 0, -1]
    assert ns.curly_on_basis((1, 1), 3) == [0, 0, 0, 0]
    assert ns.curly_on_basis((1, 2), 1) == [0, 0, 0, 0]


@pytest.mark.parametrize("dual", [False, True], ids=["fraction", "dual"])
def test_curly_matches_naive_expansion(dual, lie3, family1, three_lie4):
    rng = random.Random(32)
    dense = {}
    for prefix in increasing_tuples(4, 2):
        for j in range(1, 5):
            dense[(prefix, j)] = [rand_fraction(rng, 1) for _ in range(4)]
    structures = [
        ns_from_reynolds(lie3, family1),
        NSAlgebra(3, 4, dense, three_lie4.brackets),
        NSAlgebra(3, 4, {((1, 3), 2): [0, 1, 0, -1], ((2, 4), 4): [3, 0, 0, 0]}, {}),
    ]
    for ns in structures:
        stored = stored_curly(ns)
        for picks in product(range(1, ns.dim + 1), repeat=ns.arity):
            assert ns.curly_on_basis(picks[:-1], picks[-1]) == stored(picks)
        for _ in range(8):
            args = sparse_args(rng, ns.arity, ns.dim, dual)
            assert ns.curly(args) == naive_expansion(stored, args, ns.dim)


def test_curly_rejects_out_of_range_indices():
    ns = NSAlgebra(3, 4, {((1, 2), 3): [0, 0, 0, 1]}, {})
    for prefix, j in (((1, 2), 5), ((1, 2), 0), ((0, 2), 3)):
        with pytest.raises(InputError):
            ns.curly_on_basis(prefix, j)
    with pytest.raises(InputError):
        ns.curly([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1]])


def test_constructor_validation():
    with pytest.raises(InputError):
        NSAlgebra(3, 4, {((2, 1), 3): [0, 0, 0, 1]}, {})
    with pytest.raises(InputError):
        NSAlgebra(3, 4, {((1, 2), 5): [0, 0, 0, 1]}, {})
    with pytest.raises(InputError):
        NSAlgebra(3, 4, {((1, 2), 3): [0, 0, 1]}, {})


def test_ns_from_reynolds_subadjacent_is_induced(lie3, family1, family2):
    for op in (family1, family2):
        ns = ns_from_reynolds(lie3, op)
        sub, rep = subadjacent(ns)
        assert sub == induced_bracket(lie3, op)


def test_ns_from_reynolds_three_lie(three_lie4):
    from nliealg.reynolds import check_reynolds, derivation_to_reynolds
    # nilpotent derivation e1 -> e4 of [e1,e2,e3] = e4
    deriv = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    op = derivation_to_reynolds(three_lie4, deriv)
    assert check_reynolds(three_lie4, op)
    ns = ns_from_reynolds(three_lie4, op)
    sub, rep = subadjacent(ns)
    assert sub == induced_bracket(three_lie4, op)


def test_ns_from_nijenhuis_subadjacent_is_deformed(lie3, three_lie4):
    for alg, lam in ((lie3, Fraction(2)), (three_lie4, Fraction(1, 2))):
        op = Matrix.identity(alg.dim).scale(lam)
        ns = ns_from_nijenhuis(alg, op)
        sub, rep = subadjacent(ns)
        assert sub == deformed_algebra(alg, op)


def test_ns_from_non_reynolds_is_rejected(lie3):
    with pytest.raises(PreconditionError):
        ns_from_reynolds(lie3, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_angle_bracket_is_alternating(lie3, family1):
    ns = ns_from_reynolds(lie3, family1)
    v12 = angle_on_basis(ns, (1, 2))
    v21 = ns.curly([ns.units((1,))[0], ns.units((2,))[0]])  # smoke: curly itself
    assert angle_on_basis(ns, (2, 1)) == [-a for a in v12]


def test_random_curly_perturbation_usually_fails(three_lie4, rng):
    failures = 0
    for _ in range(10):
        curly = {}
        for prefix in increasing_tuples(4, 2):
            for j in range(1, 5):
                vec = [rand_fraction(rng, 1) for _ in range(4)]
                if any(vec):
                    curly[(prefix, j)] = vec
        ns = NSAlgebra(3, 4, curly, three_lie4.brackets)
        if not check_ns(ns):
            failures += 1
    assert failures >= 8
