import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from nliealg.algebra import (
    NAryAlgebra,
    ad,
    adjoint_representation,
    check_filippov,
    check_representation,
    fundamental_action,
    is_derivation,
    semidirect_product,
    wedge_single,
)
from nliealg.errors import InputError, PreconditionError
from nliealg.linalg import Matrix, unit_vector, vec_zero
from nliealg.wedge import increasing_tuples

from conftest import (
    lie3_nilpotent_derivation,
    naive_expansion,
    rand_vector,
    sparse_args,
    stored_bracket,
    trunc_xyz,
)


def dense_bracket_oracle(algebra, args):
    """Expand the bracket by brute-force permutation sums, with explicit
    alternating signs, as an independent check of the canonical storage."""
    d, n = algebra.dim, algebra.arity
    out = vec_zero(d)
    for picks in permutations(range(1, d + 1), n):
        coeff = args[0][picks[0] - 1]
        for slot in range(1, n):
            coeff = coeff * args[slot][picks[slot] - 1]
        if not coeff:
            continue
        key = tuple(sorted(picks))
        vec = algebra.brackets.get(key)
        if vec is None:
            continue
        sign = 1
        lst = list(picks)
        for i in range(n):
            for j in range(i + 1, n):
                if lst[i] > lst[j]:
                    sign = -sign
        out = [o + sign * coeff * v for o, v in zip(out, vec)]
    return out


def test_known_algebras_satisfy_filippov(lie3, sl2_like, three_lie4, abelian33):
    for alg in (lie3, sl2_like, three_lie4, abelian33):
        assert check_filippov(alg)


def test_perturbed_bracket_fails_filippov(sl2_like):
    bad = NAryAlgebra(2, 3, {
        (1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 1],
    })
    result = check_filippov(bad)
    assert not result
    assert result.counterexample is not None


def test_bracket_matches_dense_oracle(rng, sl2_like, three_lie4):
    for alg in (sl2_like, three_lie4):
        for _ in range(25):
            args = [rand_vector(rng, alg.dim) for _ in range(alg.arity)]
            assert alg.bracket(args) == dense_bracket_oracle(alg, args)


@pytest.mark.parametrize("dual", [False, True], ids=["fraction", "dual"])
def test_bracket_matches_naive_expansion(dual, sl2_like, three_lie4, trunc_xy, trunc_x3):
    rng = random.Random(31)
    a4 = NAryAlgebra(3, 4, {(1, 2, 3): [1, 0, 0, 0], (1, 2, 4): [0, 0, 0, 1],
                            (1, 3, 4): [0, -1, 2, 0], (2, 3, 4): [0, 0, 0, 0]})
    for alg in (sl2_like, three_lie4, a4, trunc_xy, trunc_x3, trunc_xyz()):
        stored = stored_bracket(alg)
        for picks in product(range(1, alg.dim + 1), repeat=alg.arity):
            assert alg.bracket_on_basis(picks) == stored(picks)
        for _ in range(8):
            args = sparse_args(rng, alg.arity, alg.dim, dual)
            assert alg.bracket(args) == naive_expansion(stored, args, alg.dim)


def test_bracket_on_basis_rejects_out_of_range_indices(trunc_xy):
    symmetric = NAryAlgebra(2, 2, {}, symmetry="symmetric")
    for alg in (NAryAlgebra(2, 2, {(1, 2): [1, 0]}), symmetric, trunc_xy):
        for bad in ((0, 1), (1, alg.dim + 1), (0, 3)):
            with pytest.raises(InputError):
                alg.bracket_on_basis(bad)


def test_bracket_on_basis_any_order(three_lie4):
    e4 = unit_vector(4, 3)
    assert three_lie4.bracket_on_basis((1, 2, 3)) == e4
    assert three_lie4.bracket_on_basis((2, 1, 3)) == [-v for v in e4]
    assert three_lie4.bracket_on_basis((1, 1, 3)) == vec_zero(4)


def test_constructor_validation():
    with pytest.raises(InputError):
        NAryAlgebra(1, 3, {})
    with pytest.raises(InputError):
        NAryAlgebra(2, 3, {(2, 1): [0, 0, 1]})
    with pytest.raises(InputError):
        NAryAlgebra(2, 3, {(1, 2): [0, 0]})
    with pytest.raises(InputError):
        NAryAlgebra(2, 3, {(1, 4): [0, 0, 1]})


def test_derivation_check(lie3, rng):
    for _ in range(10):
        assert is_derivation(lie3, lie3_nilpotent_derivation(rng))
    not_deriv = Matrix.identity(3)
    assert not is_derivation(lie3, not_deriv)


def test_scaling_derivation_of_truncated_algebra():
    alg = trunc_xyz()
    deg_x = [0, 1, 0, 0, 1, 1, 0, 1]
    euler = Matrix([
        [Fraction(deg_x[i]) if i == j else Fraction(0) for j in range(8)]
        for i in range(8)
    ])
    assert is_derivation(alg, euler)


def test_ad_is_a_derivation_matrix(sl2_like):
    adx = ad(sl2_like, wedge_single((1,), 3))
    # [e1, e2] = e3 and [e1, e3] = -2 e1
    assert adx.apply(unit_vector(3, 1)) == [0, 0, 1]
    assert adx.apply(unit_vector(3, 2)) == [-2, 0, 0]


def test_adjoint_is_a_representation(lie3, sl2_like, three_lie4):
    for alg in (lie3, sl2_like, three_lie4):
        assert check_representation(alg, adjoint_representation(alg))


def test_fundamental_action_matches_ad_for_binary(sl2_like):
    # for n = 2 the fundamental action is just the bracket
    x = wedge_single((1,), 3)
    y = wedge_single((2,), 3)
    action = fundamental_action(sl2_like, x, y)
    assert action == {(3,): Fraction(1)}


def test_semidirect_product_is_filippov(three_lie4):
    rho = adjoint_representation(three_lie4)
    big = semidirect_product(three_lie4, rho)
    assert big.dim == 8
    assert check_filippov(big)
    # g stays a subalgebra
    assert big.bracket_on_basis((1, 2, 3))[:4] == three_lie4.bracket_on_basis((1, 2, 3))


def test_semidirect_rejects_non_representation(three_lie4):
    from nliealg.algebra import RepresentationTable
    bad = RepresentationTable(3, 4, 4, {
        tup: Matrix.identity(4) for tup in increasing_tuples(4, 2)
    })
    with pytest.raises(PreconditionError):
        semidirect_product(three_lie4, bad)
