import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from nliealg import algebra as algebra_module
from nliealg.algebra import (
    NAryAlgebra,
    RepresentationTable,
    ad,
    adjoint_representation,
    check_filippov,
    check_representation,
    contracted,
    fundamental_action,
    graded_wedges,
    is_derivation,
    semidirect_product,
    unit_supports,
)
from nliealg.errors import InputError, PreconditionError, UnsupportedRingError
from nliealg.linalg import Matrix, unit_vector, vec_add, vec_zero
from nliealg.rings import Dual
from nliealg.wedge import increasing_tuples

from conftest import (
    lie3_nilpotent_derivation,
    naive_check_filippov,
    naive_check_representation,
    naive_expansion,
    naive_ad,
    naive_adjoint_representation,
    naive_is_derivation,
    naive_semidirect_product,
    rand_vector,
    report_bytes,
    simple_n_lie,
    sparse_args,
    stored_bracket,
    trunc_xyz,
    unimodular_conjugate,
    wedge_single,
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
    bad = RepresentationTable(3, 4, 4, {
        tup: Matrix.identity(4) for tup in increasing_tuples(4, 2)
    })
    with pytest.raises(PreconditionError):
        semidirect_product(three_lie4, bad)


def test_representation_table_validation():
    for key in ((0, 7), (1, 4), (0, 2)):
        with pytest.raises(InputError):
            RepresentationTable(3, 3, 3, {key: Matrix.identity(3)})
    with pytest.raises(InputError):
        RepresentationTable(3, 3, 3, {(2, 1): Matrix.identity(3)})


def _perturbed(rho, rng, step=1):
    """``rho`` with one random entry of one basis matrix moved by +-step."""
    tables = {key: [list(row) for row in mat.entries] for key, mat in rho.tables.items()}
    key = rng.choice(increasing_tuples(rho.algebra_dim, rho.arity - 1))
    mat = tables.setdefault(key, [[Fraction(0)] * rho.module_dim for _ in range(rho.module_dim)])
    mat[rng.randrange(rho.module_dim)][rng.randrange(rho.module_dim)] += rng.choice((-1, 1)) * step
    return RepresentationTable(rho.arity, rho.algebra_dim, rho.module_dim, tables)


def _scalar_action(omegas):
    """The abelian 3-Lie algebra of dim 4 acting diagonally on a module of
    dim len(omegas), by one 2-form per diagonal entry. The commutator identity
    holds; the bracket identity holds exactly when each omega has
    omega ^ omega = 0 (omega_12 omega_34 - omega_13 omega_24 + omega_14 omega_23)."""
    m = len(omegas)
    tables = {
        key: [[omegas[i].get(key, 0) if i == j else 0 for j in range(m)] for i in range(m)]
        for key in increasing_tuples(4, 2)
    }
    return NAryAlgebra(3, 4, {}), RepresentationTable(3, 4, m, tables)


def test_check_representation_matches_naive_oracle(lie3, sl2_like, three_lie4):
    rng = random.Random(52)
    adjoint = [(alg, adjoint_representation(alg)) for alg in (lie3, sl2_like, three_lie4)]
    cases = adjoint + [(sl2_like, RepresentationTable(2, 3, 3, {
        key: mat.scale(Fraction(2)) for key, mat in adjoint_representation(sl2_like).tables.items()
    }))]
    cases += [(alg, _perturbed(rho, rng)) for alg, rho in adjoint for _ in range(4)]
    cases.append(_scalar_action([{(1, 2): 1, (3, 4): 1}]))
    pairs = increasing_tuples(4, 2)
    for m in (1, 1, 2, 2, 2):
        cases.append(_scalar_action([{key: rng.randint(-1, 1) for key in pairs} for _ in range(m)]))
    # fractional entries (scale > 1), modules of another dimension than the
    # algebra, and failures past the first tuple pair
    third = _scaled_algebra(three_lie4, Fraction(2, 3))
    lie3_third = _scaled_algebra(lie3, Fraction(1, 3))
    fractional = [
        (third, adjoint_representation(third)),
        (third, RepresentationTable(3, 4, 4, {
            key: mat.scale(Fraction(1, 2)) for key, mat in adjoint_representation(third).tables.items()
        })),
        (lie3, RepresentationTable(2, 3, 1, {(1,): [[Fraction(3, 2)]]})),
        (lie3, RepresentationTable(2, 3, 1, {(1,): [[Fraction(3, 2)]], (2,): [[Fraction(1, 2)]]})),
        (lie3, _lie3_module(1)),
        (lie3_third, _lie3_module(Fraction(1, 3))),
        (lie3, _lie3_module(Fraction(1, 3))),
    ]
    fractional += [(alg, _perturbed(rho, rng, Fraction(1, 2))) for alg, rho in fractional[:1] + fractional[4:6]
                   for _ in range(3)]
    fractional += [_scalar_action([{key: Fraction(rng.randint(-2, 2), 3) for key in pairs} for _ in range(m)])
                   for m in (1, 3)]
    names, late = [], []
    for alg, rho in cases + fractional:
        result = check_representation(alg, rho)
        expected = naive_check_representation(alg, rho)
        assert result == expected
        assert report_bytes(result) == report_bytes(expected)
        names.append(result.check_name)
        if not result:
            where = result.counterexample["where"]
            late.append((where["x"], where["y"]) != (increasing_tuples(alg.dim, len(where["x"]))[0],
                                                     increasing_tuples(alg.dim, len(where["y"]))[0]))
    assert {"representation", "representation-commutator", "representation-bracket"} <= set(names)
    assert any(late)
    assert {rho.module_dim for _, rho in fractional} >= {1, 2, 4}


def _lie3_module(c):
    """lie3 ([e1, e2] = e2) on a plane: e1 -> diag(3/2, 1/2), e2 -> c E_12,
    e3 -> 0.  The commutator of the first two is the second, so this is a
    representation of lie3 for every c, and of no other multiple of it."""
    return RepresentationTable(2, 3, 2, {
        (1,): [[Fraction(3, 2), 0], [0, Fraction(1, 2)]],
        (2,): [[0, c], [0, 0]],
    })


def _scaled_algebra(alg, c):
    """``alg`` with every structure constant times c: the Filippov identity
    and associativity are homogeneous, so they still hold, and the
    derivations are those of ``alg``."""
    brackets = {key: [c * x for x in vec] for key, vec in alg.brackets.items()}
    return NAryAlgebra(alg.arity, alg.dim, brackets, symmetry=alg.symmetry)


def test_checkers_form_no_matrix_product_and_expand_no_bracket(three_lie4, trunc_xy, monkeypatch):
    """``check_representation`` reads its products off tabulated integer
    operators: no ``Matrix.__matmul__`` call.
    ``check_filippov`` and ``is_derivation`` read the stored bracket table:
    no bracket expansion.  Passing and failing verdicts alike."""
    a6 = simple_n_lie(5)
    doubled = RepresentationTable(5, 6, 6, {
        key: mat.scale(2) for key, mat in adjoint_representation(a6).tables.items()
    })
    cases = [
        (check_representation, (a6, adjoint_representation(a6)), True),
        (check_representation, (a6, doubled), False),
        (check_representation, _scalar_action([{(1, 2): 1, (3, 4): 1}]), False),
        (check_filippov, (a6,), True),
        (check_filippov, (NAryAlgebra(2, 3, {(1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 1]}),), False),
        (is_derivation, (trunc_xy, Matrix([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])), True),
        (is_derivation, (three_lie4, Matrix.identity(4)), False),
    ]
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(Matrix, "__matmul__")
    for name in ("bracket", "bracket_supports", "bracket_on_basis"):
        count(NAryAlgebra, name)
    for check, args, passed in cases:
        assert check(*args).passed is passed
    assert calls == Counter()


def test_check_representation_forms_each_basis_bracket_once(monkeypatch):
    """On the adjoint of A_6: the basis brackets are scaled off the stored
    table in one tabulation, shared by the fundamental actions and the
    bracket identity, and none is expanded through ``bracket_on_basis``."""
    a6 = simple_n_lie(5)
    rho = adjoint_representation(a6)
    calls = Counter()
    original, scale = NAryAlgebra.bracket_on_basis, algebra_module.integer_scale

    def counted(self, indices):
        calls[tuple(indices)] += 1
        return original(self, indices)

    def counted_scale(tables):
        calls["tabulations"] += 1
        return scale(tables)

    monkeypatch.setattr(NAryAlgebra, "bracket_on_basis", counted)
    monkeypatch.setattr(algebra_module, "integer_scale", counted_scale)
    assert check_representation(a6, rho)
    assert calls == Counter({"tabulations": 1})


def _perturbed_algebra(alg, rng, step=1, key=None):
    """``alg`` with one random entry of one stored bracket (at ``key``, else
    a random tuple) moved by +-step."""
    brackets = {key: list(vec) for key, vec in alg.brackets.items()}
    key = key or rng.choice(increasing_tuples(alg.dim, alg.arity))
    vec = brackets.setdefault(key, [Fraction(0)] * alg.dim)
    vec[rng.randrange(alg.dim)] += rng.choice((-1, 1)) * step
    return NAryAlgebra(alg.arity, alg.dim, brackets)


def test_check_filippov_matches_naive_oracle(lie3, sl2_like, three_lie4, abelian33):
    rng = random.Random(61)
    algebras = [lie3, sl2_like, three_lie4, abelian33] + [simple_n_lie(n) for n in (2, 3, 4)]
    cases = algebras + [_perturbed_algebra(alg, rng) for alg in algebras for _ in range(3)]
    # fractional constants (scale > 1), and perturbations of the last tuple,
    # which fail past the first tuple pair
    scaled = [_scaled_algebra(alg, Fraction(2, 3)) for alg in algebras]
    cases += scaled + [_perturbed_algebra(alg, rng, Fraction(1, 2)) for alg in scaled for _ in range(2)]
    cases += [_perturbed_algebra(alg, rng, Fraction(1, 3), increasing_tuples(alg.dim, alg.arity)[-1])
              for alg in algebras + scaled]
    verdicts, late = [], []
    for alg in cases:
        result = check_filippov(alg)
        expected = naive_check_filippov(alg)
        assert result == expected
        assert report_bytes(result) == report_bytes(expected)
        verdicts.append(result.passed)
        if not result:
            where = result.counterexample["where"]
            late.append(where["y"] != increasing_tuples(alg.dim, alg.arity)[0])
    assert True in verdicts and False in verdicts
    assert any(late)


def _euler(degrees):
    """The diagonal derivation e_i -> degrees[i] e_i."""
    return Matrix([[x if i == j else 0 for j in range(len(degrees))] for i, x in enumerate(degrees)])


def test_is_derivation_matches_naive_oracle(lie3, three_lie4, trunc_xy):
    """Passing and failing operators with fractional entries (scale > 1), on
    alternating and symmetric brackets, integral and fractional."""
    rng = random.Random(89)
    xyz = trunc_xyz()
    algebras = [lie3, three_lie4, simple_n_lie(3), simple_n_lie(4), trunc_xy, xyz]
    # per algebra, a few derivations: inner ones for the n-Lie algebras,
    # Euler derivations (degree in x, in y) for the truncated polynomials
    euler = {
        4: [_euler([0, 1, 0, 1]), _euler([0, 0, 1, 1])],
        8: [_euler([0, 1, 0, 0, 1, 1, 0, 1]), _euler([0, 0, 1, 0, 1, 0, 1, 1])],
    }
    cases = []
    for alg in algebras + [_scaled_algebra(alg, Fraction(3, 2)) for alg in algebras]:
        d = alg.dim
        if alg.symmetry == "symmetric":
            derivs = euler[d]
        else:
            derivs = [ad(alg, wedge_single(xs, d)) for xs in increasing_tuples(d, alg.arity - 1)[-2:]]
        if alg.dim == 3:
            derivs.append(lie3_nilpotent_derivation(rng))
        combo = derivs[0].scale(Fraction(1, 3)) + derivs[-1].scale(Fraction(-5, 2))
        cases += [(alg, combo), (alg, derivs[0].scale(Fraction(2, 7)))]
        for _ in range(3):
            entries = [list(row) for row in combo.entries]
            entries[rng.randrange(d)][rng.randrange(d)] += Fraction(rng.choice((-1, 1)), 2)
            cases.append((alg, Matrix(entries)))
        # a late failure: only the last basis vector moves
        entries = [list(row) for row in combo.entries]
        entries[0][d - 1] += Fraction(1, 3)
        cases.append((alg, Matrix(entries)))
    verdicts, late = [], []
    for alg, op in cases:
        result = is_derivation(alg, op)
        expected = naive_is_derivation(alg, op)
        assert result == expected
        assert report_bytes(result) == report_bytes(expected)
        verdicts.append(result.passed)
        if not result:
            late.append(result.counterexample["where"]["tuple"] != alg.basis_tuples()[0])
    assert True in verdicts and False in verdicts
    assert any(late) and not all(late)


@pytest.mark.parametrize("dual", [False, True], ids=["fraction", "dual"])
def test_bracket_supports_matches_naive_expansion(dual, sl2_like, three_lie4, trunc_xy):
    rng = random.Random(71)
    for alg in (sl2_like, three_lie4, trunc_xy, simple_n_lie(3)):
        stored = stored_bracket(alg)
        for _ in range(8):
            args = sparse_args(rng, alg.arity, alg.dim, dual)
            supports = [[(i, c) for i, c in enumerate(v) if c] for v in args]
            got = alg.bracket_supports(supports)
            assert got == naive_expansion(stored, args, alg.dim)
            assert got == alg.bracket(args)
        for picks in product(range(1, alg.dim + 1), repeat=alg.arity):
            assert alg.bracket_supports(unit_supports(picks)) == stored(picks)
        with pytest.raises(InputError):
            alg.bracket_supports(unit_supports(range(1, alg.arity)))


def _graded_slots(rng, d, ring):
    """Seeded graded slots for ``graded_wedges``, one per basis index: per
    slot 1-3 grades, each a ``sparse_args`` vector or a dense one, in the
    scalars of ``ring``; slot 2 repeats the grade-0 vector of slot 1 and
    some grades are basis vectors, so indices repeat across slots."""
    def vector():
        vec = sparse_args(rng, 1, d, ring == "dual")[0]
        if rng.random() < 0.3:
            vec = [x or Fraction(rng.choice((-2, 1, 3))) for x in vec]
        if ring == "int":
            vec = [int(x) for x in vec]
        elif ring == "fraction":
            vec = [x / rng.choice((1, 2, 3)) for x in vec]
        if rng.random() < 0.2:
            vec = [0] * d
            vec[rng.randrange(d)] = rng.choice((1, -1))
        return vec

    slots = [[vector() for _ in range(rng.randint(1, 3))] for _ in range(d)]
    slots[1][0] = list(slots[0][0])
    return slots


def _grade_choices(slots, top):
    """(g, [v_(1,g_1), ..., v_(k,g_k)]) for each choice of grades of the k
    graded vectors ``slots`` adding up to g <= top."""
    for grades in product(*(range(len(slot)) for slot in slots)):
        if sum(grades) <= top:
            yield sum(grades), [slot[g] for slot, g in zip(slots, grades)]


def _naive_wedge(vectors, d, alternating):
    """v_1 ^ ... ^ v_k as a Counter over canonical 1-based tuples, from
    every pick of indices: sorted with its sign (a repeat is zero) when
    ``alternating``, else sorted as a multiset."""
    out = Counter()
    for picks in product(range(1, d + 1), repeat=len(vectors)):
        coeff = Fraction(1)
        for v, p in zip(vectors, picks):
            coeff = coeff * v[p - 1]
        wedge = wedge_single(picks, d) if alternating else {tuple(sorted(picks)): 1}
        for key, flip in wedge.items():
            out[key] += flip * coeff
    return out


@pytest.mark.parametrize("ring", ["int", "fraction", "dual"])
def test_graded_wedges_match_the_naive_expansion(ring, sl2_like, three_lie4, trunc_xy, trunc_x3):
    """The walk yields the canonical k-tuples in order: increasing ones for
    alternating brackets (none for k > d), non-decreasing ones for a
    commutative product, at k = 1, d - 1, d, d + 1 and the arity.  At k <= 2
    each wedge is the naive one, grade by grade; at the arity each grade,
    contracted with the stored brackets, is the sum over the grades
    (g_1..g_n) adding up to g of the plain expansion of v_(1,g_1), ...,
    v_(n,g_n), truncated below and at the top grade."""
    rng = random.Random(73)
    for alg in (sl2_like, three_lie4, trunc_xy, trunc_x3, simple_n_lie(3)):
        d, n, stored = alg.dim, alg.arity, stored_bracket(alg)
        values = {key: [(i, c) for i, c in enumerate(vec) if c] for key, vec in alg.brackets.items()}
        alternating = alg.symmetry == "alternating"
        for _ in range(3):
            slots = _graded_slots(rng, d, ring)
            supports = [[[(i, c) for i, c in enumerate(v) if c] for v in slot] for slot in slots]
            for k in sorted({1, d - 1, d, d + 1, n}):
                top = rng.randint(0, 2 * k)
                walk = list(graded_wedges(supports, k, top, alternating))
                order = combinations if alternating else combinations_with_replacement
                assert [tup for tup, _ in walk] == list(order(range(1, d + 1), k))
                assert all(len(wedge) == top + 1 for _, wedge in walk)
                for tup, wedge in walk:
                    chosen = [slots[i - 1] for i in tup]
                    if k <= 2:
                        expected = [Counter() for _ in range(top + 1)]
                        for g, args in _grade_choices(chosen, top):
                            expected[g].update(_naive_wedge(args, d, alternating))
                        assert [{key: c for key, c in layer.items() if c} for layer in wedge] == [
                            {key: c for key, c in layer.items() if c} for layer in expected]
                    if k == n:
                        expected = [[Fraction(0)] * d for _ in range(top + 1)]
                        for g, args in _grade_choices(chosen, top):
                            expected[g] = vec_add(expected[g], naive_expansion(stored, args, d))
                        assert [contracted(values, layer, d) for layer in wedge] == expected


def test_products_skip_only_an_integer_one(lie3):
    """An integer factor 1 is skipped; Dual(1, 0) equals 1 but is not, so
    the bracket stays over the dual numbers as the plain product would."""
    out = lie3.bracket([[Dual(1, 0), 0, 0], [0, 1, 0]])
    assert out == [0, 1, 0] and isinstance(out[1], Dual)
    out = lie3.bracket([[1, 0, 0], [0, Fraction(1, 2), 0]])
    assert out == [0, Fraction(1, 2), 0] and [type(x) for x in out] == [int, Fraction, int]


def test_representation_check_rejects_a_symmetric_product(trunc_xy):
    """A commutative associative product has no representation identities
    of this kind: both checkers and the semidirect product refuse it."""
    rho = adjoint_representation(trunc_xy)
    for check in (check_representation, naive_check_representation, semidirect_product):
        with pytest.raises(InputError, match="representation check applies to alternating brackets"):
            check(trunc_xy, rho)


def test_integer_checkers_reject_dual_numbers(lie3):
    """The Leibniz and commutator kernels take rationals only; a dual-number
    operator or representation matrix is refused before any tabulation."""
    with pytest.raises(UnsupportedRingError):
        is_derivation(lie3, Matrix([[0, 0, 0], [Dual(0, 1), 0, 0], [0, 0, 0]]))
    rho = RepresentationTable(2, 3, 1, {(1,): [[Dual(1, 1)]]})
    with pytest.raises(UnsupportedRingError):
        check_representation(lie3, rho)


# -- the ad-column readers ------------------------------------------------


def _random_wedge(rng, alg, terms=4):
    """A seeded {key: coefficient} with keys of n-1 random indices, unsorted
    and repeated ones included, and fractional coefficients."""
    return {tuple(rng.randint(1, alg.dim) for _ in range(alg.arity - 1)):
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(terms)}


def test_ad_matches_naive_oracle(lie3, sl2_like, three_lie4, trunc_xy, rng):
    """``ad`` read off the ``ad_table`` equals one ``bracket_on_basis`` per
    (key, j) summed densely, on seeded wedges with unsorted and repeated
    keys, on n-Lie algebras of arity 2 to 5 and on a commutative product."""
    seen = Counter()
    for alg in (lie3, sl2_like, three_lie4, trunc_xy, simple_n_lie(3), simple_n_lie(4)):
        for _ in range(6):
            wedge = _random_wedge(rng, alg)
            assert ad(alg, wedge) == naive_ad(alg, wedge), (alg.arity, wedge)
            seen["unsorted"] += any(list(key) != sorted(key) for key in wedge)
            seen["repeated"] += any(len(set(key)) < len(key) for key in wedge)
    assert seen["unsorted"] and seen["repeated"]
    assert ad(trunc_xy, {(2,): 1, (3,): 2}) == naive_ad(trunc_xy, {(2,): 1, (3,): 2}) != Matrix.zero(4)
    with pytest.raises(InputError, match="^expected 3 indices, got 2$"):
        ad(three_lie4, {(1,): 1})


def _representations(rng):
    """(algebra, representation) pairs: the adjoint of A_4, A_5 and
    three_lie4 and, not the adjoint, the curly action of the NS structure of
    a Reynolds operator on its sub-adjacent algebra: on A_4, on a seeded
    conjugate of it and on A_5."""
    from nliealg.ns import ns_from_reynolds, subadjacent
    from nliealg.reynolds import derivation_to_reynolds

    a4, a5 = simple_n_lie(3), simple_n_lie(4)
    pairs = [(alg, adjoint_representation(alg)) for alg in (a4, a5, NAryAlgebra(3, 4, {(1, 2, 3): [0, 0, 0, 1]}))]
    reynolds = [(a4, derivation_to_reynolds(a4, ad(a4, {(1, 2): 1})))]
    reynolds += [unimodular_conjugate(rng, *reynolds[0]), (a5, Matrix.identity(5).scale(3))]
    pairs += [subadjacent(ns_from_reynolds(alg, op)) for alg, op in reynolds]
    return pairs


def test_adjoint_and_semidirect_match_naive_oracles(rng):
    """``adjoint_representation`` and ``semidirect_product`` give the tables
    and the brackets, in tuple order, of the per-tuple expansion."""
    for alg in (simple_n_lie(3), simple_n_lie(4), NAryAlgebra(3, 4, {(1, 2, 3): [0, 0, 0, 1]})):
        assert adjoint_representation(alg).tables == naive_adjoint_representation(alg).tables
    for alg, rho in _representations(rng):
        big, want = semidirect_product(alg, rho), naive_semidirect_product(alg, rho)
        assert big == want and list(big.brackets) == list(want.brackets) and big.basis_names == want.basis_names
        assert any(key[-1] > alg.dim for key in big.brackets)


def test_ad_column_readers_expand_no_bracket(lie3, family1, three_lie4, monkeypatch):
    """``ad``, ``adjoint_representation``, ``semidirect_product``,
    ``nijenhuis_representation``, the NS constructions (the curly
    tabulation of ``ns._ns_from_operator``) and ``ReynoldsComplex._assemble``
    read the ``ad_table`` and expand no ``bracket``/``bracket_on_basis``;
    the bug traps ``coboundary`` and ``check_hom_pair`` expand their
    brackets, and with ``deformation._t_linear_check``, which reads the
    graded-wedge walk and expands none, run with ``ad_columns`` gone, so
    they stay independent of it."""
    from nliealg.cohomology import Cochain, ReynoldsComplex, coboundary
    from nliealg.deformation import _t_linear_check
    from nliealg.nijenhuis import nijenhuis_representation
    from nliealg.ns import ns_from_nijenhuis, ns_from_reynolds
    from nliealg.reynolds import check_hom_pair

    calls = Counter()
    for name in ("bracket", "bracket_on_basis"):
        def counted(self, args, original=getattr(NAryAlgebra, name), name=name):
            calls[name] += 1
            return original(self, args)

        monkeypatch.setattr(NAryAlgebra, name, counted)

    def expansions(fn, *args):
        calls.clear()
        fn(*args)
        return sum(calls.values())

    rho, cx, twice = adjoint_representation(three_lie4), ReynoldsComplex(lie3, family1), Matrix.identity(3).scale(2)
    readers = [(ad, lie3, {(2,): 1}), (ad, three_lie4, {(2, 1): 1, (3, 3): 2}),
               (adjoint_representation, three_lie4), (semidirect_product, three_lie4, rho),
               (nijenhuis_representation, lie3, twice), (ns_from_reynolds, lie3, family1),
               (ns_from_nijenhuis, lie3, twice), (cx._assemble, 1), (cx._assemble, 2)]
    assert [expansions(*reader) for reader in readers] == [0] * len(readers)
    cochain = Cochain(2, 3, 3, 2, [1 + c % 5 for c in range(27)])
    monkeypatch.setattr(algebra_module, "ad_columns", None)
    ident = Matrix.identity(3)
    traps = [(coboundary, *cx._pair, cochain), (check_hom_pair, lie3, family1, family1, ident, ident)]
    assert all(expansions(*trap) for trap in traps)
    assert expansions(_t_linear_check, lie3, family1, ident) == 0
