import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from nliealg import ns as ns_module
from nliealg.algebra import ad
from nliealg.errors import InputError, PreconditionError
from nliealg.linalg import Matrix, integer_scale
from nliealg.nijenhuis import deformed_algebra, nijenhuis_representation
from nliealg.ns import (
    NSAlgebra,
    check_ns,
    ns_from_nijenhuis,
    ns_from_reynolds,
    subadjacent,
)
from nliealg.reynolds import derivation_to_reynolds, induced_bracket
from nliealg.wedge import increasing_tuples

from conftest import (
    curly_on_basis,
    naive_angle_bracket,
    naive_angle_on_basis,
    naive_check_ns,
    naive_expansion,
    naive_nijenhuis_representation,
    naive_operator_ad,
    rand_fraction,
    simple_n_lie,
    sparse_args,
    stored_curly,
    unimodular_conjugate,
    wedge_single,
)


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
    assert curly_on_basis(ns, (2, 1), 3) == [0, 0, 0, -1]
    assert curly_on_basis(ns, (1, 1), 3) == [0, 0, 0, 0]
    assert curly_on_basis(ns, (1, 2), 1) == [0, 0, 0, 0]


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
            assert curly_on_basis(ns, picks[:-1], picks[-1]) == stored(picks)
        for _ in range(8):
            args = sparse_args(rng, ns.arity, ns.dim, dual)
            assert ns.curly(args) == naive_expansion(stored, args, ns.dim)


def test_curly_rejects_out_of_range_indices():
    ns = NSAlgebra(3, 4, {((1, 2), 3): [0, 0, 0, 1]}, {})
    for prefix, j in (((1, 2), 5), ((1, 2), 0), ((0, 2), 3)):
        with pytest.raises(InputError):
            curly_on_basis(ns, prefix, j)
    with pytest.raises(InputError):
        ns.curly([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1]])


def test_constructor_validation():
    with pytest.raises(InputError):
        NSAlgebra(3, 4, {((2, 1), 3): [0, 0, 0, 1]}, {})
    for prefix in ((5,), (0,)):
        with pytest.raises(InputError):
            NSAlgebra(2, 2, {(prefix, 1): [1, 0]}, {})
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
    v12 = naive_angle_on_basis(ns, (1, 2))
    v21 = ns.curly([ns.units((1,))[0], ns.units((2,))[0]])  # smoke: curly itself
    assert naive_angle_on_basis(ns, (2, 1)) == [-a for a in v12]


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


def _perturbed(ns, rng, steps=(-1, 1)):
    """``ns`` with one random entry of its curly or square table moved by
    one of ``steps``."""
    curly = {key: list(vec) for key, vec in ns.curly_table.items()}
    square = {key: list(vec) for key, vec in ns.square.brackets.items()}
    n, d = ns.arity, ns.dim
    if rng.random() < 0.5:
        table = curly
        key = (rng.choice(increasing_tuples(d, n - 1)), rng.randint(1, d))
    else:
        table = square
        key = rng.choice(increasing_tuples(d, n))
    vec = table.setdefault(key, [Fraction(0)] * d)
    vec[rng.randrange(d)] += rng.choice(steps)
    return NSAlgebra(n, d, curly, square)


def _omega_curly(omega):
    """{e_i, e_j, e_5} = omega_ij e_5 on a 5-dim space, zero square. Axioms 1
    and 3 hold; axiom 2 holds exactly when the 2-form omega on e1..e4 has
    omega ^ omega = 0 (omega_12 omega_34 - omega_13 omega_24 + omega_14 omega_23)."""
    return NSAlgebra(3, 5, {(key, 5): [0, 0, 0, 0, c] for key, c in omega.items() if c}, {})


def test_check_ns_matches_naive_oracle(lie3, family1, family2, three_lie4):
    rng = random.Random(41)
    deriv = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    induced = [
        ns_from_reynolds(lie3, family1),
        ns_from_reynolds(lie3, family2),
        ns_from_reynolds(three_lie4, derivation_to_reynolds(three_lie4, deriv)),
        ns_from_nijenhuis(lie3, Matrix.identity(3).scale(Fraction(2))),
        ns_from_nijenhuis(three_lie4, Matrix.identity(4).scale(Fraction(1, 2))),
    ]
    structures = induced + [
        NSAlgebra(3, 4, {}, three_lie4.brackets),
        NSAlgebra(2, 3, {}, {(1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 1]}),
        _omega_curly({(1, 2): 1, (3, 4): 1}),
    ]
    structures += [_perturbed(ns, rng) for ns in induced for _ in range(4)]
    pairs = increasing_tuples(4, 2)
    structures += [_omega_curly({key: rng.randint(-1, 1) for key in pairs}) for _ in range(6)]
    # zero curly: the axioms reduce to the Jacobi identity of the square bracket (axiom 3)
    structures += [
        NSAlgebra(2, 3, {}, {key: [rng.randint(-1, 1) for _ in range(3)] for key in increasing_tuples(3, 2)})
        for _ in range(4)
    ]
    names = []
    for ns in structures:
        result = check_ns(ns)
        assert result == naive_check_ns(ns)
        names.append(result.check_name)
    assert {"ns-axioms", "ns-axiom-1", "ns-axiom-2", "ns-axiom-3"} <= set(names)
    # failing structures with Fraction entries: the integer check scales by
    # D > 1 and divides its report by D^2, so the counterexamples carry real
    # denominators; every field of the result must match the oracle
    steps = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3))
    fractional = []
    for n in (2, 3, 4):
        ns = _ad_series_ns(n)
        fractional += [_perturbed(ns, rng, steps) for _ in range(4)]
        # with the curly bracket dropped, only the Jacobi identity of the square bracket is left (axiom 3)
        fractional.append(NSAlgebra(n, ns.dim, {}, ns.square.brackets))
    # axiom 2 is axiom 1 again at arity 2, and perturbed ad-series structures fail axiom 1 first
    fractional += [_omega_curly({key: rng.choice(steps) for key in pairs}) for _ in range(3)]
    failures = set()
    for ns in fractional:
        result = check_ns(ns)
        assert result == naive_check_ns(ns)
        assert not result and _denominator(ns) > 1
        failures.add((ns.arity, result.check_name, result.counterexample["where"].get("last", 0) > 1))
        reported = result.counterexample["lhs"] + result.counterexample["rhs"]
        assert any(x.denominator > 1 for x in reported)
    assert {n for n, _, _ in failures} == {2, 3, 4}
    assert {name for _, name, _ in failures} == {"ns-axiom-1", "ns-axiom-2", "ns-axiom-3"}
    # an axiom-1 failure in a column other than the first
    assert any(name == "ns-axiom-1" and later for _, name, later in failures)


def _ad_series_ns(n):
    """The NS structure of the simple n-Lie algebra A_{n+1} from the Reynolds
    operator (ad(e_2 ^ ... ^ e_n) + Id/(n-1))^-1, whose entries are Fractions."""
    alg = simple_n_lie(n)
    deriv = ad(alg, wedge_single(tuple(range(2, n + 1)), alg.dim))
    return ns_from_reynolds(alg, derivation_to_reynolds(alg, deriv))


def _denominator(ns):
    """The lcm of the denominators of the curly and square tables."""
    tables = (ns.curly_table, ns.square.brackets)
    return lcm(*(Fraction(x).denominator for table in tables for vec in table.values() for x in vec))


def test_integer_scale_clears_every_denominator():
    tables = [{(1, 2): [Fraction(1, 2), 0, Fraction(-2, 3)]}, {(3,): [5, Fraction(1, 4), 0]}, {}]
    scale, scaled = integer_scale(tables)
    assert scale == 12
    assert scaled == [{(1, 2): [6, 0, -8]}, {(3,): [60, 3, 0]}, {}]
    assert all(type(x) is int for table in scaled for vec in table.values() for x in vec)
    # integral tables are left as they are, with D = 1
    assert integer_scale([{(1,): [2, -3]}]) == (1, [{(1,): [2, -3]}])
    assert integer_scale([]) == (1, [])


def test_subadjacent_tabulates_the_angle_bracket_once(lie3, family1, monkeypatch):
    from nliealg import ns as ns_module

    tabulated = []
    angle_algebra = ns_module._angle_algebra

    def counted(ns):
        tabulated.append(ns)
        return angle_algebra(ns)

    ns = ns_from_reynolds(lie3, family1)
    monkeypatch.setattr(ns_module, "_angle_algebra", counted)
    algebra, rep = subadjacent(ns)
    assert len(tabulated) == 1
    assert algebra == induced_bracket(lie3, family1)
    for t in increasing_tuples(3, 1):
        assert rep.matrix_for_tuple(t) == Matrix.from_columns([curly_on_basis(ns, t, j) for j in range(1, 4)])


def test_angle_algebra_matches_dense_oracle(lie3, family1, family2, three_lie4):
    """The angle bracket read off the stored tables equals the dense
    expansion on every ordered basis tuple and on non-basis arguments, for
    structures that pass the axioms and structures that fail them."""
    rng = random.Random(43)
    induced = [
        ns_from_reynolds(lie3, family1),
        ns_from_reynolds(lie3, family2),
        ns_from_nijenhuis(three_lie4, Matrix.identity(4).scale(Fraction(1, 2))),
        _ad_series_ns(3),
        _ad_series_ns(4),
    ]
    structures = induced + [_perturbed(ns, rng, (Fraction(1, 2), -1)) for ns in induced for _ in range(2)]
    structures += [_omega_curly({key: rng.randint(-1, 1) for key in increasing_tuples(4, 2)}) for _ in range(2)]
    for _ in range(2):
        curly = {(prefix, j): [rand_fraction(rng, 1) for _ in range(4)]
                 for prefix in increasing_tuples(4, 2) for j in range(1, 5)}
        structures.append(NSAlgebra(3, 4, curly, three_lie4.brackets))
    verdicts = set()
    for ns in structures:
        angle = ns_module._angle_algebra(ns)
        for picks in product(range(1, ns.dim + 1), repeat=ns.arity):
            assert angle.bracket_on_basis(picks) == naive_angle_on_basis(ns, picks)
        for dual in (False, True):
            args = sparse_args(rng, ns.arity, ns.dim, dual)
            assert angle.bracket(args) == naive_angle_bracket(ns, args)
        verdicts.add(bool(check_ns(ns)))
    assert verdicts == {True, False}


def test_angle_algebra_expands_no_curly_bracket(lie3, family1, monkeypatch):
    ns = ns_from_reynolds(lie3, family1)
    calls = Counter()
    for name in ("curly",):
        def counted(self, *args, name=name, fn=getattr(NSAlgebra, name)):
            calls[name] += 1
            return fn(self, *args)
        monkeypatch.setattr(NSAlgebra, name, counted)
    angle = ns_module._angle_algebra(ns)
    assert not calls
    assert angle == induced_bracket(lie3, family1)


def test_curly_and_nijenhuis_representation_match_the_dense_loop(lie3, family1, family2, three_lie4, rng):
    """The curly bracket of ``ns_from_reynolds`` and ``ns_from_nijenhuis``,
    and ``nijenhuis_representation``, equal [Te_J1, ..., Te_J(n-1), e_j]
    formed by one dense ``bracket`` per (J, j), on the Reynolds and
    Nijenhuis operators of these tests and a seeded unimodular conjugate of
    each."""
    nilpotent = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    reynolds = [(lie3, family1), (lie3, family2), (three_lie4, derivation_to_reynolds(three_lie4, nilpotent))]
    nijenhuis = [(lie3, Matrix.identity(3).scale(2)), (lie3, Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])),
                 (three_lie4, Matrix.identity(4).scale(Fraction(1, 2))), (three_lie4, Matrix.identity(4).scale(3))]
    for construct, pairs in ((ns_from_reynolds, reynolds), (ns_from_nijenhuis, nijenhuis)):
        for alg, op in pairs + [unimodular_conjugate(rng, alg, op) for alg, op in pairs]:
            want = naive_operator_ad(alg, op)
            curly = {(tup, j): col for tup, cols in want.items() for j, col in enumerate(cols, 1) if any(col)}
            assert construct(alg, op).curly_table == curly
            if construct is ns_from_nijenhuis:
                assert nijenhuis_representation(alg, op).tables == naive_nijenhuis_representation(alg, op).tables
