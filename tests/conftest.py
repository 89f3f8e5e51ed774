"""Shared instances: small algebras, operator families, random generators."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

_CRITERION = re.compile(r"::test_criterion_(\d{2})")
_criterion_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match:
        _criterion_results[int(match.group(1))] = report.passed


def pytest_terminal_summary(terminalreporter):
    """One summary line per acceptance criterion."""
    for number in sorted(_criterion_results):
        status = "PASS" if _criterion_results[number] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {status}")

from nliealg.algebra import NAryAlgebra
from nliealg.constructions import LinearFunctional, comm_assoc_algebra
from nliealg.linalg import Matrix
from nliealg.rings import Dual


@pytest.fixture
def lie3():
    """d=3 Lie algebra with [e1,e2] = e2."""
    return NAryAlgebra(2, 3, {(1, 2): [0, 1, 0]})


@pytest.fixture
def family1():
    return Matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])


@pytest.fixture
def family2():
    return Matrix([[-1, 1, 0], [-1, 1, 0], [0, 0, 1]])


@pytest.fixture
def trace_functional():
    return LinearFunctional([1, 0, 1])


@pytest.fixture
def three_lie4():
    """d=4 3-Lie algebra with [e1,e2,e3] = e4."""
    return NAryAlgebra(3, 4, {(1, 2, 3): [0, 0, 0, 1]})


@pytest.fixture
def abelian33():
    return NAryAlgebra(3, 3, {})


@pytest.fixture
def sl2_like():
    """d=3 with [e1,e2]=e3, [e1,e3]=-2e1, [e2,e3]=2e2 (a standard triple)."""
    return NAryAlgebra(
        2, 3, {(1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 0]}
    )


@pytest.fixture
def trunc_xy():
    """k[x,y]/(x^2,y^2) on basis 1, x, y, xy."""
    return comm_assoc_algebra(4, {
        (1, 1): [1, 0, 0, 0],
        (1, 2): [0, 1, 0, 0],
        (1, 3): [0, 0, 1, 0],
        (1, 4): [0, 0, 0, 1],
        (2, 3): [0, 0, 0, 1],
    })


@pytest.fixture
def trunc_x3():
    """k[x]/(x^3) on basis 1, x, x^2."""
    return comm_assoc_algebra(3, {
        (1, 1): [1, 0, 0],
        (1, 2): [0, 1, 0],
        (1, 3): [0, 0, 1],
        (2, 2): [0, 0, 1],
    })


def trunc_xyz():
    """k[x,y,z]/(x^2,y^2,z^2) on basis 1,x,y,z,xy,xz,yz,xyz."""
    prods = {}
    basis = ["", "x", "y", "z", "xy", "xz", "yz", "xyz"]
    pos = {m: i + 1 for i, m in enumerate(basis)}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis[i:], start=i):
            merged = "".join(sorted(a + b))
            if len(set(a) & set(b)) == 0 and merged in ("".join(sorted(m)) for m in basis):
                target = next(m for m in basis if "".join(sorted(m)) == merged)
                vec = [0] * 8
                vec[pos[target] - 1] = 1
                prods[(i + 1, j + 1)] = vec
    return comm_assoc_algebra(8, prods)


def euler_derivation(dim, monomial_degrees):
    """Diagonal derivation scaling basis monomial i by its degree in one
    variable; a derivation of any monomial truncated algebra."""
    return Matrix([
        [Fraction(monomial_degrees[i]) if i == j else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ])


def naive_expansion(value_on_basis, args, dim):
    """Multilinear expansion over every index tuple, supports or not, from
    the value on basis vectors (1-based indices, any order, repeats); the
    reference for ``NAryAlgebra.bracket`` and ``NSAlgebra.curly``."""
    out = [Fraction(0)] * dim
    for picks in product(range(dim), repeat=len(args)):
        coeff = Fraction(1)
        for v, p in zip(args, picks):
            coeff = coeff * v[p]
        base = value_on_basis(tuple(p + 1 for p in picks))
        out = [o + coeff * b for o, b in zip(out, base)]
    return out


def _sorted_with_sign(indices):
    """(sorted tuple, sign of the sorting permutation), sign 0 on a repeat."""
    if len(set(indices)) < len(indices):
        return tuple(sorted(indices)), 0
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
    return tuple(sorted(indices)), (-1) ** inversions


def stored_bracket(algebra):
    """The bracket on 1-based basis tuples, read from ``algebra.brackets``."""
    def value(picks):
        if algebra.symmetry == "symmetric":
            key, sign = tuple(sorted(picks)), 1
        else:
            key, sign = _sorted_with_sign(picks)
        return [sign * v for v in algebra.brackets.get(key, [Fraction(0)] * algebra.dim)]
    return value


def stored_curly(ns):
    """The curly bracket on 1-based basis tuples, read from ``ns.curly_table``."""
    def value(picks):
        key, sign = _sorted_with_sign(picks[:-1])
        return [sign * v for v in ns.curly_table.get((key, picks[-1]), [Fraction(0)] * ns.dim)]
    return value


def sparse_args(rng, arity, dim, dual=False):
    """Seeded coefficient vectors, about half their entries zero; with
    ``dual``, some entries are dual numbers."""
    args = []
    for _ in range(arity):
        vec = [rand_fraction(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(dim)]
        if dual:
            vec = [Dual(x, rng.randint(-2, 2)) if rng.random() < 0.4 else x for x in vec]
        args.append(vec)
    return args


def rand_fraction(rng, span=3):
    return Fraction(rng.randint(-span, span))


def rand_matrix(rng, dim, span=3):
    return Matrix([[rand_fraction(rng, span) for _ in range(dim)] for _ in range(dim)])


def rand_vector(rng, dim, span=3):
    return [rand_fraction(rng, span) for _ in range(dim)]


def strictly_upper(rng, dim, span=2):
    """A random nilpotent (strictly upper triangular) matrix."""
    return Matrix([
        [rand_fraction(rng, span) if j > i else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ])


def lie3_nilpotent_derivation(rng):
    """Derivations of [e1,e2]=e2 with De1 = b*e2 + c*e3, De2 = De3 = 0."""
    b, c = rand_fraction(rng), rand_fraction(rng)
    return Matrix([
        [Fraction(0), Fraction(0), Fraction(0)],
        [b, Fraction(0), Fraction(0)],
        [c, Fraction(0), Fraction(0)],
    ])


@pytest.fixture
def rng():
    return random.Random(20240817)
