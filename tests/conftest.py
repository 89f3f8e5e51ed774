"""Shared instances: small algebras, operator families, random generators."""

import json
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

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

from nliealg.algebra import (
    ALTERNATING,
    SYMMETRIC,
    NAryAlgebra,
    RepresentationTable,
    algebra_from_bracket_function,
    expand_supports,
    fundamental_action,
    unit_supports,
)
from nliealg.cohomology import Cochain, coboundary, delta_r_operator
from nliealg.constructions import (
    LinearFunctional,
    _det_of_rows,
    comm_assoc_algebra,
    extend_by_functional,
)
from nliealg.documents import (
    Report,
    algebra_document,
    emit_document,
    functional_document,
    operator_document,
)
from nliealg.deformation import TrivialityResult, check_equivalence_witness, is_infinitesimal_deformation
from nliealg.errors import (
    InputError,
    InternalConsistencyError,
    NotInvertibleError,
    PreconditionError,
    UnsupportedRingError,
)
from nliealg.linalg import Matrix, vec_add, vec_scale, vec_sub, vec_zero
from nliealg.reynolds import induced_bracket
from nliealg.rings import QQ_ONE, QQ_ZERO, Dual, over_digit_limit, parse_rational, rational, sign
from nliealg.nijenhuis import DeformedBracketLadder
from nliealg.ns import NSAlgebra
from nliealg.verdict import fail, jsonable, ok, require
from nliealg.wedge import canonicalize_wedge, check_indices, increasing_tuples


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
def docs(tmp_path, lie3, family1, abelian33, trace_functional):
    """The CLI's input documents, written to files: {file name: path}."""
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(emit_document(doc))
        paths[name] = str(p)

    write("g.json", algebra_document(lie3))
    write("ab33.json", algebra_document(abelian33))
    write("r1.json", operator_document(family1))
    write("zero3.json", operator_document(Matrix.zero(3)))
    write("ident3.json", operator_document(Matrix.identity(3)))
    write("f.json", functional_document(trace_functional))
    write("bad.json", {"kind": "n_lie_algebra"})
    return paths


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
def field_k():
    """k itself on the basis 1: e1.e1 = e1."""
    return comm_assoc_algebra(1, {(1, 1): [1]})


@pytest.fixture
def trunc_x2():
    """k[x]/(x^2) on basis 1, x."""
    return comm_assoc_algebra(2, {(1, 1): [1, 0], (1, 2): [0, 1]})


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


def wedge_single(indices, dim):
    """The basis element e_indices of Lambda^k, as {increasing tuple: sign};
    {} on a repeated index."""
    canon = canonicalize_wedge(indices, dim)
    if canon is None:
        return {}
    key, flip = canon
    return {key: flip}


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


def curly_on_basis(ns, prefix, j):
    """{e_{i1},...,e_{i_{n-1}}, e_j}; the prefix may be unordered."""
    indices = tuple(prefix) + (j,)
    check_indices(indices, ns.dim)
    return expand_supports(ns._terms, unit_supports(indices), ns.dim, ns.arity - 1)


def naive_angle_bracket(ns, args):
    """sum_i (-1)^{n-i} {y_1,...,^y_i,...,y_n, y_i} + [y_1,...,y_n], every
    term expanded on dense vectors; the reference for ``ns._angle_algebra``."""
    n = ns.arity
    out = ns.square.bracket(args)
    for i in range(n):
        rest = args[:i] + args[i + 1:]
        out = vec_add(out, vec_scale(sign(n - 1 - i), ns.curly(rest + [args[i]])))
    return out


def naive_angle_on_basis(ns, tup):
    return naive_angle_bracket(ns, ns.units(tup))


def naive_check_ns(ns):
    """All three compatibility axioms on basis tuples, every value expanded
    where it is used; the reference for ``ns.check_ns``."""
    n, d = ns.arity, ns.dim
    xs_range = increasing_tuples(d, n - 1)
    # axiom 1: iterated curly brackets
    for xs in xs_range:
        x_units = ns.units(xs)
        for ys in xs_range:
            y_units = ns.units(ys)
            for yn in range(1, d + 1):
                last = ns.units((yn,))[0]
                lhs = ns.curly(x_units + [ns.curly(y_units + [last])])
                rhs = ns.curly(y_units + [ns.curly(x_units + [last])])
                for j in range(n - 1):
                    mixed = list(y_units)
                    mixed[j] = naive_angle_bracket(ns, x_units + [y_units[j]])
                    rhs = vec_add(rhs, ns.curly(mixed + [last]))
                if lhs != rhs:
                    return fail("ns-axiom-1", {"x": xs, "y": ys, "last": yn}, lhs, rhs)
    # axiom 2: angle bracket in the first curly slot
    for ys in increasing_tuples(d, n):
        y_units = ns.units(ys)
        angle = naive_angle_on_basis(ns, ys)
        for xs in xs_range:
            x_units = ns.units(xs)
            lhs = ns.curly([angle] + x_units)
            rhs = vec_zero(d)
            for j in range(n):
                rest = y_units[:j] + y_units[j + 1:]
                inner = ns.curly([y_units[j]] + x_units)
                sign = Fraction((-1) ** (n - 1 - j))
                rhs = vec_add(rhs, vec_scale(sign, ns.curly(rest + [inner])))
            if lhs != rhs:
                return fail("ns-axiom-2", {"x": xs, "y": ys}, lhs, rhs)
    # axiom 3: square bracket against the angle bracket
    for xs in xs_range:
        x_units = ns.units(xs)
        for ys in increasing_tuples(d, n):
            y_units = ns.units(ys)
            lhs = ns.square.bracket(x_units + [naive_angle_on_basis(ns, ys)])
            rhs = vec_sub(vec_zero(d), ns.curly(x_units + [ns.square.bracket(y_units)]))
            for j in range(n):
                rest = y_units[:j] + y_units[j + 1:]
                sign = Fraction((-1) ** (n - 1 - j))
                rhs = vec_add(
                    rhs,
                    vec_scale(sign, ns.square.bracket(rest + [naive_angle_bracket(ns, x_units + [y_units[j]])])),
                )
                rhs = vec_add(
                    rhs,
                    vec_scale(sign, ns.curly(rest + [ns.square.bracket(x_units + [y_units[j]])])),
                )
            if lhs != rhs:
                return fail("ns-axiom-3", {"x": xs, "y": ys}, lhs, rhs)
    return ok("ns-axioms")


def naive_check_representation(algebra, rho):
    """Both compatibility identities of an n-Lie representation, every
    matrix product formed where it is used; the reference for
    ``algebra.check_representation``."""
    n, d = algebra.arity, algebra.dim
    if algebra.symmetry != ALTERNATING:
        raise InputError("representation check applies to alternating brackets")
    if rho.arity != n or rho.algebra_dim != d:
        raise InputError("representation/algebra dimension mismatch")
    for xs in increasing_tuples(d, n - 1):
        rx = rho.matrix_for_tuple(xs)
        for ys in increasing_tuples(d, n - 1):
            ry = rho.matrix_for_tuple(ys)
            lhs = rx @ ry - ry @ rx
            action = fundamental_action(algebra, wedge_single(xs, d), wedge_single(ys, d))
            rhs = naive_matrix_for_wedge(rho, action)
            if lhs != rhs:
                return fail(
                    "representation-commutator",
                    {"x": xs, "y": ys},
                    [a for row in lhs.entries for a in row],
                    [a for row in rhs.entries for a in row],
                )
    for prefix in increasing_tuples(d, n - 2):
        for ys in increasing_tuples(d, n):
            bracket = algebra.bracket_on_basis(ys)
            lhs = naive_matrix_for_wedge(rho, {prefix + (j + 1,): c for j, c in enumerate(bracket) if c})
            rhs = Matrix.zero(rho.module_dim)
            for i in range(n):
                rest = ys[:i] + ys[i + 1:]
                sign = (-1) ** (n - 1 - i)
                term = rho.matrix_for_tuple(rest) @ rho.matrix_for_tuple(prefix + (ys[i],))
                rhs = rhs + term.scale(Fraction(sign))
            if lhs != rhs:
                return fail(
                    "representation-bracket",
                    {"x": prefix, "y": ys},
                    [a for row in lhs.entries for a in row],
                    [a for row in rhs.entries for a in row],
                )
    return ok("representation")


def naive_check_filippov(algebra):
    """The Filippov identity on all basis tuples, every basis bracket formed
    where it is used; the reference for ``algebra.check_filippov``."""
    if algebra.symmetry != ALTERNATING:
        raise InputError("Filippov check applies to alternating brackets")
    n, d = algebra.arity, algebra.dim
    for xs in increasing_tuples(d, n - 1):
        x_units = algebra.units(xs)
        for ys in increasing_tuples(d, n):
            inner = algebra.bracket_on_basis(ys)
            lhs = algebra.bracket(x_units + [inner])
            rhs = vec_zero(d)
            for i in range(n):
                args = list(algebra.units(ys))
                args[i] = algebra.bracket_on_basis(xs + (ys[i],))
                rhs = vec_add(rhs, algebra.bracket(args))
            if lhs != rhs:
                return fail("filippov", {"x": xs, "y": ys}, lhs, rhs)
    return ok("filippov")


def naive_is_derivation(algebra, op):
    """The Leibniz rule on all basis tuples, every bracket expanded on dense
    vectors; the reference for ``algebra.is_derivation``."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    for tup in algebra.basis_tuples():
        lhs = op.apply(algebra.bracket_on_basis(tup))
        rhs = vec_zero(algebra.dim)
        for i in range(algebra.arity):
            args = algebra.units(tup)
            args[i] = op.apply(args[i])
            rhs = vec_add(rhs, algebra.bracket(args))
        if lhs != rhs:
            return fail("derivation", {"tuple": tup}, lhs, rhs)
    return ok("derivation")


def naive_induced_value(algebra, op, tup):
    """[x_1,...,x_n]_R on a basis tuple, every image formed where it is
    used; the reference for ``reynolds.induced_value``."""
    n = algebra.arity
    units = algebra.units(tup)
    r_units = [op.apply(u) for u in units]
    acc = vec_zero(algebra.dim)
    for i in range(n):
        args = list(r_units)
        args[i] = units[i]
        acc = vec_add(acc, algebra.bracket(args))
    return [a - b for a, b in zip(acc, algebra.bracket(r_units))]


def naive_check_reynolds(algebra, op):
    """The Reynolds identity on all canonical basis n-tuples, with
    [Rx_1,...,Rx_n] formed on both sides; the reference for
    ``reynolds.check_reynolds``."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    for tup in algebra.basis_tuples():
        lhs = algebra.bracket([op.apply(u) for u in algebra.units(tup)])
        rhs = op.apply(naive_induced_value(algebra, op, tup))
        if lhs != rhs:
            return fail("reynolds", {"tuple": tup}, lhs, rhs)
    return ok("reynolds")


def naive_deformed_bracket_ladder(algebra, op):
    """The former ``nijenhuis.deformed_bracket_ladder`` body: each level
    tabulated by its own closure, with N applied to every j-subset of the
    dense arguments and to the previous level's tabulated value; the
    reference for ``nijenhuis.nijenhuis_values``."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    n, d = algebra.arity, algebra.dim
    levels = [algebra]
    for j in range(1, n):
        prev = levels[-1]

        def value(tup, j=j, prev=prev):
            units = algebra.units(tup)
            n_units = [op.apply(u) for u in units]
            acc = vec_zero(d)
            for subset in combinations(range(n), j):
                args = list(units)
                for i in subset:
                    args[i] = n_units[i]
                acc = vec_add(acc, algebra.bracket(args))
            return vec_sub(acc, op.apply(prev.bracket_on_basis(tup)))

        table = {tup: value(tup) for tup in algebra.basis_tuples()}
        levels.append(NAryAlgebra(n, d, table, algebra.basis_names, algebra.symmetry))
    return DeformedBracketLadder(tuple(levels))


def naive_check_nijenhuis(algebra, op):
    """The former ``nijenhuis.check_nijenhuis`` body: the ladder built
    first, then [Nx_1,...,Nx_n] formed on dense vectors per tuple; the
    reference for ``nijenhuis.check_nijenhuis``."""
    top = naive_deformed_bracket_ladder(algebra, op).level(algebra.arity - 1)
    for tup in algebra.basis_tuples():
        lhs = algebra.bracket([op.apply(u) for u in algebra.units(tup)])
        rhs = op.apply(top.bracket_on_basis(tup))
        if lhs != rhs:
            return fail("nijenhuis", {"tuple": tup}, lhs, rhs)
    return ok("nijenhuis")


def naive_lift_criterion(algebra, op, functional):
    """The former ``constructions._lift`` criterion: every
    R[Rx_1,...,^Rx_i,...,Rx_{n+1}] formed on dense vectors, and on PASS the
    operator re-verified on a freshly built extension; the reference for
    ``constructions.reynolds_lift_criterion``."""
    require(naive_check_reynolds(algebra, op), "operator is not a Reynolds operator")
    require(functional.vanishes_on_brackets(algebra), "functional does not vanish on brackets")
    n, d = algebra.arity, algebra.dim
    for tup in increasing_tuples(d, n + 1):
        r_units = [op.apply(u) for u in algebra.units(tup)]
        acc = vec_zero(d)
        for i in range(n + 1):
            c = functional.coefficients[tup[i] - 1]
            if not c:
                continue
            rest = r_units[:i] + r_units[i + 1:]
            acc = vec_add(acc, vec_scale(sign(n - i) * c, op.apply(algebra.bracket(rest))))
        if any(acc):
            return fail("lift-criterion", {"tuple": tup}, acc, vec_zero(d))
    lifted = naive_check_reynolds(extend_by_functional(algebra, functional), op)
    if not lifted:
        raise InternalConsistencyError(
            f"criterion holds but the lifted check fails: {jsonable(lifted.counterexample)}"
        )
    return ok("lift-criterion")


def naive_corollary_bracket(algebra, op, functional):
    """The former ``constructions.corollary_bracket`` body: the double sum
    written out bracket by bracket on dense vectors, checked against the
    induced bracket of a freshly built extension."""
    require(naive_lift_criterion(algebra, op, functional), "lift criterion fails")
    n, d = algebra.arity, algebra.dim

    def value(tup):
        units = algebra.units(tup)
        r_units = [op.apply(u) for u in units]
        f_r = [functional(r) for r in r_units]
        f_x = [functional(u) for u in units]
        acc = vec_zero(d)
        # one argument kept plain (slot i), functional slot j removed
        for i in range(n + 1):
            for j in range(n + 1):
                if j == i:
                    continue
                args = []
                for k in range(n + 1):
                    if k == j:
                        continue
                    args.append(units[i] if k == i else r_units[k])
                acc = vec_add(acc, vec_scale(sign(j) * f_r[j], algebra.bracket(args)))
        for i in range(n + 1):
            rest = [r_units[k] for k in range(n + 1) if k != i]
            acc = vec_add(acc, vec_scale(sign(i) * f_x[i], algebra.bracket(rest)))
        for j in range(n + 1):
            rest = [r_units[k] for k in range(n + 1) if k != j]
            acc = vec_sub(acc, vec_scale(sign(j) * f_r[j], algebra.bracket(rest)))
        return acc

    result = algebra_from_bracket_function(n + 1, d, value, basis_names=algebra.basis_names)
    reference = induced_bracket(extend_by_functional(algebra, functional), op)
    if result != reference:
        raise InternalConsistencyError(
            "double-sum bracket disagrees with the induced bracket of the extension"
        )
    return result


def naive_check_associative(algebra):
    """The former ``constructions.check_associative`` body: (xy)z = x(yz) on
    all basis triples, two dense ``bracket`` calls per triple."""
    algebra.require_symmetric("the associativity check")
    d = algebra.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                ij = algebra.bracket_on_basis((i, j))
                jk = algebra.bracket_on_basis((j, k))
                lhs = algebra.bracket([ij, algebra.units((k,))[0]])
                rhs = algebra.bracket([algebra.units((i,))[0], jk])
                if lhs != rhs:
                    return fail("associativity", {"triple": (i, j, k)}, lhs, rhs)
    return ok("associativity")


def naive_check_assoc_reynolds(algebra, op):
    """The former ``constructions.check_assoc_reynolds`` body, on dense
    vectors: Rx.Ry = R(Rx.y + x.Ry - Rx.Ry) on all basis pairs."""
    if algebra.symmetry != SYMMETRIC:
        raise InputError("the associativity check applies to commutative products")
    require(naive_check_associative(algebra), "product is not associative")
    d = algebra.dim
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            x, y = algebra.units((i, j))
            rx, ry = op.apply(x), op.apply(y)
            lhs = algebra.bracket([rx, ry])
            inner = vec_add(algebra.bracket([rx, y]), algebra.bracket([x, ry]))
            inner = vec_sub(inner, lhs)
            rhs = op.apply(inner)
            if lhs != rhs:
                return fail("assoc-reynolds", {"pair": (i, j)}, lhs, rhs)
    return ok("assoc-reynolds")


def naive_fd_sum(algebra, f_vals, d_units, units):
    """The former ``constructions._fd_sum``: sum_i (-1)^i f_i ([Dy_a, y_b] -
    [Dy_b, y_a]) over the three slots i, with a < b the other two."""
    acc = vec_zero(algebra.dim)
    for i in range(3):
        a, b = [k for k in range(3) if k != i]
        minor = vec_sub(algebra.bracket([d_units[a], units[b]]), algebra.bracket([d_units[b], units[a]]))
        acc = vec_add(acc, vec_scale(sign(i) * f_vals[i], minor))
    return acc


def naive_three_lie_from_f_D(algebra, functional, deriv):
    """The former ``constructions.three_lie_from_f_D`` body: f(D(x).y) =
    f(x.D(y)) checked on every ordered basis pair, then the determinant with
    rows (f-values, D-images, elements) written out on dense vectors; the
    reference for the functional extension of [.]_D."""
    require(naive_is_derivation(algebra, deriv), "operator is not a derivation")
    d = algebra.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            x, y = algebra.units((i, j))
            lhs = functional(algebra.bracket([deriv.apply(x), y]))
            rhs = functional(algebra.bracket([x, deriv.apply(y)]))
            if lhs != rhs:
                raise PreconditionError(f"functional is not balanced against the derivation at pair {(i, j)}")

    def value(tup):
        units = algebra.units(tup)
        return naive_fd_sum(algebra, [functional(u) for u in units], [deriv.apply(u) for u in units], units)

    return algebra_from_bracket_function(3, d, value, basis_names=algebra.basis_names)


def det_triple_identity(algebra, op, cols, correction=2):
    """|Rx Ry Rz| = R(|Rx Ry z| + c.p.) - correction * R(|Rx Ry Rz|) for column
    triples over a commutative associative Reynolds algebra, where a
    determinant equals that of its transpose (``constructions._det_of_rows``
    of the columns).  The identity that follows from the binary Reynolds law
    has correction = 2; the tests show correction = 1 failing.
    """
    x, y, z = cols
    rx = [op.apply(v) for v in x]
    ry = [op.apply(v) for v in y]
    rz = [op.apply(v) for v in z]
    lhs = _det_of_rows(algebra, [rx, ry, rz])
    cp = _det_of_rows(algebra, [rx, ry, z])
    cp = vec_add(cp, _det_of_rows(algebra, [x, ry, rz]))
    cp = vec_add(cp, _det_of_rows(algebra, [rx, y, rz]))
    rhs = op.apply(vec_sub(cp, vec_scale(rational(correction), lhs)))
    if lhs != rhs:
        return fail("det-triple-identity", {"correction": correction}, lhs, rhs)
    return ok("det-triple-identity")


def is_abelian(algebra):
    """Every bracket of ``algebra`` vanishes: it stores none."""
    return not algebra.brackets


def naive_det3_fd_check(algebra, op, functional, deriv):
    """``constructions.check_reynolds_on_det_3lie`` on the fd variant written
    out: R of the determinant with rows (f-values, D(R.)-images, R-images) on
    every basis triple, then R checked on the 3-Lie algebra; the reference
    for R of the lift sum on [.]_D."""
    require(naive_check_assoc_reynolds(algebra, op), "operator fails the binary Reynolds law")
    if op @ deriv != deriv @ op:
        raise PreconditionError("operators R, D do not commute")
    three = naive_three_lie_from_f_D(algebra, functional, deriv)
    for tup in increasing_tuples(algebra.dim, 3):
        units = algebra.units(tup)
        r_units = [op.apply(u) for u in units]
        acc = naive_fd_sum(algebra, [functional(u) for u in units], [deriv.apply(r) for r in r_units], r_units)
        acc = op.apply(acc)
        if any(acc):
            return fail("det3-criterion", {"tuple": tup}, acc, vec_zero(algebra.dim))
    return naive_check_reynolds(three, op)


def derivation_space(algebra):
    """A basis of the derivations of a commutative product: the nullspace of
    D(x.y) - D(x).y - x.D(y) on the basis pairs, in the d^2 entries of D
    (entry (r, c) at r*d + c)."""
    d = algebra.dim
    rows = []
    for i, j in algebra.basis_tuples():
        xy = algebra.bracket_on_basis((i, j))
        for r in range(d):
            row = [0] * (d * d)
            for c in range(d):
                row[r * d + c] += xy[c]
                row[c * d + i - 1] -= algebra.bracket_on_basis((c + 1, j))[r]
                row[c * d + j - 1] -= algebra.bracket_on_basis((i, c + 1))[r]
            rows.append(row)
    return [Matrix([v[r * d:(r + 1) * d] for r in range(d)]) for v in Matrix(rows).nullspace_basis()]


def commuting_derivations(basis, deriv):
    """A basis of the derivations that commute with ``deriv``, from a basis
    of all derivations."""
    cols = [[a for row in (e @ deriv - deriv @ e).entries for a in row] for e in basis]
    return [rand_combination(None, basis, v) for v in Matrix.from_columns(cols).nullspace_basis()]


def balanced_functionals(algebra, deriv):
    """A basis of the functionals with f(D(x).y) = f(x.D(y)) on all x, y."""
    units = algebra.units(range(1, algebra.dim + 1))
    rows = [vec_sub(algebra.bracket([deriv.apply(x), y]), algebra.bracket([x, deriv.apply(y)]))
            for x in units for y in units]
    return Matrix(rows).nullspace_basis()


def rand_combination(rng, basis, coeffs=None):
    """sum_k c_k b_k over matrices or vectors, with seeded c_k in -2..2
    unless ``coeffs`` gives them."""
    coeffs = coeffs if coeffs is not None else [rng.randint(-2, 2) for _ in basis]
    if isinstance(basis[0], Matrix):
        return reduce(lambda acc, term: acc + term, (b.scale(c) for c, b in zip(coeffs, basis)))
    return reduce(vec_add, (vec_scale(c, b) for c, b in zip(coeffs, basis)))


def naive_matrix_for_wedge(rho, wedge_elem):
    """The action of a Lambda^{n-1} coefficient dict, as a chain of dense
    sums of scaled basis matrices."""
    out = Matrix.zero(rho.module_dim)
    for key, coeff in sorted(wedge_elem.items()):
        out = out + rho.matrix_for_tuple(key).scale(coeff)
    return out


def naive_ad(algebra, wedge_elem):
    """The former ``algebra.ad`` body: one ``bracket_on_basis`` per (key, j),
    summed on dense vectors; the reference for ``algebra.ad``."""
    d = algebra.dim
    cols = []
    for j in range(1, d + 1):
        col = vec_zero(d)
        for key, coeff in sorted(wedge_elem.items()):
            col = vec_add(col, vec_scale(coeff, algebra.bracket_on_basis(tuple(key) + (j,))))
        cols.append(col)
    return Matrix.from_columns(cols)


def naive_adjoint_representation(algebra):
    """The former ``algebra.adjoint_representation`` body: ``naive_ad`` of
    each increasing (n-1)-tuple."""
    d, n = algebra.dim, algebra.arity
    tables = {tup: naive_ad(algebra, wedge_single(tup, d)) for tup in increasing_tuples(d, n - 1)}
    return RepresentationTable(n, d, d, tables)


def naive_semidirect_product(algebra, rho):
    """The former ``algebra.semidirect_product`` body: a walk over every
    increasing n-tuple of g + V, g's brackets expanded and rho read per
    tuple; the reference for ``algebra.semidirect_product``."""
    require(naive_check_representation(algebra, rho), "representation check failed")
    n, d, dv = algebra.arity, algebra.dim, rho.module_dim
    total = d + dv
    brackets = {}
    for tup in increasing_tuples(total, n):
        in_v = [i for i in tup if i > d]
        if len(in_v) >= 2:
            continue
        vec = vec_zero(total)
        if not in_v:
            vec[:d] = algebra.bracket_on_basis(tup)
        else:
            g_part = tuple(i for i in tup if i <= d)
            unit = vec_zero(dv)
            unit[in_v[0] - d - 1] = QQ_ONE
            vec[d:] = rho.matrix_for_tuple(g_part).apply(unit)
        if any(vec):
            brackets[tup] = vec
    names = list(algebra.basis_names) + [f"v{i}" for i in range(1, dv + 1)]
    return NAryAlgebra(n, total, brackets, basis_names=names)


def naive_operator_ad(algebra, op):
    """The former curly loop of ``ns._ns_from_operator`` and
    ``nijenhuis.nijenhuis_representation``: {J: [[Te_J1, ..., Te_J(n-1), e_j]
    for each j]}, one dense ``bracket`` per (J, j); the reference for
    ``algebra.operator_ad``."""
    n, d = algebra.arity, algebra.dim
    units = algebra.units(range(1, d + 1))
    return {tup: [algebra.bracket([op.apply(units[i - 1]) for i in tup] + [u]) for u in units]
            for tup in increasing_tuples(d, n - 1)}


def naive_nijenhuis_representation(algebra, op):
    """The former ``nijenhuis.nijenhuis_representation`` tables, from
    ``naive_operator_ad``."""
    d = algebra.dim
    tables = {tup: Matrix.from_columns(cols) for tup, cols in naive_operator_ad(algebra, op).items()}
    return RepresentationTable(algebra.arity, d, d, tables)


def unimodular_conjugate(rng, alg, op):
    """(g, R) moved to the basis of the columns of a seeded phi = L.U, with
    L and U integer unitriangular and entries in -1..1 off the diagonal:
    [x_1..x_n]' = phi^-1 [phi x_1..phi x_n] and R' = phi^-1 R phi."""
    d = alg.dim
    lower = Matrix([[1 if i == j else rng.randint(-1, 1) if i > j else 0 for j in range(d)] for i in range(d)])
    upper = Matrix([[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(d)] for i in range(d)])
    phi = lower @ upper
    inv = phi.inverse()
    moved = algebra_from_bracket_function(
        alg.arity, d, lambda tup: inv.apply(alg.bracket([phi.apply(u) for u in alg.units(tup)])),
        basis_names=alg.basis_names)
    return moved, inv @ op @ phi


def naive_coboundary(algebra, rho, cochain):
    """The n-Lie coboundary with every block-level value formed once per
    output slot; the reference for ``cohomology.coboundary``."""
    n, d = algebra.arity, algebra.dim
    if cochain.arity != n or cochain.dim != d:
        raise InputError("cochain/algebra mismatch")
    if rho.arity != n or rho.algebra_dim != d or rho.module_dim != cochain.module_dim:
        raise InputError("representation/cochain mismatch")
    m = cochain.degree
    dv = cochain.module_dim
    out = []
    for blocks in product(cochain.tuples, repeat=m):
        for j in range(1, d + 1):
            vec = vec_zero(dv)
            block_dicts = [wedge_single(blk, d) for blk in blocks]
            unit_j = vec_zero(d)
            unit_j[j - 1] = Fraction(1)
            # pair terms: X_a o X_b replaces X_b, X_a removed
            for a in range(1, m + 1):
                for b in range(a + 1, m + 1):
                    action = fundamental_action(algebra, block_dicts[a - 1], block_dicts[b - 1])
                    args = [
                        (action if idx == b else block_dicts[idx - 1])
                        for idx in range(1, m + 1)
                        if idx != a
                    ]
                    term = cochain.evaluate(args, unit_j)
                    vec = vec_add(vec, vec_scale(Fraction((-1) ** a), term))
            # bracket into the plain slot
            for a in range(1, m + 1):
                args = [block_dicts[idx - 1] for idx in range(1, m + 1) if idx != a]
                moved = naive_ad(algebra, block_dicts[a - 1]).apply(unit_j)
                term = cochain.evaluate(args, moved)
                vec = vec_add(vec, vec_scale(Fraction((-1) ** a), term))
            # representation acting on the value
            for a in range(1, m + 1):
                args = [block_dicts[idx - 1] for idx in range(1, m + 1) if idx != a]
                term = naive_matrix_for_wedge(rho, block_dicts[a - 1]).apply(cochain.evaluate(args, unit_j))
                vec = vec_add(vec, vec_scale(Fraction((-1) ** (a + 1)), term))
            # last-block terms
            last = blocks[m - 1]
            head = [wedge_single(blk, d) for blk in blocks[:m - 1]]
            for i in range(1, n):
                prefix = last[:i - 1] + last[i:]
                mat = rho.matrix_for_tuple(prefix + (j,))
                unit_i = vec_zero(d)
                unit_i[last[i - 1] - 1] = Fraction(1)
                term = mat.apply(cochain.evaluate(head, unit_i))
                vec = vec_add(vec, vec_scale(Fraction((-1) ** (n + m - i + 1)), term))
            out.extend(vec)
    return Cochain(n, d, dv, m + 1, out)


def naive_reynolds_representation(algebra, op):
    """rho_R with R applied n times per column to brackets of dense
    vectors; the reference for the rho_R that ``cohomology.reynolds_tables``
    reads off grades 0 and 1 of the graded wedges of R's images."""
    n, d = algebra.arity, algebra.dim
    tables = {}
    for tup in increasing_tuples(d, n - 1):
        units = algebra.units(tup)
        r_units = [op.apply(u) for u in units]
        cols = []
        for j in range(1, d + 1):
            x = vec_zero(d)
            x[j - 1] = Fraction(1)
            val = algebra.bracket(r_units + [x])
            val = vec_add(val, op.apply(val))
            for i in range(n - 1):
                args = list(r_units)
                args[i] = units[i]
                val = [a - b for a, b in zip(val, op.apply(algebra.bracket(args + [x])))]
            cols.append(val)
        mat = Matrix([[cols[j][i] for j in range(d)] for i in range(d)])
        if not mat.is_zero():
            tables[tup] = mat
    return RepresentationTable(n, d, d, tables)


def naive_delta_r_cochain(algebra, op, x_wedge):
    """delta_R(X) as a degree-1 cochain, through the dense operator."""
    return Cochain.from_operator(algebra.arity, delta_r_operator(algebra, op, x_wedge))


def naive_delta_matrix(algebra, op):
    """delta_R: C^0 -> C^1 column by column from ``naive_delta_r_cochain``;
    the reference for ``ReynoldsComplex.differential_matrix(0)``."""
    d = algebra.dim
    cols = [naive_delta_r_cochain(algebra, op, wedge_single(tup, d)).data
            for tup in increasing_tuples(d, algebra.arity - 1)]
    return Matrix([list(row) for row in zip(*cols)])


def naive_t_linear_check(algebra, op, direction):
    """The first-order condition with every bracket formed where it is
    used; the reference for ``deformation._t_linear_check``."""
    n, d = algebra.arity, algebra.dim
    for tup in algebra.basis_tuples():
        units = algebra.units(tup)
        r_units = [op.apply(u) for u in units]
        s_units = [direction.apply(u) for u in units]
        lhs = vec_zero(d)
        for i in range(n):
            args = list(r_units)
            args[i] = s_units[i]
            lhs = vec_add(lhs, algebra.bracket(args))
        rhs = vec_zero(d)
        for i in range(n):
            args = list(r_units)
            args[i] = units[i]
            rhs = vec_add(rhs, direction.apply(algebra.bracket(args)))
        rhs = vec_sub(rhs, direction.apply(algebra.bracket(r_units)))
        for i in range(n):
            args = list(r_units)
            args[i] = s_units[i]
            rhs = vec_sub(rhs, op.apply(algebra.bracket(args)))
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                args = list(r_units)
                args[i] = units[i]
                args[j] = s_units[j]
                rhs = vec_add(rhs, op.apply(algebra.bracket(args)))
        if lhs != rhs:
            return fail("deformation-cocycle", {"tuple": tup}, lhs, rhs)
    return ok("deformation-cocycle")


def check_complex(algebra, rho, degree, sample_cochains):
    """d(d f) == 0 for the supplied cochains."""
    for f in sample_cochains:
        twice = coboundary(algebra, rho, coboundary(algebra, rho, f))
        if not twice.is_zero():
            return fail("complex-square-zero", {"degree": degree}, list(twice.data), [QQ_ZERO] * len(twice.data))
    return ok("complex-square-zero")


def naive_solve(self, b):
    """The former ``Matrix.solve`` body, dense Fraction Gauss-Jordan; the
    reference for the elimination kernel behind ``Matrix.solve``."""
    self._require_rational("solve")
    if len(b) != self.rows:
        raise InputError(f"rhs length {len(b)} != {self.rows} rows")
    if any(isinstance(x, Dual) for x in b):
        raise UnsupportedRingError("solve is only defined over the rationals")
    m = [[Fraction(a) for a in row] + [Fraction(bv)] for row, bv in zip(self.entries, b)]
    nr, nc = self.rows, self.cols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * p for a, p in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if m[i][nc]:
            return None
    x = [QQ_ZERO] * nc
    for row_idx, c in enumerate(pivots):
        x[c] = rational(m[row_idx][nc])
    return x


def naive_inverse(self):
    """The former ``Matrix.inverse`` body, dense Fraction Gauss-Jordan; the
    reference for the elimination kernel behind ``Matrix.inverse``."""
    self._require_rational("inverse")
    if self.rows != self.cols:
        raise InputError("inverse of non-square matrix")
    n = self.rows
    m = [[Fraction(a) for a in row] + [QQ_ONE if i == j else QQ_ZERO for j in range(n)]
         for i, row in enumerate(self.entries)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise NotInvertibleError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = Fraction(1) / m[c][c]
        m[c] = [a * inv for a in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * p for a, p in zip(m[i], m[c])]
    return Matrix([[rational(a) for a in row[n:]] for row in m])


def naive_is_trivial_deformation(algebra, op, direction):
    """Triviality with the cocycle test re-run on both directions of the
    witness pair; the reference for ``deformation.is_trivial_deformation``."""
    res = is_infinitesimal_deformation(algebra, op, direction)
    if not res:
        raise PreconditionError("direction is not a cocycle", res.counterexample)
    d = algebra.dim
    basis = increasing_tuples(d, algebra.arity - 1)
    cols = []
    for tup in basis:
        delta = delta_r_operator(algebra, op, {tup: Fraction(1)})
        cols.append([delta.entries[i][j] for i in range(d) for j in range(d)])
    target = [direction.entries[i][j] for i in range(d) for j in range(d)]
    system = Matrix([[cols[c][r] for c in range(len(basis))] for r in range(d * d)])
    solution = naive_solve(system, target)
    if solution is None:
        return TrivialityResult("nontrivial")
    witness = {tup: c for tup, c in zip(basis, solution) if c}
    # on an n-Lie algebra the pair of a solved witness holds by the theorem
    verdict = check_equivalence_witness(
        algebra, op, direction, Matrix.zero(d), witness
    )
    assert verdict, verdict.counterexample
    return TrivialityResult("trivial", witness=witness)


def report_bytes(result):
    """A check result as the JSON report prints it."""
    return Report([], [result]).to_json()


def simple_n_lie(n):
    """The simple n-Lie algebra A_{n+1}: [e_1..^e_i..e_{n+1}] = (-1)^(n+1+i) e_i."""
    d = n + 1
    return NAryAlgebra(n, d, {
        tuple(k for k in range(1, d + 1) if k != i): [(-1) ** (d + i) if k == i else 0 for k in range(1, d + 1)]
        for i in range(1, d + 1)
    })


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

# -- the document parser, element by element: the oracle of documents.parse_document


def _naive_err(pointer, message):
    return InputError(f"{message} (at {pointer})")


def _naive_as_rational(value, pointer):
    if isinstance(value, bool):
        raise _naive_err(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return rational(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except InputError as exc:
            raise _naive_err(pointer, str(exc))
    raise _naive_err(pointer, f"expected a rational string or integer, got {type(value).__name__}")


def _naive_as_vector(value, dim, pointer):
    if not isinstance(value, list) or len(value) != dim:
        raise _naive_err(pointer, f"expected a list of {dim} rationals")
    return [_naive_as_rational(v, f"{pointer}/{i}") for i, v in enumerate(value)]


def _naive_as_matrix(value, dim, pointer):
    if not isinstance(value, list) or len(value) != dim:
        raise _naive_err(pointer, f"expected {dim} rows")
    return Matrix([_naive_as_vector(row, dim, f"{pointer}/{i}") for i, row in enumerate(value)])


def _naive_as_int(value, pointer, what, low, high=None):
    """``value`` if it is an integer in low..high (or >= low when ``high`` is None)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise _naive_err(pointer, f"{what} must be an integer " + bounds)
    return value


def _naive_int_field(doc, key, low, default=None):
    return _naive_as_int(doc.get(key, default), f"/{key}", key, low)


def _naive_as_index_tuple(value, length, dim, pointer, strict=True):
    """Basis indices in 1..dim, strictly increasing, or non-decreasing unless ``strict``."""
    if not isinstance(value, list) or len(value) != length:
        raise _naive_err(pointer, f"expected a list of {length} basis indices")
    for i, v in enumerate(value):
        _naive_as_int(v, f"{pointer}/{i}", "basis index", 1, dim)
    if any(a > b or (strict and a == b) for a, b in zip(value, value[1:])):
        raise _naive_err(pointer, f"indices must be {'strictly increasing' if strict else 'non-decreasing'}")
    return tuple(value)


def _naive_as_basis(doc, dim):
    names = doc.get("basis")
    if names is not None:
        if not isinstance(names, list) or len(names) != dim or not all(isinstance(s, str) for s in names):
            raise _naive_err("/basis", f"basis must be a list of {dim} names")
    return names


def _naive_table(doc, name, fields, read, merge=None):
    """{key: value} of the entries of the list ``doc[name]``, objects with
    ``fields``, each read by ``read(entry, pointer)`` into (key, value).  A
    repeated key is an error, unless ``merge`` combines the two values."""
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise _naive_err(f"/{name}", f"expected a list of objects with {fields}")
    table = {}
    for i, entry in enumerate(entries):
        pointer = f"/{name}/{i}"
        if not isinstance(entry, dict):
            raise _naive_err(pointer, f"expected an object with {fields}")
        key, value = read(entry, pointer)
        if key in table and merge is None:
            raise _naive_err(pointer, f"duplicate entry {key}")
        table[key] = merge(table[key], value) if key in table else value
    return table


def _naive_parse_algebra(doc):
    dim = _naive_int_field(doc, "dim", 1)
    arity = _naive_int_field(doc, "arity", 2, default=2)
    symmetry = doc.get("symmetry", ALTERNATING)
    if symmetry not in (ALTERNATING, SYMMETRIC):
        raise _naive_err("/symmetry", f"unknown symmetry {symmetry!r}")
    names, strict = _naive_as_basis(doc, dim), symmetry == ALTERNATING
    brackets = _naive_table(doc, "brackets", "'on' and 'value'", lambda entry, at: (
        _naive_as_index_tuple(entry.get("on"), arity, dim, f"{at}/on", strict),
        _naive_as_vector(entry.get("value"), dim, f"{at}/value")))
    return NAryAlgebra(arity, dim, brackets, basis_names=names, symmetry=symmetry)


def _naive_parse_operator(doc):
    dim = _naive_int_field(doc, "dim", 1)
    return _naive_as_matrix(doc.get("matrix"), dim, "/matrix")


def _naive_parse_functional(doc):
    dim = _naive_int_field(doc, "dim", 1)
    return LinearFunctional(_naive_as_vector(doc.get("coefficients"), dim, "/coefficients"))


def _naive_parse_ns(doc):
    dim = _naive_int_field(doc, "dim", 1)
    arity = _naive_int_field(doc, "arity", 2, default=2)
    names = _naive_as_basis(doc, dim)
    curly = _naive_table(doc, "curly", "'wedge', 'last' and 'value'", lambda entry, at: (
        (_naive_as_index_tuple(entry.get("wedge"), arity - 1, dim, f"{at}/wedge"),
         _naive_as_int(entry.get("last"), f"{at}/last", "last index", 1, dim)),
        _naive_as_vector(entry.get("value"), dim, f"{at}/value")))
    square = _naive_table(doc, "square", "'on' and 'value'", lambda entry, at: (
        _naive_as_index_tuple(entry.get("on"), arity, dim, f"{at}/on"),
        _naive_as_vector(entry.get("value"), dim, f"{at}/value")))
    return NSAlgebra(arity, dim, curly, square, basis_names=names)


def _naive_parse_representation(doc):
    arity = _naive_int_field(doc, "arity", 2, default=2)
    algebra_dim = _naive_int_field(doc, "algebra_dim", 1)
    module_dim = _naive_int_field(doc, "module_dim", 1)
    tables = _naive_table(doc, "tables", "'on' and 'matrix'", lambda entry, at: (
        _naive_as_index_tuple(entry.get("on"), arity - 1, algebra_dim, f"{at}/on"),
        _naive_as_matrix(entry.get("matrix"), module_dim, f"{at}/matrix")))
    return RepresentationTable(arity, algebra_dim, module_dim, tables)


def _naive_parse_wedge(doc):
    """(arity, dim, terms) of a wedge element: repeated terms add up, zero coefficients drop."""
    dim = _naive_int_field(doc, "dim", 1)
    arity = _naive_int_field(doc, "arity", 2, default=2)
    terms = _naive_table(doc, "terms", "'on' and 'coeff'", lambda entry, at: (
        _naive_as_index_tuple(entry.get("on"), arity - 1, dim, f"{at}/on"),
        _naive_as_rational(entry.get("coeff"), f"{at}/coeff")), merge=lambda a, b: a + b)
    return arity, dim, {k: v for k, v in terms.items() if v}


_naive_PARSERS = {
    "n_lie_algebra": _naive_parse_algebra,
    "linear_operator": _naive_parse_operator,
    "functional": _naive_parse_functional,
    "ns_algebra": _naive_parse_ns,
    "representation": _naive_parse_representation,
    "wedge_element": _naive_parse_wedge,
}


_NAIVE_KINDS = tuple(_naive_PARSERS)


def naive_parse_document(text, expect=None):
    """``documents.parse_document`` as it read a document entry by entry, every
    scalar through ``parse_rational`` and every pointer spelled as it goes;
    the additions are the digit-limit and nesting-depth errors of ``json.loads``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
    except ValueError:
        raise over_digit_limit() from None
    except RecursionError:
        raise InputError("malformed JSON: the document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _naive_PARSERS:
        raise InputError(f"unknown document kind {kind!r}; expected one of {', '.join(_NAIVE_KINDS)}")
    if expect is not None and kind != expect:
        raise InputError(f"expected a {expect!r} document, got {kind!r}")
    return _naive_PARSERS[kind](doc)
