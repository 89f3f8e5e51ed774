"""Two-bracket structures: a curly bracket skew in its first n-1 slots,
a fully alternating square bracket, and the three compatibility axioms.

The angle bracket combines the two into a single alternating n-bracket;
for structures passing the axioms it satisfies the Filippov identity
(the sub-adjacent algebra), and the curly bracket acts on it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    NAryAlgebra,
    RepresentationTable,
    algebra_from_bracket_function,
    check_filippov,
    check_representation,
    expand,
    term_table,
)
from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import Matrix, vec_add, vec_is_zero, vec_scale, vec_sub, vec_zero
from .nijenhuis import check_nijenhuis, deformed_bracket_ladder
from .reynolds import check_reynolds
from .verdict import fail, ok
from .wedge import check_indices, increasing_tuples


class NSAlgebra:
    """A curly bracket (wedge prefix of n-1 slots, one plain slot) and an
    alternating square bracket on the same space."""

    def __init__(self, arity, dim, curly, square, basis_names=None):
        if arity < 2:
            raise InputError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        self.dim = dim
        self.square = NAryAlgebra(arity, dim, square, basis_names=basis_names)
        self.basis_names = self.square.basis_names
        clean = {}
        for (prefix, j), vec in curly.items():
            prefix = tuple(prefix)
            if len(prefix) != arity - 1:
                raise InputError(f"curly prefix {prefix} has length != {arity - 1}")
            if any(a >= b for a, b in zip(prefix, prefix[1:])):
                raise InputError(f"curly prefix {prefix} is not strictly increasing")
            if not 1 <= j <= dim:
                raise InputError(f"curly last index {j} out of range 1..{dim}")
            vec = [Fraction(v) for v in vec]
            if len(vec) != dim:
                raise InputError(f"curly value for ({prefix}, {j}) has length != dim {dim}")
            if not vec_is_zero(vec):
                clean[(prefix, j)] = vec
        self.curly_table = clean
        self._terms = term_table({prefix + (j,): vec for (prefix, j), vec in clean.items()})

    def curly_on_basis(self, prefix, j):
        """{e_{i1},...,e_{i_{n-1}}, e_j}; the prefix may be unordered."""
        indices = tuple(prefix) + (j,)
        check_indices(indices, self.dim)
        return expand(self._terms, self.units(indices), self.dim, self.arity - 1)

    def curly(self, args):
        """Multilinear curly bracket on arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        return expand(self._terms, args, self.dim, self.arity - 1)

    def curly_matrix(self, prefix):
        """The operator x -> {e_prefix, x}."""
        return Matrix(zip(*(self.curly_on_basis(prefix, j) for j in range(1, self.dim + 1))))

    def units(self, indices):
        return self.square.units(indices)


def angle_bracket(ns, args):
    """sum_i (-1)^{n-i} {y_1,...,^y_i,...,y_n, y_i} + [y_1,...,y_n]."""
    n = ns.arity
    out = ns.square.bracket(args)
    for i in range(n):
        rest = args[:i] + args[i + 1:]
        sign = Fraction((-1) ** (n - 1 - i))
        out = vec_add(out, vec_scale(sign, ns.curly(rest + [args[i]])))
    return out


def angle_on_basis(ns, tup):
    return angle_bracket(ns, ns.units(tup))


def check_ns(ns):
    """All three compatibility axioms on basis tuples."""
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
                    mixed[j] = angle_bracket(ns, x_units + [y_units[j]])
                    rhs = vec_add(rhs, ns.curly(mixed + [last]))
                if lhs != rhs:
                    return fail("ns-axiom-1", {"x": xs, "y": ys, "last": yn}, lhs, rhs)
    # axiom 2: angle bracket in the first curly slot
    for ys in increasing_tuples(d, n):
        y_units = ns.units(ys)
        angle = angle_on_basis(ns, ys)
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
            lhs = ns.square.bracket(x_units + [angle_on_basis(ns, ys)])
            rhs = vec_sub(vec_zero(d), ns.curly(x_units + [ns.square.bracket(y_units)]))
            for j in range(n):
                rest = y_units[:j] + y_units[j + 1:]
                sign = Fraction((-1) ** (n - 1 - j))
                rhs = vec_add(
                    rhs,
                    vec_scale(sign, ns.square.bracket(rest + [angle_bracket(ns, x_units + [y_units[j]])])),
                )
                rhs = vec_add(
                    rhs,
                    vec_scale(sign, ns.curly(rest + [ns.square.bracket(x_units + [y_units[j]])])),
                )
            if lhs != rhs:
                return fail("ns-axiom-3", {"x": xs, "y": ys}, lhs, rhs)
    return ok("ns-axioms")


def subadjacent(ns):
    """The algebra carried by the angle bracket, with the curly action on it."""
    pre = check_ns(ns)
    if not pre:
        raise PreconditionError("axioms fail", pre.counterexample)
    n, d = ns.arity, ns.dim
    algebra = algebra_from_bracket_function(
        n, d, lambda tup: angle_on_basis(ns, tup), basis_names=ns.basis_names
    )
    fil = check_filippov(algebra)
    if not fil:
        raise InternalConsistencyError(
            f"axioms passed but the angle bracket is not Filippov: {fil.counterexample}"
        )
    tables = {}
    for tup in increasing_tuples(d, n - 1):
        mat = ns.curly_matrix(tup)
        if not mat.is_zero():
            tables[tup] = mat
    rep = RepresentationTable(n, d, d, tables)
    rep_check = check_representation(algebra, rep)
    if not rep_check:
        raise InternalConsistencyError(
            f"axioms passed but the curly action is not a representation: {rep_check.counterexample}"
        )
    return algebra, rep


def ns_from_reynolds(algebra, op):
    """{x_1..x_n} = [Rx_1,...,Rx_{n-1},x_n]; square = -[Rx_1,...,Rx_n]."""
    pre = check_reynolds(algebra, op)
    if not pre:
        raise PreconditionError("operator is not a Reynolds operator", pre.counterexample)
    n, d = algebra.arity, algebra.dim
    curly = {}
    for prefix in increasing_tuples(d, n - 1):
        r_units = [op.apply(u) for u in algebra.units(prefix)]
        for j in range(1, d + 1):
            vec = algebra.bracket(r_units + algebra.units((j,)))
            if not vec_is_zero(vec):
                curly[(prefix, j)] = vec
    square = {}
    for tup in increasing_tuples(d, n):
        vec = algebra.bracket([op.apply(u) for u in algebra.units(tup)])
        if not vec_is_zero(vec):
            square[tup] = [-v for v in vec]
    ns = NSAlgebra(n, d, curly, square, basis_names=algebra.basis_names)
    verdict = check_ns(ns)
    if not verdict:
        raise InternalConsistencyError(
            f"construction from a verified operator fails the axioms: {verdict.counterexample}"
        )
    return ns


def ns_from_nijenhuis(algebra, op):
    """{x_1..x_n} = [Nx_1,...,Nx_{n-1},x_n]; square = -N(level n-2)."""
    pre = check_nijenhuis(algebra, op)
    if not pre:
        raise PreconditionError("operator is not a Nijenhuis operator", pre.counterexample)
    n, d = algebra.arity, algebra.dim
    ladder = deformed_bracket_ladder(algebra, op)
    lower = ladder.level(n - 2)
    curly = {}
    for prefix in increasing_tuples(d, n - 1):
        n_units = [op.apply(u) for u in algebra.units(prefix)]
        for j in range(1, d + 1):
            vec = algebra.bracket(n_units + algebra.units((j,)))
            if not vec_is_zero(vec):
                curly[(prefix, j)] = vec
    square = {}
    for tup in increasing_tuples(d, n):
        vec = op.apply(lower.bracket_on_basis(tup))
        if not vec_is_zero(vec):
            square[tup] = [-v for v in vec]
    ns = NSAlgebra(n, d, curly, square, basis_names=algebra.basis_names)
    verdict = check_ns(ns)
    if not verdict:
        raise InternalConsistencyError(
            f"construction from a verified operator fails the axioms: {verdict.counterexample}"
        )
    return ns
