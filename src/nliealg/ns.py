"""Two-bracket structures: a curly bracket skew in its first n-1 slots,
a fully alternating square bracket, and the three compatibility axioms.

The angle bracket combines the two into a single alternating n-bracket;
for structures passing the axioms it satisfies the Filippov identity
(the sub-adjacent algebra), and the curly bracket acts on it.
"""

from __future__ import annotations

from .algebra import (
    NAryAlgebra,
    RepresentationTable,
    algebra_from_bracket_function,
    check_filippov,
    check_representation,
    expand,
    expand_supports,
    support,
    term_table,
    unit_supports,
)
from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import Matrix, vec_add, vec_is_zero, vec_scale, vec_sub, vec_zero
from .nijenhuis import check_nijenhuis, deformed_bracket_ladder
from .reynolds import check_reynolds
from .rings import rational, sign
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
            check_indices(prefix + (j,), dim)
            vec = [rational(v) for v in vec]
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
        return expand_supports(self._terms, unit_supports(indices), self.dim, self.arity - 1)

    def curly(self, args):
        """Multilinear curly bracket on arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        return expand(self._terms, args, self.dim, self.arity - 1)

    def curly_supports(self, supports):
        """``curly`` of arguments given by their supports."""
        if len(supports) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(supports)}")
        return expand_supports(self._terms, supports, self.dim, self.arity - 1)

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
        out = vec_add(out, vec_scale(sign(n - 1 - i), ns.curly(rest + [args[i]])))
    return out


def angle_on_basis(ns, tup):
    return angle_bracket(ns, ns.units(tup))


def _angle_algebra(ns):
    """The angle bracket tabulated on increasing n-tuples.

    The angle bracket is alternating by construction, whether or not the
    axioms hold, so this table equals ``angle_bracket`` on every input.
    """
    return algebra_from_bracket_function(
        ns.arity, ns.dim, lambda tup: angle_on_basis(ns, tup), basis_names=ns.basis_names
    )


def check_ns(ns):
    """All three compatibility axioms on basis tuples.

    Each basis curly value, angle value and square value is computed once;
    the loops compare the same vectors, in the same order, as the plain
    expansion of each axiom.
    """
    return _check_ns(ns, _angle_algebra(ns))


def _check_ns(ns, angle):
    """``check_ns`` with the angle bracket already tabulated."""
    n, d = ns.arity, ns.dim
    xs_range = increasing_tuples(d, n - 1)
    ys_range = increasing_tuples(d, n)
    basis = range(1, d + 1)
    curly, square = ns.curly_supports, ns.square.bracket_supports
    # arguments go in as supports: basis vectors as one-term supports, and
    # each tabulated value scanned once
    curly_x = {(xs, j): support(ns.curly_on_basis(xs, j)) for xs in xs_range for j in basis}
    angle_x = {xs: [support(angle.bracket_on_basis(xs + (y,))) for y in basis] for xs in xs_range}
    # axiom 1: iterated curly brackets
    for xs in xs_range:
        x_units = unit_supports(xs)
        for ys in xs_range:
            y_units = unit_supports(ys)
            moved = [angle_x[xs][y - 1] for y in ys]
            for yn in basis:
                last = unit_supports((yn,))[0]
                lhs = curly(x_units + [curly_x[ys, yn]])
                rhs = curly(y_units + [curly_x[xs, yn]])
                for j in range(n - 1):
                    mixed = list(y_units)
                    mixed[j] = moved[j]
                    rhs = vec_add(rhs, curly(mixed + [last]))
                if lhs != rhs:
                    return fail("ns-axiom-1", {"x": xs, "y": ys, "last": yn}, lhs, rhs)
    # axiom 2: angle bracket in the first curly slot
    angle_y = {ys: support(angle.bracket_on_basis(ys)) for ys in ys_range}
    first = {(y, xs): support(ns.curly_on_basis((y,) + xs[:-1], xs[-1])) for y in basis for xs in xs_range}
    for ys in ys_range:
        y_units = unit_supports(ys)
        for xs in xs_range:
            x_units = unit_supports(xs)
            lhs = curly([angle_y[ys]] + x_units)
            rhs = vec_zero(d)
            for j in range(n):
                rest = y_units[:j] + y_units[j + 1:]
                rhs = vec_add(rhs, vec_scale(sign(n - 1 - j), curly(rest + [first[ys[j], xs]])))
            if lhs != rhs:
                return fail("ns-axiom-2", {"x": xs, "y": ys}, lhs, rhs)
    # axiom 3: square bracket against the angle bracket
    square_y = {ys: support(ns.square.bracket_on_basis(ys)) for ys in ys_range}
    square_x = {xs: [support(ns.square.bracket_on_basis(xs + (y,))) for y in basis] for xs in xs_range}
    for xs in xs_range:
        x_units = unit_supports(xs)
        for ys in ys_range:
            y_units = unit_supports(ys)
            lhs = square(x_units + [angle_y[ys]])
            rhs = vec_sub(vec_zero(d), curly(x_units + [square_y[ys]]))
            for j in range(n):
                rest = y_units[:j] + y_units[j + 1:]
                flip = sign(n - 1 - j)
                rhs = vec_add(rhs, vec_scale(flip, square(rest + [angle_x[xs][ys[j] - 1]])))
                rhs = vec_add(rhs, vec_scale(flip, curly(rest + [square_x[xs][ys[j] - 1]])))
            if lhs != rhs:
                return fail("ns-axiom-3", {"x": xs, "y": ys}, lhs, rhs)
    return ok("ns-axioms")


def subadjacent(ns):
    """The algebra carried by the angle bracket, with the curly action on it."""
    algebra = _angle_algebra(ns)
    pre = _check_ns(ns, algebra)
    if not pre:
        raise PreconditionError("axioms fail", pre.counterexample)
    n, d = ns.arity, ns.dim
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
