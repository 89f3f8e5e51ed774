"""Two-bracket structures: a curly bracket skew in its first n-1 slots,
a fully alternating square bracket, and the three compatibility axioms.

The angle bracket combines the two into a single alternating n-bracket,
read off the stored tables; for structures passing the axioms it
satisfies the Filippov identity (the sub-adjacent algebra), and the
curly bracket acts on it.  The structures induced by a verified Reynolds
or Nijenhuis operator are read off the walk that verified it, and
re-checked against the axioms.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    NAryAlgebra,
    RepresentationTable,
    _action,
    algebra_from_bracket_function,
    check_filippov,
    check_representation,
    expand,
    expand_supports,
    support,
    term_table,
    unit_supports,
)
from .errors import InputError, InternalConsistencyError
from .linalg import Matrix, combine, integer_scale, vec_add, vec_is_zero, vec_scale, vec_zero
from .nijenhuis import verified_ladder
from .reynolds import basis_images, verified_values
from .rings import rational, sign
from .verdict import fail, jsonable, ok, require
from .wedge import canonicalize_wedge, check_indices, increasing_tuples


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

    def curly_matrix(self, prefix):
        """The operator x -> {e_prefix, x}."""
        return Matrix.from_columns(self.curly_on_basis(prefix, j) for j in range(1, self.dim + 1))

    def units(self, indices):
        return self.square.units(indices)


def _angle_algebra(ns):
    """The angle bracket <y_1,...,y_n> = [y_1,...,y_n] +
    sum_i (-1)^{n-1-i} {y_1,...,^y_i,...,y_n, y_i}, tabulated on increasing
    n-tuples.  Every hatted prefix of an increasing tuple is increasing, so
    each term is one lookup in the stored square and curly tables.  The
    angle bracket is alternating by construction, whether or not the
    axioms hold, so the table determines it on every input.
    """
    n, zero = ns.arity, vec_zero(ns.dim)

    def value(ys):
        out = ns.square.brackets.get(ys, zero)
        for i in range(n):
            vec = ns.curly_table.get((ys[:i] + ys[i + 1:], ys[i]))
            if vec is not None:
                out = vec_add(out, vec_scale(sign(n - 1 - i), vec))
        return out

    return algebra_from_bracket_function(n, ns.dim, value, basis_names=ns.basis_names)


def check_ns(ns):
    """All three compatibility axioms on basis tuples, as identities
    between tabulated operators in integer arithmetic.

    For each increasing (n-1)-tuple I the columns C_I e_j = {e_I, e_j},
    S_I e_j = [e_I, e_j] and A_I e_j = <e_I, e_j> are tabulated once, with
    the square and angle values on n-tuples, all multiplied by D, the lcm
    of the denominators of the curly and square tables, so each is an
    ``int``.  The axioms are homogeneous of degree 2 in (curly, square) and
    the angle bracket is linear in them, so each scaled identity is D^2
    times the original: the verdict is the same, and a reported lhs/rhs is
    the scaled one divided by D^2.  Axiom 1 is the d x d matrix identity
    C_x C_y - C_y C_x = C_{x o y} (o the fundamental action of the angle
    bracket), axioms 2 and 3 are vector identities per tuple pair; each is
    one ``combine`` of the difference of its sides.  Tuple pairs go in the
    plain expansion's order, and a failing pair forms its sides apart
    (column by column for axiom 1), so the counterexample is the plain
    expansion's.
    """
    return _check_ns(ns, _angle_algebra(ns))


def _check_ns(ns, angle):
    """``check_ns`` with the angle bracket already tabulated."""
    n, d = ns.arity, ns.dim
    xs_range = increasing_tuples(d, n - 1)
    ys_range = increasing_tuples(d, n)
    curly = {prefix + (j,): vec for (prefix, j), vec in ns.curly_table.items()}
    scale, (curly, square, angles) = integer_scale([curly, ns.square.brackets, angle.brackets])
    d2 = scale * scale
    # supports of the columns of C_I, S_I and A_I, of F_I: v -> {v, e_I[:-1], e_I[-1]}
    # (axiom 2), and of the square and angle values on n-tuples
    c_cols, s_cols, a_cols, f_cols, a_dense = {}, {}, {}, {}, {}
    for xs in xs_range:
        c_cols[xs] = [support(curly.get(xs + (j,), ())) for j in range(1, d + 1)]
        s_cols[xs] = [support(_lookup(square, xs + (j,), (), d)) for j in range(1, d + 1)]
        a_dense[xs] = [_lookup(angles, xs + (j,), (), d) for j in range(1, d + 1)]
        a_cols[xs] = [support(vec) for vec in a_dense[xs]]
        f_cols[xs] = [support(_lookup(curly, (k,) + xs[:-1], xs[-1:], d)) for k in range(1, d + 1)]
    square_y = {ys: support(square.get(ys, ())) for ys in ys_range}
    angle_y = {ys: support(angles.get(ys, ())) for ys in ys_range}
    # axiom 1: C_x C_y = C_y C_x + sum_K w_K C_K with w = x o y.  Entry (i, j)
    # of a d x d matrix sits at j*d + i.  C_x C_y is the sum over the entries
    # c = (C_y)_kj of c times column k of C_x moved to column j.
    flat = {xs: [(j * d + i, c) for j, col in enumerate(c_cols[xs]) for i, c in col] for xs in xs_range}
    shifted = {xs: [[(j * d + i, c) for i, c in col] for j in range(d) for col in c_cols[xs]] for xs in xs_range}
    entries = {xs: [(c, j * d + k) for j, col in enumerate(c_cols[xs]) for k, c in col] for xs in xs_range}

    def product(x, y):
        return [c for c, _ in entries[y]], [shifted[x][at] for _, at in entries[y]]

    def angle_col(xk, y):
        return a_dense[xk][y - 1]

    for xs in xs_range:
        for ys in xs_range:
            action = _action({xs: 1}, {ys: 1}, angle_col, d)
            lhs = product(xs, ys)
            coeffs, rows = product(ys, xs)
            rhs = coeffs + list(action.values()), rows + [flat[key] for key in action]
            if not _holds(lhs, rhs, d * d):
                lhs, rhs = _unscaled(lhs, d * d, d2), _unscaled(rhs, d * d, d2)
                j = next(j for j in range(d) if lhs[j * d:(j + 1) * d] != rhs[j * d:(j + 1) * d])
                where = {"x": xs, "y": ys, "last": j + 1}
                return fail("ns-axiom-1", where, lhs[j * d:(j + 1) * d], rhs[j * d:(j + 1) * d])
    # (y with y_j removed, (-1)^{n-1-j}, 0-based y_j) for each slot j of an n-tuple
    hats = {ys: [(ys[:j] + ys[j + 1:], sign(n - 1 - j), ys[j] - 1) for j in range(n)] for ys in ys_range}
    # axiom 2: F_x <y> = sum_j (-1)^{n-1-j} C_{y^j} F_x e_{y_j}
    for ys in ys_range:
        for xs in xs_range:
            f = f_cols[xs]
            lhs = [a for _, a in angle_y[ys]], [f[k] for k, _ in angle_y[ys]]
            rhs = (
                [s * g for _, s, y in hats[ys] for _, g in f[y]],
                [c_cols[rest][m] for rest, _, y in hats[ys] for m, _ in f[y]],
            )
            if not _holds(lhs, rhs, d):
                return fail("ns-axiom-2", {"x": xs, "y": ys}, _unscaled(lhs, d, d2), _unscaled(rhs, d, d2))
    # axiom 3: S_x <y> = -C_x [y] + sum_j (-1)^{n-1-j} (S_{y^j} A_x e_{y_j} + C_{y^j} S_x e_{y_j})
    for xs in xs_range:
        for ys in ys_range:
            lhs = [a for _, a in angle_y[ys]], [s_cols[xs][k] for k, _ in angle_y[ys]]
            rhs = (
                [-b for _, b in square_y[ys]]
                + [s * a for _, s, y in hats[ys] for _, a in a_cols[xs][y]]
                + [s * b for _, s, y in hats[ys] for _, b in s_cols[xs][y]],
                [c_cols[xs][k] for k, _ in square_y[ys]]
                + [s_cols[rest][m] for rest, _, y in hats[ys] for m, _ in a_cols[xs][y]]
                + [c_cols[rest][m] for rest, _, y in hats[ys] for m, _ in s_cols[xs][y]],
            )
            if not _holds(lhs, rhs, d):
                return fail("ns-axiom-3", {"x": xs, "y": ys}, _unscaled(lhs, d, d2), _unscaled(rhs, d, d2))
    return ok("ns-axioms")


def _lookup(table, head, tail, d):
    """table[sorted(head) + tail] times the sign of sorting ``head``; zero
    when ``head`` repeats an index or the value is absent."""
    canon = canonicalize_wedge(head, d)
    vec = None if canon is None else table.get(canon[0] + tail)
    if vec is None:
        return [0] * d
    return vec if canon[1] > 0 else [-c for c in vec]


def _holds(lhs, rhs, width):
    """Whether two sums of (coefficients, supports) terms agree: one
    ``combine`` of their difference."""
    return not any(combine(lhs[0] + [-c for c in rhs[0]], lhs[1] + rhs[1], width))


def _unscaled(terms, width, d2):
    """A sum of (coefficients, supports) terms, divided by ``d2``."""
    return [rational(Fraction(x, d2)) for x in combine(*terms, width)]


def subadjacent(ns):
    """The algebra carried by the angle bracket, with the curly action on it."""
    algebra = _angle_algebra(ns)
    require(_check_ns(ns, algebra), "axioms fail")
    n, d = ns.arity, ns.dim
    fil = check_filippov(algebra)
    if not fil:
        raise InternalConsistencyError(
            f"axioms passed but the angle bracket is not Filippov: {jsonable(fil.counterexample)}"
        )
    rep = RepresentationTable(n, d, d, {tup: ns.curly_matrix(tup) for tup in increasing_tuples(d, n - 1)})
    rep_check = check_representation(algebra, rep)
    if not rep_check:
        raise InternalConsistencyError(
            f"axioms passed but the curly action is not a representation: {jsonable(rep_check.counterexample)}"
        )
    return algebra, rep


def ns_from_reynolds(algebra, op):
    """{x_1..x_n} = [Rx_1,...,Rx_{n-1},x_n]; square = -[Rx_1,...,Rx_n]."""
    square = {tup: lhs for tup, (lhs, _) in verified_values(algebra, op).items()}
    return _ns_from_operator(algebra, *basis_images(algebra, op), square)


def ns_from_nijenhuis(algebra, op):
    """{x_1..x_n} = [Nx_1,...,Nx_{n-1},x_n]; square = -N(level n-2)."""
    lower = verified_ladder(algebra, op).level(algebra.arity - 2)
    tuples = increasing_tuples(algebra.dim, algebra.arity)
    square = {tup: op.apply(lower.bracket_on_basis(tup)) for tup in tuples}
    return _ns_from_operator(algebra, *basis_images(algebra, op), square)


def _ns_from_operator(algebra, units, images, square):
    """{x_1..x_n} = [Tx_1,...,Tx_{n-1},x_n] from the images T e_j, with
    minus ``square`` as the square bracket, re-checked against the axioms."""
    n, d = algebra.arity, algebra.dim
    curly = {}
    for prefix in increasing_tuples(d, n - 1):
        t_units = [images[i - 1] for i in prefix]
        for j in range(1, d + 1):
            curly[(prefix, j)] = algebra.bracket(t_units + [units[j - 1]])
    square = {tup: [-v for v in vec] for tup, vec in square.items()}
    ns = NSAlgebra(n, d, curly, square, basis_names=algebra.basis_names)
    verdict = check_ns(ns)
    if not verdict:
        raise InternalConsistencyError(
            f"construction from a verified operator fails the axioms: {jsonable(verdict.counterexample)}"
        )
    return ns
