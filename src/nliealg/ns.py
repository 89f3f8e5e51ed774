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

from .algebra import (
    NAryAlgebra,
    RepresentationTable,
    _commutator_failure,
    _holds,
    _unscaled,
    ad_columns,
    algebra_from_bracket_function,
    bug_trap,
    check_filippov,
    check_representation,
    expand,
    extensions,
    hatted,
    operator_ad,
    support,
    tabulated_products,
    term_table,
)
from .errors import InputError, InternalConsistencyError
from .linalg import Matrix, integer_scale, vec_add, vec_is_zero, vec_scale, vec_zero
from .nijenhuis import verified_ladder
from .reynolds import verified_values
from .rings import exact_scalars, sign
from .verdict import fail, jsonable, ok, require
from .wedge import canonical, increasing_tuples, key_rule


class NSAlgebra:
    """A curly bracket (wedge prefix of n-1 slots, one plain slot) and an
    alternating square bracket on the same space."""

    def __init__(self, arity, dim, curly, square, basis_names=None):
        self.square = NAryAlgebra(arity, dim, square, basis_names=basis_names)
        self.arity = arity
        self.dim = dim
        self.basis_names = self.square.basis_names
        clean = {}
        for key, vec in curly.items():  # the last index is a key of length 1
            if not (type(key) is tuple and len(key) == 2 and canonical(key[0], arity - 1, dim)
                    and canonical(key[1:], 1, dim)):
                raise InputError(f"curly key {key!r} is not (prefix, last): {key_rule(arity - 1, dim)}, "
                                 f"and an int in 1..{dim}")
            vec = exact_scalars(vec)
            if len(vec) != dim:
                raise InputError(f"curly value for {key} has length != dim {dim}")
            if not vec_is_zero(vec):
                clean[key] = vec
        self.curly_table = clean
        self._terms = term_table({prefix + (j,): vec for (prefix, j), vec in clean.items()})

    def curly(self, args):
        """Multilinear curly bracket on arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        return expand(self._terms, args, self.dim, self.arity - 1)

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
    """All three compatibility axioms on basis tuples, as identities between
    tabulated integer operators, like the checkers of ``algebra``.

    For each increasing (n-1)-tuple I, C_I e_j = {e_I, e_j}, S_I e_j =
    [e_I, e_j] and A_I e_j = <e_I, e_j>, scaled by D, the lcm of the
    denominators of the curly and square tables; the axioms are homogeneous
    of degree 2 in (curly, square), and the angle bracket is linear in them.
    Axiom 1, C_x C_y - C_y C_x = C_{x o y} (o the fundamental action of the
    angle bracket), is the commutator kernel, reported by its first failing
    column; axioms 2 and 3 are vector identities per tuple pair.
    """
    return _check_ns(ns, _angle_algebra(ns))


def _check_ns(ns, angle):
    """``check_ns`` with the angle bracket already tabulated."""
    n, d = ns.arity, ns.dim
    xs_range = increasing_tuples(d, n - 1)
    ys_range = increasing_tuples(d, n)
    curly = {prefix + (j,): vec for (prefix, j), vec in ns.curly_table.items()}
    scale, (curly, square, angles) = integer_scale([curly, ns.square.brackets, angle.brackets])
    # supports of the square and angle values on n-tuples, and of the columns
    # of C_I, S_I and A_I, and of F_I: v -> {v, e_I[:-1], e_I[-1]} (axiom 2);
    # F_I e_k reads the prefix I[:-1] + (k,) as ``extensions`` sorts it, with
    # (-1)^(n-2) for moving k from the front past the n-2 indices of I[:-1]
    square_y = {ys: support(square.get(ys, ())) for ys in ys_range}
    angle_y = {ys: support(angles.get(ys, ())) for ys in ys_range}
    c_cols = {xs: [support(curly.get(xs + (j,), ())) for j in range(1, d + 1)] for xs in xs_range}
    s_cols, a_cols = ad_columns(square_y, xs_range, d), ad_columns(angle_y, xs_range, d)
    rests, flip = extensions(d, n - 2), sign(n - 2)
    f_cols = {xs: [[(i, flip * canon[1] * c) for i, c in support(curly.get(canon[0] + xs[-1:], ()))] if canon else []
                   for canon in rests[xs[:-1]]] for xs in xs_range}
    # axiom 1: C_x C_y = C_y C_x + C_{x o y}, the commutator kernel
    flat, product = tabulated_products(c_cols, d)
    failure = _commutator_failure(a_cols, rests, flat, product, d * d)
    if failure:
        xs, ys, lhs, yx, action = failure
        lhs, rhs = _unscaled(lhs, d * d, scale), _unscaled((yx[0] + action[0], yx[1] + action[1]), d * d, scale)
        j = next(j for j in range(d) if lhs[j::d] != rhs[j::d])
        return fail("ns-axiom-1", {"x": xs, "y": ys, "last": j + 1}, lhs[j::d], rhs[j::d])
    hats = hatted(ys_range, True)
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
                return fail("ns-axiom-2", {"x": xs, "y": ys}, _unscaled(lhs, d, scale), _unscaled(rhs, d, scale))
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
                return fail("ns-axiom-3", {"x": xs, "y": ys}, _unscaled(lhs, d, scale), _unscaled(rhs, d, scale))
    return ok("ns-axioms")


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
    # column j of {e_prefix, .} for an increasing prefix: the stored value, else zero
    zero = vec_zero(d)
    rep = RepresentationTable(n, d, d, {
        prefix: Matrix.from_columns([ns.curly_table.get((prefix, j), zero) for j in range(1, d + 1)])
        for prefix in increasing_tuples(d, n - 1)})
    rep_check = check_representation(algebra, rep)
    if not rep_check:
        raise InternalConsistencyError(
            f"axioms passed but the curly action is not a representation: {jsonable(rep_check.counterexample)}"
        )
    return algebra, rep


def ns_from_reynolds(algebra, op):
    """{x_1..x_n} = [Rx_1,...,Rx_{n-1},x_n]; square = -[Rx_1,...,Rx_n]."""
    square = {tup: lhs for tup, (lhs, _) in verified_values(algebra, op).items()}
    return _ns_from_operator(algebra, op, square)


def ns_from_nijenhuis(algebra, op):
    """{x_1..x_n} = [Nx_1,...,Nx_{n-1},x_n]; square = -N(level n-2)."""
    lower = verified_ladder(algebra, op).level(algebra.arity - 2)
    return _ns_from_operator(algebra, op, {tup: op.apply(vec) for tup, vec in lower.brackets.items()})


def _ns_from_operator(algebra, op, square):
    """{x_1..x_n} = [Tx_1,...,Tx_{n-1},x_n], column x_n of ``operator_ad``,
    with minus ``square`` as the square bracket, re-checked against the axioms."""
    algebra.require_alternating("the NS construction")
    n, d = algebra.arity, algebra.dim
    curly = {(prefix, j): col for prefix, cols in operator_ad(algebra, op).items() for j, col in enumerate(cols, 1)}
    square = {tup: [-v for v in vec] for tup, vec in square.items()}
    ns = NSAlgebra(n, d, curly, square, basis_names=algebra.basis_names)
    verdict = check_ns(ns)
    if not verdict:
        bug_trap(algebra, "the NS construction",
                 f"construction from a verified operator fails the axioms: {jsonable(verdict.counterexample)}")
    return ns
