"""Arity-raising and determinant constructions.

Covers: promoting an n-Lie algebra to an (n+1)-Lie algebra through a
functional vanishing on brackets, the criterion for a Reynolds operator
to lift along that promotion, Reynolds operators on commutative
associative algebras, and the three determinant 3-Lie brackets built
from derivations.
"""

from __future__ import annotations

from .algebra import (
    SYMMETRIC,
    NAryAlgebra,
    algebra_from_bracket_function,
    is_derivation,
    support,
    unit_supports,
)
from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import vec_add, vec_is_zero, vec_scale, vec_sub, vec_zero
from .reynolds import basis_images, check_reynolds, induced_value, reynolds_values, verified_values
from .rings import rational, sign
from .verdict import fail, jsonable, ok, require
from .wedge import increasing_tuples


class LinearFunctional:
    """A covector, evaluated coordinate-wise on coefficient vectors."""

    def __init__(self, coefficients):
        self.coefficients = [rational(c) for c in coefficients]
        self.dim = len(self.coefficients)

    def __call__(self, vec):
        if len(vec) != self.dim:
            raise InputError(f"vector length {len(vec)} != functional dim {self.dim}")
        total = self.coefficients[0] * vec[0]
        for c, v in zip(self.coefficients[1:], vec[1:]):
            total += c * v
        return total

    def vanishes_on_brackets(self, algebra):
        """f([x_1,...,x_n]) = 0, checked on stored structure constants."""
        for tup in increasing_tuples(algebra.dim, algebra.arity):
            val = self(algebra.bracket_on_basis(tup))
            if val:
                return fail("functional-vanishes", {"tuple": tup}, [val], [0])
        return ok("functional-vanishes")


def comm_assoc_algebra(dim, products, basis_names=None):
    """A commutative product from its non-decreasing pair table."""
    return NAryAlgebra(2, dim, products, basis_names=basis_names, symmetry=SYMMETRIC)


def check_associative(algebra):
    """(xy)z = x(yz) on all basis triples."""
    if algebra.symmetry != SYMMETRIC:
        raise InputError("associativity check expects a symmetric product")
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


def extend_by_functional(algebra, functional):
    """{x_1,...,x_{n+1}} = sum_i (-1)^{i-1} f(x_i) [x_1,...,^x_i,...,x_{n+1}]."""
    extension = _extension(algebra, functional)
    require(functional.vanishes_on_brackets(algebra), "functional does not vanish on brackets")
    return extension


def _extension(algebra, functional):
    """``extend_by_functional`` without the vanishing check."""
    if functional.dim != algebra.dim:
        raise InputError("functional dimension mismatch")
    n, d = algebra.arity, algebra.dim

    def value(tup):
        acc = vec_zero(d)
        for i in range(n + 1):
            c = functional.coefficients[tup[i] - 1]
            if not c:
                continue
            rest = tup[:i] + tup[i + 1:]
            acc = vec_add(acc, vec_scale(sign(i) * c, algebra.bracket_on_basis(rest)))
        return acc

    return algebra_from_bracket_function(n + 1, d, value, basis_names=algebra.basis_names)


def reynolds_lift_criterion(algebra, op, functional):
    """sum_i (-1)^{n+1-i} f(x_i) R[Rx_1,...,^Rx_i,...,Rx_{n+1}] = 0 on basis
    tuples; on PASS the operator is re-verified on the extended algebra."""
    return _lift(algebra, op, functional)[0]


def _lift(algebra, op, functional):
    """(verdict, values, base) of the lift criterion.  ``base`` is the
    operator's Reynolds walk on the n-Lie algebra, as ``verified_values``
    gives it, and the criterion reads each [Rx_1,...,^Rx_i,...,Rx_{n+1}]
    off it.  On PASS ``values`` is the walk on the extended algebra, as
    ``reynolds_values`` gives it; a failing walk there is a bug.  On FAIL
    it is None."""
    base = verified_values(algebra, op)
    require(functional.vanishes_on_brackets(algebra), "functional does not vanish on brackets")
    n, d = algebra.arity, algebra.dim
    for tup in increasing_tuples(d, n + 1):
        acc = vec_zero(d)
        for i in range(n + 1):
            c = functional.coefficients[tup[i] - 1]
            if not c:
                continue
            top = base[tup[:i] + tup[i + 1:]][0]
            acc = vec_add(acc, vec_scale(sign(n - i) * c, op.apply(top)))
        if not vec_is_zero(acc):
            return fail("lift-criterion", {"tuple": tup}, acc, vec_zero(d)), None, base
    lifted, values = reynolds_values(_extension(algebra, functional), op)
    if not lifted:
        raise InternalConsistencyError(
            f"criterion holds but the lifted check fails: {jsonable(lifted.counterexample)}"
        )
    return ok("lift-criterion"), values, base


def corollary_bracket(algebra, op, functional):
    """The (n+1)-ary bracket of a lifted Reynolds operator,
    sum_j (-1)^j (f(Rx_j) [..^x_j..]_R + f(x_j) [..^Rx_j..]) with [.]_R the
    induced bracket of the n-Lie algebra, both read off the operator's
    Reynolds walk; coincides with the induced bracket of the extended
    algebra."""
    verdict, values, base = _lift(algebra, op, functional)
    require(verdict, "lift criterion fails")
    n, d = algebra.arity, algebra.dim
    f_images = [functional(v) for v in basis_images(algebra, op)[1]]

    def value(tup):
        acc = vec_zero(d)
        for j in range(n + 1):
            top, induced = base[tup[:j] + tup[j + 1:]]
            acc = vec_add(acc, vec_scale(sign(j) * f_images[tup[j] - 1], induced))
            acc = vec_add(acc, vec_scale(sign(j) * functional.coefficients[tup[j] - 1], top))
        return acc

    result = algebra_from_bracket_function(n + 1, d, value, basis_names=algebra.basis_names)
    if result != NAryAlgebra(n + 1, d, {tup: induced for tup, (_, induced) in values.items()}):
        raise InternalConsistencyError(
            "double-sum bracket disagrees with the induced bracket of the extension"
        )
    return result


def check_assoc_reynolds(algebra, op):
    """Rx.Ry = R(Rx.y + x.Ry - Rx.Ry) on all basis pairs."""
    if algebra.symmetry != SYMMETRIC:
        raise InputError("expected a commutative product")
    require(check_associative(algebra), "product is not associative")
    images = [support(v) for v in basis_images(algebra, op)[1]]
    for pair in algebra.basis_tuples():
        lhs, value = induced_value(algebra, unit_supports(pair), [images[i - 1] for i in pair])
        rhs = op.apply(value)
        if lhs != rhs:
            return fail("assoc-reynolds", {"pair": pair}, lhs, rhs)
    return ok("assoc-reynolds")


def lie_from_derivation(algebra, deriv):
    """[x,y]_D = D(x).y - D(y).x for a derivation of a commutative product."""
    require(is_derivation(algebra, deriv), "operator is not a derivation")
    d = algebra.dim

    def value(tup):
        x, y = algebra.units(tup)
        return vec_sub(
            algebra.bracket([deriv.apply(x), y]),
            algebra.bracket([deriv.apply(y), x]),
        )

    return algebra_from_bracket_function(2, d, value, basis_names=algebra.basis_names)


def _det_of_rows(algebra, rows):
    """The formal 3x3 determinant of element rows, multiplied in the algebra."""
    acc = vec_zero(algebra.dim)
    for perm, flip in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((2, 1, 0), -1), ((1, 0, 2), -1), ((0, 2, 1), -1),
    ):
        prod = algebra.bracket([rows[0][perm[0]], rows[1][perm[1]]])
        prod = algebra.bracket([prod, rows[2][perm[2]]])
        acc = vec_add(acc, vec_scale(flip, prod))
    return acc


def _require_commuting(pairs):
    for name, a, b in pairs:
        if a @ b != b @ a:
            raise PreconditionError(f"operators {name} do not commute")


def three_lie_from_f_D(algebra, functional, deriv):
    """Determinant bracket with rows (f-values, D-images, elements)."""
    require(is_derivation(algebra, deriv), "operator is not a derivation")
    d = algebra.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            x, y = algebra.units((i, j))
            lhs = functional(algebra.bracket([deriv.apply(x), y]))
            rhs = functional(algebra.bracket([x, deriv.apply(y)]))
            if lhs != rhs:
                raise PreconditionError(
                    f"functional is not balanced against the derivation at pair {(i, j)}"
                )

    def value(tup):
        units = algebra.units(tup)
        return _fd_sum(algebra, [functional(u) for u in units], [deriv.apply(u) for u in units], units)

    return algebra_from_bracket_function(3, d, value, basis_names=algebra.basis_names)


def _fd_sum(algebra, f_vals, d_units, units):
    """sum_i (-1)^i f_i ([Dy_a, y_b] - [Dy_b, y_a]) over the three slots i,
    with a < b the other two: the determinant with rows (f-values,
    D-images, elements)."""
    acc = vec_zero(algebra.dim)
    for i in range(3):
        a, b = [k for k in range(3) if k != i]
        minor = vec_sub(
            algebra.bracket([d_units[a], units[b]]),
            algebra.bracket([d_units[b], units[a]]),
        )
        acc = vec_add(acc, vec_scale(sign(i) * f_vals[i], minor))
    return acc


def three_lie_from_two_derivations(algebra, d1, d2):
    """Determinant bracket with rows (elements, D1-images, D2-images)."""
    for deriv in (d1, d2):
        require(is_derivation(algebra, deriv), "operator is not a derivation")
    _require_commuting([("D1, D2", d1, d2)])

    def value(tup):
        units = algebra.units(tup)
        rows = [units, [d1.apply(u) for u in units], [d2.apply(u) for u in units]]
        return _det_of_rows(algebra, rows)

    return algebra_from_bracket_function(
        3, algebra.dim, value, basis_names=algebra.basis_names
    )


def three_lie_from_three_derivations(algebra, d1, d2, d3):
    """Determinant bracket with rows the images under three derivations."""
    for deriv in (d1, d2, d3):
        require(is_derivation(algebra, deriv), "operator is not a derivation")
    _require_commuting(
        [("D1, D2", d1, d2), ("D1, D3", d1, d3), ("D2, D3", d2, d3)]
    )

    def value(tup):
        units = algebra.units(tup)
        rows = [[d.apply(u) for u in units] for d in (d1, d2, d3)]
        return _det_of_rows(algebra, rows)

    return algebra_from_bracket_function(
        3, algebra.dim, value, basis_names=algebra.basis_names
    )


def det_triple_identity(algebra, op, cols, correction=2):
    """|Rx Ry Rz| = R(|Rx Ry z| + c.p.) - correction * R(|Rx Ry Rz|) for
    column triples over a commutative associative Reynolds algebra.

    The identity that actually follows from the binary Reynolds law has
    correction = 2; see the tests for the failing correction = 1 variant.
    """
    x, y, z = cols
    rx = [op.apply(v) for v in x]
    ry = [op.apply(v) for v in y]
    rz = [op.apply(v) for v in z]
    lhs = _det_of_rows(algebra, _cols_to_rows([rx, ry, rz]))
    cp = _det_of_rows(algebra, _cols_to_rows([rx, ry, z]))
    cp = vec_add(cp, _det_of_rows(algebra, _cols_to_rows([x, ry, rz])))
    cp = vec_add(cp, _det_of_rows(algebra, _cols_to_rows([rx, y, rz])))
    rhs = op.apply(vec_sub(cp, vec_scale(rational(correction), lhs)))
    if lhs != rhs:
        return fail("det-triple-identity", {"correction": correction}, lhs, rhs)
    return ok("det-triple-identity")


def _cols_to_rows(cols):
    return [[cols[c][r] for c in range(3)] for r in range(3)]


def check_reynolds_on_det_3lie(algebra, op, variant, data):
    """Is R Reynolds on the chosen determinant 3-Lie algebra?

    variant 'fd': data = (functional, D); also evaluates the determinant
    criterion with rows (f-values, D(R.)-images, R-images) and reports if
    the criterion and the direct check disagree.
    variant 'dd': data = (D1, D2).  variant 'ddd': data = (D1, D2, D3).
    """
    require(check_assoc_reynolds(algebra, op), "operator fails the binary Reynolds law")
    if variant == "fd":
        functional, deriv = data
        _require_commuting([("R, D", op, deriv)])
        three = three_lie_from_f_D(algebra, functional, deriv)
        d = algebra.dim
        for tup in increasing_tuples(d, 3):
            units = algebra.units(tup)
            r_units = [op.apply(u) for u in units]
            acc = _fd_sum(algebra, [functional(u) for u in units], [deriv.apply(r) for r in r_units], r_units)
            if not vec_is_zero(acc):
                return fail("det3-criterion", {"tuple": tup}, acc, vec_zero(d))
        return check_reynolds(three, op)
    if variant == "dd":
        d1, d2 = data
        _require_commuting([("R, D1", op, d1), ("R, D2", op, d2)])
        return check_reynolds(three_lie_from_two_derivations(algebra, d1, d2), op)
    if variant == "ddd":
        d1, d2, d3 = data
        _require_commuting(
            [("R, D1", op, d1), ("R, D2", op, d2), ("R, D3", op, d3)]
        )
        return check_reynolds(three_lie_from_three_derivations(algebra, d1, d2, d3), op)
    raise InputError(f"unknown variant {variant!r}")
