"""Arity-raising and determinant constructions.

Covers: promoting an n-Lie algebra to an (n+1)-Lie algebra through a
functional vanishing on brackets, the criterion for a Reynolds operator
to lift along that promotion, Reynolds operators on commutative
associative algebras, and the three determinant 3-Lie brackets built
from derivations.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import SYMMETRIC, NAryAlgebra, ad_table, algebra_from_bracket_function, is_derivation
from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import combine, vec_add, vec_is_zero, vec_scale, vec_sub, vec_zero
from .reynolds import basis_images, check_reynolds, reynolds_values, verified_values
from .rings import exact_scalars, sign
from .verdict import fail, jsonable, ok, require, spelled
from .wedge import increasing_tuples


class LinearFunctional:
    """A covector, evaluated coordinate-wise on coefficient vectors."""

    def __init__(self, coefficients):
        self.coefficients = exact_scalars(coefficients)
        self.dim = len(self.coefficients)

    def __call__(self, vec):
        if len(vec) != self.dim:
            raise InputError(f"vector length {len(vec)} != functional dim {self.dim}")
        return sum(c * v for c, v in zip(self.coefficients, vec))

    def require_dim(self, algebra):
        """InputError unless the functional is on the algebra's space: checked
        before any walk, so every route gives the same note."""
        if self.dim != algebra.dim:
            raise InputError("functional dimension mismatch")

    def vanishes_on_brackets(self, algebra):
        """f([x_1,...,x_n]) = 0, checked on the stored structure constants in
        tuple order."""
        for tup, vec in sorted(algebra.brackets.items()):
            val = self(vec)
            if val:
                return fail("functional-vanishes", {"tuple": tup}, [val], [0])
        return ok("functional-vanishes")


def comm_assoc_algebra(dim, products, basis_names=None):
    """A commutative product from its non-decreasing pair table."""
    return NAryAlgebra(2, dim, products, basis_names=basis_names, symmetry=SYMMETRIC)


def check_associative(algebra):
    """(xy)z = x(yz) on all basis triples, both sides read off the d^2 basis
    products of the ``ad_table``: (e_i e_j) e_k and e_i (e_j e_k), one ``combine`` each."""
    algebra.require_symmetric("the associativity check")
    d = algebra.dim
    products = list(ad_table(algebra).values())  # products[i][j]: e_i e_j by its support
    for i, j, k in product(range(d), repeat=3):
        ij, jk = products[i][j], products[j][k]
        lhs = combine([c for _, c in ij], [products[m][k] for m, _ in ij], d)
        rhs = combine([c for _, c in jk], [products[i][m] for m, _ in jk], d)
        if lhs != rhs:
            return fail("associativity", {"triple": (i + 1, j + 1, k + 1)}, lhs, rhs)
    return ok("associativity")


def extend_by_functional(algebra, functional):
    """{x_1,...,x_{n+1}} = sum_i (-1)^{i-1} f(x_i) [x_1,...,^x_i,...,x_{n+1}]."""
    algebra.require_alternating("the functional extension")
    functional.require_dim(algebra)
    extension = _extension(algebra, functional)
    require(functional.vanishes_on_brackets(algebra), "functional does not vanish on brackets")
    return extension


def _extension(algebra, functional):
    """``extend_by_functional`` without the vanishing check."""
    n, d = algebra.arity, algebra.dim

    def value(tup):
        acc = vec_zero(d)
        for i in range(n + 1):
            c, rest = functional.coefficients[tup[i] - 1], tup[:i] + tup[i + 1:]
            if c and rest in algebra.brackets:
                acc = vec_add(acc, vec_scale(sign(i) * c, algebra.brackets[rest]))
        return acc

    return algebra_from_bracket_function(n + 1, d, value, basis_names=algebra.basis_names)


def reynolds_lift_criterion(algebra, op, functional):
    """sum_i (-1)^{n+1-i} f(x_i) R[Rx_1,...,^Rx_i,...,Rx_{n+1}] = 0 on basis
    tuples; on PASS the operator is re-verified on the extended algebra."""
    return _lift(algebra, op, functional)[0]


def _lift(algebra, op, functional):
    """(verdict, values, base) of the lift criterion: on each increasing basis
    (n+1)-tuple, R of sum_i (-1)^{n+1-i} f(x_i) [Rx_1,...,^Rx_i,...,Rx_{n+1}],
    every bracket read off ``base``, the walk ``verified_values`` gives on the
    n-Lie algebra.  On PASS ``values`` is the walk ``reynolds_values`` gives on
    the extended algebra (a failing walk there is a bug); on FAIL it is None."""
    algebra.require_alternating("the functional extension")
    functional.require_dim(algebra)
    base = verified_values(algebra, op)
    require(functional.vanishes_on_brackets(algebra), "functional does not vanish on brackets")
    n, d = algebra.arity, algebra.dim
    for tup in increasing_tuples(d, n + 1):
        acc = vec_zero(d)
        for i in range(n + 1):
            c = functional.coefficients[tup[i] - 1]
            if c:
                acc = vec_add(acc, vec_scale(sign(n - i) * c, base[tup[:i] + tup[i + 1:]][0]))
        acc = op.apply(acc)
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
    for tup, (_, induced) in values.items():
        double = result.brackets.get(tup, vec_zero(d))
        if double != induced:
            raise InternalConsistencyError(
                f"double-sum bracket disagrees with the induced bracket of the extension at tuple {tup}: "
                f"double sum {spelled(double)}, induced {spelled(induced)}"
            )
    return result


def check_assoc_reynolds(algebra, op):
    """Rx.Ry = R(Rx.y + x.Ry - Rx.Ry) on all basis pairs of an associative
    commutative product: its Reynolds identity, walked by ``check_reynolds``."""
    require(check_associative(algebra), "product is not associative")
    verdict = check_reynolds(algebra, op)
    if verdict:
        return ok("assoc-reynolds")
    found = verdict.counterexample
    return fail("assoc-reynolds", {"pair": found["where"]["tuple"]}, found["lhs"], found["rhs"])


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
    """Determinant bracket with rows (f-values, D-images, elements): the
    functional extension of [x,y]_D (``lie_from_derivation``)."""
    functional.require_dim(algebra)
    return _balanced_extension(lie_from_derivation(algebra, deriv), functional)


def _balanced_extension(lie, functional):
    """The functional extension of ``lie`` = [.]_D.  On a commutative product
    f([x,y]_D) = f(D(x).y) - f(x.D(y)), so f vanishes on the brackets of
    [.]_D exactly when it is balanced against D."""
    vanishes = functional.vanishes_on_brackets(lie)
    if not vanishes:
        pair = vanishes.counterexample["where"]["tuple"]
        raise PreconditionError(f"functional is not balanced against the derivation at pair {pair}")
    return _extension(lie, functional)


def three_lie_from_two_derivations(algebra, d1, d2):
    """Determinant bracket with rows (elements, D1-images, D2-images)."""
    return _three_lie_from_derivations(algebra, (d1, d2))


def three_lie_from_three_derivations(algebra, d1, d2, d3):
    """Determinant bracket with rows the images under three derivations."""
    return _three_lie_from_derivations(algebra, (d1, d2, d3))


def _three_lie_from_derivations(algebra, derivs):
    """Determinant bracket with rows the images under two or three pairwise
    commuting derivations D1, D2(, D3), after a row of the elements when
    there are two."""
    for deriv in derivs:
        require(is_derivation(algebra, deriv), "operator is not a derivation")
    _require_commuting([(f"D{i}, D{j}", a, b) for (i, a), (j, b) in combinations(enumerate(derivs, 1), 2)])

    def value(tup):
        units = algebra.units(tup)
        rows = [[deriv.apply(u) for u in units] for deriv in derivs]
        return _det_of_rows(algebra, [units] * (3 - len(derivs)) + rows)

    return algebra_from_bracket_function(3, algebra.dim, value, basis_names=algebra.basis_names)


def three_lie_algebra(algebra, variant, data):
    """The determinant 3-Lie algebra of ``variant`` on ``data``, one entry
    per letter: 'fd' takes (functional, D), 'dd' (D1, D2), 'ddd' (D1, D2, D3)."""
    algebra.require_symmetric("the determinant 3-Lie construction")
    build = {"fd": three_lie_from_f_D, "dd": three_lie_from_two_derivations, "ddd": three_lie_from_three_derivations}
    if variant not in build:
        raise InputError(f"unknown variant {variant!r}")
    if len(data) != len(variant):
        wanted = "a functional and one derivation" if variant == "fd" else f"{len(variant)} derivations"
        raise InputError(f"variant {variant} takes {wanted}")
    return build[variant](algebra, *data)


def check_reynolds_on_det_3lie(algebra, op, variant, data):
    """Is R Reynolds on the chosen determinant 3-Lie algebra?

    variant 'fd': data = (functional, D).  R is Reynolds on [.]_D too (else
    a bug), so its Reynolds defect on the 3-Lie algebra at a triple is minus
    R of the lift sum there: the lift criterion on [.]_D (``_lift``) decides,
    and its first failing triple is returned as a det3-criterion FAIL.
    variant 'dd': data = (D1, D2).  variant 'ddd': data = (D1, D2, D3).
    """
    fd = variant == "fd"
    if fd and len(data) == 2:
        data[0].require_dim(algebra)
    require(check_assoc_reynolds(algebra, op), "operator fails the binary Reynolds law")
    names = ["D"] if fd else ["D1", "D2", "D3"]
    _require_commuting([(f"R, {name}", op, deriv) for name, deriv in zip(names, data[1:] if fd else data)])
    if not fd or len(data) != 2:  # three_lie_algebra refuses fd data of another length
        return check_reynolds(three_lie_algebra(algebra, variant, data), op)
    functional, deriv = data
    lie = lie_from_derivation(algebra, deriv)
    _balanced_extension(lie, functional)
    try:
        verdict = _lift(lie, op, functional)[0]
    except PreconditionError as exc:  # f is balanced, so R is not Reynolds on [.]_D
        raise InternalConsistencyError(f"R is not Reynolds on [.]_D: {jsonable(exc.counterexample)}") from None
    if verdict:  # R passed the Reynolds walk of the 3-Lie algebra itself
        return ok("reynolds")
    found = verdict.counterexample
    return fail("det3-criterion", found["where"], found["lhs"], found["rhs"])
