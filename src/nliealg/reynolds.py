"""Reynolds operators on n-Lie algebras.

The defining identity, verified on the canonical basis tuples of the
bracket (``NAryAlgebra.basis_tuples``), so on a commutative product too:

    [Rx_1,...,Rx_n] = sum_i (-1)^{n-i} R[Rx_1,...,^Rx_i,...,Rx_n, x_i]
                      - R[Rx_1,...,Rx_n]

A rational operator is checked in integers, in one walk of the graded
wedges of its images (``algebra.graded_wedges``) that also gives [.]_R:
whatever is built from a verified operator, the Reynolds complex too,
reads that walk (``verified_values``).  A dual-number operator R + eps*S
has a walk of its own, each bracket of ``induced_value`` expanded over
the dual numbers: the first-order deformation check that
``deformation._t_linear_check`` is cross-checked against.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    ALTERNATING,
    NAryAlgebra,
    apply_columns,
    contracted,
    divided,
    graded_wedges,
    integer_brackets,
    is_derivation,
    support,
    unit_supports,
)
from .errors import NotInvertibleError, PreconditionError
from .linalg import Matrix, vec_add, vec_sub, vec_zero
from .rings import sign
from .verdict import fail, ok, require


def induced_value(algebra, units, images):
    """([Rx_1,...,Rx_n], [x_1,...,x_n]_R), every argument given by its
    support: ``units`` those of x_1..x_n and ``images`` those of Rx_1..Rx_n.

    The second value is sum_i [Rx_1,...,x_i,...,Rx_n] - [Rx_1,...,Rx_n], and
    R of it is the right-hand side of the Reynolds identity: the hatted
    form, with x_i moved back into slot i, absorbs the (-1)^{n-i} sign.
    """
    top = algebra.bracket_supports(images)
    acc = vec_zero(algebra.dim)
    for i, unit in enumerate(units):
        acc = vec_add(acc, algebra.bracket_supports(images[:i] + [unit] + images[i + 1:]))
    return top, vec_sub(acc, top)


def basis_images(algebra, op):
    """The basis vectors and their images under ``op``, 0-based."""
    units = algebra.units(range(1, algebra.dim + 1))
    return units, [op.apply(u) for u in units]


def reynolds_values(algebra, op, scaled=False):
    """(verdict, values) from one walk over the canonical basis n-tuples:
    ``values`` maps each tuple that holds to ([Rx_1,...,Rx_n], [x_1,...,x_n]_R),
    the left-hand side and the induced value (R of it is the right-hand
    side); the walk stops at the first failing tuple.

    For a rational R, with B' = D[.] and R' = D R, the wedge of the slots
    (R'e_i, D e_i) truncated at t^1 gives c_0 and c_1 with B'(c_0) =
    D^(n+1) [Rx_1..Rx_n] and B'(c_1) - B'(c_0) = D^(n+1) [x_1..x_n]_R, so
    the identity is D B'(c_0) = R'(B'(c_1) - B'(c_0)) in integers.  Only
    what a caller reads is divided back: the values, and the two sides at
    a failing tuple (by D^(n+1) and D^(n+2)).  With ``scaled``, the values
    stay D^(n+1) times theirs in ``int`` and (D, B', columns of R') come
    third, for a caller that tabulates in integers."""
    algebra.require_operator(op)
    if not op.is_rational():
        return _dual_values(algebra, op)
    n, d = algebra.arity, algebra.dim
    scale, brackets, images = integer_brackets(algebra, op)
    top_scale = scale ** (n + 1)
    slots = [(image, [(k, scale)]) for k, image in enumerate(images)]
    keep = (lambda vec: vec) if scaled else (lambda vec: divided(vec, top_scale))
    verdict, values = ok("reynolds"), {}
    for tup, (low, high) in graded_wedges(slots, n, 1, algebra.symmetry == ALTERNATING):
        top = contracted(brackets, low, d)
        value = vec_sub(contracted(brackets, high, d), top)
        rhs = apply_columns(images, support(value), d)
        if any(scale * a != b for a, b in zip(top, rhs)):
            verdict = fail("reynolds", {"tuple": tup}, divided(top, top_scale), divided(rhs, top_scale * scale))
            break
        values[tup] = keep(top), keep(value)
    return (verdict, values, (scale, brackets, images)) if scaled else (verdict, values)


def _dual_values(algebra, op):
    """``reynolds_values`` for a dual-number operator, each bracket of
    ``induced_value`` expanded over the dual numbers."""
    images = [support(v) for v in basis_images(algebra, op)[1]]
    values = {}
    for tup in algebra.basis_tuples():
        lhs, value = induced_value(algebra, unit_supports(tup), [images[i - 1] for i in tup])
        rhs = op.apply(value)
        if lhs != rhs:
            return fail("reynolds", {"tuple": tup}, lhs, rhs), values
        values[tup] = lhs, value
    return ok("reynolds"), values


def check_reynolds(algebra, op):
    """Verify the Reynolds identity on all canonical basis n-tuples."""
    return reynolds_values(algebra, op)[0]


def verified_values(algebra, op):
    """``reynolds_values`` of a Reynolds operator, else PreconditionError."""
    verdict, values = reynolds_values(algebra, op)
    require(verdict, "operator is not a Reynolds operator")
    return values


def induced_bracket(algebra, op):
    """The bracket [x_1,...,x_n]_R making R a homomorphism onto the original,
    with the original's symmetry."""
    brackets = {tup: value for tup, (_, value) in verified_values(algebra, op).items()}
    return NAryAlgebra(algebra.arity, algebra.dim, brackets, basis_names=algebra.basis_names,
                       symmetry=algebra.symmetry)


def check_hom_pair(algebra, r_from, r_to, phi, psi):
    """(phi, psi) is a homomorphism of Reynolds operators: phi is an algebra
    homomorphism and phi . r_from = r_to . psi."""
    for op in (r_from, r_to, phi, psi):
        algebra.require_operator(op)
    left, right = phi @ r_from, r_to @ psi
    if left != right:
        return fail(
            "hom-square",
            {"identity": "phi.R = R'.psi"},
            [a for row in left.entries for a in row],
            [a for row in right.entries for a in row],
        )
    for tup in algebra.basis_tuples():
        lhs = phi.apply(algebra.bracket_on_basis(tup))
        rhs = algebra.bracket([phi.apply(u) for u in algebra.units(tup)])
        if lhs != rhs:
            return fail("hom-bracket", {"tuple": tup}, lhs, rhs)
    return ok("hom-pair")


def reynolds_to_derivation(algebra, op):
    """R^{-1} - Id/(n-1) for an invertible Reynolds operator."""
    require(check_reynolds(algebra, op), "operator is not a Reynolds operator")
    try:
        inv = op.inverse()
    except NotInvertibleError:
        raise NotInvertibleError("Reynolds operator is singular; no derivation correspondence")
    c = Fraction(1, algebra.arity - 1)
    return inv - Matrix.identity(algebra.dim).scale(c)


def derivation_to_reynolds(algebra, deriv):
    """(D + Id/(n-1))^{-1} for a derivation D, when invertible."""
    require(is_derivation(algebra, deriv), "operator is not a derivation")
    c = Fraction(1, algebra.arity - 1)
    p = deriv + Matrix.identity(algebra.dim).scale(c)
    try:
        return p.inverse()
    except NotInvertibleError:
        raise NotInvertibleError("D + Id/(n-1) is singular")


def reynolds_from_nilpotent_derivation(algebra, deriv):
    """Finite series sum_m (-1)^m (n-1)^{m+1} D^m for nilpotent D.

    Equals derivation_to_reynolds(D) exactly; only the nilpotent case is
    supported, where the series terminates.
    """
    require(is_derivation(algebra, deriv), "operator is not a derivation")
    d, n = algebra.dim, algebra.arity
    acc = Matrix.zero(d)
    term = Matrix.identity(d)
    for m in range(d):
        coeff = sign(m) * (n - 1) ** (m + 1)
        acc = acc + term.scale(coeff)
        term = term @ deriv
        if term.is_zero():
            return acc
    raise PreconditionError("derivation is not nilpotent; the series does not terminate")
