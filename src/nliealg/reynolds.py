"""Reynolds operators on n-Lie algebras.

The defining identity, verified on increasing basis tuples:

    [Rx_1,...,Rx_n] = sum_i (-1)^{n-i} R[Rx_1,...,^Rx_i,...,Rx_n, x_i]
                      - R[Rx_1,...,Rx_n]

All checks run over whichever scalar ring the operator matrix carries, so
the same verifier doubles as the first-order deformation check over the
dual numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import NAryAlgebra, is_derivation, support, unit_supports
from .errors import InputError, NotInvertibleError, PreconditionError
from .linalg import Matrix, vec_add, vec_sub, vec_zero
from .rings import sign
from .verdict import fail, ok, require
from .wedge import increasing_tuples


def induced_value(algebra, units, images, tail=()):
    """([Rx_1,...,Rx_k, t], sum_i [Rx_1,...,x_i,...,Rx_k, t] - [Rx_1,...,Rx_k, t]),
    with every argument given by its support: ``units`` those of x_1..x_k,
    ``images`` those of Rx_1..Rx_k, and ``tail`` those of the fixed
    trailing arguments t, k + len(tail) = n.

    With no tail the second value is the induced bracket [x_1,...,x_n]_R,
    and R of it is the right-hand side of the Reynolds identity: the hatted
    form, with x_i moved back into slot i, absorbs the (-1)^{n-i} sign.
    With the tail x and X = x_1 ^ ... ^ x_{n-1} it gives the representation
    of the Reynolds complex: rho_R(X)x = [RX, x] - R(induced_value(X; x)).
    """
    tail = list(tail)
    top = algebra.bracket_supports(images + tail)
    acc = vec_zero(algebra.dim)
    for i, unit in enumerate(units):
        acc = vec_add(acc, algebra.bracket_supports(images[:i] + [unit] + images[i + 1:] + tail))
    return top, vec_sub(acc, top)


def basis_images(algebra, op):
    """The basis vectors and their images under ``op``, 0-based."""
    units = algebra.units(range(1, algebra.dim + 1))
    return units, [op.apply(u) for u in units]


def reynolds_values(algebra, op):
    """(verdict, values) from one walk over the increasing basis n-tuples:
    ``values`` maps each tuple that holds to ([Rx_1,...,Rx_n], [x_1,...,x_n]_R),
    the left-hand side and the induced value (R of it is the right-hand
    side); the walk stops at the first failing tuple."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    images = [support(v) for v in basis_images(algebra, op)[1]]
    values = {}
    for tup in increasing_tuples(algebra.dim, algebra.arity):
        lhs, value = induced_value(algebra, unit_supports(tup), [images[i - 1] for i in tup])
        rhs = op.apply(value)
        if lhs != rhs:
            return fail("reynolds", {"tuple": tup}, lhs, rhs), values
        values[tup] = lhs, value
    return ok("reynolds"), values


def check_reynolds(algebra, op):
    """Verify the Reynolds identity on all increasing basis n-tuples."""
    return reynolds_values(algebra, op)[0]


def verified_values(algebra, op):
    """``reynolds_values`` of a Reynolds operator, else PreconditionError."""
    verdict, values = reynolds_values(algebra, op)
    require(verdict, "operator is not a Reynolds operator")
    return values


def induced_bracket(algebra, op):
    """The bracket [x_1,...,x_n]_R making R a homomorphism onto the original."""
    brackets = {tup: value for tup, (_, value) in verified_values(algebra, op).items()}
    return NAryAlgebra(algebra.arity, algebra.dim, brackets, basis_names=algebra.basis_names)


def check_hom_pair(algebra, r_from, r_to, phi, psi):
    """(phi, psi) is a homomorphism of Reynolds operators: phi is an algebra
    homomorphism and phi . r_from = r_to . psi."""
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
