"""First-order deformations of a Reynolds operator.

A direction S deforms R to R + tS with t^2 = 0.  The cocycle condition
is checked twice, by independent routes: once through the explicit
t-linear identity on basis tuples, and once by re-running the Reynolds
verifier over the dual numbers with the operator R + eps*S.  The two
verdicts must agree; a mismatch is a bug, not a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import ad
from .cohomology import Cochain, delta_r_operator, integer_delta
from .errors import InternalConsistencyError
from .linalg import Matrix, vec_add, vec_sub, vec_zero
from .reynolds import basis_images, check_hom_pair, check_reynolds, reynolds_values
from .rings import EPS
from .verdict import fail, ok, require, spelled
from .wedge import increasing_tuples


def _t_linear_check(algebra, op, direction):
    """The explicit first-order condition on all canonical basis tuples:

    sum_i [..S x_i..] = S [x_1..x_n]_R - sum_i R [..S x_i..]
                        + sum_{i != j} R [..x_i..S x_j..]

    with R x_k in every slot not shown.  Each [..S x_i..] is formed once, and
    [x_1..x_n]_R is read off the walk that verifies R.
    """
    verdict, values = reynolds_values(algebra, op)
    require(verdict, "base operator is not a Reynolds operator")
    n, d = algebra.arity, algebra.dim
    units, r_images = basis_images(algebra, op)
    s_images = [direction.apply(u) for u in units]
    for tup in algebra.basis_tuples():
        xs = [units[i - 1] for i in tup]
        r_units = [r_images[i - 1] for i in tup]
        s_units = [s_images[i - 1] for i in tup]
        moved = []
        for i in range(n):
            args = list(r_units)
            args[i] = s_units[i]
            moved.append(algebra.bracket(args))
        lhs = vec_zero(d)
        for v in moved:
            lhs = vec_add(lhs, v)
        rhs = direction.apply(values[tup][1])
        for v in moved:
            rhs = vec_sub(rhs, op.apply(v))
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                args = list(r_units)
                args[i] = xs[i]
                args[j] = s_units[j]
                rhs = vec_add(rhs, op.apply(algebra.bracket(args)))
        if lhs != rhs:
            return fail("deformation-cocycle", {"tuple": tup}, lhs, rhs)
    return ok("deformation-cocycle")


def is_infinitesimal_deformation(algebra, op, direction):
    """Does R + tS stay Reynolds to first order?  Verified by two routes."""
    algebra.require_operator(direction, "direction")
    direct = _t_linear_check(algebra, op, direction)
    dual_op = op + direction.scale(EPS)
    dual = check_reynolds(algebra, dual_op)
    if bool(direct) != bool(dual):
        raise InternalConsistencyError(
            f"t-linear check and dual-number check disagree on the direction {spelled(direction.entries)}: "
            f"t-linear {_outcome(direct)}, dual-number {_outcome(dual)}"
        )
    return direct


def _outcome(verdict):
    """A verdict for a note: PASS, or FAIL and its tuple."""
    return "PASS" if verdict else f"FAIL at tuple {verdict.counterexample['where']['tuple']}"


def check_equivalence_witness(algebra, op, dir1, dir2, x_wedge):
    """Is (Id + t*ad_X, Id + t*ad_X - t*[X,R]) a homomorphism pair from
    R + t*dir1 to R + t*dir2 over the dual numbers?"""
    for s in (dir1, dir2):
        require(is_infinitesimal_deformation(algebra, op, s), "direction is not a cocycle")
    return _witness_verdict(algebra, op, dir1, dir2, x_wedge)


def _witness_verdict(algebra, op, dir1, dir2, x_wedge):
    """``check_equivalence_witness`` for directions already verified as
    cocycles of a verified Reynolds operator."""
    algebra.require_alternating("the equivalence witness")
    d = algebra.dim
    adx = ad(algebra, x_wedge)
    ident = Matrix.identity(d)
    phi = ident + adx.scale(EPS)
    psi = ident + adx.scale(EPS) - (adx @ op).scale(EPS)
    r1t = op + dir1.scale(EPS)
    r2t = op + dir2.scale(EPS)
    verdict = check_hom_pair(algebra, r1t, r2t, phi, psi)
    if verdict:
        diff, delta = dir1 - dir2, delta_r_operator(algebra, op, x_wedge)
        if diff != delta:
            i, j = next((i, j) for i in range(d) for j in range(d) if diff[i, j] != delta[i, j])
            raise InternalConsistencyError(
                f"homomorphism pair verified for X = {spelled(x_wedge)} but dir1 - dir2 is not the coboundary "
                f"of X: entry ({i + 1}, {j + 1}) of dir1 - dir2 is {spelled(diff[i, j])}, "
                f"of delta_R(X) {spelled(delta[i, j])}"
            )
    return verdict


@dataclass(frozen=True)
class TrivialityResult:
    """Outcome of the triviality decision.  status is 'trivial',
    'nontrivial', or 'unknown'; a witness accompanies 'trivial' as a
    wedge coefficient dict, and 'unknown' carries the diverging verdict."""

    status: str
    witness: dict | None = field(default=None)
    detail: object = field(default=None)


def is_trivial_deformation(algebra, op, direction):
    """Solve direction = delta_R(X) and verify the induced pair."""
    require(is_infinitesimal_deformation(algebra, op, direction), "direction is not a cocycle")
    return _triviality(algebra, op, direction)


def _triviality(algebra, op, direction):
    """``is_trivial_deformation`` for a direction already verified as a
    cocycle of a verified Reynolds operator (as the zero direction is):
    solves (D delta_R) X = D S on the sparse matrix of ``integer_delta``."""
    scale, delta = integer_delta(algebra, op)
    target = Cochain.from_operator(algebra.arity, direction).data
    # every free unknown is 0, so the witness is unique even where ker delta_R != 0
    solution = delta.solve([scale * x for x in target])
    if solution is None:
        return TrivialityResult("nontrivial")
    basis = increasing_tuples(algebra.dim, algebra.arity - 1)
    witness = {tup: c for tup, c in zip(basis, solution) if c}
    verdict = _witness_verdict(algebra, op, direction, Matrix.zero(algebra.dim), witness)
    if verdict:
        return TrivialityResult("trivial", witness=witness)
    return TrivialityResult("unknown", witness=witness, detail=verdict)
