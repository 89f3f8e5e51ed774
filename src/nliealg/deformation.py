"""First-order deformations of a Reynolds operator.

A direction S deforms R to R + tS with t^2 = 0.  The cocycle condition
is checked twice, by independent routes: once through the explicit
t-linear identity, read in integers off the graded-wedge walk that the
Reynolds check reads, and once by the Reynolds verifier re-run over the
dual numbers with the operator R + eps*S, which expands its brackets.
The two verdicts must agree; a mismatch is a bug, not a result.  R and S
must be rational: over the dual numbers R's own eps would be taken for t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ALTERNATING, ad, bug_trap, contracted, divided, graded_wedges, integer_brackets
from .cohomology import Cochain, delta_r_operator, integer_delta
from .errors import InternalConsistencyError
from .linalg import Matrix, combine
from .reynolds import check_hom_pair, check_reynolds, reynolds_values
from .rings import EPS
from .verdict import fail, jsonable, ok, require, spelled
from .wedge import increasing_tuples


def _t_linear_check(algebra, op, direction):
    """The explicit first-order condition on all canonical basis tuples:

    sum_i [..S x_i..] = S [x_1..x_n]_R - sum_i R [..S x_i..]
                        + sum_{i != j} R [..x_i..S x_j..]

    with R x_k in every slot not shown, and [x_1..x_n]_R read off the walk
    that verifies R.  With D the lcm of the denominators of the brackets, R
    and S, B' = D[.], R' = D R and S' = D S, a pick of the wedge of the slots
    R'e_j + t S'e_j + t^n D e_j with k slots on S and m on x lands at grade
    k + m n, so B' of grade 1 is D^(n+1) times the sum on the left and B' of
    grade n + 1 D^(n+1) times the double sum: each tuple is one comparison
    in integers, and only a failing one divides its sides by D^(n+2)."""
    for matrix in (op, direction):
        matrix._require_rational("the first-order deformation check")
    verdict, values, (walk_scale, _, _) = reynolds_values(algebra, op, True)
    require(verdict, "base operator is not a Reynolds operator")
    n, d = algebra.arity, algebra.dim
    scale, brackets, r_cols, s_cols = integer_brackets(algebra, op, direction)
    lift = (scale // walk_scale) ** (n + 1)  # values hold walk_scale^(n+1) [x]_R
    slots = [(r, s, *[()] * (n - 2), [(k, scale)]) for k, (r, s) in enumerate(zip(r_cols, s_cols))]
    for tup, wedge in graded_wedges(slots, n, n + 1, algebra.symmetry == ALTERNATING):
        moved, mixed = contracted(brackets, wedge[1], d), contracted(brackets, wedge[n + 1], d)
        # S'(D^(n+1) [x]_R) + R'(B'(c_(n+1)) - B'(c_1)): one combine over the columns of S' and R'
        rhs = combine([lift * c for c in values[tup][1]] + [b - a for a, b in zip(moved, mixed)], s_cols + r_cols, d)
        if any(scale * a != b for a, b in zip(moved, rhs)):
            return fail("deformation-cocycle", {"tuple": tup}, divided(moved, scale ** (n + 1)),
                        divided(rhs, scale ** (n + 2)))
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
    """Outcome of the triviality decision: status 'trivial', with its
    witness as a wedge coefficient dict, or 'nontrivial'."""

    status: str
    witness: dict | None = None


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
    if not verdict:
        # ad_X is a derivation of an n-Lie algebra and S = delta_R(X), so the pair holds there
        bug_trap(algebra, "the triviality decision", f"the homomorphism pair of the solved witness "
                 f"X = {spelled(witness)} fails: {jsonable(verdict.counterexample)}")
    return TrivialityResult("trivial", witness=witness)
