"""Nijenhuis operators and their ladder of deformed brackets.

Level j of the ladder applies N to every j-subset of the arguments and
subtracts N of the previous level; level 0 is the original bracket, so
that level n-2 is meaningful even when n = 2.  One walk over the
canonical basis n-tuples (``NAryAlgebra.basis_tuples``) gives every level
and the verdict of the Nijenhuis identity [Nx_1,...,Nx_n] = N(level n-1);
whatever is built from a verified operator reads that walk.  Per tuple,
the sums over all j-subsets at once are the grades of one graded wedge
of the walk of ``algebra.graded_wedges``, in integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ALTERNATING,
    NAryAlgebra,
    RepresentationTable,
    apply_columns,
    contracted,
    divided,
    graded_wedges,
    integer_brackets,
    operator_ad,
    support,
)
from .errors import InputError
from .linalg import Matrix, vec_sub
from .verdict import fail, ok, require


@dataclass(frozen=True)
class DeformedBracketLadder:
    """Brackets level 0 .. n-1, each stored with the symmetry of level 0."""

    levels: tuple

    def level(self, j):
        if not 0 <= j < len(self.levels):
            raise InputError(f"ladder level {j} out of range 0..{len(self.levels) - 1}")
        return self.levels[j]


def nijenhuis_values(algebra, op):
    """(verdict, ladder) from one walk over the canonical basis n-tuples.

    With B' = D[.] and N' = D N for a rational N, the wedge of
    the slots (e_i, N'e_i) truncated at t^n has c_j = D^j times the sum
    over |S| = j of the wedge with N on the slots of S, so
    L'_j = B'(c_j) - N'L'_(j-1) is D^(j+1) times level j, and the full set
    gives [Nx_1,...,Nx_n], compared with N(level n-1) as B'(c_n) = N'L'_(n-1).
    Only the levels and the sides at a failing tuple are divided back.  The
    ladder is defined for any linear N, so the walk does not stop at a
    failing tuple; the verdict names the first one.
    """
    algebra.require_operator(op)
    op._require_rational("Nijenhuis check")
    n, d = algebra.arity, algebra.dim
    scale, brackets, images = integer_brackets(algebra, op)
    slots = [([(k, 1)], image) for k, image in enumerate(images)]
    tables = [{} for _ in range(n)]
    verdict = ok("nijenhuis")
    for tup, wedge in graded_wedges(slots, n, n, algebra.symmetry == ALTERNATING):
        grades = [contracted(brackets, layer, d) for layer in wedge]
        level = grades[0]
        for j in range(1, n):
            level = vec_sub(grades[j], apply_columns(images, support(level), d))
            tables[j][tup] = divided(level, scale ** (j + 1))
        if verdict:
            below = apply_columns(images, support(level), d)
            if grades[n] != below:
                verdict = fail("nijenhuis", {"tuple": tup}, divided(grades[n], scale ** (n + 1)),
                               divided(below, scale ** (n + 1)))
    levels = [algebra] + [NAryAlgebra(n, d, table, algebra.basis_names, algebra.symmetry) for table in tables[1:]]
    return verdict, DeformedBracketLadder(tuple(levels))


def deformed_bracket_ladder(algebra, op):
    """Levels 0..n-1 of the deformed bracket for any linear N."""
    return nijenhuis_values(algebra, op)[1]


def check_nijenhuis(algebra, op):
    """[Nx_1,...,Nx_n] = N([x_1,...,x_n] at ladder level n-1), basis-wise."""
    return nijenhuis_values(algebra, op)[0]


def verified_ladder(algebra, op):
    """The ladder of a Nijenhuis operator, else PreconditionError."""
    verdict, ladder = nijenhuis_values(algebra, op)
    require(verdict, "operator is not a Nijenhuis operator")
    return ladder


def deformed_algebra(algebra, op):
    """The algebra carried by the top ladder level of a verified N."""
    return verified_ladder(algebra, op).level(algebra.arity - 1)


def nijenhuis_representation(algebra, op):
    """rho_N(x_1,...,x_{n-1})x = [Nx_1,...,Nx_{n-1},x]; represents the
    deformed algebra on the underlying space."""
    verified_ladder(algebra, op)
    tables = {tup: Matrix.from_columns(cols) for tup, cols in operator_ad(algebra, op).items()}
    return RepresentationTable(algebra.arity, algebra.dim, algebra.dim, tables)
