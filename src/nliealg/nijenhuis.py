"""Nijenhuis operators and their ladder of deformed brackets.

Level j of the ladder applies N to every j-subset of the arguments and
subtracts N of the previous level; level 0 is the original bracket, so
that level n-2 is meaningful even when n = 2.  One walk over the
increasing basis n-tuples gives every level and the verdict of the
Nijenhuis identity [Nx_1,...,Nx_n] = N(level n-1); whatever is built
from a verified operator reads that walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import NAryAlgebra, RepresentationTable, support, unit_supports
from .errors import InputError
from .linalg import Matrix, vec_add, vec_sub, vec_zero
from .reynolds import basis_images
from .verdict import fail, ok, require
from .wedge import increasing_tuples


@dataclass(frozen=True)
class DeformedBracketLadder:
    """Brackets level 0 .. n-1, each stored as an n-ary alternating table."""

    levels: tuple

    def level(self, j):
        if not 0 <= j < len(self.levels):
            raise InputError(f"ladder level {j} out of range 0..{len(self.levels) - 1}")
        return self.levels[j]


def nijenhuis_values(algebra, op):
    """(verdict, ladder) from one walk over the increasing basis n-tuples.

    Per tuple, the bracket with N on the slots of S is formed once for each
    subset S: level j is the sum over |S| = j minus N(level j-1), and the
    full set gives [Nx_1,...,Nx_n], compared with N(level n-1).  The
    ladder is defined for any linear N, so the walk does not stop at a
    failing tuple; the verdict names the first one.
    """
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    n, d = algebra.arity, algebra.dim
    images = [support(v) for v in basis_images(algebra, op)[1]]
    tables = [{} for _ in range(n)]
    verdict = ok("nijenhuis")
    for tup in increasing_tuples(d, n):
        units, n_units = unit_supports(tup), [images[i - 1] for i in tup]
        level = algebra.bracket_supports(units)
        for j in range(1, n + 1):
            acc = vec_zero(d)
            for subset in combinations(range(n), j):
                args = [n_units[i] if i in subset else units[i] for i in range(n)]
                acc = vec_add(acc, algebra.bracket_supports(args))
            below = op.apply(level)
            if j < n:
                level = tables[j][tup] = vec_sub(acc, below)
            elif verdict and acc != below:
                verdict = fail("nijenhuis", {"tuple": tup}, acc, below)
    levels = [algebra] + [NAryAlgebra(n, d, table, basis_names=algebra.basis_names) for table in tables[1:]]
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
    n, d = algebra.arity, algebra.dim
    tables = {}
    for tup in increasing_tuples(d, n - 1):
        n_units = [op.apply(u) for u in algebra.units(tup)]
        cols = [algebra.bracket(n_units + [u]) for u in algebra.units(range(1, d + 1))]
        tables[tup] = Matrix.from_columns(cols)
    return RepresentationTable(n, d, d, tables)
