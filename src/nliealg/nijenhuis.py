"""Nijenhuis operators and their ladder of deformed brackets.

Level j of the ladder applies N to every j-subset of the arguments and
subtracts N of the previous level; level 0 is the original bracket, so
that level n-2 is meaningful even when n = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import RepresentationTable, algebra_from_bracket_function
from .errors import InputError
from .linalg import Matrix, vec_add, vec_sub, vec_zero
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


def deformed_bracket_ladder(algebra, op):
    """Levels 0..n-1 of the deformed bracket for any linear N."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    n, d = algebra.arity, algebra.dim
    levels = [algebra]
    for j in range(1, n):
        prev = levels[-1]

        def value(tup, j=j, prev=prev):
            units = algebra.units(tup)
            n_units = [op.apply(u) for u in units]
            acc = vec_zero(d)
            for subset in combinations(range(n), j):
                args = list(units)
                for i in subset:
                    args[i] = n_units[i]
                acc = vec_add(acc, algebra.bracket(args))
            return vec_sub(acc, op.apply(prev.bracket_on_basis(tup)))

        levels.append(
            algebra_from_bracket_function(n, d, value, basis_names=algebra.basis_names)
        )
    return DeformedBracketLadder(tuple(levels))


def check_nijenhuis(algebra, op):
    """[Nx_1,...,Nx_n] = N([x_1,...,x_n] at ladder level n-1), basis-wise."""
    ladder = deformed_bracket_ladder(algebra, op)
    top = ladder.level(algebra.arity - 1)
    for tup in increasing_tuples(algebra.dim, algebra.arity):
        lhs = algebra.bracket([op.apply(u) for u in algebra.units(tup)])
        rhs = op.apply(top.bracket_on_basis(tup))
        if lhs != rhs:
            return fail("nijenhuis", {"tuple": tup}, lhs, rhs)
    return ok("nijenhuis")


def deformed_algebra(algebra, op):
    """The algebra carried by the top ladder level of a verified N."""
    require(check_nijenhuis(algebra, op), "operator is not a Nijenhuis operator")
    return deformed_bracket_ladder(algebra, op).level(algebra.arity - 1)


def nijenhuis_representation(algebra, op):
    """rho_N(x_1,...,x_{n-1})x = [Nx_1,...,Nx_{n-1},x]; represents the
    deformed algebra on the underlying space."""
    require(check_nijenhuis(algebra, op), "operator is not a Nijenhuis operator")
    n, d = algebra.arity, algebra.dim
    tables = {}
    for tup in increasing_tuples(d, n - 1):
        n_units = [op.apply(u) for u in algebra.units(tup)]
        cols = [algebra.bracket(n_units + [u]) for u in algebra.units(range(1, d + 1))]
        tables[tup] = Matrix.from_columns(cols)
    return RepresentationTable(n, d, d, tables)
