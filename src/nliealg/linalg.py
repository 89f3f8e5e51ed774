"""Exact linear algebra over the rationals (and dual numbers).

``Matrix`` is the one matrix type: immutable, stored as one
{column: value} dict per row with no zero entries, so products, sums,
scalings and ``apply`` only touch stored entries.  It also holds the one
elimination kernel, a fraction-free echelon form in Z: ``rank`` counts
its rows; ``nullspace_basis``, ``solve`` and ``inverse`` read one
quotient per entry off its back-substituted form.  Dual-number matrices
support the ring operations (add/mul/apply) but not elimination, which
needs a field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm

from .errors import InputError, NotInvertibleError, UnsupportedRingError
from .rings import Dual, QQ_ZERO, QQ_ONE, exact_scalars, minus, plus, rational

_INT = frozenset((int,))


class Matrix:
    """Immutable exact matrix stored as one {column: value} dict per row.

    Zero entries are never stored.  The dense constructor and the ring
    operations keep each row's columns in increasing order, the order in
    which ``apply`` and products accumulate, so the ring of every entry
    is that of the plain dense loops.  ``entries`` is a read-only dense
    view, built on each access, so no dense copy outlives its reader.
    """

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, entries):
        entries = [tuple(row) for row in entries]
        if not entries:
            raise InputError("matrix needs at least one row")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise InputError("ragged matrix rows")
        if not _INT.issuperset(map(type, chain.from_iterable(entries))):  # an int passes the gate as itself
            entries = [exact_scalars(row, dual=True) for row in entries]
        self._set(len(entries), cols, [dict(compress(enumerate(row), row)) for row in entries])

    def _set(self, rows, cols, row_maps):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_maps", tuple(row_maps))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def sparse(cls, rows, cols, row_maps):
        """The rows x cols matrix whose row i holds the nonzero entries of
        the {column: value} dict ``row_maps[i]``."""
        if len(row_maps) != rows:
            raise InputError(f"{len(row_maps)} row dicts for {rows} rows")
        return _matrix(rows, cols, [{j: a for j, a in zip(row, exact_scalars(row.values(), dual=True)) if a}
                                    for row in row_maps])

    @classmethod
    def identity(cls, n):
        return _matrix(n, n, [{i: QQ_ONE} for i in range(n)])

    @classmethod
    def from_columns(cls, cols):
        """The matrix whose column j is cols[j]: entry [i][j] is the
        e_i-coefficient of the image of e_j."""
        return cls(zip(*cols))

    @classmethod
    def zero(cls, rows, cols=None):
        return _matrix(rows, rows if cols is None else cols, [{} for _ in range(rows)])

    @property
    def entries(self):
        return tuple(tuple(row.get(j, QQ_ZERO) for j in range(self.cols)) for row in self.row_maps)

    def __getitem__(self, ij):
        i, j = ij
        return self.row_maps[i].get(j, QQ_ZERO)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.row_maps == other.row_maps

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

    def __add__(self, other):
        return self._merge(other, plus)

    def __sub__(self, other):
        return self._merge(other, minus)

    def _merge(self, other, op):
        """op(a, b) entry by entry, over the columns either row stores."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")
        out = []
        for ra, rb in zip(self.row_maps, other.row_maps):
            row = {}
            for j in sorted(ra.keys() | rb.keys()):
                x = op(ra.get(j, QQ_ZERO), rb.get(j, QQ_ZERO))
                if x:
                    row[j] = x
            out.append(row)
        return _matrix(self.rows, self.cols, out)

    def __neg__(self):
        return _matrix(self.rows, self.cols, [{j: -a for j, a in row.items()} for row in self.row_maps])

    def scale(self, c):
        (c,) = exact_scalars((c,), dual=True)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        if c == 1:
            return self
        return _matrix(self.rows, self.cols,
                       [{j: x for j, a in row.items() if (x := c * a)} for row in self.row_maps])

    def __matmul__(self, other):
        """The product, each entry summed over k in increasing order; a
        factor that is the integer 1 is skipped."""
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.row_maps
        out = []
        for row in self.row_maps:
            acc = {}
            for k, a in row.items():
                one = type(a) is int and a == 1
                for j, b in right[k].items():
                    x = b if one else a * b
                    y = acc.get(j)
                    acc[j] = x if not y else y if not x else y + x  # plus(y, x), inline
            out.append({j: acc[j] for j in sorted(acc) if acc[j]})
        return _matrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product; entry [i][j] is the e_i-coefficient of the image of e_j."""
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols}")
        return [reduce(plus, (a * vec[j] for j, a in row.items() if vec[j]), QQ_ZERO) for row in self.row_maps]

    def is_zero(self):
        return not any(self.row_maps)

    def is_rational(self):
        """Whether no entry is a dual number."""
        return not any(isinstance(a, Dual) for row in self.row_maps for a in row.values())

    def _require_rational(self, what):
        if not self.is_rational():
            raise UnsupportedRingError(f"{what} is only defined over the rationals, not dual numbers")

    # -- elimination -----------------------------------------------------

    def echelon(self):
        """An echelon basis of the row space, as {leading column: integer row}.

        Each row is scaled to coprime integers and reduced against the
        pivot of its leading column by cross-multiplication (then divided
        by its content) until it vanishes or leads in a new column.  Rows
        enter sparsest first, to keep fill low.  The leading columns of an
        echelon basis are those of the row space itself, so they do not
        depend on that order: they are the pivot columns of left-to-right
        Gaussian elimination.
        """
        pivots = {}
        for row in sorted(self.row_maps, key=len):
            row = _primitive(_integer_row(row))
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    break
                row = _eliminate(row, piv, lead)
        return pivots

    def reduced(self):
        """``echelon``, then fraction-free back-substitution, right to left:
        each pivot row ends up zero in every other pivot column."""
        pivots = self.echelon()
        for col in sorted(pivots, reverse=True):
            for lead in pivots:
                if lead != col and col in pivots[lead]:
                    pivots[lead] = _eliminate(pivots[lead], pivots[col], col)
        return pivots

    def rank(self):
        self._require_rational("rank")
        return len(self.echelon())

    def nullspace_basis(self):
        """Exact basis of the right nullspace: e_k - x for each free column
        k, where x solves self @ x = self @ e_k and is 0 on every free
        unknown: 1 at k, 0 on the other free columns."""
        self._require_rational("nullspace")
        solutions = self._solve_columns(self.row_maps, self.cols)
        return [[QQ_ONE if i == k else -a for i, a in enumerate(x)] for k, x in enumerate(solutions) if not x[k]]

    def solve(self, b):
        """The solution of self @ x = b that is 0 on every free unknown, or
        None when there is none."""
        self._require_rational("solve")
        if len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != {self.rows} rows")
        if any(isinstance(x, Dual) for x in b):
            raise UnsupportedRingError("solve is only defined over the rationals")
        solutions = self._solve_columns([{0: x} for x in b], 1)
        return None if solutions is None else solutions[0]

    def inverse(self):
        self._require_rational("inverse")
        if self.rows != self.cols:
            raise InputError("inverse of non-square matrix")
        solutions = self._solve_columns([{i: 1} for i in range(self.rows)], self.rows)
        if solutions is None:
            raise NotInvertibleError("matrix is singular")
        return Matrix.from_columns(solutions)

    def _solve_columns(self, rhs, width):
        """For each column c of the right-hand side ``rhs`` (``width``
        columns, one {column: value} dict per row), the solution of
        self @ x = c that is 0 on every free unknown; None when one of
        them has none, that is when a pivot falls in the appended columns.
        Each reduced pivot row gives x[pc] = row[n + k] / row[pc]."""
        n = self.cols
        augmented = [{**row, **{n + k: x for k, x in extra.items()}} for row, extra in zip(self.row_maps, rhs)]
        pivots = Matrix.sparse(self.rows, n + width, augmented).reduced()
        if any(col >= n for col in pivots):
            return None
        solutions = [[QQ_ZERO] * n for _ in range(width)]
        for pc, row in pivots.items():
            for col, p in row.items():
                if col >= n:
                    solutions[col - n][pc] = rational(Fraction(p) / row[pc])
        return solutions


def _matrix(rows, cols, row_maps):
    """A ``Matrix`` from row dicts that hold no zero entry."""
    mat = object.__new__(Matrix)
    mat._set(rows, cols, row_maps)
    return mat


def _integer_row(row):
    """A rational row dict scaled by the lcm of its denominators; an
    ``int`` row is returned as it is."""
    if all(type(a) is int for a in row.values()):
        return row
    scale = lcm(*(a.denominator for a in row.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in row.items()}


def _primitive(row):
    """An integer row dict divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(row, piv, col):
    """The primitive integer combination a*row - b*piv that is zero in
    column ``col``, where both rows are nonzero in that column."""
    g = gcd(piv[col], row[col])
    a, b = piv[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()}
    for j, x in piv.items():
        y = out.get(j, 0) - b * x
        if y:
            out[j] = y
        else:
            del out[j]
    return _primitive(out)


def combine(coeffs, sparse_rows, width):
    """sum_k coeffs[k] * row_k, where row_k lists its nonzero (j, b); zero
    coefficients and products with an integer coefficient 1 are skipped."""
    acc = [QQ_ZERO] * width
    for a, terms in zip(coeffs, sparse_rows):
        if a:
            one = type(a) is int and a == 1
            for j, b in terms:
                x, y = b if one else a * b, acc[j]
                acc[j] = x if not y else y if not x else y + x  # plus(y, x), inline
    return acc


def integer_scale(tables):
    """(D, scaled): D is the lcm of the denominators of every entry of the
    {key: vector} ``tables``, and ``scaled`` holds each table with its
    vectors multiplied by D, as ``int`` entries."""
    scale = lcm(1, *(x.denominator for table in tables for vec in table.values() for x in vec))
    return scale, [
        {key: [x.numerator * (scale // x.denominator) for x in vec] for key, vec in table.items()}
        for table in tables
    ]


def vec_add(u, v):
    return [plus(a, b) for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a if not b else -b if not a else a - b for a, b in zip(u, v)]


def vec_scale(c, v):
    if not c:
        return [QQ_ZERO] * len(v)
    return list(v) if c == 1 else [c * a if a else a for a in v]


def vec_zero(n):
    return [QQ_ZERO] * n


def vec_is_zero(v):
    return not any(v)


def unit_vector(n, i):
    """0-based unit vector."""
    v = [QQ_ZERO] * n
    v[i] = QQ_ONE
    return v
