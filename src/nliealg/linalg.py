"""Exact linear algebra over the rationals (and dual numbers).

``Matrix`` is dense, but its products, sums and scalings skip zero
terms.  ``SparseMatrix`` keeps one {column: value} dict per row; rank and
nullspace of either go through its fraction-free echelon form, whose
pivoting arithmetic stays in Z.  Dual-number matrices support
the ring operations (add/mul/apply) but are rejected by
rank/nullspace/solve, which need a field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import InputError, NotInvertibleError, UnsupportedRingError
from .rings import Dual, QQ_ZERO, QQ_ONE, plus


class Matrix:
    """Immutable row-major matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [tuple(row) for row in entries]
        if not entries:
            raise InputError("matrix needs at least one row")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise InputError("ragged matrix rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[QQ_ONE if i == j else QQ_ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls([[QQ_ZERO] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix([vec_add(ra, rb) for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix([vec_sub(ra, rb) for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.entries])

    def scale(self, c):
        return Matrix([vec_scale(c, row) for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        return Matrix([combine(row, right, other.cols) for row in self.entries])

    def apply(self, vec):
        """Matrix-vector product; entry [i][j] is the e_i-coefficient of the image of e_j."""
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols}")
        terms = [(j, x) for j, x in enumerate(vec) if x]
        return [reduce(plus, (row[j] * x for j, x in terms if row[j]), QQ_ZERO) for row in self.entries]

    def power(self, k):
        if self.rows != self.cols:
            raise InputError("power of non-square matrix")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self):
        return all(not a for row in self.entries for a in row)

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")

    def _require_rational(self, what):
        if any(isinstance(a, Dual) for row in self.entries for a in row):
            raise UnsupportedRingError(f"{what} is only defined over the rationals, not dual numbers")

    # -- elimination -----------------------------------------------------

    def rank(self):
        self._require_rational("rank")
        return SparseMatrix.from_dense(self).rank()

    def nullspace_basis(self):
        """Exact basis of the right nullspace, one vector per free column."""
        self._require_rational("nullspace")
        pivots = SparseMatrix.from_dense(self).echelon()
        basis = []
        for fc in range(self.cols):
            if fc in pivots:
                continue
            v = [QQ_ZERO] * self.cols
            v[fc] = QQ_ONE
            for pc in sorted(pivots, reverse=True):
                row = pivots[pc]
                s = sum((a * v[j] for j, a in row.items() if j != pc), QQ_ZERO)
                v[pc] = -s / row[pc]
            basis.append(v)
        return basis

    def solve(self, b):
        """One exact solution of self @ x = b, or None when inconsistent."""
        self._require_rational("solve")
        if len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != {self.rows} rows")
        if any(isinstance(x, Dual) for x in b):
            raise UnsupportedRingError("solve is only defined over the rationals")
        m = [[Fraction(a) for a in row] + [Fraction(bv)] for row, bv in zip(self.entries, b)]
        nr, nc = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][c]
            m[r] = [a * inv for a in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * p for a, p in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        for i in range(r, nr):
            if m[i][nc]:
                return None
        x = [QQ_ZERO] * nc
        for row_idx, c in enumerate(pivots):
            x[c] = m[row_idx][nc]
        return x

    def det(self):
        self._require_rational("determinant")
        if self.rows != self.cols:
            raise InputError("determinant of non-square matrix")
        m = [[Fraction(a) for a in row] for row in self.entries]
        n = self.rows
        out = QQ_ONE
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return QQ_ZERO
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                out = -out
            out *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * p for a, p in zip(m[i], m[c])]
        return out

    def inverse(self):
        self._require_rational("inverse")
        if self.rows != self.cols:
            raise InputError("inverse of non-square matrix")
        n = self.rows
        m = [[Fraction(a) for a in row] + [QQ_ONE if i == j else QQ_ZERO for j in range(n)]
             for i, row in enumerate(self.entries)]
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                raise NotInvertibleError("matrix is singular")
            m[c], m[piv] = m[piv], m[c]
            inv = 1 / m[c][c]
            m[c] = [a * inv for a in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * p for a, p in zip(m[i], m[c])]
        return Matrix([row[n:] for row in m])


class SparseMatrix:
    """Exact rational matrix stored as one {column: value} dict per row.

    Zero entries are never stored.  ``entries`` is a read-only dense view,
    built on each access, so no dense copy outlives its reader.
    """

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, rows, cols, row_maps):
        if len(row_maps) != rows:
            raise InputError(f"{len(row_maps)} row dicts for {rows} rows")
        self.rows = rows
        self.cols = cols
        self.row_maps = [{j: a for j, a in row.items() if a} for row in row_maps]

    @classmethod
    def from_dense(cls, mat):
        return cls(mat.rows, mat.cols, [dict(enumerate(row)) for row in mat.entries])

    @property
    def entries(self):
        return tuple(tuple(row.get(j, QQ_ZERO) for j in range(self.cols)) for row in self.row_maps)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols}")
        return [sum((a * vec[j] for j, a in row.items()), QQ_ZERO) for row in self.row_maps]

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self.row_maps:
            acc = {}
            for k, a in row.items():
                for j, b in other.row_maps[k].items():
                    acc[j] = acc.get(j, QQ_ZERO) + a * b
            out.append(acc)
        return SparseMatrix(self.rows, other.cols, out)

    def is_zero(self):
        return not any(self.row_maps)

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
                g = gcd(piv[lead], row[lead])
                a, b = piv[lead] // g, row[lead] // g
                row = {j: a * x for j, x in row.items()}
                for j, x in piv.items():
                    y = row.get(j, 0) - b * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                row = _primitive(row)
        return pivots

    def rank(self):
        return len(self.echelon())


def _integer_row(row):
    """A rational row dict scaled by the lcm of its denominators."""
    scale = lcm(*(a.denominator for a in row.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in row.items()}


def _primitive(row):
    """An integer row dict divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def combine(coeffs, sparse_rows, width):
    """sum_k coeffs[k] * row_k, where row_k lists its nonzero (j, b); zero
    coefficients and a product with the shared ``QQ_ONE`` are skipped."""
    acc = [QQ_ZERO] * width
    for a, terms in zip(coeffs, sparse_rows):
        if a:
            for j, b in terms:
                acc[j] = plus(acc[j], b if a is QQ_ONE else a * b)
    return acc


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
    return all(not a for a in v)


def unit_vector(n, i):
    """0-based unit vector."""
    v = [QQ_ZERO] * n
    v[i] = QQ_ONE
    return v
