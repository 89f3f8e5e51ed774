"""Cochain complexes for n-Lie algebras and for Reynolds operators.

Degree-m cochains (m >= 1) are multilinear maps on (m-1) wedge blocks of
size n-1 plus one plain vector slot, with values in the module V.  They
are stored as flat coefficient tuples in lexicographic basis order
(I_1, ..., I_{m-1}, j, v).  Degree 0 of the Reynolds complex is
Lambda^{n-1}(g) itself.

The complex of a Reynolds operator R is read off its verified walk and
two matrices per increasing (n-1)-tuple J.  The walk that
``reynolds.check_reynolds`` runs verifies R and gives [.]_R, in ``int`` and
with the scaled brackets and images the matrices are built from.  These
are A_J = ad(Re_J1 ^ ... ^ Re_J(n-1)) and
H_J = ad(sum_i Re_J1 ^ .. e_Ji .. ^ Re_J(n-1) - Re_J1 ^ ... ^ Re_J(n-1)),
from grades 0 and 1 of one graded wedge per J (``algebra.graded_wedges``).
Then rho_R(e_J) = A_J - R H_J and delta_R(e_J) = R ad_J - R ad_J R - ad_J R.

``ReynoldsComplex.dimensions`` runs in ``int``: for D != 0, (D [.]_R, D rho_R)
is again an n-Lie algebra with a representation (each identity involved is
homogeneous of degree 2 in the two), whose coboundary is D d_m.  With D the
lcm of their denominators, every d_m is assembled, cross-checked, multiplied
and ranked on integers.  The public matrices, ``induced`` and ``rho`` stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, sub

from . import reynolds
from .algebra import (
    NAryAlgebra,
    RepresentationTable,
    _action,
    ad,
    ad_of,
    ad_table,
    apply_columns,
    bug_trap,
    fundamental_action,
    graded_wedges,
    integer_brackets,
    support,
)
from .errors import DEFAULT_SIZE_GUARD, InputError, InternalConsistencyError, SizeGuardError
from .linalg import Matrix, vec_add, vec_scale, vec_sub, vec_zero
from .rings import QQ_ONE, QQ_ZERO, exact_scalars, sign
from .verdict import require
from .wedge import increasing_tuples


class Cochain:
    """Degree-m cochain with coefficients in a module of dimension module_dim."""

    def __init__(self, arity, dim, module_dim, degree, data):
        if arity < 2:
            raise InputError(f"arity must be >= 2, got {arity}")
        if degree < 1:
            raise InputError("Cochain degree must be >= 1; degree 0 is a wedge element")
        self.arity = arity
        self.dim = dim
        self.module_dim = module_dim
        self.degree = degree
        self.tuples = increasing_tuples(dim, arity - 1)
        self.index = {t: i for i, t in enumerate(self.tuples)}
        expected = len(self.tuples) ** (degree - 1) * dim * module_dim
        self.data = tuple(exact_scalars(data, dual=True))
        if len(self.data) != expected:
            raise InputError(f"cochain data length {len(self.data)} != {expected}")

    @classmethod
    def from_operator(cls, arity, op):
        """A linear operator g -> V as a degree-1 cochain."""
        rows = op.entries
        return cls(arity, op.cols, op.rows, 1, [rows[v][j] for j in range(op.cols) for v in range(op.rows)])

    def to_operator(self):
        if self.degree != 1:
            raise InputError("only degree-1 cochains are operators")
        m = self.module_dim
        return Matrix([[self.data[j * m + v] for j in range(self.dim)] for v in range(m)])

    def _index(self, blocks, j):
        b = len(self.tuples)
        idx = 0
        for blk in blocks:
            idx = idx * b + self.index[blk]
        return (idx * self.dim + (j - 1)) * self.module_dim

    def value_on_basis(self, blocks, j):
        """Module vector at canonical wedge-basis blocks and basis index j."""
        base = self._index(blocks, j)
        return list(self.data[base:base + self.module_dim])

    def evaluate(self, blocks, vec):
        """Multilinear evaluation: blocks are wedge coefficient dicts,
        vec a plain coefficient vector."""
        if len(blocks) != self.degree - 1:
            raise InputError(f"expected {self.degree - 1} wedge blocks, got {len(blocks)}")
        out = vec_zero(self.module_dim)
        items = [sorted(blk.items()) for blk in blocks]
        for combo in product(*items) if items else [()]:
            coeff = QQ_ONE
            keys = []
            for key, c in combo:
                coeff *= c
                keys.append(key)
            if not coeff:
                continue
            for j, vj in enumerate(vec):
                if vj:
                    out = vec_add(out, vec_scale(coeff * vj, self.value_on_basis(keys, j + 1)))
        return out

    def _shape(self):
        """(arity, dim, module_dim, degree): the data of two cochains line up exactly when these agree."""
        return self.arity, self.dim, self.module_dim, self.degree

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self._shape() == other._shape() and self.data == other.data

    def is_zero(self):
        return all(not a for a in self.data)

    def _combine(self, other, op):
        if self._shape() != other._shape():
            raise InputError(
                f"cochain shapes {self._shape()} and {other._shape()} differ (arity, dim, module_dim, degree)")
        return Cochain(*self._shape(), [op(a, b) for a, b in zip(self.data, other.data)])

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, c):
        return Cochain(*self._shape(), [c * a for a in self.data])


def coboundary(algebra, rho, cochain):
    """The n-Lie coboundary of a degree-m cochain (m >= 1): each term reads
    ``Cochain.value_on_basis`` at wedge basis blocks (X_a o X_b expanded over
    its terms) into the output in place, and the block-level values are formed
    here, so this route shares no table or index arithmetic with ``_assemble``.
    """
    n, d = algebra.arity, algebra.dim
    if cochain.arity != n or cochain.dim != d:
        raise InputError("cochain/algebra mismatch")
    if rho.arity != n or rho.algebra_dim != d or rho.module_dim != cochain.module_dim:
        raise InputError("representation/cochain mismatch")
    m, dv, value = cochain.degree, cochain.module_dim, cochain.value_on_basis
    # per block X: [X, e_j] by its nonzero (k, c), rho(X) by its nonzero (row, column, entry)
    moved = {x: [support(algebra.bracket_on_basis(x + (j,))) for j in range(1, d + 1)] for x in cochain.tuples}
    acts = {x: _matrix_terms(rho.matrix_for_tuple(x)) for x in cochain.tuples}
    scalar = [(v, v, QQ_ONE) for v in range(dv)]
    actions, mats, out = {}, {}, []
    for blocks in product(cochain.tuples, repeat=m):
        drop = [blocks[:a] + blocks[a + 1:] for a in range(m)]
        for j in range(1, d + 1):
            vec = [QQ_ZERO] * dv
            # pair terms: X_a o X_b replaces X_b, X_a removed
            for a in range(m):
                for b in range(a + 1, m):
                    pair = x, y = blocks[a], blocks[b]
                    if pair not in actions:
                        actions[pair] = fundamental_action(algebra, {x: 1}, {y: 1}).items()
                    for z, c in actions[pair]:
                        _accumulate(vec, sign(a + 1) * c, scalar, value(drop[a][:b - 1] + (z,) + drop[a][b:], j))
            # bracket into the plain slot
            for a in range(m):
                for k, c in moved[blocks[a]][j - 1]:
                    _accumulate(vec, sign(a + 1) * c, scalar, value(drop[a], k + 1))
            # representation acting on the value
            for a in range(m):
                _accumulate(vec, sign(a), acts[blocks[a]], value(drop[a], j))
            # last-block terms
            last = blocks[m - 1]
            for i in range(1, n):
                key = last[:i - 1] + last[i:] + (j,)
                if key not in mats:
                    mats[key] = _matrix_terms(rho.matrix_for_tuple(key))
                _accumulate(vec, sign(n + m - i + 1), mats[key], value(blocks[:m - 1], last[i - 1]))
            out.extend(vec)
    return Cochain(n, d, dv, m + 1, out)


def _accumulate(vec, c, terms, val):
    """vec += c * (M val) in place, for M given by its nonzero (row, column, entry) terms."""
    for v, k, w in terms:
        if val[k]:
            vec[v] += c * w * val[k]


def reynolds_representation(algebra, op):
    """The action rho_R making (g; rho_R) a representation of (g, [.]_R)."""
    return ReynoldsComplex(algebra, op).rho


def reynolds_tables(scale, ad, images, n):
    """{J: columns of D^(n+1) rho_R(e_J)} in ``int`` for each increasing
    (n-1)-tuple J, from D, the column supports of D ad_K for each K (an
    ``ad_table`` of the scaled brackets) and those of S = D R.  Through
    ``ad_of``, grades 0 and 1 of the wedge of the slots (Se_i, De_i) over J
    give D^n A_J and D^n (A_J + H_J), so D^(n+1) rho_R(e_J) is D times the
    first minus S times their difference."""
    d = len(images)
    slots = [(image, [(j, scale)]) for j, image in enumerate(images)]
    columns = {}
    for tup, (low, high) in graded_wedges(slots, n - 1, 1):
        cols = []
        for a, b in zip(ad_of(low, ad, d), ad_of(high, ad, d)):
            moved = apply_columns(images, support(vec_sub(b, a)), d)
            cols.append([scale * x - y for x, y in zip(a, moved)])
        columns[tup] = cols
    return columns


def delta_r_operator(algebra, op, x_wedge):
    """delta_R(X) x = R[X,x] - [X,Rx] - R[X,Rx] as a linear operator."""
    algebra.require_alternating("delta_R")
    algebra.require_operator(op)
    adx = ad(algebra, x_wedge)
    return op @ adx - adx @ op - op @ adx @ op


class ReynoldsComplex:
    """The cochain complex of a verified Reynolds operator, with coefficients
    in the algebra itself: delta_R at level 0, d_R above."""

    def __init__(self, algebra, op):
        algebra.require_alternating("the Reynolds complex")
        op._require_rational("the Reynolds complex")
        self.base = algebra
        self.op = op
        self.tuples = increasing_tuples(algebra.dim, algebra.arity - 1)
        self.index = {t: i for i, t in enumerate(self.tuples)}
        n, d = algebra.arity, algebra.dim
        verdict, values, (scale, scaled, images) = reynolds.reynolds_values(algebra, op, True)
        require(verdict, "operator is not a Reynolds operator")
        self._operators = scale, ad_table(algebra, scaled), images
        columns = reynolds_tables(*self._operators, n)
        # t [.]_R in int, as the walk gives it, beside the columns of t rho_R
        t = scale ** (n + 1)
        brackets = {tup: value for tup, (_, value) in values.items()}
        g = gcd(t, *(x for vec in brackets.values() for x in vec), *(x for c in columns.values() for v in c for x in v))
        self._scale = t // g

        def tables(entry):
            return (
                NAryAlgebra(n, d, {key: [entry(x) for x in vec] for key, vec in brackets.items()},
                            basis_names=algebra.basis_names),
                RepresentationTable(n, d, d, {key: Matrix.from_columns([[entry(x) for x in v] for v in cols])
                                              for key, cols in columns.items()}),
            )

        # (D [.]_R, D rho_R) with D = t / g the lcm of the denominators of the exact pair
        self._pair = tables(lambda x: x // g)
        self.induced, self.rho = self._pair if self._scale == 1 else tables(lambda x: Fraction(x, t))

    def cochain_dim(self, m):
        d = self.base.dim
        if m == 0:
            return len(self.tuples)
        return len(self.tuples) ** (m - 1) * d * d

    def differential_matrix(self, m, size_guard=DEFAULT_SIZE_GUARD):
        """Sparse matrix of the level-m differential (m >= 0), exact: the
        integer matrix of ``dimensions`` divided by its scale.  It runs no
        check; ``dimensions`` is the checked route (square zero, cross-check)."""
        self._require_cells(m, size_guard)
        scale, mat = self._integer_differential(m)
        rows = [{j: Fraction(x, scale) for j, x in row.items()} for row in mat.row_maps]
        return Matrix.sparse(mat.rows, mat.cols, rows)

    def _require_cells(self, m, size_guard):
        src, dst = self.cochain_dim(m), self.cochain_dim(m + 1)
        if src * dst > size_guard:
            raise SizeGuardError(
                f"differential at degree {m} needs a {dst}x{src} matrix, over the guard {size_guard}"
            )

    def _integer_differential(self, m):
        """(D, D d_m): an integer D > 0 and a matrix of ints."""
        if m == 0:
            return _delta(self.base.dim, *self._operators)
        return self._scale, self._assemble(m)

    def _assemble(self, m):
        """D d_m: C^m -> C^{m+1} (m >= 1) from the integer pair, in one walk over the output basis.

        Each term of the formula in ``coboundary``, evaluated at output
        (X_1, ..., X_m, e_j), reads the input cochain at a few basis slots;
        every such read becomes one (row, column, coefficient) entry.
        """
        alg, rho = self._pair
        n, d = alg.arity, alg.dim
        tuples = self.tuples
        b = len(tuples)
        # [X_x, e_j], X_x o X_y read off them (pair terms start at m = 2), rho_R(X_x) as term lists
        table = ad_table(alg)
        moved = [table[t] for t in tuples]
        action = m >= 2 and [
            [[(self.index[key], c) for key, c in _action({s: 1}, {t: 1}, lambda _, k: row[k - 1], d).items()]
             for t in tuples] for s, row in zip(tuples, moved)]
        acts = [_matrix_terms(rho.matrix_for_tuple(t)) for t in tuples]
        # last-block terms: rho(X_m minus its i-th index, e_j) on the value at e_{X_m[i]}
        last = [[[(t[i - 1] - 1, vo, vi, sign(n + m - i + 1) * c)
                  for i in range(1, n)
                  for vo, vi, c in _matrix_terms(rho.matrix_for_tuple(t[:i - 1] + t[i:] + (j,)))]
                 for j in range(1, d + 1)] for t in tuples]

        def column(blocks, k):
            """Input position of (blocks, e_k) at module coordinate 0."""
            idx = 0
            for x in blocks:
                idx = idx * b + x
            return (idx * d + k) * d

        def add(v, col, c):
            out[v][col] = out[v].get(col, QQ_ZERO) + c

        rows = []
        for blocks in product(range(b), repeat=m):
            drop = [blocks[:a] + blocks[a + 1:] for a in range(m)]
            for j in range(d):
                out = [{} for _ in range(d)]
                for a in range(m):
                    flip = sign(a + 1)  # (-1)^a for 1-based a
                    for later in range(a + 1, m):
                        for z, c in action[blocks[a]][blocks[later]]:
                            col = column(drop[a][:later - 1] + (z,) + drop[a][later:], j)
                            for v in range(d):
                                add(v, col + v, flip * c)
                    for k, c in moved[blocks[a]][j]:
                        col = column(drop[a], k)
                        for v in range(d):
                            add(v, col + v, flip * c)
                    col = column(drop[a], j)
                    for vo, vi, c in acts[blocks[a]]:
                        add(vo, col + vi, -flip * c)
                for k, vo, vi, c in last[blocks[m - 1]][j]:
                    add(vo, column(blocks[:m - 1], k) + vi, c)
                rows.extend(out)
        return Matrix.sparse(len(rows), self.cochain_dim(m), rows)

    def dimensions(self, m_max, size_guard=DEFAULT_SIZE_GUARD):
        """[(m, dim Z^m, dim B^m, dim H^m)] for m = 0..m_max.

        H^0 = ker(delta_R).  Runs on the integer D d_m: each (m >= 1) is checked
        against ``coboundary`` on one dense cochain, and d_m d_{m-1} = 0 is asserted.
        """
        if m_max < 0:
            raise InputError("m_max must be >= 0")
        # before anything is assembled: each differential's cells, and the reads
        # of all of them, about (m+1)^2 per row of d_m; the reads bound a run of
        # many small differentials, as when the wedge basis has one element
        reads = 0
        for m in range(m_max + 1):
            self._require_cells(m, size_guard)
            reads += (m + 1) ** 2 * self.cochain_dim(m + 1)
            if reads > size_guard:
                raise SizeGuardError(
                    f"differentials up to degree {m} read about {reads} cochain slots, over the guard {size_guard}"
                )
        mats = [self._integer_differential(m)[1] for m in range(m_max + 1)]
        out = []
        prev_rank = 0
        for m, dm in enumerate(mats):
            if m > 0:
                self._cross_check(m, dm)
                if not (dm @ mats[m - 1]).is_zero():
                    bug_trap(self.base, "the Reynolds complex", f"differential square is nonzero at degree {m}")
            rank = dm.rank()
            z = dm.cols - rank
            out.append((m, z, prev_rank, z - prev_rank))
            prev_rank = rank
        return out

    def _cross_check(self, m, dm):
        """D d_m against ``coboundary`` on the integer pair and one dense
        cochain; a mismatch names its first output slot (blocks, e_j, v)."""
        n, d = self.base.arity, self.base.dim
        f = Cochain(n, d, d, m, [1 + c % 7 for c in range(dm.cols)])
        slots = product(product(self.tuples, repeat=m), range(1, d + 1), range(1, d + 1))
        for (blocks, j, v), got, want in zip(slots, dm.apply(f.data), coboundary(*self._pair, f).data, strict=True):
            if got != want:
                raise InternalConsistencyError(
                    f"assembled differential at degree {m} disagrees with the coboundary formula at blocks "
                    f"{blocks}, e_{j}, coordinate {v}: assembled {got}, formula {want} "
                    f"(both scaled by D = {self._scale})")


def integer_delta(algebra, op):
    """(D, D delta_R): delta_R: C^0 -> C^1 in the flattened bases, one D for
    the whole matrix (a scale per row would break d_1 d_0 = 0), read off the
    columns of each ad_J: delta_R(e_J) = R ad_J - R ad_J R - ad_J R."""
    algebra.require_alternating("delta_R")
    op._require_rational("delta_R")
    algebra.require_operator(op)
    scale, scaled, images = integer_brackets(algebra, op)
    return _delta(algebra.dim, scale, ad_table(algebra, scaled), images)


def _delta(d, scale, ad, images):
    """``integer_delta`` on D, the column supports of D ad_K for each
    increasing (n-1)-tuple K, and those of S = D R."""
    cols = []
    for adj in ad.values():
        col = []
        for j in range(d):
            # D^2 R[X, e_j], D^2 [X, Re_j]
            once, moved = apply_columns(images, adj[j], d), apply_columns(adj, images[j], d)
            col += [scale * (a - m) - b for a, m, b in zip(once, moved, apply_columns(images, support(moved), d))]
        cols.append(col)
    t = scale ** 3
    g = gcd(t, *(x for col in cols for x in col))
    rows = [{c: col[r] // g for c, col in enumerate(cols)} for r in range(d * d)]
    return t // g, Matrix.sparse(d * d, len(cols), rows)


def _matrix_terms(mat):
    return [(i, j, c) for i, row in enumerate(mat.row_maps) for j, c in row.items()]

