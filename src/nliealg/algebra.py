"""n-Lie algebras by structure constants, with the basic checkers.

An algebra stores its bracket only on canonical index tuples: strictly
increasing for alternating brackets, non-decreasing for the symmetric
(commutative associative) variant.  Brackets of basis or arbitrary
vectors go through ``expand`` (shared with the curly bracket of
``ns.NSAlgebra``), which sorts each index tuple it meets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product

from .errors import InputError, PreconditionError
from .linalg import Matrix, combine, unit_vector, vec_add, vec_is_zero, vec_scale, vec_zero
from .rings import QQ_ONE, QQ_ZERO
from .verdict import CheckResult, fail, ok
from .wedge import canonicalize_wedge, check_indices, increasing_tuples

ALTERNATING = "alternating"
SYMMETRIC = "symmetric"


class NAryAlgebra:
    """Arity-n algebra on a d-dimensional space, given by structure constants.

    ``brackets`` maps canonical index tuples (1-based) to coefficient
    vectors of length ``dim``; absent tuples are zero.
    """

    def __init__(self, arity, dim, brackets, basis_names=None, symmetry=ALTERNATING):
        if arity < 2:
            raise InputError(f"arity must be >= 2, got {arity}")
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        if symmetry not in (ALTERNATING, SYMMETRIC):
            raise InputError(f"unknown symmetry {symmetry!r}")
        if symmetry == SYMMETRIC and arity != 2:
            raise InputError("symmetric storage is only used for binary products")
        self.arity = arity
        self.dim = dim
        self.symmetry = symmetry
        self.basis_names = list(basis_names) if basis_names else [f"e{i}" for i in range(1, dim + 1)]
        if len(self.basis_names) != dim:
            raise InputError("basis_names length must equal dim")
        clean = {}
        for key, vec in brackets.items():
            key = tuple(key)
            if len(key) != arity:
                raise InputError(f"bracket tuple {key} has length != arity {arity}")
            check_indices(key, dim)
            if symmetry == ALTERNATING:
                if any(a >= b for a, b in zip(key, key[1:])):
                    raise InputError(f"alternating bracket tuple {key} is not strictly increasing")
            else:
                if any(a > b for a, b in zip(key, key[1:])):
                    raise InputError(f"symmetric product tuple {key} is not non-decreasing")
            vec = [Fraction(v) for v in vec]
            if len(vec) != dim:
                raise InputError(f"bracket value for {key} has length != dim {dim}")
            if not vec_is_zero(vec):
                clean[key] = vec
        self.brackets = clean
        # a symmetric product is looked up in both orders, an alternating one sorted
        self._skew = arity if symmetry == ALTERNATING else 0
        mirrored = {} if self._skew else {key[::-1]: vec for key, vec in clean.items()}
        self._terms = term_table({**mirrored, **clean})

    def __eq__(self, other):
        if not isinstance(other, NAryAlgebra):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.dim == other.dim
            and self.symmetry == other.symmetry
            and self.brackets == other.brackets
        )

    def is_abelian(self):
        return not self.brackets

    def basis_tuples(self):
        """Canonical tuples sufficient to quantify a multilinear identity."""
        if self.symmetry == ALTERNATING:
            return increasing_tuples(self.dim, self.arity)
        return [(i, j) for i in range(1, self.dim + 1) for j in range(i, self.dim + 1)]

    def bracket_on_basis(self, indices):
        """Bracket of basis vectors, any index order."""
        if len(indices) != self.arity:
            raise InputError(f"expected {self.arity} indices, got {len(indices)}")
        check_indices(indices, self.dim)
        return expand(self._terms, self.units(indices), self.dim, self._skew)

    def bracket(self, args):
        """Multilinear expansion on arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        return expand(self._terms, args, self.dim, self._skew)

    def units(self, indices):
        return [unit_vector(self.dim, i - 1) for i in indices]


def term_table(values):
    """{0-based index tuple: [(i, c), ...]} of the nonzero entries of each
    stored value, keyed by its 1-based index tuple."""
    return {
        tuple(k - 1 for k in key): [(i, c) for i, c in enumerate(vec) if c]
        for key, vec in values.items()
    }


def expand(table, args, dim, skew):
    """Multilinear extension of a ``term_table`` to coefficient vectors.

    Only the supports of ``args`` are walked.  The first ``skew`` slots
    alternate: a pick is looked up with them sorted (table keys increase
    there) and its terms take the sign of the sorting permutation.
    """
    for v in args:
        if len(v) != dim:
            raise InputError(f"argument length {len(v)} != dim {dim}")
    coeffs, hits = [], []
    for picks in product(*([i for i, c in enumerate(v) if c] for v in args)):
        head = picks[:skew]
        terms = table.get(tuple(sorted(head)) + picks[skew:])
        if terms is not None:
            coeff = reduce(_times, (v[p] for v, p in zip(args, picks)), QQ_ONE)
            odd = sum(a > b for i, a in enumerate(head) for b in head[i + 1:]) % 2
            coeffs.append(-coeff if odd else coeff)
            hits.append(terms)
    return combine(coeffs, hits, dim)


def _times(a, b):
    """a * b, skipping a factor that is the shared ``QQ_ONE``."""
    return b if a is QQ_ONE else a if b is QQ_ONE else a * b


class RepresentationTable:
    """Skew-multilinear action of Lambda^{n-1}(g) on a module V.

    Stored per increasing (n-1)-tuple as a (dimV x dimV) matrix.
    """

    def __init__(self, arity, algebra_dim, module_dim, tables):
        self.arity = arity
        self.algebra_dim = algebra_dim
        self.module_dim = module_dim
        clean = {}
        for key, mat in tables.items():
            key = tuple(key)
            if len(key) != arity - 1:
                raise InputError(f"representation tuple {key} has length != {arity - 1}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise InputError(f"representation tuple {key} is not strictly increasing")
            if not isinstance(mat, Matrix):
                mat = Matrix(mat)
            if mat.rows != module_dim or mat.cols != module_dim:
                raise InputError(f"representation matrix for {key} is not {module_dim}x{module_dim}")
            if not mat.is_zero():
                clean[key] = mat
        self.tables = clean

    def matrix_for_tuple(self, indices):
        """Matrix of rho(e_{i1}, ..., e_{i_{n-1}}), any index order."""
        canon = canonicalize_wedge(indices, self.algebra_dim)
        if canon is None:
            return Matrix.zero(self.module_dim)
        key, sign = canon
        mat = self.tables.get(key)
        if mat is None:
            return Matrix.zero(self.module_dim)
        return mat if sign > 0 else -mat

    def matrix_for_wedge(self, wedge_elem):
        """Linear extension to a Lambda^{n-1} coefficient dict."""
        out = Matrix.zero(self.module_dim)
        for key, coeff in sorted(wedge_elem.items()):
            out = out + self.matrix_for_tuple(key).scale(coeff)
        return out

    def matrix_for_mixed(self, prefix, vec):
        """rho(e_{prefix}, v) with the last slot an arbitrary vector."""
        return self.matrix_for_wedge({tuple(prefix) + (j + 1,): c for j, c in enumerate(vec) if c})


# -- wedge-coefficient elements of Lambda^{n-1}(g) ----------------------


def wedge_zero():
    return {}


def wedge_single(indices, dim):
    canon = canonicalize_wedge(indices, dim)
    if canon is None:
        return {}
    key, sign = canon
    return {key: Fraction(sign)}


def wedge_add_term(acc, indices, coeff, dim):
    if not coeff:
        return
    canon = canonicalize_wedge(indices, dim)
    if canon is None:
        return
    key, sign = canon
    new = acc.get(key, QQ_ZERO) + (coeff if sign > 0 else -coeff)
    if new:
        acc[key] = new
    elif key in acc:
        del acc[key]


# -- checkers ------------------------------------------------------------


def check_filippov(algebra):
    """Verify the n-ary Jacobi (Filippov) identity on all basis tuples."""
    if algebra.symmetry != ALTERNATING:
        raise InputError("Filippov check applies to alternating brackets")
    n, d = algebra.arity, algebra.dim
    for xs in increasing_tuples(d, n - 1):
        x_units = algebra.units(xs)
        for ys in increasing_tuples(d, n):
            inner = algebra.bracket_on_basis(ys)
            lhs = algebra.bracket(x_units + [inner])
            rhs = vec_zero(d)
            for i in range(n):
                args = list(algebra.units(ys))
                args[i] = algebra.bracket_on_basis(xs + (ys[i],))
                rhs = vec_add(rhs, algebra.bracket(args))
            if lhs != rhs:
                return fail("filippov", {"x": xs, "y": ys}, lhs, rhs)
    return ok("filippov")


def is_derivation(algebra, op):
    """Leibniz rule for a linear operator over the stored bracket."""
    if op.rows != algebra.dim or op.cols != algebra.dim:
        raise InputError("operator dimension mismatch")
    for tup in algebra.basis_tuples():
        lhs = op.apply(algebra.bracket_on_basis(tup))
        rhs = vec_zero(algebra.dim)
        for i in range(algebra.arity):
            args = algebra.units(tup)
            args[i] = op.apply(args[i])
            rhs = vec_add(rhs, algebra.bracket(args))
        if lhs != rhs:
            return fail("derivation", {"tuple": tup}, lhs, rhs)
    return ok("derivation")


def ad(algebra, wedge_elem):
    """Adjoint operator y -> [X, y] for X in Lambda^{n-1}(g)."""
    d = algebra.dim
    cols = []
    for j in range(1, d + 1):
        col = vec_zero(d)
        for key, coeff in sorted(wedge_elem.items()):
            col = vec_add(col, vec_scale(coeff, algebra.bracket_on_basis(tuple(key) + (j,))))
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(d)] for i in range(d)])


def fundamental_action(algebra, x_wedge, y_wedge):
    """X o Y = sum_i y_1 ^ ... ^ [X, y_i] ^ ... ^ y_{n-1}."""
    d = algebra.dim
    out = wedge_zero()
    for xk, xc in sorted(x_wedge.items()):
        for yk, yc in sorted(y_wedge.items()):
            coeff = xc * yc
            for i in range(len(yk)):
                moved = algebra.bracket_on_basis(tuple(xk) + (yk[i],))
                for j, mc in enumerate(moved):
                    if mc:
                        new = yk[:i] + (j + 1,) + yk[i + 1:]
                        wedge_add_term(out, new, coeff * mc, d)
    return out


def check_representation(algebra, rho):
    """Both compatibility identities of an n-Lie representation."""
    n, d = algebra.arity, algebra.dim
    if rho.arity != n or rho.algebra_dim != d:
        raise InputError("representation/algebra dimension mismatch")
    for xs in increasing_tuples(d, n - 1):
        rx = rho.matrix_for_tuple(xs)
        for ys in increasing_tuples(d, n - 1):
            ry = rho.matrix_for_tuple(ys)
            lhs = rx @ ry - ry @ rx
            action = fundamental_action(algebra, wedge_single(xs, d), wedge_single(ys, d))
            rhs = rho.matrix_for_wedge(action)
            if lhs != rhs:
                return fail(
                    "representation-commutator",
                    {"x": xs, "y": ys},
                    [a for row in lhs.entries for a in row],
                    [a for row in rhs.entries for a in row],
                )
    for prefix in increasing_tuples(d, n - 2):
        for ys in increasing_tuples(d, n):
            lhs = rho.matrix_for_mixed(prefix, algebra.bracket_on_basis(ys))
            rhs = Matrix.zero(rho.module_dim)
            for i in range(n):
                rest = ys[:i] + ys[i + 1:]
                sign = (-1) ** (n - 1 - i)
                term = rho.matrix_for_tuple(rest) @ rho.matrix_for_tuple(prefix + (ys[i],))
                rhs = rhs + term.scale(Fraction(sign))
            if lhs != rhs:
                return fail(
                    "representation-bracket",
                    {"x": prefix, "y": ys},
                    [a for row in lhs.entries for a in row],
                    [a for row in rhs.entries for a in row],
                )
    return ok("representation")


def adjoint_representation(algebra):
    """rho(X) = ad_X on the algebra itself."""
    d, n = algebra.dim, algebra.arity
    tables = {}
    for tup in increasing_tuples(d, n - 1):
        mat = ad(algebra, wedge_single(tup, d))
        if not mat.is_zero():
            tables[tup] = mat
    return RepresentationTable(n, d, d, tables)


def semidirect_product(algebra, rho):
    """Semidirect n-Lie structure on g + V for a verified representation."""
    rep_check = check_representation(algebra, rho)
    if not rep_check:
        raise PreconditionError("representation check failed", rep_check.counterexample)
    n, d, dv = algebra.arity, algebra.dim, rho.module_dim
    total = d + dv
    brackets = {}
    for tup in increasing_tuples(total, n):
        in_v = [i for i in tup if i > d]
        if len(in_v) >= 2:
            continue
        vec = vec_zero(total)
        if not in_v:
            g_val = algebra.bracket_on_basis(tup)
            vec[:d] = g_val
        else:
            g_part = tuple(i for i in tup if i <= d)
            v_index = in_v[0] - d
            # the V slot is last in the increasing tuple, so its sign is +1
            col = rho.matrix_for_tuple(g_part).apply(unit_vector(dv, v_index - 1))
            vec[d:] = col
        if not vec_is_zero(vec):
            brackets[tup] = vec
    names = list(algebra.basis_names) + [f"v{i}" for i in range(1, dv + 1)]
    return NAryAlgebra(n, total, brackets, basis_names=names)


def algebra_from_bracket_function(arity, dim, func, basis_names=None):
    """Tabulate an alternating n-ary map given on increasing basis tuples."""
    brackets = {}
    for tup in increasing_tuples(dim, arity):
        vec = func(tup)
        if not vec_is_zero(vec):
            brackets[tup] = vec
    return NAryAlgebra(arity, dim, brackets, basis_names=basis_names)
