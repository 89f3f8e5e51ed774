"""n-Lie algebras by structure constants, with the basic checkers.

An algebra stores its bracket only on canonical index tuples: strictly
increasing for alternating brackets, non-decreasing for the symmetric
(commutative associative) variant.  Brackets of basis or arbitrary
vectors go through ``expand`` (shared with the curly bracket of
``ns.NSAlgebra``), which sorts each index tuple it meets.  Operators
built from the bracket, ad(X) and ad(Te_J1 ^ ... ^ Te_J(n-1)), are read
off the stored brackets instead, through the columns of each ad_K
(``ad_table``).  Every wedge of operator images, for the Reynolds,
Nijenhuis and t-linear deformation walks, [.]_R and rho_R, and the curly
bracket of an operator, comes from one prefix-shared walk over the
canonical tuples (``graded_wedges``).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import compress, product

from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import Matrix, combine, integer_scale, unit_vector, vec_is_zero
from .rings import QQ_ONE, QQ_ZERO, exact_scalars, rational, sign
from .verdict import fail, jsonable, ok, require
from .wedge import canonical, canonicalize_wedge, check_indices, increasing_tuples, key_rule

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
        clean, strict = {}, symmetry == ALTERNATING
        for key, vec in brackets.items():
            if not canonical(key, arity, dim, strict):
                raise InputError(f"bracket key {key!r} is not {key_rule(arity, dim, strict)}")
            vec = exact_scalars(vec)
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

    def require_alternating(self, what):
        """InputError unless the bracket is alternating: ``what`` is defined on n-Lie algebras only."""
        if self.symmetry != ALTERNATING:
            raise InputError(f"{what} applies to alternating brackets")

    def require_operator(self, op, what="operator"):
        """InputError unless ``op`` is a dim x dim matrix, an operator on the algebra's space."""
        if op.rows != self.dim or op.cols != self.dim:
            raise InputError(f"{what} dimension mismatch")

    def require_symmetric(self, what):
        """InputError unless the product is symmetric: ``what`` is defined on commutative products only."""
        if self.symmetry != SYMMETRIC:
            raise InputError(f"{what} applies to commutative products")

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
        return expand_supports(self._terms, unit_supports(indices), self.dim, self._skew)

    def bracket(self, args):
        """Multilinear expansion on arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        return expand(self._terms, args, self.dim, self._skew)

    def bracket_supports(self, supports):
        """``bracket`` of arguments given by their supports."""
        if len(supports) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(supports)}")
        return expand_supports(self._terms, supports, self.dim, self._skew)

    def units(self, indices):
        return [unit_vector(self.dim, i - 1) for i in indices]


def support(vec):
    """The nonzero (0-based index, coefficient) pairs of a vector."""
    return list(compress(enumerate(vec), vec))


def term_table(values):
    """{0-based index tuple: support} of each stored value, keyed by its
    1-based index tuple."""
    return {tuple([k - 1 for k in key]): support(vec) for key, vec in values.items()}


def expand(table, args, dim, skew):
    """Multilinear extension of a ``term_table`` to coefficient vectors,
    each scanned once for its support."""
    supports = []
    for v in args:
        if len(v) != dim:
            raise InputError(f"argument length {len(v)} != dim {dim}")
        supports.append(support(v))
    return expand_supports(table, supports, dim, skew)


def expand_supports(table, supports, dim, skew):
    """Multilinear extension of a ``term_table`` to arguments given by
    their supports: one list of nonzero (0-based index, coefficient) pairs
    per slot.

    The first ``skew`` slots alternate: a pick is looked up with them
    sorted (table keys increase there) and its terms take the sign of the
    sorting permutation.
    """
    coeffs, hits = [], []
    for picks in product(*supports):
        indices = tuple(i for i, _ in picks)
        head = indices[:skew]
        terms = table.get(tuple(sorted(head)) + indices[skew:])
        if terms is not None:
            coeff = reduce(_times, (c for _, c in picks), QQ_ONE)
            odd = sum(a > b for i, a in enumerate(head) for b in head[i + 1:]) % 2
            coeffs.append(-coeff if odd else coeff)
            hits.append(terms)
    return combine(coeffs, hits, dim)


def graded_wedges(slots, k, top, alternating=True):
    """(J, wedge) for each canonical k-tuple J of slot indices, in
    ``basis_tuples`` order (non-decreasing unless ``alternating``): wedge[g]
    is grade g of v_J1 ^ ... ^ v_Jk truncated at t^top, as {canonical 1-based
    tuple: coefficient}, for v_j = sum_g t^g v_(j,g) with ``slots[j - 1][g]``
    the support of v_(j,g).  Each wedge is its prefix's extended by one slot;
    the walk is lazy, and a prefix is extended only while it can still reach
    length k."""
    d = len(slots)

    def walk(prefix, wedge, low):
        if len(prefix) == k:
            yield prefix, wedge
            return
        high = d - (k - len(prefix) - 1) if alternating else d
        for j in range(low, high + 1):
            grown = _extended(wedge, slots[j - 1], top, alternating)
            yield from walk(prefix + (j,), grown, j + 1 if alternating else j)

    return walk((), [{(): QQ_ONE}] + [{} for _ in range(top)], 1)


def _extended(wedge, slot, top, alternating):
    """wedge ^ v, truncated at t^top, for the graded vector v of ``slot``:
    each index inserted at its sorted place, with the sign of the moves and
    a repeated index dropped when ``alternating``, else as a sorted multiset."""
    grown = [{} for _ in wedge]
    for h, layer in enumerate(wedge):
        for g, vec in enumerate(slot[:top + 1 - h] if layer else (), h):
            acc = grown[g]
            for key, c in layer.items():
                for i, b in vec:
                    i += 1
                    at = bisect_left(key, i)
                    if alternating:
                        if at < len(key) and key[at] == i:
                            continue
                        if (len(key) - at) % 2:
                            b = -b
                    new, x = key[:at] + (i,) + key[at:], b * c
                    y = acc.get(new)
                    acc[new] = x if y is None else y + x
    return grown


def contracted(values, layer, d):
    """B(X), dense, for X = {canonical tuple: coefficient} and B given by the
    supports ``values`` of its values on canonical tuples."""
    return combine(list(layer.values()), [values.get(key, ()) for key in layer], d)


def column_supports(op):
    """The supports of the columns of ``op``, read off its rows."""
    cols = [[] for _ in range(op.cols)]
    for i, row in enumerate(op.row_maps):
        for j, c in row.items():
            cols[j].append((i, c))
    return cols


def divided(vec, divisor):
    """An ``int`` vector divided by the integer ``divisor``, as exact scalars."""
    return vec if divisor == 1 else [rational(Fraction(x, divisor)) for x in vec]


def unit_supports(indices):
    """Supports of the basis vectors at 1-based ``indices``."""
    return [[(i - 1, QQ_ONE)] for i in indices]


def _times(a, b):
    """a * b, skipping an integer factor 1: the product is then the other
    factor, in its own ring."""
    return b if type(a) is int and a == 1 else a if type(b) is int and b == 1 else a * b


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
            if not canonical(key, arity - 1, algebra_dim):
                raise InputError(f"representation key {key!r} is not {key_rule(arity - 1, algebra_dim)}")
            mat = mat if isinstance(mat, Matrix) else Matrix(mat)
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
        key, flip = canon
        mat = self.tables.get(key)
        if mat is None:
            return Matrix.zero(self.module_dim)
        return mat if flip > 0 else -mat


# -- wedge-coefficient elements of Lambda^{n-1}(g) ----------------------


def wedge_add_term(acc, indices, coeff, dim):
    if not coeff:
        return
    canon = canonicalize_wedge(indices, dim)
    if canon is None:
        return
    key, flip = canon
    new = acc.get(key, QQ_ZERO) + (coeff if flip > 0 else -coeff)
    if new:
        acc[key] = new
    elif key in acc:
        del acc[key]


# -- checkers ------------------------------------------------------------
#
# Each check is an identity of degree 2 between operators tabulated once
# and scaled to ``int`` by D, the lcm of all denominators, checked per tuple
# as one ``combine``; only a failing tuple forms its sides and divides them
# by D^2.  Tuples go in the plain expansion's order, as do counterexamples.


def check_filippov(algebra):
    """The n-ary Jacobi (Filippov) identity on all basis tuples: ad_xs is a
    derivation for each increasing (n-1)-tuple xs, one run of the Leibniz
    kernel each (ad_xs = 0 passes trivially)."""
    algebra.require_alternating("Filippov check")
    d = algebra.dim
    scale, values = integer_brackets(algebra)
    ad_cols = ad_table(algebra, values)
    hats = hatted(algebra.basis_tuples(), True)
    for xs, cols in ad_cols.items():
        failure = any(cols) and _leibniz_failure(hats, values, ad_cols, cols, d)
        if failure:
            ys, lhs, rhs = failure
            return fail("filippov", {"x": xs, "y": ys}, _unscaled(lhs, d, scale), _unscaled(rhs, d, scale))
    return ok("filippov")


def bug_trap(algebra, what, message):
    """Raise for a bug trap that ``what`` tripped on ``algebra``: ``PreconditionError``
    naming the Filippov counterexample when the bracket is not n-Lie, which the
    theorem behind the trap needs, else ``InternalConsistencyError(message)``.
    Only a tripped trap runs the Filippov check."""
    verdict = check_filippov(algebra)
    if not verdict:
        raise PreconditionError(f"{what} applies to n-Lie algebras, and the bracket fails the Filippov identity: "
                                f"{jsonable(verdict.counterexample)}", verdict.counterexample)
    raise InternalConsistencyError(message)


def is_derivation(algebra, op):
    """The Leibniz rule for a rational operator over the stored bracket,
    alternating or symmetric: one run of the Leibniz kernel."""
    d = algebra.dim
    algebra.require_operator(op)
    op._require_rational("derivation check")
    scale, values, cols = integer_brackets(algebra, op)
    ad_cols = ad_table(algebra, values)
    hats = hatted(algebra.basis_tuples(), algebra.symmetry == ALTERNATING)
    failure = _leibniz_failure(hats, values, ad_cols, cols, d)
    if failure:
        ys, lhs, rhs = failure
        return fail("derivation", {"tuple": ys}, _unscaled(lhs, d, scale), _unscaled(rhs, d, scale))
    return ok("derivation")


def check_representation(algebra, rho):
    """Both compatibility identities of a rational representation of an
    n-Lie algebra: rho_x rho_y - rho_y rho_x = rho(x o y), the commutator
    kernel, and rho(x, [ys]) = sum_i (-1)^{n-1-i} rho(ys^i) rho(x, y_i),
    one ``combine`` per (x, ys) of products read off ``tabulated_products``."""
    algebra.require_alternating("representation check")
    n, d, dv = algebra.arity, algebra.dim, rho.module_dim
    if rho.arity != n or rho.algebra_dim != d:
        raise InputError("representation/algebra dimension mismatch")
    for mat in rho.tables.values():
        mat._require_rational("representation check")
    scale, values, *columns = integer_brackets(algebra, *rho.tables.values())
    columns = dict(zip(rho.tables, columns))
    ad_cols = ad_table(algebra, values)
    width = dv * dv
    flat, product = tabulated_products({xs: columns.get(xs, [[]] * dv) for xs in ad_cols}, dv)
    mixed = extensions(d, n - 2)
    failure = _commutator_failure(ad_cols, mixed, flat, product, width)
    if failure:
        xs, ys, xy, yx, action = failure
        lhs = _unscaled((xy[0] + [-c for c in yx[0]], xy[1] + yx[1]), width, scale)
        return fail("representation-commutator", {"x": xs, "y": ys}, lhs, _unscaled(action, width, scale))
    hats = hatted(increasing_tuples(d, n), True)
    for prefix, ext in mixed.items():
        # rho(prefix, e_k) is flip * rho_key for ext[k] = (key, flip), zero for None
        for ys, hat in hats.items():
            lhs = _terms((e[1] * b, flat[e[0]]) for k, b in values.get(ys, ()) if (e := ext[k]))
            rhs = _terms((s * e[1] * c, row) for r, s, y in hat if (e := ext[y]) for c, row in zip(*product(r, e[0])))
            if not _holds(lhs, rhs, width):
                lhs, rhs = _unscaled(lhs, width, scale), _unscaled(rhs, width, scale)
                return fail("representation-bracket", {"x": prefix, "y": ys}, lhs, rhs)
    return ok("representation")


def integer_brackets(algebra, *ops):
    """(D, values, *images): the supports of the brackets, keyed like
    ``brackets``, and the ``column_supports`` of each operator of ``ops``,
    scaled to ``int`` by one D, the lcm of their denominators."""
    tables = [{key: support(vec) for key, vec in algebra.brackets.items()}]
    tables += [dict(enumerate(column_supports(op))) for op in ops]
    scale, scaled = integer_scale([{key: [c for _, c in vec] for key, vec in table.items()} for table in tables])
    values, *images = [
        {key: [(i, c) for (i, _), c in zip(table[key], ints)] for key, ints in coeffs.items()}
        for table, coeffs in zip(tables, scaled)
    ]
    return (scale, values, *(list(image.values()) for image in images))


def ad_table(algebra, values=None):
    """{xs: supports of the columns e_j -> [e_xs, e_j]} for each increasing
    (n-1)-tuple xs, from the supports ``values`` of the brackets on canonical
    tuples, by default the stored brackets (exact)."""
    if values is None:
        values = {key: support(vec) for key, vec in algebra.brackets.items()}
    tuples = increasing_tuples(algebra.dim, algebra.arity - 1)
    return ad_columns(values, tuples, algebra.dim, algebra.symmetry == ALTERNATING)


def ad_columns(values, tuples, d, alternating=True):
    """{xs: supports of the columns e_j -> [e_xs, e_j]} for the xs of
    ``tuples``, from the supports ``values`` of the brackets on canonical
    tuples: each is placed once per slot, with the sign of moving that slot
    last when ``alternating``."""
    cols = {xs: [[] for _ in range(d)] for xs in tuples}
    for ys, value in values.items():
        for i in range(len(ys)):
            negate = alternating and (len(ys) - 1 - i) % 2
            cols[ys[:i] + ys[i + 1:]][ys[i] - 1] = [(k, -c) for k, c in value] if negate else value
    return cols


def ad_of(wedge, ad, d):
    """The columns of ad(X), dense, for X = {increasing tuple: coefficient},
    from the column supports ``ad`` of each ad_K (an ``ad_table``)."""
    coeffs = list(wedge.values())
    return [combine(coeffs, [ad[key][j] for key in wedge], d) for j in range(d)]


def operator_ad(algebra, op):
    """{J: columns of ad(Te_J1 ^ ... ^ Te_J(n-1))} for each increasing
    (n-1)-tuple J: the curly bracket [Tx_1, ..., Tx_(n-1), x_n] of the NS
    structure of T, and rho_N when T is a Nijenhuis operator."""
    d, table = algebra.dim, ad_table(algebra)
    slots = [(col,) for col in column_supports(op)]
    return {tup: ad_of(top, table, d) for tup, (top,) in graded_wedges(slots, algebra.arity - 1, 0)}


def apply_columns(cols, vec, d):
    """M v for M given by the supports of its columns and v by its support."""
    return combine([c for _, c in vec], [cols[k] for k, _ in vec], d)


def hatted(tuples, alternating):
    """{ys: [(ys without slot i, s_i, ys[i] - 1)]}, s_i = (-1)^{n-1-i} if ``alternating``."""
    return {
        ys: [(ys[:i] + ys[i + 1:], sign(len(ys) - 1 - i) if alternating else 1, ys[i] - 1) for i in range(len(ys))]
        for ys in tuples
    }


def extensions(d, k):
    """{rest: [canonicalize_wedge(rest + (j,)) for j = 1..d]} over increasing k-tuples."""
    return {rest: [canonicalize_wedge(rest + (j,), d) for j in range(1, d + 1)] for rest in increasing_tuples(d, k)}


def _leibniz_failure(hats, values, ad_cols, cols, d):
    """The Leibniz kernel: the first ys of ``hats`` where D[e_ys] differs
    from sum_i [.., D e_{y_i}, ..] = sum_i s_i [e_{ys^i}, D e_{y_i}], as
    (ys, lhs, rhs), each side a sum of (coefficients, supports) terms, or
    None.  ``cols`` holds the supports of the columns of D."""
    for ys, hat in hats.items():
        value = values.get(ys, ())
        lhs = [b for _, b in value], [cols[k] for k, _ in value]
        rhs = [s * c for _, s, y in hat for _, c in cols[y]], [ad_cols[r][m] for r, _, y in hat for m, _ in cols[y]]
        if not _holds(lhs, rhs, d):
            return ys, lhs, rhs
    return None


def tabulated_products(cols, width):
    """(flat, product) for the operators of ``cols``, given by the supports
    of their columns: ``flat[x]`` is the support of x with entry (i, j) at
    i*width + j, and ``product(x, y)`` is x y as a sum of (coefficients,
    supports) terms, one per entry c = y_kj: c times column k of x, moved
    to column j."""
    flat = {x: [(i * width + j, c) for j, col in enumerate(cs) for i, c in col] for x, cs in cols.items()}
    shifted = {x: [[(i * width + j, c) for i, c in col] for j in range(width) for col in cs] for x, cs in cols.items()}
    entries = {x: [(c, j * width + k) for j, col in enumerate(cs) for k, c in col] for x, cs in cols.items()}

    def product(x, y):
        return [c for c, _ in entries[y]], [shifted[x][at] for _, at in entries[y]]

    return flat, product


def _commutator_failure(ad_cols, mixed, flat, product, width):
    """The commutator kernel: the first pair (x, y) of (n-1)-tuples where
    rho_x rho_y != rho_y rho_x + rho(x o y), as (x, y, rho_x rho_y,
    rho_y rho_x, rho(x o y)), each a sum of terms, or None.  Slot i of
    x o y = sum_i y_1 ^ .. [e_x, e_{y_i}] .. ^ y_{n-1} holding e_m is
    s_i y^i ^ e_m, read off ``mixed`` (``extensions``)."""
    hats = hatted(list(ad_cols), True)
    for xs, cols in ad_cols.items():
        for ys, hat in hats.items():
            action = _terms((s * e[1] * b, flat[e[0]]) for r, s, y in hat for m, b in cols[y] if (e := mixed[r][m]))
            xy, yx = product(xs, ys), product(ys, xs)
            if not _holds(xy, (yx[0] + action[0], yx[1] + action[1]), width):
                return xs, ys, xy, yx, action
    return None


def _terms(pairs):
    """(coefficients, supports) of a sum given as (coefficient, support) pairs."""
    return tuple(map(list, zip(*pairs))) or ([], [])


def _holds(lhs, rhs, width):
    """Whether two sums of (coefficients, supports) terms agree: one
    ``combine`` of their difference."""
    return not any(combine(lhs[0] + [-c for c in rhs[0]], lhs[1] + rhs[1], width))


def _unscaled(terms, width, scale):
    """A sum of (coefficients, supports) terms of an identity of degree 2,
    divided by ``scale`` squared."""
    return divided(combine(*terms, width), scale * scale)


def ad(algebra, wedge_elem):
    """Adjoint operator y -> [X, y] for X in Lambda^{n-1}(g), its keys in any
    order, read off the ``ad_table``."""
    n, d, x = algebra.arity, algebra.dim, {}
    for key, coeff in wedge_elem.items():
        if len(key) != n - 1:
            raise InputError(f"expected {n} indices, got {len(key) + 1}")
        wedge_add_term(x, key, coeff, d)
    return Matrix.from_columns(ad_of(x, ad_table(algebra), d))


def fundamental_action(algebra, x_wedge, y_wedge):
    """X o Y = sum_i y_1 ^ ... ^ [X, y_i] ^ ... ^ y_{n-1}."""
    return _action(x_wedge, y_wedge, lambda xk, y: support(algebra.bracket_on_basis(xk + (y,))), algebra.dim)


def _action(x_wedge, y_wedge, moved, d):
    """``fundamental_action`` with each [e_xk, e_y] read from ``moved(xk, y)``, its support."""
    out = {}
    for xk, xc in sorted(x_wedge.items()):
        for yk, yc in sorted(y_wedge.items()):
            coeff = xc * yc
            for i in range(len(yk)):
                for j, mc in moved(tuple(xk), yk[i]):
                    wedge_add_term(out, yk[:i] + (j + 1,) + yk[i + 1:], coeff * mc, d)
    return out


def adjoint_representation(algebra):
    """rho(X) = ad_X on the algebra itself, read off the ``ad_table``."""
    d, n = algebra.dim, algebra.arity
    table = ad_table(algebra)
    return RepresentationTable(n, d, d, {xs: Matrix.from_columns(ad_of({xs: 1}, table, d)) for xs in table})


def semidirect_product(algebra, rho):
    """Semidirect n-Lie structure on g + V for a verified representation:
    the brackets of g, and [e_J, v] = rho(e_J) v for each stored rho(e_J)
    (the V slot is last in an increasing tuple, so its sign is +1)."""
    require(check_representation(algebra, rho), "representation check failed")
    n, d, dv = algebra.arity, algebra.dim, rho.module_dim
    brackets = {key: vec + [QQ_ZERO] * dv for key, vec in algebra.brackets.items()}
    for key, mat in rho.tables.items():
        for v, col in enumerate(zip(*mat.entries), d + 1):
            brackets[key + (v,)] = [QQ_ZERO] * d + list(col)
    names = list(algebra.basis_names) + [f"v{i}" for i in range(1, dv + 1)]
    return NAryAlgebra(n, d + dv, dict(sorted(brackets.items())), basis_names=names)


def algebra_from_bracket_function(arity, dim, func, basis_names=None):
    """Tabulate an alternating n-ary map given on increasing basis tuples."""
    brackets = {tup: func(tup) for tup in increasing_tuples(dim, arity)}
    return NAryAlgebra(arity, dim, brackets, basis_names=basis_names)
