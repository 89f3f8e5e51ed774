import random
from fractions import Fraction

import pytest

from nliealg.errors import InputError, NLieError, NotInvertibleError, UnsupportedRingError
from nliealg.linalg import Matrix, _integer_row, unit_vector, vec_is_zero
from nliealg.rings import Dual, EPS

from conftest import naive_inverse, naive_solve, rand_matrix, rand_vector


def naive_rank(matrix):
    """Plain fraction Gaussian elimination, used as an independent oracle
    for the fraction-free path."""
    rows = [[Fraction(x) for x in r] for r in matrix.entries]  # exact, also where an entry is an int
    rank = 0
    col = 0
    while rank < len(rows) and col < matrix.cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_matches_naive_gauss_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        entries = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                   for _ in range(n)]
        mat = Matrix(entries)
        assert mat.rank() == naive_rank(mat)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(12)
    for _ in range(40):
        mat = rand_matrix(rng, rng.randint(2, 5))
        basis = mat.nullspace_basis()
        assert len(basis) == mat.cols - mat.rank()
        for v in basis:
            assert vec_is_zero(mat.apply(v))


def test_solve_returns_exact_solutions_or_none():
    rng = random.Random(13)
    solved = 0
    for _ in range(40):
        mat = rand_matrix(rng, rng.randint(2, 4))
        x = rand_vector(rng, mat.cols)
        b = mat.apply(x)
        sol = mat.solve(b)
        assert sol is not None
        assert mat.apply(sol) == b
        solved += 1
    assert solved == 40


def test_solve_detects_inconsistency():
    mat = Matrix([[1, 0], [1, 0]])
    assert mat.solve([Fraction(1), Fraction(2)]) is None


def test_inverse_round_trip_and_singular_error():
    rng = random.Random(15)
    found = 0
    while found < 10:
        mat = rand_matrix(rng, 3)
        if mat.rank() == 3:
            assert mat @ mat.inverse() == Matrix.identity(3)
            found += 1
    with pytest.raises(NotInvertibleError):
        Matrix([[1, 1], [1, 1]]).inverse()


def test_dual_entries_are_rejected_for_elimination():
    mat = Matrix([[Dual(1, 1), Fraction(0)], [Fraction(0), Fraction(1)]])
    for op in (mat.rank, mat.nullspace_basis, mat.inverse):
        with pytest.raises(UnsupportedRingError):
            op()
    with pytest.raises(UnsupportedRingError):
        mat.solve([Fraction(0), Fraction(0)])


def test_dual_matrix_arithmetic_still_works():
    a = Matrix([[Dual(1, 2)]])
    b = Matrix([[Dual(0, 1)]])
    assert (a @ b).entries[0][0] == Dual(0, 1)
    assert (a + b).entries[0][0] == Dual(1, 3)


def test_unit_vector():
    assert unit_vector(3, 1) == [Fraction(0), Fraction(1), Fraction(0)]


def sparse_random(rng, rows, cols):
    """A sparse-ish random rational matrix with some zero rows and columns
    and, often, rows that are combinations of earlier ones."""
    zero_rows = {r for r in range(rows) if rng.random() < 0.2}
    zero_cols = {c for c in range(cols) if rng.random() < 0.2}
    entries = [[Fraction(0) if r in zero_rows or c in zero_cols or rng.random() < 0.5
                else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for c in range(cols)] for r in range(rows)]
    if rows > 2 and rng.random() < 0.5:
        a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), 3)
        entries[-1] = [a * x + b * y for x, y in zip(entries[0], entries[1])]
    return Matrix(entries)


SHAPES = [(1, 1), (1, 6), (6, 1), (3, 7), (7, 3), (6, 6), (9, 5)]


def via_sparse(mat):
    """``mat`` rebuilt by ``Matrix.sparse`` from one dict per dense row, zeros included."""
    return Matrix.sparse(mat.rows, mat.cols, [dict(enumerate(row)) for row in mat.entries])


def test_sparse_rank_matches_naive_gauss():
    rng = random.Random(21)
    for rows, cols in SHAPES:
        for _ in range(25):
            mat = sparse_random(rng, rows, cols)
            assert via_sparse(mat).rank() == naive_rank(mat), mat
            assert mat.rank() == naive_rank(mat)
    assert Matrix.zero(3, 4).rank() == 0
    assert Matrix([[0, 0], [0, 5]]).rank() == 1


def test_sparse_dense_view_round_trips():
    rng = random.Random(22)
    for rows, cols in SHAPES:
        mat = sparse_random(rng, rows, cols)
        sparse = via_sparse(mat)
        assert (sparse.rows, sparse.cols) == (mat.rows, mat.cols)
        assert Matrix(sparse.entries) == mat
        assert all(a for row in sparse.row_maps for a in row.values())


def test_sparse_product_and_is_zero_match_dense():
    rng = random.Random(23)
    for rows, inner in SHAPES:
        for _ in range(10):
            a = sparse_random(rng, rows, inner)
            b = sparse_random(rng, inner, rng.randint(1, 6))
            product = via_sparse(a) @ via_sparse(b)
            assert Matrix(product.entries) == a @ b
            assert product.is_zero() == (a @ b).is_zero()
            vec = rand_vector(rng, inner)
            assert via_sparse(a).apply(vec) == a.apply(vec)
    left = via_sparse(Matrix([[1, 1]]))
    right = via_sparse(Matrix([[2], [-2]]))
    assert (left @ right).is_zero()
    with pytest.raises(InputError):
        right @ right


def test_nullspace_basis_is_reduced_and_exact():
    """One vector per free column, 1 there and 0 on the other free columns;
    exact int or Fraction entries, no float, also where a pivot has no
    entry to its right."""
    cases = [(Matrix([[0, 1, 2], [0, 2, 4]]), [[1, 0, 0], [0, -2, 1]]),
             (Matrix([[0, 1]]), [[1, 0]])]
    for mat, expect in cases:
        basis = mat.nullspace_basis()
        assert basis == expect
        assert all(type(a) in (int, Fraction) for v in basis for a in v)


def typed(vectors):
    return [[(type(a), a) for a in v] for v in vectors]


def outcome(fn, *args):
    """What a call returns, with the type of every scalar, or the error it raises."""
    try:
        out = fn(*args)
    except NLieError as exc:
        return type(exc), str(exc)
    if isinstance(out, Matrix):
        return typed(out.entries)
    return out if out is None else typed([out])[0]


def naive_nullspace(mat):
    """e_k - x for each column k that does not raise the rank of the columns
    before it, where x is the oracle's solution of mat @ x = mat @ e_k."""
    basis = []
    for k in range(mat.cols):
        before, upto = (naive_rank(Matrix([row[:j] for row in mat.entries])) for j in (k, k + 1))
        if before == upto:
            x = naive_solve(mat, [row[k] for row in mat.entries])
            basis.append([1 if i == k else -a for i, a in enumerate(x)])
    return basis


def test_solve_inverse_and_nullspace_match_the_gauss_jordan_oracles():
    """Rectangular, rank-deficient, zero rows and columns, 1 x n, n x 1,
    Fraction entries; consistent, inconsistent and zero right-hand sides;
    singular and invertible squares; and every error path."""
    rng = random.Random(25)
    seen = set()
    for rows, cols in SHAPES + [(2, 2), (3, 3), (4, 4), (5, 5)]:
        for _ in range(30):
            mat = sparse_random(rng, rows, cols)
            x = [a if rng.random() < 0.6 else Fraction(0) for a in rand_vector(rng, cols)]
            for b in (mat.apply(x), [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows)],
                      [rng.randint(-2, 2) for _ in range(rows)], [0] * rows):
                got = outcome(mat.solve, b)
                assert got == outcome(naive_solve, mat, b), (mat, b)
                seen.add("inconsistent" if got is None else "solved")
            assert typed(mat.nullspace_basis()) == typed(naive_nullspace(mat)), mat
            got = outcome(mat.inverse)
            assert got == outcome(naive_inverse, mat), mat
            seen.add(got[0] if isinstance(got[0], type) else "inverted")
    assert seen == {"solved", "inconsistent", "inverted", NotInvertibleError, InputError}
    dual = Matrix([[Dual(1, 1), Fraction(0)], [Fraction(0), Fraction(1)]])
    plain = Matrix([[1, 2], [3, 4]])
    for mat, b in ((dual, [1, 1]), (plain, [1, Dual(0, 1)]), (plain, [1]), (plain, [1, 2, 3])):
        assert outcome(mat.solve, b) == outcome(naive_solve, mat, b)
        assert outcome(mat.solve, b)[0] in (UnsupportedRingError, InputError)
    assert outcome(dual.inverse) == outcome(naive_inverse, dual)
    assert outcome(dual.inverse)[0] is UnsupportedRingError


def test_reduced_pivot_rows_are_zero_in_the_other_pivot_columns():
    rng = random.Random(26)
    for rows, cols in SHAPES:
        for _ in range(25):
            sparse = via_sparse(sparse_random(rng, rows, cols))
            echelon, reduced = sparse.echelon(), sparse.reduced()
            assert reduced.keys() == echelon.keys()
            for pc, row in reduced.items():
                assert min(row) == pc and all(type(a) is int for a in row.values())
                assert not any(other in row for other in reduced if other != pc)
            stacked = Matrix.sparse(len(echelon) + len(reduced), cols, list(echelon.values()) + list(reduced.values()))
            assert stacked.rank() == len(echelon)


def test_integer_row_returns_an_int_row_as_it_is():
    row = {0: 3, 2: -4}
    assert _integer_row(row) is row
    assert _integer_row({0: Fraction(1, 2), 1: Fraction(2, 3), 3: 1}) == {0: 3, 1: 4, 3: 6}
    assert _integer_row({1: Fraction(4)}) == {1: 4}


def test_from_columns_matches_apply_on_unit_vectors():
    rng = random.Random(27)
    for rows, cols in SHAPES:
        columns = [rand_vector(rng, rows) for _ in range(cols)]
        mat = Matrix.from_columns(columns)
        assert (mat.rows, mat.cols) == (rows, cols)
        assert [mat.apply(unit_vector(cols, j)) for j in range(cols)] == columns


# -- textbook dense kernels: the oracle for the zero-skipping ones -----------


def textbook_matmul(a, b):
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def textbook_apply(a, vec):
    return [sum((a.entries[i][j] * vec[j] for j in range(a.cols)), Fraction(0))
            for i in range(a.rows)]


def textbook_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]


def textbook_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]


def textbook_scale(c, a):
    return [[c * x for x in row] for row in a.entries]


def with_duals(rng, mat):
    """``mat`` with about a third of its entries replaced by dual numbers,
    nonzero ones and Dual(0, 0) alike."""
    return Matrix([[Dual(x, rng.randint(-2, 2)) if rng.random() < 0.35 else x for x in row]
                   for row in mat.entries])


def rows_of(mat):
    return [list(row) for row in mat.entries]


def test_zero_skipping_kernels_match_textbook_kernels():
    rng = random.Random(24)
    for rows, inner in SHAPES:
        for trial in range(12):
            a = sparse_random(rng, rows, inner)
            b = sparse_random(rng, inner, rng.randint(1, 6))
            same = sparse_random(rng, rows, inner)
            vec = [x if rng.random() < 0.5 else Fraction(0) for x in rand_vector(rng, inner)]
            c = rng.choice([Fraction(0), Fraction(1), Fraction(-2, 3), Dual(0, 1), Dual(2, -1)])
            if trial % 2:
                a, b, same = with_duals(rng, a), with_duals(rng, b), with_duals(rng, same)
                vec = [Dual(x, rng.randint(-1, 1)) if rng.random() < 0.3 else x for x in vec]
            assert rows_of(a @ b) == textbook_matmul(a, b)
            assert a.apply(vec) == textbook_apply(a, vec)
            assert rows_of(a + same) == textbook_add(a, same)
            assert rows_of(a - same) == textbook_sub(a, same)
            assert rows_of(a.scale(c)) == textbook_scale(c, a)
    with pytest.raises(InputError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)
    with pytest.raises(InputError):
        Matrix.zero(2, 3).apply([Fraction(0)] * 2)


def test_skipped_zeros_keep_the_ring_of_the_surviving_operand():
    rational = lambda m: all(type(a) in (int, Fraction) for row in m.entries for a in row)
    zero = Matrix.zero(2)
    # EPS * 0 is skipped, so the zero matrix stays rational, and rank works
    assert rational(zero.scale(EPS))
    assert zero.scale(EPS).rank() == 0
    ident = Matrix.identity(2)
    assert rational(ident + zero.scale(EPS))
    dual = Matrix([[Dual(1, 1), Fraction(0)], [Fraction(0), Dual(0, 1)]])
    assert (dual + zero).entries[0][0] is dual.entries[0][0]
    assert (zero - dual).entries[1][1] == Dual(0, -1)
    assert (dual @ ident).entries == dual.entries
    assert type((Matrix([[Fraction(0), Fraction(1)]]) @ dual).entries[0][0]) in (int, Fraction)
    with pytest.raises(UnsupportedRingError):
        (ident + ident.scale(EPS)).rank()


def test_matrix_equality_compares_shapes_and_mixed_rings():
    def textbook_eq(a, b):
        return (a.rows, a.cols) == (b.rows, b.cols) and all(
            x == y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))

    rational = Matrix([[Fraction(1), Fraction(0)], [Fraction(2, 3), Fraction(-1)]])
    same_dual = Matrix([[Dual(1), Dual(0, 0)], [Dual(Fraction(2, 3)), Fraction(-1)]])
    with_eps = Matrix([[Dual(1, 1), Fraction(0)], [Fraction(2, 3), Fraction(-1)]])
    ints = Matrix([[1, 0], [Fraction(2, 3), -1]])
    pairs = [
        (rational, same_dual, True), (same_dual, rational, True),
        (rational, with_eps, False), (with_eps, rational, False),
        (rational, ints, True), (with_eps, with_eps, True),
        (Matrix.zero(2, 3), Matrix.zero(3, 2), False), (Matrix.zero(1, 4), Matrix.zero(4, 1), False),
        (Matrix.zero(2), Matrix.zero(2).scale(EPS), True), (Matrix.zero(2), Matrix.zero(2, 3), False),
    ]
    for a, b, expected in pairs:
        assert (a == b) is expected, (a, b)
        assert (a != b) is (not expected)
        assert textbook_eq(a, b) is expected
    assert rational != rational.entries
    assert (rational == [[1, 0], [2, -1]]) is False
