import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nliealg import cohomology as cohomology_module
from nliealg import reynolds as reynolds_module
from nliealg.algebra import (
    NAryAlgebra,
    RepresentationTable,
    ad,
    adjoint_representation,
    algebra_from_bracket_function,
    check_filippov,
    check_representation,
)
from nliealg.cohomology import (
    Cochain,
    ReynoldsComplex,
    coboundary,
    delta_r_operator,
    reynolds_representation,
)
from nliealg.cli import run_command
from nliealg.documents import algebra_document, emit_document, operator_document
from nliealg.errors import InputError, InternalConsistencyError, PreconditionError, SizeGuardError, UnsupportedRingError
from nliealg.linalg import Matrix, unit_vector
from nliealg.reynolds import check_reynolds, derivation_to_reynolds, induced_bracket
from nliealg.rings import EPS, Dual
from nliealg.wedge import increasing_tuples

from conftest import (
    check_complex,
    naive_coboundary,
    naive_delta_matrix,
    naive_reynolds_representation,
    rand_fraction,
    rand_matrix,
    simple_n_lie,
    wedge_single,
)


def rand_cochain(rng, arity, dim, module_dim, degree, span=2):
    size = len(increasing_tuples(dim, arity - 1)) ** (degree - 1) * dim * module_dim
    return Cochain(arity, dim, module_dim, degree,
                   [rand_fraction(rng, span) for _ in range(size)])


def test_cochain_refuses_an_arity_below_two():
    """Like ``NAryAlgebra``: no wedge basis of a negative length is formed."""
    for arity in (-1, 0, 1):
        with pytest.raises(InputError, match="arity must be >= 2"):
            Cochain(arity, 3, 3, 1, [0] * 9)


def test_operator_cochain_round_trip(rng):
    op = rand_matrix(rng, 3)
    f = Cochain.from_operator(2, op)
    assert f.to_operator() == op
    for j in range(1, 4):
        assert f.value_on_basis((), j) == op.apply(unit_vector(3, j - 1))


def test_binary_coboundary_matches_chevalley_eilenberg(sl2_like, rng):
    """For a Lie algebra the degree-1 coboundary must specialize to
    (df)(x, y) = rho(x) f(y) - rho(y) f(x) - f([x, y])."""
    rho = adjoint_representation(sl2_like)
    for _ in range(10):
        op = rand_matrix(rng, 3)
        f = Cochain.from_operator(2, op)
        df = coboundary(sl2_like, rho, f)
        for x in range(1, 4):
            for y in range(1, 4):
                expect = rho.matrix_for_tuple((x,)).apply(op.apply(unit_vector(3, y - 1)))
                expect = [a - b for a, b in zip(
                    expect, rho.matrix_for_tuple((y,)).apply(op.apply(unit_vector(3, x - 1))))]
                expect = [a - b for a, b in zip(
                    expect, op.apply(sl2_like.bracket_on_basis((x, y))))]
                got = df.evaluate([wedge_single((x,), 3)], unit_vector(3, y - 1))
                assert got == expect, (x, y)


def test_square_zero_on_random_cochains(lie3, sl2_like, three_lie4, rng):
    for alg in (lie3, sl2_like, three_lie4):
        rho = adjoint_representation(alg)
        for degree in (1, 2):
            samples = [rand_cochain(rng, alg.arity, alg.dim, alg.dim, degree)
                       for _ in range(3)]
            assert check_complex(alg, rho, degree, samples)


def test_reynolds_representation_represents_induced(lie3, family1, family2):
    from nliealg.algebra import check_representation
    for op in (family1, family2):
        rho = reynolds_representation(lie3, op)
        induced = induced_bracket(lie3, op)
        assert check_representation(induced, rho)


def test_delta_r_is_a_one_cocycle_of_the_complex(lie3, family1):
    cx = ReynoldsComplex(lie3, family1)
    for tup in cx.tuples:
        f = Cochain.from_operator(2, delta_r_operator(lie3, family1, wedge_single(tup, 3)))
        assert coboundary(cx.induced, cx.rho, f).is_zero()


def test_cohomology_dimensions_family1(lie3, family1):
    cx = ReynoldsComplex(lie3, family1)
    dims = cx.dimensions(1)
    assert dims[0] == (0, 2, 0, 2)
    assert dims[1][3] == 5


def test_cohomology_dimensions_family2(lie3, family2):
    cx = ReynoldsComplex(lie3, family2)
    dims = cx.dimensions(1)
    assert dims[0][3] == 1
    assert dims[1][3] == 3


def test_cohomology_dimensions_abelian(abelian33):
    cx = ReynoldsComplex(abelian33, Matrix.zero(3))
    dims = cx.dimensions(1)
    assert dims[0][3] == 3
    assert dims[1][3] == 9


def test_size_guard_triggers(lie3, family1):
    cx = ReynoldsComplex(lie3, family1)
    with pytest.raises(SizeGuardError):
        cx.differential_matrix(2, size_guard=10)
    with pytest.raises(SizeGuardError):
        cx.dimensions(2, size_guard=10)
    # delta_R is 9x3: the guard bounds it like every other differential
    with pytest.raises(SizeGuardError, match="degree 0 needs a 9x3 matrix, over the guard 26"):
        cx.dimensions(0, size_guard=26)
    with pytest.raises(SizeGuardError, match="degree 0"):
        cx.differential_matrix(0, size_guard=1)
    assert cx.dimensions(0, size_guard=27) == [(0, 2, 0, 2)]


def test_degree_guard_bounds_a_one_element_wedge_basis(tmp_path):
    """A 1-dim Lie algebra (and arity 3 on dim 2) has 1x1 (4x4) differentials,
    which never trip the cell guard; the reads of all of them do, before any
    is assembled, and the note names the degree."""
    alg, zero = tmp_path / "g1.json", tmp_path / "zero1.json"
    alg.write_text(emit_document(algebra_document(NAryAlgebra(2, 1, {}))))
    zero.write_text(emit_document(operator_document(Matrix.zero(1))))
    argv = ["cohomology", "--algebra", str(alg), "--reynolds", str(zero), "--max-degree"]
    start = time.perf_counter()
    report, code = run_command(argv + ["100000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report.notes == [
        "error: differentials up to degree 181 read about 2026115 cochain slots, over the guard 2000000"]
    report, code = run_command(argv + ["20"])
    assert code == 0 and [row["dimension"] for row in report.artifacts[0]["rows"]] == [1] * 21
    with pytest.raises(SizeGuardError, match="up to degree 113 "):
        ReynoldsComplex(NAryAlgebra(3, 2, {}), Matrix.zero(2)).dimensions(100000)


def test_cochain_arithmetic_refuses_mismatched_shapes():
    """Sums and differences line the data up slot by slot, so the two
    cochains must agree in arity, dim, module_dim and degree."""
    f = Cochain(2, 2, 2, 2, range(8))
    assert (f + f).data == tuple(2 * a for a in range(8)) and (f - f).is_zero()
    for g, h in ((Cochain(2, 2, 2, 1, [1, 2, 3, 4]), f), (Cochain(2, 2, 1, 2, range(4)), f),
                 (Cochain(2, 2, 2, 3, range(16)), f),
                 # the same data length: the arity would silently be the first one's
                 (Cochain(3, 3, 3, 2, range(27)), Cochain(2, 3, 3, 2, range(27)))):
        for combined in (lambda: g + h, lambda: h - g):
            with pytest.raises(InputError, match="cochain shapes"):
                combined()


def test_complex_requires_reynolds(lie3):
    with pytest.raises(PreconditionError):
        ReynoldsComplex(lie3, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_published_table_lie3_family1_to_degree_3(lie3, family1):
    assert ReynoldsComplex(lie3, family1).dimensions(3) == [
        (0, 2, 0, 2), (1, 6, 1, 5), (2, 13, 3, 10), (3, 34, 14, 20)]


def test_zero_operator_on_three_lie4_to_degree_2(three_lie4):
    """With R = 0 the induced bracket and rho_R vanish, so every
    differential is zero and H^m = C^m."""
    cx = ReynoldsComplex(three_lie4, Matrix.zero(4))
    assert [row[3] for row in cx.dimensions(2)] == [6, 16, 96]


# -- the assembled differential against the column-by-column oracle --------


def dense_differential(cx, m):
    """d_m column by column: ``coboundary`` on each basis cochain."""
    n, d = cx.base.arity, cx.base.dim
    src = cx.cochain_dim(m)
    cols = []
    for c in range(src):
        data = [Fraction(0)] * src
        data[c] = Fraction(1)
        cols.append(coboundary(cx.induced, cx.rho, Cochain(n, d, d, m, data)).data)
    return Matrix([[cols[c][r] for c in range(src)] for r in range(cx.cochain_dim(m + 1))])


def simple_a4():
    """The simple 3-Lie algebra A_4: [e_1..^e_i..e_4] = (-1)^(4+i) e_i."""
    return NAryAlgebra(3, 4, {
        tuple(k for k in range(1, 5) if k != i): [(-1) ** (4 + i) if k == i else 0 for k in range(1, 5)]
        for i in range(1, 5)
    })


def conjugate(alg, op, rng):
    """(phi.g, phi R phi^-1) for a seeded invertible integer phi."""
    while True:
        phi = Matrix([[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)])
        if phi.rank() == alg.dim:
            return conjugate_by(alg, op, phi)


def conjugate_by(alg, op, phi):
    """(phi.g, phi R phi^-1) for an invertible phi."""
    inv = phi.inverse()
    moved = algebra_from_bracket_function(
        alg.arity, alg.dim,
        lambda tup: phi.apply(alg.bracket([inv.apply(u) for u in alg.units(tup)])))
    return moved, phi @ op @ inv


def _oracle_cases():
    lie3 = NAryAlgebra(2, 3, {(1, 2): [0, 1, 0]})
    family1 = Matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])
    family2 = Matrix([[-1, 1, 0], [-1, 1, 0], [0, 0, 1]])
    sl2_like = NAryAlgebra(2, 3, {(1, 2): [0, 0, 1], (1, 3): [-2, 0, 0], (2, 3): [0, 2, 0]})
    a4 = simple_a4()
    return {
        "lie3/family1": (lie3, family1, 3),
        "lie3/family2": (lie3, family2, 3),
        "abelian33/zero": (NAryAlgebra(3, 3, {}), Matrix.zero(3), 2),
        "sl2_like/zero": (sl2_like, Matrix.zero(3), 2),
        "three_lie4/zero": (NAryAlgebra(3, 4, {(1, 2, 3): [0, 0, 0, 1]}), Matrix.zero(4), 1),
        "a4/ad12": (a4, derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4))), 1),
        "lie3/family1/conjugate": conjugate(lie3, family1, random.Random(31)) + (2,),
    }


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_assembled_differential_equals_coboundary_columns(case):
    alg, op, top = ORACLE_CASES[case]
    cx = ReynoldsComplex(alg, op)
    for m in range(1, top + 1):
        sparse = cx.differential_matrix(m)
        assert isinstance(sparse, Matrix)
        assert Matrix(sparse.entries) == dense_differential(cx, m), (case, m)


def test_conjugate_fixture_is_a_dense_change_of_basis():
    alg, op, _ = ORACLE_CASES["lie3/family1/conjugate"]
    assert ReynoldsComplex(alg, op).dimensions(2) == [(0, 2, 0, 2), (1, 6, 1, 5), (2, 13, 3, 10)]
    assert sum(1 for row in op.entries for a in row if a) > 5


def test_a_nonzero_square_on_an_n_lie_algebra_is_a_bug(lie3, family1, docs, monkeypatch):
    """A corrupt rho_R table of the integer pair, which the assembled d_1 and
    the coboundary formula read alike, so the cross-check agrees: d_1 d_0 is
    then nonzero on an n-Lie algebra with a verified R, which the paper's
    theorem forbids, so it is a bug trap (exit 3), not a failed precondition."""
    init = ReynoldsComplex.__init__

    def corrupt(self, algebra, op):
        init(self, algebra, op)
        rho = self._pair[1]
        rho.tables[(1,)] = rho.matrix_for_tuple((1,)) + Matrix.identity(3)

    monkeypatch.setattr(ReynoldsComplex, "__init__", corrupt)
    with pytest.raises(InternalConsistencyError, match="differential square is nonzero at degree 1"):
        ReynoldsComplex(lie3, family1).dimensions(1)
    report, code = run_command(["cohomology", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"]])
    assert code == 3 and report.notes == ["internal error: differential square is nonzero at degree 1"]


def test_corrupted_entry_trips_the_cross_check(lie3, family1, monkeypatch):
    """The note names the degree, the output slot (blocks, e_j, coordinate v)
    of the corrupted row and both values; the test cochain is nonzero in
    every slot, so that row is the first output that differs."""
    assemble = ReynoldsComplex._assemble
    corrupted = []

    def corrupt(self, m):
        mat = assemble(self, m)
        r, row = next((r, row) for r, row in enumerate(mat.row_maps) if row)
        col = next(iter(row))
        row[col] += 1
        corrupted.append((r, col))
        return mat

    monkeypatch.setattr(ReynoldsComplex, "_assemble", corrupt)
    with pytest.raises(InternalConsistencyError) as caught:
        ReynoldsComplex(lie3, family1).dimensions(2)
    # degree 1 is checked first; lie3 has Lambda^1 blocks (1,), (2,), (3,),
    # and its C^2 slot (x, j, v) is the row index r in base 3
    r, col = corrupted[0]
    x, j, v = r // 9, r // 3 % 3, r % 3
    note = str(caught.value)
    assert "differential at degree 1 disagrees" in note
    assert f"at blocks (({x + 1},),), e_{j + 1}, coordinate {v + 1}: assembled " in note
    assembled, formula = note.split(": assembled ")[1].split(" (")[0].split(", formula ")
    # the corrupted entry adds the test cochain's value 1 + col % 7 to the output
    assert int(assembled) - int(formula) == 1 + col % 7


def test_coboundary_matches_naive_oracle(lie3, family1, family2, sl2_like, three_lie4):
    """Whole cochains equal the parent formula's, at degrees 1 to 3, on
    representations, non-representations, exact and integer pairs with a
    scale D != 1, a dense change of basis and dual-number cochains."""
    rng = random.Random(89)
    pairs = []
    for op, degrees in ((family1, (1, 2, 3)), (family2, (1, 2))):
        cx = ReynoldsComplex(lie3, op)
        pairs.append((cx.induced, cx.rho, degrees))
    pairs.append((sl2_like, adjoint_representation(sl2_like), (1, 2)))
    pairs.append((three_lie4, adjoint_representation(three_lie4), (1,)))
    a4 = simple_n_lie(3)
    cx = ReynoldsComplex(a4, derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4))))
    assert cx._scale != 1
    pairs += [(cx.induced, cx.rho, (1, 2)), (*cx._pair, (1,))]
    cx = ReynoldsComplex(*ORACLE_CASES["lie3/family1/conjugate"][:2])
    assert cx._scale != 1
    pairs.append((cx.induced, cx.rho, (1, 2)))
    pairs.append((lie3, RepresentationTable(2, 3, 2, {
        (1,): [[1, 2], [0, -1]], (3,): [[0, 1], [Fraction(1, 2), 0]]}), (1, 2)))
    for alg, rho, degrees in pairs:
        for m in degrees:
            for dual in (False, True):
                f = rand_cochain(rng, alg.arity, alg.dim, rho.module_dim, m)
                if dual:
                    f = Cochain(f.arity, f.dim, f.module_dim, m,
                                [Dual(a, rng.randint(-1, 1)) if rng.random() < 0.3 else a for a in f.data])
                assert coboundary(alg, rho, f) == naive_coboundary(alg, rho, f), (alg.dim, m, dual)


def test_assemble_forms_pair_actions_only_from_degree_2(lie3, family1, monkeypatch):
    """Degree 1 has no pair terms, so ``_assemble(1)`` forms no X_x o X_y;
    degree 2 forms each of the b x b once, from the ``ad_table`` of the
    integer pair, so neither expands a basis bracket."""
    cx = ReynoldsComplex(lie3, family1)
    counts = {"actions": 0, "brackets": 0}
    action, bracket_on_basis = cohomology_module._action, NAryAlgebra.bracket_on_basis

    def counted_action(*args):
        counts["actions"] += 1
        return action(*args)

    def counted_bracket(self, indices):
        counts["brackets"] += 1
        return bracket_on_basis(self, indices)

    monkeypatch.setattr(cohomology_module, "_action", counted_action)
    monkeypatch.setattr(cohomology_module, "fundamental_action", None)
    monkeypatch.setattr(NAryAlgebra, "bracket_on_basis", counted_bracket)
    cx._assemble(1)
    assert counts == {"actions": 0, "brackets": 0}
    cx._assemble(2)
    assert counts == {"actions": 3 * 3, "brackets": 0}


# -- rho_R, delta_R and the integer pair ------------------------------------


def _tabulation_cases():
    """Every oracle case, seeded dense conjugates of three of them, and the
    simple 4-Lie algebra A_5, where the wedges of R-images have three slots."""
    cases = {name: case[:2] for name, case in ORACLE_CASES.items()}
    for name in ("lie3/family2", "a4/ad12", "sl2_like/zero"):
        for s in (7, 8):
            cases[f"{name}/conjugate{s}"] = conjugate(*ORACLE_CASES[name][:2], random.Random(s))
    a5 = simple_n_lie(4)
    cases["a5/ad123"] = a5, derivation_to_reynolds(a5, ad(a5, wedge_single((1, 2, 3), 5)))
    cases["a5/ad123/conjugate3"] = conjugate(*cases["a5/ad123"], random.Random(3))
    return cases


TABULATION_CASES = _tabulation_cases()


@pytest.mark.parametrize("case", sorted(TABULATION_CASES))
def test_rho_and_delta_equal_naive_oracles(case):
    alg, op = TABULATION_CASES[case]
    cx = ReynoldsComplex(alg, op)
    assert cx.induced == induced_bracket(alg, op)
    assert cx.rho.tables == naive_reynolds_representation(alg, op).tables
    assert Matrix(cx.differential_matrix(0).entries) == naive_delta_matrix(alg, op)


def test_a_non_reynolds_operator_fails_the_tabulation_as_it_fails_the_walk(monkeypatch):
    """An operator one entry away from each tabulation case raises the
    ``PreconditionError`` of ``reynolds.verified_values``, with the same note
    and counterexample (the first failing tuple in ``basis_tuples`` order and
    both sides), before any differential is built."""
    def untouched(*_):
        raise AssertionError("built a differential")

    monkeypatch.setattr(cohomology_module, "_delta", untouched)
    monkeypatch.setattr(ReynoldsComplex, "_assemble", untouched)
    rng = random.Random(53)
    tuples = set()
    for name, (alg, op) in sorted(TABULATION_CASES.items()):
        d = alg.dim
        for _ in range(4):
            i, j = rng.randrange(d), rng.randrange(d)
            bump = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))
            moved = op + Matrix.sparse(d, d, [{j: bump} if r == i else {} for r in range(d)])
            walk = check_reynolds(alg, moved)
            if walk:  # on the abelian algebra every operator is Reynolds
                continue
            for build in (ReynoldsComplex, reynolds_representation):
                with pytest.raises(PreconditionError, match="^operator is not a Reynolds operator$") as exc:
                    build(alg, moved)
                assert exc.value.counterexample == walk.counterexample, name
            tuples.add(walk.counterexample["where"]["tuple"])
    # failures past the first tuple of the walk, where its order decides
    assert {(1, 3), (2, 3), (1, 3, 4)} <= tuples


def test_a_non_reynolds_operator_is_refused_after_one_walk_and_no_table(lie3, monkeypatch):
    """The complex verifies R by the walk of ``check_reynolds``, once, and
    refuses a non-Reynolds R with its counterexample before any rho_R table
    is built."""
    op = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    walk, walks = reynolds_module.reynolds_values, []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    def untouched(*_):
        raise AssertionError("built a rho_R table")

    expected = check_reynolds(lie3, op)
    assert not expected
    monkeypatch.setattr(reynolds_module, "reynolds_values", counted)
    monkeypatch.setattr(cohomology_module, "reynolds_tables", untouched)
    with pytest.raises(PreconditionError, match="^operator is not a Reynolds operator$") as exc:
        ReynoldsComplex(lie3, op)
    assert exc.value.counterexample == expected.counterexample
    assert len(walks) == 1


def test_integer_pair_is_d_times_the_exact_pair():
    """(D [.]_R, D rho_R) in int, an n-Lie algebra with a representation,
    and every integer matrix ``dimensions`` ranks is a multiple of the
    exact one; the exact tables are reused as they are when D = 1."""
    scales = {}
    for name, (alg, op) in TABULATION_CASES.items():
        cx = ReynoldsComplex(alg, op)
        scale, (induced, rho) = cx._scale, cx._pair
        scales[name] = scale
        assert induced.brackets == {key: [scale * x for x in vec] for key, vec in cx.induced.brackets.items()}
        assert rho.tables == {key: mat.scale(scale) for key, mat in cx.rho.tables.items()}
        values = [x for vec in induced.brackets.values() for x in vec]
        values += [x for mat in rho.tables.values() for row in mat.entries for x in row]
        assert all(type(x) is int for x in values)
        assert check_filippov(induced) and check_representation(induced, rho)
        if scale == 1:
            assert induced is cx.induced and rho is cx.rho
        top = ORACLE_CASES[name][2] if name in ORACLE_CASES else 1
        for m in range(top + 1):
            d_scale, mat = cx._integer_differential(m)
            assert m == 0 or d_scale == scale
            assert all(type(x) is int for row in mat.row_maps for x in row.values())
            assert Matrix(mat.entries) == Matrix(cx.differential_matrix(m).entries).scale(d_scale)
    assert scales["a4/ad12"] > 1 and scales["lie3/family1/conjugate"] > 1 and scales["lie3/family1"] == 1


@st.composite
def unimodular(draw, d):
    """phi = L.U with L, U unitriangular and entries in {-1, 0, 1}: an
    integer change of basis with an integer inverse."""
    entry = st.integers(-1, 1)
    lower = Matrix([[1 if i == j else draw(entry) if i > j else 0 for j in range(d)] for i in range(d)])
    upper = Matrix([[1 if i == j else draw(entry) if j > i else 0 for j in range(d)] for i in range(d)])
    return lower @ upper


DIMENSION_CASES = ("lie3/family1", "lie3/family2", "sl2_like/zero", "a4/ad12")


@seed(20261018)
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data(), name=st.sampled_from(DIMENSION_CASES))
def test_dimensions_are_invariant_under_a_unimodular_change_of_basis(data, name):
    alg, op, _ = ORACLE_CASES[name]
    top = 1 if alg.arity > 2 else 2
    phi = data.draw(unimodular(alg.dim))
    moved = ReynoldsComplex(*conjugate_by(alg, op, phi))
    assert moved.dimensions(top) == ReynoldsComplex(alg, op).dimensions(top)


def test_dual_number_operator_is_rejected_before_tabulation(lie3, family1, monkeypatch):
    def untouched(*_):
        raise AssertionError("tabulated a dual-number operator")

    monkeypatch.setattr("nliealg.cohomology.reynolds_tables", untouched)
    monkeypatch.setattr("nliealg.cohomology.integer_brackets", untouched)
    for direction in (Matrix.identity(3), family1):
        with pytest.raises(UnsupportedRingError):
            ReynoldsComplex(lie3, family1 + direction.scale(EPS))
