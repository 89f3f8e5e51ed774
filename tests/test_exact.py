"""No float, ever: integral scalars are plain ``int``, the others
``Fraction``, on every exact path.

``int / int`` is a float in Python, so every division in the library must
have a ``Fraction`` operand, and a sign must not be spelled ``(-1) ** k``
(a float for negative k).  The walker then checks what actually comes out:
every CLI report, every verdict and every library object built on a set of
inputs like the benchmark's.  On the inputs side, every constructor refuses
what is not exact, key by key and scalar by scalar: each key
``wedge.canonical`` refuses and each scalar that ``rings.rational`` refuses
is an ``InputError`` (a dual number where the ring has none, an
``UnsupportedRingError``), never a ``TypeError`` and never stored.
"""

import ast
import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

import nliealg
from nliealg.algebra import (
    NAryAlgebra,
    RepresentationTable,
    ad,
    adjoint_representation,
    algebra_from_bracket_function,
    check_filippov,
    check_representation,
    semidirect_product,
)
from nliealg.cli import COMMANDS, run_command
from nliealg.cohomology import Cochain, ReynoldsComplex, coboundary, delta_r_operator
from nliealg.constructions import LinearFunctional, extend_by_functional
from nliealg.deformation import (
    TrivialityResult,
    check_equivalence_witness,
    is_infinitesimal_deformation,
    is_trivial_deformation,
)
from nliealg.errors import InputError, UnsupportedRingError
from nliealg.documents import (
    Report,
    algebra_document,
    emit_document,
    functional_document,
    ns_document,
    operator_document,
    parse_document,
    representation_document,
)
from nliealg.linalg import Matrix
from nliealg.nijenhuis import deformed_algebra
from nliealg.ns import NSAlgebra, check_ns, ns_from_nijenhuis, ns_from_reynolds, subadjacent
from nliealg.reynolds import (
    check_reynolds,
    derivation_to_reynolds,
    induced_bracket,
    reynolds_to_derivation,
)
from nliealg.rings import EPS, Dual, parse_rational, rational, sign
from nliealg.verdict import CheckResult
from nliealg.wedge import increasing_tuples

from conftest import euler_derivation, simple_n_lie, wedge_single

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "nliealg").glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _is_fraction_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"


def _is_minus_one(node):
    try:
        return ast.literal_eval(node) == -1
    except ValueError:
        return False


def test_every_division_has_a_fraction_operand():
    divisions = []
    for name, node in _nodes():
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            divisions.append((name, node.lineno, node.left, node.right))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            divisions.append((name, node.lineno, node.target, node.value))
    assert len(SOURCES) > 10 and divisions
    bad = [(name, line) for name, line, *operands in divisions if not any(map(_is_fraction_call, operands))]
    assert bad == []


def test_no_power_has_base_minus_one():
    bad = [
        (name, node.lineno)
        for name, node in _nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_minus_one(node.left)
    ]
    assert bad == []


def test_every_imported_name_is_read():
    """No module of ``src/`` but ``__init__``, and no test module, imports a
    name it never reads."""
    unused = []
    assert len(TESTS) > 10
    for path in SOURCES + TESTS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [(path.parent.name, path.name, name) for name in names if name not in read]
    assert unused == []


def _reads(tree):
    """Counters of the names loaded (``ast.Name``) and the attributes read
    (``ast.Attribute``) under ``tree``."""
    loads, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
    return loads, attrs


def _commands():
    """Each function or encoder that an entry of ``cli.COMMANDS`` names as a
    string: the attribute of its "module.attribute"."""
    return Counter(part.rsplit(".", 1)[-1] for fn, _, emit in COMMANDS.values()
                   for part in (fn, emit) if isinstance(part, str))


# public module-level functions and methods of ``src/`` that nothing there
# names, each with the reason it stays
UNNAMED_PUBLIC = {
    ("__init__.py", "__getattr__"): "PEP 562 hooks, called by the import system",
    ("__init__.py", "__dir__"): "PEP 562 hooks, called by the import system",
    ("documents.py", "functional_document"): "bench/tracer.py patches it; tests write functional documents with it",
    ("documents.py", "representation_document"): "bench/tracer.py patches it; construct entries are to emit "
                                                 "representations through it (ROADMAP item 4)",
    ("constructions.py", "check_reynolds_on_det_3lie"): "decides the paper's det-3 theorem by its criterion; "
                                                        "to be exposed as a check command (ROADMAP item 4)",
    ("nijenhuis.py", "nijenhuis_representation"): "the paper's representation of a Nijenhuis operator; to be "
                                                  "emitted by construct (ROADMAP item 4)",
    ("ns.py", "NSAlgebra.curly"): "bench/tracer.py counts its calls; the conftest NS oracles expand the curly "
                                  "bracket through it",
    ("cohomology.py", "Cochain.evaluate"): "bench/tracer.py patches it; the conftest coboundary oracle evaluates "
                                           "cochains on wedge elements through it",
    ("cohomology.py", "Cochain.to_operator"): "degree-1 classes are to be emitted as operators through it "
                                              "(ROADMAP item 11)",
    ("cohomology.py", "ReynoldsComplex.differential_matrix"): "the exact d_m the README documents as a public "
                                                              "value; bench/tracer.py patches it",
    ("linalg.py", "Matrix.nullspace_basis"): "the conftest solvers use it, and kernel witnesses are to be read "
                                             "off it (ROADMAP item 7)",
}


def test_every_private_definition_is_named_elsewhere():
    """Every ``_private`` function, class or method defined at module or
    class level in ``src/``, and every public module-level function and
    public method, is named somewhere in ``src/`` outside its own
    definition: a helper whose last caller is gone is deleted with it.  A
    module-level definition is named by a load of its name, a read of it as
    an attribute, or an entry of ``cli.COMMANDS``; a method by a read of it
    as an attribute only, so neither a string such as a document key nor a
    local variable of the same name counts.  A public function may instead
    be exported in ``nliealg.__all__``, and a public function or method
    listed, with its reason, in ``UNNAMED_PUBLIC``; a method is listed as
    ``Class.method``."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    loads, attrs, commands = Counter(), Counter(), _commands()
    for tree in trees:
        tree_loads, tree_attrs = _reads(tree)
        loads.update(tree_loads)
        attrs.update(tree_attrs)
    unused, public = [], []
    for path, tree in zip(SOURCES, trees):
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                private = node.name.startswith("_") and not node.name.endswith("__")
                if not private and (isinstance(node, ast.ClassDef) or scope is not tree and node.name.endswith("__")):
                    continue
                inside_loads, inside_attrs = _reads(node)
                if scope is tree:
                    named = loads[node.name] + attrs[node.name] + commands[node.name]
                    inside = inside_loads[node.name] + inside_attrs[node.name]
                else:
                    named, inside = attrs[node.name], inside_attrs[node.name]
                if named > inside:
                    continue
                if private:
                    unused.append((path.name, node.name))
                elif scope is not tree:
                    public.append((path.name, f"{scope.name}.{node.name}"))
                elif node.name not in nliealg.__all__:
                    public.append((path.name, node.name))
    assert sum(loads.values()) > 4000 and sum(attrs.values()) > 500 and len(commands) > 15
    assert unused == []
    assert sorted(public) == sorted(UNNAMED_PUBLIC)


# -- the walker ----------------------------------------------------------------


def scalars(obj):
    """Every scalar reachable from a result, report or library object."""
    if isinstance(obj, Matrix):
        yield from scalars(obj.row_maps)
    elif isinstance(obj, NAryAlgebra):
        yield from scalars(obj.brackets)
    elif isinstance(obj, NSAlgebra):
        yield from scalars([obj.curly_table, obj.square])
    elif isinstance(obj, RepresentationTable):
        yield from scalars(obj.tables)
    elif isinstance(obj, LinearFunctional):
        yield from scalars(obj.coefficients)
    elif isinstance(obj, Cochain):
        yield from scalars(obj.data)
    elif isinstance(obj, Dual):
        yield from (obj.a, obj.b)
    elif isinstance(obj, CheckResult):
        yield from scalars(obj.counterexample)
    elif isinstance(obj, TrivialityResult):
        yield from scalars(obj.witness)
    elif isinstance(obj, Report):
        yield from scalars([obj.verdicts, obj.artifacts])
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from scalars(key)
            yield from scalars(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from scalars(value)
    elif obj is not None and not isinstance(obj, str):
        yield obj


def assert_exact(obj, seen):
    """Every scalar of ``obj`` is an int or a Fraction: never a float or a bool."""
    for x in scalars(obj):
        assert type(x) in (int, Fraction), (type(x), x, obj)
        seen.add(type(x))


def assert_exact_report(report, seen):
    """The parsed ``--json`` report: numbers are ints, the only bools are
    the verdicts' ``passed``, and compared vectors are written as strings."""
    payload = json.loads(report.to_json())
    for verdict in payload["verdicts"]:
        assert verdict.pop("passed") in (True, False)
        ce = verdict.get("counterexample")
        if ce is not None:
            for key in ("lhs", "rhs", "difference"):
                for x in ce[key]:
                    dual = isinstance(x, dict) and sorted(x) == ["a", "b"]
                    assert isinstance(x, str) or dual and all(isinstance(v, str) for v in x.values())
                    seen.add("counterexample")
    for x in scalars(payload):
        assert type(x) is int, (type(x), x)


def conjugate(alg, op, phi, phi_inv):
    """(alg, op) moved to the basis given by the columns of phi."""
    moved = algebra_from_bracket_function(
        alg.arity, alg.dim,
        lambda tup: phi_inv.apply(alg.bracket([phi.apply(u) for u in alg.units(tup)])))
    return moved, phi_inv @ op @ phi


def unimodular(d):
    """A dense integer change of basis with an integer inverse: L.U, both
    unitriangular with +-1 off the diagonal."""
    lower = Matrix([[1 if i == j else sign(i + j) if i > j else 0 for j in range(d)] for i in range(d)])
    upper = Matrix([[1 if i == j else sign(i) if j > i else 0 for j in range(d)] for i in range(d)])
    phi = lower @ upper
    return phi, phi.inverse()


def off_by_half(ns):
    """``ns`` with its first curly entry moved by 1/2: a failing structure
    with a Fraction entry."""
    curly = {key: list(vec) for key, vec in ns.curly_table.items()}
    curly.setdefault((tuple(range(1, ns.arity)), 1), [0] * ns.dim)[0] += Fraction(1, 2)
    return NSAlgebra(ns.arity, ns.dim, curly, ns.square.brackets)


def bench_like_pairs(lie3, family1, family2):
    """Algebras with Reynolds operators as the benchmark draws them: A_4
    with an ad-series operator and 2.Id, lie3 with its two families, and
    conjugates of them by a unimodular change of basis."""
    a4 = simple_n_lie(3)
    r4 = derivation_to_reynolds(a4, ad(a4, wedge_single((1, 2), 4)))
    pairs = [(lie3, family1), (lie3, family2), (a4, r4), (a4, Matrix.identity(4).scale(2))]
    phi, phi_inv = unimodular(3)
    pairs.append(conjugate(lie3, family1, phi, phi_inv))
    phi, phi_inv = unimodular(4)
    pairs.append(conjugate(*pairs[2], phi, phi_inv))
    return pairs


def test_cli_reports_and_library_objects_hold_no_float(docs, tmp_path, lie3, family1, family2, trunc_xy,
                                                       monkeypatch):
    seen = set()
    pairs = bench_like_pairs(lie3, family1, family2)
    paths = dict(docs)
    # every (D, D d_m) that ``dimensions`` builds, from the CLI and the library
    built = []
    integer_differential = ReynoldsComplex._integer_differential

    def recorded(self, m):
        built.append(integer_differential(self, m))
        return built[-1]

    monkeypatch.setattr(ReynoldsComplex, "_integer_differential", recorded)

    def write(name, doc):
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(emit_document(doc))
        return paths[name]

    # every CLI fixture document, through every command that reads it
    argvs = [
        ["check", "filippov", "--algebra", docs["g.json"]],
        ["check", "reynolds", "--algebra", docs["g.json"], "--operator", docs["r1.json"]],
        ["check", "reynolds", "--algebra", docs["g.json"], "--operator", docs["ident3.json"]],
        ["check", "derivation", "--algebra", docs["g.json"], "--operator", docs["ident3.json"]],
        ["check", "nijenhuis", "--algebra", docs["g.json"], "--operator", docs["r1.json"]],
        ["check", "lift", "--algebra", docs["g.json"], "--operator", docs["r1.json"],
         "--functional", docs["f.json"]],
        ["construct", "gf", "--algebra", docs["g.json"], "--functional", docs["f.json"]],
        ["construct", "corollary", "--algebra", docs["g.json"], "--operator", docs["r1.json"],
         "--functional", docs["f.json"]],
        ["construct", "induced", "--algebra", docs["g.json"], "--operator", docs["r1.json"]],
        ["construct", "semidirect", "--algebra", docs["g.json"]],
        ["construct", "deformed", "--algebra", docs["g.json"], "--operator", docs["ident3.json"]],
        ["cohomology", "--algebra", docs["ab33.json"], "--reynolds", docs["zero3.json"], "--max-degree", "1"],
        ["cohomology", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"]],
        ["deform", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"],
         "--direction", docs["zero3.json"]],
        ["operator", "to-derivation", "--algebra", docs["g.json"], "--operator", docs["r1.json"]],
        ["check", "filippov", "--algebra", docs["bad.json"]],
    ]
    # the determinant constructions on a truncated polynomial algebra
    write("trunc.json", algebra_document(trunc_xy))
    for name, degrees in (("dx", [0, 1, 0, 1]), ("dy", [0, 0, 1, 1]), ("dxy", [0, 1, 1, 2])):
        write(f"{name}.json", operator_document(euler_derivation(4, degrees)))
    write("f1.json", functional_document(LinearFunctional([1, 0, 0, 0])))
    det3 = ["construct", "det3", "--algebra", paths["trunc.json"]]
    argvs += [
        det3 + ["--variant", "fd", "--operator", paths["dx.json"], "--functional", paths["f1.json"]],
        det3 + ["--variant", "dd", "--operator", paths["dx.json"], "--operator", paths["dy.json"]],
        det3 + ["--variant", "ddd"] + [a for n in ("dx", "dy", "dxy")
                                       for a in ("--operator", paths[f"{n}.json"])],
        ["check", "assoc-reynolds", "--algebra", paths["trunc.json"], "--operator", paths["dx.json"]],
    ]
    # the benchmark-like set, with passing and failing verdicts
    for k, (alg, op) in enumerate(pairs):
        d, n = alg.dim, alg.arity
        g = write(f"alg{k}.json", algebra_document(alg))
        r = write(f"op{k}.json", operator_document(op))
        half = write(f"half{k}.json", operator_document(op.scale(Fraction(1, 2))))
        tup = increasing_tuples(d, n - 1)[0]
        s = write(f"dir{k}.json", operator_document(delta_r_operator(alg, op, wedge_single(tup, d))))
        doubled = {key: m.scale(2) for key, m in adjoint_representation(alg).tables.items()}
        rho = write(f"rep{k}.json", representation_document(RepresentationTable(n, d, d, doubled)))
        # a failing check ns reports its scaled integer sides divided back by D^2
        bad_ns = write(f"ns{k}.json", ns_document(off_by_half(ns_from_reynolds(alg, op))))
        for c in ("1", "-1/2"):
            witness = write(f"x{k}{c[0]}.json", {"kind": "wedge_element", "dim": d, "arity": n,
                                                  "terms": [{"on": list(tup), "coeff": c}]})
            argvs.append(["deform", "--algebra", g, "--reynolds", r, "--direction", s, "--witness", witness])
        argvs += [
            ["check", "reynolds", "--algebra", g, "--operator", r],
            ["check", "reynolds", "--algebra", g, "--operator", half],
            ["check", "representation", "--algebra", g, "--representation", rho],
            ["check", "ns", "--algebra", bad_ns],
            ["construct", "induced", "--algebra", g, "--operator", r],
            ["construct", "ns-from-reynolds", "--algebra", g, "--operator", r],
            ["construct", "ns-from-nijenhuis", "--algebra", g, "--operator", half],
            ["cohomology", "--algebra", g, "--reynolds", r, "--max-degree", "1"],
            ["deform", "--algebra", g, "--reynolds", r, "--direction", s],
            ["deform", "--algebra", g, "--reynolds", r, "--direction", half],
            ["operator", "to-derivation", "--algebra", g, "--operator", r],
        ]
    codes = set()
    for argv in argvs:
        report, code = run_command(argv + ["--json"])
        codes.add(code)
        assert_exact(report, seen)
        assert_exact_report(report, seen)
    assert codes == {0, 1, 2}

    # the library objects behind those commands
    for alg, op in pairs:
        d, n = alg.dim, alg.arity
        tup = increasing_tuples(d, n - 1)[-1]
        direction = delta_r_operator(alg, op, wedge_single(tup, d))
        dual_op = op + direction.scale(EPS)
        ns = ns_from_reynolds(alg, op)
        complex_ = ReynoldsComplex(alg, op)
        cochain = Cochain(n, d, d, 1, [c % 3 - 1 for c in range(d * d)])
        objects = [
            op.solve([1] * d), op.nullspace_basis(), dual_op, dual_op @ dual_op,
            induced_bracket(alg, op), ns, subadjacent(ns), check_ns(ns), check_ns(off_by_half(ns)),
            complex_.induced, complex_.rho, complex_.differential_matrix(0), complex_.differential_matrix(1),
            complex_.dimensions(1), coboundary(complex_.induced, complex_.rho, cochain), complex_._pair,
            check_reynolds(alg, dual_op), check_reynolds(alg, op.scale(Fraction(1, 2))),
            is_infinitesimal_deformation(alg, op, direction), is_trivial_deformation(alg, op, direction),
            is_trivial_deformation(alg, op, Matrix.zero(d)),
            check_equivalence_witness(alg, op, direction, Matrix.zero(d), {tup: Fraction(1, 2)}),
            semidirect_product(alg, adjoint_representation(alg)), check_filippov(alg),
            check_representation(alg, RepresentationTable(n, d, d, {
                key: m.scale(Fraction(-1, 3)) for key, m in adjoint_representation(alg).tables.items()})),
            deformed_algebra(alg, Matrix.identity(d).scale(3)),
            ns_from_nijenhuis(alg, Matrix.identity(d).scale(Fraction(1, 2))),
            parse_document(emit_document(ns_document(ns))),
        ]
        if op.rank() == d:
            objects += [op.inverse(), reynolds_to_derivation(alg, op)]
        assert_exact(objects, seen)
        # the integer pair holds ints only, whatever its scale
        assert {type(x) for x in scalars(complex_._pair)} == {int}
    assert len(built) > 3 * len(pairs) and {type(x) for x in scalars(built)} == {int}
    assert any(scale > 1 for scale, _ in built)
    assert_exact(extend_by_functional(lie3, LinearFunctional([1, 0, 1])), seen)
    assert {int, Fraction, "counterexample"} <= seen


# -- the inputs side -------------------------------------------------------------

# (what, key) refused by ``wedge.canonical``: a float, a bool, a str, wrong length, out of range, out of order
BAD_PAIRS = [(1.0, 2), (True, 3), ("a", "b"), (1, 2, 3), (1, 4), (0, 1), (2, 1)]
# the constructor of each key position, on dim 3, given one key, and its message
KEY_POSITIONS = {
    "bracket": (lambda key: NAryAlgebra(2, 3, {key: [1, 0, 0]}),
                "bracket key {key!r} is not a tuple of 2 ints in 1..3, strictly increasing"),
    "product": (lambda key: NAryAlgebra(2, 3, {key: [1, 0, 0]}, symmetry="symmetric"),
                "bracket key {key!r} is not a tuple of 2 ints in 1..3, non-decreasing"),
    "representation": (lambda key: RepresentationTable(3, 3, 1, {key: [[1]]}),
                       "representation key {key!r} is not a tuple of 2 ints in 1..3, strictly increasing"),
    "curly prefix": (lambda key: NSAlgebra(3, 3, {(key, 1): [1, 0, 0]}, {}),
                     "curly key {curly!r} is not (prefix, last): a tuple of 2 ints in 1..3, strictly increasing, "
                     "and an int in 1..3"),
    "square": (lambda key: NSAlgebra(3, 3, {}, {key + (3,) if len(key) == 2 else key: [1, 0, 0]}),
               "bracket key {square!r} is not a tuple of 3 ints in 1..3, strictly increasing"),
}


@pytest.mark.parametrize("position", KEY_POSITIONS)
@pytest.mark.parametrize("key", BAD_PAIRS, ids=repr)
def test_every_constructor_refuses_a_key_that_canonical_refuses(position, key):
    build, message = KEY_POSITIONS[position]
    square = key + (3,) if len(key) == 2 else key
    if position == "square" and square == (1, 2, 3):  # one index more is the valid 3-tuple
        square = key = (1, 2, 3, 3)
    with pytest.raises(InputError) as raised:
        build(key)
    assert str(raised.value) == message.format(key=key, curly=(key, 1), square=square)


@pytest.mark.parametrize("last", [1.0, True, "a", (1,), 0, 4])
def test_the_last_curly_index_is_a_key_of_length_1(last):
    with pytest.raises(InputError, match=r"^curly key .* is not \(prefix, last\)"):
        NSAlgebra(2, 3, {((1,), last): [1, 0, 0]}, {})
    for key in (1, ((1,),), ((1,), 2, 3)):  # not a pair
        with pytest.raises(InputError, match=r"^curly key .* is not \(prefix, last\)"):
            NSAlgebra(2, 3, {key: [1, 0, 0]}, {})


BAD_SCALARS = [0.1, True, "1/2", Dual(1, 1)]
# each scalar position of a constructor, given one scalar, and whether it admits dual numbers
SCALAR_POSITIONS = {
    "rational": (rational, False),
    "bracket value": (lambda x: NAryAlgebra(2, 3, {(1, 2): [0, x, 0]}), False),
    "product value": (lambda x: NAryAlgebra(2, 3, {(1, 1): [x, 0, 0]}, symmetry="symmetric"), False),
    "curly value": (lambda x: NSAlgebra(2, 3, {((1,), 2): [x, 0, 0]}, {}), False),
    "square value": (lambda x: NSAlgebra(2, 3, {}, {(1, 2): [0, 0, x]}), False),
    "functional": (lambda x: LinearFunctional([1, x]), False),
    "dual part": (lambda x: Dual(0, x), False),
    "representation matrix": (lambda x: RepresentationTable(2, 3, 2, {(1,): [[0, x], [0, 0]]}), True),
    "matrix": (lambda x: Matrix([[1, 0], [x, 1]]), True),
    "sparse matrix": (lambda x: Matrix.sparse(1, 2, [{0: 1, 1: x}]), True),
    "matrix scale": (lambda x: Matrix.identity(2).scale(x), True),
    "cochain": (lambda x: Cochain(2, 1, 1, 1, [x]), True),
}


@pytest.mark.parametrize("position", SCALAR_POSITIONS)
@pytest.mark.parametrize("value", BAD_SCALARS, ids=repr)
def test_every_constructor_refuses_a_scalar_that_rational_refuses(position, value):
    build, dual = SCALAR_POSITIONS[position]
    if isinstance(value, Dual):
        if dual:  # the ring of matrices and cochains holds dual numbers
            held = build(value)
            held = held.tables[1,] if isinstance(held, RepresentationTable) else held
            assert value in (held.data if isinstance(held, Cochain) else [a for r in held.row_maps for a in r.values()])
            return
        error, message = UnsupportedRingError, "dual number Dual(1, 1) where a rational scalar is required"
    else:
        error, message = InputError, f"a scalar must be an int or a Fraction, not {type(value).__name__} {value!r}"
    with pytest.raises(error) as raised:
        build(value)
    assert str(raised.value) == message


def test_a_literal_is_a_str_and_a_scalar_is_not():
    for value in (True, 1, 0.5, Fraction(1, 2)):
        with pytest.raises(InputError, match="^rational literal must be a string, got "):
            parse_rational(value)


@pytest.mark.parametrize("position", SCALAR_POSITIONS)
def test_every_constructor_stores_only_normalised_scalars(position):
    """The walker on the inputs side: each scalar position, given an int,
    an integral Fraction and a proper one, stores ints and proper Fractions."""
    build, _ = SCALAR_POSITIONS[position]
    seen = set()
    for value in (-3, Fraction(4, 2), Fraction(-2, 2), Fraction(6, 4)):
        held = build(value)
        assert_exact(held, seen)
        assert all(type(x) is int or x.denominator > 1 for x in scalars(held)), (value, held)
    assert seen == {int, Fraction}


def test_a_dual_operator_builds_no_bracket_table(lie3, family1):
    """A Reynolds operator over the dual numbers passes its check, but the
    bracket tables built from it refuse its dual entries."""
    dual_op = family1 + delta_r_operator(lie3, family1, wedge_single((2,), 3)).scale(EPS)
    assert check_reynolds(lie3, dual_op)
    for construction in (induced_bracket, ns_from_reynolds):
        with pytest.raises(UnsupportedRingError, match="^dual number Dual"):
            construction(lie3, dual_op)
