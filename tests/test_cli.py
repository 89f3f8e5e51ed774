import argparse
import json
import sys
from collections import Counter

from nliealg import cli
from nliealg.algebra import NAryAlgebra, adjoint_representation
from nliealg.cli import run_command
from nliealg.constructions import LinearFunctional
from nliealg.documents import (
    algebra_document,
    emit_document,
    functional_document,
    ns_document,
    operator_document,
    representation_document,
    wedge_document,
)
from nliealg.linalg import Matrix
from nliealg.ns import ns_from_reynolds

from conftest import euler_derivation


def test_check_filippov_passes(docs):
    report, code = run_command(["check", "filippov", "--algebra", docs["g.json"]])
    assert code == 0
    assert "PASS filippov" in report.to_text()


def test_check_reynolds_pass_and_fail(docs, tmp_path):
    report, code = run_command(
        ["check", "reynolds", "--algebra", docs["g.json"], "--operator", docs["r1.json"]])
    assert code == 0
    bad_op = tmp_path / "bad_op.json"
    bad_op.write_text(emit_document(operator_document(
        Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))))
    report, code = run_command(
        ["check", "reynolds", "--algebra", docs["g.json"], "--operator", str(bad_op)])
    assert code == 1
    assert report.to_text().startswith("FAIL reynolds")


def test_check_lift(docs):
    report, code = run_command([
        "check", "lift", "--algebra", docs["g.json"],
        "--operator", docs["r1.json"], "--functional", docs["f.json"]])
    assert code == 0


def test_construct_gf_artifact(docs):
    report, code = run_command([
        "construct", "gf", "--algebra", docs["g.json"], "--functional", docs["f.json"]])
    assert code == 0
    art = report.artifacts[0]
    assert art["kind"] == "n_lie_algebra"
    assert art["arity"] == 3
    assert art["brackets"] == [{"on": [1, 2, 3], "value": ["0", "1", "0"]}]


def test_cohomology_json_output(docs):
    report, code = run_command([
        "cohomology", "--algebra", docs["ab33.json"], "--reynolds", docs["zero3.json"],
        "--max-degree", "1", "--json"])
    assert code == 0
    payload = json.loads(report.to_json())
    rows = payload["artifacts"][0]["rows"]
    assert rows[0]["dimension"] == 3
    assert rows[1]["dimension"] == 9
    assert "timing" not in payload


def test_cohomology_frozen_dimensions(docs):
    report, code = run_command([
        "cohomology", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"]])
    assert code == 0
    rows = report.artifacts[0]["rows"]
    assert [r["dimension"] for r in rows] == [2, 5]


def test_deform_trivial_with_witness_artifact(docs):
    report, code = run_command([
        "deform", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"],
        "--direction", docs["zero3.json"]])
    assert code == 0
    assert any(n == "status: trivial" for n in report.notes)


def test_operator_to_derivation_singular_exit_2(docs):
    report, code = run_command([
        "operator", "to-derivation", "--algebra", docs["g.json"],
        "--operator", docs["r1.json"]])
    assert code == 2
    assert any(n.startswith("error:") for n in report.notes)


def test_operator_series_of_a_non_nilpotent_derivation_exit_2(docs):
    report, code = run_command([
        "operator", "series", "--algebra", docs["ab33.json"], "--operator", docs["ident3.json"]])
    assert code == 2
    assert report.notes == ["error: derivation is not nilpotent; the series does not terminate"]


def test_missing_file_exit_2(docs):
    report, code = run_command(["check", "filippov", "--algebra", "/no/such/file.json"])
    assert code == 2
    assert report.notes == ["error: no such file: /no/such/file.json"]


def test_unreadable_path_exit_2(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, binary):
        report, code = run_command(["check", "filippov", "--algebra", str(path)])
        assert code == 2
        assert report.notes[0].startswith(f"error: cannot read {path}: ")


def test_invalid_document_exit_2(docs):
    report, code = run_command(["check", "filippov", "--algebra", docs["bad.json"]])
    assert code == 2


def test_usage_error_exit_2():
    _, code = run_command(["check", "unknown-thing", "--algebra", "x"])
    assert code == 2


def test_json_flag_after_subcommand(docs):
    report, code = run_command([
        "check", "filippov", "--algebra", docs["g.json"], "--json"])
    assert code == 0
    payload = json.loads(report.to_json())
    assert payload["verdicts"][0]["passed"] is True


def test_json_flag_before_and_after_the_command(docs, capsys):
    """--json is read before the command, after it and after the flags."""
    tail = ["filippov", "--algebra", docs["g.json"]]
    outputs = []
    for argv in (["--json", "check"] + tail, ["check", "--json"] + tail, ["check"] + tail + ["--json"]):
        assert cli.main(argv) == 0
        outputs.append(json.loads(capsys.readouterr().out)["verdicts"])
    assert outputs == [[{"check": "filippov", "passed": True}]] * 3


def test_json_output_is_deterministic(docs):
    args = ["construct", "induced", "--algebra", docs["g.json"],
            "--operator", docs["r1.json"], "--json"]
    r1, _ = run_command(args)
    r2, _ = run_command(args)
    assert r1.to_json() == r2.to_json()


def test_construct_det3_requires_variant(docs):
    _, code = run_command([
        "construct", "det3", "--algebra", docs["g.json"],
        "--operator", docs["zero3.json"]])
    assert code == 2


def test_parser_is_built_once_and_reused(tmp_path, trunc_xy, capsys):
    """Later calls in one process print what a first call prints: the
    shared parser keeps no state between calls (``--operator`` appends)."""
    paths = {}
    docs = {"alg": algebra_document(trunc_xy)}
    for name, degrees in (("dx", [0, 1, 0, 1]), ("dy", [0, 0, 1, 1]), ("dxy", [0, 1, 1, 2])):
        docs[name] = operator_document(euler_derivation(4, degrees))
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(emit_document(doc))
    det3 = ["construct", "det3", "--algebra", str(paths["alg"]), "--json"]
    argvs = [
        det3 + ["--variant", "dd", "--operator", str(paths["dx"]), "--operator", str(paths["dy"])],
        det3 + ["--variant", "ddd"] + [a for n in ("dx", "dy", "dxy") for a in ("--operator", str(paths[n]))],
        ["construct", "det3", "--variant", "dd"],
        ["--help"],
    ]

    def call(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [call(argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    first = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        first.append(call(argv))
    assert shared == first
    assert [code for code, _, _ in first] == [0, 0, 2, 0]


def test_tripped_bug_trap_exits_3_with_its_message(docs, monkeypatch, capsys):
    """A construction whose own re-check fails is an internal error (exit 3),
    reported in the notes, not a traceback with a mathematical FAIL's exit 1."""
    from nliealg import ns
    from nliealg.verdict import fail

    def broken(structure):
        return fail("ns-axiom-1", {"x": (1,), "y": (2,), "last": 3}, [1, 0, 0], [0, 0, 0])

    monkeypatch.setattr(ns, "check_ns", broken)
    argv = ["construct", "ns-from-reynolds", "--algebra", docs["g.json"], "--operator", docs["r1.json"]]
    report, code = run_command(argv)
    assert code == 3
    assert report.verdicts == [] and report.artifacts == []
    assert len(report.notes) == 1
    assert report.notes[0].startswith("internal error: construction from a verified operator fails the axioms")
    assert "'last': 3" in report.notes[0]
    # scalars read as the report writes them, not as Python reprs
    assert "'lhs': ['1', '0', '0']" in report.notes[0] and "Fraction" not in report.notes[0]
    assert cli.main(argv + ["--json"]) == 3
    out = capsys.readouterr()
    assert json.loads(out.out)["notes"] == report.notes and out.err == ""
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == report.notes[0] + "\n" and out.err == ""


def test_representation_of_a_symmetric_product_exit_2(tmp_path, trunc_xy):
    """``check representation`` and ``construct semidirect`` refuse a
    commutative associative product as an input error, not a FAIL."""
    alg, rep = tmp_path / "alg.json", tmp_path / "rep.json"
    alg.write_text(emit_document(algebra_document(trunc_xy)))
    rep.write_text(emit_document(representation_document(adjoint_representation(trunc_xy))))
    for argv in (
        ["check", "representation", "--algebra", str(alg), "--representation", str(rep)],
        ["construct", "semidirect", "--algebra", str(alg)],
        ["construct", "semidirect", "--algebra", str(alg), "--representation", str(rep)],
    ):
        report, code = run_command(argv)
        assert code == 2
        assert report.notes == ["error: representation check applies to alternating brackets"]


def _bad_reynolds(tmp_path):
    path = tmp_path / "bad_op.json"
    path.write_text(emit_document(operator_document(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))))
    return str(path)


def test_repeated_document_flag_is_refused(docs, tmp_path):
    """A document flag given twice is an input error: the failing operator
    given first is not dropped for the passing one given last."""
    bad = _bad_reynolds(tmp_path)
    check = ["check", "reynolds", "--algebra", docs["g.json"]]
    assert run_command(check + ["--operator", bad])[1] == 1
    for ops in ((bad, docs["r1.json"]), (docs["r1.json"], bad)):
        report, code = run_command(check + ["--operator", ops[0], "--operator", ops[1]])
        assert code == 2
        assert report.notes == ["error: exactly one --operator document is required"]
    report, code = run_command(["check", "reynolds", "--algebra", docs["g.json"]])
    assert code == 2 and report.notes == ["error: exactly one --operator document is required"]


def test_repeated_flag_on_cohomology_deform_and_operator(docs):
    g, r, zero = docs["g.json"], docs["r1.json"], docs["zero3.json"]
    for argv, flag in (
        (["cohomology", "--algebra", g, "--reynolds", r, "--reynolds", zero], "--reynolds"),
        (["deform", "--algebra", g, "--reynolds", r, "--reynolds", zero, "--direction", zero], "--reynolds"),
        (["deform", "--algebra", g, "--reynolds", r, "--direction", zero, "--direction", r], "--direction"),
        (["operator", "from-derivation", "--algebra", g, "--operator", zero, "--operator", r], "--operator"),
        (["check", "filippov", "--algebra", g, "--algebra", docs["ab33.json"]], "--algebra"),
    ):
        report, code = run_command(argv)
        assert code == 2
        assert report.notes == [f"error: exactly one {flag} document is required"]


def _refused_by_the_parser(argv, capsys):
    assert run_command(argv) == (None, 2)
    assert cli.main(argv + ["--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_operator_the_command_does_not_read_is_a_usage_error(docs, tmp_path, capsys):
    """A failing operator given to a command that never reads one is refused
    by the parser (usage on stderr, no report), not passed over."""
    bad, g = _bad_reynolds(tmp_path), docs["g.json"]
    _refused_by_the_parser(["check", "filippov", "--algebra", g, "--operator", bad], capsys)
    _refused_by_the_parser(
        ["construct", "gf", "--algebra", g, "--functional", docs["f.json"], "--operator", bad, "--variant", "dd"],
        capsys)


def test_path_the_command_does_not_read_is_a_usage_error(docs, capsys):
    """A missing file named by a flag the command never opens is refused too."""
    _refused_by_the_parser(
        ["check", "reynolds", "--algebra", docs["g.json"], "--operator", docs["r1.json"],
         "--representation", "/no/such"], capsys)


def _leaves(parser, prefix=()):
    """(words, parser) for each (command, what) the parser offers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, prefix + (name,))


def test_every_subcommand_on_lie3_with_exactly_its_flags(docs, tmp_path, lie3, family1):
    """Each (command, what) the parser offers runs on valid lie3 documents
    to a defined outcome, and an exit 0 holds a verdict or an artifact; one
    more document flag that the command does not read exits 2."""
    written = {
        "representation": representation_document(adjoint_representation(lie3)),
        "wedge_element": wedge_document(lie3.arity, lie3.dim, {(1,): 1}),
        "ns_algebra": ns_document(ns_from_reynolds(lie3, family1)),
    }
    paths = {"n_lie_algebra": docs["g.json"], "linear_operator": docs["r1.json"], "functional": docs["f.json"]}
    for kind, doc in written.items():
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(emit_document(doc))
    leaves = list(_leaves(cli._build_parser()))
    document_flags = {a.option_strings[0] for _, leaf in leaves for a in leaf._actions
                      if isinstance(a, argparse._AppendAction)}
    assert document_flags == set(cli.FLAG_KINDS)
    codes = Counter()
    for words, leaf in leaves:
        own = [a for a in leaf._actions if a.option_strings and a.dest not in ("help", "json")]
        argvs = [list(words)]
        for action in own:
            flag = action.option_strings[0]
            if isinstance(action, argparse._AppendAction):
                ns_algebra = words == ("check", "ns") and flag == "--algebra"
                kind = "ns_algebra" if ns_algebra else cli.FLAG_KINDS[flag]
                argvs = [argv + [flag, str(paths[kind])] for argv in argvs]
            elif action.choices:
                argvs = [argv + [flag, choice] for argv in argvs for choice in action.choices]
        for argv in argvs:
            report, code = run_command(argv)
            assert code in (0, 1, 2), argv
            assert report is not None, argv
            assert code != 0 or report.verdicts or report.artifacts, argv
            codes[code] += 1
            taken = {a.option_strings[0] for a in own}
            for flag in sorted(document_flags - taken):
                assert run_command(argv + [flag, str(paths[cli.FLAG_KINDS[flag]])]) == (None, 2), (argv, flag)
    # most commands run to a PASS on these inputs, so the sweep is not vacuous
    assert len(leaves) == len(cli.COMMANDS) and codes[0] > len(leaves) // 2


def test_deform_reads_every_document_before_judging(docs, tmp_path):
    """deform reads --witness with its other documents: a repeated --witness
    exits 2 although the direction fails the cocycle test."""
    direction = tmp_path / "s.json"
    direction.write_text(emit_document(operator_document(Matrix([[0, 1, 0], [0, 0, 0], [5, 0, 0]]))))
    argv = ["deform", "--algebra", docs["g.json"], "--reynolds", docs["r1.json"], "--direction", str(direction)]
    report, code = run_command(argv)
    assert code == 1 and not report.verdicts[0].passed
    report, code = run_command(argv + ["--witness", "/no/such", "--witness", "/no/such2"])
    assert code == 2 and report.notes == ["error: exactly one --witness document is required"]


def test_deform_refuses_a_witness_of_another_size(docs, tmp_path):
    """A witness declared for another dim or arity than the algebra's is an
    input error, not a witness to judge."""
    argv = ["deform", "--algebra", docs["g.json"], "--reynolds", docs["zero3.json"],
            "--direction", docs["zero3.json"], "--witness"]
    for arity, dim, on, code in ((2, 3, [1], 0), (2, 2, [1], 2), (2, 5, [1], 2), (3, 3, [1, 2], 2)):
        witness = tmp_path / f"x{arity}{dim}.json"
        witness.write_text(json.dumps({"kind": "wedge_element", "dim": dim, "arity": arity,
                                       "terms": [{"on": on, "coeff": "1"}]}))
        report, got = run_command(argv + [str(witness)])
        assert got == code, (arity, dim)
        if code == 2:
            assert report.notes == [f"error: witness of (arity, dim) {(arity, dim)} on an algebra of (arity, dim) (2, 3)"]


def test_det3_refuses_a_product_that_is_not_commutative(docs, tmp_path):
    """On the Lie algebra lie3 every variant of det3 exits 2 before any
    construction, fd with D = ad_e1 and f = e1* among them."""
    ad1, e1 = tmp_path / "ad1.json", tmp_path / "e1.json"
    ad1.write_text(emit_document(operator_document(Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]]))))
    e1.write_text(emit_document(functional_document(LinearFunctional([1, 0, 0]))))
    for variant in ("fd", "dd", "ddd"):
        argv = ["construct", "det3", "--algebra", docs["g.json"], "--variant", variant]
        argv += ["--operator", str(ad1)] * variant.count("d") + ["--functional", str(e1)] * ("f" in variant)
        report, code = run_command(argv)
        assert code == 2, variant
        assert report.notes == ["error: the determinant 3-Lie construction applies to commutative products"]


def test_the_leaf_parser_reads_argv_as_the_whole_tree_does(docs, tmp_path, lie3, family1, capsys, monkeypatch):
    """``run_command`` hands the words after a ``COMMANDS`` key to that key's
    own parser.  On each argv here, well formed or not, ``main`` gives the
    exit code, stdout and stderr it gives through ``parse_args`` of the
    whole tree."""
    ns = tmp_path / "ns.json"
    ns.write_text(emit_document(ns_document(ns_from_reynolds(lie3, family1))))
    rep = tmp_path / "rep.json"
    rep.write_text(emit_document(representation_document(adjoint_representation(lie3))))
    witness = tmp_path / "witness.json"
    witness.write_text(emit_document(wedge_document(2, 3, {(2,): 1})))
    values = {"n_lie_algebra": docs["g.json"], "linear_operator": docs["r1.json"], "functional": docs["f.json"],
              "representation": str(rep), "wedge_element": str(witness), "--variant": "dd",
              "--max-degree": "1", "--size-guard": "100000"}
    g = docs["g.json"]
    argvs = [["check"], ["construct"], ["chek", "filippov"], ["--help"],
             ["--json", "check", "filippov", "--algebra", g]]
    for (command, what), (_, flags, _) in cli.COMMANDS.items():
        words = [command] + ([what] if what else [])
        argv = list(words)
        for flag in ("--algebra",) + flags:
            kind = "ns_algebra" if (command, what, flag) == ("check", "ns", "--algebra") else cli.FLAG_KINDS.get(flag)
            argv += [flag, str(ns) if kind == "ns_algebra" else values[kind or flag]]
        argvs += [argv, words + ["-h"], argv + ["--json"], words[:1] + ["--json"] + words[1:] + argv[len(words):]]
    reynolds = ["check", "reynolds", "--algebra", g, "--operator", docs["r1.json"]]
    cohomology = ["cohomology", "--algebra", g, "--reynolds", docs["r1.json"]]
    argvs += [
        ["check", "reynolds", "--alg", g, "--operator", docs["r1.json"]],
        cohomology + ["--max-degree=2"],
        cohomology + ["--max-degree", "-1"],
        reynolds + ["--operator", docs["zero3.json"]],
        reynolds + ["--algebra", g],
        reynolds + ["--bogus"],
        reynolds + ["extra"],
        reynolds + ["--=x"],
        reynolds + ["--", "x"],
        ["construct", "det3", "--algebra", g, "--variant", "xx"],
        ["check", "reynolds", "--operator", docs["r1.json"]],
        ["construct", "det3", "--algebra", g],
        ["cohomology"],
    ]

    def outcome(argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    direct = [outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert [outcome(argv) for argv in argvs] == direct
    # the set is not vacuous: every exit code that parsing or running can give shows up
    assert {code for code, _, _ in direct} == {0, 1, 2}
    assert sum(err.startswith("usage: nlie") for _, _, err in direct) > 10
    assert sum(out.startswith("usage: nlie") for _, out, _ in direct) == len(cli.COMMANDS) + 1


def test_a_literal_over_the_digit_limit_is_an_input_error(docs, tmp_path):
    """A rational string or a JSON integer with more digits than the
    interpreter converts exits 2 with a note that names the limit, at its
    pointer when the parser knows it, not as a ValueError traceback."""
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 700)
    for entry, where in ((f'"{digits}"', " (at /matrix/0/0)"), (f'"1/{digits}"', " (at /matrix/0/0)"),
                         (digits, "")):
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "linear_operator", "dim": 1, "matrix": [[%s]]}' % entry)
        report, code = run_command(["check", "derivation", "--algebra", docs["g.json"], "--operator", str(path)])
        assert code == 2
        assert report.notes == [f"error: integer literal over the limit of {limit} digits{where}"]


def test_a_rational_literal_is_ascii_digits_with_no_whitespace(docs, tmp_path):
    """A final newline, which ``$`` would match before, and a non-ASCII
    digit are refused as malformed literals."""
    for literal in ("0\n", "3/4\n", "٣"):
        path = tmp_path / "op.json"
        rows = [[literal, "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        path.write_text(json.dumps({"kind": "linear_operator", "dim": 3, "matrix": rows}))
        report, code = run_command(["check", "derivation", "--algebra", docs["g.json"], "--operator", str(path)])
        assert code == 2
        assert report.notes == [f"error: malformed rational literal {literal!r} (at /matrix/0/0)"]


def test_a_document_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    """A document that ``json.loads`` cannot decode within the recursion
    limit exits 2 with a note, not as a RecursionError traceback (exit 1)."""
    deep = '{"kind": "n_lie_algebra", "dim": 3, "brackets": %s}' % ("[" * 5000 + "]" * 5000)
    note = "error: malformed JSON: the document is nested too deeply"
    for name, text in (("open.json", "[" * 100000), ("brackets.json", deep)):
        path = tmp_path / name
        path.write_text(text)
        argv = ["check", "filippov", "--algebra", str(path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == note + "\n"
        assert cli.main(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out)["notes"] == [note]


def test_the_output_format_is_read_off_the_parse(docs, capsys):
    """``--json`` and each abbreviation argparse accepts for it, before,
    between or after the words, write the same JSON report, the bytes of
    the argv it echoes aside; without it the report is text."""
    outputs = set()
    tail = ["--algebra", docs["g.json"], "--operator", docs["zero3.json"]]
    for flag in ("--json", "--js", "--jso"):
        for argv in ([flag, "check", "derivation"] + tail, ["check", flag, "derivation"] + tail,
                     ["check", "derivation", flag] + tail, ["check", "derivation"] + tail + [flag]):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert json.loads(out)["command"] == argv
            outputs.add(out.replace(json.dumps(argv, indent=2).replace("\n", "\n  "), "ARGV"))
    assert len(outputs) == 1 and json.loads(outputs.pop().replace("ARGV", "[]"))["verdicts"] == [
        {"check": "derivation", "passed": True}]
    assert cli.main(["check", "derivation"] + tail) == 0
    assert capsys.readouterr().out == "PASS derivation\n"


# the note of each document flag that names an operator, a functional or a
# representation, given for another dimension than the algebra's
MISMATCH = {"--operator": "operator", "--reynolds": "operator", "--direction": "direction",
            "--functional": "functional", "--representation": "representation/algebra"}


def test_every_document_of_another_dimension_is_refused(tmp_path, lie3, family1, trunc_x3):
    """Each command run on a dim-3 algebra, with one of its sized documents
    given at dim 2 and the others valid at dim 3, exits 2 with that
    document's ``... dimension mismatch`` note, --direction of deform too."""
    def write(name, doc):
        path = tmp_path / name
        path.write_text(emit_document(doc))
        return str(path)

    lie2 = NAryAlgebra(2, 2, {(1, 2): [0, 1]})
    small = {"--operator": write("op2.json", operator_document(Matrix.identity(2))),
             "--functional": write("f2.json", functional_document(LinearFunctional([1, 0]))),
             "--representation": write("rep2.json", representation_document(adjoint_representation(lie2)))}
    small["--reynolds"] = small["--direction"] = small["--operator"]
    lie, commutative = write("lie3.json", algebra_document(lie3)), write("x3.json", algebra_document(trunc_x3))
    valid = {"--operator": write("r.json", operator_document(family1)),
             "--reynolds": write("r.json", operator_document(family1)),
             "--direction": write("zero.json", operator_document(Matrix.zero(3))),
             "--functional": write("f.json", functional_document(LinearFunctional([1, 0, 1]))),
             "--representation": write("rep.json", representation_document(adjoint_representation(lie3)))}
    euler = write("euler.json", operator_document(euler_derivation(3, [0, 1, 2])))
    swept = Counter()
    for (command, what), (_, flags, _) in cli.COMMANDS.items():
        words = [command] + ([what] if what else [])
        if "--variant" in flags:  # one document per letter: f a functional, d a derivation
            letters = {"f": "--functional", "d": "--operator"}
            runs = [(["--variant", v], [letters[c] for c in v]) for v in ("fd", "dd", "ddd")]
        else:
            runs = [([], [flag for flag in flags if flag in MISMATCH])]
        symmetric = (command, what) in (("check", "assoc-reynolds"), ("construct", "det3"))
        for options, sized in runs:
            for i, wrong in enumerate(sized):
                argv = words + ["--algebra", commutative if symmetric else lie] + options
                for j, flag in enumerate(sized):
                    right = euler if symmetric and flag == "--operator" else valid[flag]
                    argv += [flag, small[flag] if i == j else right]
                report, code = run_command(argv)
                assert (code, report.notes) == (2, [f"error: {MISMATCH[wrong]} dimension mismatch"]), argv
                swept[wrong] += 1
    assert set(swept) == set(MISMATCH) and sum(swept.values()) > len(cli.COMMANDS)
