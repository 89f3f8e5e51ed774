import json

from nliealg import cli
from nliealg.cli import run_command
from nliealg.documents import (
    algebra_document,
    emit_document,
    operator_document,
)
from nliealg.linalg import Matrix

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
