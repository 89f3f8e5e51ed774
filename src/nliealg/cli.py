"""Command-line surface.

Exit codes: 0 when every requested check passes, 1 when a check fails
mathematically, 2 on usage or input errors, 3 when a bug trap trips (two
independent routes disagree, ``InternalConsistencyError``).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import constructions, deformation, documents, nijenhuis, ns, reynolds
from .algebra import (
    adjoint_representation,
    check_filippov,
    check_representation,
    is_derivation,
    semidirect_product,
)
from .cohomology import DEFAULT_SIZE_GUARD, ReynoldsComplex
from .errors import InputError, InternalConsistencyError, NLieError
from .linalg import Matrix
from .verdict import CheckResult, ok


@cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact checks and constructions for n-Lie algebras with "
        "Reynolds and Nijenhuis operators.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify an identity", parents=[shared])
    check.add_argument(
        "what",
        choices=[
            "filippov", "derivation", "representation", "reynolds",
            "nijenhuis", "ns", "assoc-reynolds", "lift",
        ],
    )
    check.add_argument("--algebra", required=True)
    check.add_argument("--operator")
    check.add_argument("--functional")
    check.add_argument("--representation")

    construct = sub.add_parser("construct", help="build a derived structure", parents=[shared])
    construct.add_argument(
        "what",
        choices=[
            "induced", "gf", "corollary", "ns-from-reynolds",
            "ns-from-nijenhuis", "deformed", "det3", "semidirect",
        ],
    )
    construct.add_argument("--algebra", required=True)
    construct.add_argument("--operator", action="append", default=[])
    construct.add_argument("--functional")
    construct.add_argument("--representation")
    construct.add_argument("--variant", choices=["fd", "dd", "ddd"])

    coh = sub.add_parser(
        "cohomology", help="complex dimensions for a Reynolds operator", parents=[shared]
    )
    coh.add_argument("--algebra", required=True)
    coh.add_argument("--reynolds", required=True)
    coh.add_argument("--max-degree", type=int, default=1)
    coh.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)

    deform = sub.add_parser("deform", help="first-order deformation checks", parents=[shared])
    deform.add_argument("--algebra", required=True)
    deform.add_argument("--reynolds", required=True)
    deform.add_argument("--direction", required=True)
    deform.add_argument("--witness")

    op = sub.add_parser("operator", help="operator conversions", parents=[shared])
    op.add_argument("what", choices=["from-derivation", "series", "to-derivation"])
    op.add_argument("--algebra", required=True)
    op.add_argument("--operator", required=True)

    return parser


def _load(path, expect):
    """The document in the file at ``path``, read as UTF-8 (JSON's encoding)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return documents.parse_document(text, expect=expect)


def _one_operator(args):
    ops = args.operator
    if len(ops) != 1:
        raise NLieError("exactly one --operator document is required")
    return _load(ops[0], "linear_operator")


def _run_check(args, report):
    if args.what == "ns":
        structure = _load(args.algebra, "ns_algebra")
        report.add(ns.check_ns(structure))
        return
    algebra = _load(args.algebra, "n_lie_algebra")
    if args.what == "filippov":
        report.add(check_filippov(algebra))
    elif args.what == "derivation":
        op = _load(_required(args.operator, "--operator"), "linear_operator")
        report.add(is_derivation(algebra, op))
    elif args.what == "representation":
        rep = _load(_required(args.representation, "--representation"), "representation")
        report.add(check_representation(algebra, rep))
    elif args.what == "reynolds":
        op = _load(_required(args.operator, "--operator"), "linear_operator")
        report.add(reynolds.check_reynolds(algebra, op))
    elif args.what == "nijenhuis":
        op = _load(_required(args.operator, "--operator"), "linear_operator")
        report.add(nijenhuis.check_nijenhuis(algebra, op))
    elif args.what == "assoc-reynolds":
        op = _load(_required(args.operator, "--operator"), "linear_operator")
        report.add(constructions.check_assoc_reynolds(algebra, op))
    elif args.what == "lift":
        op = _load(_required(args.operator, "--operator"), "linear_operator")
        functional = _load(_required(args.functional, "--functional"), "functional")
        report.add(constructions.reynolds_lift_criterion(algebra, op, functional))


def _required(value, flag):
    if value is None:
        raise NLieError(f"{flag} is required for this command")
    return value


def _run_construct(args, report):
    algebra = _load(args.algebra, "n_lie_algebra")
    what = args.what
    if what == "induced":
        result = reynolds.induced_bracket(algebra, _one_operator(args))
        report.artifacts.append(documents.algebra_document(result))
    elif what == "gf":
        functional = _load(_required(args.functional, "--functional"), "functional")
        result = constructions.extend_by_functional(algebra, functional)
        report.artifacts.append(documents.algebra_document(result))
    elif what == "corollary":
        functional = _load(_required(args.functional, "--functional"), "functional")
        result = constructions.corollary_bracket(algebra, _one_operator(args), functional)
        report.artifacts.append(documents.algebra_document(result))
    elif what == "ns-from-reynolds":
        result = ns.ns_from_reynolds(algebra, _one_operator(args))
        report.artifacts.append(documents.ns_document(result))
    elif what == "ns-from-nijenhuis":
        result = ns.ns_from_nijenhuis(algebra, _one_operator(args))
        report.artifacts.append(documents.ns_document(result))
    elif what == "deformed":
        result = nijenhuis.deformed_algebra(algebra, _one_operator(args))
        report.artifacts.append(documents.algebra_document(result))
    elif what == "det3":
        variant = _required(args.variant, "--variant")
        data = [_load(p, "linear_operator") for p in args.operator]
        if variant == "fd":
            data.insert(0, _load(_required(args.functional, "--functional"), "functional"))
        result = constructions.three_lie_algebra(algebra, variant, data)
        report.artifacts.append(documents.algebra_document(result))
    elif what == "semidirect":
        if args.representation:
            rep = _load(args.representation, "representation")
        else:
            rep = adjoint_representation(algebra)
        result = semidirect_product(algebra, rep)
        report.artifacts.append(documents.algebra_document(result))


def _run_cohomology(args, report):
    algebra = _load(args.algebra, "n_lie_algebra")
    op = _load(args.reynolds, "linear_operator")
    complex_ = ReynoldsComplex(algebra, op)
    dims = complex_.dimensions(args.max_degree, size_guard=args.size_guard)
    report.add(ok("reynolds-complex"))
    for m, z, b, h in dims:
        report.notes.append(f"H^{m}: cocycles {z}, coboundaries {b}, dimension {h}")
    report.artifacts.append(
        {
            "kind": "cohomology_table",
            "max_degree": args.max_degree,
            "rows": [
                {"degree": m, "cocycles": z, "coboundaries": b, "dimension": h}
                for m, z, b, h in dims
            ],
        }
    )


def _run_deform(args, report):
    algebra = _load(args.algebra, "n_lie_algebra")
    op = _load(args.reynolds, "linear_operator")
    direction = _load(args.direction, "linear_operator")
    cocycle = deformation.is_infinitesimal_deformation(algebra, op, direction)
    report.add(cocycle)
    if not cocycle:
        return
    # the direction has just passed the cocycle test, and the zero
    # direction is a cocycle of every Reynolds operator
    if args.witness:
        witness = _load(args.witness, "wedge_element")
        verdict = deformation._witness_verdict(
            algebra, op, direction, Matrix.zero(algebra.dim), witness
        )
        report.add(verdict)
        return
    result = deformation._triviality(algebra, op, direction)
    passed = result.status == "trivial"
    report.add(CheckResult("deformation-trivial", passed))
    report.notes.append(f"status: {result.status}")
    if result.witness is not None and passed:
        report.artifacts.append(documents.wedge_document(algebra.arity, algebra.dim, result.witness))


def _run_operator(args, report):
    algebra = _load(args.algebra, "n_lie_algebra")
    op = _load(args.operator, "linear_operator")
    if args.what == "from-derivation":
        result = reynolds.derivation_to_reynolds(algebra, op)
    elif args.what == "series":
        result = reynolds.reynolds_from_nilpotent_derivation(algebra, op)
    else:
        result = reynolds.reynolds_to_derivation(algebra, op)
    report.add(ok(f"operator-{args.what}"))
    report.artifacts.append(documents.operator_document(result))


def run_command(argv):
    """Execute one CLI invocation; returns (report, exit code)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, (2 if exc.code else 0)
    report = documents.Report(command=list(argv))
    try:
        if args.command == "check":
            _run_check(args, report)
        elif args.command == "construct":
            _run_construct(args, report)
        elif args.command == "cohomology":
            _run_cohomology(args, report)
        elif args.command == "deform":
            _run_deform(args, report)
        elif args.command == "operator":
            _run_operator(args, report)
    except InternalConsistencyError as exc:
        report.notes.append(f"internal error: {exc}")
        return report, 3
    except NLieError as exc:
        report.notes.append(f"error: {exc}")
        return report, 2
    return report, (0 if report.all_passed() else 1)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    want_json = "--json" in argv
    report, code = run_command(argv)
    if report is not None:
        sys.stdout.write(report.to_json() if want_json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
