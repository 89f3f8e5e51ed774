"""Command-line surface.

Exit codes: 0 when every requested check passes, 1 when a check fails
mathematically, 2 on usage or input errors, 3 when a bug trap trips (two
independent routes disagree, ``InternalConsistencyError``).

Only ``argparse``, ``errors`` and the command table load with this module,
so ``nlie --help`` imports no library module; each runner imports the
modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from importlib import import_module

from .errors import DEFAULT_SIZE_GUARD, InputError, InternalConsistencyError, NLieError

HELP = {
    "check": "verify an identity",
    "construct": "build a derived structure",
    "cohomology": "complex dimensions for a Reynolds operator",
    "deform": "first-order deformation checks",
    "operator": "operator conversions",
}
# the document each flag names, by default
FLAG_KINDS = {
    "--algebra": "n_lie_algebra",
    "--operator": "linear_operator",
    "--functional": "functional",
    "--representation": "representation",
    "--reynolds": "linear_operator",
    "--direction": "linear_operator",
    "--witness": "wedge_element",
}
# the flags that are not documents, and --algebra, which every command takes
OPTIONS = {
    "--algebra": {"action": "append", "required": True},
    "--variant": {"choices": ["fd", "dd", "ddd"], "required": True},
    "--max-degree": {"type": int, "default": 1},
    "--size-guard": {"type": int, "default": DEFAULT_SIZE_GUARD},
}


def _load(path, expect):
    """The document in the file at ``path``, read as UTF-8 (JSON's encoding)."""
    from .documents import parse_document
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_document(text, expect=expect)


def _documents(args, flags, kinds=FLAG_KINDS):
    """The documents the ``flags`` name, in order.  A flag listed k times must
    be given exactly k times: a repeated flag is refused, never overwritten."""
    paths = {}
    for flag in flags:
        given, want = getattr(args, flag[2:]) or [], flags.count(flag)
        if len(given) != want:
            wanted = f"one {flag} document is" if want == 1 else f"{want} {flag} documents are"
            raise InputError(f"exactly {wanted} required")
        paths.setdefault(flag, iter(given))
    return [_load(next(paths[flag]), kinds[flag]) for flag in flags]


def _check_ns(args, report):
    """Its --algebra is an NS-n-Lie algebra."""
    from .ns import check_ns
    (structure,) = _documents(args, ("--algebra",), {"--algebra": "ns_algebra"})
    report.add(check_ns(structure))


def _construct_det3(args, report):
    """One document per letter of --variant: f a functional, d a derivation."""
    from .constructions import three_lie_algebra
    from .documents import algebra_document
    letters = {"f": "--functional", "d": "--operator"}
    algebra, *data = _documents(args, ("--algebra",) + tuple(letters[c] for c in args.variant))
    result = three_lie_algebra(algebra, args.variant, data)
    report.artifacts.append(algebra_document(result))


def _construct_semidirect(args, report):
    """On --representation if it is given, else on the adjoint representation."""
    from .algebra import adjoint_representation, semidirect_product
    from .documents import algebra_document
    algebra, *rep = _documents(args, ("--algebra",) + ("--representation",) * bool(args.representation))
    result = semidirect_product(algebra, rep[0] if rep else adjoint_representation(algebra))
    report.artifacts.append(algebra_document(result))


def _run_cohomology(args, report):
    from .cohomology import ReynoldsComplex
    from .verdict import ok
    algebra, op = _documents(args, ("--algebra", "--reynolds"))
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
    from . import deformation
    from .documents import wedge_document
    from .linalg import Matrix
    from .verdict import CheckResult
    algebra, op, direction, *witness = _documents(
        args, ("--algebra", "--reynolds", "--direction") + ("--witness",) * bool(args.witness))
    shape = (algebra.arity, algebra.dim)
    if witness and witness[0][:2] != shape:
        raise InputError(f"witness of (arity, dim) {witness[0][:2]} on an algebra of (arity, dim) {shape}")
    cocycle = deformation.is_infinitesimal_deformation(algebra, op, direction)
    report.add(cocycle)
    if not cocycle:
        return
    # the direction has just passed the cocycle test, and the zero
    # direction is a cocycle of every Reynolds operator
    if witness:
        report.add(deformation._witness_verdict(algebra, op, direction, Matrix.zero(algebra.dim), witness[0][2]))
        return
    result = deformation._triviality(algebra, op, direction)
    passed = result.status == "trivial"
    report.add(CheckResult("deformation-trivial", passed))
    report.notes.append(f"status: {result.status}")
    if passed:
        report.artifacts.append(wedge_document(algebra.arity, algebra.dim, result.witness))


# (command, what) -> (function, the flags it reads after --algebra, how its
# result is reported).  A library function, named "module.attribute" and looked
# up at each call, takes the documents of --algebra and the flags in order; its
# result is a verdict (None) or is emitted as the named document, after a PASS
# verdict for an operator conversion.  A runner of this module reads its own
# documents and fills the report.  The parser is built from this table.
COMMANDS = {
    ("check", "filippov"): ("algebra.check_filippov", (), None),
    ("check", "derivation"): ("algebra.is_derivation", ("--operator",), None),
    ("check", "representation"): ("algebra.check_representation", ("--representation",), None),
    ("check", "reynolds"): ("reynolds.check_reynolds", ("--operator",), None),
    ("check", "nijenhuis"): ("nijenhuis.check_nijenhuis", ("--operator",), None),
    ("check", "ns"): (_check_ns, (), None),
    ("check", "assoc-reynolds"): ("constructions.check_assoc_reynolds", ("--operator",), None),
    ("check", "lift"): ("constructions.reynolds_lift_criterion", ("--operator", "--functional"), None),
    ("construct", "induced"): ("reynolds.induced_bracket", ("--operator",), "algebra_document"),
    ("construct", "gf"): ("constructions.extend_by_functional", ("--functional",), "algebra_document"),
    ("construct", "corollary"): (
        "constructions.corollary_bracket", ("--operator", "--functional"), "algebra_document"),
    ("construct", "ns-from-reynolds"): ("ns.ns_from_reynolds", ("--operator",), "ns_document"),
    ("construct", "ns-from-nijenhuis"): ("ns.ns_from_nijenhuis", ("--operator",), "ns_document"),
    ("construct", "deformed"): ("nijenhuis.deformed_algebra", ("--operator",), "algebra_document"),
    ("construct", "det3"): (_construct_det3, ("--variant", "--functional", "--operator"), None),
    ("construct", "semidirect"): (_construct_semidirect, ("--representation",), None),
    ("cohomology", None): (_run_cohomology, ("--reynolds", "--max-degree", "--size-guard"), None),
    ("deform", None): (_run_deform, ("--reynolds", "--direction", "--witness"), None),
    ("operator", "from-derivation"): ("reynolds.derivation_to_reynolds", ("--operator",), "operator_document"),
    ("operator", "series"): (
        "reynolds.reynolds_from_nilpotent_derivation", ("--operator",), "operator_document"),
    ("operator", "to-derivation"): ("reynolds.reynolds_to_derivation", ("--operator",), "operator_document"),
}


@cache
def _build_parser():
    """The argument parser, built from ``COMMANDS`` on first use and shared by later calls: each
    (command, what) takes --algebra and its own flags, in the parser ``leaves`` holds for its key."""
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact checks and constructions for n-Lie algebras with "
        "Reynolds and Nijenhuis operators.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    # below the top, an absent --json sets nothing, so it cannot overwrite one given higher up
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    groups, parser.leaves = {}, {}
    for (command, what), (_, flags, _) in COMMANDS.items():
        if command not in groups:
            group = sub.add_parser(command, help=HELP[command], parents=[shared])
            groups[command] = group.add_subparsers(dest="what", required=True) if what else group
        leaf = groups[command].add_parser(what, parents=[shared]) if what else groups[command]
        leaf.set_defaults(what=what)
        parser.leaves[command, what] = leaf
        for flag in ("--algebra",) + flags:
            leaf.add_argument(flag, **OPTIONS.get(flag, {"action": "append"}))
    return parser


def _run(args, report):
    from . import documents
    from .verdict import ok
    function, flags, emit = COMMANDS[args.command, args.what]
    if callable(function):
        function(args, report)
        return
    module, name = function.split(".")
    result = getattr(import_module(f"{__package__}.{module}"), name)(*_documents(args, ("--algebra",) + flags))
    if emit is None:
        report.add(result)
        return
    if args.command == "operator":
        report.add(ok(f"operator-{args.what}"))
    report.artifacts.append(getattr(documents, emit)(result))


def _parse(argv):
    """``parse_args(argv)``, read by the parser of the ``COMMANDS`` key argv starts with, which the tree
    hands the rest; words left over, or a ``--=...`` the upper parsers refuse first, go through the tree."""
    parser = _build_parser()
    words = argv[:2] if tuple(argv[:2]) in parser.leaves else argv[:1]
    leaf, rest = parser.leaves.get((*words, None)[:2]), argv[len(words):]
    if leaf is not None and not any(word.startswith("--=") for word in rest):
        args, extra = leaf.parse_known_args(rest, argparse.Namespace(json=False))
        if not extra:
            args.command = words[0]
            return args
    return parser.parse_args(argv)


def run_command(argv):
    """Execute one CLI invocation; returns (report, exit code)."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return None, (2 if exc.code else 0)
    from .documents import Report
    report = Report(command=list(argv), as_json=args.json)
    try:
        _run(args, report)
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
    report, code = run_command(argv)
    if report is not None:
        sys.stdout.write(report.to_json() if report.as_json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
