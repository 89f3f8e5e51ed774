"""Checks one job's output against its expected answer.

Cohomology tables and artifacts are compared in the canonical basis: an
artifact built from conjugated inputs is moved back along phi^-1 and
must then hash to the digest pinned for the canonical case.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import comb

import basis as B
import workloads as W

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def structure(doc):
    """The benchmark's own reading of an emitted document."""
    kind = doc["kind"]
    vec = lambda v: [Fraction(x) for x in v]  # noqa: E731
    if kind == "n_lie_algebra":
        table = {tuple(e["on"]): vec(e["value"]) for e in doc["brackets"]}
        return W.Algebra(doc["arity"], doc["dim"], table, doc.get("symmetry") == "symmetric")
    if kind == "ns_algebra":
        curly = {(tuple(e["wedge"]), e["last"]): vec(e["value"]) for e in doc["curly"]}
        square = {tuple(e["on"]): vec(e["value"]) for e in doc["square"]}
        return W.NS(doc["arity"], doc["dim"], curly, square)
    if kind == "linear_operator":
        return [vec(row) for row in doc["matrix"]]
    raise ValueError(f"no canonical form for a {kind!r} artifact")


def digest(obj):
    """Hash of a structure's canonical document (nonzero entries, sorted)."""
    text = json.dumps(W.document(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_artifact(job, doc):
    """The artifact of ``doc`` moved back to the canonical basis."""
    obj = structure(doc)
    if job.back is None:
        return obj
    phi_inv, phi = job.back
    if job.doubled:
        phi_inv, phi = B.block_diagonal(phi_inv, phi_inv), B.block_diagonal(phi, phi)
    return W.transform(obj, phi_inv, phi)


def cochain_dim(arity, dim, m):
    blocks = comb(dim, arity - 1)
    return blocks if m == 0 else blocks ** (m - 1) * dim * dim


def check(job, code, output, expected):
    """None when the output is right, else a one-line reason."""
    try:
        return _check(job, code, output, expected)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _check(job, code, output, expected):
    want = job.expect
    if code != want.code:
        return f"exit code {code}, expected {want.code}"
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    verdicts = tuple((v["check"], v["passed"]) for v in report.get("verdicts", []))
    if verdicts != want.verdicts:
        return f"verdicts {verdicts}, expected {want.verdicts}"
    notes = report.get("notes", [])
    for note in want.notes:
        if note not in notes:
            return f"missing note {note!r}"
    if want.table is not None:
        return _check_table(job, report, expected["tables"][want.table])
    if want.artifact is not None:
        artifacts = report.get("artifacts") or [None]
        if not isinstance(artifacts[-1], dict):
            return "no artifact"
        got = digest(canonical_artifact(job, artifacts[-1]))
        if got != expected["artifacts"][want.artifact]:
            return f"artifact digest {got[:12]} differs from the pinned one"
    return None


def _check_table(job, report, pinned):
    tables = [a for a in report.get("artifacts", []) if a.get("kind") == "cohomology_table"]
    if len(tables) != 1:
        return "no cohomology table"
    rows = [[r["degree"], r["cocycles"], r["coboundaries"], r["dimension"]] for r in tables[0]["rows"]]
    if rows != pinned:
        return f"cohomology table {rows}, expected {pinned}"
    arity, dim = job.shape
    for (m, z, b, h), nxt in zip(rows, rows[1:] + [None]):
        if h != z - b:
            return f"H^{m}: dimension {h} != cocycles {z} - coboundaries {b}"
        if nxt is not None and z + nxt[2] != cochain_dim(arity, dim, m):
            return f"degree {m}: cocycles + coboundaries of degree {m + 1} != dim C^{m}"
    return None
