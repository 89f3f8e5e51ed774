"""JSON documents for algebras, operators, functionals and reports.

Rationals travel as strings ("3/4", "-2"); matrices use the column
convention: entry [i][j] is the e_i coefficient of the image of e_j.
All emitters sort their tables so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .algebra import ALTERNATING, SYMMETRIC, NAryAlgebra, RepresentationTable
from .constructions import LinearFunctional
from .errors import InputError
from .linalg import Matrix
from .ns import NSAlgebra
from .rings import format_rational, parse_rational, rational
from .verdict import jsonable

KINDS = (
    "n_lie_algebra",
    "linear_operator",
    "functional",
    "ns_algebra",
    "representation",
    "wedge_element",
)


def _err(pointer, message):
    return InputError(f"{message} (at {pointer})")


def _as_rational(value, pointer):
    if isinstance(value, bool):
        raise _err(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return rational(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except InputError as exc:
            raise _err(pointer, str(exc))
    raise _err(pointer, f"expected a rational string or integer, got {type(value).__name__}")


def _as_vector(value, dim, pointer):
    if not isinstance(value, list) or len(value) != dim:
        raise _err(pointer, f"expected a list of {dim} rationals")
    return [_as_rational(v, f"{pointer}/{i}") for i, v in enumerate(value)]


def _as_index_tuple(value, length, dim, pointer, strict=True):
    if not isinstance(value, list) or len(value) != length:
        raise _err(pointer, f"expected a list of {length} basis indices")
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= dim:
            raise _err(f"{pointer}/{i}", f"basis index must be an integer in 1..{dim}")
    if strict and any(a >= b for a, b in zip(value, value[1:])):
        raise _err(pointer, "indices must be strictly increasing")
    return tuple(value)


def _as_dims(doc, pointer=""):
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _err(f"{pointer}/dim", "dim must be a positive integer")
    return dim


def _as_arity(doc):
    arity = doc.get("arity", 2)
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 2:
        raise _err("/arity", "arity must be an integer >= 2")
    return arity


def _parse_algebra(doc):
    dim = _as_dims(doc)
    arity = _as_arity(doc)
    symmetry = doc.get("symmetry", ALTERNATING)
    if symmetry not in (ALTERNATING, SYMMETRIC):
        raise _err("/symmetry", f"unknown symmetry {symmetry!r}")
    names = doc.get("basis")
    if names is not None:
        if not isinstance(names, list) or len(names) != dim or not all(isinstance(s, str) for s in names):
            raise _err("/basis", f"basis must be a list of {dim} names")
    brackets = {}
    for i, entry in enumerate(doc.get("brackets", [])):
        pointer = f"/brackets/{i}"
        if not isinstance(entry, dict):
            raise _err(pointer, "expected an object with 'on' and 'value'")
        on = _as_index_tuple(
            entry.get("on"), arity, dim, f"{pointer}/on", strict=(symmetry == ALTERNATING)
        )
        if symmetry == SYMMETRIC and any(a > b for a, b in zip(on, on[1:])):
            raise _err(f"{pointer}/on", "indices must be non-decreasing")
        if on in brackets:
            raise _err(f"{pointer}/on", f"duplicate tuple {list(on)}")
        brackets[on] = _as_vector(entry.get("value"), dim, f"{pointer}/value")
    return NAryAlgebra(arity, dim, brackets, basis_names=names, symmetry=symmetry)


def _parse_operator(doc):
    dim = _as_dims(doc)
    rows = doc.get("matrix")
    if not isinstance(rows, list) or len(rows) != dim:
        raise _err("/matrix", f"expected {dim} rows")
    entries = [_as_vector(row, dim, f"/matrix/{i}") for i, row in enumerate(rows)]
    return Matrix(entries)


def _parse_functional(doc):
    dim = _as_dims(doc)
    return LinearFunctional(_as_vector(doc.get("coefficients"), dim, "/coefficients"))


def _parse_ns(doc):
    dim = _as_dims(doc)
    arity = _as_arity(doc)
    curly = {}
    for i, entry in enumerate(doc.get("curly", [])):
        pointer = f"/curly/{i}"
        if not isinstance(entry, dict):
            raise _err(pointer, "expected an object with 'wedge', 'last' and 'value'")
        wedge = _as_index_tuple(entry.get("wedge"), arity - 1, dim, f"{pointer}/wedge")
        last = entry.get("last")
        if not isinstance(last, int) or isinstance(last, bool) or not 1 <= last <= dim:
            raise _err(f"{pointer}/last", f"last index must be an integer in 1..{dim}")
        if (wedge, last) in curly:
            raise _err(pointer, f"duplicate curly entry {list(wedge)}, {last}")
        curly[(wedge, last)] = _as_vector(entry.get("value"), dim, f"{pointer}/value")
    square = {}
    for i, entry in enumerate(doc.get("square", [])):
        pointer = f"/square/{i}"
        if not isinstance(entry, dict):
            raise _err(pointer, "expected an object with 'on' and 'value'")
        on = _as_index_tuple(entry.get("on"), arity, dim, f"{pointer}/on")
        if on in square:
            raise _err(f"{pointer}/on", f"duplicate tuple {list(on)}")
        square[on] = _as_vector(entry.get("value"), dim, f"{pointer}/value")
    return NSAlgebra(arity, dim, curly, square, basis_names=doc.get("basis"))


def _parse_representation(doc):
    arity = _as_arity(doc)
    algebra_dim = doc.get("algebra_dim")
    module_dim = doc.get("module_dim")
    for label, v in (("algebra_dim", algebra_dim), ("module_dim", module_dim)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise _err(f"/{label}", f"{label} must be a positive integer")
    tables = {}
    for i, entry in enumerate(doc.get("tables", [])):
        pointer = f"/tables/{i}"
        if not isinstance(entry, dict):
            raise _err(pointer, "expected an object with 'on' and 'matrix'")
        on = _as_index_tuple(entry.get("on"), arity - 1, algebra_dim, f"{pointer}/on")
        rows = entry.get("matrix")
        if not isinstance(rows, list) or len(rows) != module_dim:
            raise _err(f"{pointer}/matrix", f"expected {module_dim} rows")
        mat = Matrix(
            [_as_vector(row, module_dim, f"{pointer}/matrix/{r}") for r, row in enumerate(rows)]
        )
        tables[on] = mat
    return RepresentationTable(arity, algebra_dim, module_dim, tables)


def _parse_wedge(doc):
    dim = _as_dims(doc)
    arity = _as_arity(doc)
    terms = {}
    for i, entry in enumerate(doc.get("terms", [])):
        pointer = f"/terms/{i}"
        if not isinstance(entry, dict):
            raise _err(pointer, "expected an object with 'on' and 'coeff'")
        on = _as_index_tuple(entry.get("on"), arity - 1, dim, f"{pointer}/on")
        coeff = _as_rational(entry.get("coeff"), f"{pointer}/coeff")
        if coeff:
            terms[on] = terms.get(on, 0) + coeff
    return {k: v for k, v in terms.items() if v}


_PARSERS = {
    "n_lie_algebra": _parse_algebra,
    "linear_operator": _parse_operator,
    "functional": _parse_functional,
    "ns_algebra": _parse_ns,
    "representation": _parse_representation,
    "wedge_element": _parse_wedge,
}


def parse_document(source, expect=None):
    """Parse a JSON document given as text or as a path to a file."""
    text = source
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise InputError(f"no such file: {source}")
        with open(source) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _PARSERS:
        raise InputError(f"unknown document kind {kind!r}; expected one of {', '.join(KINDS)}")
    if expect is not None and kind != expect:
        raise InputError(f"expected a {expect!r} document, got {kind!r}")
    return _PARSERS[kind](doc)


# -- emission ------------------------------------------------------------


def _vec_doc(vec):
    return [format_rational(v) for v in vec]


def algebra_document(algebra):
    doc = {
        "kind": "n_lie_algebra",
        "arity": algebra.arity,
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "symmetry": algebra.symmetry,
        "brackets": [
            {"on": list(key), "value": _vec_doc(vec)}
            for key, vec in sorted(algebra.brackets.items())
        ],
    }
    return doc


def operator_document(op):
    return {
        "kind": "linear_operator",
        "dim": op.rows,
        "matrix": [[format_rational(v) for v in row] for row in op.entries],
    }


def functional_document(functional):
    return {
        "kind": "functional",
        "dim": functional.dim,
        "coefficients": _vec_doc(functional.coefficients),
    }


def ns_document(ns):
    return {
        "kind": "ns_algebra",
        "arity": ns.arity,
        "dim": ns.dim,
        "basis": list(ns.basis_names),
        "curly": [
            {"wedge": list(prefix), "last": j, "value": _vec_doc(vec)}
            for (prefix, j), vec in sorted(ns.curly_table.items())
        ],
        "square": [
            {"on": list(key), "value": _vec_doc(vec)}
            for key, vec in sorted(ns.square.brackets.items())
        ],
    }


def representation_document(rep):
    return {
        "kind": "representation",
        "arity": rep.arity,
        "algebra_dim": rep.algebra_dim,
        "module_dim": rep.module_dim,
        "tables": [
            {"on": list(key), "matrix": [[format_rational(v) for v in row] for row in mat.entries]}
            for key, mat in sorted(rep.tables.items())
        ],
    }


def emit_document(doc):
    """Canonical single-format serialization of a document dict."""
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# -- reports -------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one CLI invocation: the command echo, check verdicts in
    a stable order, and any constructed documents."""

    command: list
    verdicts: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, result):
        self.verdicts.append(result)

    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def to_json(self):
        payload = {
            "command": list(self.command),
            "verdicts": [
                {
                    "check": v.check_name,
                    "passed": v.passed,
                    **(
                        {"counterexample": jsonable(v.counterexample)}
                        if v.counterexample is not None
                        else {}
                    ),
                }
                for v in self.verdicts
            ],
            "artifacts": self.artifacts,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self):
        lines = []
        for v in self.verdicts:
            if v.passed:
                lines.append(f"PASS {v.check_name}")
            else:
                lines.append(f"FAIL {v.check_name}: {jsonable(v.counterexample)}")
        for note in self.notes:
            lines.append(note)
        for art in self.artifacts:
            lines.append(emit_document(art).rstrip("\n"))
        return "\n".join(lines) + "\n"
