"""JSON documents for algebras, operators, functionals and reports.

Rationals travel as strings ("3/4", "-2"); matrices use the column
convention: entry [i][j] is the e_i coefficient of the image of e_j.
All emitters sort their tables so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .algebra import ALTERNATING, SYMMETRIC, NAryAlgebra, RepresentationTable
from .errors import InputError
from .linalg import Matrix
from .rings import format_rational, over_digit_limit, parse_rational, rational
from .verdict import jsonable
from .wedge import canonical


def _err(pointer, message):
    """The error at ``pointer``, a tuple of keys spelled "/a/0" only here."""
    return InputError(f"{message} (at /{'/'.join(map(str, pointer))})")


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


def _as_vector(value, dim, pointer, literals):
    if type(value) is list and len(value) == dim and set(map(type, value)) <= {str}:
        try:  # ``literals``: each rational string of the document read so far, parsed once
            return [literals[v] if v in literals else literals.setdefault(v, parse_rational(v)) for v in value]
        except InputError:  # an entry to read, and refuse, by itself
            pass
    if not isinstance(value, list) or len(value) != dim:
        raise _err(pointer, f"expected a list of {dim} rationals")
    return [_as_rational(v, (*pointer, i)) for i, v in enumerate(value)]


def _as_matrix(value, dim, pointer, literals):
    if not isinstance(value, list) or len(value) != dim:
        raise _err(pointer, f"expected {dim} rows")
    return Matrix([_as_vector(row, dim, (*pointer, i), literals) for i, row in enumerate(value)])


def _as_int(value, pointer, what, low, high=None):
    """``value`` if it is an integer in low..high (or >= low when ``high`` is None)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low or (high is not None and value > high):
        raise _err(pointer, f"{what} must be an integer " + (f">= {low}" if high is None else f"in {low}..{high}"))
    return value


def _int_field(doc, key, low, default=None):
    return _as_int(doc.get(key, default), (key,), key, low)


def _as_index_tuple(value, length, dim, pointer, strict=True):
    """Basis indices in 1..dim, strictly increasing, or non-decreasing unless ``strict``."""
    if type(value) is list and canonical(value, length, dim, strict):
        return tuple(value)
    if not isinstance(value, list) or len(value) != length:
        raise _err(pointer, f"expected a list of {length} basis indices")
    for i, v in enumerate(value):
        _as_int(v, (*pointer, i), "basis index", 1, dim)
    if any(a > b or (strict and a == b) for a, b in zip(value, value[1:])):
        raise _err(pointer, f"indices must be {'strictly increasing' if strict else 'non-decreasing'}")
    return tuple(value)


def _as_basis(doc, dim):
    names = doc.get("basis")
    if names is not None and (
            not isinstance(names, list) or len(names) != dim or not all(isinstance(s, str) for s in names)):
        raise _err(("basis",), f"basis must be a list of {dim} names")
    return names


def _table(doc, name, fields, read, merge=None):
    """{key: value} of the entries of the list ``doc[name]``, objects with
    ``fields``, each read by ``read(entry, pointer)`` into (key, value).  A
    repeated key is an error, unless ``merge`` combines the two values."""
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise _err((name,), f"expected a list of objects with {fields}")
    table = {}
    for i, entry in enumerate(entries):
        pointer = (name, i)
        if not isinstance(entry, dict):
            raise _err(pointer, f"expected an object with {fields}")
        key, value = read(entry, pointer)
        if key in table and merge is None:
            raise _err(pointer, f"duplicate entry {key}")
        table[key] = merge(table[key], value) if key in table else value
    return table


def _parse_algebra(doc, literals):
    dim = _int_field(doc, "dim", 1)
    arity = _int_field(doc, "arity", 2, default=2)
    symmetry = doc.get("symmetry", ALTERNATING)
    if symmetry not in (ALTERNATING, SYMMETRIC):
        raise _err(("symmetry",), f"unknown symmetry {symmetry!r}")
    names, strict = _as_basis(doc, dim), symmetry == ALTERNATING
    brackets = _table(doc, "brackets", "'on' and 'value'", lambda entry, at: (
        _as_index_tuple(entry.get("on"), arity, dim, (*at, "on"), strict),
        _as_vector(entry.get("value"), dim, (*at, "value"), literals)))
    return NAryAlgebra(arity, dim, brackets, basis_names=names, symmetry=symmetry)


def _parse_operator(doc, literals):
    dim = _int_field(doc, "dim", 1)
    return _as_matrix(doc.get("matrix"), dim, ("matrix",), literals)


def _parse_functional(doc, literals):
    from .constructions import LinearFunctional
    dim = _int_field(doc, "dim", 1)
    return LinearFunctional(_as_vector(doc.get("coefficients"), dim, ("coefficients",), literals))


def _parse_ns(doc, literals):
    from .ns import NSAlgebra
    dim = _int_field(doc, "dim", 1)
    arity = _int_field(doc, "arity", 2, default=2)
    names = _as_basis(doc, dim)
    curly = _table(doc, "curly", "'wedge', 'last' and 'value'", lambda entry, at: (
        (_as_index_tuple(entry.get("wedge"), arity - 1, dim, (*at, "wedge")),
         _as_int(entry.get("last"), (*at, "last"), "last index", 1, dim)),
        _as_vector(entry.get("value"), dim, (*at, "value"), literals)))
    square = _table(doc, "square", "'on' and 'value'", lambda entry, at: (
        _as_index_tuple(entry.get("on"), arity, dim, (*at, "on")),
        _as_vector(entry.get("value"), dim, (*at, "value"), literals)))
    return NSAlgebra(arity, dim, curly, square, basis_names=names)


def _parse_representation(doc, literals):
    arity = _int_field(doc, "arity", 2, default=2)
    algebra_dim = _int_field(doc, "algebra_dim", 1)
    module_dim = _int_field(doc, "module_dim", 1)
    tables = _table(doc, "tables", "'on' and 'matrix'", lambda entry, at: (
        _as_index_tuple(entry.get("on"), arity - 1, algebra_dim, (*at, "on")),
        _as_matrix(entry.get("matrix"), module_dim, (*at, "matrix"), literals)))
    return RepresentationTable(arity, algebra_dim, module_dim, tables)


def _parse_wedge(doc, literals):
    """(arity, dim, terms) of a wedge element: repeated terms add up, zero coefficients drop."""
    dim = _int_field(doc, "dim", 1)
    arity = _int_field(doc, "arity", 2, default=2)
    terms = _table(doc, "terms", "'on' and 'coeff'", lambda entry, at: (
        _as_index_tuple(entry.get("on"), arity - 1, dim, (*at, "on")),
        _as_rational(entry.get("coeff"), (*at, "coeff"))), merge=lambda a, b: a + b)
    return arity, dim, {k: v for k, v in terms.items() if v}


_PARSERS = {
    "n_lie_algebra": _parse_algebra,
    "linear_operator": _parse_operator,
    "functional": _parse_functional,
    "ns_algebra": _parse_ns,
    "representation": _parse_representation,
    "wedge_element": _parse_wedge,
}


KINDS = tuple(_PARSERS)


def parse_document(text, expect=None):
    """Parse a JSON document given as text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
    except ValueError:  # a number over the interpreter's digit limit
        raise over_digit_limit() from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise InputError("malformed JSON: the document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise InputError(f"unknown document kind {kind!r}; expected one of {', '.join(KINDS)}")
    if expect is not None and kind != expect:
        raise InputError(f"expected a {expect!r} document, got {kind!r}")
    return _PARSERS[kind](doc, {})


# -- emission ------------------------------------------------------------


def _vec_doc(vec):
    return [format_rational(v) for v in vec]


def algebra_document(algebra):
    return {
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


def wedge_document(arity, dim, terms):
    """A wedge element of Lambda^{arity-1}, given as {increasing tuple: coefficient}."""
    return {
        "kind": "wedge_element",
        "dim": dim,
        "arity": arity,
        "terms": [{"on": list(key), "coeff": format_rational(c)} for key, c in sorted(terms.items())],
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
    return _encode(doc) + "\n"


# the spelling of each scalar type, as ``json.dumps`` writes it
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _encode(value, newline="\n"):
    """``json.dumps(value, indent=2)`` of str, int, bool, None and lists and str-keyed
    dicts of them, by one recursive join; any other type is a ``TypeError``."""
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if kind is not list and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    ends, inner = "[]" if kind is list else "{}", newline + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in value.items()]
    else:  # a vector or an index tuple holds one scalar type, spelled by one map
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_encode(v, inner) for v in value]
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{newline}{ends[1]}" if value else ends


# -- reports -------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one CLI invocation: the command echo, check verdicts in
    a stable order, any constructed documents, and whether ``--json`` asked
    for it as JSON."""

    command: list
    verdicts: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    as_json: bool = False

    def add(self, result):
        self.verdicts.append(result)

    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def to_json(self):
        payload = {
            "command": list(self.command),
            "verdicts": [
                {"check": v.check_name, "passed": v.passed,
                 **({"counterexample": jsonable(v.counterexample)} if v.counterexample is not None else {})}
                for v in self.verdicts
            ],
            "artifacts": self.artifacts,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return _encode(payload) + "\n"

    def to_text(self):
        lines = []
        for v in self.verdicts:
            if v.passed:
                lines.append(f"PASS {v.check_name}")
            elif v.counterexample is None:
                lines.append(f"FAIL {v.check_name}")
            else:
                lines.append(f"FAIL {v.check_name}: {jsonable(v.counterexample)}")
        for note in self.notes:
            lines.append(note)
        for art in self.artifacts:
            lines.append(emit_document(art).rstrip("\n"))
        return "\n".join(lines) + "\n"
