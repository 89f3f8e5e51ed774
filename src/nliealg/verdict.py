"""PASS / counterexample verdicts shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError
from .rings import Dual


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an identity check over all relevant basis tuples.

    ``counterexample`` holds the first failing instance: the named basis
    tuples, both sides of the identity, and their difference, all exact.
    """

    check_name: str
    passed: bool
    counterexample: dict | None = field(default=None)

    def __bool__(self):
        return self.passed


def ok(name):
    return CheckResult(name, True)


def fail(name, where, lhs, rhs):
    diff = _reported([a - b for a, b in zip(lhs, rhs)])
    return CheckResult(name, False, {"where": where, "lhs": _reported(lhs), "rhs": _reported(rhs), "difference": diff})


def require(verdict, message):
    """Raise ``PreconditionError`` with ``message`` and the counterexample
    unless ``verdict`` passed."""
    if not verdict:
        raise PreconditionError(message, verdict.counterexample)


def _reported(vec):
    """A compared vector with its integral entries as ``Fraction``, so a
    report writes every scalar as a string, like the other rationals."""
    return [Fraction(x) if type(x) is int else x for x in vec]


def jsonable(value):
    """A report value with its exact scalars written as reports write them:
    a rational as "p/q", a dual number a + b*eps as {"a": .., "b": ..},
    or as its rational part a when b = 0, so each scalar has one spelling."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, Dual):
        a = str(value.a)
        return {"a": a, "b": str(value.b)} if value.b else a
    return value


def spelled(value):
    """A value for a note: vectors and matrices in brackets, a {key: scalar}
    dict in braces, each scalar spelled as ``jsonable`` spells it."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(spelled(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {spelled(v)}" for k, v in value.items()) + "}"
    return str(jsonable(value))
