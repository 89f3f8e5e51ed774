"""Exact coefficient rings: rationals and dual numbers Q[eps]/(eps^2).

Rational scalars are plain ``fractions.Fraction`` values.  Dual numbers
``a + b*eps`` are a small immutable class that mixes freely with Fraction
and int in arithmetic, so every multilinear routine in the library works
over either ring without modification.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

QQ_ZERO = Fraction(0)
QQ_ONE = Fraction(1)


class Dual:
    """a + b*eps with eps^2 = 0, over exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("Dual is immutable")

    def __add__(self, other):
        o = _as_dual(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_dual(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _as_dual(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = _as_dual(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"


EPS = Dual(0, 1)


def _as_dual(x):
    if isinstance(x, Dual):
        return x
    if isinstance(x, (int, Fraction)):
        return Dual(x)
    return NotImplemented


def plus(a, b):
    """a + b, or the other operand itself (and its ring) when one side is zero."""
    if not a:
        return b
    if not b:
        return a
    return a + b


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" exactly; no decimals, no whitespace."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rational literal must be a string, got {type(text).__name__}")
    if not _RATIONAL_RE.match(text):
        raise InputError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator in {text!r}") from exc


def parse_scalar(obj):
    """Parse a serialized scalar: "p/q" string or {"a": .., "b": ..} dual."""
    if isinstance(obj, dict):
        extra = set(obj) - {"a", "b"}
        if extra:
            raise InputError(f"unexpected dual-number keys {sorted(extra)}")
        return Dual(parse_rational(obj.get("a", "0")), parse_rational(obj.get("b", "0")))
    return parse_rational(obj)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
