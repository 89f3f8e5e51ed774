"""Exact coefficient rings: rationals and dual numbers Q[eps]/(eps^2).

Scalars are exact ``int``/``Fraction`` values, never ``float``: an
integral scalar is a plain ``int`` and a ``Fraction`` only carries a
denominator other than 1.  ``rational``, the gate of every stored scalar,
normalises to that form and refuses any other type.  Dual numbers
``a + b*eps`` are a small immutable class that mixes freely with both in
arithmetic, so every multilinear routine works over either ring.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError, UnsupportedRingError

QQ_ZERO = 0
QQ_ONE = 1


def rational(x):
    """The one scalar gate: an ``int`` as itself, a ``Fraction`` normalised; a dual number
    is an ``UnsupportedRingError``, anything else (a float, a bool, a str) an ``InputError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, Dual):
        raise UnsupportedRingError(f"dual number {x!r} where a rational scalar is required")
    raise InputError(f"a scalar must be an int or a Fraction, not {type(x).__name__} {x!r}")


def exact_scalars(values, dual=False):
    """``values`` as a list of exact scalars, each entry through ``rational`` but an ``int``,
    and a dual number where ``dual`` admits it, kept as it is."""
    return [x if type(x) is int or dual and type(x) is Dual else rational(x) for x in values]


def sign(k):
    """(-1)**k as an ``int``, for any integer k (negative k included)."""
    return -1 if k % 2 else 1


class Dual:
    """a + b*eps with eps^2 = 0, over exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", rational(a))
        object.__setattr__(self, "b", rational(b))

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


def minus(a, b):
    """a - b, or a itself when b is zero, or -b when a is zero."""
    if not b:
        return a
    if not a:
        return -b
    return a - b


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text):
    """Parse "p/q" or "p" exactly: an optional sign, ASCII digits, no decimals, no whitespace."""
    if not isinstance(text, str):
        raise InputError(f"rational literal must be a string, got {type(text).__name__}")
    if not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"malformed rational literal {text!r}")
    try:
        return int(text) if "/" not in text else rational(Fraction(text))
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator in {text!r}") from exc
    except ValueError:  # int() refuses more digits than the interpreter's limit
        raise over_digit_limit() from None


def over_digit_limit():
    """The ``InputError`` for an integer literal over the interpreter's int/str digit limit."""
    return InputError(f"integer literal over the limit of {sys.get_int_max_str_digits()} digits")


def format_rational(x) -> str:
    return str(rational(x))
