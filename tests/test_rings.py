from fractions import Fraction

import pytest

from nliealg.algebra import NAryAlgebra
from nliealg.constructions import LinearFunctional
from nliealg.errors import InputError
from nliealg.ns import NSAlgebra
from nliealg.rings import Dual, EPS, format_rational, parse_rational, rational, sign


def test_eps_squares_to_zero():
    assert EPS * EPS == Dual(0, 0)
    assert not EPS * EPS


def test_dual_arithmetic():
    x = Dual(Fraction(1, 2), 3)
    y = Dual(2, Fraction(-1, 3))
    assert x + y == Dual(Fraction(5, 2), Fraction(8, 3))
    assert x * y == Dual(1, Fraction(35, 6))
    assert -x == Dual(Fraction(-1, 2), -3)
    assert x - x == Dual(0, 0)


def test_dual_mixes_with_rationals():
    x = Dual(1, 1)
    assert x + 1 == Dual(2, 1)
    assert 2 * x == Dual(2, 2)
    assert Fraction(1, 2) * x == Dual(Fraction(1, 2), Fraction(1, 2))
    assert x == Dual(1, 1)
    assert Dual(3, 0) == Fraction(3)
    assert Fraction(3) == Dual(3, 0)


def test_dual_truthiness():
    assert not Dual(0, 0)
    assert Dual(0, 1)
    assert Dual(1, 0)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == 0
    for bad in ("", "1/0", "a", "1.5", "1/ 2"):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_format_round_trip():
    for q in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(7, 3)):
        assert parse_rational(format_rational(q)) == q


def test_rational_keeps_integral_scalars_as_int():
    for x, expected in ((3, 3), (Fraction(6, 2), 3), (Fraction(-0), 0), (True, 1), ("3/4", Fraction(3, 4))):
        got = rational(x)
        assert got == expected and type(got) is type(expected)
    for text, expected in (("3", 3), ("-0", 0), ("+7", 7), ("6/2", 3), ("-6/4", Fraction(-3, 2)), (5, 5)):
        got = parse_rational(text)
        assert got == expected and type(got) is type(expected)
    assert [format_rational(x) for x in (3, Fraction(6, 2), Fraction(-3, 4), 0)] == ["3", "3", "-3/4", "0"]


def test_sign_is_an_int_for_every_integer():
    assert [sign(k) for k in range(-4, 5)] == [1, -1, 1, -1, 1, -1, 1, -1, 1]
    assert all(type(sign(k)) is int for k in range(-4, 5))


def test_constructors_normalise_scalars():
    dual = Dual(Fraction(4, 2), Fraction(1, 2))
    assert type(dual.a) is int and dual.b == Fraction(1, 2)
    alg = NAryAlgebra(2, 2, {(1, 2): [Fraction(2, 2), Fraction(1, 2)]})
    functional = LinearFunctional([Fraction(3, 1), "1/3"])
    ns = NSAlgebra(2, 2, {((1,), 2): [Fraction(0), Fraction(4, 2)]}, {})
    assert [type(x) for x in alg.brackets[1, 2]] == [int, Fraction]
    assert [type(x) for x in functional.coefficients] == [int, Fraction]
    assert [type(x) for x in ns.curly_table[(1,), 2]] == [int, int]
