import pytest

from nliealg.cohomology import Cochain
from nliealg.errors import InputError
from nliealg.wedge import canonicalize_wedge, increasing_tuples


def test_canonicalize_sorts_and_signs():
    assert canonicalize_wedge((1, 2), 3) == ((1, 2), 1)
    assert canonicalize_wedge((2, 1), 3) == ((1, 2), -1)
    assert canonicalize_wedge((3, 1, 2), 3) == ((1, 2, 3), 1)
    assert canonicalize_wedge((3, 2, 1), 3) == ((1, 2, 3), -1)


def test_canonicalize_repeats_are_zero():
    assert canonicalize_wedge((1, 1), 3) is None
    assert canonicalize_wedge((2, 3, 2), 3) is None


def test_out_of_range_index():
    with pytest.raises(InputError):
        canonicalize_wedge((0, 1), 3)
    with pytest.raises(InputError):
        canonicalize_wedge((1, 4), 3)


def test_increasing_tuples_lexicographic():
    assert increasing_tuples(4, 2) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    assert increasing_tuples(3, 3) == [(1, 2, 3)]
    assert increasing_tuples(2, 3) == []


def test_wedge_basis_positions():
    """The empty and the over-long wedge bases are what ``combinations``
    gives, and a cochain places each block at its index in the lexicographic
    list of increasing tuples."""
    assert increasing_tuples(4, 0) == [()]
    assert increasing_tuples(2, 3) == []
    f = Cochain(3, 4, 4, 2, range(6 * 4 * 4))
    assert f.tuples == increasing_tuples(4, 2) and len(f.tuples) == 6
    assert [f.index[t] for t in f.tuples] == list(range(6))
    assert f.value_on_basis(((2, 3),), 2) == [3 * 16 + 4 + v for v in range(4)]
