import pytest

from nliealg.errors import InputError
from nliealg.wedge import WedgeBasis, canonicalize_wedge, increasing_tuples


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
    basis = WedgeBasis(4, 2)
    assert len(basis) == 6
