"""Exterior-index combinatorics: canonical wedge tuples and their ordering.

Basis indices are 1-based everywhere, matching the file formats.  A wedge
basis element e_{i1} ^ ... ^ e_{ik} is stored as its strictly increasing
index tuple; arbitrary tuples are canonicalized with the sorting-permutation
sign, and tuples with a repeated index canonicalize to None (zero).
"""

from __future__ import annotations

from itertools import combinations
from operator import le, lt

from .errors import InputError

_INT = frozenset((int,))


def check_indices(indices, dim):
    """Raise ``InputError`` unless every basis index lies in 1..dim."""
    for i in indices:
        if not 1 <= i <= dim:
            raise InputError(f"basis index {i} out of range 1..{dim}")


def canonical(key, length, dim, strict=True):
    """Whether ``key`` is a tuple or list of ``length`` ints in 1..dim, increasing (strictly unless
    not ``strict``): one test that passes only where ``check_indices`` and the order tests pass."""
    return type(key) in (tuple, list) and len(key) == length > 0 and _INT.issuperset(map(type, key)) and (
        0 < key[0] and key[-1] <= dim and all(map(lt if strict else le, key, key[1:])))


def key_rule(length, dim, strict=True):
    """What ``canonical`` accepts, in words, for the one ``InputError`` that refuses a key."""
    order = f", {'strictly increasing' if strict else 'non-decreasing'}" if length > 1 else ""
    return f"a tuple of {length} int{'s' * (length != 1)} in 1..{dim}{order}"


def canonicalize_wedge(indices, dim):
    """Sort ``indices``; returns (increasing tuple, sign) or None on a repeat."""
    indices = tuple(indices)
    check_indices(indices, dim)
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def increasing_tuples(dim, k):
    """All strictly increasing k-tuples from 1..dim, in lexicographic order."""
    return list(combinations(range(1, dim + 1), k))
