"""Exterior-index combinatorics: canonical wedge tuples and their ordering.

Basis indices are 1-based everywhere, matching the file formats.  A wedge
basis element e_{i1} ^ ... ^ e_{ik} is stored as its strictly increasing
index tuple; arbitrary tuples are canonicalized with the sorting-permutation
sign, and tuples with a repeated index canonicalize to None (zero).
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError


def check_indices(indices, dim):
    """Raise ``InputError`` unless every basis index lies in 1..dim."""
    for i in indices:
        if not 1 <= i <= dim:
            raise InputError(f"basis index {i} out of range 1..{dim}")


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


class WedgeBasis:
    """Lexicographically ordered basis of Lambda^k of a dim-dimensional space."""

    def __init__(self, dim, k):
        if k < 0 or k > dim:
            self.tuples = [] if k != 0 else [()]
        else:
            self.tuples = increasing_tuples(dim, k)
        self.dim = dim
        self.k = k
        self.index = {t: i for i, t in enumerate(self.tuples)}

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def position(self, indices):
        """(position, sign) of an arbitrary repeat-free tuple, or None."""
        canon = canonicalize_wedge(indices, self.dim)
        if canon is None:
            return None
        t, sign = canon
        return self.index[t], sign
