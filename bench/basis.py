"""Exact change-of-basis arithmetic, written independently of nliealg.

The benchmark builds its inputs and checks the program's outputs with
this module only, so a defect in the code under test cannot make both
sides agree.  Vectors are lists of ``Fraction``; a matrix is a list of
rows and follows the document convention: ``m[i][j]`` is the e_i
coefficient of the image of e_j.  Basis indices in structure tables are
1-based, as in the JSON documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def mat_mul(a, b):
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner) if a[i][k]), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in a]


def mat_add(a, b, scale=ONE):
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_inverse(a):
    """Gauss-Jordan inverse over Q; raises ValueError when singular."""
    d = len(a)
    m = [[Fraction(x) for x in row] + [ONE if i == j else ZERO for j in range(d)]
         for i, row in enumerate(a)]
    for c in range(d):
        piv = next((i for i in range(c, d) if m[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(d):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[d:] for row in m]


def column(a, j):
    return [row[j] for row in a]


def unimodular_change(rng: random.Random, d, nonzeros):
    """phi = L.U with L, U integer unitriangular, off-diagonal entries in
    {-1, 0, 1}; each factor gets ``nonzeros`` off-diagonal entries (capped
    by its size) at seeded positions.  Returns (phi, phi^-1), both integral.
    """
    below = [(i, j) for i in range(d) for j in range(i)]
    lower, upper = identity(d), identity(d)
    for i, j in rng.sample(below, min(nonzeros, len(below))):
        lower[i][j] = Fraction(rng.choice((-1, 1)))
    for i, j in rng.sample(below, min(nonzeros, len(below))):
        upper[j][i] = Fraction(rng.choice((-1, 1)))
    phi = mat_mul(lower, upper)
    phi_inv = mat_inverse(phi)
    if any(x.denominator != 1 for row in phi_inv for x in row):
        raise AssertionError("unitriangular product must have an integral inverse")
    return phi, phi_inv


# -- exterior algebra ------------------------------------------------------


def wedge_of(vectors):
    """v_1 ^ ... ^ v_k as {increasing 1-based tuple: coefficient}."""
    acc = {(): ONE}
    for v in vectors:
        nxt = {}
        for key, c in acc.items():
            for j, vj in enumerate(v):
                if not vj or (j + 1) in key:
                    continue
                # inserting j+1 at its sorted place passes every larger index
                sign = -1 if sum(1 for k in key if k > j + 1) % 2 else 1
                new = tuple(sorted(key + (j + 1,)))
                nxt[new] = nxt.get(new, ZERO) + sign * c * vj
        acc = {k: c for k, c in nxt.items() if c}
    return acc


def bracket(table, d, vectors):
    """Alternating multilinear map given on increasing tuples, applied to
    arbitrary vectors."""
    out = [ZERO] * d
    for key, w in wedge_of(vectors).items():
        vec = table.get(key)
        if vec is not None:
            out = [o + w * x for o, x in zip(out, vec)]
    return out


def unit(d, i):
    """1-based unit vector."""
    return [ONE if k == i - 1 else ZERO for k in range(d)]


# -- transport of structures along phi ---------------------------------------


def transform_alternating(table, arity, d, phi, phi_inv):
    """Structure constants of phi . [.]: [x]' = phi [phi^-1 x]."""
    out = {}
    for tup in combinations(range(1, d + 1), arity):
        pulled = bracket(table, d, [column(phi_inv, i - 1) for i in tup])
        vec = mat_vec(phi, pulled)
        if any(vec):
            out[tup] = vec
    return out


def transform_symmetric(table, d, phi, phi_inv):
    """The same transport for a commutative binary product."""
    out = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            acc = [ZERO] * d
            for a, ca in enumerate(column(phi_inv, i - 1)):
                for b, cb in enumerate(column(phi_inv, j - 1)):
                    if ca and cb:
                        vec = table.get((min(a, b) + 1, max(a, b) + 1))
                        if vec is not None:
                            acc = [o + ca * cb * x for o, x in zip(acc, vec)]
            vec = mat_vec(phi, acc)
            if any(vec):
                out[(i, j)] = vec
    return out


def transform_curly(curly, arity, d, phi, phi_inv):
    """Curly bracket {P, j} with an alternating prefix of n-1 slots."""
    out = {}
    for prefix in combinations(range(1, d + 1), arity - 1):
        weights = wedge_of([column(phi_inv, i - 1) for i in prefix])
        for j in range(1, d + 1):
            acc = [ZERO] * d
            for key, w in weights.items():
                for b, cb in enumerate(column(phi_inv, j - 1)):
                    vec = curly.get((key, b + 1)) if cb else None
                    if vec is not None:
                        acc = [o + w * cb * x for o, x in zip(acc, vec)]
            vec = mat_vec(phi, acc)
            if any(vec):
                out[(prefix, j)] = vec
    return out


def transform_operator(op, phi, phi_inv):
    return mat_mul(mat_mul(phi, op), phi_inv)


def transform_functional(coeffs, phi_inv):
    d = len(coeffs)
    return [sum((coeffs[a] * phi_inv[a][i] for a in range(d)), ZERO) for i in range(d)]


def block_diagonal(a, b):
    da, db = len(a), len(b)
    return [list(row) + [ZERO] * db for row in a] + [[ZERO] * da + list(row) for row in b]
