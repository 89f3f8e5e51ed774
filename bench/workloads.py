"""Seeded job lists for the three workloads, with their expected answers.

Every case starts from a canonical (sparse) input whose answer is known:
a verdict fixed by a mathematical argument, a cohomology table or an
artifact digest pinned in ``expected.json``.  The seed draws unimodular
changes of basis phi = L.U; each moves a case's algebra and operators to
a denser basis.  The answers do not move, so the expected answers are
the same for every seed while the input bytes differ.

The program receives only the JSON files written by ``write_jobs``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import basis as B

F = Fraction
WORKLOADS = ("cohomology", "verify", "construct")
# off-diagonal entries in each factor of phi: denser inputs whose cost
# does not swing with the seed (a full factor makes 6-ary brackets of
# 7-dim vectors expand to 7^6 terms on some seeds and not on others)
NONZEROS = 2


# -- canonical structures ------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    arity: int
    dim: int
    table: dict
    symmetric: bool = False


@dataclass(frozen=True)
class NS:
    arity: int
    dim: int
    curly: dict
    square: dict


@dataclass(frozen=True)
class Rep:
    """An action of Lambda^{n-1} g on g itself, one matrix per increasing tuple."""

    arity: int
    dim: int
    tables: dict


@dataclass(frozen=True)
class Functional:
    coefficients: list


def _vec(d, entries):
    v = [B.ZERO] * d
    for i, c in entries.items():
        v[i - 1] = F(c)
    return v


def simple(n):
    """The simple n-Lie algebra A_{n+1}: [e_1..^e_i..e_{n+1}] = (-1)^{n+1+i} e_i."""
    d = n + 1
    table = {}
    for i in range(1, d + 1):
        table[tuple(k for k in range(1, d + 1) if k != i)] = _vec(d, {i: (-1) ** (n + 1 + i)})
    return Algebra(n, d, table)


LIE2 = Algebra(2, 2, {(1, 2): _vec(2, {2: 1})})
LIE3 = Algebra(2, 3, {(1, 2): _vec(3, {2: 1})})
SL2 = Algebra(2, 3, {(1, 2): _vec(3, {3: 1}), (1, 3): _vec(3, {1: -2}), (2, 3): _vec(3, {2: 2})})
# a binary bracket whose Jacobiator on (e1, e2, e3) is e3, so Filippov fails
NOT_LIE3 = Algebra(2, 3, {(1, 2): _vec(3, {3: 1}), (1, 3): _vec(3, {1: 1})})
ABELIAN33 = Algebra(3, 3, {})
GF = Algebra(3, 3, {(1, 2, 3): _vec(3, {2: 1})})  # lie3 raised by f = (1, 0, 1)
THREE_LIE4 = Algebra(3, 4, {(1, 2, 3): _vec(4, {4: 1})})


def _monomial_algebra(monomials):
    """Commutative truncated algebra on square-free monomials over letters."""
    d = len(monomials)
    pos = {m: i + 1 for i, m in enumerate(monomials)}
    table = {}
    for i, a in enumerate(monomials):
        for b in monomials[i:]:
            if not set(a) & set(b):
                table[(pos[a], pos[b])] = _vec(d, {pos["".join(sorted(a + b))]: 1})
    return Algebra(2, d, table, symmetric=True)


TRUNC_XY = _monomial_algebra(["", "x", "y", "xy"])
TRUNC_XYZ = _monomial_algebra(["", "x", "y", "z", "xy", "xz", "yz", "xyz"])


def euler(monomials, letter):
    """Diagonal derivation counting ``letter`` in each basis monomial."""
    d = len(monomials)
    return [[F(letter in m) if i == j else B.ZERO for j in range(d)] for i, m in enumerate(monomials)]


def scalar(c, d):
    return B.mat_scale(F(c), B.identity(d))


def matrix(rows):
    return [[F(x) for x in row] for row in rows]


FAMILY1 = matrix([[1, 0, 1], [1, 0, 1], [0, 0, 1]])
FAMILY2 = matrix([[-1, 1, 0], [-1, 1, 0], [0, 0, 1]])


def ad(alg, prefix):
    """ad of the basis wedge e_prefix: y -> [e_prefix, y]."""
    d = alg.dim
    units = [B.unit(d, i) for i in prefix]
    return [list(r) for r in zip(*[B.bracket(alg.table, d, units + [B.unit(d, j)]) for j in range(1, d + 1)])]


def derivation_to_reynolds(alg, deriv):
    """(D + Id/(n-1))^-1: a Reynolds operator for every derivation D."""
    return B.mat_inverse(B.mat_add(deriv, scalar(F(1, alg.arity - 1), alg.dim)))


def delta_r(alg, op, prefix):
    """delta_R(X) = R.ad_X - ad_X.R - R.ad_X.R, a trivial deformation direction."""
    adx = ad(alg, prefix)
    out = B.mat_add(B.mat_mul(op, adx), B.mat_mul(adx, op), -B.ONE)
    return B.mat_add(out, B.mat_mul(B.mat_mul(op, adx), op), -B.ONE)


def lie3_derivation(b, c):
    """Nilpotent derivation of lie3: D e1 = b e2 + c e3, D e2 = D e3 = 0."""
    return matrix([[0, 0, 0], [b, 0, 0], [c, 0, 0]])


def ns_from_reynolds(alg, op):
    """curly {P, j} = [R e_P, e_j], square = -[R e_I]; an NS structure for
    every Reynolds operator."""
    n, d = alg.arity, alg.dim
    curly, square = {}, {}
    for prefix in combinations(range(1, d + 1), n - 1):
        r_units = [B.mat_vec(op, B.unit(d, i)) for i in prefix]
        for j in range(1, d + 1):
            vec = B.bracket(alg.table, d, r_units + [B.unit(d, j)])
            if any(vec):
                curly[(prefix, j)] = vec
    for tup in combinations(range(1, d + 1), n):
        vec = B.bracket(alg.table, d, [B.mat_vec(op, B.unit(d, i)) for i in tup])
        if any(vec):
            square[tup] = [-v for v in vec]
    return NS(n, d, curly, square)


def scaled_adjoint(alg, c):
    """c.ad: a representation exactly when c is 0 or 1 (for A_{n+1})."""
    tables = {}
    for prefix in combinations(range(1, alg.dim + 1), alg.arity - 1):
        mat = B.mat_scale(F(c), ad(alg, prefix))
        if any(any(r) for r in mat):
            tables[prefix] = mat
    return Rep(alg.arity, alg.dim, tables)


# -- change of basis -----------------------------------------------------------


def transform(obj, phi, phi_inv):
    """Move a structure to the basis given by phi."""
    if isinstance(obj, Algebra):
        if obj.symmetric:
            return Algebra(2, obj.dim, B.transform_symmetric(obj.table, obj.dim, phi, phi_inv), True)
        return Algebra(obj.arity, obj.dim, B.transform_alternating(obj.table, obj.arity, obj.dim, phi, phi_inv))
    if isinstance(obj, NS):
        return NS(
            obj.arity, obj.dim,
            B.transform_curly(obj.curly, obj.arity, obj.dim, phi, phi_inv),
            B.transform_alternating(obj.square, obj.arity, obj.dim, phi, phi_inv),
        )
    if isinstance(obj, Rep):
        moved = {}
        for prefix in combinations(range(1, obj.dim + 1), obj.arity - 1):
            acc = [[B.ZERO] * obj.dim for _ in range(obj.dim)]
            for key, w in B.wedge_of([B.column(phi_inv, i - 1) for i in prefix]).items():
                if key in obj.tables:
                    acc = B.mat_add(acc, obj.tables[key], w)
            mat = B.transform_operator(acc, phi, phi_inv)
            if any(any(r) for r in mat):
                moved[prefix] = mat
        return Rep(obj.arity, obj.dim, moved)
    if isinstance(obj, Functional):
        return Functional(B.transform_functional(obj.coefficients, phi_inv))
    return B.transform_operator(obj, phi, phi_inv)


# -- documents -----------------------------------------------------------------


def _q(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def document(obj):
    """The JSON document of a structure, in the formats of the README."""
    if isinstance(obj, Algebra):
        return {
            "kind": "n_lie_algebra", "arity": obj.arity, "dim": obj.dim,
            "symmetry": "symmetric" if obj.symmetric else "alternating",
            "brackets": [{"on": list(k), "value": [_q(x) for x in v]} for k, v in sorted(obj.table.items())],
        }
    if isinstance(obj, NS):
        return {
            "kind": "ns_algebra", "arity": obj.arity, "dim": obj.dim,
            "curly": [{"wedge": list(p), "last": j, "value": [_q(x) for x in v]}
                      for (p, j), v in sorted(obj.curly.items())],
            "square": [{"on": list(k), "value": [_q(x) for x in v]} for k, v in sorted(obj.square.items())],
        }
    if isinstance(obj, Rep):
        return {
            "kind": "representation", "arity": obj.arity, "algebra_dim": obj.dim, "module_dim": obj.dim,
            "tables": [{"on": list(k), "matrix": [[_q(x) for x in r] for r in m]}
                       for k, m in sorted(obj.tables.items())],
        }
    if isinstance(obj, Functional):
        return {"kind": "functional", "dim": len(obj.coefficients),
                "coefficients": [_q(x) for x in obj.coefficients]}
    return {"kind": "linear_operator", "dim": len(obj), "matrix": [[_q(x) for x in r] for r in obj]}


# -- cases and jobs ------------------------------------------------------------


@dataclass(frozen=True)
class Expect:
    """What a correct run of one job returns.

    ``table`` keys a pinned cohomology table and ``artifact`` a pinned
    artifact digest, both in expected.json.
    """

    code: int
    verdicts: tuple
    table: str | None = None
    artifact: str | None = None
    notes: tuple = ()


@dataclass(frozen=True)
class Case:
    """One invocation on canonical inputs.  ``inputs`` pairs a flag with the
    structure passed under it (a tuple of them for a repeated flag)."""

    key: str
    command: tuple
    inputs: tuple
    expect: Expect
    extra: tuple = ()
    conjugates: int = 1
    # the semidirect product lives on g + g, so it moves by phi + phi
    doubled: bool = False
    # run by the traced run only, never in a timed pass
    traced_only: bool = False


@dataclass
class Job:
    key: str
    argv: list
    expect: Expect
    # (phi^-1, phi) moving the artifact back to the canonical basis
    back: tuple | None = field(default=None, repr=False)
    doubled: bool = False
    shape: tuple = ()  # (arity, dim) of the job's algebra


PASS, FAIL = True, False


def _cohomology_cases():
    """Reynolds pairs at the degrees a pass can afford.  The anchor, the
    degree-3 complex of lie3/family1 (a 243x81 top differential), runs in
    the traced run only: it alone takes about 12 s, so a timed pass that
    held it would give one sample per run."""
    a4 = simple(3)
    cases = [Case("lie3/family1/3", ("cohomology",), (("--algebra", LIE3), ("--reynolds", FAMILY1)),
                  Expect(0, (("reynolds-complex", PASS),), table="lie3/family1/3"), ("--max-degree", "3"), 0,
                  traced_only=True)]
    # (label, algebra, operator, max degree, conjugated copies).  Three
    # heavy jobs (over 0.5 s) are about 5 % of a pass and ten of 0.2-0.5 s
    # the next 18 %, so job_s.p90 falls inside that group, not on a gap
    # between two groups where the seed or the number of passes would
    # decide which side it reads
    pairs = [
        ("lie3/family1", LIE3, FAMILY1, 2, 0),
        ("lie3/family2", LIE3, FAMILY2, 2, 0),
        ("lie2/zero", LIE2, scalar(0, 2), 4, 0),
        ("lie2/id", LIE2, scalar(1, 2), 3, 1),
        ("lie2/ad1", LIE2, derivation_to_reynolds(LIE2, ad(LIE2, (1,))), 3, 1),
        ("a4/ad12", a4, derivation_to_reynolds(a4, ad(a4, (1, 2))), 1, 1),
        ("a4/ad34", a4, derivation_to_reynolds(a4, ad(a4, (3, 4))), 1, 1),
        ("three_lie4/zero", THREE_LIE4, scalar(0, 4), 1, 1),
        ("lie3/family1", LIE3, FAMILY1, 1, 4),
        ("lie3/family2", LIE3, FAMILY2, 1, 4),
        ("lie3/series", LIE3, derivation_to_reynolds(LIE3, lie3_derivation(1, -1)), 1, 4),
        ("abelian33/zero", ABELIAN33, scalar(0, 3), 1, 4),
        ("sl2/zero", SL2, scalar(0, 3), 1, 4),
        ("gf/family1", GF, FAMILY1, 1, 4),
        ("gf/family2", GF, FAMILY2, 1, 4),
        ("lie2/zero", LIE2, scalar(0, 2), 2, 2),
        ("lie2/id", LIE2, scalar(1, 2), 2, 2),
        ("lie2/ad1", LIE2, derivation_to_reynolds(LIE2, ad(LIE2, (1,))), 2, 2),
    ]
    for name, alg, op, deg, k in pairs:
        key = f"{name}/{deg}"
        cases.append(Case(key, ("cohomology",), (("--algebra", alg), ("--reynolds", op)),
                          Expect(0, (("reynolds-complex", PASS),), table=key), ("--max-degree", str(deg)), k))
    return cases


def _check(what, inputs, verdicts, conjugates=1):
    """``nlie check what``; inputs are (flag, label, structure) triples."""
    code = 0 if all(p for _, p in verdicts) else 1
    key = "/".join([what] + [label for _, label, _ in inputs])
    return Case(key, ("check", what), tuple((flag, obj) for flag, _, obj in inputs),
                Expect(code, tuple(verdicts)), (), conjugates)


def _verify_cases():
    cases = []
    for n in range(3, 7):
        alg = simple(n)
        a = ("--algebra", f"a{n + 1}", alg)
        cases.append(_check("filippov", [a], [("filippov", PASS)], 2))
        cases.append(_check("derivation", [a, ("--operator", "ad", ad(alg, tuple(range(1, n))))],
                            [("derivation", PASS)]))
        cases.append(_check("derivation", [a, ("--operator", "2id", scalar(2, alg.dim))],
                            [("derivation", FAIL)]))
        for c in sorted({0, n - 1, 1, -1, 2}):
            cases.append(_check("reynolds", [a, ("--operator", f"{c}id", scalar(c, alg.dim))],
                                [("reynolds", PASS if c in (0, n - 1) else FAIL)]))
        cases.append(_check("nijenhuis", [a, ("--operator", "3id", scalar(3, alg.dim))], [("nijenhuis", PASS)]))
        if n <= 5:
            cases.append(_check("representation", [a, ("--representation", "ad", scaled_adjoint(alg, 1))],
                                [("representation", PASS)], 1 if n == 5 else 2))
        if n <= 4:
            cases.append(_check("representation", [a, ("--representation", "2ad", scaled_adjoint(alg, 2))],
                                [("representation-commutator", FAIL)]))
        r = derivation_to_reynolds(alg, ad(alg, tuple(range(2, n + 1))))
        cases.append(_check("reynolds", [a, ("--operator", "ad-series", r)], [("reynolds", PASS)]))
        if n <= 4:
            cases.append(_check("ns", [("--algebra", f"a{n + 1}-ad-series", ns_from_reynolds(alg, r))],
                                [("ns-axioms", PASS)]))
    cases.append(_check("filippov", [("--algebra", "not-lie3", NOT_LIE3)], [("filippov", FAIL)]))
    for name, alg in (("lie3", LIE3), ("gf", GF), ("sl2", SL2), ("three_lie4", THREE_LIE4)):
        cases.append(_check("filippov", [("--algebra", name, alg)], [("filippov", PASS)]))
    for alg_name, alg in (("lie3", LIE3), ("gf", GF)):
        for op_name, op in (("family1", FAMILY1), ("family2", FAMILY2)):
            cases.append(_check("reynolds", [("--algebra", alg_name, alg), ("--operator", op_name, op)],
                                [("reynolds", PASS)], 2))
            cases.append(_check("ns", [("--algebra", f"{alg_name}-{op_name}", ns_from_reynolds(alg, op))],
                                [("ns-axioms", PASS)]))
    lie3 = ("--algebra", "lie3", LIE3)
    for b, c in ((1, 0), (2, -1)):
        deriv = lie3_derivation(b, c)
        cases.append(_check("derivation", [lie3, ("--operator", f"d{b}{c}", deriv)], [("derivation", PASS)]))
        cases.append(_check("reynolds", [lie3, ("--operator", f"series{b}{c}", derivation_to_reynolds(LIE3, deriv))],
                            [("reynolds", PASS)]))
    f = ("--functional", "f101", Functional(_vec(3, {1: 1, 3: 1})))
    for op_name, op in (("family1", FAMILY1), ("zero", scalar(0, 3))):
        cases.append(_check("lift", [lie3, ("--operator", op_name, op), f], [("lift-criterion", PASS)]))
    for c in (0, 1, 2):
        cases.append(_check("assoc-reynolds", [("--algebra", "trunc_xy", TRUNC_XY),
                                               ("--operator", f"{c}id", scalar(c, 4))],
                            [("assoc-reynolds", PASS if c in (0, 1) else FAIL)]))
    a4 = simple(3)
    deform = [("lie3/family1", LIE3, FAMILY1), ("gf/family1", GF, FAMILY1),
              ("a4/ad12", a4, derivation_to_reynolds(a4, ad(a4, (1, 2))))]
    for name, alg, op in deform:
        for prefix in list(combinations(range(1, alg.dim + 1), alg.arity - 1))[:2]:
            key = f"deform/{name}/delta{''.join(map(str, prefix))}"
            cases.append(Case(key, ("deform",), (("--algebra", alg), ("--reynolds", op),
                                                 ("--direction", delta_r(alg, op, prefix))),
                              Expect(0, (("deformation-cocycle", PASS), ("deformation-trivial", PASS)),
                                     notes=("status: trivial",))))
    return cases


def _construct(what, inputs, key, extra=(), conjugates=1, doubled=False, verdicts=()):
    return Case(f"{what}/{key}", tuple(what.split(" ")), tuple(inputs),
                Expect(0, tuple(verdicts), artifact=f"{what}/{key}"), tuple(extra), conjugates, doubled)


def _construct_cases():
    a4, a5, a6 = simple(3), simple(4), simple(5)
    r_a4 = derivation_to_reynolds(a4, ad(a4, (1, 2)))
    f = Functional(_vec(3, {1: 1, 3: 1}))
    cases = []
    for key, alg, op in (("lie3/family1", LIE3, FAMILY1), ("lie3/family2", LIE3, FAMILY2),
                         ("gf/family1", GF, FAMILY1), ("a4/ad12", a4, r_a4), ("a5/3id", a5, scalar(3, 5))):
        ins = [("--algebra", alg), ("--operator", (op,))]
        cases.append(_construct("construct induced", ins, key, conjugates=2))
        cases.append(_construct("construct ns-from-reynolds", ins, key))
    cases.append(_construct("construct ns-from-reynolds", [("--algebra", a6), ("--operator", (scalar(4, 6),))],
                            "a6/4id", conjugates=0))
    for key, alg in (("lie3", LIE3), ("sl2", SL2), ("a4", a4), ("a5", a5)):
        cases.append(_construct("construct semidirect", [("--algebra", alg)], key, doubled=True,
                                conjugates=0 if alg is a5 else 1))
    for key, alg, c in (("lie3/2id", LIE3, 2), ("three_lie4/half", THREE_LIE4, F(1, 2)), ("a4/2id", a4, 2)):
        ins = [("--algebra", alg), ("--operator", (scalar(c, alg.dim),))]
        cases.append(_construct("construct ns-from-nijenhuis", ins, key))
        cases.append(_construct("construct deformed", ins, key))
    for key, alg, func in (("lie3/f101", LIE3, f), ("lie2/f10", LIE2, Functional(_vec(2, {1: 1}))),
                           ("three_lie4/f1110", THREE_LIE4, Functional(_vec(4, {1: 1, 2: 1, 3: 1})))):
        cases.append(_construct("construct gf", [("--algebra", alg), ("--functional", func)], key, conjugates=2))
    for key, op in (("lie3/family1/f101", FAMILY1), ("lie3/zero/f101", scalar(0, 3))):
        cases.append(_construct("construct corollary",
                                [("--algebra", LIE3), ("--operator", (op,)), ("--functional", f)], key))
    mono2 = ["", "x", "y", "xy"]
    mono3 = ["", "x", "y", "z", "xy", "xz", "yz", "xyz"]
    d1, d2 = euler(mono2, "x"), euler(mono2, "y")
    cases.append(_construct("construct det3", [("--algebra", TRUNC_XY), ("--operator", (d1,)),
                                               ("--functional", Functional(_vec(4, {1: 1})))],
                            "trunc_xy/fd", ("--variant", "fd")))
    cases.append(_construct("construct det3", [("--algebra", TRUNC_XY), ("--operator", (d1, d2))],
                            "trunc_xy/dd", ("--variant", "dd")))
    cases.append(_construct("construct det3", [("--algebra", TRUNC_XYZ),
                                               ("--operator", tuple(euler(mono3, v) for v in "xyz"))],
                            "trunc_xyz/ddd", ("--variant", "ddd")))
    ops = [("lie3/d1-1", LIE3, lie3_derivation(1, -1)), ("lie3/d21", LIE3, lie3_derivation(2, 1)),
           ("lie2/ad1", LIE2, ad(LIE2, (1,))), ("a4/ad12", a4, ad(a4, (1, 2)))]
    for key, alg, deriv in ops:
        ins = [("--algebra", alg), ("--operator", deriv)]
        cases.append(_construct("operator from-derivation", ins, key, conjugates=2,
                                verdicts=(("operator-from-derivation", PASS),)))
        if alg is LIE3:
            cases.append(_construct("operator series", ins, key, verdicts=(("operator-series", PASS),)))
        cases.append(_construct("operator to-derivation",
                                [("--algebra", alg), ("--operator", derivation_to_reynolds(alg, deriv))], key,
                                verdicts=(("operator-to-derivation", PASS),)))
    return cases


CASES = {"cohomology": _cohomology_cases, "verify": _verify_cases, "construct": _construct_cases}


def jobs_for(workload, seed, traced=False):
    """The job list of one pass: each case on its canonical inputs and on
    ``case.conjugates`` seeded changes of basis, in a seeded order.  The
    ``traced_only`` cases join only when ``traced`` is set.
    Returns (jobs, files) where files maps a file name to its document."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, files = [], {}

    def put(obj, phi, phi_inv):
        moved = obj if phi is None else transform(obj, phi, phi_inv)
        name = f"in{len(files):04d}.json"
        files[name] = document(moved)
        return name

    for case in CASES[workload]():
        if case.traced_only and not traced:
            continue
        first = case.inputs[0][1]
        dim = first.dim
        for k in range(case.conjugates + 1):
            if k == 0:
                phi = phi_inv = None
            else:
                phi, phi_inv = B.unimodular_change(rng, dim, NONZEROS)
            argv = list(case.command)
            for flag, obj in case.inputs:
                for item in (obj if isinstance(obj, tuple) else (obj,)):
                    argv += [flag, put(item, phi, phi_inv)]
            argv += list(case.extra) + ["--json"]
            back = None if phi is None else (phi_inv, phi)
            label = "canonical" if k == 0 else f"conjugate{k}"
            jobs.append(Job(f"{case.key}#{label}", argv, case.expect, back, case.doubled, (first.arity, dim)))
    # spread each kind of job over the pass, so that a slow spell of a
    # shared machine does not land on one kind only and move a percentile
    rng.shuffle(jobs)
    return jobs, files


def write_jobs(jobs, files, directory):
    """Write the documents and point each job's argv at them."""
    os.makedirs(directory, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    for job in jobs:
        job.argv = [os.path.join(directory, a) if a in files else a for a in job.argv]
