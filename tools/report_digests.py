"""Digest every benchmark job's report, and the parser's answers: exit code
and sha256 of stdout and of stderr.

    python3 tools/report_digests.py OUT.json

Runs each job of seeds 1-3 of every workload in ``bench/workloads.py``,
traced-only anchors included, through ``nliealg.cli.main`` of this
checkout's ``src/``, one after another in this process, then a fixed
list of argvs that the parser answers by itself: ``--help``, the ``-h``
of each command and usage errors, and a few error paths that read files
of ``ERROR_FILES``: a document nested 100,000 deep, ``--js`` for
``--json``, a dim-2 ``--direction`` on a dim-3 algebra, the NS
construction and the complex of R = Id on a bracket that is not Lie, and
four deform directions that fail: a non-cocycle and a nontrivial cocycle
on lie3 (``[e1, e2] = e2``) with R = family1, a non-cocycle of R = 2 Id on
A_4 and one of R = Id on k[x]/(x^2), failing at a diagonal tuple.  Job and
error-path files go to temporary directories that are removed
afterwards; their path is cut from the output before hashing, so the
command line a report echoes is the same on every run.  OUT.json maps
"<workload>/<seed>/<job key>" and "argv/<argv>" to [exit code, sha256
hex of stdout, sha256 hex of stderr]; an exception
escaping ``main`` is recorded by its type name in place of the exit
code.  Checkouts whose reports, help and usage texts agree byte for byte
write identical files, so one ``diff`` of two OUT.json files checks that
a change keeps every one of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def parser_argvs(commands):
    """``--help``, and per command its ``-h`` and usage errors: no flags, an
    abbreviation, a typo, a word left over, a bad choice, ``--json`` between
    the words, an ambiguous ``--=``."""
    argvs = [["--help"], [], ["--json"], ["check"], ["construct", "--json"], ["chek", "filippov"]]
    for command, what in commands:
        words = [command] + ([what] if what else [])
        flags = ["--algebra", "a.json"]
        argvs += [words + ["-h"], words, words + ["--alg"], words + flags + ["--bogus"], words + flags + ["extra"],
                  words + flags + ["--variant", "xx"], words[:1] + ["--json"] + words[1:] + ["--help"],
                  words + ["--=x"]]
    return argvs


# the files the error-path argvs read, by name, as text
ERROR_FILES = {
    "deep.json": "[" * 100000,
    "lie3.json": json.dumps({"kind": "n_lie_algebra", "dim": 3,
                             "brackets": [{"on": [1, 2], "value": ["0", "1", "0"]}]}),
    "zero3.json": json.dumps({"kind": "linear_operator", "dim": 3, "matrix": [["0"] * 3] * 3}),
    "zero2.json": json.dumps({"kind": "linear_operator", "dim": 2, "matrix": [["0"] * 2] * 2}),
    "notlie3.json": json.dumps({"kind": "n_lie_algebra", "dim": 3,
                                "brackets": [{"on": [1, 2], "value": ["0", "0", "1"]},
                                             {"on": [1, 3], "value": ["1", "0", "0"]}]}),
    "ident3.json": json.dumps({"kind": "linear_operator", "dim": 3,
                               "matrix": [["1" if i == j else "0" for j in range(3)] for i in range(3)]}),
    "family1.json": json.dumps({"kind": "linear_operator", "dim": 3,
                                "matrix": [["1", "0", "1"], ["1", "0", "1"], ["0", "0", "1"]]}),
    "e11_3.json": json.dumps({"kind": "linear_operator", "dim": 3,
                              "matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}),
    "e31_3.json": json.dumps({"kind": "linear_operator", "dim": 3,
                              "matrix": [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]]}),
    # A_4: [e_1..^e_i..e_4] = (-1)^(4+i) e_i
    "a4.json": json.dumps({"kind": "n_lie_algebra", "arity": 3, "dim": 4,
                           "brackets": [{"on": [k for k in range(1, 5) if k != i],
                                         "value": [str((-1) ** (4 + i)) if k == i else "0" for k in range(1, 5)]}
                                        for i in range(1, 5)]}),
    "twice4.json": json.dumps({"kind": "linear_operator", "dim": 4,
                               "matrix": [["2" if i == j else "0" for j in range(4)] for i in range(4)]}),
    "e11_4.json": json.dumps({"kind": "linear_operator", "dim": 4,
                              "matrix": [["1" if i == j == 0 else "0" for j in range(4)] for i in range(4)]}),
    # k[x]/(x^2) on the basis 1, x
    "x2.json": json.dumps({"kind": "n_lie_algebra", "dim": 2, "symmetry": "symmetric",
                           "brackets": [{"on": [1, 1], "value": ["1", "0"]}, {"on": [1, 2], "value": ["0", "1"]}]}),
    "ident2.json": json.dumps({"kind": "linear_operator", "dim": 2, "matrix": [["1", "0"], ["0", "1"]]}),
    "e12_2.json": json.dumps({"kind": "linear_operator", "dim": 2, "matrix": [["0", "1"], ["0", "0"]]}),
}
ERROR_ARGVS = [
    ["check", "filippov", "--algebra", "deep.json"],
    ["check", "filippov", "--algebra", "lie3.json", "--js"],
    ["deform", "--algebra", "lie3.json", "--reynolds", "zero3.json", "--direction", "zero2.json"],
    ["construct", "ns-from-reynolds", "--algebra", "notlie3.json", "--operator", "ident3.json"],
    ["cohomology", "--algebra", "notlie3.json", "--reynolds", "ident3.json"],
    ["deform", "--algebra", "lie3.json", "--reynolds", "family1.json", "--direction", "e11_3.json"],
    ["deform", "--algebra", "lie3.json", "--reynolds", "family1.json", "--direction", "e31_3.json"],
    ["deform", "--algebra", "a4.json", "--reynolds", "twice4.json", "--direction", "e11_4.json"],
    ["deform", "--algebra", "x2.json", "--reynolds", "ident2.json", "--direction", "e12_2.json"],
]


def _run(main, argv, directory=""):
    """[exit code, sha256 of stdout, sha256 of stderr] of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # recorded, so a crash shows in the diff
        code = type(exc).__name__
    texts = (buf.getvalue().replace(directory + os.sep, "") if directory else buf.getvalue() for buf in (out, err))
    return [code, *(hashlib.sha256(text.encode()).hexdigest() for text in texts)]


def digests():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from nliealg.cli import COMMANDS, main

    out = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            jobs, files = workloads.jobs_for(workload, seed, traced=True)
            with tempfile.TemporaryDirectory() as directory:
                workloads.write_jobs(jobs, files, directory)
                for job in jobs:
                    key = f"{workload}/{seed}/{job.key}"
                    if key in out:
                        raise SystemExit(f"report_digests: job key {key} repeats")
                    out[key] = _run(main, job.argv, directory)
    for argv in parser_argvs(COMMANDS):
        out["argv/" + " ".join(argv)] = _run(main, argv)
    with tempfile.TemporaryDirectory() as directory:
        for name, text in ERROR_FILES.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in ERROR_ARGVS:
            paths = [os.path.join(directory, word) if word in ERROR_FILES else word for word in argv]
            out["argv/" + " ".join(argv)] = _run(main, paths, directory)
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/report_digests.py OUT.json")
    result = digests()
    with open(sys.argv[1], "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(result)} jobs and argvs digested into {sys.argv[1]}")
