"""Digest every benchmark job's report: exit code and sha256 of stdout.

    python3 tools/report_digests.py OUT.json

Runs each job of seeds 1-3 of every workload in ``bench/workloads.py``,
traced-only anchors included, through ``nliealg.cli.main`` of this
checkout's ``src/``, one after another in this process.  Job files go to
a temporary directory that is removed afterwards; its path is cut from
stdout before hashing, so the command line a report echoes is the same
on every run.  OUT.json maps "<workload>/<seed>/<job key>" to
[exit code, sha256 hex of stdout]; an exception escaping ``main`` is
recorded by its type name in place of the exit code.  Checkouts whose
reports agree byte for byte write identical files, so one ``diff`` of
two OUT.json files checks that a change keeps every report.
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


def digests():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from nliealg.cli import main

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
                    buf = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(buf):
                            code = main(job.argv)
                    except Exception as exc:  # recorded, so a crash shows in the diff
                        code = type(exc).__name__
                    text = buf.getvalue().replace(directory + os.sep, "")
                    out[key] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/report_digests.py OUT.json")
    result = digests()
    with open(sys.argv[1], "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(result)} jobs digested into {sys.argv[1]}")
