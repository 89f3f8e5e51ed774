"""Rewrites expected.json from the canonical jobs of every workload.

    python3 bench/pin_expected.py

The pinned cohomology tables and artifact digests are what run.py checks
every output against.  Run this only when an output is meant to change,
and review the diff of expected.json: a changed digest is a changed
answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

import checker
import workloads


def main():
    nliealg = run.load_program()
    pinned = {"tables": {}, "artifacts": {}}
    for workload in workloads.WORKLOADS:
        jobs, directory = run.prepare(workload, 0, traced=True)
        try:
            for job in jobs:
                if job.back is not None:
                    continue
                code, out, error, _ = run.run_job(nliealg, job)
                if error is not None or code != job.expect.code:
                    sys.exit(f"{job.key}: exit {code} {error or ''}")
                report = json.loads(out)
                if job.expect.table is not None:
                    rows = report["artifacts"][0]["rows"]
                    pinned["tables"][job.expect.table] = [
                        [r["degree"], r["cocycles"], r["coboundaries"], r["dimension"]] for r in rows]
                if job.expect.artifact is not None:
                    obj = checker.structure(report["artifacts"][-1])
                    pinned["artifacts"][job.expect.artifact] = checker.digest(obj)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    with open(checker.EXPECTED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned['tables'])} tables and {len(pinned['artifacts'])} artifacts")


if __name__ == "__main__":
    main()
