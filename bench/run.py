"""Benchmark of the ``nlie`` command line, end to end and per layer.

    python3 bench/run.py --workload cohomology --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports ``nliealg`` from its
``src/``.  The seed generates the workload's JSON inputs under
``.bench_work/``; each job is one ``nlie ... --json`` invocation,
``nliealg.cli.main(argv)`` with stdout captured, run one after another in
this process (a closed loop with one client).  Every output is checked
against an expected answer that does not come from the code under test.

``--trace 0`` times whole passes over the job list for ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_trace/``.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SPAWNS = 11
# a fresh nlie process that does no work: interpreter start, import, argparse
SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); from nliealg.cli import main; sys.exit(main(['--help']))"
ANCHOR = "lie3/family1/3#canonical"


def load_program():
    """Import nliealg from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nliealg", "cli.py")):
        sys.exit(f"bench: no nliealg sources under {SRC}")
    sys.path.insert(0, SRC)
    import nliealg
    import nliealg.cli
    import nliealg.errors

    if os.path.dirname(os.path.abspath(nliealg.__file__)) != os.path.join(SRC, "nliealg"):
        sys.exit(f"bench: imported nliealg from {nliealg.__file__}, not from {SRC}")
    return nliealg


def measure_setup():
    """Median wall time of SETUP_SPAWNS fresh processes."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_job(nliealg, job):
    """(exit code or None, stdout text, error text or None, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = nliealg.cli.main(job.argv)
        error = None
    except nliealg.errors.InternalConsistencyError as exc:
        code, error = None, f"InternalConsistencyError: {exc}"
    except Exception as exc:  # any crash counts against this job, not the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), error, time.perf_counter() - start


def run_pass(nliealg, jobs, tracer=None):
    """Runs every job once; returns (pass seconds, [(code, out, error, s)])."""
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(nliealg, job))
    return time.perf_counter() - start, results


class Verdicts:
    """Checks outputs.  Identical inputs must give identical bytes, so a
    job's later runs (traced or not) are compared with its first run."""

    def __init__(self, jobs, expected):
        self.jobs = jobs
        self.expected = expected
        self.first = {}
        self.reasons = {}
        self.attempted = 0
        self.failures = []

    def add(self, results):
        for job, (code, out, error, _) in zip(self.jobs, results):
            self.attempted += 1
            reason = error or self._reason(job, code, out)
            if reason is not None:
                self.failures.append((job.key, reason))

    def _reason(self, job, code, out):
        if self.first.setdefault(job.key, (code, out)) != (code, out):
            return "output bytes differ from the job's first run"
        if job.key not in self.reasons:
            self.reasons[job.key] = checker.check(job, code, out, self.expected)
        return self.reasons[job.key]


def prepare(workload, seed, traced=False):
    jobs, files = workloads.jobs_for(workload, seed, traced)
    directory = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    workloads.write_jobs(jobs, files, directory)
    return jobs, directory


def end_to_end(nliealg, jobs, verdicts, seconds):
    passes, job_times = [], []
    deadline = time.perf_counter() + seconds
    # stop before a pass that would end past the deadline (one pass at least)
    while not passes or time.perf_counter() + statistics.median(passes) <= deadline:
        wall, results = run_pass(nliealg, jobs)
        passes.append(wall)
        job_times += [r[3] for r in results]
        verdicts.add(results)
    print("pass seconds:", " ".join(f"{p:.3f}" for p in passes))
    deciles = statistics.quantiles(job_times, n=10)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(passes), len(passes)),
        "job_s.p50": (statistics.median(job_times), len(job_times)),
        "job_s.p90": (deciles[8], len(job_times)),
        "peak_rss_mb": (rss, 1),
    }


def traced(nliealg, jobs, verdicts, workload, seed):
    plain_wall, plain = run_pass(nliealg, jobs)
    verdicts.add(plain)
    tracer = Tracer(nliealg)
    tracer.install()
    try:
        traced_wall, with_trace = run_pass(nliealg, jobs, tracer)
    finally:
        tracer.uninstall()
    verdicts.add(with_trace)
    keys = [job.key for job in jobs]
    path = os.path.join(ROOT, ".bench_trace", f"{workload}-{seed}.jsonl")
    tracer.write(path, keys)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    if ANCHOR in keys:
        split = tracer.job_metrics(keys.index(ANCHOR))
        print(f"{ANCHOR}: differential {split['cohomology.differential_s']:.3f} s, "
              f"square-zero {split['cohomology.square_zero_s']:.3f} s, rank {split['linalg.rank_s']:.3f} s")
    metrics = {name: (value, 1) for name, value in tracer.metrics().items()}
    metrics["trace.untraced_wall_s"] = (plain_wall, 1)
    metrics["trace.traced_wall_s"] = (traced_wall, 1)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, 1)
    return metrics


def measure(nliealg, spec, expected, workload, args):
    """One workload: prints its table, returns (attempted, failed, metrics)."""
    jobs, directory = prepare(workload, args.seed, bool(args.trace))
    try:
        verdicts = Verdicts(jobs, expected)
        if args.trace:
            metrics = traced(nliealg, jobs, verdicts, workload, args.seed)
            wanted = spec["per_layer"]
        else:
            metrics = {"setup_s": (measure_setup(), SETUP_SPAWNS)}
            metrics.update(end_to_end(nliealg, jobs, verdicts, args.seconds))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(directory))
    failed = len(verdicts.failures)
    for key, reason in verdicts.failures[:20]:
        print(f"FAILED {key}: {reason}")
    print(f"workload {workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{verdicts.attempted} attempted, fail_ratio {failed / verdicts.attempted:.4f}")
    out = {}
    for entry in wanted:
        value, samples = metrics[entry["name"]]
        print(f"  {entry['name']:34s} {value:14.6g} {entry['unit']:6s} (n={samples})")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return verdicts.attempted, failed, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn (metrics keyed workload/metric)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nliealg = load_program()
    spec = load_spec()
    expected = checker.load_expected()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        a, f, out = measure(nliealg, spec, expected, workload, args)
        attempted, failed = attempted + a, failed + f
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in out.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
