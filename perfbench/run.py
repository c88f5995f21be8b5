"""Benchmark of birevnf: seeded CLI job streams, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 36 --trace 0

Jobs go through the public entry point ``birevnf.cli.main(argv)`` in a fresh
worker process, one after another: a closed loop with one client.  A run of
--seconds S is round(S / pools.ROUND_S) whole rounds of the seeded draw (see
pools.py).  Every job's output is checked against the golden copy recorded
at the commit that defined the benchmark.

--trace 0 reports the end-to-end metrics of an untraced run.
--trace 1 runs the jobs of S / 3 seconds untraced, then the same jobs twice
traced, each pass in a fresh worker.  It reports the per-layer metrics of
the first traced pass and the tracing overhead, and checks that all three
passes print the same bytes and that both traced passes count the same.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s; stop its worker before that


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's speed now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40_000):
        acc += Fraction(1, k % 97 + 1)
    return time.perf_counter() - start


def spawn(root: str, workload: str, seed: int, *extra: str, deadline: float) -> dict:
    """Run one fresh worker process to its end and return what it printed.

    The worker is killed and waited for if it is still running at
    `deadline` (a ``time.monotonic()`` value).
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the run did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if os.path.dirname(result["birevnf"]) != os.path.join(root, "src"):
        raise BenchError(f"birevnf was imported from {result['birevnf']}")
    return result


def job_failures(jobs: list[dict], golden: dict) -> list[str]:
    """Keys of jobs that exited nonzero, printed other bytes, or did not certify."""
    return [
        job["key"]
        for job in jobs
        if job["code"] != 0
        or not job["certified"]
        or golden.get(job["key"]) != job["sha256"]
    ]


def golden_check_bites(jobs: list[dict], golden: dict) -> bool:
    """A tampered golden entry must be reported, or the check checks nothing."""
    job = jobs[0]
    tampered = dict(golden)
    tampered[job["key"]] = "0" * 64
    return job_failures([job], tampered) == [job["key"]]


def end_to_end(result: dict, setups: list[float]) -> dict:
    latencies = [job["latency_s"] for job in result["jobs"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "jobs_per_s": (len(latencies) / result["wall_s"], "1/s"),
        "job_s.p50": (statistics.median(latencies), "s"),
        "job_s.p90": (deciles[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def run_untraced(root, args, golden, deadline):
    setups = [spawn(root, args.workload, args.seed, "--setup-only", deadline=deadline)["setup_s"]
              for _ in range(SETUP_PROBES - 1)]
    result = spawn(root, args.workload, args.seed, "--seconds", str(args.seconds),
                   deadline=deadline)
    setups.append(result["setup_s"])
    jobs = result["jobs"]
    failures = job_failures(jobs, golden)
    notes = {"job_s.samples": len(jobs), "rounds": result["rounds"],
             "failed_ratio": len(failures) / len(jobs)}
    return jobs, failures, end_to_end(result, setups), notes, golden_check_bites(jobs, golden)


def run_traced(root, args, golden, deadline):
    # the untraced pass and the two traced passes share the run's time
    base = spawn(root, args.workload, args.seed, "--seconds", str(args.seconds / 3),
                 deadline=deadline)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = [os.path.join(HERE, "out", f"{args.workload}-pass{k}.spans.jsonl") for k in (1, 2)]
    passes = [spawn(root, args.workload, args.seed, "--rounds", str(base["rounds"]),
                    "--trace", path, deadline=deadline) for path in spans]
    jobs = base["jobs"] + passes[0]["jobs"] + passes[1]["jobs"]
    failures = job_failures(jobs, golden)
    reference = [job["sha256"] for job in base["jobs"]]
    for traced in passes:
        if [job["sha256"] for job in traced["jobs"]] != reference:
            failures.append("traced artifacts differ from the untraced run")
    first, second = passes
    differ = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"].get(k))
    if differ:
        print("counts differ between two traced passes: " + ", ".join(differ))
    metrics = {name: tuple(value) for name, value in first["layers"].items()}
    metrics["trace.untraced_s"] = (base["wall_s"], "s")
    metrics["trace.traced_s"] = (first["wall_s"], "s")
    metrics["trace.overhead_s"] = (first["wall_s"] - base["wall_s"], "s")
    notes = {"rounds": base["rounds"], "failed_ratio": len(failures) / len(jobs),
             "spans": " ".join(os.path.relpath(path, root) for path in spans),
             "not found, so not traced": " ".join(first["untraced_spans"]) or "none"}
    return jobs, failures, metrics, notes, golden_check_bites(jobs, golden) and not differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    sys.path.insert(0, HERE)
    import pools

    if args.workload not in pools.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    source = os.path.join(root, "src", "birevnf")
    if not os.path.isfile(os.path.join(source, "cli.py")):
        raise BenchError(f"no birevnf source at {source}; run from a checkout's root")
    if not compileall.compile_dir(source, quiet=1):
        raise BenchError("birevnf does not compile")
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)["sha256"]

    probe = host_probe()
    run = run_traced if args.trace else run_untraced
    jobs, failures, metrics, notes, checks_hold = run(root, args, golden, deadline)
    if args.trace:
        metrics["host.probe_s"] = (probe, "s")
    else:
        notes["host.probe_s"] = probe

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:48s} {value}")
    for key in sorted(set(failures)):
        print(f"  FAILED: {key}")
    if not checks_hold:
        print("  a benchmark self-check did not hold")
    print(json.dumps({
        "correct": not failures and checks_hold,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
