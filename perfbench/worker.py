"""One fresh benchmark process: import birevnf, draw the jobs, run them.

Run from the root of a checkout by ``perfbench/run.py``; it prints one JSON
object on standard output.  Modes:

  --setup-only   time the import and the job draw, then stop
  --rounds N     run exactly N rounds (the traced passes use this)
  --seconds S    run round(S / pools.ROUND_S) whole rounds, at least one
  --pool         a round is every pooled job once (records the golden copy)

Each job's standard output is captured; its SHA-256, exit code and latency
are returned, and so is the worker's peak RSS.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.join(ROOT, "perfbench"))

import birevnf.cli  # noqa: E402
import pools  # noqa: E402


def run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = birevnf.cli.main(argv)
        except Exception:  # a crash is a failed job; the run goes on
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    latency = time.perf_counter() - start
    text = out.getvalue()
    return {
        "key": pools.job_key(argv),
        "code": code,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "certified": argv[0] != "verify" or text.rstrip("\n").endswith("\ncertified"),
        "latency_s": latency,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--pool", action="store_true",
                        help="a round is every pooled job once, in pool order")
    parser.add_argument("--trace", help="write the spans of a traced pass to this file")
    args = parser.parse_args()

    draw = pools.Draw(args.workload, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    result = {"setup_s": setup_s, "birevnf": os.path.dirname(birevnf.cli.__file__)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            result["untraced_spans"] = tracing.instrument(tracer)
        jobs = []
        start = time.perf_counter()
        rounds = args.rounds or max(1, round(args.seconds / pools.ROUND_S[args.workload]))
        for index in range(rounds):
            for argv in pools.pool(args.workload) if args.pool else draw.round(index):
                if tracer:
                    tracer.start_job()
                jobs.append(run_job(argv))
        result["wall_s"] = time.perf_counter() - start
        result["rounds"] = rounds
        result["jobs"] = jobs
        if tracer:
            result["layers"] = tracer.metrics()
            result["counts"] = tracer.counts()
            tracer.dump(args.trace)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
