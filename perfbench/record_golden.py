"""Record the golden copy: the SHA-256 of every pooled job's standard output.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

Every job must exit 0, and every verify job must print ``certified``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pools  # noqa: E402
from run import spawn  # noqa: E402


def main() -> int:
    root = os.getcwd()
    digests, latencies = {}, {}
    for workload in pools.WORKLOADS:
        deadline = time.monotonic() + 900
        for job in spawn(root, workload, 0, "--pool", "--rounds", "1", deadline=deadline)["jobs"]:
            if job["code"] != 0 or not job["certified"]:
                print(f"job failed: {job['key']}", file=sys.stderr)
                return 1
            digests[job["key"]] = job["sha256"]
            latencies[job["key"]] = round(job["latency_s"], 3)
            print(f"{job['latency_s']:8.3f} s  {job['key']}", flush=True)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump({"sha256": digests, "latency_s_at_recording": latencies},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
