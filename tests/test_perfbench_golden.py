"""Every pooled benchmark job prints its golden bytes.

`perfbench/golden.json` holds the SHA-256 of the standard output of every
job of both workloads' pools (`perfbench/pools.py`).  The benchmark rejects
a change whose jobs print other bytes, so this runs every pooled job
through `birevnf.cli.main` in this process, from the repository root that
the fixture paths are relative to, and compares each digest.  Each job must
exit 0 and each `verify` job must end in ``certified``.  This test only
reads `perfbench/`.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from birevnf import cli

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_pools():
    spec = importlib.util.spec_from_file_location("perfbench_pools", PERFBENCH / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    return pools


def test_every_pooled_job_prints_its_golden_bytes(monkeypatch):
    pools = _load_pools()
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["sha256"]
    monkeypatch.chdir(ROOT)
    jobs = [argv for workload in pools.WORKLOADS for argv in pools.pool(workload)]
    assert len(jobs) == len(golden) == 225
    failed = []
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        certified = argv[0] != "verify" or text.rstrip("\n").endswith("\ncertified")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if code != cli.EXIT_OK or not certified or golden[pools.job_key(argv)] != digest:
            failed.append(pools.job_key(argv))
    assert failed == []
