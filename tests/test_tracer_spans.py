"""Every layer the benchmark's tracer times must exist in the package.

`perfbench/tracer.py` wraps callables by name and reads 0 for a name the
package no longer has, so a rename or a deletion would blind a per-layer
metric without failing anything.  This test only reads `perfbench/`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"

# `linalg.SpanBasis` is gone; dropping these two spans waits for the next
# change to the benchmark
STALE = {"linalg.spanbasis_insert", "linalg.spanbasis_contains"}


def test_every_traced_callable_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, (module, path) in tracer.SPANS.items():
        owner = importlib.import_module("birevnf." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) and span not in STALE:
            missing.append(span)
    assert missing == []
