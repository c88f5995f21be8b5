"""Pinned generator sets: SHA-256 of the genset-v1 JSON of every sign class.

`tests/golden/gensets.json` maps each regime to the digest of
`genset_to_json(pipeline(ctx))` for all 2^(n+1) sign vectors, so any change
to the pipeline that moves an artifact by one byte fails here.  Regenerate
(only when an artifact is meant to change) with

    PYTHONPATH=src python tests/test_golden_gensets.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from birevnf.continuous import SymmetryContext
from birevnf.symmetry_ops import genset_to_json, pipeline

GOLDEN = Path(__file__).parent / "golden" / "gensets.json"

# (case, params, number of rotation blocks); res_double_C4 is left out for
# time, its heaviest class is pinned by the benchmark's job goldens
REGIMES = (
    ("non_resonant", (1,), 1),
    ("non_resonant", (2,), 2),
    ("non_resonant", (3,), 3),
    ("res_n1n2_C3", (1, 2), 3),
    ("res_n1n2_C3", (1, 3), 3),
    ("res_n1n2_C3", (2, 3), 3),
    ("res_n1n2_Cn", (1, 2, 3), 3),
)


def _name(case, params) -> str:
    return f"{case} {','.join(map(str, params))}"


def digests(case, params, n) -> dict:
    out = {}
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        text = genset_to_json(pipeline(ctx))
        out[",".join(map(str, signs))] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("case,params,n", REGIMES, ids=[_name(c, p) for c, p, _ in REGIMES])
def test_gensets_match_golden(case, params, n):
    golden = json.loads(GOLDEN.read_text())[_name(case, params)]
    assert digests(case, params, n) == golden


if __name__ == "__main__":
    table = {_name(c, p): digests(c, p, n) for c, p, n in REGIMES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {GOLDEN}")
