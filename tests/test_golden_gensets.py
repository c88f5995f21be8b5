"""Pinned artifacts: SHA-256 of every rendering of every sign class.

`tests/golden/gensets.json` maps each test id to the digests of all 2^(n+1)
sign vectors of one regime and one artifact.  The artifacts are the
generator set in its three formats (`genset_to_json`, `genset_to_text` and
`genset_to_latex` of `pipeline(ctx)`), the normal form
`emit(assemble(gs, ctx.linear_part, 4), fmt)` in its three formats and the
stdout of `birevnf classify` in text and JSON, so any change to the
pipeline, to the involution pairs or to a renderer that moves an artifact
by one byte fails here.  The stdout of `birevnf verify --verify-degrees
0..4`, in text and JSON, is pinned on the first and last sign class of
each regime.  The genset-v1 JSON keeps the bare regime name as
its id.

The oracle artifact pins the text of every basis element of
`slice_space(ctx.full_context(), d, kind)` for each kind and degrees 0-5,
on the first and last sign class of each regime (keyed "signs kind d").
`verify` prints only dimensions, so this is what catches a change to the
oracle's column order or its canonical basis that keeps the same span.
The module artifact pins the text of every basis element of
`module_slice(pipeline(ctx), d)` the same way (keyed "signs d"), for the
canonical basis of the span of the generators over the ring.

The catalog artifact pins the text of each Hilbert-basis element and each
equivariant generator of `catalog(case, params)`, in order (keyed "basis i"
and "generator i"), on fourteen parameter sets; `tests/references.py`
indexes the catalog by position, so the order is part of the artifact.

Regenerate (only when an artifact is meant to change) with

    PYTHONPATH=src python tests/test_golden_gensets.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from birevnf import cli
from birevnf.continuous import SymmetryContext, catalog
from birevnf.normalform import assemble, emit
from birevnf.oracle import FUNCTION_KINDS, MAP_KINDS, module_slice, slice_space
from birevnf.symmetry_ops import genset_to_json, genset_to_latex, genset_to_text, pipeline

GOLDEN = Path(__file__).parent / "golden" / "gensets.json"

# (case, params, number of rotation blocks)
REGIMES = (
    ("non_resonant", (1,), 1),
    ("non_resonant", (2,), 2),
    ("non_resonant", (3,), 3),
    ("res_n1n2_C3", (1, 2), 3),
    ("res_n1n2_C3", (1, 3), 3),
    ("res_n1n2_C3", (2, 3), 3),
    ("res_n1n2_Cn", (1, 2, 3), 3),
    ("res_double_C4", (1, 2, 1, 3), 4),
)

# artifact name -> renderer of (context, certified generator set)
ARTIFACTS = {
    "genset-json": lambda ctx, gs: genset_to_json(gs),
    "genset-text": lambda ctx, gs: genset_to_text(gs),
    "genset-latex": lambda ctx, gs: genset_to_latex(gs),
    "nf-text": lambda ctx, gs: emit(assemble(gs, ctx.linear_part, 4), "text"),
    "nf-latex": lambda ctx, gs: emit(assemble(gs, ctx.linear_part, 4), "latex"),
    "nf-json": lambda ctx, gs: emit(assemble(gs, ctx.linear_part, 4), "json"),
}

# artifact name -> format of the `classify` command, which reads only the
# case and the signs
CLASSIFY = {"classify-text": "text", "classify-json": "json"}

# artifact name -> format of the `verify` command, run on the first and
# last sign class at degrees 0-4
VERIFY = {"verify-text": "text", "verify-json": "json"}
VERIFY_DEGREES = "0..4"

ORACLE = "oracle-slices"
MODULE = "module-slices"
SLICE_DEGREES = range(6)

CATALOG = "catalog"
# (case, params) of every pinned catalog; the block count is not needed
CATALOG_SETS = (
    ("non_resonant", (1,)),
    ("non_resonant", (2,)),
    ("non_resonant", (3,)),
    ("res_n1n2_C3", (1, 2)),
    ("res_n1n2_C3", (1, 3)),
    ("res_n1n2_C3", (2, 3)),
    ("res_n1n2_C3", (3, 5)),
    ("res_n1n2_C3", (5, 7)),
    ("res_n1n2_Cn", (1, 2, 3)),
    ("res_n1n2_Cn", (2, 3, 4)),
    ("res_n1n2_Cn", (3, 4, 5)),
    ("res_double_C4", (1, 2, 1, 3)),
    ("res_double_C4", (1, 2, 1, 2)),
    ("res_double_C4", (2, 3, 3, 5)),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _id(case, params, artifact) -> str:
    name = f"{case} {','.join(map(str, params))}"
    return name if artifact == "genset-json" else f"{name} {artifact}"


@functools.lru_cache(maxsize=None)
def gensets(case, params, n) -> tuple:
    """(signs, context, pipeline output) of every sign class, computed once."""
    out = []
    for signs in itertools.product((1, -1), repeat=n + 1):
        ctx = SymmetryContext.from_case(case, params, signs)
        out.append((signs, ctx, pipeline(ctx)))
    return tuple(out)


def oracle_digests(case, params, n) -> dict:
    out = {}
    for signs in ((1,) * (n + 1), (-1,) * (n + 1)):
        full = SymmetryContext.from_case(case, params, signs).full_context()
        for kind in FUNCTION_KINDS + MAP_KINDS:
            for d in SLICE_DEGREES:
                text = "\n".join(str(b) for b in slice_space(full, d, kind).basis)
                key = f"{','.join(map(str, signs))} {kind} {d}"
                out[key] = _sha(text)
    return out


def module_digests(case, params, n) -> dict:
    out = {}
    classes = gensets(case, params, n)
    for signs, _ctx, gs in (classes[0], classes[-1]):
        for d in SLICE_DEGREES:
            text = "\n".join(str(b) for b in module_slice(gs, d).basis)
            out[f"{','.join(map(str, signs))} {d}"] = _sha(text)
    return out


def catalog_digests(case, params) -> dict:
    data = catalog(case, params)
    out = {}
    for what, elems in (
        ("basis", data.hilbert_basis),
        ("generator", data.equivariant_generators),
    ):
        for i, elem in enumerate(elems):
            out[f"{what} {i}"] = _sha(str(elem))
    return out


def command_output(command, case, params, signs, fmt, *extra) -> str:
    """The stdout of a `birevnf` command on one sign vector of a regime."""
    argv = [command, "--case", case, "--params", ",".join(map(str, params)),
            f"--signs={','.join(map(str, signs))}", "--format", fmt, *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


def digests(case, params, n, artifact) -> dict:
    if artifact in CLASSIFY:
        return {
            ",".join(map(str, signs)): _sha(
                command_output("classify", case, params, signs, CLASSIFY[artifact])
            )
            for signs in itertools.product((1, -1), repeat=n + 1)
        }
    if artifact in VERIFY:
        return {
            ",".join(map(str, signs)): _sha(
                command_output("verify", case, params, signs, VERIFY[artifact],
                               "--verify-degrees", VERIFY_DEGREES)
            )
            for signs in ((1,) * (n + 1), (-1,) * (n + 1))
        }
    if artifact == CATALOG:
        return catalog_digests(case, params)
    if artifact == ORACLE:
        return oracle_digests(case, params, n)
    if artifact == MODULE:
        return module_digests(case, params, n)
    render = ARTIFACTS[artifact]
    return {
        ",".join(map(str, signs)): _sha(render(ctx, gs))
        for signs, ctx, gs in gensets(case, params, n)
    }


CASES = [
    (*regime, artifact)
    for regime in REGIMES
    for artifact in (*ARTIFACTS, *CLASSIFY, *VERIFY, ORACLE, MODULE)
]
CASES += [(case, params, None, CATALOG) for case, params in CATALOG_SETS]


@pytest.mark.parametrize(
    "case,params,n,artifact", CASES, ids=[_id(c, p, a) for c, p, _, a in CASES]
)
def test_gensets_match_golden(case, params, n, artifact):
    golden = json.loads(GOLDEN.read_text())[_id(case, params, artifact)]
    assert digests(case, params, n, artifact) == golden


if __name__ == "__main__":
    table = {_id(c, p, a): digests(c, p, n, a) for c, p, n, a in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {GOLDEN}")
