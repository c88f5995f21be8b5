"""Every layer the benchmark's tracer times must exist in the package.

`perfbench/tracer.py` wraps callables by name and reads 0 for a name the
package no longer has, so a rename or a deletion would blind a per-layer
metric without failing anything.  This test only reads `perfbench/`.
"""

import importlib
import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest

from birevnf import oracle, poly, symmetry_ops
from birevnf.continuous import SymmetryContext, linear_part_for_case, phi_element, psi_element

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"

# `linalg.SpanBasis` is gone; dropping these two spans waits for the next
# change to the benchmark
STALE = {"linalg.spanbasis_insert", "linalg.spanbasis_contains"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_callable_resolves():
    tracer = _load_tracer()
    missing = []
    for span, (module, path) in tracer.SPANS.items():
        owner = importlib.import_module("birevnf." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) and span not in STALE:
            missing.append(span)
    assert missing == []


@pytest.mark.parametrize(
    "case,params,signs",
    [("non_resonant", (2,), (1, -1, 1)), ("res_n1n2_C3", (1, 2), (-1, 1, -1, 1))],
)
def test_each_step_projects_each_generator_once(monkeypatch, case, params, signs):
    # the spans `symmetry_ops.transfer_T`, `transport` and `project` time
    # these names, so the involution step must call them and call
    # transfer_T once per generator it is offered, not once per product
    calls = Counter()

    def counting(name):
        real = getattr(symmetry_ops, name)
        monkeypatch.setattr(
            symmetry_ops, name, lambda *args: calls.update((name,)) or real(*args)
        )

    for name in ("transfer_T", "generators_over_extension", "project_generators"):
        counting(name)
    steps = []
    transport = symmetry_ops._transport

    def step(basis, gens, kappa):
        before = Counter(calls)
        out = transport(basis, gens, kappa)
        steps.append((len(gens), calls - before))
        return out

    monkeypatch.setattr(symmetry_ops, "_transport", step)
    symmetry_ops.pipeline(SymmetryContext.from_case(case, params, signs))
    assert len(steps) == 2
    # another sign class of the same linear part shares the phi step, so
    # only its psi step runs
    other = (-signs[0], *signs[1:])
    symmetry_ops.pipeline(SymmetryContext.from_case(case, params, other))
    assert len(steps) == 3
    # a context seen before runs no step at all
    symmetry_ops.pipeline(SymmetryContext.from_case(case, params, signs))
    assert len(steps) == 3
    for offered, made in steps:
        assert offered > 0
        assert made == {
            "transfer_T": offered, "generators_over_extension": 1, "project_generators": 1
        }


def test_slice_space_hook_reads_the_continuous_data():
    # the hook counts from `context.continuous.nblocks` and `.nvars`; a
    # rename there would fail every traced oracle job, not a test
    tracer = _load_tracer()
    recorder = tracer.Tracer()
    counted = tracer._counting_hooks(recorder)["oracle.slice_space"](oracle.slice_space)
    full = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, 1, -1, 1)).full_context()
    dimension = 0
    for kind in ("invariant", "reversible_equivariant"):
        dimension += counted(full, 3, kind).dimension
    assert recorder.counters["oracle.slice_dim"] == dimension > 0
    assert recorder.counters["oracle.raw_monomials"] > 0


def test_conj_check_hook_hashes_the_sparse_rows(monkeypatch):
    # the hook hashes its first argument row by row; the engine passes the
    # rows that `LinearPart` and `psi_rows` build, and a row that cannot be
    # hashed would fail every traced job, not a test
    tracer = _load_tracer()
    recorder = tracer.Tracer()
    real = poly.check_conjugation_compatible
    counted = tracer._counting_hooks(recorder)["poly.conj_check"](real)
    monkeypatch.setattr(poly, "check_conjugation_compatible", counted)
    recorder.start_job()
    linear = linear_part_for_case("res_n1n2_C3", (1, 2))
    elements = [phi_element(3)]
    elements += [psi_element(signs) for signs in itertools.product((1, -1), repeat=4)]
    generators = linear.infinitesimal_generators()
    # phi is the all-ones psi: one matrix checked twice
    distinct = {*(e.rows for e in elements), *(m.rows for m in generators)}
    assert len(distinct) == 16 + 3
    assert recorder.counters["conj_check.distinct"] == len(distinct)
