"""Fixed job pools of the two workloads and the seeded draw of a run's jobs.

A job is the argv list handed to ``birevnf.cli.main``.  Each workload is a
list of strata; the jobs of one stratum cost about the same at the commit
that defined the benchmark.  A round takes one job from every stratum, in
stratum order; the seed picks which member of each stratum each round
takes.  A run is whole rounds, so every run has the same mix of strata, and
the strata are laid out so that a run's median and 90th-percentile jobs
come from the same strata whatever the seed.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("certify_deep", "cli_mix")
# Seconds one round took at the defining commit on the defining host.  A run
# of S seconds is round(S / ROUND_S) rounds, at least one, on every commit,
# so that two commits run the same jobs.
ROUND_S = {"certify_deep": 12.7, "cli_mix": 3.2}
FORMATS = ("text", "latex", "json")
FIXTURE_VERIFY = ["verify", "--config", "perfbench/fixtures/c3_type_b_verify.json"]
FIXTURE_NF = ["normal-form", "--config", "perfbench/fixtures/nonres2_normal_form.json"]

# (case, params, number of rotation blocks)
CASES = (
    ("non_resonant", (2,), 2),
    ("non_resonant", (3,), 3),
    ("res_n1n2_C3", (1, 2), 3),
    ("res_n1n2_C3", (1, 3), 3),
    ("res_n1n2_C3", (2, 3), 3),
    ("res_n1n2_C3", (3, 5), 3),
    ("res_n1n2_Cn", (2, 3, 4), 4),
    ("res_double_C4", (1, 2, 1, 3), 4),
    ("res_double_C4", (1, 2, 1, 2), 4),
)


def _classes(n: int) -> list[tuple[int, ...]]:
    """Sign classes (a0 = +1) of an n-block case, in enumeration order."""
    return [(1, *tail) for tail in itertools.product((1, -1), repeat=n)]


def _signs(*texts: str) -> list[tuple[int, ...]]:
    return [tuple(1 if c == "+" else -1 for c in text) for text in texts]


# Sign classes grouped so that the jobs of one stratum cost about the same.
DBL_1213_RING7 = _signs("+++++", "+-+++", "+-+--")
THREE_BLOCK_A1_PLUS = [s for s in _classes(3) if s[1] == 1]
THREE_BLOCK_A1_MINUS = [s for s in _classes(3) if s[1] == -1]
C3_12_RING3 = _signs("++++", "+++-", "+-++", "+-+-")
C3_12_RING6 = _signs("++-+", "++--", "+--+", "+---")
C3_13_RING4 = _signs("++++", "+++-", "+--+", "+---")
C3_13_RING8 = _signs("++-+", "++--", "+-++", "+-+-")


def _argv(command: str, case: str, params, signs, *extra: str) -> list[str]:
    return [
        command,
        "--case", case,
        "--params", ",".join(map(str, params)),
        "--signs=" + ",".join(map(str, signs)),
        *extra,
    ]


def _verify(case, params, classes, top):
    return [_argv("verify", case, params, s, "--verify-degrees", f"2..{top}") for s in classes]


def _every_format(command, case, params, classes, *extra):
    return [
        _argv(command, case, params, s, *extra, "--format", fmt)
        for s in classes
        for fmt in FORMATS
    ]


def _normal_forms(case, params, classes):
    return _every_format("normal-form", case, params, classes, "--degree", "4")


def _classify(cases):
    return [
        _argv("classify", case, params, s, "--format", fmt)
        for case, params, nblocks in cases
        for s in _classes(nblocks)[:2]
        for fmt in ("text", "json")
    ]


def _rendered(name, case, params, classes):
    """A stratum of generators jobs and one of normal-form jobs, all formats."""
    return [
        (name + "_gen", _every_format("generators", case, params, classes)),
        (name + "_nf", _normal_forms(case, params, classes)),
    ]


def strata(workload: str) -> list[tuple[str, list[list[str]]]]:
    """The named strata of a workload's pool."""
    if workload == "certify_deep":
        # Three strata of 2-3 s jobs and a heavier one: the median lies
        # among the middle jobs, the 90th percentile at the heavy ones.
        return [
            ("nonres3_d6", _verify("non_resonant", (3,), THREE_BLOCK_A1_MINUS, 6)),
            ("c3_23_d6", _verify("res_n1n2_C3", (2, 3), _classes(3), 6)),
            ("c3_12_d6", _verify("res_n1n2_C3", (1, 2), THREE_BLOCK_A1_PLUS, 6)),
            ("dbl_1213_ring7_d5", _verify("res_double_C4", (1, 2, 1, 3), DBL_1213_RING7, 5)),
        ]
    if workload == "cli_mix":
        # Four strata of jobs under 0.1 s, eight of 0.15-0.5 s and the
        # verify fixture: the median lies among the eight, the 90th
        # percentile in the dearest of them.
        nonres = [("non_resonant", (2,), _classes(2)), ("non_resonant", (3,), _classes(3))]
        return [
            ("classify_small", _classify(CASES[:6])),
            ("classify_large", _classify(CASES[6:])),
            ("nonres_gen", [job for c in nonres for job in _every_format("generators", *c)]),
            ("nonres_nf", [job for c in nonres for job in _normal_forms(*c)] + [FIXTURE_NF]),
            *_rendered("c3_12_ring3", "res_n1n2_C3", (1, 2), C3_12_RING3),
            *_rendered("c3_12_ring6", "res_n1n2_C3", (1, 2), C3_12_RING6),
            *_rendered("c3_13_ring4", "res_n1n2_C3", (1, 3), C3_13_RING4),
            *_rendered("c3_13_ring8", "res_n1n2_C3", (1, 3), C3_13_RING8),
            ("fixture_verify", [FIXTURE_VERIFY]),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def pool(workload: str) -> list[list[str]]:
    return [job for _, members in strata(workload) for job in members]


class Draw:
    """Seeded, stratified job sequence of one workload."""

    def __init__(self, workload: str, seed: int):
        rng = random.Random(f"{workload}:{seed}")
        self.strata = []
        for _, members in strata(workload):
            order = list(members)
            rng.shuffle(order)
            self.strata.append(order)

    def round(self, index: int) -> list[list[str]]:
        return [order[index % len(order)] for order in self.strata]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)
