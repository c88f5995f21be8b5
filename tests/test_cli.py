"""Command-line interface: subcommands, config handling, exit codes."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birevnf.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    INT_LIST_FLAGS,
    JobConfig,
    build_parser,
    load_config,
    main,
)
import birevnf.cli
from birevnf.continuous import (
    SymmetryContext,
    _case_context,
    linear_part_for_case,
    orbit_representative,
)
from birevnf.errors import ConfigError, UnsupportedCase
from birevnf.linalg import Echelon
from birevnf import oracle
from birevnf.oracle import (
    SYSTEM_BUDGET,
    DegreeSlice,
    KeptSystem,
    SystemMemo,
    module_slice,
    slice_space,
)
from birevnf.symmetry_ops import pipeline, transported

from conftest import slice_of
from test_golden_gensets import REGIMES, command_output
from test_oracle import _logged_tables


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_reports_type_b(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--case", "res_n1n2_C3",
        "--params", "1,2",
        "--signs", "1,-1,-1,1",
    )
    assert code == EXIT_OK
    assert "Type B" in out
    assert "involution pairs: 8" in out


def test_classify_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--case", "non_resonant",
        "--params", "2",
        "--signs", "1,1,1",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pair_count"] == 4
    assert all(r["fix_phi"] == 3 for r in data["pairs"])


def test_generators_deterministic(capsys):
    args = (
        "generators",
        "--case", "non_resonant",
        "--params", "2",
        "--signs", "1,1,1",
        "--format", "json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "genset-v1"
    assert payload["certified"] is True


def test_normal_form_latex(capsys):
    code, out, _ = run_cli(
        capsys,
        "normal-form",
        "--case", "non_resonant",
        "--params", "1",
        "--signs", "1,1",
        "--degree", "3",
        "--format", "latex",
    )
    assert code == EXIT_OK
    assert "\\begin{align*}" in out


def test_verify_certifies_type_a(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--case", "res_n1n2_C3",
        "--params", "1,2",
        "--signs", "1,1,1,1",
        "--verify-degrees", "2..3",
    )
    assert code == EXIT_OK
    assert "certified" in out


def _verify_with_a_short_side(monkeypatch, capsys, shortened, missing_from):
    # either side may lack an element, the last of its sorted basis; the
    # report names the side lacking the witness
    import birevnf.cli

    make = getattr(birevnf.cli, shortened)

    def short_slice(*args):
        full = make(*args)
        return slice_of(full.degree, full.kind, full.nvars, full.basis[:-1])

    monkeypatch.setattr(birevnf.cli, shortened, short_slice)
    args = ("verify", "--case", "non_resonant", "--params", "1", "--signs", "1,1",
            "--verify-degrees", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_CERTIFICATION
    lines = out.splitlines()
    assert lines[1].endswith("-> MISMATCH")
    assert lines[2].startswith(f"  witness missing from {missing_from}: (")
    assert lines[3] == "certification FAILED"
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_CERTIFICATION
    (row,) = json.loads(out)["slices"]
    assert row["missing_from"] == missing_from
    assert f"  witness missing from {missing_from}: " + row["witness"] in lines
    # the witness is an element of the side that is not short
    ctx = SymmetryContext.from_case("non_resonant", (1,), (1, 1))
    if shortened == "module_slice":
        holder = slice_space(ctx.full_context(), 2, "reversible_equivariant")
    else:
        holder = module_slice(pipeline(ctx), 2)
    assert row["witness"] in {str(e) for e in holder.basis}


def test_verify_mismatch_shows_witness(monkeypatch, capsys):
    _verify_with_a_short_side(monkeypatch, capsys, "module_slice", "module")


def test_verify_mismatch_shows_witness_missing_from_oracle(monkeypatch, capsys):
    _verify_with_a_short_side(monkeypatch, capsys, "slice_space", "oracle")


def test_verify_gives_the_oracle_the_callers_own_group(monkeypatch, capsys):
    # the pipeline reads the psi step of the orbit's representative, but the
    # oracle solves the caller's own group, so each job checks the theorem
    import birevnf.cli

    groups = []
    solve = birevnf.cli.slice_space

    def recording(group, *args):
        groups.append(group)
        return solve(group, *args)

    monkeypatch.setattr(birevnf.cli, "slice_space", recording)
    code, out, _ = run_cli(
        capsys, "verify", "--case", "res_n1n2_C3", "--params", "1,2",
        "--signs", "1,-1,-1,-1", "--verify-degrees", "2..3",
    )
    assert code == EXIT_OK and "certified" in out
    ctx = SymmetryContext.from_case("res_n1n2_C3", (1, 2), (1, -1, -1, -1))
    assert ctx.orbit_psi != ctx.psi
    assert groups == [ctx.full_context()] * 2
    assert all(group.elements == (ctx.phi, ctx.psi) for group in groups)


# the linear parts of the certify_deep benchmark workload, each with the
# top degree its verify jobs check
CERTIFY_DEEP = [
    ("non_resonant", (3,), 6),
    ("res_n1n2_C3", (2, 3), 6),
    ("res_n1n2_C3", (1, 2), 6),
    ("res_double_C4", (1, 2, 1, 3), 5),
]


def _verify_job(case, params, signs, top) -> tuple:
    return ("verify", "--case", case, "--params", ",".join(map(str, params)),
            f"--signs={','.join(map(str, signs))}", "--verify-degrees", f"2..{top}")


def _orbit_pair(case, params) -> list:
    """The first two sign vectors, in listing order, of the first orbit
    that has two."""
    linear = linear_part_for_case(case, params)
    orbits: dict = {}
    for signs in itertools.product((1, -1), repeat=linear.n + 1):
        orbits.setdefault(orbit_representative(linear, signs), []).append(signs)
    return next(members[:2] for members in orbits.values() if len(members) > 1)


@pytest.mark.parametrize("case, params, top", CERTIFY_DEEP)
def test_a_seen_orbit_verifies_with_no_elimination(monkeypatch, capsys, case, params, top):
    # after a job on one member of an orbit, a job on another builds no
    # table level and inserts no Echelon row: it reads the module slices of
    # the kept rung and the kept system's oracle slices from the memo, and still
    # compares the two at every degree, printing what cleared memos print
    first, second = _orbit_pair(case, params)
    code, fresh, _ = run_cli(capsys, *_verify_job(case, params, second, top))
    assert code == EXIT_OK and fresh.endswith("certified\n")
    _case_context.cache_clear()
    transported.cache_clear()
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
    tables = _logged_tables(monkeypatch)
    assert run_cli(capsys, *_verify_job(case, params, first, top))[0] == EXIT_OK
    built = [list(table.levels.appended) for table in tables]
    # the named case's context, whose LinearPart checks its relation rows
    # by elimination when it is built, is the job's input check: build it
    SymmetryContext.from_case(case, params, second)
    calls = {"insert": 0, "spans_equal": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, call)

    counted(Echelon, "insert")
    counted(birevnf.cli, "spans_equal")
    code, out, _ = run_cli(capsys, *_verify_job(case, params, second, top))
    assert code == EXIT_OK and out == fresh
    assert calls == {"insert": 0, "spans_equal": top - 1}
    assert [table.levels.appended for table in tables] == built


@pytest.mark.parametrize("side", ["module", "oracle"])
def test_a_kept_slice_short_of_a_row_fails_verify(monkeypatch, capsys, side):
    # the verdict is not kept: a kept slice that lost a row fails the next
    # job on it, with a witness missing from the short side
    case, params, signs = "res_n1n2_C3", (1, 2), (1, 1, -1, 1)
    job = _verify_job(case, params, signs, 4)
    assert run_cli(capsys, *job)[0] == EXIT_OK
    ctx = SymmetryContext.from_case(case, params, signs)
    degree = 3
    kept = oracle.KEPT_SYSTEMS._entries
    if side == "module":
        gs = pipeline(ctx)
        slices, key = kept, ("module", gs.ring_basis, gs.module_generators, degree)
        span, count = slices[key]
        short = (
            DegreeSlice(span.degree, span.kind, span.rows[:-1], span.nvars, span.reduced),
            count,
        )
        holder = slice_space(ctx.full_context(), degree, "reversible_equivariant")
    else:
        full = ctx.full_context()
        system, _ = kept[(full.continuous, full.elements[:-1], degree, "reversible_equivariant")]
        slices = system.slices
        [(key, span)] = slices.items()
        short = DegreeSlice(span.degree, span.kind, span.rows[:-1], span.nvars, span.reduced)
        holder = module_slice(pipeline(ctx), degree)
    assert span.dimension > 1
    monkeypatch.setitem(slices, key, short)
    code, out, _ = run_cli(capsys, *job)
    assert code == EXIT_CERTIFICATION
    lines = out.splitlines()
    assert lines[1].endswith("-> ok") and lines[2].endswith("-> MISMATCH")
    prefix = f"  witness missing from {side}: "
    assert lines[3].startswith(prefix) and lines[3][len(prefix):] in map(str, holder.basis)
    assert lines[-1] == "certification FAILED"


def _two_part_sweep() -> list:
    """verify jobs at degrees 2..5 on every sign class of res_n1n2_C3 (1,2)
    and of non_resonant 2."""
    return [
        ("verify", case, params, signs, "text", "--verify-degrees", "2..5")
        for case, params, n in (("res_n1n2_C3", (1, 2), 3), ("non_resonant", (2,), 2))
        for signs in itertools.product((1, -1), repeat=n + 1)
    ]


def test_one_budget_bounds_the_oracle_systems_and_module_slices(monkeypatch):
    # verify jobs on every sign class of two linear parts, each job twice,
    # on one memo whose budget is about a quarter of the 1,144 that the
    # sweep keeps on an unbounded memo (its biggest entry, an oracle system,
    # is 264): after every job the oracle systems and the module slices kept
    # together stay within the budget, entries of both kinds are dropped
    # and made again, no oracle key is a module key, and each job prints
    # what cleared memos print
    jobs = _two_part_sweep()
    fresh = {}
    for job in jobs:
        _case_context.cache_clear()
        transported.cache_clear()
        monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
        fresh[job] = command_output(*job)
    memo = SystemMemo(300)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    seen = {"module": set(), "oracle": set()}
    dropped = {"module": set(), "oracle": set()}
    for job in jobs + jobs:
        assert command_output(*job) == fresh[job], job
        assert memo.size == sum(max(size, 1) for _, size in memo._entries.values())
        assert memo.size <= memo.budget
        for key, (entry, _) in memo._entries.items():
            kind = "module" if key[0] == "module" else "oracle"
            assert isinstance(entry, DegreeSlice if kind == "module" else KeptSystem)
            seen[kind].add(key)
        for kind, keys in seen.items():
            dropped[kind] |= keys - memo._entries.keys()
    assert seen["module"].isdisjoint(seen["oracle"])
    assert all(dropped.values())
    assert memo.misses > len(seen["module"]) + len(seen["oracle"])


def test_an_entry_of_no_products_counts_against_the_budget(monkeypatch):
    # the sweep keeps module slices of 0 products; each entry counts at
    # least 1, so a memo with a budget of 2 never holds more than 2 entries
    # (counted at 0, such slices piled up past the budget), and each job
    # still prints what a memo with the default budget prints
    jobs = _two_part_sweep()
    fresh = {}
    for job in jobs:
        _case_context.cache_clear()
        transported.cache_clear()
        monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
        fresh[job] = command_output(*job)
    assert any(
        size == 0 for _, size in oracle.KEPT_SYSTEMS._entries.values()
    ), "the sweep keeps no entry of size 0"
    memo = SystemMemo(2)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    for job in jobs:
        assert command_output(*job) == fresh[job], job
        assert len(memo._entries) <= memo.budget
        assert memo.size == sum(max(size, 1) for _, size in memo._entries.values())


# each job setting: its JobConfig field, config key and flag, and one value
# other than its default, as a config value and as the flag's text
SETTING_VALUES = [
    ("case", "case", "--case", "res_n1n2_Cn", "res_n1n2_Cn"),
    ("params", "params", "--params", [1, 2, 4], "1,2,4"),
    ("signs", "signs", "--signs", [-1, 1, -1, 1, 1], "-1,1,-1,1,1"),
    ("degree_max", "degree_max", "--degree", 6, "6"),
    ("verify_degrees", "verify_degrees", "--verify-degrees", [2, 3, 4, 5], "2..5"),
    ("fmt", "format", "--format", "json", "json"),
    ("limit_monomials", "limit_monomials", "--limit-monomials", 500, "500"),
]


def _load_job(tmp_path, job, *flags):
    path = tmp_path / "setting.json"
    path.write_text(json.dumps(job))
    return load_config(build_parser().parse_args(["generators", "--config", str(path), *flags]))


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(
        json.dumps(
            {
                "case": "non_resonant",
                "params": [2],
                "signs": [1, 1, 1],
                "degree_max": 4,
                "format": "text",
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "normal-form", "--config", str(cfg), "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == "nf-v1"
    # every setting gives one JobConfig whether its config key or its flag
    # holds the value; the key spelled otherwise is unknown
    assert [row[0] for row in SETTING_VALUES] == [s.name for s in JobConfig.settings]
    help_text = build_parser().format_help()
    job = {key: value for _, key, _, value, _ in SETTING_VALUES[:3]}
    for name, key, flag, value, text in SETTING_VALUES:
        others = {k: v for k, v in job.items() if k != key}
        by_key = _load_job(tmp_path, {**others, key: value})
        assert _load_job(tmp_path, others, f"{flag}={text}") == by_key, key
        expected = tuple(value) if isinstance(value, list) else value
        assert getattr(by_key, name) == expected != getattr(JobConfig(), name), key
        assert flag in help_text
        with pytest.raises(ConfigError, match=f"^unknown config key '{key.upper()}'$"):
            _load_job(tmp_path, {**job, key.upper(): value})
    assert "--config" in help_text and "--out" in help_text


@pytest.mark.parametrize("command", ["classify", "generators", "normal-form", "verify"])
def test_dashed_list_values_parse_as_their_equals_form(capsys, command):
    # argparse takes a separate value such as -1,1,1 for an option; such a
    # value of an integer-list flag reads as the `=` form does, with the
    # options before or after the command
    job = ("--case", "non_resonant", "--params", "2", "--signs", "1,1,1")
    for flag, text, code in (
        ("--signs", "-1,1,1", EXIT_OK),
        ("--signs", "-1,+1,-1", EXIT_OK),
        ("--params", "-1,2", EXIT_CONFIG),
        ("--verify-degrees", "-1..3", EXIT_CONFIG),
        ("--verify-degrees", "-2,3", EXIT_CONFIG),
    ):
        joined = run_cli(capsys, command, *job, f"{flag}={text}")
        assert joined[0] == code
        assert run_cli(capsys, command, *job, flag, text) == joined
        assert run_cli(capsys, *job, flag, text, command) == joined
    # any other dash token after such a flag is still an option
    for token in ("-h", "-1,x"):
        with pytest.raises(SystemExit) as exc:
            main([command, *job, "--signs", token])
        assert exc.value.code == 2  # argparse rejected the argv
        assert "argument --signs: expected one argument" in capsys.readouterr().err


# a dashed value of each integer-list flag
DASHED_VALUES = {"--params": "-1,2", "--signs": "-1,1,1", "--verify-degrees": "-1..3"}


@pytest.mark.parametrize("flag", sorted(DASHED_VALUES))
def test_flag_prefixes_take_dashed_values(capsys, flag):
    # a unique prefix of an integer-list flag with a separate dashed value
    # prints what the full flag prints, with the value separate or joined
    # by `=`
    assert set(DASHED_VALUES) == INT_LIST_FLAGS
    job = ("verify", "--case", "non_resonant", "--params", "2", "--signs", "1,1,1")
    text = DASHED_VALUES[flag]
    prefix = flag[:5]
    full = run_cli(capsys, *job, flag, text)
    assert full[0] in (EXIT_OK, EXIT_CONFIG)
    for argv in ((prefix, text), (f"{prefix}={text}",), (f"{flag}={text}",)):
        assert run_cli(capsys, *job, *argv) == full, argv
    # a prefix of two flags is still ambiguous, whatever its value
    for value in ("-1,1,1", "non_resonant"):
        with pytest.raises(SystemExit) as exc:
            main([*job, "--c", value])
        assert exc.value.code == 2
        assert "ambiguous option: --c could match --case, --config" in capsys.readouterr().err


def test_degree_below_two_is_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        "generators",
        "--case", "non_resonant",
        "--params", "2",
        "--signs", "1,1,1",
        "--degree", "1",
    )
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_unknown_case_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "generators", "--case", "res_11", "--signs", "1,1"
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["classify", "generators"])
def test_resonance_pair_with_common_factor_is_config_error(capsys, command):
    # (2, 4) names the subtorus of (1, 2), whose type differs; every command
    # rejects it instead of classifying the unreduced pair
    code, out, err = run_cli(
        capsys,
        command,
        "--case", "res_n1n2_C3",
        "--params", "2,4",
        "--signs=1,1,-1,1",
    )
    assert code == EXIT_CONFIG
    assert "share a factor" in err
    assert "Type" not in out


def test_bad_signs_are_config_errors(capsys):
    code, _, _ = run_cli(
        capsys,
        "generators",
        "--case", "non_resonant",
        "--params", "2",
        "--signs", "1,2,1",
    )
    assert code == EXIT_CONFIG
    code, _, _ = run_cli(
        capsys,
        "generators",
        "--case", "non_resonant",
        "--params", "2",
        "--signs", "1,1",
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "params, signs, degrees",
    [
        ("1,x", "1,1,1,1", "2"),
        ("1..x", "1,1,1,1", "2"),
        ("1,2", "1,one,1,1", "2"),
        ("1,2", "1,1,1,1", "5..2"),
        ("1,2", "1,1,1,1", "2..3..4"),
        ("1,2", "1,1,1,1", "2,,3"),
        ("1,2", "1,1,1,1", "0..1000000000000"),
    ],
)
def test_malformed_integer_flags_are_config_errors(capsys, params, signs, degrees):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--case", "res_n1n2_C3",
        "--params", params,
        "--signs", signs,
        "--verify-degrees", degrees,
    )
    assert code == EXIT_CONFIG
    assert "config error" in err
    assert "Traceback" not in err
    assert "certified" not in out


@pytest.mark.parametrize(
    "field, value",
    [
        ("params", "1,2"),
        ("params", [1, "x"]),
        ("signs", 1),
        ("degree_max", "four"),
        ("degree_max", 2.5),
        ("verify_degrees", []),
        ("limit_monomials", None),
    ],
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, field, value):
    job = {"case": "res_n1n2_C3", "params": [1, 2], "signs": [1, 1, 1, 1]}
    job[field] = value
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "config error" in err
    assert "Traceback" not in err
    assert "certified" not in out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# values of the right shape, so that some drawn configs are valid
PLAUSIBLE = {
    "case": st.sampled_from(["non_resonant", "res_n1n2_C3", "res_n1n2_Cn", "res_double_C4"]),
    "params": st.lists(st.integers(-1, 5), max_size=5),
    "signs": st.lists(st.sampled_from([1, -1]), max_size=6),
    "degree_max": st.integers(-1, 6),
    "verify_degrees": st.lists(st.integers(-1, 6), max_size=3),
    "format": st.sampled_from(["text", "json", "latex", "html"]),
    "limit_monomials": st.integers(-1, 10),
}
CONFIGS = st.fixed_dictionaries(
    {}, optional={key: strategy | JSON_VALUES for key, strategy in PLAUSIBLE.items()}
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "job.json"


@settings(max_examples=300)
@given(CONFIGS)
def test_load_config_validates_or_raises_config_error(config_path, data):
    config_path.write_text(json.dumps(data))
    args = build_parser().parse_args(["generators", "--config", str(config_path)])
    try:
        cfg = load_config(args)
    except ConfigError:
        return
    assert isinstance(cfg, JobConfig)
    assert isinstance(cfg.case, str) and isinstance(cfg.fmt, str)
    assert cfg.validate() is cfg


# text of the right shape for each flag, so that some drawn argvs are valid
SMALL = st.integers(-2, 7).map(str)
INT_LISTS = st.lists(SMALL, min_size=1, max_size=5).map(",".join)
# lo..hi ranges up to far wider than any list that could be built
BOUND = SMALL | st.integers(-(10**15), 10**15).map(str)
RANGES = st.tuples(BOUND, BOUND).map("..".join)
FLAG_TEXT = {
    "--case": st.sampled_from(["non_resonant", "res_n1n2_C3", "res_n1n2_Cn", "res_double_C4"]),
    "--params": st.sampled_from(["2", "3", "1,2", "2,3", "2,3,4", "1,2,1,3"]) | INT_LISTS | RANGES,
    "--signs": st.sampled_from(["1,-1,1", "1,1,-1,1", "-1,1,1,1,-1"])
    | st.lists(st.sampled_from(["1", "-1", "+1", "0"]), min_size=1, max_size=6).map(",".join),
    "--verify-degrees": INT_LISTS | RANGES,
    "--degree": SMALL,
    "--limit-monomials": SMALL,
    "--format": st.sampled_from(["text", "json", "latex", "html"]),
}
# a valid case, parameters and signs, which the drawn flags may override
VALID_CORE = st.sampled_from(
    [("non_resonant", "2", "1,-1,1"), ("res_n1n2_C3", "1,2", "1,1,-1,1")]
).map(lambda core: {flag: (text, True) for flag, text in zip(FLAG_TEXT, core)})
FLAGS = st.tuples(
    VALID_CORE | st.just({}),
    st.fixed_dictionaries(
        {},
        optional={
            flag: st.tuples(strategy | strategy | st.text(max_size=12), st.booleans())
            for flag, strategy in FLAG_TEXT.items()
        },
    ),
).map(lambda drawn: {**drawn[0], **drawn[1]})


@settings(max_examples=300)
@given(st.sampled_from(["classify", "generators", "normal-form", "verify"]), FLAGS)
def test_load_config_over_command_line_flags(command, flags):
    argv = [command]
    for flag, (text, joined) in flags.items():
        argv += [f"{flag}={text}"] if joined else [flag, text]
    try:
        cfg = load_config(build_parser().parse_args(argv))
    except (ConfigError, UnsupportedCase):
        return
    except SystemExit as exc:
        assert exc.code == 2  # argparse rejected the argv
        return
    assert isinstance(cfg, JobConfig)
    assert cfg.validate() is cfg


@pytest.mark.parametrize("field", ["case", "format"])
def test_non_string_case_or_format_is_config_error(tmp_path, capsys, field):
    job = {"case": "non_resonant", "params": [1], "signs": [1, 1], field: ["x"]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    code, _, err = run_cli(capsys, "generators", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert f"{field} must be a string" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"[1, 2]", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b"1" * 5000],
    ids=["array", "not-utf-8", "nested-too-deep", "integer-too-long"],
)
def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "job.json"
    cfg.write_bytes(content)
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "config error" in err
    if content != b"[1, 2]":
        # the parser gave up: RecursionError or ValueError, no traceback
        assert f"config error: cannot read config {cfg}" in err


def test_monomial_limit_yields_resource_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--case", "non_resonant",
        "--params", "1",
        "--signs", "1,1",
        "--verify-degrees", "6",
        "--limit-monomials", "5",
    )
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_monomial_limit_past_the_largest_index_is_config_error(tmp_path, capsys, source):
    # a bound itertools.islice cannot take is refused before any slice
    job = ["verify", "--case", "non_resonant", "--params", "1", "--signs", "1,1"]
    limit = sys.maxsize + 1
    if source == "flag":
        extra = ["--limit-monomials", str(limit)]
    else:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"limit_monomials": limit}))
        extra = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *job, *extra)
    assert code == EXIT_CONFIG
    assert f"monomial limit must be between 1 and {sys.maxsize}" in err
    assert "Traceback" not in err and out == ""
    # the largest index itself is a limit
    assert run_cli(capsys, *job, "--limit-monomials", str(sys.maxsize))[0] == EXIT_OK


def test_repo_job_fixtures(capsys):
    import pathlib

    jobs = pathlib.Path(__file__).resolve().parent.parent / "jobs"
    code, out, _ = run_cli(capsys, "verify", "--config", str(jobs / "c3_type_b_verify.json"))
    assert code == EXIT_OK
    assert "certified" in out
    code, out, _ = run_cli(
        capsys, "normal-form", "--config", str(jobs / "nonres2_normal_form.json")
    )
    assert code == EXIT_OK
    assert "\\begin{align*}" in out


def child_env() -> dict:
    """Environment for a `python -m birevnf` child that imports this package."""
    import birevnf

    # the child imports the same package as this process, installed or not
    src = str(pathlib.Path(birevnf.__file__).parents[1])
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }


def test_python_dash_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "birevnf", "classify", "--case", "non_resonant",
         "--params", "1", "--signs", "1,1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == EXIT_OK
    assert "involution pairs: 2" in result.stdout


def test_importing_the_cli_loads_no_dataclasses():
    # every console job is a fresh process that pays for each module the
    # package imports; dataclasses would bring inspect, ast and dis with it
    result = subprocess.run(
        [sys.executable, "-c", "import sys, birevnf.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "birevnf.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--case", "non_resonant",
        "--params", "1",
        "--signs", "1,1",
        "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert "involution pairs: 2" in target.read_text()


def test_unwritable_output_is_config_error(tmp_path):
    # a separate process, so that an uncaught error would print its traceback
    target = tmp_path / "missing" / "x.txt"
    result = subprocess.run(
        [sys.executable, "-m", "birevnf", "classify", "--case", "non_resonant",
         "--params", "1", "--signs", "1,1", "--out", str(target)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == EXIT_CONFIG
    assert f"config error: cannot write output {target}" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def assert_classify_refused_at_once(n):
    # 2^n sign classes: refused before the linear part or any involution is
    # built, not enumerated until the process is killed
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "birevnf", "classify", "--case", "non_resonant",
         "--params", str(n), "--signs=" + ",".join(["1"] * (n + 1))],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == EXIT_RESOURCE
    assert f"resource limit: {n} rotation blocks give 2^{n} sign classes" in result.stderr
    assert "4096" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert elapsed < 1


def test_classify_past_the_sign_class_bound_exits_at_once():
    assert_classify_refused_at_once(40)


def test_classify_with_a_thousand_blocks_exits_before_the_linear_part():
    assert_classify_refused_at_once(1000)


@pytest.mark.parametrize("degree", ["1000", "1000000000000"])
def test_huge_verify_degree_is_a_resource_limit(degree):
    # the admissible count is bounded before the oracle walks the monomials
    result = subprocess.run(
        [sys.executable, "-m", "birevnf", "verify", "--case", "non_resonant",
         "--params", "1", "--signs", "1,1", "--verify-degrees", degree],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=10,
    )
    assert result.returncode == EXIT_RESOURCE
    assert f"in the degree-{degree} oracle slice" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "case,params,signs,degree",
    [
        # its weight-zero monomials alone stay just under the bound, so the
        # walk itself has to stop
        ("res_n1n2_C3", "3,5", "1,1,-1,1", "880"),
        ("res_double_C4", "1,2,1,3", "1,1,1,1,1", "600"),
    ],
)
def test_torus_walk_stops_at_the_bound(case, params, signs, degree):
    # the walk's work is bounded by the monomials it stores, so a slice past
    # the bound is refused in about a second, not after minutes
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "birevnf", "verify", "--case", case, "--params", params,
         f"--signs={signs}", "--verify-degrees", degree],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == EXIT_RESOURCE
    assert (
        "resource limit: more than 200000 admissible (component, monomial) pairs "
        f"in the degree-{degree} oracle slice"
    ) in result.stderr
    assert "Traceback" not in result.stderr
    assert elapsed < 5


def test_closed_stdout_exits_without_traceback():
    # the reader is gone before the child writes, as after `... | head -1`
    child = subprocess.Popen(
        [sys.executable, "-m", "birevnf", "generators", "--case", "non_resonant",
         "--params", "1", "--signs", "1,1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


# the formats each command writes
COMMAND_FORMATS = {
    "classify": ("text", "json"),
    "generators": ("text", "json", "latex"),
    "normal-form": ("text", "json", "latex"),
    "verify": ("text", "json"),
}


@pytest.mark.parametrize("command", list(COMMAND_FORMATS))
def test_report_commands_reject_latex(capsys, tmp_path, command):
    # each format, given by flag and by config: one the command does not
    # write is a config error before anything runs
    config = tmp_path / "job.json"
    for fmt in ("text", "json", "latex"):
        config.write_text(json.dumps(
            {"case": "non_resonant", "params": [1], "signs": [1, 1], "format": fmt}
        ))
        for argv in (
            (command, "--case", "non_resonant", "--params", "1", "--signs", "1,1",
             "--format", fmt),
            (command, "--config", str(config)),
        ):
            code, out, err = run_cli(capsys, *argv)
            if fmt in COMMAND_FORMATS[command]:
                assert (code, err) == (EXIT_OK, "")
                continue
            assert code == EXIT_CONFIG
            assert out == ""
            assert f"config error: {command} reports in text or json, not {fmt}" in err


def test_repeated_jobs_print_what_a_cleared_memo_prints(monkeypatch):
    # generators and normal-form in every format and verify, on the first
    # and last sign class of each golden regime: each job runs twice, with
    # the others in between, and prints what it prints on cleared memos
    renders = [
        (command, fmt, ())
        for command in ("generators", "normal-form")
        for fmt in ("text", "latex", "json")
    ]
    jobs = [
        (command, case, params, signs, fmt, *extra)
        for case, params, n in REGIMES
        for signs in ((1,) * (n + 1), (-1,) * (n + 1))
        for command, fmt, extra in (*renders, ("verify", "text", ("--verify-degrees", "2..4")))
    ]
    fresh = {}
    for job in jobs:
        _case_context.cache_clear()
        transported.cache_clear()
        monkeypatch.setattr(oracle, "KEPT_SYSTEMS", SystemMemo(SYSTEM_BUDGET))
        fresh[job] = command_output(*job)
    _case_context.cache_clear()
    transported.cache_clear()
    memo = SystemMemo(SYSTEM_BUDGET)
    monkeypatch.setattr(oracle, "KEPT_SYSTEMS", memo)
    for job in jobs + jobs:
        assert command_output(*job) == fresh[job], job
    # a catalog and a phi step per linear part and a psi step per sign
    # class, whichever regime names them; every other lookup is a hit
    steps = {
        (ctx.linear_part, ctx.psi)
        for ctx in (SymmetryContext.from_case(*job[1:4]) for job in jobs)
    }
    linear_parts = {linear for linear, _ in steps}
    # res_n1n2_Cn (1,2,3) is the linear part of res_n1n2_C3 (1,2)
    assert len(linear_parts) == len(REGIMES) - 1
    assert transported.cache_info().misses == 2 * len(linear_parts) + len(steps)
    # verify keeps one system, the shear's rows and phi's, per linear part
    # and degree, and one module slice per psi step and degree; each of its
    # other lookups, two at each of the degrees 2..4 of every verify job,
    # run twice, is a hit
    verify = [job for job in jobs if job[0] == "verify"]
    psi_steps = {
        transported(ctx.linear_part, ctx.phi, ctx.orbit_psi)
        for ctx in (SymmetryContext.from_case(*job[1:4]) for job in verify)
    }
    assert memo.misses == 3 * len(linear_parts) + 3 * len(psi_steps)
    assert memo.hits == 2 * 2 * 3 * len(verify) - memo.misses > 0
