"""Command-line front end: classify, generators, normal-form, verify.

One parser reads ``birevnf COMMAND [options]``, options before or after the
command.  Each job setting is declared once, in `JobConfig.settings`, and each
command once, in `COMMANDS`, with its handler and the formats it writes.
Jobs are described by a JSON config file plus flag overrides (flags win).
Identical configs produce byte-identical artifacts.  Exit codes: 0 success,
2 configuration problem, 3 resource bound exceeded, 4 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Callable, NamedTuple

from .continuous import (
    SymmetryContext,
    case_blocks,
    classify_type,
    enumerate_involution_pairs,
    fix_dimension,
    linear_part_for_case,
    require_sign_classes,
)
from .errors import (
    CertificationFailure,
    ConfigError,
    EngineError,
    ResourceLimit,
    UnsupportedCase,
)
from .normalform import assemble, emit
from .oracle import DEFAULT_MONOMIAL_LIMIT, module_slice, slice_space, spans_equal
from .symmetry_ops import emit_genset, pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_CERTIFICATION = 4

# the most integers a lo..hi range may name; a wider one is a config error,
# checked before anything the size of the range is built
MAX_RANGE = 1000

FORMATS = ("text", "json", "latex")
# classify and verify write reports, which have no LaTeX form
REPORT_FORMATS = FORMATS[:2]


def _int(value, what: str) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _str(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{what} must be a string, got {value!r}")


def _int_list(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_int(v, what) for v in values)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if ".." in text:
        bounds = text.split("..")
        if len(bounds) != 2:
            raise ConfigError(f"{what} range must be lo..hi, got {text!r}")
        lo, hi = (_int(b, what) for b in bounds)
        if hi - lo >= MAX_RANGE:
            raise ConfigError(f"{what} range {text!r} names more than {MAX_RANGE} integers")
        return tuple(range(lo, hi + 1))
    return tuple(_int(chunk, what) for chunk in text.split(","))


class Setting(NamedTuple):
    """One job setting: the `JobConfig` attribute it sets, its default, config
    key and flag, the readers of a config value and of the flag's text (none:
    argparse reads it by itself), and the flag's argparse options."""

    name: str
    default: object
    key: str
    flag: str
    read: Callable
    parse: Callable | None
    option: dict


def _setting(name: str, default, key: str, flag: str, read, parse=None, **option) -> Setting:
    return Setting(name, default, key, flag, read, parse, option)


class JobConfig:
    """One job's settings, each an attribute named in `JobConfig.settings`:
    its default until the config file or a flag sets it."""

    settings = (
        _setting("case", "non_resonant", "case", "--case", _str, help="catalog case name"),
        _setting(
            "params", (), "params", "--params", _int_list, _parse_int_list,
            help="comma-separated case parameters"),
        _setting(
            "signs", (), "signs", "--signs", _int_list, _parse_int_list,
            help="comma-separated signs a0,a1,...,an"),
        _setting(
            "degree_max", 4, "degree_max", "--degree", _int, type=int, metavar="DEGREE",
            help="normal-form truncation degree"),
        _setting(
            "verify_degrees", (2, 3, 4), "verify_degrees", "--verify-degrees", _int_list,
            _parse_int_list, help="degrees to certify, e.g. 2..6 or 2,3,4"),
        _setting("fmt", "text", "format", "--format", _str, choices=FORMATS),
        _setting(
            "limit_monomials", DEFAULT_MONOMIAL_LIMIT, "limit_monomials", "--limit-monomials",
            _int, type=int, help="slice size bound"),
    )

    def __init__(self):
        for setting in self.settings:
            setattr(self, setting.name, setting.default)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def validate(self) -> "JobConfig":
        try:
            n = case_blocks(self.case, self.params)
        except UnsupportedCase as exc:
            raise ConfigError(str(exc)) from exc
        if not self.signs:
            raise ConfigError("signs a0,a1,...,an are required")
        if len(self.signs) != n + 1:
            raise ConfigError(f"expected {n + 1} signs for n = {n} blocks")
        if any(s not in (1, -1) for s in self.signs):
            raise ConfigError("signs must be +1 or -1")
        if self.degree_max < 2:
            raise ConfigError("degree_max must be at least 2")
        if not self.verify_degrees:
            raise ConfigError("verify degrees must name at least one degree")
        if any(d < 0 for d in self.verify_degrees):
            raise ConfigError("verify degrees must be nonnegative")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be {', '.join(FORMATS[:-1])}, or {FORMATS[-1]}")
        # itertools.islice takes no bound above sys.maxsize
        if not 1 <= self.limit_monomials <= sys.maxsize:
            raise ConfigError(f"monomial limit must be between 1 and {sys.maxsize}")
        return self

    def context(self) -> SymmetryContext:
        return SymmetryContext.from_case(self.case, self.params, self.signs)


# config key -> the setting it sets, in `JobConfig.settings` order
SETTINGS = {setting.key: setting for setting in JobConfig.settings}
# the flags that set no job setting -> their help
OTHER_FLAGS = {
    "--config": "JSON job file; flags override its fields",
    "--out": "write the artifact to this path",
}
# every flag the parser declares, argparse's own --help included
FLAGS = (*(s.flag for s in JobConfig.settings), *OTHER_FLAGS, "--help")
# the flags whose text this module reads: the integer lists
INT_LIST_FLAGS = {s.flag for s in JobConfig.settings if s.parse}
# an integer list or lo..hi range that starts with a dash, such as -1,1,1
DASHED_INTS = re.compile(r"-\d+(?:(?:,[+-]?\d+)+|\.\.[+-]?\d+)?")


def load_config(args: argparse.Namespace) -> JobConfig:
    cfg = JobConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        # ValueError covers bad UTF-8, bad JSON and an integer too long to
        # convert; RecursionError a nesting too deep for the parser
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        for key in data:
            if key not in SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
        for key, setting in SETTINGS.items():
            if key in data:
                setattr(cfg, setting.name, setting.read(data[key], key))
    for key, setting in SETTINGS.items():
        text = getattr(args, setting.name)
        # an empty flag sets nothing
        if text not in (None, ""):
            parse = setting.parse
            setattr(cfg, setting.name, parse(text, key.replace("_", " ")) if parse else text)
    return cfg.validate()


def _emit_output(text: str, args: argparse.Namespace):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.out}: {exc}") from exc
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`... | head -1`); Python's documented
        # recipe: point stdout at devnull so that the flush at exit cannot
        # fail a second time, then exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)


def cmd_classify(cfg: JobConfig, args: argparse.Namespace) -> int:
    # bounded before the linear part, whose size grows with n, is built
    require_sign_classes(case_blocks(cfg.case, cfg.params))
    pairs = enumerate_involution_pairs(linear_part_for_case(cfg.case, cfg.params))
    rows = []
    for pair in pairs:
        rows.append(
            {
                "signs": list(pair.signs),
                "fix_phi": fix_dimension(pair.phi),
                "fix_psi": fix_dimension(pair.psi),
            }
        )
    result: dict = {"case": cfg.case, "pair_count": len(pairs), "pairs": rows}
    # the A-D taxonomy classifies the single-resonance regimes only
    if cfg.case in ("res_n1n2_C3", "res_n1n2_Cn"):
        n1, n2 = cfg.params[0], cfg.params[1]
        result["type"] = classify_type(cfg.signs, (n1, n2))
        result["signs"] = list(cfg.signs)
    if cfg.fmt == "json":
        _emit_output(json.dumps(result, indent=2, sort_keys=True), args)
    else:
        lines = [f"case: {cfg.case}", f"involution pairs: {len(pairs)}"]
        for row in rows:
            signs = ",".join(f"{s:+d}" for s in row["signs"])
            lines.append(
                f"  signs ({signs})  dim Fix(phi) = {row['fix_phi']}  "
                f"dim Fix(psi) = {row['fix_psi']}"
            )
        if "type" in result:
            signs = ",".join(f"{s:+d}" for s in cfg.signs)
            lines.append(f"signs ({signs}) -> Type {result['type']}")
        _emit_output("\n".join(lines), args)
    return EXIT_OK


def cmd_generators(cfg: JobConfig, args: argparse.Namespace) -> int:
    genset = pipeline(cfg.context())
    _emit_output(emit_genset(genset, cfg.fmt), args)
    return EXIT_OK


def cmd_normal_form(cfg: JobConfig, args: argparse.Namespace) -> int:
    ctx = cfg.context()
    genset = pipeline(ctx)
    nf = assemble(genset, ctx.linear_part, cfg.degree_max)
    _emit_output(emit(nf, cfg.fmt), args)
    return EXIT_OK


def cmd_verify(cfg: JobConfig, args: argparse.Namespace) -> int:
    ctx = cfg.context()
    genset = pipeline(ctx)
    full = ctx.full_context()
    report_rows = []
    all_equal = True
    for degree in cfg.verify_degrees:
        oracle_slice = slice_space(
            full, degree, "reversible_equivariant", cfg.limit_monomials
        )
        pipeline_slice = module_slice(genset, degree, cfg.limit_monomials)
        comparison = spans_equal(oracle_slice, pipeline_slice)
        row = {
            "degree": degree,
            "oracle_dimension": oracle_slice.dimension,
            "module_dimension": pipeline_slice.dimension,
            "equal": comparison.equal,
        }
        if not comparison.equal:
            all_equal = False
            row["witness"] = str(comparison.witness)
            # spans_equal(a=oracle, b=module) names the side lacking the witness
            row["missing_from"] = "oracle" if comparison.missing_from == "a" else "module"
        report_rows.append(row)
    payload = {
        "case": cfg.case,
        "params": list(cfg.params),
        "signs": list(cfg.signs),
        "slices": report_rows,
        "certified": all_equal,
    }
    if cfg.fmt == "json":
        _emit_output(json.dumps(payload, indent=2, sort_keys=True), args)
    else:
        lines = [f"verify {cfg.case} params={list(cfg.params)} signs={list(cfg.signs)}"]
        for row in report_rows:
            status = "ok" if row["equal"] else "MISMATCH"
            lines.append(
                f"  degree {row['degree']}: oracle dim {row['oracle_dimension']}, "
                f"module dim {row['module_dimension']} -> {status}"
            )
            if "witness" in row:
                lines.append(
                    f"  witness missing from {row['missing_from']}: {row['witness']}"
                )
        lines.append("certified" if all_equal else "certification FAILED")
        _emit_output("\n".join(lines), args)
    if not all_equal:
        raise CertificationFailure("pipeline output does not span the oracle space")
    return EXIT_OK


# command -> (handler, the formats it writes)
COMMANDS = {
    "classify": (cmd_classify, REPORT_FORMATS),
    "generators": (cmd_generators, FORMATS),
    "normal-form": (cmd_normal_form, FORMATS),
    "verify": (cmd_verify, REPORT_FORMATS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birevnf",
        description="Exact generator sets and formal normal forms for bireversible vector fields",
    )
    parser.add_argument("command", choices=COMMANDS)
    for setting in JobConfig.settings:
        parser.add_argument(setting.flag, dest=setting.name, **setting.option)
    for flag, text in OTHER_FLAGS.items():
        parser.add_argument(flag, help=text)
    return parser


def _flag_named(arg: str) -> str | None:
    """The flag that arg names, in full or as a unique prefix, as argparse reads it."""
    if arg in FLAGS or not arg.startswith("--"):
        return arg
    named = [flag for flag in FLAGS if flag.startswith(arg)]
    return named[0] if len(named) == 1 else None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as -1,1,1 as an option; joined to
    # its flag, or to a unique prefix of it, by `=`, it parses as
    # `--signs=-1,1,1` does
    for i in range(len(argv) - 1, 0, -1):
        if _flag_named(argv[i - 1]) in INT_LIST_FLAGS and DASHED_INTS.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    handler, formats = COMMANDS[args.command]
    try:
        cfg = load_config(args)
        if cfg.fmt not in formats:
            raise ConfigError(f"{args.command} reports in {' or '.join(formats)}, not {cfg.fmt}")
        return handler(cfg, args)
    except (ConfigError, UnsupportedCase) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificationFailure as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
