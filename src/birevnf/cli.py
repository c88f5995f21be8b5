"""Command-line front end: classify, generators, normal-form, verify.

Jobs are described by a JSON config file plus flag overrides (flags win).
Identical configs produce byte-identical artifacts.  Exit codes: 0 success,
2 configuration problem, 3 resource bound exceeded, 4 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

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


@dataclass
class JobConfig:
    case: str = "non_resonant"
    params: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()
    degree_max: int = 4
    verify_degrees: tuple[int, ...] = (2, 3, 4)
    fmt: str = "text"
    limit_monomials: int = DEFAULT_MONOMIAL_LIMIT

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
        if self.fmt not in ("text", "json", "latex"):
            raise ConfigError("format must be text, json, or latex")
        if self.limit_monomials < 1:
            raise ConfigError("monomial limit must be positive")
        return self

    def context(self) -> SymmetryContext:
        return SymmetryContext.from_case(self.case, self.params, self.signs)


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
        known = {
            "case",
            "params",
            "signs",
            "degree_max",
            "verify_degrees",
            "format",
            "limit_monomials",
        }
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        if "case" in data:
            cfg.case = _str(data["case"], "case")
        if "params" in data:
            cfg.params = _int_list(data["params"], "params")
        if "signs" in data:
            cfg.signs = _int_list(data["signs"], "signs")
        if "degree_max" in data:
            cfg.degree_max = _int(data["degree_max"], "degree_max")
        if "verify_degrees" in data:
            cfg.verify_degrees = _int_list(data["verify_degrees"], "verify_degrees")
        if "format" in data:
            cfg.fmt = _str(data["format"], "format")
        if "limit_monomials" in data:
            cfg.limit_monomials = _int(data["limit_monomials"], "limit_monomials")
    if args.case:
        cfg.case = args.case
    if args.params:
        cfg.params = _parse_int_list(args.params, "params")
    if args.signs:
        cfg.signs = _parse_int_list(args.signs, "signs")
    if args.degree is not None:
        cfg.degree_max = args.degree
    if args.verify_degrees:
        cfg.verify_degrees = _parse_int_list(args.verify_degrees, "verify degrees")
    if args.format:
        cfg.fmt = args.format
    if args.limit_monomials is not None:
        cfg.limit_monomials = args.limit_monomials
    return cfg.validate()


def _emit_output(text: str, args: argparse.Namespace):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.out}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (`... | head -1`); Python's documented
            # recipe: point stdout at devnull so that the flush at exit cannot
            # fail a second time, then exit 1
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            sys.exit(1)


def _require_report_format(cfg: JobConfig, command: str):
    if cfg.fmt not in ("text", "json"):
        raise ConfigError(f"{command} reports in text or json, not {cfg.fmt}")


def cmd_classify(cfg: JobConfig, args: argparse.Namespace) -> int:
    _require_report_format(cfg, "classify")
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
    _require_report_format(cfg, "verify")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birevnf",
        description=(
            "Exact generator sets and formal normal forms for bireversible "
            "vector fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("classify", cmd_classify),
        ("generators", cmd_generators),
        ("normal-form", cmd_normal_form),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON job file; flags override its fields")
        p.add_argument("--case", help="catalog case name")
        p.add_argument("--params", help="comma-separated case parameters")
        p.add_argument("--signs", help="comma-separated signs a0,a1,...,an")
        p.add_argument("--degree", type=int, help="normal-form truncation degree")
        p.add_argument(
            "--verify-degrees", help="degrees to certify, e.g. 2..6 or 2,3,4"
        )
        p.add_argument("--format", choices=("text", "json", "latex"))
        p.add_argument("--limit-monomials", type=int, help="slice size bound")
        p.add_argument("--out", help="write the artifact to this path")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.handler(cfg, args)
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
