"""Command-line front end: run sweeps, verify bundles, print moments, sample."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateEvent,
    DegenerateVariance,
    DivergentIntegral,
    DomainError,
    InfiniteMoment,
    NotPositiveDefinite,
    UpperBoundUnavailable,
)
from .harness import (
    ExperimentConfig,
    _sigma_instances,
    exit_code_for,
    parse_config,
    run,
    verify_suite,
    write_reports,
)
from .linalg import BlockSpec
from .wishart import RngStream, WishartModel, log_det_moment, sample


def _load_config(path: str, override_finiteness: bool = False) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from None
    return parse_config(raw, override_finiteness=override_finiteness)


def _cmd_run(args) -> int:
    config = _load_config(args.config, override_finiteness=args.override_finiteness)
    rows = run(config, override_finiteness=args.override_finiteness)
    csv_path, json_path = write_reports(config, rows)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{len(rows)} rows ({summary}) -> {csv_path}, {json_path}")
    return exit_code_for(rows)


def _cmd_verify(args) -> int:
    return verify_suite(args.suite)


def _cmd_moments(args) -> int:
    if args.nu is None:
        raise ConfigError("--nu is required")
    logdet = args.logdet_sigma
    try:
        log_m = log_det_moment(args.alpha, args.p, logdet, args.nu)
    except DomainError as err:
        raise ConfigError(str(err)) from None
    print(json.dumps({
        "p": args.p,
        "alpha": args.alpha,
        "nu": args.nu,
        "logdet_sigma": logdet,
        "log_moment": log_m,
        "moment": float(np.exp(log_m)),
    }, indent=2))
    return 0


def _cmd_sample(args) -> int:
    config = _load_config(args.config)
    spec = BlockSpec(config.block_sizes)
    _, sigma = next(_sigma_instances(config, spec))
    model = WishartModel(config.alpha, sigma, spec)
    draws = sample(model, RngStream(config.seed), size=args.count)
    print(json.dumps({
        "alpha": config.alpha,
        "block_sizes": list(config.block_sizes),
        "sigma": sigma.tolist(),
        "seed": config.seed,
        "draws": np.asarray(draws).reshape(args.count, spec.total, spec.total).tolist(),
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wishart-gpi",
        description="Monte Carlo verification harness for Wishart minor-product inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON-configured inequality sweep")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument(
        "--workers", type=int, default=None,
        help="accepted for old scripts and ignored: chunks always run in order on one thread",
    )
    p_run.add_argument(
        "--override-finiteness",
        action="store_true",
        help="run even when the moment is not guaranteed finite",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a named verification bundle")
    p_verify.add_argument(
        "--suite", required=True, choices=("proved", "conjectures", "oracles"),
        help="proved: fail on any Violated; conjectures: report, exit 2 only on a confirmed violation; oracles: numeric cross-checks",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_m = sub.add_parser("moments", help="print the closed-form minor-determinant moment")
    p_m.add_argument("--alpha", type=float, required=True, help="degrees of freedom")
    p_m.add_argument("--p", type=int, required=True, help="block dimension")
    p_m.add_argument("--nu", type=float, required=True, help="determinant power (may be negative)")
    p_m.add_argument(
        "--logdet-sigma", type=float, default=0.0,
        help="log-determinant of the scale block (default 0: identity scale)",
    )
    p_m.set_defaults(fn=_cmd_moments)

    p_s = sub.add_parser("sample", help="emit Wishart draws for a config's model as JSON")
    p_s.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_s.add_argument("--count", type=int, required=True, help="number of draws")
    p_s.set_defaults(fn=_cmd_sample)
    return parser


# One parser per process: building the four-subcommand tree costs about
# a millisecond, which a sweep of small configs would pay on every call.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (
        DegenerateEvent,
        DegenerateVariance,
        DivergentIntegral,
        DomainError,
        InfiniteMoment,
        NotPositiveDefinite,
        UpperBoundUnavailable,
    ) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
