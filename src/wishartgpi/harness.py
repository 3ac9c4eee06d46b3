"""Config-driven experiment runner with machine-readable reports.

A single JSON config describes one inequality sweep: the model shape,
where the scale matrices come from, the exponents or thresholds, sample
counts and seeding. ``run`` reports one verdict per (scale-matrix
instance x split), all splits of an instance read off one shared sample,
and writes a fixed-column CSV plus a JSON report that embeds every
random matrix, making each row standalone-reproducible.
What the harness knows about each inequality kind, from its config
fields to its exponents column, is one entry of ``KINDS``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from math import inf, isfinite
from typing import Callable

import numpy as np

from .bounds import integral_window
from .errors import ConfigError
from .linalg import BlockSpec, as_symmetric, direct_sum, is_positive_definite
from .montecarlo import (
    CHUNK_DRAWS,
    ExponentVector,
    Finiteness,
    ROLE_STRIDE,
    StreamPlan,
    finiteness_classify,
)
from .checks import (
    BernsteinSpec,
    RadialSpec,
    STATEMENTS,
    bernstein_pair_check,
    eigen_gpi_check,
    elliptical_gpi_check,
    gpi_sandwich,
    lt_order_gap,
    opposite_gpi_lower,
    opposite_gpi_upper,
    product_moment_conjecture_check,
    tail_probability_conjecture_check,
    verdict_from,
)
from .wishart import RngStream, WishartModel, laplace_transform, minor_moment, pair_moment, random_correlation

__all__ = [
    "SCHEMA_VERSION",
    "OUTPUT_DIR_ENV",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "run",
    "write_reports",
    "verify_suite",
]

SCHEMA_VERSION = 1

# Default directory for report files when a config gives a relative
# output path; all other behavior comes from the config itself.
OUTPUT_DIR_ENV = "WISHARTGPI_OUTPUT_DIR"

# Reserved stream namespace for drawing random scale matrices; the plan of
# scale instance i sits at i * ROLE_STRIDE, far below this.
_SIGMA_STREAM_BASE = 1 << 40
# Caps that keep every stream id in range: a rerun draws 10 * n_samples,
# whose chunk index must fit the 32 bits under its anchor, and the
# anchors of `count` scale instances, count * ROLE_STRIDE, must fit in 32.
N_SAMPLES_CAP = ((CHUNK_DRAWS << 32) - 1) // 10
COUNT_CAP = ((1 << 32) - 1) // ROLE_STRIDE

CSV_COLUMNS = (
    "experiment_id",
    "inequality_id",
    "statement",
    "d",
    "alpha",
    "block_sizes",
    "sigma_digest",
    "exponents",
    "lhs",
    "lhs_se",
    "rhs",
    "rhs_se",
    "z",
    "verdict",
    "n",
    "seed",
    "status",
)


def _fmt(x: float) -> str:
    # 17 significant digits reproduce any float64 bit pattern.
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One inequality sweep, parsed from (and serializable to) JSON.

    ``params`` holds the kind's typed parameters from `parse_config`; the JSON echo omits it.
    """

    inequality_id: str
    d: int
    block_sizes: tuple[int, ...]
    alpha: float
    sigma_source: dict
    n_samples: int
    seed: int
    z_threshold: float = 3.0
    split: object = "all"
    exponents: dict | None = None
    thresholds: list | None = None
    bernstein: dict | None = None
    elliptical: dict | None = None
    t_blocks: list | None = None
    bound: str = "lower"
    output_path: str | None = None
    override_finiteness: bool = False
    schema_version: int = SCHEMA_VERSION
    params: object = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["params"]
        out["block_sizes"] = list(self.block_sizes)
        return out

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}") from None
        return parse_config(raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _is_number(val) -> bool:
    # Finite JSON numbers only: bool is an int subclass, but true is not
    # 1.0 here, and an integer beyond the float range is no usable number.
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return isfinite(val)
    except OverflowError:
        return False


def _need(raw: dict, key: str, kind, what: str, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"missing field {key!r} ({what})")
    val = raw[key]
    if kind is float:
        if not _is_number(val):
            raise ConfigError(f"field {key!r} must be a finite number, got {val!r}")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"field {key!r} must be an integer, got {val!r}")
        return val
    if not isinstance(val, kind):
        raise ConfigError(f"field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


@dataclass(frozen=True)
class Kind:
    """How the harness parses, splits, runs and labels one inequality kind.

    ``parse(raw, spec, alpha, override)`` validates the kind's fields and
    returns ``(params, fields)``: the typed parameters ``run`` reads from
    ``config.params`` and the config fields echoed to JSON.
    ``run(c, s, splits, o, n=, rng=, z_threshold=)`` runs
    config c at scale matrix s for every split in `splits` (``[None]``
    for a kind without one) under finiteness override o, all splits from
    one shared estimator, and returns the verdicts keyed by (split,
    experiment-id suffix) in row order; it calls the checks through this
    module's globals, where a tracer may replace them. ``top(spec)`` is
    the highest split (None: one row per scale matrix) and
    ``column(params)`` the CSV exponents cell.
    """

    parse: Callable
    run: Callable
    top: Callable[[BlockSpec], int] | None = lambda spec: spec.d
    column: Callable[[object], str] = lambda params: ""


def _parse_exponents(raw: dict, n: int, ineq: str, sign: int | None = None):
    exps = raw.get("exponents")
    if not isinstance(exps, dict) or "values" not in exps or "signs" not in exps:
        raise ConfigError("exponents must be an object with 'values' and 'signs' lists")
    if not all(
        isinstance(seq, (list, tuple)) and all(map(_is_number, seq))
        for seq in (exps["values"], exps["signs"])
    ):
        raise ConfigError("exponents 'values' and 'signs' must be lists of numbers")
    try:
        exps = ExponentVector(tuple(exps["values"]), tuple(exps["signs"]))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad exponents: {err}") from None
    if exps.d != n:
        raise ConfigError(f"exponents carry {exps.d} entries, config d={n}")
    if sign is not None and any(s != sign for s in exps.signs):
        raise ConfigError(f"{ineq} exponents must all carry sign {sign:+d}")
    return exps, {"exponents": {"values": list(exps.values), "signs": list(exps.signs)}}


def _require_finite(exps: ExponentVector, spec: BlockSpec, alpha: float, override: bool):
    # Fail fast on finiteness/moment windows before any sampling.
    verdict = finiteness_classify(alpha, spec.sizes, exps)
    if verdict is Finiteness.INFINITE:
        raise ConfigError("exponents sit at or beyond the divergence boundary; the moment is infinite")
    if verdict is not Finiteness.FINITE_GUARANTEED and not override:
        raise ConfigError("exponents leave the guaranteed-finite window; pass override_finiteness")


def _signed_column(exps: ExponentVector) -> str:
    return "|".join(_fmt(v) for v in exps.signed)


def _model(config: ExperimentConfig, sigma: np.ndarray) -> WishartModel:
    return WishartModel(config.alpha, sigma, BlockSpec(config.block_sizes))


def _by_split(verdicts: dict) -> dict:
    # A check's verdicts keyed by split, as rows without a suffix.
    return {(k, ""): v for k, v in verdicts.items()}


def _every_split(verdict, splits) -> dict:
    # A verdict whose sides do not depend on the split, reported on every
    # split row; each row records the splits that shared its sample.
    shared = {"shared_splits": list(splits)}
    return {(k, ""): replace(verdict, detail={**verdict.detail, "split": k, **shared}) for k in splits}


_SIDES = {"lower": ("lower",), "upper": ("upper",), "both": ("lower", "upper")}


def _parse_sandwich(raw, spec, alpha, override):
    exps, fields = _parse_exponents(raw, spec.d, "sandwich", -1)
    bound = raw.get("bound", "lower")
    if bound not in _SIDES:
        raise ConfigError("bound must be 'lower', 'upper', or 'both'")
    if spec.d < 2:
        raise ConfigError("sandwich needs d >= 2")
    _require_finite(exps, spec, alpha, override)
    if bound in ("upper", "both"):
        for i, p_i in enumerate(spec.sizes):
            lo, hi, _rule = integral_window(p_i, alpha)
            if not lo < exps.values[i] < hi:
                raise ConfigError(
                    f"upper bound needs nu_{i + 1} strictly inside ({lo}, {hi}) "
                    f"for block size {p_i}, got {exps.values[i]}"
                )
    return exps, fields


def _parse_conj36(raw, spec, alpha, override):
    thresholds = raw.get("thresholds")
    if thresholds is not None:
        if (
            not isinstance(thresholds, list)
            or len(thresholds) != spec.d
            or not all(map(_is_number, thresholds))
        ):
            raise ConfigError(f"thresholds must be a list of {spec.d} positive numbers or null")
        thresholds = tuple(float(t) for t in thresholds)
        if not all(0 < t < inf for t in thresholds):
            raise ConfigError("thresholds must be positive and finite")
    return thresholds, {"thresholds": thresholds and list(thresholds)}


def _opposite(ineq: str, want: Callable[[int], tuple], pattern: str, check: Callable) -> Kind:
    # Positive magnitudes with fixed signs; check() fetches the check when a row runs.
    def parse(raw, spec, alpha, override):
        exps, fields = _parse_exponents(raw, spec.d, ineq)
        if spec.d < 2 or exps.signs != want(spec.d) or any(v <= 0 for v in exps.values):
            raise ConfigError(f"{ineq} needs positive magnitudes with signs {pattern}")
        _require_finite(exps, spec, alpha, override)
        return exps, fields

    def run_instance(c, s, splits, o, **mc):
        return _every_split(check()(_model(c, s), c.params.values, override_finiteness=o, **mc), splits)

    return Kind(parse, run_instance, column=_signed_column)


def _parse_bernstein(raw, spec, alpha, override):
    if spec.d != 2:
        raise ConfigError("bernstein needs exactly two blocks")
    braw = _need(raw, "bernstein", dict, "functional pair")
    pair = []
    for which, p in zip("fg", spec.sizes):
        fraw = braw.get(which)
        if not isinstance(fraw, dict):
            raise ConfigError(f"bernstein.{which} must be an object")
        A = np.array(fraw.get("trace_offset", np.zeros((p, p))), dtype=float)
        atoms = tuple((c, np.array(S, dtype=float)) for c, S in fraw.get("atoms", []))
        try:
            pair.append(BernsteinSpec(A, atoms))
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"bernstein.{which}: {err}") from None
        if pair[-1].dim != p:
            raise ConfigError(f"bernstein.{which} has dimension {pair[-1].dim}, block needs {p}")
    return tuple(pair), {"bernstein": dict(braw)}


def _parse_elliptical(raw, spec, alpha, override):
    eraw = _need(raw, "elliptical", dict, "sphere exponents and radial law")
    alphas = eraw.get("alphas")
    if not isinstance(alphas, list) or len(alphas) != spec.total:
        raise ConfigError(f"elliptical.alphas must list {spec.total} exponents")
    if not all(_is_number(a) and 0 <= a < inf for a in alphas):
        raise ConfigError("elliptical.alphas must be nonnegative finite numbers")
    rraw = eraw.get("radial", {"kind": "chisq"})
    try:
        radial = RadialSpec(**rraw)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"elliptical.radial: {err}") from None
    return (tuple(float(a) for a in alphas), radial), {"elliptical": dict(eraw)}


def _parse_lt_order(raw, spec, alpha, override):
    traw = _need(raw, "t_blocks", list, "transform argument blocks")
    if len(traw) != spec.d:
        raise ConfigError(f"t_blocks must hold {spec.d} matrices")
    t_blocks = []
    for i, entry in enumerate(traw):
        t = np.atleast_2d(np.array(entry, dtype=float))
        if t.shape != (spec.sizes[i], spec.sizes[i]):
            raise ConfigError(f"t_blocks[{i}] must be {spec.sizes[i]}x{spec.sizes[i]}, got {t.shape}")
        lam_min = float(np.linalg.eigvalsh(as_symmetric(t))[0])
        if lam_min < -1e-10 * max(1.0, float(np.abs(t).max())):
            raise ConfigError(f"t_blocks[{i}] is not nonnegative definite")
        t_blocks.append(t)
    return (t_blocks, direct_sum(*t_blocks)), {"t_blocks": [t.tolist() for t in t_blocks]}


def _run_lt_order(config, sigma, splits, override, **mc):
    # exact on both sides: each split computes its own gap
    t_blocks, T = config.params
    model = _model(config, sigma)
    lhs = laplace_transform(model, T)
    out = {}
    for split in splits:
        gap = lt_order_gap(model, split, t_blocks)
        out[split, ""] = verdict_from(
            lhs, lhs - gap, ">=", config.z_threshold,
            statement=STATEMENTS["lt_order"], status="proved",
            detail={"gap": gap, "split": split},
        )
    return out


KINDS = {
    "sandwich": Kind(
        _parse_sandwich,
        lambda c, s, ks, o, **mc: gpi_sandwich(
            _model(c, s), c.params, ks, bounds=_SIDES[c.bound], override_finiteness=o, **mc
        ),
        column=_signed_column,
    ),
    "conj11": Kind(
        lambda raw, spec, alpha, o: _parse_exponents(raw, spec.d, "conj11", 1),
        lambda c, s, ks, o, **mc: _every_split(product_moment_conjecture_check(_model(c, s), c.params, **mc), ks),
        column=_signed_column,
    ),
    "conj36": Kind(
        _parse_conj36,
        lambda c, s, ks, o, **mc: _by_split(tail_probability_conjecture_check(_model(c, s), c.params, ks, **mc)),
    ),
    "opp_lower": _opposite(
        "opp_lower", lambda d: (-1,) + (1,) * (d - 1), "(-1, +1, ..., +1)", lambda: opposite_gpi_lower
    ),
    "opp_upper": _opposite(
        "opp_upper", lambda d: (-1,) * (d - 1) + (1,), "(-1, ..., -1, +1)", lambda: opposite_gpi_upper
    ),
    "bernstein": Kind(
        _parse_bernstein,
        lambda c, s, ks, o, **mc: {(None, ""): bernstein_pair_check(_model(c, s), *c.params, **mc)},
        top=None,
    ),
    # eigen splits the ordered eigenvalues: one split point per coordinate
    "eigen": Kind(
        lambda raw, spec, alpha, o: _parse_exponents(raw, spec.total, "eigen", 1),
        lambda c, s, ks, o, **mc: _by_split(eigen_gpi_check(_model(c, s), c.params.values, ks, **mc)),
        top=lambda spec: spec.total,
        column=_signed_column,
    ),
    "elliptical": Kind(
        _parse_elliptical,
        lambda c, s, ks, o, **mc: {(None, ""): elliptical_gpi_check(np.linalg.cholesky(s), *c.params, **mc)},
        top=None,
        column=lambda params: "|".join(_fmt(a) for a in params[0]),
    ),
    "lt_order": Kind(_parse_lt_order, _run_lt_order),
}

INEQUALITY_IDS = tuple(KINDS)


def parse_config(raw: dict, override_finiteness: bool = False) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig.

    All windows and shape constraints that do not depend on a concrete
    random scale matrix are checked here, before any sampling, and the
    kind's fields become the typed parameters `run` uses. The keyword or
    a document field "override_finiteness": true lifts the finiteness
    refusal; the config records either, and `run` honours it.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")
    ineq = _need(raw, "inequality_id", str, "which inequality to check")
    if ineq not in KINDS:
        raise ConfigError(f"unknown inequality_id {ineq!r}; valid: {', '.join(KINDS)}")
    kind = KINDS[ineq]
    d = _need(raw, "d", int, "number of diagonal blocks")
    sizes = _need(raw, "block_sizes", list, "block sizes")
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in sizes):
        raise ConfigError(f"block_sizes must be a list of integers, got {sizes!r}")
    try:
        spec = BlockSpec(tuple(sizes))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad block_sizes: {err}") from None
    if spec.d != d:
        raise ConfigError(f"block_sizes has {spec.d} blocks, config d={d}")
    alpha = _need(raw, "alpha", float, "degrees of freedom")
    if not alpha > spec.total - 1:
        raise ConfigError(f"alpha must exceed p-1 = {spec.total - 1}, got {alpha}")
    n_samples = _need(raw, "n_samples", int, "Monte Carlo draws per estimate")
    if not 2 <= n_samples <= N_SAMPLES_CAP:
        raise ConfigError(f"n_samples must lie in 2..{N_SAMPLES_CAP}, got {n_samples}")
    seed = _need(raw, "seed", int, "stream seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    z_threshold = _need(raw, "z_threshold", float, "z-score cutoff", 3.0)
    if z_threshold <= 0:
        raise ConfigError("z_threshold must be positive")

    source = _need(raw, "sigma_source", dict, "where scale matrices come from")
    if source.get("kind") == "explicit":
        try:
            mat = np.array(source.get("matrix"), dtype=float)
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"sigma_source.matrix: {err}") from None
        if mat.shape != (spec.total, spec.total):
            raise ConfigError(f"sigma_source.matrix must be {spec.total}x{spec.total}, got {mat.shape}")
        try:
            sym = as_symmetric(mat)
        except ValueError as err:
            raise ConfigError(f"sigma_source.matrix: {err}") from None
        if not is_positive_definite(sym):
            raise ConfigError("sigma_source.matrix is not positive definite")
    elif source.get("kind") == "random":
        count = source.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= COUNT_CAP:
            raise ConfigError(f"sigma_source.random needs an integer 'count' in 1..{COUNT_CAP}")
        if _need(source, "jitter", float, "diagonal jitter", 0.0) < 0:
            raise ConfigError("sigma_source.jitter must be a nonnegative number")
    else:
        raise ConfigError("sigma_source.kind must be 'explicit' or 'random'")

    split = raw.get("split", "all")
    if split != "all":
        if not isinstance(split, int) or isinstance(split, bool):
            raise ConfigError("split must be an integer or 'all'")
        if kind.top is None:
            raise ConfigError(f"{ineq} has no split point; split must be 'all'")
        top = kind.top(spec)
        if not 2 <= split <= top:
            raise ConfigError(f"split must lie in 2..{top}, got {split}")

    override = _need(raw, "override_finiteness", bool, "finiteness override", False) or override_finiteness
    try:
        params, fields = kind.parse(raw, spec, alpha, override)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"bad {ineq} field: {err}") from None

    # Accepted for old documents; chunks always run on the calling thread.
    workers = raw.get("workers")
    if workers is not None and (
        not isinstance(workers, int) or isinstance(workers, bool) or workers < 1
    ):
        raise ConfigError("workers must be a positive integer or null")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string or null")

    return ExperimentConfig(
        inequality_id=ineq,
        d=d,
        block_sizes=spec.sizes,
        alpha=alpha,
        sigma_source=dict(source),
        n_samples=n_samples,
        seed=seed,
        z_threshold=z_threshold,
        split=split,
        bound=raw.get("bound", "lower"),
        output_path=output_path,
        override_finiteness=override,
        params=params,
        **fields,
    )


@dataclass(frozen=True)
class ReportRow:
    """One verdict, flattened for the CSV sheet plus JSON extras."""

    experiment_id: str
    inequality_id: str
    statement: str
    d: int
    alpha: float
    block_sizes: tuple[int, ...]
    sigma_digest: str
    exponents: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    z: float
    verdict: str
    n: int
    seed: int
    status: str
    wall_time_ms: float = 0.0
    sigma: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def csv_values(self) -> list[str]:
        return [
            self.experiment_id,
            self.inequality_id,
            self.statement,
            str(self.d),
            _fmt(self.alpha),
            "|".join(str(s) for s in self.block_sizes),
            self.sigma_digest,
            self.exponents,
            _fmt(self.lhs),
            _fmt(self.lhs_se),
            _fmt(self.rhs),
            _fmt(self.rhs_se),
            _fmt(self.z),
            self.verdict,
            str(self.n),
            str(self.seed),
            self.status,
        ]

    def to_json_dict(self) -> dict:
        out = {k: getattr(self, k) for k in CSV_COLUMNS}
        out["block_sizes"] = list(self.block_sizes)
        if out["z"] in (inf, -inf):  # keep the document strict-JSON parseable
            out["z"] = repr(out["z"])
        out["wall_time_ms"] = self.wall_time_ms
        out["sigma"] = self.sigma
        out["detail"] = self.detail
        return out


def sigma_digest(sigma: np.ndarray) -> str:
    """Stable 12-hex-digit digest of the row-major float64 bytes."""
    buf = np.ascontiguousarray(sigma, dtype=float).tobytes()
    return hashlib.sha256(buf).hexdigest()[:12]


def _sigma_instances(config: ExperimentConfig, spec: BlockSpec):
    source = config.sigma_source
    if source["kind"] == "explicit":
        yield 0, as_symmetric(np.array(source["matrix"], dtype=float))
        return
    jitter = float(source.get("jitter", 1e-6))
    for i in range(int(source["count"])):
        yield i, random_correlation(
            spec.total, RngStream(config.seed, _SIGMA_STREAM_BASE + i), jitter=jitter
        )


def _detail_scrub(obj):
    if isinstance(obj, dict):
        return {k: _detail_scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_detail_scrub(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj == inf or obj == -inf):
        return repr(obj)
    return obj


def run(config: ExperimentConfig, override_finiteness: bool = False) -> list[ReportRow]:
    """Execute one sweep: one row per (scale instance x split).

    The sandwich emits one row per configured bound side ('both' gives
    two). Each scale instance runs its kind once for all its splits:
    instance i draws from streams (seed, i*ROLE_STRIDE + j), the j-th
    estimator its check starts (a pilot, the shared estimator, a rerun),
    so outputs are a function of (config, seed) only. Every estimator
    runs its chunks in order on the calling thread.
    """
    spec = BlockSpec(config.block_sizes)
    kind = KINDS[config.inequality_id]
    override = override_finiteness or config.override_finiteness
    exponents = kind.column(config.params)
    if kind.top is None:
        splits = [None]
    elif config.split == "all":
        splits = range(2, kind.top(spec) + 1)
    else:
        splits = [config.split]

    rows: list[ReportRow] = []
    if not splits:
        return rows
    for sigma_idx, sigma in _sigma_instances(config, spec):
        digest = sigma_digest(sigma)
        sigma_list = sigma.tolist()
        started = time.perf_counter()
        verdicts = kind.run(
            config, sigma, list(splits), override,
            n=config.n_samples, rng=StreamPlan(config.seed, base=sigma_idx * ROLE_STRIDE),
            z_threshold=config.z_threshold,
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        for (split, suffix), verdict in verdicts.items():
            tag = f"{config.inequality_id}-s{sigma_idx:02d}"
            if split is not None:
                tag += f"-k{split}"
            if suffix:
                tag += f"-{suffix}"
            if verdict.statement != STATEMENTS[config.inequality_id]:
                raise RuntimeError(
                    f"statement mismatch for {config.inequality_id}: {verdict.statement!r}"
                )
            rows.append(
                ReportRow(
                    experiment_id=tag,
                    inequality_id=config.inequality_id,
                    statement=verdict.statement,
                    d=config.d,
                    alpha=config.alpha,
                    block_sizes=config.block_sizes,
                    sigma_digest=digest,
                    exponents=exponents,
                    lhs=verdict.lhs,
                    lhs_se=verdict.lhs_se,
                    rhs=verdict.rhs,
                    rhs_se=verdict.rhs_se,
                    z=verdict.z,
                    verdict=verdict.verdict,
                    n=verdict.n,
                    seed=config.seed,
                    status=verdict.status,
                    wall_time_ms=elapsed_ms,
                    sigma=sigma_list,
                    detail=_detail_scrub(verdict.detail),
                )
            )
    return rows


def render_csv(rows: list[ReportRow]) -> str:
    """Fixed-column CSV, UTF-8, LF endings, header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_values())
    return buf.getvalue()


def report_paths(config: ExperimentConfig) -> tuple[str, str]:
    base = config.output_path or f"{config.inequality_id}-{config.seed}"
    for suffix in (".csv", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    if not os.path.isabs(base):
        base = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), base)
    return base + ".csv", base + ".json"


def write_reports(config: ExperimentConfig, rows: list[ReportRow]) -> tuple[str, str]:
    """Write the CSV sheet and the self-contained JSON report."""
    csv_path, json_path = report_paths(config)
    os.makedirs(os.path.dirname(csv_path) or ".", exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(rows))
    document = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "rows": [r.to_json_dict() for r in rows],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, default=_json_default)
        fh.write("\n")
    return csv_path, json_path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def exit_code_for(rows: list[ReportRow]) -> int:
    """0 normally, 2 when a proved inequality came back Violated.

    Every Violated row has already been confirmed by its 10x rerun on
    fresh streams, so exit 2 takes two independent Violated passes.
    """
    bad = any(r.verdict == "Violated" and r.status == "proved" for r in rows)
    return 2 if bad else 0


# --- verification suites ----------------------------------------------------


def _suite_oracles(log) -> list[tuple[str, bool, str]]:
    from .bounds import (
        bound_integral_beta_1d,
        integral_quadrature_1d,
        lyapunov_operator_determinant,
        matrix_square_jacobian,
        minor_bound_integral,
    )
    from .special import partitions_of, zonal_polynomial

    results = []
    gen = RngStream(20240915).generator()

    worst = 0.0
    for _ in range(50):
        alpha = float(gen.uniform(2.5, 14.0))
        nu = float(gen.uniform(0.05, 0.45)) * alpha  # inside (0, alpha/2)
        m = float(gen.uniform(0.3, 3.0))
        closed = bound_integral_beta_1d(m, alpha, nu)
        series = minor_bound_integral(np.array([[m]]), alpha, nu)
        quad = integral_quadrature_1d(m, alpha, nu)
        worst = max(
            worst,
            abs(series - closed) / closed,
            abs(quad - closed) / closed,
        )
    ok = worst < 1e-6
    results.append(("scalar bound integral: series == Beta == quadrature", ok, f"worst rel {worst:.2e}"))

    worst = 0.0
    for p in (1, 2, 3, 4):
        for _ in range(100):
            G = gen.standard_normal((p, p + 2))
            X = G @ G.T + 0.1 * np.eye(p)
            a = matrix_square_jacobian(X)
            b = lyapunov_operator_determinant(X)
            worst = max(worst, abs(a - b) / abs(b))
    ok = worst < 1e-8
    results.append(("matrix-square Jacobian == Lyapunov determinant", ok, f"worst rel {worst:.2e}"))

    worst = 0.0
    for p in (2, 3, 4):
        for k in range(1, 7):
            lam = gen.uniform(0.5, 2.0, size=p)
            total = sum(zonal_polynomial(kappa, lam) for kappa in partitions_of(k, p))
            target = lam.sum() ** k
            worst = max(worst, abs(total - target) / target)
    ok = worst < 1e-8
    results.append(("zonal normalization sum == (trace)^k", ok, f"worst rel {worst:.2e}"))

    results.append(_pair_moment_oracle(gen))

    for name, ok_flag, detail in results:
        log(f"{'PASS' if ok_flag else 'FAIL'}  {name}  [{detail}]")
    return results


def _pair_moment_oracle(gen) -> tuple[str, bool, str]:
    # The two-block moment against scipy's 2F1 times the closed-form
    # marginals: exponents of both signs, integer h (a terminating
    # series), both orders of a 1x1 block, and rho^2 = 0.
    from scipy.special import hyp2f1

    worst = 0.0
    for sizes in ((1, 1), (1, 2), (2, 1), (1, 3)):
        spec = BlockSpec(sizes)
        for case in range(8):
            alpha = float(gen.uniform(spec.total + 3.0, spec.total + 9.0))
            sigma = random_correlation(spec.total, RngStream(20240916, 10 * spec.total + case))
            if case == 0:  # block-diagonal: rho^2 = 0
                sigma = direct_sum(*(np.eye(p) for p in sizes))
            model = WishartModel(alpha, sigma, spec)
            # inverted powers keep a margin inside the finite window
            his = [0.5 * (alpha - p + 1) - 0.6 for p in sizes]
            h = 2.0 if case == 1 else float(gen.uniform(-his[0], 2.5))
            k = float(gen.uniform(-his[1], 2.5))
            s, o = (spec.range(0), spec.range(1)) if sizes[0] == 1 else (spec.range(1), spec.range(0))
            cross = sigma[o, s][:, 0]
            rho2 = float(cross @ np.linalg.solve(sigma[o, o], cross) / sigma[s, s][0, 0])
            want = minor_moment(model, 0, h) * minor_moment(model, 1, k) * hyp2f1(-h, -k, alpha / 2.0, rho2)
            worst = max(worst, abs(pair_moment(model, 0, 1, h, k) / want - 1.0))
    return ("two-block moment == marginals x scipy 2F1", worst < 1e-12, f"worst rel {worst:.2e}")


def _mini_run(ineq: str, seed: int, **overrides) -> list[ReportRow]:
    base = {
        "schema_version": SCHEMA_VERSION,
        "inequality_id": ineq,
        "seed": seed,
        "n_samples": 20000,
        "z_threshold": 3.0,
        "split": "all",
    }
    base.update(overrides)
    return run(parse_config(base))


def _suite_proved(log) -> list[tuple[str, bool, str]]:
    cases = [
        (
            "Laplace-transform split ordering",
            dict(
                ineq="lt_order", d=2, block_sizes=[1, 1], alpha=3.0,
                sigma_source={"kind": "explicit", "matrix": [[1.0, 0.6], [0.6, 1.0]]},
                t_blocks=[[[0.5]], [[0.5]]],
            ),
        ),
        (
            "inverse-minor sandwich, both sides",
            dict(
                ineq="sandwich", d=3, block_sizes=[1, 1, 1], alpha=5.0,
                sigma_source={"kind": "random", "count": 4},
                exponents={"values": [0.4, 0.4, 0.4], "signs": [-1, -1, -1]},
                bound="both",
            ),
        ),
        (
            "product-moment split at d=2",
            dict(
                ineq="conj11", d=2, block_sizes=[2, 2], alpha=6.0,
                sigma_source={"kind": "random", "count": 4},
                exponents={"values": [0.7, 1.3], "signs": [1, 1]},
            ),
        ),
        (
            "tail-probability split with scalar blocks",
            dict(
                ineq="conj36", d=2, block_sizes=[1, 1], alpha=4.0,
                sigma_source={"kind": "random", "count": 4},
            ),
        ),
        (
            "one-inverted-minor lower bound at d=2",
            dict(
                ineq="opp_lower", d=2, block_sizes=[2, 2], alpha=6.0,
                sigma_source={"kind": "random", "count": 4},
                exponents={"values": [0.7, 1.3], "signs": [-1, 1]},
            ),
        ),
        (
            "inverted-vs-upright upper bound",
            dict(
                ineq="opp_upper", d=2, block_sizes=[1, 1], alpha=5.0,
                sigma_source={"kind": "random", "count": 4},
                exponents={"values": [0.4, 1.0], "signs": [-1, 1]},
            ),
        ),
        (
            "Bernstein functional pairs",
            dict(
                ineq="bernstein", d=2, block_sizes=[1, 1], alpha=3.0,
                sigma_source={"kind": "explicit", "matrix": [[1.0, 0.6], [0.6, 1.0]]},
                bernstein={
                    "f": {"trace_offset": [[0.0]], "atoms": [[1.0, [[1.0]]]]},
                    "g": {"trace_offset": [[0.0]], "atoms": [[1.0, [[1.0]]]]},
                },
            ),
        ),
        (
            "ordered-eigenvalue split",
            dict(
                ineq="eigen", d=1, block_sizes=[2], alpha=4.0,
                sigma_source={"kind": "random", "count": 4},
                exponents={"values": [1.0, 1.0], "signs": [1, 1]},
            ),
        ),
        (
            "sphere-product ratio, Gaussian radial d=2",
            dict(
                ineq="elliptical", d=2, block_sizes=[1, 1], alpha=3.0,
                sigma_source={"kind": "explicit", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
                elliptical={"alphas": [1.0, 1.0], "radial": {"kind": "chisq"}},
            ),
        ),
    ]
    results = []
    for idx, (name, kw) in enumerate(cases):
        ineq = kw.pop("ineq")
        rows = _mini_run(ineq, 90000 + idx, **kw)
        violated = [r for r in rows if r.verdict == "Violated"]
        ok = not violated
        detail = f"{len(rows)} rows"
        if violated:
            detail += f"; violated: {violated[0].experiment_id} z={violated[0].z:.2f}"
        results.append((name, ok, detail))
        log(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    return results


def _suite_conjectures(log) -> tuple[list[tuple[str, bool, str]], bool]:
    cases = [
        (
            "product-moment split, three blocks (open)",
            dict(
                ineq="conj11", d=3, block_sizes=[1, 2, 1], alpha=6.0,
                sigma_source={"kind": "random", "count": 3},
                exponents={"values": [0.7, 1.1, 0.5], "signs": [1, 1, 1]},
            ),
        ),
        (
            "tail-probability split, matrix blocks (open)",
            dict(
                ineq="conj36", d=2, block_sizes=[2, 2], alpha=6.0,
                sigma_source={"kind": "random", "count": 3},
            ),
        ),
        (
            "one-inverted-minor lower bound, three blocks (conditional)",
            dict(
                ineq="opp_lower", d=3, block_sizes=[1, 1, 1], alpha=5.0,
                sigma_source={"kind": "random", "count": 3},
                exponents={"values": [0.4, 0.8, 0.8], "signs": [-1, 1, 1]},
            ),
        ),
        (
            "sphere-product ratio, Gaussian radial d=3 (open)",
            dict(
                ineq="elliptical", d=3, block_sizes=[1, 1, 1], alpha=4.0,
                sigma_source={"kind": "random", "count": 3},
                elliptical={"alphas": [1.0, 1.0, 1.0], "radial": {"kind": "chisq"}},
            ),
        ),
        (
            "sphere-product ratio, spread lognormal radial (open)",
            dict(
                ineq="elliptical", d=3, block_sizes=[1, 1, 1], alpha=4.0,
                sigma_source={"kind": "random", "count": 3},
                elliptical={
                    "alphas": [0.5, 0.5, 0.5],
                    "radial": {"kind": "lognormal", "mu": 0.0, "sigma": 1.2},
                },
            ),
        ),
    ]
    results = []
    confirmed = False
    for idx, (name, kw) in enumerate(cases):
        ineq = kw.pop("ineq")
        rows = _mini_run(ineq, 77000 + idx, **kw)
        counts = {}
        for r in rows:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        confirmed_here = [
            r for r in rows if r.verdict == "Violated" and "candidate_rerun" in r.detail
        ]
        confirmed = confirmed or bool(confirmed_here)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        results.append((name, True, detail))
        log(f"INFO  {name}  [{detail}]")
        for r in confirmed_here:
            log(f"      confirmed violation: {r.experiment_id} z={r.z:.2f}")
    return results, confirmed


def verify_suite(suite_name: str, log=print) -> int:
    """Run a named bundle and return the process exit code.

    'proved' re-checks inequalities with known proofs and fails on any
    Violated row; 'conjectures' explores open statements and only exits
    nonzero (2) on a violation confirmed by the 10x re-run; 'oracles'
    cross-validates the closed forms against independent numerics.
    """
    if suite_name == "oracles":
        results = _suite_oracles(log)
        return 0 if all(ok for _, ok, _ in results) else 1
    if suite_name == "proved":
        results = _suite_proved(log)
        return 0 if all(ok for _, ok, _ in results) else 1
    if suite_name == "conjectures":
        _, confirmed = _suite_conjectures(log)
        return 2 if confirmed else 0
    raise ConfigError(f"unknown suite {suite_name!r}; valid: proved, conjectures, oracles")
