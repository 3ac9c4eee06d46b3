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
from dataclasses import asdict, dataclass, field, fields, replace
from math import inf
from typing import Callable

import numpy as np

from .bounds import integral_window
from .errors import ConfigError
from .linalg import BlockSpec, as_real, as_symmetric, direct_sum, is_nonnegative_definite, is_positive_definite
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
# Cap on the total dimension p = sum(block_sizes). A chunk draws its
# CHUNK_DRAWS * p(p-1)/2 normals at once, 260 MB at p = 32.
P_CAP = 32

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


# --- config fields ----------------------------------------------------------
# Each field a config sets is a table row: its reader, default and admitted
# values; `CONFIG_FIELDS` holds the top level, `Kind.fields` each kind's own.
# Keys no table names are ignored, so older schema-1 documents still parse.


@dataclass(frozen=True)
class _Field:
    read: Callable[[object, str], object]  # (JSON value, field path) -> parsed value
    default: object = ...  # ...: the field is required
    admits: Callable[[object], bool] = lambda val: True
    want: str = ""


def _fields(obj, table: dict, where: str = "") -> dict:
    """The parsed value of every field of `table` in the JSON object `obj`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    out = {}
    for name, f in table.items():
        path = where + name
        if name not in obj and f.default is ...:
            raise ConfigError(f"missing field {path!r}")
        out[name] = f.read(obj[name], path) if name in obj else f.default
        if name in obj and not f.admits(out[name]):
            raise ConfigError(f"{path} must be {f.want}, got {obj[name]!r}")
    return out


def _typed(kind, name: str):
    # A JSON value of one type, as it is; true is no integer here.
    def read(val, where):
        if isinstance(val, kind) and (kind is bool or not isinstance(val, bool)):
            return val
        raise ConfigError(f"{where} must be {name}, got {val!r}")

    return read


_int = _typed(int, "an integer")
_list = _typed(list, "a list")


def _list_of(read):
    return lambda val, where: [read(x, f"{where}[{i}]") for i, x in enumerate(_list(val, where))]


def _object(table: dict):
    return lambda val, where: _fields(val, table, f"{where}.")


def _one_of(names):
    def read(val, where):
        if isinstance(val, str) and val in names:
            return val
        raise ConfigError(f"unknown {where} {val!r}; valid: {', '.join(names)}")

    return read


def _matrix(val, where: str) -> list:
    """A square JSON matrix of finite numbers, symmetrised, as nested lists."""
    rows = _list_of(_list_of(as_real))(val, where)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"{where} must be a square matrix")
    try:
        return as_symmetric(rows).tolist()
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


@dataclass(frozen=True)
class Kind:
    """How the harness parses, splits, runs and labels one inequality kind.

    ``parse(f, spec, alpha, override)`` checks the rules that tie the
    kind's fields `f`, as read by its table ``fields``, to each other and
    to the model shape, and returns ``(params, echo)``: the typed
    parameters ``run`` reads from ``config.params`` and the config fields
    echoed to JSON.
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
    fields: dict
    top: Callable[[BlockSpec], int] | None = lambda spec: spec.d
    column: Callable[[object], str] = lambda params: ""


_EXPONENTS = {
    "exponents": _Field(_object({
        "values": _Field(_list_of(as_real)),
        "signs": _Field(_list_of(as_real), admits=lambda signs: all(s in (-1, 1) for s in signs),
                        want="a list of signs -1 or +1"),
    })),
}


def _exponents(f: dict, n: int, ineq: str, sign: int | None = None):
    exps = ExponentVector(tuple(f["exponents"]["values"]), tuple(f["exponents"]["signs"]))
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


def _parse_sandwich(f, spec, alpha, override):
    exps, echo = _exponents(f, spec.d, "sandwich", -1)
    _require_finite(exps, spec, alpha, override)
    if "upper" in _SIDES[f["bound"]]:
        for i, p_i in enumerate(spec.sizes):
            lo, hi, _rule = integral_window(p_i, alpha)
            if not lo < exps.values[i] < hi:
                raise ConfigError(
                    f"upper bound needs nu_{i + 1} strictly inside ({lo}, {hi}) "
                    f"for block size {p_i}, got {exps.values[i]}"
                )
    return exps, {**echo, "bound": f["bound"]}


def _parse_conj36(f, spec, alpha, override):
    thresholds = f["thresholds"]
    if thresholds is not None and len(thresholds) != spec.d:
        raise ConfigError(f"thresholds must list {spec.d} positive numbers, or be null")
    return thresholds and tuple(thresholds), {"thresholds": thresholds}


def _opposite(ineq: str, want: Callable[[int], tuple], pattern: str, check: Callable) -> Kind:
    # Positive magnitudes with fixed signs; check() fetches the check when a row runs.
    def parse(f, spec, alpha, override):
        exps, echo = _exponents(f, spec.d, ineq)
        if exps.signs != want(spec.d) or any(v <= 0 for v in exps.values):
            raise ConfigError(f"{ineq} needs positive magnitudes with signs {pattern}")
        _require_finite(exps, spec, alpha, override)
        return exps, echo

    def run_instance(c, s, splits, o, **mc):
        return _every_split(check()(_model(c, s), c.params.values, override_finiteness=o, **mc), splits)

    return Kind(parse, run_instance, _EXPONENTS, column=_signed_column)


def _atom(val, where):
    pair = _list(val, where)
    if len(pair) != 2:
        raise ConfigError(f"{where} must be a pair [weight, site matrix]")
    return pair[0], _matrix(pair[1], f"{where}[1]")


_FUNCTIONAL = {"trace_offset": _Field(_matrix, None), "atoms": _Field(_list_of(_atom), [])}


def _parse_bernstein(f, spec, alpha, override):
    if spec.d != 2:
        raise ConfigError("bernstein needs exactly two blocks")
    pair = []
    for which, p in zip("fg", spec.sizes):
        offset, atoms = (f["bernstein"][which][k] for k in _FUNCTIONAL)
        pair.append(BernsteinSpec(np.zeros((p, p)) if offset is None else offset, tuple(atoms)))
        if pair[-1].dim != p:
            raise ConfigError(f"bernstein.{which} has dimension {pair[-1].dim}, block needs {p}")
    echo = {w: {"trace_offset": b.trace_offset.tolist(), "atoms": [[c, S.tolist()] for c, S in b.atoms]}
            for w, b in zip("fg", pair)}
    return tuple(pair), {"bernstein": echo}


def _radial(val, where):
    # RadialSpec reads and checks its own fields; only `kind` has no default.
    raw = _typed(dict, "a JSON object")(val, where)
    if "kind" not in raw:
        raise ConfigError(f"missing field '{where}.kind'")
    return RadialSpec(**{k.name: raw[k.name] for k in fields(RadialSpec) if k.name in raw})


def _parse_elliptical(f, spec, alpha, override):
    alphas, radial = f["elliptical"]["alphas"], f["elliptical"]["radial"]
    if len(alphas) != spec.total:
        raise ConfigError(f"elliptical.alphas must list {spec.total} exponents")
    return (tuple(alphas), radial), {"elliptical": {"alphas": alphas, "radial": asdict(radial)}}


def _parse_lt_order(f, spec, alpha, override):
    t_blocks = f["t_blocks"]
    if [len(t) for t in t_blocks] != list(spec.sizes):
        raise ConfigError(f"t_blocks must hold one matrix per block, of sizes {list(spec.sizes)}")
    return (t_blocks, direct_sum(*t_blocks)), {"t_blocks": t_blocks}


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
        {**_EXPONENTS, "bound": _Field(_one_of(_SIDES), "lower")},
        column=_signed_column,
    ),
    "conj11": Kind(
        lambda f, spec, alpha, o: _exponents(f, spec.d, "conj11", 1),
        lambda c, s, ks, o, **mc: _every_split(product_moment_conjecture_check(_model(c, s), c.params, **mc), ks),
        _EXPONENTS,
        column=_signed_column,
    ),
    "conj36": Kind(
        _parse_conj36,
        lambda c, s, ks, o, **mc: _by_split(tail_probability_conjecture_check(_model(c, s), c.params, ks, **mc)),
        {"thresholds": _Field(lambda val, where: None if val is None else _list_of(as_real)(val, where), None,
                              lambda ts: ts is None or all(t > 0 for t in ts), "a list of positive numbers or null")},
    ),
    "opp_lower": _opposite(
        "opp_lower", lambda d: (-1,) + (1,) * (d - 1), "(-1, +1, ..., +1)", lambda: opposite_gpi_lower
    ),
    "opp_upper": _opposite(
        "opp_upper", lambda d: (-1,) * (d - 1) + (1,), "(-1, ..., -1, +1)", lambda: opposite_gpi_upper
    ),
    "bernstein": Kind(
        _parse_bernstein,
        # exact: the check takes no draws and no stream
        lambda c, s, ks, o, **mc: {(None, ""): bernstein_pair_check(_model(c, s), *c.params, c.z_threshold)},
        {"bernstein": _Field(_object({"f": _Field(_object(_FUNCTIONAL)), "g": _Field(_object(_FUNCTIONAL))}))},
        top=None,
    ),
    # eigen splits the ordered eigenvalues: one split point per coordinate
    "eigen": Kind(
        lambda f, spec, alpha, o: _exponents(f, spec.total, "eigen", 1),
        lambda c, s, ks, o, **mc: _by_split(eigen_gpi_check(_model(c, s), c.params.values, ks, **mc)),
        _EXPONENTS,
        top=lambda spec: spec.total,
        column=_signed_column,
    ),
    "elliptical": Kind(
        _parse_elliptical,
        lambda c, s, ks, o, **mc: {(None, ""): elliptical_gpi_check(np.linalg.cholesky(s), *c.params, **mc)},
        {"elliptical": _Field(_object({
            "alphas": _Field(_list_of(as_real), admits=lambda a: min(a, default=0) >= 0, want="a list of numbers >= 0"),
            "radial": _Field(_radial, RadialSpec("chisq")),
        }))},
        top=None,
        column=lambda params: "|".join(_fmt(a) for a in params[0]),
    ),
    "lt_order": Kind(
        _parse_lt_order,
        _run_lt_order,
        {"t_blocks": _Field(_list_of(_matrix), admits=lambda ts: all(map(is_nonnegative_definite, ts)),
                            want="a list of nonnegative definite matrices")},
    ),
}

INEQUALITY_IDS = tuple(KINDS)

_SOURCES = {
    # a lambda, so that a tracer's wrapper of this module's is_positive_definite sees the call
    "explicit": {"matrix": _Field(_matrix, admits=lambda m: is_positive_definite(m), want="positive definite")},
    "random": {
        "count": _Field(_int, admits=lambda n: 1 <= n <= COUNT_CAP, want=f"an integer in 1..{COUNT_CAP}"),
        "jitter": _Field(as_real, 1e-6, lambda j: j >= 0, "a nonnegative number"),
    },
}


def _source(val, where):
    kind = _fields(val, {"kind": _Field(_one_of(_SOURCES))}, f"{where}.")["kind"]
    return {"kind": kind, **_fields(val, _SOURCES[kind], f"{where}.")}


CONFIG_FIELDS = {
    "schema_version": _Field(_int, SCHEMA_VERSION, lambda v: v == SCHEMA_VERSION, f"{SCHEMA_VERSION}"),
    "inequality_id": _Field(_one_of(KINDS)),
    "d": _Field(_int, admits=lambda d: d >= 1, want="a positive integer"),
    "block_sizes": _Field(
        _list_of(_int),
        admits=lambda s: s and min(s) >= 1 and sum(s) <= P_CAP,
        want=f"a list of positive integers summing to at most {P_CAP}",
    ),
    "alpha": _Field(as_real),
    "sigma_source": _Field(_source),
    "n_samples": _Field(_int, admits=lambda n: 2 <= n <= N_SAMPLES_CAP, want=f"an integer in 2..{N_SAMPLES_CAP}"),
    "seed": _Field(_int, admits=lambda seed: 0 <= seed < 2**64, want="an integer in 0..2**64-1"),
    "z_threshold": _Field(as_real, 3.0, lambda z: z > 0, "a positive number"),
    "split": _Field(lambda val, where: val if val == "all" else _typed(int, "an integer or 'all'")(val, where), "all"),
    "output_path": _Field(_typed((str, type(None)), "a string or null"), None),
    "override_finiteness": _Field(_typed(bool, "true or false"), False),
}


def parse_config(raw: dict, override_finiteness: bool = False) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig.

    Every field is read through its table row, and all windows and shape
    constraints that do not depend on a concrete random scale matrix are
    checked here, before any sampling. The kind's fields become the typed
    parameters `run` uses; the config echoes the parsed values. The keyword
    or a document field "override_finiteness": true lifts the finiteness
    refusal; the config records either, and `run` honours it.
    """
    try:
        c = _fields(raw, CONFIG_FIELDS)
        ineq, spec = c["inequality_id"], BlockSpec(tuple(c["block_sizes"]))
        kind = KINDS[ineq]
        if spec.d != c["d"]:
            raise ConfigError(f"block_sizes has {spec.d} blocks, config d={c['d']}")
        if not c["alpha"] > spec.total - 1:
            raise ConfigError(f"alpha must exceed p-1 = {spec.total - 1}, got {c['alpha']}")
        matrix = c["sigma_source"].get("matrix")
        if matrix is not None and len(matrix) != spec.total:
            raise ConfigError(f"sigma_source.matrix must be {spec.total}x{spec.total}, got {len(matrix)}x{len(matrix)}")
        top = kind.top and kind.top(spec)
        if top is not None and top < 2:
            raise ConfigError(f"{ineq} needs a split range 2..n with n >= 2 (d, or p for eigen), got n = {top}")
        if c["split"] != "all" and not (top and 2 <= c["split"] <= top):
            raise ConfigError(f"split must lie in 2..{top}, got {c['split']}" if top else
                              f"{ineq} has no split point; split must be 'all'")
        c["block_sizes"] = spec.sizes
        c["override_finiteness"] = c["override_finiteness"] or override_finiteness
        params, echo = kind.parse(_fields(raw, kind.fields), spec, c["alpha"], c["override_finiteness"])
    except ValueError as err:  # a reader or a spec constructor refused a value
        raise ConfigError(str(err)) from None
    return ExperimentConfig(**c, **echo, params=params)


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
    for i in range(source["count"]):
        yield i, random_correlation(
            spec.total, RngStream(config.seed, _SIGMA_STREAM_BASE + i), jitter=source["jitter"]
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
    results.append(_two_by_two_pair_oracle(gen))

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


def _two_by_two_pair_oracle(gen) -> tuple[str, bool, str]:
    # The two-block moment with a 2x2 block against the zonal tables summed
    # to weight 12 with the generalized Pochhammer symbols, times the
    # closed-form marginals. Sigma carries squared canonical correlations
    # x1, x2 <= 0.025 behind a random block-diagonal congruence, so the
    # terms past weight 12 are below 1e-15 of the sum; one case per shape
    # has x2 = 0 and one an integer h.
    from math import factorial, prod

    from .special import partitions_of, zonal_polynomial

    def poch(a, kappa):
        return prod(a - 0.5 * j + i for j, part in enumerate(kappa) for i in range(part))

    cases = []
    for sizes in ((2, 2), (2, 3), (3, 2)):
        spec = BlockSpec(sizes)
        for case in range(6):
            alpha = float(gen.uniform(spec.total + 3.0, spec.total + 9.0))
            x = np.sort(gen.uniform(0.0, 0.025, size=2))[::-1] * (1.0, case != 0)
            core = np.eye(spec.total)
            r0, r1 = spec.range(0), spec.range(1)
            core[r0, r1][[0, 1], [0, 1]] = np.sqrt(x)
            core[r1, r0] = core[r0, r1].T
            D = direct_sum(*(np.tril(gen.uniform(-0.5, 0.5, (p, p)), -1) + np.diag(gen.uniform(0.7, 1.4, p))
                             for p in sizes))
            his = [0.5 * (alpha - p + 1) - 0.6 for p in sizes]
            h = 2.0 if case == 1 else float(gen.uniform(-his[0], 2.5))
            k = float(gen.uniform(-his[1], 2.5))
            cases.append((WishartModel(alpha, D @ core @ D.T, spec), h, k, x))
    kappas = [kappa for w in range(1, 13) for kappa in partitions_of(w, max_parts=2)]
    zonal = {kappa: zonal_polynomial(kappa, np.array([x for *_, x in cases])) for kappa in kappas}
    worst = 0.0
    for i, (model, h, k, _) in enumerate(cases):
        c = model.alpha / 2.0
        series = 1.0 + sum(
            poch(-h, kappa) * poch(-k, kappa) / (poch(c, kappa) * factorial(sum(kappa))) * zonal[kappa][i]
            for kappa in kappas
        )
        want = minor_moment(model, 0, h) * minor_moment(model, 1, k) * series
        worst = max(worst, abs(pair_moment(model, 0, 1, h, k) / want - 1.0))
    return ("two-block moment, 2x2 block == marginals x zonal tables", worst < 1e-12, f"worst rel {worst:.2e}")


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
