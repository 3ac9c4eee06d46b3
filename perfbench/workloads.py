"""Seeded workload generator for the wishartgpi benchmark.

Each workload is a list of ``wishart-gpi run`` configs built from the
benchmark seed alone. Only the scale matrices depend on the seed; shapes,
exponents and draw counts are fixed per workload, so every seed asks the
program for the same amount of work. Scale matrices reach the program as
``sigma_source.kind = "explicit"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The program folds Monte Carlo draws in chunks of this many draws; the
# determinism gate needs a config spanning at least two of them.
CHUNK_DRAWS = 65536

WHY = {
    "mc-split": "MC-heavy split sandwich: Bartlett sampling and block logdets in 4-chunk estimators; bypasses eigen and zonal",
    "eigen-split": "same estimator and sampling layers with an eigvalsh functional: an eigen kernel must move it, a logdet kernel must not",
    "bound-series": "sandwich upper side on 5x5 blocks: dominated by the closed-form zonal series, so Monte Carlo work should leave it unchanged",
    "mixed-kinds": "all nine inequality kinds and the 10x rerun path in sub-chunk estimators, where per-call fixed costs weigh most",
}
NAMES = tuple(WHY)

# Configs per iteration: short iterations give each run many samples.
CONFIGS = {"mc-split": 1, "eigen-split": 1, "bound-series": 2}

# Draw count of the priming pass that set-up time includes.
PRIME_DRAWS = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    configs: list[dict]
    rows: list[int]  # expected report rows per config
    prime: dict  # the priming pass that set-up time includes

    def gate_config(self) -> dict:
        """The priming config at one split, widened to just over two chunks."""
        return dict(self.prime, n_samples=2 * CHUNK_DRAWS + 1, split=2, output_path="gate")

    def files(self) -> dict[str, str]:
        """Config documents by file name, as byte-stable JSON text.

        A config named ``x.json`` writes its reports to ``x.csv`` and
        ``x.json`` under the program's output directory.
        """
        docs = self.configs + [self.gate_config(), self.prime]
        return {f"{c['output_path']}.json": _dump(c) for c in docs}


def _prime(cfg: dict) -> dict:
    """`cfg` at PRIME_DRAWS draws, written as the priming pass."""
    return dict(cfg, n_samples=PRIME_DRAWS, output_path="prime")


def _dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=1, sort_keys=True) + "\n"


def scale_matrix(rng: np.random.Generator, p: int, loadings=(0.5, 0.8)) -> list[list[float]]:
    """One-factor scale matrix D R D with loadings of magnitude in `loadings`.

    With the default loadings every pair of coordinates is coupled by at
    least 0.25 in correlation, so proved statements hold by a wide
    margin, and the idiosyncratic share of at least 0.36 keeps the matrix
    well conditioned.
    """
    loading = rng.uniform(*loadings, size=p) * rng.choice((-1.0, 1.0), size=p)
    corr = np.outer(loading, loading)
    np.fill_diagonal(corr, 1.0)
    scale = np.sqrt(rng.uniform(0.5, 2.0, size=p))
    sigma = scale[:, None] * corr * scale[None, :]
    return ((sigma + sigma.T) / 2.0).tolist()


def _base(rng, ineq: str, sizes, alpha: float, n: int, name: str, loadings=(0.5, 0.8), **extra) -> dict:
    cfg = {
        "schema_version": 1,
        "inequality_id": ineq,
        "d": len(sizes),
        "block_sizes": list(sizes),
        "alpha": float(alpha),
        "sigma_source": {"kind": "explicit", "matrix": scale_matrix(rng, sum(sizes), loadings)},
        "n_samples": int(n),
        "seed": int(rng.integers(0, 2**32)),
        "split": "all",
        "output_path": name,
    }
    cfg.update(extra)
    return cfg


def _exps(values, signs) -> dict:
    return {"values": [float(v) for v in values], "signs": list(signs)}


def _mc_split(rng):
    configs = [
        _base(rng, "sandwich", (2, 1, 2), 10.0, 200_000, f"mc{i}",
              exponents=_exps((0.7, 0.4, 0.7), (-1, -1, -1)), bound="both")
        for i in range(CONFIGS["mc-split"])
    ]
    return configs, [4] * len(configs), _prime(configs[0])  # splits k=2,3 x both sides


def _eigen_split(rng):
    configs = [
        _base(rng, "eigen", (3,), 8.0, 200_000, f"eig{i}",
              exponents=_exps((1.2, 0.8, 1.5), (1, 1, 1)))
        for i in range(CONFIGS["eigen-split"])
    ]
    return configs, [2] * len(configs), _prime(configs[0])  # splits k=2,3


def _bound_series(rng):
    # nu must exceed (p-1)/2 = 2 for the integral bound on 5x5 blocks. At
    # alpha=160 even the fourth moment of the estimand is finite (4 nu <
    # alpha/2 - 2), so its sample variance, and with it variance_time,
    # repeats from seed to seed; at alpha=24 it does not.
    configs = [
        _base(rng, "sandwich", (5, 5), 160.0, 20_000, f"bnd{i}",
              exponents=_exps((2.2, 2.2), (-1, -1)), bound="upper")
        for i in range(CONFIGS["bound-series"])
    ]
    # The priming pass builds the lazy p=5 zonal expansion but evaluates
    # the series once, for a 5x5 and a 1x1 block, so that set-up time is
    # mostly import and expansion build rather than the series that
    # cpu_s times.
    prime = _base(rng, "sandwich", (5, 1), 160.0, PRIME_DRAWS, "prime",
                  exponents=_exps((2.2, 2.2), (-1, -1)), bound="upper")
    return configs, [1] * len(configs), prime


def _bern(p: int, weight: float, off: float) -> dict:
    site = [[1.0 if i == j else off for j in range(p)] for i in range(p)]
    return {"trace_offset": [[0.0] * p for _ in range(p)], "atoms": [[weight, site]]}


def _mixed_kinds(rng):
    n = 20_000
    specs = [
        # (inequality, block sizes, alpha, extra fields, expected rows)
        ("sandwich", (1, 2, 1), 8.0, dict(exponents=_exps((0.4, 0.8, 0.4), (-1, -1, -1)), bound="both"), 4),
        ("sandwich", (1, 1), 6.0, dict(exponents=_exps((0.5, 0.5), (-1, -1))), 1),
        ("conj11", (2, 2), 6.0, dict(exponents=_exps((0.7, 1.3), (1, 1))), 1),
        ("conj11", (1, 2, 1), 6.0, dict(exponents=_exps((0.7, 1.1, 0.5), (1, 1, 1))), 2),
        ("conj36", (1, 1), 4.0, {}, 1),
        ("conj36", (2, 2), 6.0, {}, 1),
        ("opp_lower", (2, 2), 6.0, dict(exponents=_exps((0.6, 1.3), (-1, 1))), 1),
        ("opp_lower", (1, 1, 1), 5.0, dict(exponents=_exps((0.4, 0.8, 0.8), (-1, 1, 1))), 2),
        ("opp_upper", (1, 1), 5.0, dict(exponents=_exps((0.4, 1.0), (-1, 1))), 1),
        ("opp_upper", (1, 1, 1), 6.0, dict(exponents=_exps((0.5, 0.5, 1.0), (-1, -1, 1))), 2),
        ("bernstein", (1, 1), 3.0, dict(bernstein={"f": _bern(1, 1.0, 0.0), "g": _bern(1, 1.0, 0.0)}), 1),
        ("bernstein", (2, 2), 5.0, dict(bernstein={"f": _bern(2, 0.5, 0.2), "g": _bern(2, 1.5, -0.3)}), 1),
        ("eigen", (2,), 4.0, dict(exponents=_exps((1.0, 1.0), (1, 1))), 1),
        ("eigen", (3,), 6.0, dict(exponents=_exps((1.0, 0.5, 1.0), (1, 1, 1))), 2),
        ("elliptical", (1, 1), 3.0, dict(elliptical={"alphas": [1.0, 1.0], "radial": {"kind": "chisq"}}), 1),
        ("elliptical", (1, 1, 1), 4.0, dict(elliptical={"alphas": [1.0, 1.0, 1.0], "radial": {"kind": "chisq"}}), 1),
        # Open statement whose candidate violation is decisive: the near-point
        # radial law puts Q_R close to 1, and weakly coupled coordinates keep
        # the sphere-product ratio far below it, so the 10x confirmation
        # rerun runs on every seed.
        ("elliptical", (1, 1, 1), 4.0, dict(elliptical={"alphas": [1.0, 1.0, 1.0], "radial": {"kind": "lognormal", "mu": 0.0, "sigma": 0.1}}, loadings=(0.1, 0.3)), 1),
        ("elliptical", (1, 1), 3.0, dict(elliptical={"alphas": [0.5, 0.5], "radial": {"kind": "lognormal", "mu": 0.0, "sigma": 1.5}}), 1),
        ("lt_order", (1, 1), 3.0, dict(t_blocks=[[[0.5]], [[0.5]]]), 1),
        ("lt_order", (1, 1, 1), 4.0, dict(t_blocks=[[[0.3]], [[0.3]], [[0.3]]]), 2),
    ]
    configs, rows = [], []
    for i, (ineq, sizes, alpha, extra, n_rows) in enumerate(specs):
        configs.append(_base(rng, ineq, sizes, alpha, n, f"mix{i:02d}", **extra))
        rows.append(n_rows)
    return configs, rows, _prime(configs[0])


_BUILDERS = {
    "mc-split": _mc_split,
    "eigen-split": _eigen_split,
    "bound-series": _bound_series,
    "mixed-kinds": _mixed_kinds,
}


def build(name: str, seed: int) -> Workload:
    """The workload's configs for this seed; the same seed gives the same bytes."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")
    rng = np.random.default_rng([int(seed), NAMES.index(name)])
    return Workload(name, *_BUILDERS[name](rng))


def validate(workload: Workload) -> list[str]:
    """Problems with the generated configs; an empty list means none.

    Every config must pass the program's own ``parse_config``. Every
    inverted exponent must stay in the guaranteed-finite window at twice
    its magnitude, so each estimator has a finite variance and its z is
    calibrated, and at four times its magnitude, so the sample variance
    behind ``variance_time`` is itself steady from seed to seed.
    """
    from wishartgpi.errors import ConfigError
    from wishartgpi.harness import parse_config
    from wishartgpi.montecarlo import ExponentVector, Finiteness, finiteness_classify

    problems = []
    for cfg in workload.configs + [workload.gate_config(), workload.prime]:
        tag = f"{workload.name}/{cfg['output_path']}"
        try:
            parse_config(json.loads(_dump(cfg)))
        except ConfigError as err:
            problems.append(f"{tag}: parse_config refused it: {err}")
        exps = cfg.get("exponents")
        if exps is None or -1 not in exps["signs"]:
            continue
        for factor in (2, 4):
            scaled = ExponentVector(tuple(factor * v for v in exps["values"]), tuple(exps["signs"]))
            if finiteness_classify(cfg["alpha"], cfg["block_sizes"], scaled) is not Finiteness.FINITE_GUARANTEED:
                problems.append(f"{tag}: inverted exponents leave the guaranteed window at {factor}x")
    return problems
