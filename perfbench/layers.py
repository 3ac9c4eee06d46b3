"""The entry points the traced run wraps, and the per-layer metrics.

Each layer is a module of ``wishartgpi``; its spans are its functions as
bound in the modules that call them. Self times come from
``tracer.self_times``, so a layer's time excludes the layers it calls.
"""

from __future__ import annotations

import importlib

from measure import WORKERS
from tracer import Tracer, self_times

# estimator -> name of its draw-callback parameter
ESTIMATORS = {"mc_mean": "draw_values", "mc_probability": "draw_indicator"}
ESTIMATOR_SPANS = {f"montecarlo.{fn}" for fn in ESTIMATORS}
CHECKS = (
    "gpi_sandwich",
    "product_moment_conjecture_check",
    "tail_probability_conjecture_check",
    "opposite_gpi_lower",
    "opposite_gpi_upper",
    "eigen_gpi_check",
    "bernstein_pair_check",
    "elliptical_gpi_check",
    "lt_order_gap",
    "laplace_transform",
    "verdict_from",
)
LINALG = ("as_symmetric", "is_positive_definite", "block_cholesky", "schur_complement", "direct_sum")

# name -> (unit, what it counts or times)
PER_LAYER = {
    "wishart.draws": ("count", "Bartlett draws"),
    "wishart.sample_s": ("s", "self time in _sample_batch"),
    "wishart.ns_per_draw": ("ns", "sample_s per Bartlett draw"),
    "montecarlo.estimators": ("count", "mc_mean and mc_probability calls"),
    "montecarlo.chunks": ("count", "draw callback calls"),
    "montecarlo.draws": ("count", "draws over all draw callbacks, sphere and radial included"),
    "montecarlo.functional_s": ("s", "draw callback time minus sampling"),
    "montecarlo.reduce_s": ("s", "estimator time not covered by its callbacks"),
    "montecarlo.worker_busy": ("share", "callback time / (workers x estimator time)"),
    "checks.verdicts": ("count", "verdicts computed, first passes of reruns included"),
    "checks.estimators_per_verdict": ("count", "estimators / verdicts"),
    "checks.draws_per_verdict": ("count", "callback draws / verdicts"),
    "checks.closed_form_s": ("s", "check self time outside estimators, bounds and linalg"),
    "checks.reruns": ("count", "rows carrying candidate_rerun"),
    "checks.decisive_share": ("share", "Holds + Violated rows / rows"),
    "bounds.integral_calls": ("count", "log_minor_bound_integral calls"),
    "bounds.integral_s": ("s", "self time in log_minor_bound_integral"),
    "special.zonal_calls": ("count", "zonal_polynomial calls from bounds"),
    "special.zonal_s": ("s", "time in zonal_polynomial"),
    "special.expansion_s": ("s", "time in zonal_expansion_coefficients"),
    "linalg.calls": ("count", "calls of the five linalg entry points"),
    "linalg.s": ("s", "time in the five linalg entry points"),
    "harness.rows": ("count", "report rows"),
    "harness.self_s": ("s", "run minus the check calls"),
    "harness.parse_s": ("s", "parse_config"),
    "harness.report_s": ("s", "write_reports"),
    "harness.report_bytes": ("bytes", "size of the CSV and JSON reports written"),
    "cli.self_s": ("s", "main minus parse, run and report"),
    "cli.import_s": ("s", "import wishartgpi in the traced process"),
    "trace.wall_s": ("s", "traced seconds per iteration"),
    "trace.overhead": ("ratio", "traced / untraced CPU seconds per iteration"),
}


def _m(tracer: Tracer, module, attr: str, name: str, **kw):
    return module, attr, tracer.wrap(name, getattr(module, attr), **kw)


def targets(tracer: Tracer) -> list:
    """(module, attribute, wrapper) for every traced entry point."""
    mod = {n: importlib.import_module(f"wishartgpi.{n}") for n in
           ("cli", "harness", "checks", "montecarlo", "bounds", "wishart")}
    out = [
        _m(tracer, mod["cli"], "parse_config", "harness.parse"),
        _m(tracer, mod["cli"], "run", "harness.run", count=lambda a, k, r: len(r)),
        _m(tracer, mod["cli"], "write_reports", "harness.report"),
        _m(tracer, mod["checks"], "log_minor_bound_integral", "bounds.integral"),
        _m(tracer, mod["bounds"], "zonal_polynomial", "special.zonal"),
        _m(tracer, mod["bounds"], "zonal_expansion_coefficients", "special.expansion"),
        _m(tracer, mod["checks"], "verdict_from", "checks.verdict_from"),
    ]
    for fn in CHECKS:
        out.append(_m(tracer, mod["harness"], fn, f"checks.{fn}"))
    for where in ("checks", "montecarlo"):
        out.append(_m(tracer, mod[where], "_sample_batch", "wishart.sample",
                      count=lambda a, k, r: a[2]))
        for fn, arg in ESTIMATORS.items():
            out.append(_m(tracer, mod[where], fn, f"montecarlo.{fn}", callback_arg=arg))
    for where in ("checks", "harness", "bounds", "wishart"):
        for fn in LINALG:
            if hasattr(mod[where], fn):
                out.append(_m(tracer, mod[where], fn, f"linalg.{fn}"))
    return out


def metrics(tracer: Tracer, rows: list[dict], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, which wrote `rows` in
    reports of `report_bytes` bytes."""
    own = self_times(tracer.spans)

    def pick(pred):
        return [s for s in tracer.spans if pred(s.name)]

    def self_s(pred):
        return sum(own[s.id] for s in pick(pred))

    def dur(spans):
        return sum(s.end - s.start for s in spans)

    samples = pick(lambda n: n == "wishart.sample")
    estimators = pick(lambda n: n in ESTIMATOR_SPANS)
    callbacks = pick(lambda n: n.endswith(".callback"))
    verdicts = len(pick(lambda n: n == "checks.verdict_from"))
    draws = sum(s.count for s in samples)
    mc_draws = sum(s.count for s in callbacks)
    sample_s = self_s(lambda n: n == "wishart.sample")
    decisive = sum(r["verdict"] in ("Holds", "Violated") for r in rows)
    return {
        "wishart.draws": draws,
        "wishart.sample_s": sample_s,
        "wishart.ns_per_draw": 1e9 * sample_s / draws if draws else 0.0,
        "montecarlo.estimators": len(estimators),
        "montecarlo.chunks": len(callbacks),
        "montecarlo.draws": mc_draws,
        "montecarlo.functional_s": self_s(lambda n: n.endswith(".callback")),
        "montecarlo.reduce_s": self_s(lambda n: n in ESTIMATOR_SPANS),
        "montecarlo.worker_busy": dur(callbacks) / (WORKERS * dur(estimators)) if estimators else 0.0,
        "checks.verdicts": verdicts,
        "checks.estimators_per_verdict": len(estimators) / verdicts if verdicts else 0.0,
        "checks.draws_per_verdict": mc_draws / verdicts if verdicts else 0.0,
        "checks.closed_form_s": self_s(lambda n: n.startswith("checks.")),
        "checks.reruns": sum(r["rerun"] for r in rows),
        "checks.decisive_share": decisive / len(rows) if rows else 0.0,
        "bounds.integral_calls": len(pick(lambda n: n == "bounds.integral")),
        "bounds.integral_s": self_s(lambda n: n == "bounds.integral"),
        "special.zonal_calls": len(pick(lambda n: n == "special.zonal")),
        "special.zonal_s": self_s(lambda n: n == "special.zonal"),
        "special.expansion_s": self_s(lambda n: n == "special.expansion"),
        "linalg.calls": len(pick(lambda n: n.startswith("linalg."))),
        "linalg.s": self_s(lambda n: n.startswith("linalg.")),
        "harness.rows": sum(s.count for s in pick(lambda n: n == "harness.run")),
        "harness.self_s": self_s(lambda n: n == "harness.run"),
        "harness.parse_s": self_s(lambda n: n == "harness.parse"),
        "harness.report_s": self_s(lambda n: n == "harness.report"),
        "harness.report_bytes": report_bytes,
        "cli.self_s": self_s(lambda n: n == "cli.main"),
        "trace.wall_s": dur(pick(lambda n: n == "cli.main")),
    }
