"""Tests of the benchmark's own parts: generator, tracer, metric names.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_and_seed_dependent(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert a.files() == b.files()
    assert len(a.configs) == len(a.rows)
    for x, y in zip(a.configs, c.configs):
        assert x["sigma_source"]["matrix"] != y["sigma_source"]["matrix"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generated_configs_parse_and_stay_finite(name):
    for seed in (0, 1, 123456789):
        assert workloads.validate(workloads.build(name, seed)) == []


def test_gate_config_spans_two_chunks():
    for name in workloads.NAMES:
        assert workloads.build(name, 0).gate_config()["n_samples"] > 2 * workloads.CHUNK_DRAWS


def test_self_times_sum_to_traced_wall_on_nested_calls():
    tracer = Tracer(clock=itertools.count().__next__)  # one tick per clock read
    mod = types.SimpleNamespace(leaf=lambda: None)
    mod.middle = lambda: (mod.leaf(), mod.leaf())
    original = mod.leaf
    targets = [
        (mod, "leaf", tracer.wrap("special.leaf", mod.leaf)),
        (mod, "middle", tracer.wrap("bounds.middle", mod.middle)),
    ]
    with tracer.patched(targets):
        tracer.call("cli.main", lambda: (mod.middle(), mod.leaf()), (), {})
    assert mod.leaf is original
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    by_layer = {}
    for s in tracer.spans:
        layer = s.name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + own[s.id]
    assert set(by_layer) == {"cli", "bounds", "special"}
    assert sum(by_layer.values()) == root.end - root.start
    assert all(v > 0 for v in own.values())
    assert [s.parent for s in tracer.spans if s.name == "special.leaf"] == [2, 2, 1]


def test_parallel_callbacks_are_subtracted_once():
    tracer = Tracer()

    def estimator(draw, n, workers=2):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(lambda m: draw(None, m), [n, n]))

    def draw(gen, m):
        time.sleep(0.05)
        return m

    traced = tracer.wrap("montecarlo.mc_mean", estimator, callback_arg="draw_values")
    assert tracer.call("cli.main", traced, (draw, 3), {}) == 6
    est = next(s for s in tracer.spans if s.name == "montecarlo.mc_mean")
    callbacks = [s for s in tracer.spans if s.name.endswith(".callback")]
    assert [s.parent for s in callbacks] == [est.id, est.id]
    assert [s.count for s in callbacks] == [3, 3]
    union = max(s.end for s in callbacks) - min(s.start for s in callbacks)
    own = self_times(tracer.spans)
    assert own[est.id] == pytest.approx((est.end - est.start) - union, abs=1e-9)
    assert own[est.id] >= 0.0


def test_targets_patch_the_package_and_restore_it():
    from wishartgpi import checks, montecarlo

    before = (checks.mc_mean, montecarlo._sample_batch)
    tracer = Tracer()
    with tracer.patched(layers.targets(tracer)):
        assert checks.mc_mean is not before[0]
        assert montecarlo._sample_batch.__wrapped__ is before[1]
    assert (checks.mc_mean, montecarlo._sample_batch) == before


def test_layer_metric_keys_and_names():
    tracer = Tracer()
    got = layers.metrics(tracer, [{"verdict": "Holds", "rerun": False}], 100)
    assert set(layers.PER_LAYER) - set(got) == {"cli.import_s", "trace.overhead"}
    assert set(got) <= set(layers.PER_LAYER)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names + list(layers.PER_LAYER))
    assert {m["name"] for m in spec["per_layer"]} == set(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_relative_margin_variance_skips_exact_rows():
    rows = [
        {"lhs": "2.0", "rhs": "1.0", "z": "10.0"},  # margin se 0.1, relative 0.05
        {"lhs": "1.0", "rhs": "1.0", "z": "inf"},
    ]
    assert measure.relative_margin_variance(rows) == pytest.approx(0.05**2)


def _workdir(path: Path, monkeypatch) -> dict:
    """A workdir holding mixed-kinds seed 0, as run.py writes it; its manifest."""
    monkeypatch.setenv(measure.OUTPUT_DIR_ENV, str(path / "out"))
    run.write_workload(path, "mixed-kinds", 0)
    return json.loads((path / "manifest.json").read_text())


def test_gate_counts_a_config_that_exits_nonzero(tmp_path, monkeypatch):
    manifest = _workdir(tmp_path, monkeypatch)
    bad = json.loads((tmp_path / "gate.json").read_text())
    bad["alpha"] = -1.0
    (tmp_path / "gate.json").write_text(json.dumps(bad))
    result = measure.gate(tmp_path, manifest)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert any("exited" in p and "--workers 1" in p for p in result["problems"])
    assert any("other bytes" in p for p in result["problems"])


def test_runner_counts_crashes_and_missing_reports(tmp_path, monkeypatch):
    runner = measure.Runner(tmp_path, _workdir(tmp_path, monkeypatch))
    name, expected = runner.configs[0]
    runner.cli = types.SimpleNamespace(main=lambda argv: 0)  # writes no report
    assert runner.run_one(name, expected)[1] == []

    def crash(argv):
        raise ArithmeticError("boom")

    runner.cli = types.SimpleNamespace(main=crash)
    assert runner.run_one(name, expected)[1] == []
    assert runner.attempted == 2
    assert "FileNotFoundError" in runner.problems[0]
    assert "ArithmeticError: boom" in runner.problems[1]


def test_scale_reads_the_window_of_each_iteration():
    readings = [(0.0, 0.04), (1.0, 0.01), (2.0, 0.01), (3.0, 0.04)]
    assert run.scale(readings, 0.5, 2.5) == pytest.approx(run.reference.REFERENCE_S / 0.01)
    # no reading inside: the median of all of them
    assert run.scale(readings, 5.0, 6.0) == pytest.approx(run.reference.REFERENCE_S / 0.025)
