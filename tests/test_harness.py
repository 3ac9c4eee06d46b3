import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from wishartgpi.cli import build_parser, main
from wishartgpi.errors import ConfigError
from wishartgpi.harness import (
    COUNT_CAP,
    CSV_COLUMNS,
    INEQUALITY_IDS,
    N_SAMPLES_CAP,
    KINDS,
    SCHEMA_VERSION,
    ExperimentConfig,
    ReportRow,
    exit_code_for,
    parse_config,
    render_csv,
    report_paths,
    run,
    sigma_digest,
    verify_suite,
    write_reports,
)
from wishartgpi.checks import STATEMENTS, BernsteinSpec, RadialSpec


def sandwich_raw(**over):
    raw = {
        "schema_version": 1,
        "inequality_id": "sandwich",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 6.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
        "exponents": {"values": [0.4, 0.4], "signs": [-1, -1]},
        "n_samples": 4000,
        "seed": 99,
        "bound": "both",
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------- parsing


def test_parse_config_roundtrip():
    cfg = parse_config(sandwich_raw())
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert cfg.inequality_id == "sandwich"
    assert cfg.block_sizes == (1, 1)
    assert cfg.schema_version == SCHEMA_VERSION


@pytest.mark.parametrize(
    "mutate,phrase",
    [
        ({"schema_version": 2}, "schema_version"),
        ({"inequality_id": "banana"}, "unknown inequality_id"),
        ({"d": 3}, "blocks"),
        ({"alpha": 0.5}, "alpha"),
        ({"n_samples": 1}, "n_samples"),
        ({"seed": -4}, "seed"),
        ({"z_threshold": 0.0}, "z_threshold"),
        ({"sigma_source": {"kind": "explicit", "matrix": [[1.0, 2.0], [2.0, 1.0]]}}, "positive definite"),
        ({"sigma_source": {"kind": "random"}}, "count"),
        ({"sigma_source": {"kind": "file"}}, "kind"),
        ({"split": 5}, "split"),
        ({"split": True}, "split"),
        ({"exponents": {"values": [0.4, 0.4], "signs": [1, -1]}}, "sign -1"),
        ({"exponents": {"values": [0.4], "signs": [-1]}}, "entries"),
        ({"exponents": [0.4, 0.4]}, "exponents"),
        ({"bound": "sideways"}, "bound"),
        ({"exponents": {"values": [3.0, 0.4], "signs": [-1, -1]}}, "infinite"),
        ({"workers": 0}, "workers"),
        ({"output_path": 7}, "output_path"),
    ],
)
def test_parse_config_rejects(mutate, phrase):
    with pytest.raises(ConfigError, match=phrase):
        parse_config(sandwich_raw(**mutate))


def test_parse_config_missing_field():
    raw = sandwich_raw()
    del raw["alpha"]
    with pytest.raises(ConfigError, match="missing field 'alpha'"):
        parse_config(raw)
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config([1, 2])


def test_parse_config_upper_window_check():
    # alpha 8, size-2 blocks: conservative window is (0.5, 2.5); nu=3.0
    # is still finite but the upper bound integral diverges
    raw = sandwich_raw(
        d=2,
        block_sizes=[2, 2],
        alpha=8.0,
        sigma_source={"kind": "random", "count": 1},
        exponents={"values": [3.0, 1.0], "signs": [-1, -1]},
    )
    with pytest.raises(ConfigError, match="strictly inside"):
        parse_config(raw)
    # same exponents are fine for the lower bound alone
    raw["bound"] = "lower"
    assert parse_config(raw).bound == "lower"


def test_parse_config_finiteness_override():
    # scalar blocks, alpha 6: nu = 0.4 <= 1/2 leaves the guaranteed window
    raw = sandwich_raw(
        exponents={"values": [0.3, 0.3], "signs": [-1, -1]}, bound="lower"
    )
    cfg = parse_config(raw)  # scalar blocks have lo = 0, so 0.3 is safe
    assert cfg.exponents["values"] == [0.3, 0.3]
    raw2 = sandwich_raw(
        d=2,
        block_sizes=[2, 1],
        alpha=8.0,
        sigma_source={"kind": "random", "count": 1},
        exponents={"values": [0.4, 0.6], "signs": [-1, -1]},
        bound="lower",
    )
    with pytest.raises(ConfigError, match="override_finiteness"):
        parse_config(raw2)
    assert parse_config(raw2, override_finiteness=True).d == 2
    raw2["override_finiteness"] = True
    assert parse_config(raw2).d == 2


def test_parse_config_eigen_split_range():
    raw = {
        "inequality_id": "eigen",
        "d": 1,
        "block_sizes": [3],
        "alpha": 6.0,
        "sigma_source": {"kind": "random", "count": 1},
        "exponents": {"values": [1.0, 1.0, 1.0], "signs": [1, 1, 1]},
        "n_samples": 1000,
        "seed": 1,
        "split": 3,
    }
    assert parse_config(raw).split == 3
    raw["split"] = 4
    with pytest.raises(ConfigError, match="split"):
        parse_config(raw)


def test_parse_config_conj36_and_elliptical_and_lt():
    base = {
        "inequality_id": "conj36",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 5.0,
        "sigma_source": {"kind": "random", "count": 1},
        "n_samples": 1000,
        "seed": 3,
    }
    assert parse_config(base).thresholds is None
    with pytest.raises(ConfigError, match="thresholds"):
        parse_config({**base, "thresholds": [1.0]})
    with pytest.raises(ConfigError, match="positive"):
        parse_config({**base, "thresholds": [1.0, -2.0]})

    ell = {
        "inequality_id": "elliptical",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 5.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.4], [0.4, 1.0]]},
        "elliptical": {"alphas": [1.0, 1.0], "radial": {"kind": "chisq"}},
        "n_samples": 1000,
        "seed": 3,
    }
    assert parse_config(ell).elliptical["alphas"] == [1.0, 1.0]
    with pytest.raises(ConfigError, match="alphas"):
        parse_config({**ell, "elliptical": {"alphas": [1.0]}})
    with pytest.raises(ConfigError, match="radial"):
        parse_config({**ell, "elliptical": {"alphas": [1.0, 1.0], "radial": {"kind": "cauchy"}}})

    lt = {
        "inequality_id": "lt_order",
        "d": 2,
        "block_sizes": [1, 2],
        "alpha": 6.0,
        "sigma_source": {"kind": "random", "count": 1},
        "t_blocks": [[[0.5]], [[0.4, 0.0], [0.0, 0.2]]],
        "n_samples": 2,
        "seed": 3,
    }
    assert parse_config(lt).t_blocks is not None
    with pytest.raises(ConfigError, match="t_blocks"):
        parse_config({**lt, "t_blocks": [[[0.5]]]})
    with pytest.raises(ConfigError, match="t_blocks"):
        parse_config({**lt, "t_blocks": [[[0.5]], [[0.4]]]})
    with pytest.raises(ConfigError, match="nonnegative definite"):
        parse_config({**lt, "t_blocks": [[[-0.5]], [[0.4, 0.0], [0.0, 0.2]]]})


def test_parse_config_bernstein():
    raw = {
        "inequality_id": "bernstein",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 5.0,
        "sigma_source": {"kind": "random", "count": 1},
        "bernstein": {
            "f": {"atoms": [[1.0, [[0.7]]]]},
            "g": {"atoms": [[1.0, [[0.3]]]]},
        },
        "n_samples": 1000,
        "seed": 3,
    }
    assert parse_config(raw).bernstein is not None
    with pytest.raises(ConfigError, match="two blocks"):
        parse_config({**raw, "d": 3, "block_sizes": [1, 1, 1]})
    with pytest.raises(ConfigError, match="bernstein"):
        parse_config({**raw, "bernstein": {"f": {}}})
    with pytest.raises(ConfigError, match="no split point"):
        parse_config({**raw, "split": 2})


# ---------------------------------------------------------------- running


def test_run_row_cardinality_and_columns():
    raw = {
        "inequality_id": "conj11",
        "d": 3,
        "block_sizes": [1, 1, 1],
        "alpha": 5.0,
        "sigma_source": {"kind": "random", "count": 2},
        "exponents": {"values": [0.5, 0.5, 0.5], "signs": [1, 1, 1]},
        "n_samples": 3000,
        "seed": 714,
    }
    rows = run(parse_config(raw))
    # 2 scale draws x splits {2, 3}
    assert len(rows) == 4
    ids = [r.experiment_id for r in rows]
    assert ids == ["conj11-s00-k2", "conj11-s00-k3", "conj11-s01-k2", "conj11-s01-k3"]
    for r in rows:
        assert r.statement == STATEMENTS["conj11"]
        assert r.status == "open"
        assert r.seed == 714
        assert r.exponents == "|".join(["0.5"] * 3)
        assert len(r.sigma_digest) == 12
        assert r.wall_time_ms > 0
        assert len(r.sigma) == 3


def test_run_sandwich_both_bounds_two_rows():
    rows = run(parse_config(sandwich_raw()))
    assert [r.experiment_id for r in rows] == [
        "sandwich-s00-k2-lower",
        "sandwich-s00-k2-upper",
    ]
    assert rows[0].detail["side"] == "lower"
    assert rows[1].detail["side"] == "upper"
    assert all(r.verdict != "Violated" for r in rows)


def test_run_is_deterministic_and_worker_independent():
    raw = sandwich_raw(
        sigma_source={"kind": "random", "count": 2},
        d=3,
        block_sizes=[1, 1, 1],
        exponents={"values": [0.4, 0.4, 0.4], "signs": [-1, -1, -1]},
        alpha=5.0,
        n_samples=5000,
    )
    sheets = []
    for _ in range(2):
        rows = run(parse_config(raw))
        assert len(rows) == 2 * 2 * 2  # sigmas x splits x bound sides
        sheets.append(render_csv(rows))
    assert sheets[0] == sheets[1]


def test_run_lt_order_rows_are_exact():
    raw = {
        "inequality_id": "lt_order",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 4.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.6], [0.6, 1.0]]},
        "t_blocks": [[[0.5]], [[0.5]]],
        "n_samples": 2,
        "seed": 0,
    }
    rows = run(parse_config(raw))
    assert len(rows) == 1
    r = rows[0]
    assert r.verdict == "Holds"
    assert r.lhs_se == 0.0 and r.rhs_se == 0.0
    assert r.lhs > r.rhs  # transform with coupling dominates the split one
    assert r.detail["gap"] == pytest.approx(r.lhs - r.rhs, rel=1e-12)


# ---------------------------------------------------------------- reports


def fake_row(verdict, status):
    return ReportRow(
        experiment_id="x",
        inequality_id="sandwich",
        statement=STATEMENTS["sandwich"],
        d=2,
        alpha=5.0,
        block_sizes=(1, 1),
        sigma_digest="0" * 12,
        exponents="",
        lhs=1.0,
        lhs_se=0.1,
        rhs=2.0,
        rhs_se=0.0,
        z=-10.0,
        verdict=verdict,
        n=10,
        seed=0,
        status=status,
    )


def test_exit_code_semantics():
    assert exit_code_for([]) == 0
    assert exit_code_for([fake_row("Holds", "proved")]) == 0
    assert exit_code_for([fake_row("Violated", "open")]) == 0
    assert exit_code_for([fake_row("Violated", "conditional")]) == 0
    assert exit_code_for([fake_row("Violated", "proved")]) == 2


def test_render_csv_shape():
    sheet = render_csv([fake_row("Holds", "proved")])
    lines = sheet.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert sheet.endswith("\n") and "\r" not in sheet
    assert len(lines) == 3  # header + row + trailing newline


def test_sigma_digest_properties():
    a = np.array([[1.0, 0.2], [0.2, 1.0]])
    d1 = sigma_digest(a)
    assert len(d1) == 12 and all(c in "0123456789abcdef" for c in d1)
    assert sigma_digest(a) == d1
    assert sigma_digest(a + 1e-12 * np.eye(2)) != d1


def test_report_paths_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WISHARTGPI_OUTPUT_DIR", str(tmp_path))
    cfg = parse_config(sandwich_raw(output_path="sweep.csv"))
    csv_path, json_path = report_paths(cfg)
    assert csv_path == str(tmp_path / "sweep.csv")
    assert json_path == str(tmp_path / "sweep.json")
    absolute = parse_config(sandwich_raw(output_path=str(tmp_path / "abs.json")))
    assert report_paths(absolute)[0] == str(tmp_path / "abs.csv")


def test_write_reports_json_document(tmp_path):
    raw = {
        "inequality_id": "lt_order",
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 4.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.6], [0.6, 1.0]]},
        "t_blocks": [[[0.5]], [[0.5]]],
        "n_samples": 2,
        "seed": 0,
        "output_path": str(tmp_path / "lt"),
    }
    cfg = parse_config(raw)
    rows = run(cfg)
    csv_path, json_path = write_reports(cfg, rows)
    assert os.path.exists(csv_path) and os.path.exists(json_path)
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["config"]["inequality_id"] == "lt_order"
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["z"] == "inf"  # exact comparisons stay strict-JSON safe
    assert "wall_time_ms" in row and "sigma" in row
    with open(csv_path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == ",".join(CSV_COLUMNS)


def test_statement_registry_covers_all_ids():
    assert INEQUALITY_IDS == tuple(KINDS)
    assert set(KINDS) == set(STATEMENTS)
    for text in STATEMENTS.values():
        assert text and "," not in text  # stays a single CSV cell unquoted


# ---------------------------------------------------------------- suites


def test_verify_suites_pass():
    silent = lambda *parts: None
    assert verify_suite("oracles", log=silent) == 0
    assert verify_suite("proved", log=silent) == 0
    assert verify_suite("conjectures", log=silent) == 0
    with pytest.raises(ConfigError):
        verify_suite("everything", log=silent)


# ---------------------------------------------------------------- CLI


def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--config", "x.json", "--workers", "4"])
    assert args.config == "x.json" and args.workers == 4
    args = parser.parse_args(["verify", "--suite", "proved"])
    assert args.suite == "proved"


def test_cli_builds_its_parser_once_per_process(monkeypatch, capsys):
    import argparse

    argv = ["moments", "--alpha", "6", "--p", "2", "--nu", "1"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0 and main(argv) == 0
    assert built == []
    # build_parser itself still builds a fresh tree
    assert build_parser() is not build_parser()


def test_cli_moments_exact(capsys):
    # E|X| for a 2x2 identity-scale model at alpha 6 is alpha(alpha-1) = 30
    code = main(["moments", "--alpha", "6", "--p", "2", "--nu", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moment"] == pytest.approx(30.0, rel=1e-12)


def test_cli_eigen_zero_power_group_runs(tmp_path):
    raw = {
        "schema_version": 1,
        "inequality_id": "eigen",
        "d": 1,
        "block_sizes": [2],
        "alpha": 6.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.3], [0.3, 1.0]]},
        "exponents": {"values": [1.0, 0.0], "signs": [1, 1]},
        "n_samples": 2000,
        "seed": 5,
        "output_path": str(tmp_path / "eig"),
    }
    cfg_path = tmp_path / "eig.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "eig.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["verdict"] for r in rows] == ["Holds"]


def test_cli_run_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    raw = sandwich_raw(n_samples=3000, output_path=str(tmp_path / "out"))
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    assert (tmp_path / "out.csv").exists()
    out = capsys.readouterr().out
    assert "2 rows" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_cli_sample_shape(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sandwich_raw()), encoding="utf-8")
    code = main(["sample", "--config", str(cfg_path), "--count", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["draws"]) == 3
    assert np.array(doc["draws"][0]).shape == (2, 2)


def kind_raw(ineq, **over):
    """A small valid config for `ineq` on two scalar blocks."""
    raw = {
        "schema_version": 1,
        "inequality_id": ineq,
        "d": 2,
        "block_sizes": [1, 1],
        "alpha": 5.0,
        "sigma_source": {"kind": "explicit", "matrix": [[1.0, 0.4], [0.4, 1.0]]},
        "n_samples": 1000,
        "seed": 3,
    }
    raw.update({
        "conj11": {"exponents": {"values": [1.0, 1.0], "signs": [1, 1]}},
        "conj36": {},
        "lt_order": {"t_blocks": [[[0.5]], [[0.5]]]},
        "bernstein": {"bernstein": {"f": {"atoms": [[1.0, [[0.7]]]]}, "g": {"atoms": [[1.0, [[0.3]]]]}}},
        "elliptical": {"elliptical": {"alphas": [1.0, 1.0], "radial": {"kind": "chisq"}}},
    }[ineq])
    raw.update(over)
    return raw


# A JSON integer too large for a float.
HUGE = 10**400


def _cli_run(tmp_path, raw, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(raw, output_path=str(tmp_path / "out"))), encoding="utf-8")
    return main(["run", "--config", str(cfg_path), *flags])


# A 2x2 block at alpha 6 with an inverted exponent of 0.3 sits below the
# guaranteed-finite window ((p-1)/2 = 0.5), so each config needs the override.
UNKNOWN_FINITENESS = {
    "sandwich": {"values": [0.3, 0.3], "signs": [-1, -1]},
    "opp_lower": {"values": [0.3, 1.0], "signs": [-1, 1]},
    "opp_upper": {"values": [0.3, 1.0], "signs": [-1, 1]},
}


@pytest.mark.parametrize("how", ["document", "flag"])
@pytest.mark.parametrize("ineq", sorted(UNKNOWN_FINITENESS))
def test_override_finiteness_reaches_run(tmp_path, capsys, ineq, how):
    raw = {
        "inequality_id": ineq,
        "d": 2,
        "block_sizes": [2, 1],
        "alpha": 6.0,
        "sigma_source": {"kind": "random", "count": 1},
        "exponents": UNKNOWN_FINITENESS[ineq],
        "n_samples": 2000,
        "seed": 11,
    }
    with pytest.raises(ConfigError, match="override_finiteness"):
        parse_config(raw)
    if how == "document":
        assert _cli_run(tmp_path, dict(raw, override_finiteness=True)) == 0
    else:
        assert _cli_run(tmp_path, raw, "--override-finiteness") == 0
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["config"]["override_finiteness"] is True
    assert len(doc["rows"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw",
    [
        sandwich_raw(z_threshold="abc"),
        sandwich_raw(z_threshold=None),
        sandwich_raw(sigma_source={"kind": "explicit", "matrix": "x"}),
        sandwich_raw(sigma_source={"kind": "random", "count": 1, "jitter": True}),
        sandwich_raw(workers=True),
        sandwich_raw(override_finiteness="yes"),
        kind_raw("conj36", thresholds=["a", 1.0]),
        kind_raw("lt_order", t_blocks=[["x"], [[0.5]]]),
        kind_raw("bernstein", bernstein={"f": {"atoms": [[1.0]]}, "g": {"atoms": []}}),
        kind_raw("bernstein", bernstein={"f": {"trace_offset": "x"}, "g": {"atoms": []}}),
        kind_raw("conj11", exponents={"values": [float("nan"), 1.0], "signs": [1, 1]}),
        kind_raw("elliptical", elliptical={"alphas": [True, 1.0], "radial": {"kind": "chisq"}}),
        kind_raw("conj36", thresholds=[True, 1]),
        # non-finite numbers, which Python's json parses from NaN and Infinity
        sandwich_raw(alpha=float("inf")),
        sandwich_raw(sigma_source={"kind": "random", "count": 1, "jitter": float("inf")}),
        sandwich_raw(sigma_source={"kind": "random", "count": 1, "jitter": float("nan")}),
        sandwich_raw(z_threshold=float("nan")),
        sandwich_raw(z_threshold=float("inf")),
        *(
            kind_raw("elliptical", elliptical={"alphas": [1.0, 1.0], "radial": radial})
            for radial in (
                {"kind": "lognormal", "mu": "abc"},
                {"kind": "lognormal", "mu": float("nan")},
                {"kind": "lognormal", "sigma": float("inf")},
                {"kind": "lognormal", "sigma": True},
                {"kind": "chisq", "dof": float("inf")},
                {"kind": "point", "value": float("inf")},
            )
        ),
        *(
            kind_raw("bernstein", bernstein={"f": {"atoms": [[c, [[0.7]]]]}, "g": {"atoms": []}})
            for c in (float("nan"), float("inf"), True)
        ),
        # block sizes are integers: no silent truncation, and true is not 1
        sandwich_raw(block_sizes=[1.5, 1]),
        sandwich_raw(block_sizes=[True, 1]),
        # an integer beyond the float range, wherever a number is read
        sandwich_raw(alpha=HUGE),
        sandwich_raw(z_threshold=HUGE),
        sandwich_raw(exponents={"values": [HUGE, 0.4], "signs": [-1, -1]}),
        sandwich_raw(sigma_source={"kind": "explicit", "matrix": [[HUGE, 0.5], [0.5, 1.0]]}),
        sandwich_raw(sigma_source={"kind": "random", "count": 1, "jitter": HUGE}),
        kind_raw("conj36", thresholds=[HUGE, 1.0]),
        kind_raw("lt_order", t_blocks=[[[HUGE]], [[0.5]]]),
        kind_raw("elliptical", elliptical={"alphas": [HUGE, 1.0], "radial": {"kind": "chisq"}}),
        *(
            kind_raw("elliptical", elliptical={"alphas": [1.0, 1.0], "radial": radial})
            for radial in (
                {"kind": "lognormal", "mu": HUGE},
                {"kind": "lognormal", "sigma": HUGE},
                {"kind": "chisq", "dof": HUGE},
                {"kind": "point", "value": HUGE},
            )
        ),
        kind_raw("bernstein", bernstein={"f": {"atoms": [[HUGE, [[0.7]]]]}, "g": {"atoms": []}}),
        kind_raw("bernstein", bernstein={"f": {"atoms": [[1.0, [[HUGE]]]]}, "g": {"atoms": []}}),
        kind_raw("bernstein", bernstein={"f": {"trace_offset": [[HUGE]]}, "g": {"atoms": []}}),
        # stream ids run out: past the documented caps
        sandwich_raw(n_samples=HUGE),
        sandwich_raw(sigma_source={"kind": "random", "count": HUGE}),
        sandwich_raw(n_samples=N_SAMPLES_CAP + 1),
        sandwich_raw(sigma_source={"kind": "random", "count": COUNT_CAP + 1}),
    ],
)
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, raw):
    assert _cli_run(tmp_path, raw) == 1
    assert "config error:" in capsys.readouterr().err


def test_parse_config_accepts_the_stream_caps():
    # the largest accepted values: a 10x rerun's last chunk index and the
    # last instance anchor still fit their 32 bits
    cfg = parse_config(sandwich_raw(n_samples=N_SAMPLES_CAP, sigma_source={"kind": "random", "count": COUNT_CAP}))
    assert -(-10 * cfg.n_samples // 65536) <= 2**32
    assert cfg.sigma_source["count"] * 1024 < 2**32


@pytest.mark.parametrize(
    "source",
    [
        {"kind": "random", "count": 2},
        # asymmetric within tolerance: the harness symmetrizes it
        {"kind": "explicit", "matrix": [[1.0, 0.5], [0.5 + 1e-12, 1.0]]},
    ],
)
def test_cli_sample_uses_the_run_scale_matrix(tmp_path, capsys, source):
    raw = sandwich_raw(sigma_source=source, n_samples=500, output_path=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        run_sigma = json.load(fh)["rows"][0]["sigma"]
    capsys.readouterr()
    assert main(["sample", "--config", str(cfg_path), "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == run_sigma


def test_run_builds_no_kind_parameters_per_row(monkeypatch):
    random3 = {"kind": "random", "count": 3}
    configs = [parse_config(kind_raw(ineq, sigma_source=random3)) for ineq in ("bernstein", "elliptical")]
    built = []

    def counting(cls):
        original = cls.__post_init__

        def post_init(self):
            built.append(cls.__name__)
            original(self)

        return post_init

    for cls in (BernsteinSpec, RadialSpec):
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    for cfg in configs:
        assert len(run(cfg)) == 3
    assert built == []


# ---------------------------------------------------------------- shared sample


def three_block_raw(ineq, **over):
    """A config for `ineq` on three scalar blocks (two splits), two random scale matrices."""
    # conj36 reads no kind fields, so its small config is the common base
    raw = kind_raw("conj36", inequality_id=ineq, d=3, block_sizes=[1, 1, 1],
                   sigma_source={"kind": "random", "count": 2})
    raw.update({
        "sandwich": {"exponents": {"values": [0.4, 0.4, 0.4], "signs": [-1, -1, -1]}, "bound": "both"},
        "conj11": {"exponents": {"values": [0.7, 1.1, 0.5], "signs": [1, 1, 1]}},
        "conj36": {},
        "opp_lower": {"exponents": {"values": [0.4, 0.8, 0.8], "signs": [-1, 1, 1]}},
        "opp_upper": {"exponents": {"values": [0.5, 0.5, 1.0], "signs": [-1, -1, 1]}},
        "eigen": {"d": 1, "block_sizes": [3], "exponents": {"values": [1.0, 0.5, 1.0], "signs": [1, 1, 1]}},
    }[ineq])
    raw.update(over)
    return raw


def test_sandwich_splits_share_the_joint_estimate():
    rows = run(parse_config(three_block_raw("sandwich", n_samples=3000)))
    assert [r.experiment_id for r in rows[:4]] == [
        "sandwich-s00-k2-lower", "sandwich-s00-k2-upper", "sandwich-s00-k3-lower", "sandwich-s00-k3-upper",
    ]
    k2, k3 = rows[0], rows[2]
    assert (k2.lhs, k2.lhs_se, k2.n) == (k3.lhs, k3.lhs_se, k3.n)
    assert k2.rhs != k3.rhs
    assert k2.detail["shared_splits"] == k3.detail["shared_splits"] == [2, 3]
    # the upper bound does not depend on the split: one verdict on both rows
    assert rows[1].csv_values()[8:] == rows[3].csv_values()[8:]


@pytest.mark.parametrize("ineq", ["sandwich", "eigen", "conj11", "conj36", "opp_lower", "opp_upper"])
def test_one_estimator_per_scale_matrix(monkeypatch, ineq):
    import wishartgpi.checks as checks
    import wishartgpi.montecarlo as montecarlo

    calls = []
    original = montecarlo.mc_mean

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "mc_mean", counting)
    monkeypatch.setattr(montecarlo, "mc_mean", counting)
    rows = run(parse_config(three_block_raw(ineq, n_samples=2000)))
    per_matrix = 4 if ineq == "sandwich" else 2
    assert len(rows) == 2 * per_matrix
    assert not any("candidate_rerun" in r.detail for r in rows)
    assert calls == [2000, 2000]
    for first in (rows[0], rows[per_matrix]):
        assert first.detail["shared_splits"] == [2, 3]
    if ineq in ("conj11", "opp_lower", "opp_upper"):
        # the right side does not depend on the split: one verdict per matrix
        assert rows[0].csv_values()[8:] == rows[1].csv_values()[8:]
        assert [r.detail["split"] for r in rows] == [2, 3, 2, 3]


@pytest.mark.parametrize("ineq", ["eigen", "conj36", "conj11"])
def test_shared_sample_csv_is_worker_independent(ineq):
    # just over two chunks, so the estimator folds three of them
    over = {"n_samples": 2 * 65536 + 1}
    if ineq != "conj11":
        over["sigma_source"] = {"kind": "random", "count": 1}
    sheet = render_csv(run(parse_config(three_block_raw(ineq, **over))))
    assert sheet.count("\n") == 1 + (4 if ineq == "conj11" else 2)


# kind -> (a config with one scale matrix, which verdict of the first pass
# is forced to Violated, the report rows that carry it)
FORCED = {
    # open statements: conj36 with a 2x2 block (forced at k = 3), the rest at d = 3
    "conj36": (kind_raw("conj36", d=3, block_sizes=[1, 1, 2], alpha=6.0), 2, [1]),
    "conj11": (three_block_raw("conj11"), 1, [0, 1]),
    "opp_lower": (three_block_raw("opp_lower"), 1, [0, 1]),
    "elliptical": (kind_raw("elliptical", d=3, block_sizes=[1, 1, 1], elliptical={
        "alphas": [1.0, 1.0, 1.0], "radial": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0}}), 1, [0]),
    # proved statements
    "sandwich": (three_block_raw("sandwich"), 1, [0]),
    "opp_upper": (three_block_raw("opp_upper"), 1, [0, 1]),
    "eigen": (three_block_raw("eigen"), 2, [1]),
    "bernstein": (kind_raw("bernstein"), 1, [0]),
}


@pytest.mark.parametrize("ineq", list(FORCED))
def test_forced_candidate_reruns_once_and_replaces_only_its_row(monkeypatch, ineq):
    import wishartgpi.checks as checks

    raw, nth, candidates = FORCED[ineq]
    raw = dict(raw, n_samples=3000, sigma_source={"kind": "random", "count": 1})
    estimators, verdicts = [], []
    original_mean, original_verdict = checks.mc_mean, checks.verdict_from

    def counting(*args, **kwargs):
        estimators.append(args[1])
        return original_mean(*args, **kwargs)

    def forced(*args, **kwargs):
        v = original_verdict(*args, **kwargs)
        verdicts.append(v.n)
        # the nth verdict of the first pass comes back a decisive Violated
        return replace(v, verdict="Violated", z=-100.0) if len(verdicts) == nth else v

    monkeypatch.setattr(checks, "mc_mean", counting)
    monkeypatch.setattr(checks, "verdict_from", forced)
    rows = run(parse_config(raw))
    # the elliptical check draws its sphere estimator, then its radial one
    per_pass = 2 if ineq == "elliptical" else 1
    proved = ineq in ("sandwich", "opp_upper", "eigen", "bernstein")
    assert {r.status for r in rows} <= ({"proved"} if proved else {"open", "conditional"})
    # proved or not, one rerun at 10x n estimates every key again; only
    # the candidate is replaced
    assert estimators == [3000] * per_pass + [30000] * per_pass
    keys = len(verdicts) // 2
    assert verdicts == [3000] * keys + [30000] * keys
    for i, r in enumerate(rows):
        if i in candidates:
            assert r.n == 30000 and r.verdict != "Violated"
            assert r.detail["candidate_rerun"] == {"first_n": 3000, "first_z": -100.0}
        else:
            assert r.n == 3000 and "candidate_rerun" not in r.detail
    assert exit_code_for(rows) == 0


@pytest.mark.parametrize("seed", [2304, 3398, 5946, 6378])
def test_proved_equality_violated_by_chance_reruns_and_exits_0(tmp_path, capsys, seed):
    # A block-diagonal scale matrix makes the lower sandwich an equality,
    # so its z is standard normal; at these seeds the first pass falls
    # below -3, and the one rerun at 10x n on fresh streams clears it.
    # Three 1x1 blocks: at two the row would be exact.
    raw = sandwich_raw(
        d=3, block_sizes=[1, 1, 1], alpha=10.0, split=2, bound="lower",
        exponents={"values": [0.5, 0.5, 0.5], "signs": [-1, -1, -1]},
        sigma_source={"kind": "explicit", "matrix": np.diag([1.0, 1.5, 0.8]).tolist()},
        n_samples=2000, seed=seed,
    )
    assert _cli_run(tmp_path, raw) == 0
    capsys.readouterr()
    with open(tmp_path / "out.json", encoding="utf-8") as fh:
        (row,) = json.load(fh)["rows"]
    assert row["status"] == "proved" and row["n"] == 20000
    assert row["detail"]["candidate_rerun"]["first_n"] == 2000
    assert row["detail"]["candidate_rerun"]["first_z"] < -3


@pytest.mark.parametrize("ineq", ["sandwich", "opp_upper", "eigen", "bernstein"])
def test_proved_statement_violated_in_both_passes_exits_2(monkeypatch, ineq):
    import wishartgpi.checks as checks

    raw, nth, candidates = FORCED[ineq]
    raw = dict(raw, n_samples=3000, sigma_source={"kind": "random", "count": 1})
    seen = {}
    original = checks.verdict_from

    def forced(*args, **kwargs):
        v = original(*args, **kwargs)
        seen[v.n] = seen.get(v.n, 0) + 1
        # the nth verdict of each pass comes back a decisive Violated
        return replace(v, verdict="Violated", z=-100.0) if seen[v.n] == nth else v

    monkeypatch.setattr(checks, "verdict_from", forced)
    rows = run(parse_config(raw))
    assert [i for i, r in enumerate(rows) if r.verdict == "Violated"] == candidates
    for i in candidates:
        assert rows[i].n == 30000 and rows[i].status == "proved"
        assert rows[i].detail["candidate_rerun"] == {"first_n": 3000, "first_z": -100.0}
    assert exit_code_for(rows) == 2
