"""Child processes of the benchmark, one mode each.

    python measure.py setup --workdir D   fresh-interpreter set-up time
    python measure.py gate --workdir D    config checks and the workers 1 vs 2 CSV gate
    python measure.py time --workdir D --seconds S [--trace]

``run.py`` writes the workload's configs and ``manifest.json`` into D and
starts these with ``src`` on the path. Each prints one JSON object as its
last line. The package is imported only inside the timed regions. A config
that raises, exits non-zero or leaves a wrong report is a counted problem,
never an abort.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# The 17-column CSV contract of ``wishart-gpi run``.
CSV_HEADER = [
    "experiment_id", "inequality_id", "statement", "d", "alpha", "block_sizes",
    "sigma_digest", "exponents", "lhs", "lhs_se", "rhs", "rhs_se", "z", "verdict",
    "n", "seed", "status",
]
OUTPUT_DIR_ENV = "WISHARTGPI_OUTPUT_DIR"
MIN_SAMPLES = 3
# Every timed config runs at this worker count; the determinism gate
# alone also runs the pool at --workers 2.
WORKERS = 1
# Timed seconds are CPU seconds of the process, user and system, over all
# its threads. With one worker they are the seconds a run takes when it has
# a processor to itself. Wall-clock seconds also count the time other
# tenants of a shared host hold the processor; on a shared 2-core host
# that made their spread across runs about twice that of CPU seconds. A
# change that spreads one run over more threads pays for every thread.
CLOCK = time.process_time


def _cli_run(cli, config: Path, workers: int) -> tuple[int, str]:
    """Exit code of one config run, and the problem if it failed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config), "--workers", str(workers)])
    except Exception as err:  # a crash is a counted failure, not an abort
        return -1, f"{config.name} raised {type(err).__name__}: {err}"
    return code, "" if code == 0 else f"{config.name} exited {code}"


def setup(workdir: Path, manifest: dict) -> dict:
    """Import, parse every config, and run the priming config once."""
    t0 = CLOCK()
    from wishartgpi import cli
    from wishartgpi.harness import parse_config

    try:
        for name in manifest["configs"]:
            parse_config(json.loads((workdir / name).read_text()))
    except Exception as err:
        return {"setup_s": CLOCK() - t0, "problem": f"parse_config raised {err}"}
    os.environ[OUTPUT_DIR_ENV] = str(workdir / "prime")
    _, problem = _cli_run(cli, workdir / "prime.json", WORKERS)
    return {"setup_s": CLOCK() - t0, "problem": problem}


def gate(workdir: Path, manifest: dict) -> dict:
    """Regenerate and validate the configs; compare CSVs at workers 1 and 2.

    Two operations: the configs, and the determinism of the gate config.
    """
    import workloads
    from wishartgpi import cli

    try:
        wl = workloads.build(manifest["workload"], manifest["seed"])
        problems = workloads.validate(wl)
        if any((workdir / k).read_text() != v for k, v in wl.files().items()):
            problems.append("regenerating the configs from the seed gave other bytes")
    except Exception as err:
        problems = [f"checking the configs raised {type(err).__name__}: {err}"]
    csvs, determinism = [], []
    for workers in (1, 2):
        out = workdir / f"gate-w{workers}"
        os.environ[OUTPUT_DIR_ENV] = str(out)
        code, problem = _cli_run(cli, workdir / "gate.json", workers)
        if code != 0:
            determinism.append(f"{problem} at --workers {workers}")
        elif not (out / "gate.csv").is_file():
            determinism.append(f"gate config wrote no CSV at --workers {workers}")
        else:
            csvs.append((out / "gate.csv").read_bytes())
    if len(csvs) == 2 and csvs[0] != csvs[1]:
        determinism.append("gate CSV differs between --workers 1 and --workers 2")
    failed = int(bool(problems)) + int(bool(determinism))
    return {"attempted": 2, "failed": failed, "problems": problems + determinism}


class Runner:
    """Runs configs through ``cli.main`` and checks every report it writes."""

    def __init__(self, workdir: Path, manifest: dict):
        from wishartgpi import cli

        self.cli = cli
        self.workdir = workdir
        self.configs = list(zip(manifest["configs"], manifest["rows"]))
        self.out = workdir / "out"
        os.environ[OUTPUT_DIR_ENV] = str(self.out)
        self.first_csv: dict[str, bytes] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def run_one(self, name: str, expected_rows: int, call=None) -> tuple[float, list[dict]]:
        """CPU seconds in cli.main for one config, and its checked rows."""
        self.attempted += 1
        argv = ["run", "--config", str(self.workdir / name), "--workers", str(WORKERS)]
        main = self.cli.main if call is None else (lambda a: call(self.cli.main, a))
        t0 = CLOCK()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception as err:  # a crash is a counted failure, not an abort
            self.problems.append(f"{name}: raised {type(err).__name__}: {err}")
            return CLOCK() - t0, []
        seconds = CLOCK() - t0
        try:
            rows, problem = self.check(name, code, expected_rows)
        except Exception as err:  # a missing, empty or garbled report
            rows, problem = [], f"reading its reports raised {type(err).__name__}: {err}"
        if problem:
            self.problems.append(f"{name}: {problem}")
        return seconds, rows

    def check(self, name: str, code: int, expected_rows: int) -> tuple[list[dict], str]:
        if code != 0:
            return [], f"exit code {code}"
        raw = self.report(name, ".csv").read_bytes()
        table = list(csv.reader(io.StringIO(raw.decode())))
        if not table or table[0] != CSV_HEADER:
            return [], f"CSV header is {table[0] if table else 'missing'}"
        rows = [dict(zip(CSV_HEADER, r)) for r in table[1:]]
        if len(rows) != expected_rows:
            return [], f"{len(rows)} rows, expected {expected_rows}"
        report = json.loads(self.report(name, ".json").read_text())["rows"]
        for row, full in zip(rows, report):
            row["rerun"] = "candidate_rerun" in full["detail"]
            if row["verdict"] == "Violated" and row["status"] == "proved":
                return rows, f"{row['experiment_id']}: proved statement reported Violated"
            if row["verdict"] == "Violated" and not row["rerun"]:
                return rows, f"{row['experiment_id']}: open Violated row has no rerun record"
        if self.first_csv.setdefault(name, raw) != raw:
            return rows, "CSV changed between repeated runs of the same config"
        return rows, ""

    def report(self, name: str, suffix: str) -> Path:
        """The report with this suffix that config `name` writes."""
        return self.out / (name[: -len(".json")] + suffix)

    def report_bytes(self) -> int:
        """Bytes of the CSV and JSON reports one pass of the configs wrote."""
        paths = [self.report(name, sfx) for name, _ in self.configs for sfx in (".csv", ".json")]
        return sum(p.stat().st_size for p in paths if p.is_file())

    def iteration(self, call=None) -> tuple[float, list[dict]]:
        """CPU seconds in cli.main over one pass of the configs, and its rows."""
        total = 0.0
        rows = []
        for name, expected in self.configs:
            seconds, got = self.run_one(name, expected, call)
            rows += got
            total += seconds
        return total, rows


def relative_margin_variance(rows: list[dict]) -> float:
    """Geometric mean over Monte Carlo rows of (margin stderr / |lhs|)^2.

    Margin stderr is |lhs - rhs| / |z|, whatever stderr the verdict used.
    Rows with infinite z are exact comparisons and are left out.
    """
    logs = []
    for r in rows:
        lhs, rhs, z = float(r["lhs"]), float(r["rhs"]), float(r["z"])
        if math.isinf(z) or z == 0.0 or lhs == 0.0:
            continue
        logs.append(2.0 * math.log(abs(lhs - rhs) / abs(z) / abs(lhs)))
    return math.exp(statistics.fmean(logs)) if logs else math.nan


def _collect(iteration, until: float, minimum: int):
    """Seconds per iteration until wall-clock time `until`, and the rows of
    the last one."""
    samples, rows = [], []
    while len(samples) < minimum or time.perf_counter() + statistics.median(samples) <= until:
        seconds, rows = iteration()
        samples.append(seconds)
    return samples, rows


def timed(workdir: Path, manifest: dict, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    import wishartgpi  # noqa: F401  (timed as cli.import_s)

    import_s = time.perf_counter() - start
    runner = Runner(workdir, manifest)
    name, expected = runner.configs[0]
    runner.run_one(name, expected)  # warm-up: lazy tables and first-touch costs
    if not trace:
        spans = []  # perf_counter interval of each iteration

        def iteration():
            t0 = time.perf_counter()
            result = runner.iteration()
            spans.append((t0, time.perf_counter()))
            return result

        loop_start = time.perf_counter()
        cpu, rows = _collect(iteration, start + seconds, MIN_SAMPLES)
        return {
            "cpu": cpu,
            "spans": spans,
            "wall_clock_s": (time.perf_counter() - loop_start) / len(cpu),
            "variance_factor": relative_margin_variance(rows),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": runner.attempted,
            "problems": runner.problems,
        }
    import layers
    from tracer import Tracer

    per_iter, plain, traced = [], [], []

    def pair():
        """One untraced and one traced pass, back to back, so that host
        drift touches both alike."""
        tracer = Tracer()

        def call(main, argv):
            return tracer.call("cli.main", main, (argv,), {})

        plain.append(runner.iteration()[0])
        with tracer.patched(layers.targets(tracer)):
            seconds_, rows = runner.iteration(call)
        traced.append(seconds_)
        per_iter.append(layers.metrics(tracer, rows, runner.report_bytes()))
        return plain[-1] + seconds_, rows

    _collect(pair, start + seconds, 1)
    layer = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    layer["cli.import_s"] = import_s
    layer["trace.overhead"] = statistics.median(t / p for t, p in zip(traced, plain))
    return {"layers": layer, "attempted": runner.attempted, "problems": runner.problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "gate", "time"))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seconds", type=float, help="measuring time of the time mode")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    manifest = json.loads((args.workdir / "manifest.json").read_text())
    if args.mode == "setup":
        result = setup(args.workdir, manifest)
    elif args.mode == "gate":
        result = gate(args.workdir, manifest)
    else:
        result = timed(args.workdir, manifest, args.seconds, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
