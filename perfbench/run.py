"""wishartgpi benchmark: seconds and variance x time to a verdict.

    python3 perfbench/run.py --workload mc-split --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload's configs are generated from
--seed and run through ``wishartgpi.cli.main(["run", ...])`` in child
interpreters, with every report checked. With --trace 0 the last line
holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run. Lines before it print each metric with its unit,
``failed_share`` and the wall-clock seconds per iteration.

End-to-end times are CPU seconds of the process that runs the configs
(see ``measure.CLOCK``), scaled to a host of fixed speed: while the timed
child and each set-up probe run, this process reads a fixed reference
kernel (``reference.py``) every READ_EVERY_S seconds and multiplies the
child's seconds by REFERENCE_S / (median reading), taking for each timed
iteration the readings made while it ran. Per-layer times are raw
wall-clock seconds of the traced spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
READ_EVERY_S = 0.2
# Children run BLAS on one thread. Its idle threads otherwise spin on the
# spare processor, where they add to the child's CPU seconds and slow the
# reference readings; with them, CPU seconds per iteration of mixed-kinds
# exceeded its wall-clock seconds.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Every child must have ended this many seconds after the run started.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def child(mode: str, workdir: Path, *extra: str, read: bool = False) -> tuple[dict, list]:
    """Run one ``measure.py`` mode in a fresh interpreter; its result, and
    if `read` the (perf_counter time, kernel seconds) readings taken while
    it ran."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), **ONE_THREAD)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), mode, "--workdir", str(workdir), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=workdir,
    )
    readings = []
    while True:
        try:
            out, err = proc.communicate(timeout=READ_EVERY_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() > STARTED + DEADLINE_S:
                proc.kill()
                proc.communicate()
                raise
            if read:
                readings.append((time.perf_counter(), reference.kernel()))
    if proc.returncode != 0:
        raise ChildFailed(f"measure.py {mode} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), readings


def scale(readings: list, start: float = -math.inf, end: float = math.inf) -> float:
    """Factor that takes CPU seconds measured from `start` to `end` to the
    reference host: from the readings in that window, or from all of them
    when none falls inside."""
    inside = [r for t, r in readings if start <= t <= end] or [r for _, r in readings]
    return reference.REFERENCE_S / statistics.median(inside)


def write_workload(workdir: Path, name: str, seed: int) -> None:
    """Write the workload's config files and the manifest the children read."""
    wl = workloads.build(name, seed)
    for fname, text in wl.files().items():
        (workdir / fname).write_text(text)
    manifest = {
        "workload": name,
        "seed": seed,
        "configs": [f"{c['output_path']}.json" for c in wl.configs],
        "rows": wl.rows,
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) >= 1000:
            return f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f} s"
    return " (too few for a tail percentile)"


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: Path):
    """(metrics with units, attempted, failed, problems) for one run.

    Every config run, priming pass and gate is one attempted operation;
    each failed operation reports one problem.
    """
    write_workload(workdir, name, seed)
    gate, _ = child("gate", workdir)
    timed, readings = child("time", workdir, "--seconds", str(seconds), *(["--trace"] if trace else []),
                            read=not trace)
    attempted = gate["attempted"] + timed["attempted"]
    failed = gate["failed"] + len(timed["problems"])
    problems = gate["problems"] + timed["problems"]
    if trace:
        metrics = {k: (v, layers.PER_LAYER[k][0]) for k, v in timed["layers"].items()}
        return metrics, attempted, failed, problems
    setups = []
    for _ in range(SETUP_PROBES):
        probe, probe_readings = child("setup", workdir, read=True)
        attempted += 1
        if probe["problem"]:
            failed += 1
            problems.append(f"set-up: {probe['problem']}")
        setups.append(probe["setup_s"] * scale(probe_readings))
    cpu = [c * scale(readings, *span) for c, span in zip(timed["cpu"], timed["spans"])]
    cpu_s = statistics.median(cpu)
    print(f"reference kernel: median {statistics.median(r for _, r in readings) * 1e3:.2f} ms over "
          f"{len(readings)} readings; CPU seconds are scaled to a {reference.REFERENCE_S * 1e3:g} ms kernel")
    print(f"cpu_s: median {cpu_s:.4f} s over {len(cpu)} iterations{tail_percentile(cpu)}")
    print("iterations_s: " + " ".join(f"{c:.3f}" for c in cpu))
    print(f"raw: CPU {statistics.median(timed['cpu']):.4f} s and wall-clock {timed['wall_clock_s']:.4f} s "
          "per iteration (wall-clock includes report checks)")
    print("set-up probes_s: " + " ".join(f"{x:.4f}" for x in setups))
    print(f"variance_factor: {timed['variance_factor']:.6g} (geometric mean of (margin se / |lhs|)^2)")
    metrics = {
        "cpu_s": (cpu_s, "s"),
        "variance_time": (cpu_s * timed["variance_factor"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wishartgpi benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wishartgpi" / "__init__.py").is_file():
        print(f"no wishartgpi sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        metrics, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except (ChildFailed, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"FAILED: {p}")
    print(f"failed_share: {failed / attempted:.4g} ({failed} of {attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
