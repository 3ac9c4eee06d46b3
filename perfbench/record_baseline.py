"""Record the benchmark's baseline: every metric on every workload.

    python3 perfbench/record_baseline.py --seeds 1-10 [--workloads mc-split,...]

Runs ``run.py`` once per seed with tracing off and once with tracing on,
prints each end-to-end metric's median and quartile spread (the distance
between the first and third quartile as a share of the median), and
writes them into ``perfbench/BASELINE.json`` with the machine, each
workload's reason and measured layer shares, and the map of which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT = HERE / "BASELINE.json"

# Self-time metrics that partition one traced iteration by layer.
LAYER_TIMES = {
    "wishart": ["wishart.sample_s"],
    "montecarlo": ["montecarlo.functional_s", "montecarlo.reduce_s"],
    "checks": ["checks.closed_form_s"],
    "bounds": ["bounds.integral_s"],
    "special": ["special.zonal_s", "special.expansion_s"],
    "linalg": ["linalg.s"],
    "harness": ["harness.self_s", "harness.parse_s", "harness.report_s"],
    "cli": ["cli.self_s"],
}

# Which layer metric should move which end-to-end metric, on which workload.
EXPECTED_MOVES = [
    {"layer": ["wishart.sample_s", "wishart.ns_per_draw"], "moves": ["cpu_s", "variance_time"],
     "on": ["mc-split", "eigen-split"], "barely": ["bound-series"]},
    {"layer": ["montecarlo.functional_s"], "moves": ["cpu_s"],
     "on": ["eigen-split", "mc-split"], "unchanged": ["bound-series"]},
    {"layer": ["checks.estimators_per_verdict", "checks.draws_per_verdict"], "moves": ["cpu_s", "variance_time"],
     "on": ["mc-split", "eigen-split", "mixed-kinds"], "unchanged": ["bound-series"]},
    {"layer": ["montecarlo.reduce_s", "montecarlo.worker_busy"], "moves": ["cpu_s"],
     "on": ["mc-split"], "shows_fixed_cost": ["mixed-kinds"],
     "note": "every workload times --workers 1; the pool at --workers 2 runs only in the determinism gate"},
    {"layer": ["bounds.integral_s", "special.zonal_s"], "moves": ["cpu_s"],
     "on": ["bound-series"], "unchanged": ["mc-split", "eigen-split", "mixed-kinds"]},
    {"layer": ["special.expansion_s"], "moves": ["setup_s"], "on": ["bound-series"]},
    {"layer": ["checks.reruns", "checks.closed_form_s", "linalg.s", "harness.self_s", "cli.self_s"],
     "moves": ["cpu_s"], "on": ["mixed-kinds"]},
    {"layer": ["cli.import_s"], "moves": ["setup_s"], "on": list(workloads.NAMES)},
    {"layer": ["peak_rss_mb"], "moves": ["peak_rss_mb"], "on": ["mc-split", "eigen-split"],
     "note": "chunk size and batching"},
]


def run(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        print(proc.stdout, file=sys.stderr)
    return out


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(workloads.NAMES))
    args = ap.parse_args(argv)
    import numpy
    import scipy

    result = json.loads(OUT.read_text()) if OUT.exists() else {}
    result.update({
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "expected_moves": EXPECTED_MOVES,
    })
    result.setdefault("workloads", {})
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name in args.workloads.split(","):
        runs = [run(name, seed, 0) for seed in args.seeds]
        e2e = {}
        for metric, bound in bounds.items():
            e2e[metric] = summary([r["metrics"][metric]["value"] for r in runs])
            e2e[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            flag = "" if e2e[metric]["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"{name:13s} {metric:14s} median {e2e[metric]['median']:.6g} "
                  f"spread {e2e[metric]['spread']:.3f} (bound {bound}){flag}", flush=True)
        e2e["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        traced = run(name, args.seeds[0], 1)["metrics"]
        layer = {k: v["value"] for k, v in traced.items()}
        wall = layer["trace.wall_s"]
        shares = {k: round(sum(layer[m] for m in ms) / wall, 4) for k, ms in LAYER_TIMES.items()}
        print(f"{name:13s} layer shares {shares}", flush=True)
        result["workloads"][name] = {
            "why": workloads.WHY[name],
            "seeds": [args.seeds[0], args.seeds[-1]],
            "end_to_end": e2e,
            "per_layer": layer,
            "layer_shares": shares,
        }
        OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
