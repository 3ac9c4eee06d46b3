#!/usr/bin/env python3
"""End-to-end tour of the experiment harness and its file formats.

A JSON config names one inequality and a grid of scale matrices; run()
expands it into one report row per (matrix, split, bound side), each
carrying a verdict and the exact sample count behind it. The same rows
serialize to a fixed-column CSV sheet and a richer JSON document, and
the process exit code summarizes the worst thing that happened. The
CLI (`wishart-gpi run --config cfg.json`) is a thin shell around the
calls made below.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from wishartgpi import parse_config, run, write_reports
from wishartgpi.harness import exit_code_for, render_csv

CONFIG = {
    "schema_version": 1,
    "inequality_id": "sandwich",
    "d": 2,
    "block_sizes": [1, 2],
    "alpha": 8.0,
    "exponents": {"values": [0.5, 0.8], "signs": [-1, -1]},
    "bound": "both",
    "split": "all",
    "n_samples": 40000,
    "seed": 5,
    "sigma_source": {"kind": "random", "count": 2},
}


def main() -> int:
    cfg = parse_config(CONFIG)
    rows = run(cfg)

    # 2 random matrices x 1 admissible split x 2 bound sides = 4 rows
    print(f"{len(rows)} rows from {CONFIG['sigma_source']['count']} scale matrices:")
    for r in rows:
        print(
            f"  {r.experiment_id:<22} sigma={r.sigma_digest}  {r.verdict:<8}"
            f" z={r.z:8.2f}  status={r.status}"
        )

    # rows are a function of the config and its seed alone
    again = run(cfg)
    same = render_csv(rows) == render_csv(again)
    print(f"\nre-run renders identical CSV: {same}")

    csv_text = render_csv(rows)
    head = csv_text.splitlines()
    print(f"\nCSV header:\n  {head[0]}")
    print(f"first row:\n  {head[1]}")

    # write_reports picks the output directory (or WISHARTGPI_OUTPUT_DIR)
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["WISHARTGPI_OUTPUT_DIR"] = tmp
        try:
            csv_path, json_path = write_reports(cfg, rows)
        finally:
            del os.environ["WISHARTGPI_OUTPUT_DIR"]
        doc = json.loads(Path(json_path).read_text())
        print(f"\nwrote {Path(csv_path).name} and {Path(json_path).name}")
        print(f"JSON doc keys: {sorted(doc)}; per-row extras: wall_time_ms, sigma, detail")

    # 0 = clean, 1 = config rejected, 2 = a proved statement failed its rerun
    print(f"\nexit code for this run: {exit_code_for(rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
