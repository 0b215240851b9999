#!/usr/bin/env python3
"""Average the metrics of seeded full-scale runs against the targets.

Usage: aggregate_paper_runs.py RUNS_DIR

Reads every RUNS_DIR/seed-*/metrics.json, prints per-metric mean and
sample standard deviation (`ercml.metrics.aggregate_runs`), and compares
the means to the published full-scale targets (57.71 macroF1* / 57.75
microF1* / 0.49 MCC) with the +/- 2.0 point tolerance. Needs `ercml`
importable, e.g. PYTHONPATH=src. Informational only; never part of CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ercml.metrics import aggregate_runs

TARGETS = {"macro_f1_star": 57.71, "micro_f1_star": 57.75, "mcc": 0.49}
TOLERANCE_POINTS = 2.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs_dir = Path(sys.argv[1])
    docs = [json.loads(path.read_text()) for path in sorted(runs_dir.glob("seed-*/metrics.json"))]
    if not docs:
        print(f"no seed-*/metrics.json under {runs_dir}", file=sys.stderr)
        return 1
    summary = aggregate_runs(docs)
    print(f"{summary.n_runs} runs from {runs_dir}")
    for metric, target in TARGETS.items():
        # F1 fields are stored as fractions; targets quoted in percent
        scale = 100.0 if metric != "mcc" else 1.0
        tol = TOLERANCE_POINTS if metric != "mcc" else TOLERANCE_POINTS / 100.0
        mean = scale * summary.mean[metric]
        std = scale * summary.std[metric]
        verdict = "within" if abs(mean - target) <= tol else "OUTSIDE"
        print(f"{metric:15s} mean {mean:6.2f} +/- {std:5.2f}   "
              f"target {target:6.2f} ({verdict} +/- {tol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
