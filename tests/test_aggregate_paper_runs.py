"""scripts/aggregate_paper_runs.py: the mean and sample std of seeded runs'
metrics.json files, through `metrics.aggregate_runs`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "aggregate_paper_runs.py"


def run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, env=env, timeout=60)


def test_means_and_stds_of_three_runs(tmp_path):
    runs = [(0.56, 0.50, 0.40), (0.58, 0.50, 0.50), (0.60, 0.50, 0.60)]
    for seed, (macro, micro, mcc) in enumerate(runs):
        path = tmp_path / f"seed-{seed}" / "metrics.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"macro_f1_star": macro, "micro_f1_star": micro, "mcc": mcc, "seed": seed}))
    proc = run(str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"3 runs from {tmp_path}"
    assert lines[1].split() == ["macro_f1_star", "mean", "58.00", "+/-", "2.00", "target", "57.71", "(within", "+/-", "2)"]
    assert lines[2].split() == ["micro_f1_star", "mean", "50.00", "+/-", "0.00", "target", "57.75", "(OUTSIDE", "+/-", "2)"]
    assert lines[3].split() == ["mcc", "mean", "0.50", "+/-", "0.10", "target", "0.49", "(within", "+/-", "0.02)"]


def test_usage_error_exits_two():
    proc = run()
    assert proc.returncode == 2
    assert "Usage: aggregate_paper_runs.py RUNS_DIR" in proc.stderr


def test_no_runs_exits_one(tmp_path):
    (tmp_path / "seed-0").mkdir()
    proc = run(str(tmp_path))
    assert proc.returncode == 1
    assert f"no seed-*/metrics.json under {tmp_path}" in proc.stderr
    assert proc.stdout == ""
