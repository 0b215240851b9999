"""scripts/bench_pairs.py: `summarize`'s per-metric tally and the gain rule
a performance change is judged by, on synthetic pairs; and `run_once`'s
counters and timeout, on fake trees whose `perfbench/run.py` is a stub."""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 and 106.75
PARENT_IQR = 4.5


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    return bench_pairs


@pytest.fixture
def summarize(bench_pairs):
    return bench_pairs.summarize


def metric(better: str) -> dict:
    return {"name": "m", "unit": "s", "better": better, "bound": 0.25}


def pairs_of(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"metrics": {"m": a}}, "change": {"metrics": {"m": b}}} for a, b in zip(parent, change)]


def toward(better: str, value: float, gap: float) -> float:
    """`value` moved by `gap` in the direction `better` calls a gain."""
    return value - gap if better == "lower" else value + gap


@pytest.mark.parametrize("better, tally", [("lower", (2, 1, 1)), ("higher", (1, 2, 1))])
def test_wins_losses_and_ties_follow_the_direction(summarize, better, tally):
    out = summarize(pairs_of([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]), metric(better))
    assert (out["wins"], out["losses"], out["ties"]) == tally
    assert out["parent"] == [1.0, 2.0, 3.0, 4.0]
    assert out["change"] == [0.5, 2.0, 3.5, 3.0]


def test_pairs_missing_the_metric_are_left_out(summarize):
    pairs = pairs_of([1.0, 2.0], [0.5, 1.0]) + [{"parent": {"metrics": {}}, "change": {"metrics": {"m": 1.0}}}]
    out = summarize(pairs, metric("lower"))
    assert (out["wins"], out["losses"], out["ties"]) == (2, 0, 0)
    assert "gain_shown" not in summarize(pairs[2:], metric("lower"))


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_eight_of_ten_wins_show_no_gain_however_large(summarize, better):
    change = [toward(better, v, 20.0) for v in PARENT[:8]] + [toward(better, v, -1.0) for v in PARENT[8:]]
    out = summarize(pairs_of(PARENT, change), metric(better))
    assert out["wins"] == 8
    assert abs(out["change_median"] - out["parent_median"]) > 3 * PARENT_IQR
    assert out["gain_shown"] is False


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_gap_equal_to_the_parent_iqr_shows_no_gain(summarize, better):
    out = summarize(pairs_of(PARENT, [toward(better, v, PARENT_IQR) for v in PARENT]), metric(better))
    assert out["wins"] == 10
    assert out["parent_q3"] - out["parent_q1"] == PARENT_IQR
    assert abs(out["change_median"] - out["parent_median"]) == PARENT_IQR
    assert out["gain_shown"] is False


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_nine_of_ten_wins_with_a_larger_gap_show_a_gain(summarize, better):
    change = [toward(better, v, 10.0) for v in PARENT[:9]] + [toward(better, PARENT[9], -1.0)]
    out = summarize(pairs_of(PARENT, change), metric(better))
    assert (out["wins"], out["losses"], out["ties"]) == (9, 1, 0)
    assert out["gain_shown"] is True


def test_parent_iqr_share_is_the_iqr_over_the_median(summarize):
    out = summarize(pairs_of(PARENT, PARENT), metric("lower"))
    assert out["parent_median"] == 104.5
    assert out["parent_iqr_share"] == PARENT_IQR / 104.5
    assert (out["wins"], out["ties"], out["gain_shown"]) == (0, 10, False)


RESULT = 'print(\'{"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"value": 1.5}}}\')\n'


def fake_tree(root: Path, body: str) -> Path:
    """A tree whose `perfbench/run.py` runs `body` and then prints a
    passing result line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body + RESULT)
    return root


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mmap threshold and Linux fault counts")
def test_counters_show_a_child_that_frees_and_refaults_memory(bench_pairs, tmp_path):
    # 40 MB is above glibc's largest adaptive mmap threshold (32 MB), so
    # each array is mapped afresh, zeroed page by page and unmapped again.
    idle = fake_tree(tmp_path / "idle", "")
    churn = fake_tree(tmp_path / "churn", "for _ in range(25):\n    block = bytearray(40 << 20)\n    del block\n")
    quiet, busy = (bench_pairs.run_once(tree, "w", 1, 1.0) for tree in (idle, churn))
    for run in (quiet, busy):
        assert (run["returncode"], run["correct"], run["metrics"]) == (0, True, {"m": 1.5})
        assert set(run["counters"]) == {"user_s", "sys_s", "minor_faults"}
    assert busy["counters"]["minor_faults"] > quiet["counters"]["minor_faults"] + 100_000  # 25 x 10,240 pages
    assert busy["counters"]["sys_s"] > quiet["counters"]["sys_s"]


def test_a_run_past_its_timeout_is_recorded_and_the_series_goes_on(bench_pairs, tmp_path, monkeypatch):
    # The parent's run sleeps past a 1 s timeout at both seeds; the change's
    # runs still happen and every run, killed or not, is written down.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.1,
        "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.25}],
    }))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc\n")
    monkeypatch.setattr(bench_pairs, "export_rev", lambda rev, dest: fake_tree(dest, "import time\ntime.sleep(60)\n"))
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda dest: fake_tree(dest, ""))
    monkeypatch.setattr(bench_pairs, "run_once", functools.partial(bench_pairs.run_once, timeout=1.0))
    started = time.monotonic()
    assert bench_pairs.main(["--parent", "abc", "--name", "t", "--workloads", "w", "--seeds", "1-2",
                             "--workdir", str(tmp_path)]) == 0
    assert time.monotonic() - started < 30
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    pairs = doc["workloads"]["w"]["pairs"]
    assert [p["seed"] for p in pairs] == [1, 2]
    for pair in pairs:
        assert (pair["parent"]["returncode"], pair["parent"]["correct"], pair["parent"]["metrics"]) == (None, False, {})
        assert (pair["change"]["returncode"], pair["change"]["correct"]) == (0, True)
        assert pair["change"]["metrics"] == {"m": 1.5}
        assert set(pair["parent"]["counters"]) == {"user_s", "sys_s", "minor_faults"}
    assert doc["workloads"]["w"]["metrics"]["m"]["change"] == []


def test_counters_are_summarized_without_a_gain_rule(summarize):
    pairs = [{side: {"counters": {"sys_s": v}} for side, v in (("parent", a), ("change", b))}
             for a, b in zip(PARENT, [v - 10.0 for v in PARENT])]
    out = summarize(pairs, {"name": "sys_s", "unit": "s", "better": "lower", "bound": None}, "counters")
    assert (out["wins"], out["parent_median"], out["change_median"]) == (10, 104.5, 94.5)
    assert "gain_shown" not in out
