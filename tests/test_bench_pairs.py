"""scripts/bench_pairs.py's `summarize`: the per-metric tally and the gain
rule a performance change is judged by, on synthetic pairs."""

from __future__ import annotations

from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 and 106.75
PARENT_IQR = 4.5


@pytest.fixture
def summarize(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

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
