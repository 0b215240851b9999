#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against a change.

Usage:
    python3 scripts/bench_pairs.py --parent REV --name NAME
        [--workloads train-wr train-ba] [--seeds 201-210] [--workdir DIR]

Exports the parent tree with `git archive` and the change as the working
tree's tracked and unignored files. Then, for each workload and seed,
runs `perfbench/run.py --trace 0` once in each tree, for the run length
BENCHMARK.json sets, alternating which side runs first from one pair to
the next. Writes BENCH_<NAME>.json at the repository root, rewritten after
every pair: each side's run record, every run's result, the per-pair
values of each end-to-end metric, each side's median and quartiles, the
parent's interquartile range as a share of its median, and the change's
wins, losses and ties (direction from BENCHMARK.json). A metric's
`gain_shown` is true when the change wins at least nine tenths of the
pairs and the medians differ, in its favour, by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def export_rev(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run; its run record and its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("run_record ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {
        "run_record": record,
        "returncode": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
    both = [(a, b) for a, b in both if a is not None and b is not None]
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": [a for a, _ in both], "change": [b for _, b in both]}
    if not both:
        return out
    wins = sum((b > a) if higher else (b < a) for a, b in both)
    ties = sum(a == b for a, b in both)
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(out["parent"]), quartiles(out["change"])
    gain = (cmed - pmed) if higher else (pmed - cmed)
    out.update({
        "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
        "parent_iqr_share": (pq3 - pq1) / pmed if pmed else None,
        "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
        "change_vs_parent": cmed / pmed - 1.0 if pmed else None,
        "wins": wins, "losses": len(both) - wins - ties, "ties": ties,
        "gain_shown": wins >= 0.9 * len(both) and gain > pq3 - pq1,
    })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--workloads", nargs="+", default=["train-wr", "train-ba"])
    ap.add_argument("--seeds", nargs="+", default=["201-210"], help="seeds or lo-hi ranges")
    ap.add_argument("--workdir", default=None, help="where the trees are exported (default: a temporary directory)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    out_path = ROOT / f"BENCH_{args.name}.json"
    seconds = bench["run_seconds"]
    revs = {"parent": git("rev-parse", args.parent).strip(), "change": "working tree"}
    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        trees = {side: Path(work) / side for side in SIDES}
        export_rev(revs["parent"], trees["parent"])
        export_worktree(trees["change"])

        doc = {"name": args.name, "seconds": seconds,
               "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
               **{side: {"rev": revs[side], "run_record": None} for side in SIDES},
               "workloads": {}}
        order = 0
        for workload in args.workloads:
            pairs = []
            for seed in seeds:
                sides = SIDES if order % 2 == 0 else SIDES[::-1]
                order += 1
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    pair[side] = run_once(trees[side], workload, seed, seconds)
                    doc[side]["run_record"] = doc[side]["run_record"] or pair[side]["run_record"]
                    print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()), flush=True)
                pairs.append(pair)
                doc["workloads"][workload] = {
                    "pairs": pairs,
                    "metrics": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
                }
                out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, w in doc["workloads"].items():
        for name, s in w["metrics"].items():
            if "parent_median" in s:
                share = "n/a" if s["parent_iqr_share"] is None else f"{s['parent_iqr_share']:.1%}"
                print(f"{workload} {name}: parent {s['parent_median']:.4g} [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}]"
                      f" (IQR {share} of median) change {s['change_median']:.4g} [{s['change_q1']:.4g}, {s['change_q3']:.4g}]"
                      f" wins {s['wins']}/{len(s['parent'])} gain_shown={s['gain_shown']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
