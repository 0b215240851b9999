#!/usr/bin/env python3
"""Byte-identity check of a change against its parent commit.

Usage:
    python3 scripts/byte_identity.py [--parent REV] [--workdir DIR]

Exports the parent tree with `git archive` and the change as the working
tree's tracked and unignored files (the export functions of
bench_pairs.py). In each tree, with the tree as the working directory and
the same relative paths on the command line, it runs `ercml` on the
fixture corpus under tests/data/mini:

- `train --epochs 1 --max-steps 5 --pretrain-steps 10 --seed 7` (the C13
  recipe) for each sampling strategy and `--label-space` 7 and 6;
- `pretrain` with the same flags, then the C13 recipe with one setting
  changed: `--encoder-layers 2`, `--loss-mode summed`,
  `--distance cosine`, `--no-weighted-ce --no-weighted-sampler`,
  `--classifier` with the pretrained classifier, `--triplets-per-batch 3`
  (weighted-random draws other than one per row) and
  `--no-triplet-enabled` (cross-entropy-only cycles);
- `train --config` on a config file that sets the paths, the C13
  settings and `grad_clip = none`, with `--seed 8` overriding the file's
  seed;
- on each trained model, `eval` (default and `--neutral-policy drop`)
  and `predict`, and on each 7-label model also
  `eval --neutral-policy include` (a 6-label model has no neutral to
  include, and exits 1 on it);
- `stats --out` and `sample-triplets --out` on the train split, the
  latter also with `--include-neutral --smooth-counts 2 --seed 5
  --count 50`;
- `llm-eval` on a replay fixture under both unparsable policies.

Both trees get the same inputs: the hash-embedding store is built once
with the parent's code, and the replay fixture and the config file are
written by this script. Every file the runs leave is then compared
between the trees, with each command's exit code, stdout and stderr. An
`.npz` is compared member by member, since the zip container stamps each
member with its write time; a differing numeric member is printed with
its largest absolute difference and that difference relative to the
parent's largest entry, which is the tolerance a change of summation
order needs; a differing `__meta__.npy` is printed with the top-level
metadata keys whose values differ.
Prints every difference and exits 1 on any, or when a command fails;
exits 0 when the trees agree byte for byte. The summary line also gives
the line counts of each tree's `src/ercml/*.py` and `src/ercml/*.c`,
parent -> change, as `cat src/ercml/*.py | wc -l` counts them.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, export_rev, export_worktree, git

DATA = "tests/data/mini"
OUT = "byte-identity"
STORE = f"{OUT}/store.jsonl"
REPLAY = f"{OUT}/replay.jsonl"
CONFIG = f"{OUT}/run.cfg"
TRAIN = ["--epochs", "1", "--max-steps", "5", "--pretrain-steps", "10", "--seed", "7"]
STRATEGIES = ("weighted-random", "batch-all", "batch-hard")
LABEL_SPACES = ("7", "6")
PRETRAIN = f"{OUT}/pretrain"
# Train runs that each change one setting of the C13 recipe.
VARIANTS = {
    "layers-2": ["--encoder-layers", "2"],
    "summed": ["--loss-mode", "summed"],
    "cosine": ["--distance", "cosine"],
    "unweighted": ["--no-weighted-ce", "--no-weighted-sampler"],
    "pretrained": ["--classifier", f"{PRETRAIN}/classifier.npz"],
    "triplets-3": ["--triplets-per-batch", "3"],
    "ce-only": ["--no-triplet-enabled"],
}
LLM_POLICIES = ("count-as-wrong", "map-to-neutral")
# The C13 recipe as a config file, without gradient clipping.
CONFIG_TEXT = f"""[paths]
data = {DATA}
store = {STORE}
[train]
epochs = 1
max_steps = 5
pretrain_steps = 10
seed = 7
grad_clip = none
"""

# The C13 store: 16-dim hash embeddings of all three fixture splits.
MAKE_STORE = f"""
from ercml import Corpus, hash_store_for_corpus, load_split, save_sentence_embeddings
dialogs = [d for split in ("train", "validation", "test") for d in load_split({DATA!r}, split).dialogs]
store = hash_store_for_corpus(Corpus(split="train", dialogs=tuple(dialogs)), dim=16, seed=0)
save_sentence_embeddings(store, {STORE!r})
"""

# Replay outputs for the fixture's first five test dialogs: a label in a
# sentence, upper case, two labels, and two unparsable answers; "*"
# answers the sixth.
REPLAY_TEXTS = ("I think it is happiness.", "ANGER, clearly", "no idea", "Surprise or fear?", "sad-ish")


def scored_run(run: str, train: list[str], space: str = "7") -> list[list[str]]:
    """`train` with the arguments `train` into `run`, then the scoring
    commands on its model; `space` is the label space `train` sets."""
    model = ["--model", f"{run}/model.npz", "--data", DATA, "--store", STORE, "--split", "test"]
    out = [
        ["train", *train, "--out", run],
        ["eval", *model, "--out", f"{run}/eval.json"],
        ["eval", *model, "--neutral-policy", "drop", "--out", f"{run}/eval_drop.json"],
        ["predict", *model, "--out", f"{run}/predictions.jsonl"],
    ]
    if space == "7":
        out.append(["eval", *model, "--neutral-policy", "include", "--out", f"{run}/eval_neutral.json"])
    return out


def commands() -> list[list[str]]:
    """Every `ercml` argument list the check runs, in order."""
    c13 = ["--data", DATA, "--store", STORE, *TRAIN]
    out = []
    for strategy in STRATEGIES:
        for space in LABEL_SPACES:
            out += scored_run(f"{OUT}/{strategy}-{space}",
                              [*c13, "--sampling-strategy", strategy, "--label-space", space], space)
    out.append(["pretrain", "--data", DATA, "--store", STORE, "--out", PRETRAIN, *TRAIN])
    for name, flags in VARIANTS.items():
        out += scored_run(f"{OUT}/{name}", [*c13, *flags, "--label-space", "7"])
    out += scored_run(f"{OUT}/config-file", ["--config", CONFIG, "--seed", "8"])
    out += [
        ["stats", "--data", DATA, "--out", f"{OUT}/stats.txt"],
        ["sample-triplets", "--data", DATA, "--out", f"{OUT}/triplets.jsonl"],
        ["sample-triplets", "--data", DATA, "--include-neutral", "--smooth-counts", "2", "--seed", "5",
         "--count", "50", "--out", f"{OUT}/triplets-neutral.jsonl"],
    ]
    for policy in LLM_POLICIES:
        out.append(["llm-eval", "--data", DATA, "--split", "test", "--replay", REPLAY,
                    "--policy", policy, "--parallelism", "2", "--out", f"{OUT}/llm-{policy}"])
    return out


def python(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=600)


def run_tree(tree: Path) -> list[str]:
    """Runs every command in `tree`; records each one's exit code and
    output under OUT/commands. Returns the commands that failed."""
    log_dir = tree / OUT / "commands"
    log_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for i, args in enumerate(commands()):
        proc = python(tree, ["-m", "ercml.cli", *args])
        (log_dir / f"{i:02d}-{args[0]}.txt").write_text(
            f"$ ercml {' '.join(args)}\nexit {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}", encoding="utf-8")
        if proc.returncode != 0:
            failed.append(f"{tree.name}: exit {proc.returncode}: ercml {' '.join(args)}\n{proc.stderr[-2000:]}")
    return failed


def npz_members(data: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def member_difference(name: str, a: bytes | None, b: bytes | None) -> str:
    """" (max abs X, max rel Y)" for two numeric `.npy` members of one
    shape, Y being X over the parent member's largest absolute entry;
    " (meta keys: K, ...)" for two checkpoint metadata members, naming
    the top-level keys whose values differ; "" for anything else."""
    try:
        x, y = (np.load(io.BytesIO(m), allow_pickle=False) for m in (a, b))
    except (TypeError, ValueError, EOFError):
        return ""
    if name == "__meta__.npy":  # a checkpoint's JSON metadata object
        mx, my = (json.loads(str(m)) for m in (x, y))
        keys = sorted(k for k in mx.keys() | my.keys() if k not in mx or k not in my or mx[k] != my[k])
        return f" (meta keys: {', '.join(keys)})"
    if x.shape != y.shape or x.size == 0 or x.dtype.kind not in "fiu" or y.dtype.kind not in "fiu":
        return ""
    diff = float(np.abs(x.astype(float) - y).max())
    scale = float(np.abs(x).max())
    return f" (max abs {diff:.3g}, max rel {diff / scale if scale else float('inf'):.3g})"


def src_lines(tree: Path) -> dict[str, int]:
    """Newline counts of the `src/ercml/*.py` and `src/ercml/*.c` files
    of `tree`, summed per suffix: {"py": n, "c": m}."""
    return {kind: sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "ercml").glob(f"*.{kind}"))
            for kind in ("py", "c")}


def compare(parent: Path, change: Path) -> list[str]:
    """One message per file that is missing on a side or differs."""
    names = {p.relative_to(root) for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    diffs = []
    for name in sorted(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{name}: only in the {'parent' if a.is_file() else 'change'}")
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if name.suffix == ".npz":
            ma, mb = npz_members(da), npz_members(db)
            bad = sorted(k for k in ma.keys() | mb.keys() if ma.get(k) != mb.get(k))
            if bad:
                diffs.append(f"{name}: members differ: "
                             + ", ".join(k + member_difference(k, ma.get(k), mb.get(k)) for k in bad))
        elif da != db:
            lines = difflib.unified_diff(
                da.decode("utf-8", "replace").splitlines(), db.decode("utf-8", "replace").splitlines(),
                "parent", "change", lineterm="", n=1)
            diffs.append(f"{name}:\n" + "\n".join(list(lines)[:40]))
    return diffs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="parent commit (default: HEAD)")
    ap.add_argument("--workdir", default=None, help="where the trees are exported (default: a temporary directory)")
    args = ap.parse_args(argv)

    rev = git("rev-parse", args.parent).strip()
    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        trees = {side: Path(work) / side for side in SIDES}
        export_rev(rev, trees["parent"])
        export_worktree(trees["change"])
        for tree in trees.values():
            (tree / OUT).mkdir()
        made = python(trees["parent"], ["-c", MAKE_STORE])
        if made.returncode != 0:
            sys.stderr.write(made.stderr)
            return 1
        (trees["change"] / STORE).write_bytes((trees["parent"] / STORE).read_bytes())
        replay = [{"key": f"test:{i}", "text": text} for i, text in enumerate(REPLAY_TEXTS)]
        replay.append({"key": "*", "text": "fear"})
        for tree in trees.values():
            (tree / REPLAY).write_text("".join(json.dumps(r) + "\n" for r in replay), encoding="utf-8")
            (tree / CONFIG).write_text(CONFIG_TEXT, encoding="utf-8")
        failed = [msg for side in SIDES for msg in run_tree(trees[side])]
        diffs = compare(trees["parent"] / OUT, trees["change"] / OUT)
        n_files = sum(1 for p in (trees["change"] / OUT).rglob("*") if p.is_file())
        lines = {side: src_lines(tree) for side, tree in trees.items()}
    for msg in failed + diffs:
        print(msg)
    print(f"parent {rev[:12]} vs working tree: {len(commands())} commands per tree, {n_files} files compared, "
          f"{len(failed)} failed commands, {len(diffs)} differences; src/ercml lines: "
          + ", ".join(f"*.{kind} {lines['parent'][kind]} -> {lines['change'][kind]}" for kind in ("py", "c")))
    return 1 if failed or diffs else 0


if __name__ == "__main__":
    sys.exit(main())
