"""Seeded DailyDialog-shaped inputs for the benchmark.

Writes three corpus splits in the DailyDialog file format and a
sentence-embedding store in the JSONL exchange format. The program under
test only ever sees these files. The same (sizes, dim, seed) always gives
byte-identical files.

Shape choices, each made so that run-to-run differences come from the
code and not from the draw:

* dialog lengths are a fixed multiset spanning 2..14 utterances (mean
  about 7.9, like DailyDialog), shuffled by the seed, so every seed has
  the same utterance count;
* labels are a fixed per-split histogram with DailyDialog's shares
  (about 83% neutral and a rare tail down to fear at 0.17%), with a floor
  per emotion so every class is present, shuffled by the seed;
* the store is label-informative: each vector is a class direction plus
  a dialog topic plus isotropic noise, and a fifth of the utterances show
  another class's direction. Classes overlap, so quality sits between
  chance and 1.0 and a broken gradient shows.

Run as a script to write the files:
    python3 perfbench/gen.py OUT_DIR --train N --validation N --test N --dim D --seed S
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

EOU = "__eou__"

# DailyDialog label totals over all splits, label ids 0..6
# (neutral, anger, disgust, fear, happiness, sadness, surprise).
DAILYDIALOG_COUNTS = (85572, 1022, 353, 174, 12885, 1150, 1823)

# Relative frequency of dialog lengths 2..14.
LENGTH_PROFILE = (1, 2, 5, 6, 9, 10, 12, 11, 10, 8, 6, 5, 4)
MIN_LEN = 2

# Vector = CLASS_SIGNAL * class direction + TOPIC_SIGNAL * dialog topic + noise,
# where a CONFUSED share of utterances shows a random class's direction. The
# result is scaled to norm sqrt(dim), the scale of the layer-normed vectors the
# encoder emits, so the pretrained head still reads the encoder's output.
CLASS_SIGNAL = 0.6
TOPIC_SIGNAL = 0.35
CONFUSED = 0.2
# Each emotion gets at least this share of a split (and 3 utterances), so the
# rare labels' F1 rests on more than one or two examples.
FLOOR_SHARE = 0.008
VOCAB = 2000


def dialog_lengths(n_dialogs: int, rng: np.random.Generator) -> list[int]:
    """A fixed multiset of n lengths (profile quantiles), seed-shuffled."""
    cdf = np.cumsum(LENGTH_PROFILE) / sum(LENGTH_PROFILE)
    quantiles = (np.arange(n_dialogs) + 0.5) / n_dialogs
    lengths = MIN_LEN + np.searchsorted(cdf, quantiles)
    return [int(x) for x in rng.permutation(lengths)]


def label_counts(n_utt: int) -> list[int]:
    """DailyDialog label shares over n_utt, with a floor for every emotion."""
    total = sum(DAILYDIALOG_COUNTS)
    floor = max(3, round(FLOOR_SHARE * n_utt))
    counts = [max(floor, round(n_utt * c / total)) for c in DAILYDIALOG_COUNTS]
    counts[0] = n_utt - sum(counts[1:])
    if counts[0] < 1:
        raise ValueError(f"{n_utt} utterances are too few for the label floors")
    return counts


def make_split(n_dialogs: int, rng: np.random.Generator) -> list[list[int]]:
    """Per-dialog label sequences for one split."""
    lengths = dialog_lengths(n_dialogs, rng)
    counts = label_counts(sum(lengths))
    labels = rng.permutation(np.repeat(np.arange(7), counts))
    out, start = [], 0
    for n in lengths:
        out.append([int(x) for x in labels[start:start + n]])
        start += n
    return out


def utterance_text(rng: np.random.Generator) -> str:
    words = rng.integers(0, VOCAB, size=int(rng.integers(4, 22)))
    return " ".join(f"w{w}" for w in words) + " ."


def write_split(directory: Path, split: str, dialogs: list[list[int]], rng: np.random.Generator) -> None:
    """Flattened DailyDialog layout: dialogues_<split>.txt + dialogues_emotion_<split>.txt."""
    with (directory / f"dialogues_{split}.txt").open("w", encoding="utf-8") as tf, \
            (directory / f"dialogues_emotion_{split}.txt").open("w", encoding="utf-8") as lf:
        for labels in dialogs:
            tf.write("".join(f" {utterance_text(rng)} {EOU}" for _ in labels) + "\n")
            lf.write(" ".join(str(x) for x in labels) + " \n")


def write_store(path: Path, splits: dict[str, list[list[int]]], dim: int, rng: np.random.Generator) -> int:
    """JSONL export keyed "<split>:<line>#<index>", header first. Returns the vector count."""
    directions = rng.standard_normal((7, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provider": "perfbench-synthetic", "dim": dim}) + "\n")
        for split, dialogs in splits.items():
            for line, labels in enumerate(dialogs):
                topic = rng.standard_normal(dim) / np.sqrt(dim)
                noise = rng.standard_normal((len(labels), dim)) / np.sqrt(dim)
                shown = np.where(rng.random(len(labels)) < CONFUSED, rng.integers(0, 7, len(labels)), labels)
                vecs = CLASS_SIGNAL * directions[shown] + TOPIC_SIGNAL * topic + noise
                vecs *= np.sqrt(dim) / np.linalg.norm(vecs, axis=1, keepdims=True)
                for i, vec in enumerate(vecs):
                    fh.write(json.dumps({"key": f"{split}:{line}#{i}", "vector": vec.tolist()}) + "\n")
                    n += 1
    return n


def generate(out_dir: str | Path, sizes: dict[str, int], dim: int, seed: int) -> int:
    """Write every split of `sizes` ({split: n_dialogs}) and a store covering them all."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, dim])
    splits = {split: make_split(n, rng) for split, n in sizes.items()}
    for split, dialogs in splits.items():
        write_split(out, split, dialogs, rng)
    return write_store(out / "store.jsonl", splits, dim, rng)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    for split in ("train", "validation", "test"):
        ap.add_argument(f"--{split}", type=int, required=True, help="dialogs in the split")
    ap.add_argument("--dim", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sizes = {"train": args.train, "validation": args.validation, "test": args.test}
    n = generate(args.out_dir, sizes, args.dim, args.seed)
    print(json.dumps({"vectors": n}))


if __name__ == "__main__":
    main()
