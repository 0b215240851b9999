#!/usr/bin/env python3
"""Parsing the dialog corpus and measuring its label imbalance.

Walks through the on-disk format, per-split statistics, and the
inverse-frequency weights that drive every imbalance control later in
the pipeline.
"""

from pathlib import Path

from ercml import (
    ALL_LABEL_IDS,
    LABEL_NAMES,
    corpus_stats,
    label_weights,
    load_split,
    parse_dialog_line,
)

DATA = Path(__file__).parent.parent / "tests" / "data" / "mini"

# One dialog per line; utterances end with the __eou__ token and the
# label file carries one integer per utterance.
dialog = parse_dialog_line(
    "Guess what , I passed the exam ! __eou__ That is wonderful news ! __eou__",
    "6 4",
    "demo:0",
)
print("parsed dialog:")
for utt in dialog.utterances:
    print(f"  [{LABEL_NAMES[utt.label]:9s}] {utt.text}")

corpus = load_split(DATA, "train")
stats = corpus_stats(corpus)
print(f"\ntrain split: {stats.n_dialogs} dialogs, {stats.n_utterances} utterances")
print(f"utterances per dialog: max {stats.max_utt_per_dialog}, "
      f"mean {stats.mean_utt_per_dialog:.2f} (rounds to {stats.mean_utt_rounded})")

print("\nlabel histogram (neutral dominates, emotions are scarce):")
for lid, name in enumerate(LABEL_NAMES):
    count = stats.label_histogram[lid]
    print(f"  {name:9s} {count:3d}  {'#' * count}")

# The sampler weights invert those frequencies: the rarer the label,
# the more often its utterances are drawn during training.
weights = label_weights(corpus, labels=ALL_LABEL_IDS)
print("\ninverse-frequency sampler weights (sum to 1):")
for lid, w in sorted(weights.items(), key=lambda kv: -kv[1]):
    print(f"  {LABEL_NAMES[lid]:9s} {w:.3f}")
