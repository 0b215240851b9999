#!/usr/bin/env python3
"""The evaluation conventions, worked through on small matrices.

macroF1*/microF1* exclude neutral from the per-label scores while still
charging neutral-involving mistakes to the emotional labels; MCC covers
all classes and stays honest under imbalance, which is exactly why it
is reported alongside the F1s.
"""

import numpy as np

from ercml import (
    BinaryCounts,
    LABEL_NAMES,
    aggregate_runs,
    confusion,
    f1_excluding_neutral,
    mcc_binary,
    mcc_multiclass,
    report_from_predictions,
)

# A classifier that answers "neutral" for everything looks great on
# accuracy and scores exactly zero on the starred F1s.
golds = ["neutral"] * 16 + ["anger", "fear", "happiness", "sadness"]
preds = ["neutral"] * 20
m = confusion(preds, golds, LABEL_NAMES)
accuracy = np.trace(m.counts) / m.total
print(f"all-neutral predictor: accuracy {accuracy:.2f}, "
      f"macroF1* {f1_excluding_neutral(m, 'macro'):.2f}, "
      f"microF1* {f1_excluding_neutral(m, 'micro'):.2f}, "
      f"MCC {mcc_multiclass(m):.2f}")

# The two-class MCC from its original TP/TN/FP/FN form, and the
# multiclass generalization agreeing on the same matrix.
counts = BinaryCounts(tp=4, tn=3, fp=2, fn=1)
from ercml.metrics import ConfusionMatrix
two_class = ConfusionMatrix(
    counts=np.array([[4, 1], [2, 3]]), label_space=("pos", "neg")
)
print(f"\nMCC((TP,TN,FP,FN)=(4,3,2,1)): binary formula {mcc_binary(counts):.6f}, "
      f"multiclass form {mcc_multiclass(two_class):.6f}")

# A full report from raw prediction/gold sequences.
rng = np.random.default_rng(0)
names = list(LABEL_NAMES)
golds = [names[i] for i in rng.integers(0, 7, size=60)]
preds = [g if rng.random() < 0.6 else names[rng.integers(0, 7)] for g in golds]
report = report_from_predictions(preds, golds, LABEL_NAMES)
print(f"\n60 noisy predictions: macroF1* {report.macro_f1_star:.3f}, "
      f"microF1* {report.micro_f1_star:.3f}, MCC {report.mcc:.3f}")
print("per-label rows:", [(s.label, round(s.f1, 2)) for s in report.per_label])

# Multi-run aggregation: mean and sample standard deviation per metric.
runs = [report_from_predictions(
    [g if rng.random() < 0.6 else names[rng.integers(0, 7)] for g in golds],
    golds, LABEL_NAMES,
).to_dict() for _ in range(5)]
summary = aggregate_runs(runs)
print(f"\n5 runs: macroF1* {summary.mean['macro_f1_star']:.3f} "
      f"+/- {summary.std['macro_f1_star']:.3f}")
