"""Evaluation protocol: confusion matrices, neutral-excluding F1, MCC.

macroF1*/microF1* follow the ERC community convention: per-label scores
are computed for the emotional labels only, while errors involving
neutral still count as false positives/negatives of the emotional label
involved (`attribute` policy). A `drop` policy that discards
gold-neutral utterances first is also provided for comparison, and an
`include` policy (diagnostics only) scores neutral as one more label.
A label space without neutral (the 6-label ablation) is scored over all
its labels, which is what `drop` does. The multiclass MCC is computed
over the full label space, neutral included.

Degenerate 0/0 cases are defined as 0 throughout (per-label F1 and both
MCC forms).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, EmptySequence, LengthMismatch, NoNeutralInSpace, UnknownLabel

NEUTRAL = "neutral"
# The policies under which F1* is comparable to the community convention,
# then the diagnostics-only one.
F1_POLICIES = ("attribute", "drop")
NEUTRAL_POLICIES = (*F1_POLICIES, "include")

# Reserved prefix for pseudo-labels (e.g. the LLM harness's unparsable
# bucket): they live in the matrix but are never scored as emotions.
_PSEUDO_PREFIX = "__"


def _is_pseudo(name: str) -> bool:
    return name.startswith(_PSEUDO_PREFIX)


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts, rows = gold, columns = predicted."""

    counts: np.ndarray
    label_space: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.label_space)
        if counts.shape != (k, k):
            raise LengthMismatch(f"counts shape {counts.shape} != ({k}, {k})")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(
    preds: list[str], golds: list[str], label_space: tuple[str, ...]
) -> ConfusionMatrix:
    """Tally (gold, predicted) pairs into a matrix over `label_space`.

    Raises:
        LengthMismatch: sequences differ in length.
        UnknownLabel: a label outside the space.
    """
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    idx = {name: i for i, name in enumerate(label_space)}
    counts = np.zeros((len(label_space), len(label_space)), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        if gold not in idx:
            raise UnknownLabel(f"gold label {gold!r} not in space")
        if pred not in idx:
            raise UnknownLabel(f"predicted label {pred!r} not in space")
        counts[idx[gold], idx[pred]] += 1
    return ConfusionMatrix(counts=counts, label_space=tuple(label_space))


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def _tally(m: ConfusionMatrix, neutral_policy: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The scored labels and their (n, 3) TP/FP/FN rows, each counted once.

    Every label except the pseudo-labels and, unless `include`, neutral;
    `drop` first discards the gold-neutral row, if the space has one.
    """
    counts = m.counts
    if neutral_policy == "drop":
        counts = counts * (np.array(m.label_space) != NEUTRAL)[:, None]
    idx = [
        i for i, l in enumerate(m.label_space)
        if not _is_pseudo(l) and (neutral_policy == "include" or l != NEUTRAL)
    ]
    tp = counts.diagonal()[idx]
    fp = counts.sum(axis=0)[idx] - tp
    fn = counts.sum(axis=1)[idx] - tp
    return tuple(m.label_space[i] for i in idx), np.stack([tp, fp, fn], axis=1)


def _macro_micro(tally: np.ndarray) -> tuple[float, float]:
    """Mean of the per-label F1s, and the F1 of the summed counts."""
    macro = float(np.mean([_f1(*row) for row in tally.tolist()]))
    return macro, _f1(*tally.sum(axis=0).tolist())


def f1_excluding_neutral(
    m: ConfusionMatrix, mode: str, neutral_policy: str = "attribute"
) -> float:
    """macro or micro F1 over the emotional labels, neutral excluded.

    `attribute` (default): neutral-involving errors count as FP/FN of
    the emotional labels involved, neutral contributes no TP. `drop`:
    gold-neutral utterances are discarded first.

    Raises:
        NoNeutralInSpace: the matrix has no neutral label.
        ConfigError: an unknown `mode` or `neutral_policy`.
    """
    if NEUTRAL not in m.label_space:
        raise NoNeutralInSpace(f"label space {m.label_space} lacks {NEUTRAL!r}")
    if mode not in ("macro", "micro"):
        raise ConfigError(f"mode must be 'macro' or 'micro', got {mode!r}")
    if neutral_policy not in F1_POLICIES:
        raise ConfigError(f"neutral_policy must be one of {F1_POLICIES}, got {neutral_policy!r}")
    macro, micro = _macro_micro(_tally(m, neutral_policy)[1])
    return macro if mode == "macro" else micro


@dataclass(frozen=True)
class BinaryCounts:
    """TP/TN/FP/FN bundle for the original two-class MCC definition."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def s(self) -> float:
        return (self.tp + self.fn) / self.n

    @property
    def p(self) -> float:
        return (self.tp + self.fp) / self.n


def mcc_binary(c: BinaryCounts) -> float:
    """(TP/N - S*P) / sqrt(P*S*(1-S)*(1-P)); 0 on a zero denominator."""
    if c.n == 0:
        return 0.0
    s, p = c.s, c.p
    denom = math.sqrt(p * s * (1.0 - s) * (1.0 - p))
    if denom == 0.0:
        return 0.0
    return (c.tp / c.n - s * p) / denom


def mcc_multiclass(m: ConfusionMatrix) -> float:
    """K-class correlation generalization over the full label space.

    (c*s - sum_k p_k*t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2)),
    with c the correct count, s the total, t_k/p_k the gold/predicted
    counts of class k; 0 when either factor under the root vanishes.
    """
    counts = m.counts.astype(float)
    s = counts.sum()
    if s == 0:
        return 0.0
    c = np.trace(counts)
    t = counts.sum(axis=1)
    p = counts.sum(axis=0)
    cov_tp = c * s - float(p @ t)
    var_p = s * s - float(p @ p)
    var_t = s * s - float(t @ t)
    if var_p <= 0.0 or var_t <= 0.0:
        return 0.0
    return float(cov_tp / math.sqrt(var_p * var_t))


@dataclass(frozen=True)
class PerLabelScore:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """The run-level metric bundle serialized by the CLI."""

    macro_f1_star: float
    micro_f1_star: float
    mcc: float
    per_label: tuple[PerLabelScore, ...]
    confusion: ConfusionMatrix
    n_scored: int
    neutral_policy: str = "attribute"
    extras: dict = field(default_factory=dict)

    def to_dict(self, config_echo: dict | None = None) -> dict:
        doc = {
            "macro_f1_star": self.macro_f1_star,
            "micro_f1_star": self.micro_f1_star,
            "mcc": self.mcc,
            "per_label": [asdict(s) for s in self.per_label],
            "confusion": self.confusion.counts.tolist(),
            "label_space": list(self.confusion.label_space),
            "n_scored": self.n_scored,
            "neutral_policy": self.neutral_policy,
            "config_echo": config_echo or {},
        }
        doc.update(self.extras)
        return doc


def report_from_confusion(
    m: ConfusionMatrix,
    neutral_policy: str = "attribute",
    extras: dict | None = None,
) -> MetricsReport:
    """All metrics for one confusion matrix.

    F1* scores the labels `neutral_policy` picks (see `_tally`). A space
    without neutral (6-label ablation) is scored over all its labels under
    the same field names, and its report records `drop`. `include` is the
    diagnostics-only policy keeping neutral in the F1s and the per-label
    list; its report is marked as not comparable to the community
    convention. MCC always covers the full space.

    Raises:
        NoNeutralInSpace: `include` on a space without neutral.
        ConfigError: an unknown `neutral_policy`.
    """
    if neutral_policy not in NEUTRAL_POLICIES:
        raise ConfigError(f"neutral_policy must be one of {NEUTRAL_POLICIES}, got {neutral_policy!r}")
    report_extras = dict(extras or {})
    if NEUTRAL not in m.label_space:
        if neutral_policy == "include":
            raise NoNeutralInSpace(f"label space {m.label_space} lacks {NEUTRAL!r} to include")
        neutral_policy = "drop"
    elif neutral_policy == "include":
        report_extras.update(includes_neutral=True, comparable=False)
    names, tally = _tally(m, neutral_policy)
    macro, micro = _macro_micro(tally)
    per_label = tuple(
        PerLabelScore(
            label=name,
            precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
            recall=tp / (tp + fn) if tp + fn > 0 else 0.0,
            f1=_f1(tp, fp, fn),
            support=tp + fn,
        )
        for name, (tp, fp, fn) in zip(names, tally.tolist())
    )
    return MetricsReport(
        macro_f1_star=macro,
        micro_f1_star=micro,
        mcc=mcc_multiclass(m),
        per_label=per_label,
        confusion=m,
        n_scored=m.total,
        neutral_policy=neutral_policy,
        extras=report_extras,
    )


def report_from_predictions(
    preds: list[str],
    golds: list[str],
    label_space: tuple[str, ...],
    neutral_policy: str = "attribute",
) -> MetricsReport:
    return report_from_confusion(confusion(preds, golds, label_space), neutral_policy)


@dataclass(frozen=True)
class RunSummary:
    """Mean and sample standard deviation per metric over repeated runs."""

    n_runs: int
    mean: dict[str, float]
    std: dict[str, float]


def aggregate_runs(runs: list[Mapping[str, float]]) -> RunSummary:
    """Per-metric mean and (n-1) standard deviation; std 0 for one run.

    Each run is a mapping holding the metrics by name, such as
    `MetricsReport.to_dict()` or a loaded `metrics.json`.

    Raises:
        EmptySequence: no runs given.
    """
    if not runs:
        raise EmptySequence("aggregate_runs needs at least one run")
    metrics = {k: [float(r[k]) for r in runs] for k in ("macro_f1_star", "micro_f1_star", "mcc")}
    mean = {k: float(np.mean(v)) for k, v in metrics.items()}
    std = {}
    for k, values in metrics.items():
        if len(values) < 2 or min(values) == max(values):
            std[k] = 0.0  # exact zero for identical runs, no roundoff
        else:
            std[k] = float(np.std(values, ddof=1))
    return RunSummary(n_runs=len(runs), mean=mean, std=std)


def format_report(report: MetricsReport) -> str:
    """Human-readable block; F1/MCC printed as Table-style percentages."""
    lines = [
        f"macroF1* = {100.0 * report.macro_f1_star:.2f}",
        f"microF1* = {100.0 * report.micro_f1_star:.2f}",
        f"MCC      = {report.mcc:.2f}",
        f"n_scored = {report.n_scored}",
    ]
    for s in report.per_label:
        lines.append(
            f"  {s.label:<10} P={100.0 * s.precision:6.2f} R={100.0 * s.recall:6.2f} "
            f"F1={100.0 * s.f1:6.2f} support={s.support}"
        )
    return "\n".join(lines) + "\n"
