from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ercml.errors import ConfigError, EmptySequence, LengthMismatch, NoNeutralInSpace, UnknownLabel
from ercml.metrics import (
    BinaryCounts,
    ConfusionMatrix,
    aggregate_runs,
    confusion,
    f1_excluding_neutral,
    mcc_binary,
    mcc_multiclass,
    report_from_confusion,
    report_from_predictions,
)

SEVEN = ("neutral", "anger", "disgust", "fear", "happiness", "sadness", "surprise")


def brute_force_report(counts, labels, scored, drop_gold_neutral):
    """Independent oracle for `report_from_confusion`: per scored label
    (precision, recall, F1, support) from a cell-by-cell walk of the
    matrix, then macro and micro F1. Under `drop` the walk skips every
    gold-neutral cell."""
    k = len(labels)
    per_label = []
    tp_sum = fp_sum = fn_sum = 0
    for i, name in enumerate(labels):
        if name not in scored:
            continue
        tp = fp = fn = 0
        for g in range(k):
            if drop_gold_neutral and labels[g] == "neutral":
                continue
            for p in range(k):
                if g == i and p == i:
                    tp += counts[g][p]
                elif p == i:
                    fp += counts[g][p]
                elif g == i:
                    fn += counts[g][p]
        tp_sum, fp_sum, fn_sum = tp_sum + tp, fp_sum + fp, fn_sum + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label.append((name, precision, recall, f1, sum(counts[i])))
    macro = sum(entry[3] for entry in per_label) / len(per_label)
    precision = tp_sum / (tp_sum + fp_sum) if tp_sum + fp_sum else 0.0
    recall = tp_sum / (tp_sum + fn_sum) if tp_sum + fn_sum else 0.0
    micro = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return macro, micro, per_label


def brute_force_f1(counts, labels: tuple[str, ...], mode: str) -> float:
    """The oracle's macro or micro F1 over the emotional labels (`attribute`)."""
    macro, micro, _ = brute_force_report(counts, labels, set(labels) - {"neutral"}, False)
    return macro if mode == "macro" else micro


class TestConfusion:
    def test_diagonal_when_perfect(self):
        labels = ["anger", "fear", "anger", "happiness", "neutral"] * 2
        m = confusion(labels, labels, SEVEN)
        assert np.trace(m.counts) == 10
        assert m.total == 10

    def test_empty_inputs(self):
        m = confusion([], [], SEVEN)
        assert m.counts.sum() == 0

    def test_hand_tally(self):
        golds = ["anger", "anger", "neutral", "fear", "fear", "fear"]
        preds = ["anger", "neutral", "neutral", "fear", "anger", "fear"]
        m = confusion(preds, golds, SEVEN)
        i = m.label_space.index
        assert m.counts[i("anger"), i("anger")] == 1
        assert m.counts[i("anger"), i("neutral")] == 1
        assert m.counts[i("neutral"), i("neutral")] == 1
        assert m.counts[i("fear"), i("fear")] == 2
        assert m.counts[i("fear"), i("anger")] == 1
        assert m.total == 6

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(["anger"], [], SEVEN)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            confusion(["joy"], ["anger"], SEVEN)


class TestF1ExcludingNeutral:
    def test_perfect_predictions(self):
        labels = list(SEVEN[1:]) * 3  # every emotional label exercised
        m = confusion(labels, labels, SEVEN)
        assert f1_excluding_neutral(m, "macro") == pytest.approx(1.0)
        assert f1_excluding_neutral(m, "micro") == pytest.approx(1.0)

    def test_unexercised_label_scores_zero_in_macro(self):
        # 0/0 per-label F1 is defined as 0, so a perfect prediction set
        # covering 4 of 6 emotions caps macro at 4/6 while micro stays 1
        labels = ["anger", "fear", "sadness", "happiness"] * 3
        m = confusion(labels, labels, SEVEN)
        assert f1_excluding_neutral(m, "macro") == pytest.approx(4 / 6)
        assert f1_excluding_neutral(m, "micro") == pytest.approx(1.0)

    def test_all_neutral_predictions_zero(self):
        golds = ["anger", "fear", "sadness", "happiness"]
        preds = ["neutral"] * 4
        m = confusion(preds, golds, SEVEN)
        assert f1_excluding_neutral(m, "macro") == 0.0
        assert f1_excluding_neutral(m, "micro") == 0.0

    def test_three_label_fixture_pinned(self):
        # hand-built matrix over (neutral, anger, happiness):
        # anger:      TP=3 FP=3 FN=1 -> F1 = 0.6
        # happiness:  TP=4 FP=1 FN=3 -> F1 = 2/3
        # micro: TP=7 FP=4 FN=4      -> F1 = 7/11
        space = ("neutral", "anger", "happiness")
        counts = np.array([[5, 2, 1], [1, 3, 0], [2, 1, 4]])
        m = ConfusionMatrix(counts=counts, label_space=space)
        assert f1_excluding_neutral(m, "macro") == pytest.approx((0.6 + 2 / 3) / 2, abs=1e-12)
        assert f1_excluding_neutral(m, "micro") == pytest.approx(7 / 11, abs=1e-12)
        assert f1_excluding_neutral(m, "macro") == pytest.approx(
            brute_force_f1(counts.tolist(), space, "macro"), abs=1e-12
        )
        assert f1_excluding_neutral(m, "micro") == pytest.approx(
            brute_force_f1(counts.tolist(), space, "micro"), abs=1e-12
        )

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            counts = rng.integers(0, 20, size=(7, 7))
            m = ConfusionMatrix(counts=counts, label_space=SEVEN)
            for mode in ("macro", "micro"):
                assert f1_excluding_neutral(m, mode) == pytest.approx(
                    brute_force_f1(counts.tolist(), SEVEN, mode), abs=1e-9
                )

    def test_micro_equals_macro_when_per_label_f1_equal(self):
        # block-symmetric matrix: every emotional label has the same counts
        counts = np.zeros((7, 7), dtype=int)
        for i in range(1, 7):
            counts[i, i] = 3
            counts[i, 0] = 1  # each label loses one to neutral
        m = ConfusionMatrix(counts=counts, label_space=SEVEN)
        assert f1_excluding_neutral(m, "macro") == pytest.approx(
            f1_excluding_neutral(m, "micro"), abs=1e-12
        )

    def test_no_neutral_in_space(self):
        m = ConfusionMatrix(counts=np.zeros((2, 2), dtype=int), label_space=("anger", "fear"))
        with pytest.raises(NoNeutralInSpace):
            f1_excluding_neutral(m, "macro")

    def test_drop_policy_differs_from_attribute(self):
        # gold-neutral misread as anger: a false positive under
        # `attribute`, invisible under `drop`
        golds = ["neutral", "anger"]
        preds = ["anger", "anger"]
        m = confusion(preds, golds, SEVEN)
        attr = f1_excluding_neutral(m, "micro", "attribute")
        drop = f1_excluding_neutral(m, "micro", "drop")
        assert attr < drop == 1.0


class TestMccBinary:
    def test_hand_derived_case(self):
        # N=10, S=0.5, P=0.6 -> (0.4 - 0.3)/sqrt(0.6*0.5*0.5*0.4)
        c = BinaryCounts(tp=4, tn=3, fp=2, fn=1)
        expected = (0.4 - 0.3) / math.sqrt(0.6 * 0.5 * 0.5 * 0.4)
        assert mcc_binary(c) == pytest.approx(expected, abs=1e-12)
        assert mcc_binary(c) == pytest.approx(0.408248, abs=1e-6)

    def test_single_class_predictions_degenerate(self):
        assert mcc_binary(BinaryCounts(tp=5, tn=0, fp=5, fn=0)) == 0.0

    def test_all_positive_gold_degenerate(self):
        assert mcc_binary(BinaryCounts(tp=10, tn=0, fp=0, fn=0)) == 0.0

    def test_perfect_mixed_set(self):
        assert mcc_binary(BinaryCounts(tp=5, tn=5, fp=0, fn=0)) == pytest.approx(1.0)

    def test_inverse_predictor(self):
        assert mcc_binary(BinaryCounts(tp=0, tn=0, fp=5, fn=5)) == pytest.approx(-1.0)


class TestMccMulticlass:
    def test_identity_matrix(self):
        m = ConfusionMatrix(counts=np.eye(7, dtype=int) * 3, label_space=SEVEN)
        assert mcc_multiclass(m) == pytest.approx(1.0)

    def test_single_predicted_class(self):
        counts = np.zeros((7, 7), dtype=int)
        counts[:, 4] = 2
        m = ConfusionMatrix(counts=counts, label_space=SEVEN)
        assert mcc_multiclass(m) == 0.0

    def test_two_class_equivalence_with_binary_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 11, size=4))
            counts = np.array([[tp, fn], [fp, tn]])
            m = ConfusionMatrix(counts=counts, label_space=("pos", "neg"))
            binary = mcc_binary(BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            assert mcc_multiclass(m) == pytest.approx(binary, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        counts = rng.integers(0, 15, size=(7, 7))
        m = ConfusionMatrix(counts=counts, label_space=SEVEN)
        base = mcc_multiclass(m)
        for _ in range(10):
            perm = rng.permutation(7)
            permuted = ConfusionMatrix(
                counts=counts[np.ix_(perm, perm)],
                label_space=tuple(SEVEN[i] for i in perm),
            )
            assert mcc_multiclass(permuted) == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            counts = rng.integers(0, 9, size=(4, 4))
            m = ConfusionMatrix(counts=counts, label_space=("neutral", "a", "b", "c"))
            assert -1.0 - 1e-12 <= mcc_multiclass(m) <= 1.0 + 1e-12


class TestAggregateRuns:
    def report(self, macro, micro=0.5, mcc=0.2):
        m = confusion(["anger"], ["anger"], SEVEN)
        base = report_from_confusion(m)
        return replace(base, macro_f1_star=macro, micro_f1_star=micro, mcc=mcc).to_dict()

    def test_identical_reports_zero_std(self):
        summary = aggregate_runs([self.report(0.4)] * 3)
        assert summary.std["macro_f1_star"] == 0.0
        assert summary.mean["macro_f1_star"] == pytest.approx(0.4)

    def test_hand_arithmetic(self):
        summary = aggregate_runs([self.report(0.5), self.report(0.6), self.report(0.7)])
        assert summary.mean["macro_f1_star"] == pytest.approx(0.6)
        assert summary.std["macro_f1_star"] == pytest.approx(0.1)

    def test_single_report(self):
        summary = aggregate_runs([self.report(0.33)])
        assert summary.n_runs == 1
        assert summary.mean["macro_f1_star"] == pytest.approx(0.33)
        assert summary.std["macro_f1_star"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptySequence):
            aggregate_runs([])


class TestReportOracle:
    SIX = SEVEN[1:]
    WITH_UNPARSABLE = SEVEN + ("__unparsable__",)
    # (label space, neutral policy, scored labels, drop gold-neutral)
    MODES = {
        "attribute": (SEVEN, "attribute", SIX, False),
        "drop": (SEVEN, "drop", SIX, True),
        "six-labels": (SIX, "attribute", SIX, False),
        "include": (SEVEN, "include", SEVEN, False),
        "unparsable-attribute": (WITH_UNPARSABLE, "attribute", SIX, False),
        "unparsable-drop": (WITH_UNPARSABLE, "drop", SIX, True),
        "unparsable-include": (WITH_UNPARSABLE, "include", SEVEN, False),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    def test_every_field_matches_brute_force(self, mode):
        space, policy, scored, drop = self.MODES[mode]
        rng = np.random.default_rng(list(self.MODES).index(mode))
        k = len(space)
        for _ in range(300):
            # sparse matrices, so empty rows and columns (0/0 scores) occur
            density = rng.uniform(0.05, 1.0)
            counts = rng.integers(0, 12, size=(k, k)) * (rng.random((k, k)) < density)
            report = report_from_confusion(ConfusionMatrix(counts=counts, label_space=space), policy)
            # a space without neutral is scored, and recorded, as `drop`
            assert report.neutral_policy == ("drop" if space == self.SIX else policy)
            macro, micro, per_label = brute_force_report(counts.tolist(), space, scored, drop)
            assert report.macro_f1_star == pytest.approx(macro, abs=1e-12)
            assert report.micro_f1_star == pytest.approx(micro, abs=1e-12)
            assert [s.label for s in report.per_label] == [entry[0] for entry in per_label]
            for s, (_, precision, recall, f1, support) in zip(report.per_label, per_label):
                assert s.precision == pytest.approx(precision, abs=1e-12)
                assert s.recall == pytest.approx(recall, abs=1e-12)
                assert s.f1 == pytest.approx(f1, abs=1e-12)
                assert s.support == support


class TestReportDocument:
    def test_stable_field_names(self):
        report = report_from_predictions(
            ["anger", "neutral", "fear"], ["anger", "anger", "fear"], SEVEN
        )
        doc = report.to_dict(config_echo={"seed": 3})
        for field in ("macro_f1_star", "micro_f1_star", "mcc", "per_label",
                      "confusion", "n_scored", "config_echo"):
            assert field in doc
        assert doc["n_scored"] == 3
        assert len(doc["confusion"]) == 7
        assert doc["config_echo"] == {"seed": 3}
        assert all(set(entry) == {"label", "precision", "recall", "f1", "support"}
                   for entry in doc["per_label"])

    def test_values_in_range(self):
        rng = np.random.default_rng(37)
        names = list(SEVEN)
        golds = [names[i] for i in rng.integers(0, 7, size=200)]
        preds = [names[i] for i in rng.integers(0, 7, size=200)]
        report = report_from_predictions(preds, golds, SEVEN)
        assert 0.0 <= report.macro_f1_star <= 1.0
        assert 0.0 <= report.micro_f1_star <= 1.0
        assert -1.0 <= report.mcc <= 1.0


class TestNeutralPolicy:
    def matrix(self, space):
        return ConfusionMatrix(counts=np.eye(len(space), dtype=int), label_space=space)

    @pytest.mark.parametrize("policy", ["attribute", "drop", "include"])
    def test_only_include_marks_report(self, policy):
        doc = report_from_confusion(self.matrix(SEVEN), policy).to_dict()
        assert doc["neutral_policy"] == policy
        marks = {"includes_neutral": True, "comparable": False} if policy == "include" else {}
        assert {k: doc[k] for k in ("includes_neutral", "comparable") if k in doc} == marks

    def test_include_without_neutral_raises(self):
        with pytest.raises(NoNeutralInSpace):
            report_from_confusion(self.matrix(SEVEN[1:]), "include")

    @pytest.mark.parametrize("space", [SEVEN, SEVEN[1:]])
    def test_unknown_policy_raises(self, space):
        with pytest.raises(ConfigError, match=r"neutral_policy must be one of .*, got 'keep'"):
            report_from_confusion(self.matrix(space), "keep")

    def test_f1_excluding_neutral_refuses_include(self):
        with pytest.raises(ConfigError, match=r"neutral_policy must be one of \('attribute', 'drop'\), got 'include'"):
            f1_excluding_neutral(self.matrix(SEVEN), "macro", "include")

    def test_f1_excluding_neutral_refuses_an_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode must be 'macro' or 'micro', got 'weighted'"):
            f1_excluding_neutral(self.matrix(SEVEN), "weighted")
