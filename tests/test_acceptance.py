"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. Each test prints its line only after every assertion in
it has held.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ercml.cli import main
from ercml.corpus import (
    Corpus,
    Dialog,
    EMOTION_IDS,
    LABEL_NAMES,
    Utterance,
    corpus_stats,
    load_split,
    utt_key,
)
from ercml.embeddings import (
    SentenceEmbeddingStore,
    hash_store_for_corpus,
    save_sentence_embeddings,
)
from ercml.encoder import (
    build_dialog_sequence,
    encoder_backward,
    encoder_forward,
    init_encoder,
    sep_gradient,
)
from ercml.gradcheck import fd_gradients, group_relative_error
from ercml.llm import ReplayClient, PromptTemplate, evaluate_llm
from ercml.metrics import (
    BinaryCounts,
    ConfusionMatrix,
    f1_excluding_neutral,
    mcc_binary,
    mcc_multiclass,
)
from ercml.training import TrainConfig, evaluate_model, predict, train_contextual
from ercml.triplets import (
    TripletLossConfig,
    UttRef,
    batch_all_triplets,
    batch_hard_triplets,
    distance,
    sample_triplets,
    triplet_loss,
    triplet_loss_grads,
)

REPO_ROOT = Path(__file__).parent.parent
MINI_DATA = Path(__file__).parent / "data" / "mini"


def ok(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


def real_dailydialog_dir() -> Path | None:
    candidates = [os.environ.get("ERCML_DAILYDIALOG_DIR"), REPO_ROOT / "data" / "dailydialog"]
    for cand in candidates:
        if cand and Path(cand).exists():
            return Path(cand)
    return None


class TestC01FullScaleDocumented:
    def test_full_scale_target_documented_not_gated(self):
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "paper-run:" in makefile
        readme = (REPO_ROOT / "README.md").read_text()
        assert "paper-run" in readme
        assert "57.71" in readme and "57.75" in readme and "0.49" in readme
        ok("full-scale targets (57.71/57.75/0.49) documented as the optional "
           "non-gated `make paper-run` experiment")


class TestC02RealCorpusStats:
    def test_table_statistics(self):
        data_dir = real_dailydialog_dir()
        if data_dir is None:
            pytest.skip("real DailyDialog download not present; fixture-format tests cover the parser")
        start = time.time()
        lengths = []
        total = 0
        for split in ("train", "validation", "test"):
            stats = corpus_stats(load_split(data_dir, split))
            total += stats.n_dialogs
            lengths.append((stats.n_dialogs, stats.mean_utt_per_dialog, stats.max_utt_per_dialog))
        elapsed = time.time() - start
        assert total == 13_118
        assert max(m for _, _, m in lengths) == 35
        overall_mean = sum(n * mean for n, mean, _ in lengths) / total
        assert round(overall_mean) == 8
        assert elapsed < 30.0
        ok(f"real DailyDialog: 13,118 dialogs, max 35, mean {overall_mean:.2f} -> 8 "
           f"({elapsed:.1f}s)")


class TestC03MccEquivalence:
    def test_exhaustive_two_class_sweep(self):
        start = time.time()
        checked = 0
        for tp in range(11):
            for fn in range(11):
                for fp in range(11):
                    for tn in range(11):
                        counts = np.array([[tp, fn], [fp, tn]])
                        m = ConfusionMatrix(counts=counts, label_space=("pos", "neg"))
                        binary = mcc_binary(BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn))
                        assert abs(mcc_multiclass(m) - binary) < 1e-9, (tp, tn, fp, fn)
                        checked += 1
        elapsed = time.time() - start
        assert checked == 14_641
        assert elapsed < 5.0
        ok(f"multiclass MCC == two-class formula on all 14,641 matrices "
           f"to 1e-9 ({elapsed:.1f}s)")


class TestC04MccHandCase:
    def test_4_3_2_1(self):
        value = mcc_binary(BinaryCounts(tp=4, tn=3, fp=2, fn=1))
        assert value == pytest.approx(0.408248, abs=1e-6)
        ok(f"(TP,TN,FP,FN)=(4,3,2,1) -> MCC {value:.6f} == 0.408248 +/- 1e-6")


def brute_force_f1_star(counts, mode: str) -> float:
    """Independent per-label P/R/F1 oracle (neutral excluded, index 0)."""
    k = len(counts)
    per_label = []
    tp_sum = fp_sum = fn_sum = 0
    for i in range(1, k):
        tp = counts[i][i]
        fp = sum(counts[g][i] for g in range(k) if g != i)
        fn = sum(counts[i][p] for p in range(k) if p != i)
        tp_sum, fp_sum, fn_sum = tp_sum + tp, fp_sum + fp, fn_sum + fn
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        per_label.append(2 * p * r / (p + r) if p + r else 0.0)
    if mode == "macro":
        return sum(per_label) / len(per_label)
    p = tp_sum / (tp_sum + fp_sum) if tp_sum + fp_sum else 0.0
    r = tp_sum / (tp_sum + fn_sum) if tp_sum + fn_sum else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


class TestC05F1Oracle:
    def test_thousand_random_matrices(self):
        rng = np.random.default_rng(101)
        start = time.time()
        for _ in range(1000):
            counts = rng.integers(0, 30, size=(7, 7))
            m = ConfusionMatrix(counts=counts, label_space=LABEL_NAMES)
            for mode in ("macro", "micro"):
                mine = f1_excluding_neutral(m, mode)
                oracle = brute_force_f1_star(counts.tolist(), mode)
                assert abs(mine - oracle) < 1e-9
        elapsed = time.time() - start
        assert elapsed < 10.0
        ok(f"macro/micro F1* match the brute-force per-label oracle on 1,000 "
           f"random 7x7 matrices to 1e-9 ({elapsed:.1f}s)")


class TestC06TripletLossSuite:
    def test_analytic_cases_and_gradients(self):
        cfg = TripletLossConfig(margin=0.5)
        # the three formula cases, built from exact 1-D distances
        a, p, n = np.array([0.0]), np.array([0.2]), np.array([1.0])
        assert abs(triplet_loss(a, p, n, cfg) - 0.0) < 1e-12
        c = np.array([1.0, 2.0])
        assert abs(triplet_loss(c, c.copy(), c.copy(), cfg) - 0.5) < 1e-12
        a, p, n = np.array([0.0]), np.array([1.0]), np.array([0.2])
        assert abs(triplet_loss(a, p, n, cfg) - 1.3) < 1e-12

        rng = np.random.default_rng(7)
        loss_cfg = TripletLossConfig(margin=1.0)
        checked = 0
        while checked < 50:
            ea, ep, en = (rng.standard_normal(8) for _ in range(3))
            slack = distance(ea, ep) - distance(ea, en) + loss_cfg.margin
            if abs(slack) < 1e-3:
                continue  # central differences are invalid across the hinge
            arrays = {"a": ea, "p": ep, "n": en}

            def loss():
                return triplet_loss(arrays["a"], arrays["p"], arrays["n"], loss_cfg)

            _, da, dp, dn = triplet_loss_grads(ea, ep, en, loss_cfg)
            numeric = fd_gradients(loss, arrays, eps=1e-4)
            assert group_relative_error(da, numeric["a"]) < 1e-4
            assert group_relative_error(dp, numeric["p"]) < 1e-4
            assert group_relative_error(dn, numeric["n"]) < 1e-4
            checked += 1
        ok("triplet loss: three analytic cases exact to 1e-12; gradients on 50 "
           "random triplets within 1e-4 of central differences (eps=1e-4)")


class TestC07EncoderGradients:
    def test_every_parameter_group(self):
        start = time.time()
        dialog = Dialog(
            id="g",
            utterances=tuple(
                Utterance(index=i, text=f"turn {i}", label=i % 7) for i in range(4)
            ),
        )
        rng = np.random.default_rng(11)
        store = SentenceEmbeddingStore(
            entries={f"g#{i}": rng.standard_normal(8) for i in range(4)}, dim=8
        )
        params = init_encoder(8, heads=2, ffn_dim=32, seed=5)
        coeffs = rng.standard_normal((9, 8))

        def loss():
            seq = build_dialog_sequence(dialog, store, params)
            out, _ = encoder_forward(seq.encoder_input(), params)
            return float((coeffs * out).sum())

        seq = build_dialog_sequence(dialog, store, params)
        out, cache = encoder_forward(seq.encoder_input(), params)
        d_input, grads = encoder_backward(coeffs.copy(), cache, params)
        grads["sep"] = sep_gradient(d_input, seq.sep_positions)
        numeric = fd_gradients(loss, params.tensors(), eps=1e-4)
        worst = 0.0
        for name in params.TENSOR_NAMES:
            err = group_relative_error(grads[name], numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"
            worst = max(worst, err)
        elapsed = time.time() - start
        assert elapsed < 60.0
        ok(f"encoder layer at d=8 U=4 h=2: all {len(params.TENSOR_NAMES)} parameter groups within 1e-3 "
           f"of finite differences (worst {worst:.1e}, {elapsed:.1f}s)")


class TestC08SamplerBalance:
    def test_uniform_anchor_classes(self):
        start = time.time()
        pool = [(UttRef("p", i), lab) for i, lab in
                enumerate([1] * 70 + [2] * 20 + [3] * 10)]
        inv = {1: 1 / 70, 2: 1 / 20, 3: 1 / 10}
        z = sum(inv.values())
        weights = {lab: v / z for lab, v in inv.items()}
        labels = dict(pool)
        out = sample_triplets(pool, 100_000, weights, np.random.default_rng(17))
        tally = {1: 0, 2: 0, 3: 0}
        for t in out:
            tally[labels[t.anchor]] += 1
        shares = {lab: tally[lab] / 100_000 for lab in tally}
        for lab, share in shares.items():
            assert abs(share - 1 / 3) <= 0.01, (lab, share)
        elapsed = time.time() - start
        assert elapsed < 10.0
        ok(f"inverse-frequency sampler over (70/20/10): anchor shares "
           f"{shares[1]:.3f}/{shares[2]:.3f}/{shares[3]:.3f}, all within 1/3 "
           f"+/- 0.01 ({elapsed:.1f}s)")


class TestC09BatchAllOracle:
    def test_two_hundred_random_batches(self):
        rng = np.random.default_rng(23)
        for trial in range(200):
            size = int(rng.integers(0, 9))
            batch = [(UttRef("b", i), int(rng.integers(0, 4))) for i in range(size)]
            mine = {
                (t.anchor, t.positive, t.negative) for t in batch_all_triplets(batch)
            }
            oracle = set()
            for a_ref, a_lab in batch:
                for p_ref, p_lab in batch:
                    for n_ref, n_lab in batch:
                        if a_lab == p_lab and a_ref != p_ref and n_lab != a_lab:
                            oracle.add((a_ref, p_ref, n_ref))
            assert mine == oracle, f"trial {trial}"
        ok("batch-all enumeration equals the triple-nested-loop oracle on 200 "
           "random batches of size <= 8 (exact set equality)")


class TestC10BatchHardOracle:
    def test_two_hundred_random_point_sets(self):
        rng = np.random.default_rng(29)
        cfg = TripletLossConfig()
        for trial in range(200):
            size = int(rng.integers(2, 11))
            labels = [int(rng.integers(0, 3)) for _ in range(size)]
            if len(set(labels)) < 2:
                labels[0] = (labels[1] + 1) % 3
            points = [
                (UttRef("h", i), lab, rng.standard_normal(2)) for i, lab in enumerate(labels)
            ]
            mine = [
                (t.anchor, t.positive, t.negative) for t in batch_hard_triplets(points, cfg)
            ]
            oracle = []
            for a_ref, a_lab, a_vec in sorted(points, key=lambda x: x[0]):
                best_p, best_pd = None, -1.0
                best_n, best_nd = None, float("inf")
                for o_ref, o_lab, o_vec in sorted(points, key=lambda x: x[0]):
                    if o_ref == a_ref:
                        continue
                    d = math.dist(a_vec, o_vec)
                    if o_lab == a_lab and d > best_pd:
                        best_p, best_pd = o_ref, d
                    if o_lab != a_lab and d < best_nd:
                        best_n, best_nd = o_ref, d
                if best_p is not None and best_n is not None:
                    oracle.append((a_ref, best_p, best_n))
            assert mine == oracle, f"trial {trial}"
        ok("batch-hard mining equals exhaustive hardest-positive/nearest-negative "
           "search on 200 random 2-D labeled point sets (exact)")


class TestC11OverfitSanity:
    def test_contextual_overfit_mini_corpus(self):
        start = time.time()
        corpus = load_split(MINI_DATA, "train")
        assert len(corpus.dialogs) == 20
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        config = TrainConfig(epochs=100, max_steps=200, seed=0)
        model = train_contextual(corpus, store, config)
        hits = total = 0
        for dialog in corpus.dialogs:
            for utt, pred in zip(dialog.utterances, predict(model, dialog, store)):
                if utt.label in EMOTION_IDS:
                    total += 1
                    hits += pred == utt.label
        accuracy = hits / total
        elapsed = time.time() - start
        assert accuracy >= 0.9, f"emotional train accuracy {accuracy:.3f}"
        assert elapsed < 300.0
        ok(f"contextual training on the 20-dialog fixture (hashed 16-dim): "
           f"emotional train accuracy {accuracy:.3f} >= 0.9 within 200 steps "
           f"({elapsed:.0f}s)")


def _imbalanced_split(proto, rng, n_dialogs, prefix):
    dialogs, entries = [], {}
    for di in range(n_dialogs):
        utts = []
        for ui in range(8):
            lab = 0 if rng.random() < 0.95 else int(rng.integers(1, 7))
            utts.append(Utterance(index=ui, text=f"{prefix} d{di} u{ui}", label=lab))
            entries[utt_key(f"{prefix}:{di}", ui)] = proto[lab] + 0.2 * rng.standard_normal(16)
        dialogs.append(Dialog(id=f"{prefix}:{di}", utterances=tuple(utts)))
    return Corpus(split="train", dialogs=tuple(dialogs)), entries


class TestC12ImbalanceEfficacy:
    def test_full_pipeline_beats_unweighted_ablation(self):
        start = time.time()
        full_scores, ablation_scores = [], []
        for seed in range(5):
            rng = np.random.default_rng(5000 + seed)
            proto = rng.standard_normal((7, 16))
            proto /= np.linalg.norm(proto, axis=1, keepdims=True)
            train, train_entries = _imbalanced_split(proto, rng, 75, f"tr{seed}")
            held, held_entries = _imbalanced_split(proto, rng, 40, f"ev{seed}")
            store = SentenceEmbeddingStore(
                entries={**train_entries, **held_entries}, dim=16
            )
            full_cfg = TrainConfig(epochs=5, seed=seed, pretrain_steps=150, smooth_counts=1)
            ablation_cfg = TrainConfig(
                epochs=5, seed=seed, pretrain_steps=150, smooth_counts=1,
                weighted_sampler=False, weighted_ce=False, triplet_enabled=False,
            )
            full = train_contextual(train, store, full_cfg)
            ablation = train_contextual(train, store, ablation_cfg)
            full_scores.append(evaluate_model(full, held, store).macro_f1_star)
            ablation_scores.append(evaluate_model(ablation, held, store).macro_f1_star)
        gap = float(np.mean(full_scores) - np.mean(ablation_scores))
        elapsed = time.time() - start
        assert gap >= 0.1, (
            f"gap {gap:.3f}; full {full_scores} vs ablation {ablation_scores}"
        )
        assert elapsed < 600.0
        ok(f"95%-majority synthetic corpus, 5 seeds: full pipeline macroF1* "
           f"{np.mean(full_scores):.3f} vs unweighted-CE ablation "
           f"{np.mean(ablation_scores):.3f}, gap +{gap:.3f} >= 0.1 ({elapsed:.0f}s)")


class TestC13Determinism:
    def test_train_eval_byte_identical(self, tmp_path):
        dialogs = []
        for split in ("train", "validation", "test"):
            dialogs.extend(load_split(MINI_DATA, split).dialogs)
        store = hash_store_for_corpus(
            Corpus(split="train", dialogs=tuple(dialogs)), dim=16, seed=0
        )
        store_path = tmp_path / "store.jsonl"
        save_sentence_embeddings(store, store_path)
        out = tmp_path / "run"
        train_args = [
            "train", "--data", str(MINI_DATA), "--store", str(store_path),
            "--out", str(out), "--epochs", "1", "--max-steps", "5",
            "--pretrain-steps", "10", "--seed", "7",
        ]
        train_docs, eval_docs = [], []
        for _ in range(2):
            assert main(train_args) == 0
            train_docs.append((out / "metrics.json").read_bytes())
            eval_path = tmp_path / "eval.json"
            assert main([
                "eval", "--model", str(out / "model.npz"), "--data", str(MINI_DATA),
                "--store", str(store_path), "--split", "test", "--out", str(eval_path),
            ]) == 0
            eval_docs.append(eval_path.read_bytes())
        assert train_docs[0] == train_docs[1]
        assert eval_docs[0] == eval_docs[1]
        ok("train + eval with identical config/seed: metrics JSON byte-identical "
           "across two consecutive runs")


class TestC14LlmOfflineSuite:
    TEMPLATE = PromptTemplate(
        name="acceptance",
        template="{dialog}\nOptions: {labels}\nEmotion of \"{last_utterance}\"?",
    )

    def corpus(self):
        dialogs = []
        for i, lab in enumerate([1, 2, 3, 4, 5, 6, 2, 5]):
            dialogs.append(Dialog(
                id=f"llm:{i}",
                utterances=(
                    Utterance(index=0, text=f"context line {i} .", label=0),
                    Utterance(index=1, text=f"final line {i} .", label=lab),
                ),
            ))
        return Corpus(split="test", dialogs=tuple(dialogs))

    def test_gold_echo_and_collapse(self):
        corpus = self.corpus()
        echo_client = ReplayClient(responses={
            d.id: f"I would say {LABEL_NAMES[d.utterances[-1].label]} here."
            for d in corpus.dialogs
        })
        result = evaluate_llm(echo_client, corpus, self.TEMPLATE, parallelism=1)
        assert result.report.macro_f1_star == pytest.approx(1.0)
        assert result.report.micro_f1_star == pytest.approx(1.0)

        constant_client = ReplayClient(responses={}, default="happiness")
        collapsed = evaluate_llm(constant_client, corpus, self.TEMPLATE, parallelism=1)
        assert collapsed.modal_label == "happiness"
        assert collapsed.modal_share == pytest.approx(1.0)
        assert collapsed.collapse_flagged
        assert collapsed.report.mcc == 0.0
        ok("LLM replay harness: gold-echo scores 1.0 macro/micro F1*; constant "
           "'happiness' flags modal collapse at 100% with MCC 0")
