from __future__ import annotations

import numpy as np
import pytest

from ercml.corpus import Corpus, Dialog, EMOTION_IDS, Utterance
from ercml import checkpoint
from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.classifier import pretrain_classifier
from ercml.embeddings import SentenceEmbeddingStore, WordEmbeddingTable, hash_store_for_corpus
from ercml.errors import CheckpointError, ConfigError, MissingEmbedding
from ercml.training import (
    ContextualModel,
    TrainConfig,
    evaluate_model,
    load_isolated,
    predict,
    run_experiment,
    save_isolated,
    train_contextual,
    train_isolated,
)


def params_equal(a, b) -> bool:
    def tensors(x):
        if isinstance(x, list):
            from ercml.encoder import stack_tensors
            return stack_tensors(x)
        return x.tensors()
    ta, tb = tensors(a), tensors(b)
    return all(np.array_equal(arr, tb[name]) for name, arr in ta.items())


def make_corpus(label_lists, split="train", prefix=None):
    prefix = prefix or split
    dialogs = []
    for di, labels in enumerate(label_lists):
        utts = tuple(
            Utterance(index=i, text=f"{prefix} dialog {di} turn {i}", label=lab)
            for i, lab in enumerate(labels)
        )
        dialogs.append(Dialog(id=f"{prefix}:{di}", utterances=utts))
    return Corpus(split=split, dialogs=tuple(dialogs))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 5
        assert cfg.label_space() == tuple(range(7))

    def test_six_label_space(self):
        assert TrainConfig(label_space_size=6).label_space() == EMOTION_IDS

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(label_space_size=5)
        with pytest.raises(ConfigError):
            TrainConfig(loss_mode="summed", summed_lambda=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(sampling_strategy="hardest")


class TestContextualTraining:
    def small_cfg(self, **kw):
        base = dict(epochs=3, max_steps=6, pretrain_steps=10, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_seed_determinism(self, train_corpus, store16):
        m1 = train_contextual(train_corpus, store16, self.small_cfg())
        m2 = train_contextual(train_corpus, store16, self.small_cfg())
        assert params_equal(m1.encoder, m2.encoder)
        assert params_equal(m1.classifier, m2.classifier)

    def test_store_frozen_through_training(self, train_corpus, store16):
        digest_before = store16.content_digest()
        train_contextual(train_corpus, store16, self.small_cfg())
        assert store16.content_digest() == digest_before

    def test_both_losses_reach_encoder(self, train_corpus, store16):
        # one alternating cycle: encoder must differ from its CE-only
        # state, which must itself differ from initialization
        from ercml.encoder import init_encoder_stack

        cfg_ce_only = self.small_cfg(max_steps=1, triplet_enabled=False)
        cfg_full = self.small_cfg(max_steps=1)
        m_ce = train_contextual(train_corpus, store16, cfg_ce_only)
        m_full = train_contextual(train_corpus, store16, cfg_full)
        init = init_encoder_stack(store16.dim, heads=cfg_full.heads, seed=cfg_full.seed)
        assert not params_equal(m_ce.encoder, init)
        assert not params_equal(m_full.encoder, m_ce.encoder)
        # the triplet step touches only the encoder, not the classifier
        assert params_equal(m_full.classifier, m_ce.classifier)

    def test_single_label_batch_skips_triplet_step(self, store16):
        corpus = make_corpus([[0, 0, 0, 0]], prefix="mono")
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        records = []
        cfg = TrainConfig(epochs=2, batch_size=1, pretrain_steps=5, seed=0, smooth_counts=1)
        model = train_contextual(corpus, store, cfg, log_hook=records.append)
        assert len(records) == 2
        assert all(r["triplet"] == 0.0 and r["active"] == 0 for r in records)
        # CE step still applied: encoder moved
        from ercml.encoder import init_encoder_stack
        assert not params_equal(model.encoder, init_encoder_stack(16, heads=cfg.heads, seed=0))

    def test_loss_decreases_over_epochs(self, train_corpus, store16):
        records = []
        cfg = TrainConfig(epochs=5, pretrain_steps=30, seed=0)
        train_contextual(train_corpus, store16, cfg, log_hook=records.append)
        def epoch_mean(e):
            totals = [r["ce"] + r["triplet"] for r in records if r["epoch"] == e]
            return sum(totals) / len(totals)
        assert epoch_mean(4) < epoch_mean(0)

    def test_summed_mode_trains(self, train_corpus, store16):
        cfg = self.small_cfg(loss_mode="summed", summed_lambda=0.5)
        m1 = train_contextual(train_corpus, store16, cfg)
        m2 = train_contextual(train_corpus, store16, cfg)
        assert params_equal(m1.encoder, m2.encoder)

    def test_two_layer_stack_trains_and_round_trips(self, train_corpus, store16, tmp_path):
        cfg = self.small_cfg(max_steps=2, encoder_layers=2)
        model = train_contextual(train_corpus, store16, cfg)
        assert len(model.encoder) == 2
        model.save(tmp_path / "deep.npz")
        again = ContextualModel.load(tmp_path / "deep.npz")
        assert len(again.encoder) == 2
        dialog = train_corpus.dialogs[0]
        assert predict(model, dialog, store16) == predict(again, dialog, store16)

    def test_batch_strategies_run(self, train_corpus, store16):
        for strategy in ("batch-all", "batch-hard"):
            cfg = self.small_cfg(max_steps=2, sampling_strategy=strategy)
            model = train_contextual(train_corpus, store16, cfg)
            assert model.dim == 16


class TestPredict:
    def test_one_label_per_utterance(self, train_corpus, store16):
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0)
        model = train_contextual(train_corpus, store16, cfg)
        for dialog in train_corpus.dialogs[:5]:
            labels = predict(model, dialog, store16)
            assert len(labels) == len(dialog)
            assert all(lab in range(7) for lab in labels)

    def test_purity(self, train_corpus, store16):
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0)
        model = train_contextual(train_corpus, store16, cfg)
        dialog = train_corpus.dialogs[0]
        assert predict(model, dialog, store16) == predict(model, dialog, store16)

    def test_memorized_tiny_corpus_predicts_gold(self):
        corpus = make_corpus([[0, 4, 1], [4, 0, 5], [1, 5, 4, 0]], prefix="tiny")
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        cfg = TrainConfig(epochs=200, max_steps=150, pretrain_steps=150, batch_size=3, seed=0)
        model = train_contextual(corpus, store, cfg)
        for dialog in corpus.dialogs:
            assert predict(model, dialog, store) == list(dialog.labels)


class TestEvaluate:
    def test_report_schema(self, train_corpus, store16):
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0)
        model = train_contextual(train_corpus, store16, cfg)
        report = evaluate_model(model, train_corpus, store16)
        assert report.n_scored == train_corpus.n_utterances
        assert 0.0 <= report.macro_f1_star <= 1.0

    def test_six_label_model_skips_gold_neutral(self, train_corpus, store16):
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0, label_space_size=6)
        model = train_contextual(train_corpus, store16, cfg)
        report = evaluate_model(model, train_corpus, store16)
        n_emotional = sum(
            1 for _, u in train_corpus.iter_utterances() if u.label in EMOTION_IDS
        )
        assert report.n_scored == n_emotional


class TestRunExperiment:
    def test_single_run(self, train_corpus, test_corpus, store16):
        # the store must cover both splits
        both = Corpus(split="train", dialogs=train_corpus.dialogs + test_corpus.dialogs)
        store = hash_store_for_corpus(both, dim=16, seed=0)
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=3)
        reports = run_experiment(train_corpus, test_corpus, store, cfg, n_runs=1)
        assert len(reports) == 1
        assert reports[0].extras["seed"] == 3

    def test_repeatability_and_seed_laddering(self, train_corpus, test_corpus, store16):
        both = Corpus(split="train", dialogs=train_corpus.dialogs + test_corpus.dialogs)
        store = hash_store_for_corpus(both, dim=16, seed=0)
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0)
        first = run_experiment(train_corpus, test_corpus, store, cfg, n_runs=3)
        second = run_experiment(train_corpus, test_corpus, store, cfg, n_runs=3)
        assert [r.extras["seed"] for r in first] == [0, 1, 2]
        for a, b in zip(first, second):
            assert a.macro_f1_star == b.macro_f1_star
            assert a.micro_f1_star == b.micro_f1_star
            assert a.mcc == b.mcc
            np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)


def separable_corpus_and_table(n_per_label=12, words_per_utt=4, dim=12, seed=0):
    """Two-label corpus whose word vectors are linearly separable."""
    rng = np.random.default_rng(seed)
    direction = np.zeros(dim)
    direction[0] = 1.0
    vocab = {}
    for w in range(40):
        vocab[f"red{w}"] = direction * 2.0 + 0.3 * rng.standard_normal(dim)
        vocab[f"blue{w}"] = -direction * 2.0 + 0.3 * rng.standard_normal(dim)
    table = WordEmbeddingTable(vocabulary=vocab, dim=dim, oov_policy="zero")

    dialogs = []
    for i in range(n_per_label):
        for label, color in ((1, "red"), (4, "blue")):
            words = " ".join(
                f"{color}{rng.integers(0, 40)}" for _ in range(words_per_utt)
            )
            dialogs.append(Dialog(
                id=f"sep:{label}:{i}",
                utterances=(Utterance(index=0, text=words, label=label),),
            ))
    return Corpus(split="train", dialogs=tuple(dialogs)), table


def separation_ratio(model, corpus, table):
    reps, labels = [], []
    for d, u in corpus.iter_utterances():
        reps.append(model.represent(u, table))
        labels.append(u.label)
    reps = np.stack(reps)
    intra, inter = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            dist = float(np.linalg.norm(reps[i] - reps[j]))
            (intra if labels[i] == labels[j] else inter).append(dist)
    return np.mean(intra), np.mean(inter)


class TestIsolatedTraining:
    def test_seed_determinism_loss_trajectory(self):
        corpus, table = separable_corpus_and_table()
        cfg = TrainConfig(epochs=2, max_steps=10, seed=0, rep_dim=8, smooth_counts=1)
        runs = []
        for _ in range(2):
            records = []
            train_isolated(corpus, table, cfg, log_hook=records.append)
            runs.append([r["triplet"] for r in records])
        assert runs[0] == runs[1]

    def test_linear_separation(self):
        corpus, table = separable_corpus_and_table()
        cfg = TrainConfig(epochs=20, max_steps=100, seed=0, rep_dim=8, smooth_counts=1)
        model = train_isolated(corpus, table, cfg)
        intra, inter = separation_ratio(model, corpus, table)
        assert intra < inter

    def test_lstm_separation(self):
        corpus, table = separable_corpus_and_table()
        cfg = TrainConfig(
            epochs=20, max_steps=100, seed=0, rep_dim=8, subnetwork="lstm", smooth_counts=1
        )
        model = train_isolated(corpus, table, cfg)
        intra, inter = separation_ratio(model, corpus, table)
        assert intra < inter

    def test_checkpoint_round_trip(self, tmp_path):
        corpus, table = separable_corpus_and_table()
        cfg = TrainConfig(epochs=1, max_steps=5, seed=0, rep_dim=8, subnetwork="lstm", smooth_counts=1)
        model = train_isolated(corpus, table, cfg)
        save_isolated(model, tmp_path / "iso.npz")
        again = load_isolated(tmp_path / "iso.npz")
        utt = corpus.dialogs[0].utterances[0]
        np.testing.assert_allclose(model.represent(utt, table), again.represent(utt, table))

    @pytest.fixture(scope="class", params=["linear", "lstm"])
    def saved_isolated(self, request, tmp_path_factory):
        corpus, table = separable_corpus_and_table()
        cfg = TrainConfig(epochs=1, max_steps=1, seed=0, rep_dim=8, subnetwork=request.param, smooth_counts=1)
        path = tmp_path_factory.mktemp("iso") / "iso.npz"
        save_isolated(train_isolated(corpus, table, cfg), path)
        return path

    def resave(self, saved, tmp_path, edit):
        kind, tensors, meta = load_checkpoint(saved)
        edit(tensors)
        return save_checkpoint(tmp_path / "edited.npz", kind, tensors, meta)

    def test_missing_tensor(self, saved_isolated, tmp_path):
        for name in load_checkpoint(saved_isolated)[1]:
            path = self.resave(saved_isolated, tmp_path, lambda t: t.pop(name))
            with pytest.raises(CheckpointError, match=f"lacks tensor '{name}'"):
                load_isolated(path)

    def test_extra_tensor(self, saved_isolated, tmp_path):
        path = self.resave(saved_isolated, tmp_path, lambda t: t.__setitem__("stray", np.zeros(8)))
        with pytest.raises(CheckpointError, match="unexpected tensors"):
            load_isolated(path)

    def test_misshaped_tensor(self, saved_isolated, tmp_path):
        for name in load_checkpoint(saved_isolated)[1]:
            path = self.resave(saved_isolated, tmp_path, lambda t: t.__setitem__(name, t[name][..., :-1]))
            with pytest.raises(CheckpointError, match=f"'{name}' has shape"):
                load_isolated(path)


class TestContextualCheckpoint:
    def test_save_load_identical_predictions(self, train_corpus, store16, tmp_path):
        cfg = TrainConfig(epochs=1, max_steps=3, pretrain_steps=5, seed=0)
        model = train_contextual(train_corpus, store16, cfg)
        model.save(tmp_path / "model.npz")
        again = ContextualModel.load(tmp_path / "model.npz")
        assert again.provider_name == store16.provider_name
        for dialog in train_corpus.dialogs[:4]:
            assert predict(model, dialog, store16) == predict(again, dialog, store16)

    @pytest.fixture(scope="class")
    def saved(self, train_corpus, store16, tmp_path_factory):
        cfg = TrainConfig(epochs=1, max_steps=1, pretrain_steps=2, seed=0)
        path = tmp_path_factory.mktemp("ckpt") / "model.npz"
        train_contextual(train_corpus, store16, cfg).save(path)
        return path

    def resave(self, saved, tmp_path, edit):
        kind, tensors, meta = load_checkpoint(saved)
        edit(tensors)
        return save_checkpoint(tmp_path / "edited.npz", kind, tensors, meta)

    def test_head_stores_no_dead_tensors(self, saved):
        _, tensors, _ = load_checkpoint(saved)
        for name in ("w_q", "b_q", "w_k", "b_k", "sep"):
            assert f"encoder.0.{name}" in tensors
            assert f"classifier.encoder.{name}" not in tensors

    @pytest.mark.parametrize("name", ["encoder.0.w_k", "classifier.encoder.b_ff1", "classifier.head.b"])
    def test_missing_tensor(self, saved, tmp_path, name):
        path = self.resave(saved, tmp_path, lambda t: t.pop(name))
        with pytest.raises(CheckpointError, match=name.split(".", 1)[-1]):
            ContextualModel.load(path)

    @pytest.mark.parametrize("name", ["encoder.1.w_q", "classifier.encoder.sep", "stray"])
    def test_extra_tensor(self, saved, tmp_path, name):
        path = self.resave(saved, tmp_path, lambda t: t.__setitem__(name, np.zeros(16)))
        with pytest.raises(CheckpointError, match=name.split(".", 1)[-1]):
            ContextualModel.load(path)

    @pytest.mark.parametrize("name", ["encoder.0.w_ff1", "encoder.0.sep", "classifier.encoder.w_o"])
    def test_misshaped_tensor(self, saved, tmp_path, name):
        path = self.resave(saved, tmp_path, lambda t: t.__setitem__(name, t[name][:-1]))
        with pytest.raises(CheckpointError, match=name.split(".", 1)[-1]):
            ContextualModel.load(path)

    def test_version_1_rejected(self, saved, tmp_path, monkeypatch):
        # a version-1 file: the head still carries query/key/separator tensors
        kind, tensors, meta = load_checkpoint(saved)
        for name in ("w_q", "w_k"):
            tensors[f"classifier.encoder.{name}"] = np.zeros((16, 16))
        for name in ("b_q", "b_k", "sep"):
            tensors[f"classifier.encoder.{name}"] = np.zeros(16)
        monkeypatch.setattr(checkpoint, "FORMAT_VERSION", 1)
        path = save_checkpoint(tmp_path / "v1.npz", kind, tensors, meta)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="format version 1 != 2"):
            ContextualModel.load(path)


class TestStoreCoverage:
    def test_gap_fails_before_any_step(self, train_corpus, store16):
        # the gap is the last utterance of the last dialog, which a
        # weighted epoch order need not visit early
        dialog = train_corpus.dialogs[-1]
        gap = f"{dialog.id}#{len(dialog) - 1}"
        store = SentenceEmbeddingStore(
            entries={k: v for k, v in store16.entries.items() if k != gap}, dim=16
        )
        classifier = pretrain_classifier(train_corpus, store16, steps=2, seed=0)
        records = []
        with pytest.raises(MissingEmbedding, match=gap):
            train_contextual(
                train_corpus, store, TrainConfig(epochs=1, seed=0),
                classifier=classifier, log_hook=records.append,
            )
        assert records == []
