from __future__ import annotations

import numpy as np
import pytest

from ercml.corpus import Corpus, Dialog, EMOTION_IDS, Utterance
from ercml import checkpoint
from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.cli import main
from ercml.classifier import pretrain_classifier
from ercml.embeddings import SentenceEmbeddingStore, hash_store_for_corpus
from ercml.errors import CheckpointError, ConfigError, MissingEmbedding, NonFinite
from ercml.training import (
    ContextualModel,
    TrainConfig,
    evaluate_model,
    predict,
    train_contextual,
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
        with pytest.raises(ConfigError, match="distance"):
            TrainConfig(distance="manhattan")

    @pytest.mark.parametrize("name, bad, ok", [
        ("epochs", 0, 1),
        ("batch_size", 0, 1),
        ("learning_rate", -1.0, 1e-6),
        ("learning_rate", float("nan"), 1e-6),
        ("margin", 0.0, 0.1),
        ("pretrain_epochs", 0, 1),
        ("pretrain_batch_size", 0, 1),
        ("heads", 0, 1),
        ("ffn_dim", 0, 1),
        ("encoder_layers", 0, 1),
        ("triplets_per_batch", 0, 1),
        ("grad_clip", 0.0, 0.5),
        ("seed", -1, 0),
        ("pretrain_steps", -3, 0),
        ("smooth_counts", -1, 0),
        ("max_steps", -1, 0),
    ])
    def test_numeric_lower_bounds(self, name, bad, ok):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            TrainConfig(**{name: bad})
        assert getattr(TrainConfig(**{name: ok}), name) == ok


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
        assert all(r["triplet"] == 0.0 and r["active"] == 0 and r["triplet_skipped"] for r in records)
        # CE step still applied: encoder moved
        from ercml.encoder import init_encoder_stack
        assert not params_equal(model.encoder, init_encoder_stack(16, heads=cfg.heads, seed=0))

    def test_steps_report_through_log_hook_only(self, train_corpus, store16, caplog):
        records = []
        with caplog.at_level("DEBUG"):
            train_contextual(train_corpus, store16, self.small_cfg(), log_hook=records.append)
        assert records and not any(r["triplet_skipped"] for r in records)
        assert [r for r in caplog.records if r.name in ("ercml.training", "ercml.classifier")] == []

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

    @pytest.mark.parametrize("loss_mode", ["alternating", "summed"])
    def test_one_pass_per_forward_and_update(self, train_corpus, store16, monkeypatch, loss_mode):
        # Each forward encodes the whole batch in one call and each encoder
        # update is one backward call. A summed update gets d_ce + lambda * d_tri.
        from ercml import training

        seen = {"fwd": 0, "ce": [], "tri": [], "bwd": []}

        def spy(name, fn, pick=None):
            def wrapped(*args):
                out = fn(*args)
                if name == "fwd":
                    seen["fwd"] += 1
                elif name == "bwd":
                    seen["bwd"].append(args[0].copy())
                elif out is not None:
                    seen[name].append(out[pick])
                return out
            monkeypatch.setattr(training, fn.__name__, wrapped)

        spy("fwd", training.encode_dialog)
        spy("bwd", training.encode_dialog_backward)
        spy("ce", training.ce_pass, 1)
        spy("tri", training.triplet_pass, 2)
        cfg = self.small_cfg(max_steps=1, loss_mode=loss_mode, summed_lambda=0.25)
        train_contextual(train_corpus, store16, cfg)
        assert len(seen["ce"]) == len(seen["tri"]) == 1
        if loss_mode == "summed":
            assert seen["fwd"] == 1
            np.testing.assert_array_equal(seen["bwd"][0], seen["ce"][0] + 0.25 * seen["tri"][0])
            assert len(seen["bwd"]) == 1
        else:
            assert seen["fwd"] == 2
            assert len(seen["bwd"]) == 2
            np.testing.assert_array_equal(seen["bwd"][0], seen["ce"][0])
            np.testing.assert_array_equal(seen["bwd"][1], seen["tri"][0])

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
        for name in ("w_q", "b_q", "w_k", "sep"):
            assert f"encoder.0.{name}" in tensors
            assert f"classifier.encoder.{name}" not in tensors
        # softmax cannot see a key bias, so neither part stores one
        assert "encoder.0.b_k" not in tensors
        assert "classifier.encoder.b_k" not in tensors
        assert sum(name.startswith("encoder.0.") for name in tensors) == 16

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

    def test_version_1_rejected(self, saved, tmp_path, monkeypatch, capsys):
        # a version-2 file: the encoder carries a key bias; a version-1
        # file: the head also carries query/key/separator tensors
        kind, tensors, meta = load_checkpoint(saved)
        tensors["encoder.0.b_k"] = np.zeros(16)
        v2 = dict(tensors)
        for name in ("w_q", "w_k"):
            tensors[f"classifier.encoder.{name}"] = np.zeros((16, 16))
        for name in ("b_q", "b_k", "sep"):
            tensors[f"classifier.encoder.{name}"] = np.zeros(16)
        for version, version_tensors in ((1, tensors), (2, v2)):
            monkeypatch.setattr(checkpoint, "FORMAT_VERSION", version)
            path = save_checkpoint(tmp_path / f"v{version}.npz", kind, version_tensors, meta)
            monkeypatch.undo()
            with pytest.raises(CheckpointError, match=f"format version {version} != 3"):
                ContextualModel.load(path)
            assert main(["eval", "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
            assert f"format version {version} != 3" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("encoder"), "lacks 'encoder'"),
        (lambda meta: meta["encoder"].update(layers="x"), "'layers' is malformed"),
        (lambda meta: meta["classifier"].pop("label_space"), "lacks 'label_space'"),
        (lambda meta: meta["encoder"].update(heads=3), "dim 16 not divisible by heads 3"),
        # int() would read these as 2, 1 and 1
        (lambda meta: meta["encoder"].update(heads=2.9), "'heads' is malformed"),
        (lambda meta: meta["encoder"].update(layers=True), "'layers' is malformed"),
        (lambda meta: meta["classifier"].update(dim="16"), "'dim' is malformed"),
        # seven ids, so the head's shape still matches
        (lambda meta: meta["classifier"].update(label_space=[0, 1, 2, 3, 4, 5, 9]), "distinct label ids in 0..6"),
        (lambda meta: meta["classifier"].update(label_space=[0, 1, 2, 3, 4, 5, 5]), "distinct label ids in 0..6"),
    ], ids=["no-encoder", "layers-not-int", "no-label-space", "heads-not-dividing-dim",
            "heads-float", "layers-bool", "dim-string", "label-id-out-of-range", "label-id-repeated"])
    def test_malformed_metadata_rejected(self, saved, tmp_path, capsys, edit, message):
        kind, tensors, meta = load_checkpoint(saved)
        edit(meta)
        path = save_checkpoint(tmp_path / "edited.npz", kind, tensors, meta)
        with pytest.raises(CheckpointError, match=message):
            ContextualModel.load(path)
        for command in ("eval", "predict"):
            assert main([command, "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
            assert "CheckpointError" in capsys.readouterr().err


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


class TestPassedClassifier:
    @pytest.mark.parametrize("clf_space, config_size", [(tuple(range(7)), 6), (EMOTION_IDS, 7)])
    def test_other_label_space_fails_before_any_step(self, train_corpus, store16, clf_space, config_size):
        classifier = pretrain_classifier(train_corpus, store16, label_space=clf_space, steps=2, seed=0)
        records = []
        with pytest.raises(ConfigError, match="label space"):
            train_contextual(train_corpus, store16, TrainConfig(epochs=1, seed=0, label_space_size=config_size),
                             classifier=classifier, log_hook=records.append)
        assert records == []


class TestNonFinite:
    @pytest.mark.parametrize("pretrained", [False, True])
    def test_nan_vector_in_store_raises(self, train_corpus, store16, pretrained):
        entries = dict(store16.entries)
        key = next(iter(entries))
        entries[key] = np.full(16, np.nan)
        store = SentenceEmbeddingStore(entries=entries, dim=16)
        # With a classifier passed in, pretraining is skipped and the NaN
        # first reaches an optimizer in the contextual loop.
        classifier = pretrain_classifier(train_corpus, store16, steps=2, seed=0) if pretrained else None
        with pytest.raises(NonFinite, match="optimizer step"):
            train_contextual(train_corpus, store, TrainConfig(epochs=1, pretrain_steps=5, seed=0),
                             classifier=classifier)
