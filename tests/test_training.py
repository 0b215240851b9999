from __future__ import annotations

import json
import math
import re
import weakref

import numpy as np
import pytest

from ercml.corpus import Corpus, Dialog, EMOTION_IDS, Utterance
from ercml import checkpoint, training
from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.cli import main
from ercml.classifier import classify_batch, init_classifier
from ercml.embeddings import SentenceEmbeddingStore, hash_store_for_corpus
from ercml.encoder import AttentionLayerParams, EncoderLayerParams, encode_dialog
from ercml.errors import CheckpointError, ConfigError, DimMismatch, MissingEmbedding, NonFinite
from ercml.optim import Adam
from ercml.training import (
    ContextualModel,
    TrainConfig,
    evaluate_model,
    predict,
    predict_dialogs,
    pretrain_from_config,
    train_contextual,
)

from support import content_digest


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
        ("margin", float("inf"), 0.1),  # would write `Infinity` into train.log
        ("summed_lambda", 0.0, 0.5),  # in every loss mode, not only summed
        ("summed_lambda", float("nan"), 0.5),
        ("summed_lambda", float("inf"), 0.5),
        ("pretrain_epochs", 0, 1),
        ("pretrain_batch_size", 0, 1),
        ("heads", 0, 1),
        ("ffn_dim", 0, 1),
        ("encoder_layers", 0, 1),
        ("triplets_per_batch", 0, 1),
        ("grad_clip", 0.0, 0.5),
        ("grad_clip", float("-inf"), float("inf")),  # inf is the flag spelling of "no clipping", stored as None
        ("seed", -1, 0),
        ("pretrain_steps", -3, 0),
        ("smooth_counts", -1, 0),
        ("max_steps", -1, 0),
    ])
    def test_numeric_lower_bounds(self, name, bad, ok):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            TrainConfig(**{name: bad})
        assert getattr(TrainConfig(**{name: ok}), name) == (None if ok == math.inf else ok)

    @pytest.mark.parametrize("name, value, refused", [
        ("epochs", None, True),
        ("seed", None, True),
        ("margin", None, True),
        ("weighted_ce", None, True),
        ("learning_rate", math.inf, True),
        ("grad_clip", None, False),  # None and inf both mean "no clipping", stored as None
        ("grad_clip", math.inf, False),
        ("ffn_dim", None, False),
    ])
    def test_none_and_infinity_follow_the_declared_type(self, name, value, refused):
        if refused:
            with pytest.raises(ConfigError, match=f"^{name} must"):
                TrainConfig(**{name: value})
        else:
            assert getattr(TrainConfig(**{name: value}), name) == (None if value == math.inf else value)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 1.5),
        ("epochs", "5"),
        ("seed", 1.5),
        ("heads", 2.0),
        ("epochs", True),
        ("weighted_ce", "no"),
        ("seed", np.int64(1)),  # the config echo's JSON cannot write it
    ])
    def test_a_value_of_another_type_is_refused(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", 1),
        ("learning_rate", np.float64(1e-3)),
        ("smooth_counts", None),
    ])
    def test_an_int_for_a_float_and_none_for_an_optional_field_are_accepted(self, name, value):
        assert getattr(TrainConfig(**{name: value}), name) == value


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
        digest_before = content_digest(store16)
        train_contextual(train_corpus, store16, self.small_cfg())
        assert content_digest(store16) == digest_before

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

    def test_all_neutral_batch_in_six_labels_changes_nothing(self):
        corpus = make_corpus([[0, 0, 0]], prefix="calm")
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        cfg = TrainConfig(epochs=1, label_space_size=6, seed=0)
        classifier = init_classifier(16, label_space=EMOTION_IDS, heads=cfg.heads, seed=1)
        before = {name: arr.copy() for name, arr in classifier.tensors().items()}
        records = []
        model = train_contextual(corpus, store, cfg, classifier=classifier, log_hook=records.append)
        assert records == [{"step": 1, "epoch": 0, "ce": 0.0, "triplet": 0.0, "active": 0, "triplet_skipped": True}]
        from ercml.encoder import init_encoder_stack
        assert params_equal(model.encoder, init_encoder_stack(16, heads=cfg.heads, seed=0))
        assert all(np.array_equal(arr, before[name]) for name, arr in model.classifier.tensors().items())

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

    @pytest.mark.parametrize("loss_mode", ["alternating", "summed"])
    def test_head_gradients_are_freed_before_the_encoder_backward(
        self, train_corpus, store16, monkeypatch, loss_mode
    ):
        # Once the head has stepped, nothing holds its gradients: the
        # encoder's backward and its step run without them.
        from ercml import training

        head_grads, dead_at_backward = [], []
        real_step, real_backward = Adam.step, training.encode_dialog_backward

        def step(self, grads):
            if "head.w" in grads:
                head_grads[:] = [weakref.ref(g) for g in grads.values()]
            return real_step(self, grads)

        def backward(*args):
            dead_at_backward.append([ref() is None for ref in head_grads])
            return real_backward(*args)

        monkeypatch.setattr(Adam, "step", step)
        monkeypatch.setattr(training, "encode_dialog_backward", backward)
        train_contextual(train_corpus, store16, self.small_cfg(max_steps=3, loss_mode=loss_mode))
        assert len(dead_at_backward) == (3 if loss_mode == "summed" else 6)
        assert all(dead and all(dead) for dead in dead_at_backward)

    @pytest.mark.parametrize("loss_mode", ["alternating", "summed"])
    def test_spent_forward_is_freed_before_the_encoder_steps(
        self, train_corpus, store16, monkeypatch, loss_mode
    ):
        # Once the encoder's backward has returned, nothing holds the
        # forward it read: the encoder's Adam step, and in alternating mode
        # the triplet half's fresh forward, run without it.
        encodings, dead_at_step = [], []
        real_step, real_encode = Adam.step, training.encode_dialog

        def encode(*args):
            encoding = real_encode(*args)
            encodings.append(weakref.ref(encoding))
            return encoding

        def step(self, grads):
            if "head.w" not in grads:
                dead_at_step.append([ref() is None for ref in encodings])
            return real_step(self, grads)

        monkeypatch.setattr(Adam, "step", step)
        monkeypatch.setattr(training, "encode_dialog", encode)
        train_contextual(train_corpus, store16, self.small_cfg(max_steps=3, loss_mode=loss_mode))
        assert len(dead_at_step) == (3 if loss_mode == "summed" else 6)
        assert all(dead and all(dead) for dead in dead_at_step)

    def test_two_layer_stack_trains_and_round_trips(self, train_corpus, store16, tmp_path):
        cfg = self.small_cfg(max_steps=2, encoder_layers=2)
        model = train_contextual(train_corpus, store16, cfg)
        assert len(model.encoder) == 2
        model.save(tmp_path / "deep.npz")
        again = ContextualModel.load(tmp_path / "deep.npz")
        assert len(again.encoder) == 2
        dialog = train_corpus.dialogs[0]
        assert predict(model, dialog, store16) == predict(again, dialog, store16)

    def test_two_layer_stack_holds_one_separator(self, train_corpus, store16, monkeypatch):
        # only the first layer's separator is interleaved into sequences:
        # the deeper layer, its checkpoint and the encoder optimizer's
        # moments hold none
        optimizers = []

        def recording_adam(tensors, **kwargs):
            optimizers.append(Adam(tensors, **kwargs))
            return optimizers[-1]

        monkeypatch.setattr(training, "Adam", recording_adam)
        model = train_contextual(train_corpus, store16, self.small_cfg(max_steps=2, encoder_layers=2))
        assert [type(layer) for layer in model.encoder] == [EncoderLayerParams, AttentionLayerParams]
        assert [name for name in model.tensors() if name.endswith("sep")] == ["encoder.0.sep"]
        encoder_optimizer = optimizers[0]
        assert [name for name in encoder_optimizer._m if name.endswith("sep")] == ["0.sep"]

    def test_batch_strategies_run(self, train_corpus, store16):
        for strategy in ("batch-all", "batch-hard"):
            cfg = self.small_cfg(max_steps=2, sampling_strategy=strategy)
            model = train_contextual(train_corpus, store16, cfg)
            assert model.encoder[0].dim == 16


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

    def test_tie_goes_to_lowest_label_space_index(self, train_corpus, store16):
        cfg = TrainConfig(epochs=1, max_steps=1, pretrain_steps=2, seed=0, label_space_size=6)
        model = train_contextual(train_corpus, store16, cfg)
        # w_out = 0: every utterance gets the logits b_out, over label
        # space (1, ..., 6), where indices 2 and 4 tie for the maximum
        model.classifier.w_out[...] = 0.0
        model.classifier.b_out[...] = [0.1, 0.3, 0.7, 0.2, 0.7, -1.0]
        for dialog in train_corpus.dialogs[:3]:
            assert predict(model, dialog, store16) == [EMOTION_IDS[2]] * len(dialog)

    def test_constant_logit_shift_keeps_labels(self, train_corpus, store16):
        model = train_contextual(train_corpus, store16, TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0))
        dialog = train_corpus.dialogs[0]
        before = predict(model, dialog, store16)
        model.classifier.b_out[...] += 37.5
        assert predict(model, dialog, store16) == before

    def test_memorized_tiny_corpus_predicts_gold(self):
        corpus = make_corpus([[0, 4, 1], [4, 0, 5], [1, 5, 4, 0]], prefix="tiny")
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        cfg = TrainConfig(epochs=200, max_steps=150, pretrain_steps=150, batch_size=3, seed=0)
        model = train_contextual(corpus, store, cfg)
        for dialog in corpus.dialogs:
            assert predict(model, dialog, store) == list(dialog.labels)


def unpacked_logits(model, dialog, store) -> np.ndarray:
    encoding = encode_dialog([dialog], store, model.encoder)
    return classify_batch(encoding.contextual, model.classifier)[0]


def predict_unpacked(model, dialog, store) -> list[int]:
    """Reference for the packed prediction path: one dialog per encoder
    pass, argmax of the head over each utterance row."""
    space = model.classifier.label_space
    return [space[int(i)] for i in np.argmax(unpacked_logits(model, dialog, store), axis=1)]


class TestPackedPrediction:
    @pytest.fixture(scope="class")
    def corpus(self):
        # 19 dialogs: two full packed batches of 8 and a partial one of 3,
        # with 1-utterance dialogs among them
        rng = np.random.default_rng(5)
        lengths = [1, 4, 2, 7, 1, 3, 5, 1, 6, 2, 3, 1, 4, 2, 5, 1, 3, 6, 1]
        return make_corpus([rng.integers(0, 7, n).tolist() for n in lengths], prefix="packed")

    @pytest.mark.parametrize("label_space_size", [7, 6])
    @pytest.mark.parametrize("encoder_layers", [1, 2])
    def test_matches_one_dialog_per_pass(self, corpus, monkeypatch, label_space_size, encoder_layers):
        store = hash_store_for_corpus(corpus, dim=16, seed=0)
        cfg = TrainConfig(epochs=1, max_steps=2, pretrain_steps=5, seed=0,
                          label_space_size=label_space_size, encoder_layers=encoder_layers)
        model = train_contextual(corpus, store, cfg)
        # centre each label's mean logit, so the argmax is not one label
        # everywhere and the comparison can tell rows apart
        logits = np.concatenate([unpacked_logits(model, d, store) for d in corpus.dialogs])
        model.classifier.b_out[...] -= logits.mean(axis=0)
        expected = [predict_unpacked(model, d, store) for d in corpus.dialogs]
        assert len({lab for labels in expected for lab in labels}) >= 4

        batches = []

        def spy(dialogs, *args):
            batches.append(len(dialogs))
            return encode_dialog(dialogs, *args)

        monkeypatch.setattr(training, "encode_dialog", spy)
        got = list(predict_dialogs(model, corpus.dialogs, store))
        assert batches == [8, 8, 3]
        assert [d for d, _ in got] == list(corpus.dialogs)
        assert [labels for _, labels in got] == expected


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

    @pytest.mark.parametrize("edit, name", [
        (lambda t: t.__setitem__("classifier.encoder.w_q", np.zeros((16, 16))), "classifier.encoder.w_q"),
        (lambda t: t.pop("classifier.head.w"), "classifier.head.w"),
    ], ids=["extra", "missing"])
    def test_classifier_errors_name_the_file_member(self, saved, tmp_path, edit, name):
        path = self.resave(saved, tmp_path, edit)
        with pytest.raises(CheckpointError, match=re.escape(f"'{name}'")):
            ContextualModel.load(path)

    def test_deeper_layer_separator_rejected(self, train_corpus, store16, tmp_path):
        # the layout of a multi-layer file whose deeper layers still
        # carried the separator they never read
        cfg = TrainConfig(epochs=1, max_steps=1, pretrain_steps=2, seed=0, encoder_layers=2)
        path = train_contextual(train_corpus, store16, cfg).save(tmp_path / "deep.npz")
        kind, tensors, meta = load_checkpoint(path)
        tensors["encoder.1.sep"] = tensors["encoder.0.sep"]
        save_checkpoint(path, kind, tensors, meta)
        with pytest.raises(CheckpointError, match=r"unexpected tensors \['encoder\.1\.sep'\]"):
            ContextualModel.load(path)

    def test_head_of_another_width_rejected(self, saved, tmp_path, capsys):
        # each part matches its own metadata; together they would fail
        # only at the first batch
        model = ContextualModel.load(saved)
        model.classifier = init_classifier(8)
        path = model.save(tmp_path / "narrow-head.npz")
        with pytest.raises(CheckpointError, match="classifier dim 8 != encoder dim 16"):
            ContextualModel.load(path)
        assert main(["eval", "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
        assert "CheckpointError" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["encoder.0.w_ff1", "encoder.0.sep", "classifier.encoder.w_o"])
    def test_misshaped_tensor(self, saved, tmp_path, name):
        path = self.resave(saved, tmp_path, lambda t: t.__setitem__(name, t[name][:-1]))
        with pytest.raises(CheckpointError, match=name.split(".", 1)[-1]):
            ContextualModel.load(path)

    def rewrite(self, saved, tmp_path, **members):
        """`saved` with archive members replaced as written, bypassing
        save_checkpoint's float conversion and metadata."""
        with np.load(saved) as archive:
            arrays = {**dict(archive), **members}
        np.savez(tmp_path / "rewritten.npz", **arrays)
        return tmp_path / "rewritten.npz"

    @pytest.mark.parametrize("name", ["encoder.0.w_v", "classifier.encoder.ln2_bias", "classifier.head.w"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_tensor(self, saved, tmp_path, capsys, name, value):
        def poison(tensors):
            tensors[name] = tensors[name].copy()
            tensors[name].flat[-1] = value
        path = self.resave(saved, tmp_path, poison)
        with pytest.raises(CheckpointError, match=f"{name.removeprefix('classifier.')}' holds a NaN or an infinity"):
            ContextualModel.load(path)
        assert main(["eval", "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
        assert "CheckpointError" in capsys.readouterr().err

    @pytest.mark.parametrize("name, dtype", [("encoder.0.w_q", "<U3"), ("classifier.head.b", np.float32)])
    def test_tensor_of_another_dtype(self, saved, tmp_path, name, dtype):
        _, tensors, _ = load_checkpoint(saved)
        path = self.rewrite(saved, tmp_path, **{f"t::{name}": tensors[name].astype(dtype)})
        with pytest.raises(CheckpointError, match=f"{name.removeprefix('classifier.')}' has dtype"):
            ContextualModel.load(path)

    def test_npz_without_metadata_rejected(self, tmp_path):
        np.savez(tmp_path / "plain.npz", w=np.zeros(2))
        with pytest.raises(CheckpointError, match=r"is not an ercml checkpoint \(no metadata entry\)"):
            ContextualModel.load(tmp_path / "plain.npz")

    @pytest.mark.parametrize("cut", [
        lambda data: b"",
        lambda data: data[:len(data) // 2],
        lambda data: b"not an archive",
    ], ids=["empty", "truncated", "not-an-archive"])
    def test_unreadable_file_rejected(self, saved, tmp_path, capsys, cut):
        path = tmp_path / "cut.npz"
        path.write_bytes(cut(saved.read_bytes()))
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            ContextualModel.load(path)
        assert main(["eval", "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
        assert "error: CheckpointError: cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", [0, -1])
    def test_stack_without_a_layer_rejected(self, saved, tmp_path, capsys, layers):
        kind, tensors, meta = load_checkpoint(saved)
        meta["encoder"]["layers"] = layers
        tensors = {name: arr for name, arr in tensors.items() if not name.startswith("encoder.")}
        path = save_checkpoint(tmp_path / "no-layers.npz", kind, tensors, meta)
        with pytest.raises(CheckpointError, match=f"{layers} encoder layers, need at least 1"):
            ContextualModel.load(path)
        assert main(["eval", "--model", str(path), "--data", "unused", "--store", "unused"]) == 1
        assert "CheckpointError" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [[1, 2], "text", 3])
    def test_metadata_not_an_object(self, saved, tmp_path, meta):
        path = self.rewrite(saved, tmp_path, __meta__=np.array(json.dumps(meta)))
        with pytest.raises(CheckpointError, match="metadata is a JSON .*, not an object"):
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
        # eval reads these only after scoring the whole split
        (lambda meta: meta.update(config_echo=[1, 2]), "'config_echo' is malformed"),
        (lambda meta: meta.update(config_echo="text"), "'config_echo' is malformed"),
        (lambda meta: meta["config_echo"].update(train_config=5), "'train_config' is malformed"),
        (lambda meta: meta.update(provider=5), "'provider' is malformed"),
    ], ids=["no-encoder", "layers-not-int", "no-label-space", "heads-not-dividing-dim",
            "heads-float", "layers-bool", "dim-string", "label-id-out-of-range", "label-id-repeated",
            "config-echo-list", "config-echo-string", "train-config-int", "provider-int"])
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
        classifier = pretrain_from_config(train_corpus, store16, TrainConfig(pretrain_steps=2, seed=0))
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
        classifier = pretrain_from_config(
            train_corpus, store16, TrainConfig(pretrain_steps=2, seed=0, label_space_size=len(clf_space))
        )
        records = []
        with pytest.raises(ConfigError, match="label space"):
            train_contextual(train_corpus, store16, TrainConfig(epochs=1, seed=0, label_space_size=config_size),
                             classifier=classifier, log_hook=records.append)
        assert records == []

    def test_other_width_fails_before_any_step(self, train_corpus, store16):
        records = []
        with pytest.raises(DimMismatch, match="classifier dim 8 != store dim 16"):
            train_contextual(train_corpus, store16, TrainConfig(epochs=1, seed=0),
                             classifier=init_classifier(8, seed=0), log_hook=records.append)
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
        classifier = (
            pretrain_from_config(train_corpus, store16, TrainConfig(pretrain_steps=2, seed=0)) if pretrained else None
        )
        with pytest.raises(NonFinite, match="optimizer step"):
            train_contextual(train_corpus, store, TrainConfig(epochs=1, pretrain_steps=5, seed=0),
                             classifier=classifier)
