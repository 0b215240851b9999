from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from ercml import classifier
from ercml.classifier import (
    ClassifierParams,
    batch_class_weights,
    ce_loss_and_grad,
    ce_step,
    classifier_backward,
    classifier_from_tensors,
    classify_batch,
    init_classifier,
    load_classifier,
    pretrain_classifier,
    save_classifier,
)
from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.corpus import EMOTION_IDS, Corpus, Dialog, Utterance, label_weights, utt_key
from ercml.embeddings import SentenceEmbeddingStore
from ercml.encoder import SingletonLayerParams, init_encoder
from ercml.errors import BadTarget, CheckpointError, DimMismatch, EmptyBatch
from ercml.gradcheck import fd_gradients, group_relative_error
from ercml.optim import Adam
from ercml.training import TrainConfig, pretrain_from_config

from support import weighted_cross_entropy


def classify(representation: np.ndarray, params) -> np.ndarray:
    """Logits for one utterance representation, shape (K,)."""
    logits, _ = classify_batch(representation[None, :], params)
    return logits[0]


class TestClassify:
    def test_hand_computed_degenerate_forward(self):
        # zero value/output/feed-forward paths reduce the encoder to
        # layernorm(layernorm(x)); at d=2 that is computable by hand
        params = init_classifier(2, label_space=(0, 1, 4), heads=1, ffn_dim=4, seed=0)
        for name in ("w_v", "b_v", "w_o", "b_o", "w_ff1", "b_ff1", "w_ff2", "b_ff2"):
            getattr(params.encoder, name)[...] = 0.0
        params.w_out[...] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        params.b_out[...] = np.array([0.0, 0.0, 1.0])

        x = np.array([1.0, 3.0])
        # pencil-and-paper: mean 2, deviations (-1, +1), var 1
        eps = 1e-5
        xhat = np.array([-1.0, 1.0]) / math.sqrt(1.0 + eps)
        # second norm: mean 0, var = xhat[0]^2
        xhat2 = xhat / math.sqrt(xhat[0] ** 2 + eps)
        expected = np.array([xhat2[0], xhat2[1], 1.0])
        np.testing.assert_allclose(classify(x, params), expected, atol=1e-12)

    def test_k_logits(self):
        params = init_classifier(8, seed=1)
        logits = classify(np.random.default_rng(0).standard_normal(8), params)
        assert logits.shape == (7,)
        assert np.all(np.isfinite(logits))

    def test_purity(self):
        params = init_classifier(8, seed=2)
        x = np.random.default_rng(1).standard_normal(8)
        np.testing.assert_array_equal(classify(x, params), classify(x.copy(), params))


class TestWeightedCrossEntropy:
    def test_saturated_softmax_near_zero(self):
        logits = np.full(7, -30.0)
        logits[4] = 30.0
        loss = weighted_cross_entropy(logits, 4, {}, tuple(range(7)))
        assert loss < 1e-9

    def test_uniform_logits_ln_k(self):
        loss = weighted_cross_entropy(np.zeros(7), 3, {}, tuple(range(7)))
        assert loss == pytest.approx(math.log(7), abs=1e-6)
        assert loss == pytest.approx(1.945910, abs=1e-6)

    def test_linear_in_weight(self):
        logits = np.array([0.3, -1.0, 2.0])
        space = (0, 1, 2)
        base = weighted_cross_entropy(logits, 1, {1: 1.0}, space)
        doubled = weighted_cross_entropy(logits, 1, {1: 2.0}, space)
        assert doubled == pytest.approx(2.0 * base)

    def test_bad_target(self):
        with pytest.raises(BadTarget):
            weighted_cross_entropy(np.zeros(3), 6, {}, (0, 1, 2))

    def test_batch_bad_target(self):
        with pytest.raises(BadTarget, match=r"\[6\]"):
            ce_loss_and_grad(np.zeros((1, 3)), [6], {}, (0, 1, 2))

    def test_strictly_positive_unless_saturated(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.standard_normal(7) * 3
            loss = weighted_cross_entropy(logits, 2, {}, tuple(range(7)))
            assert loss > 0.0

    def test_gradient_formula_and_finite_differences(self):
        # d(loss)/d(logits) = w(target) * (softmax - onehot), checked
        # against both the closed form and central differences
        rng = np.random.default_rng(6)
        space = tuple(range(7))
        logits = rng.standard_normal((4, 7))
        targets = [2, 0, 5, 2]
        weights = {0: 0.5, 2: 2.0, 5: 1.3}
        loss, d_logits = ce_loss_and_grad(logits, targets, weights, space)

        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        softmax = shifted / shifted.sum(axis=1, keepdims=True)
        expected = softmax.copy()
        for i, t in enumerate(targets):
            expected[i, t] -= 1.0
            expected[i] *= weights.get(t, 1.0) / len(targets)
        np.testing.assert_allclose(d_logits, expected, atol=1e-12)

        def loss_fn():
            return ce_loss_and_grad(logits, targets, weights, space)[0]

        numeric = fd_gradients(loss_fn, {"logits": logits}, eps=1e-5)["logits"]
        assert group_relative_error(d_logits, numeric) < 1e-5


class TestBatchClassWeights:
    def test_balanced_batch(self):
        w = batch_class_weights([1, 1, 2, 2])
        assert w[1] == pytest.approx(1.0)
        assert w[2] == pytest.approx(1.0)

    def test_imbalanced_batch(self):
        # 4 / (2 * 3) and 4 / (2 * 1)
        w = batch_class_weights([1, 1, 1, 2])
        assert w[1] == pytest.approx(2 / 3)
        assert w[2] == pytest.approx(2.0)

    def test_singleton_batch(self):
        assert batch_class_weights([4]) == {4: 1.0}

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            batch_class_weights([])


class TestClassifierGradients:
    def test_full_path_matches_finite_differences(self):
        params = init_classifier(6, label_space=(0, 1, 4), heads=2, ffn_dim=12, seed=9)
        rng = np.random.default_rng(10)
        reps = rng.standard_normal((5, 6))
        targets = [0, 1, 4, 1, 0]
        weights = batch_class_weights(targets)

        def loss():
            logits, _ = classify_batch(reps, params)
            return ce_loss_and_grad(logits, targets, weights, params.label_space)[0]

        logits, cache = classify_batch(reps, params)
        _, d_logits = ce_loss_and_grad(logits, targets, weights, params.label_space)
        d_reps, grads = classifier_backward(d_logits, cache, params)

        numeric = fd_gradients(loss, params.tensors(), eps=1e-4)
        for name in params.tensors():
            err = group_relative_error(grads[name], numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"
        numeric_reps = fd_gradients(loss, {"reps": reps}, eps=1e-4)["reps"]
        assert group_relative_error(d_reps, numeric_reps) < 1e-3


class TestPretrain:
    def test_overfits_mini_fixture(self, train_corpus, store16):
        params = pretrain_from_config(train_corpus, store16, TrainConfig(pretrain_steps=200, seed=0))
        reps, targets = [], []
        for d, u in train_corpus.iter_utterances():
            if u.label in EMOTION_IDS:
                reps.append(store16.get(d.id, u.index))
                targets.append(u.label)
        logits, _ = classify_batch(np.stack(reps), params)
        preds = [params.label_space[int(i)] for i in np.argmax(logits, axis=1)]
        acc = np.mean([p == t for p, t in zip(preds, targets)])
        assert acc >= 0.9

    def test_step_records_count_from_one(self, train_corpus, store16):
        records = []
        config = TrainConfig()
        pretrain_classifier(
            train_corpus, store16, label_space=config.label_space(), steps=3, batch_size=config.pretrain_batch_size,
            learning_rate=config.learning_rate, seed=0, heads=config.heads, ffn_dim=config.ffn_dim,
            weighted_sampler=config.weighted_sampler, weighted_ce=config.weighted_ce,
            smooth_counts=config.smooth_counts, grad_clip=config.grad_clip, log_hook=records.append,
        )
        assert [r["step"] for r in records] == [1, 2, 3]
        assert all(set(r) == {"step", "ce"} and math.isfinite(r["ce"]) for r in records)

    def test_seed_determinism(self, train_corpus, store16):
        config = TrainConfig(pretrain_steps=30, seed=11)
        a = pretrain_from_config(train_corpus, store16, config)
        b = pretrain_from_config(train_corpus, store16, config)
        for name, arr in a.tensors().items():
            np.testing.assert_array_equal(arr, b.tensors()[name])

    def test_six_label_ablation_space(self, train_corpus, store16):
        params = pretrain_from_config(
            train_corpus, store16, TrainConfig(pretrain_steps=20, seed=0, label_space_size=6)
        )
        assert params.label_space == EMOTION_IDS
        assert len(params.label_space) == 6
        logits = classify(np.zeros(16), params)
        assert logits.shape == (6,)

    def test_peak_holds_no_copy_of_the_store(self):
        # A batch copies only the rows it draws, so pretraining a small head
        # never holds a float64 copy of the N in-space vectors.
        dim = 64
        corpus = Corpus(split="train", dialogs=tuple(
            Dialog(id=f"d{i}", utterances=tuple(Utterance(index=j, text=f"t{j}", label=j % 7) for j in range(10)))
            for i in range(1000)
        ))
        vectors = np.random.default_rng(0).standard_normal((10_000, dim))
        keys = [utt_key(d.id, u.index) for d, u in corpus.iter_utterances()]
        store = SentenceEmbeddingStore(entries=dict(zip(keys, vectors)), dim=dim)
        config = TrainConfig(pretrain_steps=5, heads=2, ffn_dim=8)
        tracemalloc.start()
        try:
            pretrain_from_config(corpus, store, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < vectors.nbytes


class TestCeStep:
    """Pretraining's step against the four calls it stands for, each
    written out, over 20 steps of the same draws."""

    @pytest.mark.parametrize("weighted_ce", [True, False])
    @pytest.mark.parametrize("label_space_size", [7, 6])
    def test_pretraining_matches_the_calls_it_replaces(self, train_corpus, store16, weighted_ce, label_space_size):
        config = TrainConfig(seed=4, pretrain_steps=20, weighted_ce=weighted_ce, label_space_size=label_space_size)
        space = config.label_space()
        records = []
        params = pretrain_classifier(
            train_corpus, store16, label_space=space, steps=20, batch_size=config.pretrain_batch_size,
            learning_rate=config.learning_rate, seed=config.seed, heads=config.heads, ffn_dim=config.ffn_dim,
            weighted_sampler=True, weighted_ce=weighted_ce, smooth_counts=config.smooth_counts,
            grad_clip=config.grad_clip, log_hook=records.append,
        )

        items = [(store16.get(d.id, u.index), u.label) for d, u in train_corpus.iter_utterances() if u.label in space]
        class_w = label_weights(train_corpus, labels=space, smooth_counts=config.smooth_counts)
        item_w = np.array([class_w[lab] for _, lab in items])
        rng = np.random.default_rng(config.seed)
        ref = init_classifier(store16.dim, label_space=space, heads=config.heads, ffn_dim=config.ffn_dim,
                              seed=config.seed)
        adam = Adam(ref.tensors(), lr=config.learning_rate, clip_norm=config.grad_clip)
        for record in records:
            chosen = rng.choice(len(items), size=config.pretrain_batch_size, p=item_w / item_w.sum())
            targets = [items[i][1] for i in chosen]
            weights = batch_class_weights(targets) if weighted_ce else {}
            logits, cache = classify_batch(np.stack([items[i][0] for i in chosen]), ref)
            loss, d_logits = ce_loss_and_grad(logits, targets, weights, space)
            _, grads = classifier_backward(d_logits, cache, ref)
            adam.step(grads)
            assert record["ce"] == loss
        assert len(records) == 20
        for name, arr in ref.tensors().items():
            np.testing.assert_array_equal(params.tensors()[name], arr, err_msg=name)

    def test_returns_the_input_gradient(self):
        params = init_classifier(6, label_space=(0, 1, 4), heads=2, seed=9)
        reps = np.random.default_rng(10).standard_normal((5, 6))
        targets = [0, 1, 4, 1, 0]
        loss, d_reps, grads = ce_step(reps, targets, params, weighted_ce=True)
        logits, cache = classify_batch(reps, params)
        want_loss, d_logits = ce_loss_and_grad(logits, targets, batch_class_weights(targets), params.label_space)
        want_reps, want_grads = classifier_backward(d_logits, cache, params)
        assert loss == want_loss
        np.testing.assert_array_equal(d_reps, want_reps)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


class TestWeightedDraw:
    """Pretraining draws a weighted batch from a CDF built once; this is
    what `rng.choice(n, size, p=probs)` does inside on every call."""

    @pytest.mark.parametrize("n", [400, 87_170])
    def test_same_indices_and_rng_state_as_choice(self, n):
        probs = np.random.default_rng(n).integers(1, 50, size=n).astype(float)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2000):
            np.testing.assert_array_equal(cdf.searchsorted(ours.random(32), side="right"),
                                          theirs.choice(n, size=32, p=probs))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("weighted_sampler", [True, False])
    def test_pretraining_batches_are_choice_draws(self, train_corpus, store16, monkeypatch, weighted_sampler):
        config = TrainConfig(seed=5, weighted_sampler=weighted_sampler, pretrain_steps=40)
        batches = []
        real = classifier.classify_batch

        def recording(x, params):
            batches.append(x.copy())
            return real(x, params)

        monkeypatch.setattr(classifier, "classify_batch", recording)
        pretrain_from_config(train_corpus, store16, config)
        items = [(store16.get(d.id, u.index), u.label) for d, u in train_corpus.iter_utterances()
                 if u.label in config.label_space()]
        vectors = np.stack([vec for vec, _ in items])
        probs = None
        if weighted_sampler:
            class_w = label_weights(train_corpus, labels=config.label_space(), smooth_counts=config.smooth_counts)
            item_w = np.array([class_w[lab] for _, lab in items])
            probs = item_w / item_w.sum()
        rng = np.random.default_rng(config.seed)
        assert len(batches) == 40
        for batch in batches:
            chosen = rng.choice(len(items), size=config.pretrain_batch_size, p=probs)
            np.testing.assert_array_equal(batch, vectors[chosen])


class TestInit:
    @pytest.mark.parametrize("dim,heads,seed", [(8, 2, 0), (12, 3, 5), (16, 4, 41)])
    def test_same_stream_as_full_encoder_layer(self, dim, heads, seed):
        # the head's layer keeps every value the full layer drawn at
        # seed + 1 would have, so dropping the query/key/separator
        # tensors changed no initial parameter
        encoder = init_classifier(dim, heads=heads, seed=seed).encoder
        full = init_encoder(dim, heads=heads, seed=seed + 1)
        assert type(encoder) is SingletonLayerParams
        for name in SingletonLayerParams.TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(encoder, name), getattr(full, name))

    def test_tensors_are_the_rowwise_half_plus_head(self):
        names = set(init_classifier(8, seed=0).tensors())
        expected = {f"encoder.{n}" for n in SingletonLayerParams.TENSOR_NAMES} | {"head.w", "head.b"}
        assert names == expected  # 12 row-wise tensors plus the two head tensors

    @pytest.mark.parametrize("shape", [(8, 6), (6, 7), (7 * 8,)])
    def test_head_of_the_wrong_shape_rejected(self, shape):
        params = init_classifier(8, seed=0)
        with pytest.raises(DimMismatch, match=rf"head shape {re.escape(str(shape))} incompatible with dim 8 and 7 labels"):
            ClassifierParams(encoder=params.encoder, w_out=np.zeros(shape), b_out=params.b_out,
                             label_space=params.label_space)


class TestCheckpointRoundTrip:
    def test_to_from_tensors(self):
        params = init_classifier(8, seed=3)
        again = classifier_from_tensors(params.tensors(), params.meta())
        assert again.label_space == params.label_space
        for name, arr in params.tensors().items():
            np.testing.assert_array_equal(arr, again.tensors()[name])

    def test_missing_tensor(self):
        params = init_classifier(8, seed=3)
        tensors, meta = params.tensors(), params.meta()
        del tensors["encoder.w_ff1"]
        with pytest.raises(CheckpointError, match="encoder.w_ff1"):
            classifier_from_tensors(tensors, meta)

    def test_extra_tensor(self, tmp_path):
        # a head written with the dead query projection is not silently accepted
        params = init_classifier(8, seed=3)
        tensors = {**params.tensors(), "encoder.w_q": np.zeros((8, 8))}
        path = save_checkpoint(tmp_path / "head.npz", "classifier", tensors, {**params.meta(), "provider": "hash"})
        with pytest.raises(CheckpointError, match="encoder.w_q"):
            load_classifier(path)

    def test_file_round_trip_records_provider(self, tmp_path):
        params = init_classifier(8, seed=3)
        path = save_classifier(tmp_path / "head.npz", params, "hash", {"command": "pretrain"}, 3)
        again, provider = load_classifier(path)
        assert provider == "hash"
        assert again.label_space == params.label_space
        for name, arr in params.tensors().items():
            np.testing.assert_array_equal(arr, again.tensors()[name])
        # the metadata is the head's sizes and label space plus the provider, echo and seed
        _, _, meta = load_checkpoint(path)
        assert {k: meta[k] for k in meta.keys() - {"format_version", "kind", "tensor_names"}} == {
            **params.meta(), "provider": "hash", "config_echo": {"command": "pretrain"}, "seed": 3,
        }

    def test_file_without_provider_reads_unknown(self, tmp_path):
        # a head file written before the provider was recorded
        params = init_classifier(8, seed=3)
        path = save_checkpoint(tmp_path / "head.npz", "classifier", params.tensors(), params.meta())
        assert load_classifier(path)[1] == "unknown"

    @pytest.mark.parametrize("provider", [5, None, ["hash"]])
    def test_file_with_a_provider_that_is_not_a_string(self, tmp_path, provider):
        params = init_classifier(8, seed=3)
        meta = {**params.meta(), "provider": provider}
        path = save_checkpoint(tmp_path / "head.npz", "classifier", params.tensors(), meta)
        with pytest.raises(CheckpointError, match="'provider' is malformed"):
            load_classifier(path)

    @pytest.mark.parametrize("label_space", [
        [0, 1, 2, 3, 4, 5, 9], [0, 1, 2, 3, 4, 5, 5], [-1, 1, 2, 3, 4, 5, 6],
        [0, 1, 2, 3, 4, 5, 6.0], [0, 1, 2, 3, 4, 5, "6"], [0, 1, 2, 3, 4, 5, True], 7,
    ])
    def test_bad_label_ids(self, label_space):
        params = init_classifier(8, seed=3)
        tensors, meta = params.tensors(), params.meta()
        meta["label_space"] = label_space
        with pytest.raises(CheckpointError, match="'label_space' is malformed"):
            classifier_from_tensors(tensors, meta)

    @pytest.mark.parametrize("name", ["encoder.w_ff2", "encoder.ln1_gain", "head.w", "head.b"])
    def test_misshaped_tensor(self, name):
        params = init_classifier(8, seed=3)
        tensors, meta = params.tensors(), params.meta()
        tensors[name] = tensors[name][..., :-1]
        with pytest.raises(CheckpointError, match=name):
            classifier_from_tensors(tensors, meta)

    @pytest.mark.parametrize("name, value", [("encoder.w_o", np.nan), ("head.b", np.inf)])
    def test_non_finite_tensor(self, name, value):
        params = init_classifier(8, seed=3)
        tensors, meta = params.tensors(), params.meta()
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] = value
        with pytest.raises(CheckpointError, match=f"{name}' holds a NaN or an infinity"):
            classifier_from_tensors(tensors, meta)

    @pytest.mark.parametrize("name", ["encoder.b_ff1", "head.w"])
    def test_string_tensor(self, name):
        params = init_classifier(8, seed=3)
        tensors, meta = params.tensors(), params.meta()
        tensors[name] = np.full(tensors[name].shape, "0.5")
        with pytest.raises(CheckpointError, match=f"{name}' has dtype <U3, expected float64"):
            classifier_from_tensors(tensors, meta)
