from __future__ import annotations

import numpy as np
import pytest
from scipy.special import erf

from ercml import optim
from ercml.corpus import Dialog, Utterance
from ercml.embeddings import SentenceEmbeddingStore
from ercml.encoder import (
    SingletonLayerParams,
    _gelu_forward,
    _layer_norm_backward,
    build_batch_sequence,
    build_dialog_sequence,
    encode_dialog,
    encode_dialog_backward,
    encoder_backward,
    encoder_forward,
    init_encoder,
    init_encoder_stack,
    layer_from_tensors,
    layer_meta,
    sep_gradient,
    singleton_backward,
    singleton_forward,
    sinusoidal_positions,
    stack_backward,
    stack_forward,
    stack_tensors,
)
from ercml.errors import BadHeadCount, MissingEmbedding, ShapeMismatch
from ercml.gradcheck import fd_gradients, group_relative_error

from support import break_compiler


# GELU and its derivative as separate formulas, each computing the normal
# CDF itself: the reference for the encoder's row-wise half, which
# computes the CDF once in the forward and keeps it for the backward.
def reference_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def reference_normal_cdf(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def reference_gelu_grad(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def make_dialog(n_utts: int, dialog_id: str = "d") -> Dialog:
    return Dialog(
        id=dialog_id,
        utterances=tuple(
            Utterance(index=i, text=f"utterance {i}", label=i % 7) for i in range(n_utts)
        ),
    )


def make_store(dialog: Dialog, dim: int, seed: int = 0) -> SentenceEmbeddingStore:
    rng = np.random.default_rng(seed)
    entries = {
        f"{dialog.id}#{u.index}": rng.standard_normal(dim) for u in dialog.utterances
    }
    return SentenceEmbeddingStore(entries=entries, dim=dim)


class TestInit:
    def test_deterministic(self):
        a = init_encoder(8, heads=2, seed=5)
        b = init_encoder(8, heads=2, seed=5)
        for name, arr in a.tensors().items():
            np.testing.assert_array_equal(arr, b.tensors()[name])

    def test_bad_head_count(self):
        with pytest.raises(BadHeadCount):
            init_encoder(8, heads=3)

    def test_per_head_dim(self):
        # provider-native width split across 6 heads
        params = init_encoder(384, heads=6)
        assert params.head_dim() == 64

    def test_layer_norms_at_identity(self):
        params = init_encoder(8, heads=2)
        np.testing.assert_array_equal(params.ln1_gain, np.ones(8))
        np.testing.assert_array_equal(params.ln2_bias, np.zeros(8))


class TestPositionalEncodings:
    def test_shape_and_first_row(self):
        pe = sinusoidal_positions(5, 8)
        assert pe.shape == (5, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)  # cos(0)

    def test_odd_dim(self):
        assert sinusoidal_positions(3, 7).shape == (3, 7)

    def test_rows_distinct(self):
        pe = sinusoidal_positions(10, 16)
        assert not np.allclose(pe[1], pe[2])


class TestBuildDialogSequence:
    def test_three_utterances(self):
        dialog = make_dialog(3)
        params = init_encoder(8, heads=2)
        seq = build_dialog_sequence(dialog, make_store(dialog, 8), params)
        assert seq.tokens.shape == (7, 8)
        assert seq.sep_positions == (0, 2, 4, 6)
        np.testing.assert_array_equal(seq.tokens[0], params.sep)
        np.testing.assert_array_equal(seq.tokens[2], params.sep)

    def test_single_utterance(self):
        dialog = make_dialog(1)
        seq = build_dialog_sequence(dialog, make_store(dialog, 8), init_encoder(8, heads=2))
        assert seq.tokens.shape == (3, 8)

    def test_missing_embedding(self):
        dialog = make_dialog(3)
        store = make_store(make_dialog(2), 8)  # covers indices 0 and 1 only
        with pytest.raises(MissingEmbedding):
            build_dialog_sequence(dialog, store, init_encoder(8, heads=2))

    def test_dim_mismatch(self):
        dialog = make_dialog(2)
        with pytest.raises(ShapeMismatch):
            build_dialog_sequence(dialog, make_store(dialog, 8), init_encoder(16, heads=2))


class TestEncoderForward:
    @pytest.mark.parametrize("n_utts", [1, 2, 5])
    def test_shape_preserved(self, n_utts):
        dialog = make_dialog(n_utts)
        params = init_encoder(8, heads=2)
        seq = build_dialog_sequence(dialog, make_store(dialog, 8), params)
        out, _ = encoder_forward(seq.encoder_input(), params)
        assert out.shape == seq.tokens.shape

    def test_degenerate_path_is_double_layernorm(self):
        # zero value/output/feed-forward projections, layer norms at
        # identity: the layer reduces to layernorm(layernorm(x)) rowwise
        params = init_encoder(8, heads=2, seed=3)
        for name in ("w_v", "b_v", "w_o", "b_o", "w_ff1", "b_ff1", "w_ff2", "b_ff2"):
            getattr(params, name)[...] = 0.0
        x = np.random.default_rng(0).standard_normal((5, 8))
        out, _ = encoder_forward(x, params)

        def ln(m):  # independent reference layer norm
            mu = m.mean(axis=1, keepdims=True)
            var = m.var(axis=1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-5)

        np.testing.assert_allclose(out, ln(ln(x)), atol=1e-10)

    def test_shape_mismatch(self):
        params = init_encoder(8, heads=2)
        with pytest.raises(ShapeMismatch):
            encoder_forward(np.zeros((3, 7)), params)

    def test_permutation_sensitivity(self):
        dialog = make_dialog(3)
        store = make_store(dialog, 8, seed=2)
        params = init_encoder(8, heads=2, seed=1)
        base = encode_dialog([dialog], store, [params]).contextual
        permuted = Dialog(
            id="d",
            utterances=(
                Utterance(0, dialog.utterances[1].text, dialog.utterances[1].label),
                Utterance(1, dialog.utterances[0].text, dialog.utterances[0].label),
                Utterance(2, dialog.utterances[2].text, dialog.utterances[2].label),
            ),
        )
        store_perm = SentenceEmbeddingStore(
            entries={
                "d#0": store.entries["d#1"].copy(),
                "d#1": store.entries["d#0"].copy(),
                "d#2": store.entries["d#2"].copy(),
            },
            dim=8,
        )
        swapped = encode_dialog([permuted], store_perm, [params]).contextual
        # utterance originally at index 0 now sits at index 1; its
        # contextual vector must have changed by more than 1e-6 somewhere
        assert np.abs(swapped[1] - base[0]).max() > 1e-6

    def test_context_sensitivity(self):
        # the same embedded utterance in two different dialogs gets two
        # different contextual representations
        params = init_encoder(8, heads=2, seed=1)
        rng = np.random.default_rng(4)
        shared = rng.standard_normal(8)
        d1 = make_dialog(2, "a")
        d2 = make_dialog(2, "b")
        store = SentenceEmbeddingStore(
            entries={
                "a#0": shared.copy(), "a#1": rng.standard_normal(8),
                "b#0": shared.copy(), "b#1": rng.standard_normal(8),
            },
            dim=8,
        )
        ctx1 = encode_dialog([d1], store, [params]).contextual
        ctx2 = encode_dialog([d2], store, [params]).contextual
        assert np.abs(ctx1[0] - ctx2[0]).max() > 1e-6


class TestEncoderGradients:
    def test_all_parameter_groups_match_finite_differences(self):
        dialog = make_dialog(4)
        store = make_store(dialog, 8, seed=9)
        params = init_encoder(8, heads=2, ffn_dim=16, seed=7)
        rng = np.random.default_rng(13)
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
        for name in params.TENSOR_NAMES:
            err = group_relative_error(grads[name], numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"

    def test_contextual_gradient_matches_finite_differences(self):
        # gradient through build -> encode -> split, utterance rows only
        dialog = make_dialog(3)
        store = make_store(dialog, 8, seed=1)
        params = init_encoder(8, heads=2, seed=2)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((3, 8))

        def loss():
            enc = encode_dialog([dialog], store, [params])
            return float((coeffs * enc.contextual).sum())

        encoding = encode_dialog([dialog], store, [params])
        grads = encode_dialog_backward(coeffs.copy(), encoding, [params])
        assert set(grads) == {f"0.{name}" for name in params.TENSOR_NAMES}
        numeric = fd_gradients(loss, params.tensors(), eps=1e-4)
        for name in params.TENSOR_NAMES:
            err = group_relative_error(grads[f"0.{name}"], numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"

    @pytest.mark.parametrize("path", ["layer", "singleton"])
    def test_gelu_matches_reference_formulas_bit_for_bit(self, path):
        rng = np.random.default_rng(17)
        params = random_stack(rng, 1)[0]
        x = 3.0 * rng.standard_normal((11, 8))
        d_out = rng.standard_normal((11, 8))
        if path == "layer":
            mask = np.where(np.arange(11)[:, None] // 4 == np.arange(11)[None, :] // 4, 0.0, -np.inf)
            _, cache = encoder_forward(x, params, mask)
            _, grads = encoder_backward(d_out, cache, params)
            c = cache.rowwise
        else:
            single = singleton_layer(params)
            _, c = singleton_forward(x, single)
            _, grads = singleton_backward(d_out, c, single)
        # the cache keeps GELU's gate, not its output: pre * cdf is the output
        np.testing.assert_array_equal(c.pre * c.cdf, reference_gelu(c.pre))
        dr2, _, _ = _layer_norm_backward(d_out, c.xhat2, c.inv2, params.ln2_gain)
        np.testing.assert_array_equal(grads["w_ff2"], reference_gelu(c.pre).T @ dr2)
        dpre = (dr2 @ params.w_ff2.T) * reference_gelu_grad(c.pre)
        np.testing.assert_array_equal(grads["w_ff1"], c.n1.T @ dpre)
        np.testing.assert_array_equal(grads["b_ff1"], dpre.sum(axis=0))

    @pytest.mark.parametrize("lengths", [[1], [1, 1], [3, 1, 4, 1], [2, 5], None])
    def test_emitted_rows_match_full_width_layer(self, lengths):
        # a layer emitting some rows against the full-width layer
        # followed by selecting them: output, every weight gradient and
        # the input gradient over all rows
        rng = np.random.default_rng(sum(lengths or [0]))
        for _ in range(6):
            if lengths is None:
                dialogs, store = random_dialogs(rng, int(rng.integers(1, 9)), 8)
            else:
                dialogs = [make_dialog(n, f"b{i}") for i, n in enumerate(lengths)]
                store = SentenceEmbeddingStore(
                    entries={f"{d.id}#{u.index}": rng.standard_normal(8) for d in dialogs for u in d.utterances},
                    dim=8,
                )
            params = random_stack(rng, 1)[0]
            seq = build_batch_sequence(dialogs, store, params)
            x = seq.encoder_input()
            full, full_cache = encoder_forward(x, params, seq.mask)
            some_rows = rng.permutation(len(x))[: int(rng.integers(1, len(x) + 1))]
            for rows in (seq.utterance_rows, some_rows):
                d_out = rng.standard_normal((len(rows), 8))
                d_full = np.zeros_like(full)
                d_full[rows] = d_out
                d_input, want = encoder_backward(d_full, full_cache, params)
                want.update(out=full[rows], d_input=d_input)
                out, cache = encoder_forward(x, params, seq.mask, rows)
                d_input, got = encoder_backward(d_out.copy(), cache, params)
                got.update(out=out, d_input=d_input)
                assert set(got) == set(want)
                for name, g in got.items():
                    assert g.shape == want[name].shape, name
                    assert np.abs(g - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), name


def ulps_around(x: float, k: int) -> np.ndarray:
    """`x` and its k nearest doubles on each side."""
    out = [x]
    below = above = x
    for _ in range(k):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.array(sorted(out))


MAXLOG = 7.09782712893383996843e2  # scipy's erfc underflow edge: exp(-z*z) is taken only for z*z <= MAXLOG


def random_bit_patterns(n: int) -> np.ndarray:
    return np.random.default_rng(29).integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


class TestGeluKernel:
    """The compiled gate gives scipy's bits everywhere, and so does the
    scipy expression that stands in without a compiler."""

    PRE = {
        **{f"size-{n}": np.random.default_rng(n).standard_normal(n) * 3.0 for n in (1, 2, 3, 7, 9, 4097)},
        "sqrt2": np.concatenate([ulps_around(np.sqrt(2.0), 4), -ulps_around(np.sqrt(2.0), 4)]),
        # pre/sqrt(2) lands on both sides of scipy's erfc split at 8 and of its underflow edge
        "erfc-split-8": np.concatenate([ulps_around(8.0 * np.sqrt(2.0), 6), -ulps_around(8.0 * np.sqrt(2.0), 6)]),
        "erfc-underflow": np.concatenate([ulps_around(np.sqrt(MAXLOG) * np.sqrt(2.0), 6),
                                          -ulps_around(np.sqrt(MAXLOG) * np.sqrt(2.0), 6)]),
        "extremes": np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                              2.2250738585072014e-308, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max,
                              np.inf, -np.inf]),
        "nan": np.array([np.nan, -np.nan, 1.0, np.nan]),
        "bit-patterns": random_bit_patterns(100_001),
        # dense over the range in which the gate is neither 0 nor 1
        "dense": np.random.default_rng(31).uniform(-12.0, 12.0, 200_001),
        # log-spaced over the range in which the gate is 0 or 1, most of it
        # past the kernel's shortcut at pre/sqrt(2) = 8: |pre/sqrt(2)| from
        # 5.8, |pre| up to the largest double (a geomspace ending there
        # overflows)
        "saturated": np.outer([1.0, -1.0], np.append(np.geomspace(5.8 * np.sqrt(2.0), np.finfo(float).max / 2, 10_000),
                                                     np.finfo(float).max)).ravel(),
    }

    def test_inputs_straddle_the_splits(self):
        z = self.PRE["erfc-split-8"] / np.sqrt(2.0)
        assert 8.0 in z and -8.0 in z and (z > 8.0).any() and ((0 < z) & (z < 8.0)).any()
        z = self.PRE["erfc-underflow"] / np.sqrt(2.0)
        assert (z * z > MAXLOG).any() and (z * z <= MAXLOG).any()
        bits = self.PRE["bit-patterns"]
        assert np.isnan(bits).any() and (np.abs(bits) < 2.2250738585072014e-308).any()
        assert ((np.abs(bits) > 1.0) & (np.abs(bits) < 40.0)).any()

    @pytest.mark.parametrize("gate", ["kernel", "scipy"])
    @pytest.mark.parametrize("name", list(PRE))
    def test_bit_for_bit_with_scipy(self, monkeypatch, gate, name):
        if gate == "scipy":
            break_compiler(monkeypatch)
        pre = self.PRE[name].copy()
        with np.errstate(all="ignore"):
            cdf, act = _gelu_forward(pre)
            want_cdf, want_act = reference_normal_cdf(pre), reference_gelu(pre)
        assert (optim._kernel is not None) == (gate == "kernel")
        np.testing.assert_array_equal(pre, self.PRE[name])
        for got, want in ((cdf, want_cdf), (act, want_act)):
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_two_dimensional_rows(self):
        pre = np.random.default_rng(3).standard_normal((5, 7))
        cdf, act = _gelu_forward(pre)
        assert cdf.shape == act.shape == (5, 7)
        np.testing.assert_array_equal(act, reference_gelu(pre))


class TestEncoderStack:
    def test_stack_without_a_layer_rejected(self):
        with pytest.raises(ShapeMismatch, match="need at least one encoder layer, got 0"):
            init_encoder_stack(8, heads=2, layers=0)

    def test_single_layer_stack_matches_plain_layer(self):
        stack = init_encoder_stack(8, heads=2, seed=3)
        x = np.random.default_rng(0).standard_normal((5, 8))
        out_stack, _ = stack_forward(x, stack)
        out_plain, _ = encoder_forward(x, stack[0])
        np.testing.assert_array_equal(out_stack, out_plain)

    def test_two_layer_shape_and_gradients(self):
        stack = init_encoder_stack(6, heads=2, ffn_dim=12, layers=2, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 6))
        coeffs = rng.standard_normal((5, 6))

        def loss():
            out, _ = stack_forward(x, stack)
            return float((coeffs * out).sum())

        out, caches = stack_forward(x, stack)
        assert out.shape == x.shape
        dx, grads = stack_backward(coeffs.copy(), caches, stack)
        numeric = fd_gradients(loss, stack_tensors(stack), eps=1e-4)
        for name, g in grads.items():
            err = group_relative_error(g, numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"
        numeric_x = fd_gradients(loss, {"x": x}, eps=1e-4)["x"]
        assert group_relative_error(dx, numeric_x) < 1e-3


# --- the packed batch against the per-dialog loop it replaced --------------

def random_dialogs(rng, n_dialogs, dim, max_utts=14):
    """Dialogs of 1..max_utts utterances with ids in batch order, and a
    store covering them."""
    dialogs = [make_dialog(int(rng.integers(1, max_utts + 1)), f"b{i}") for i in range(n_dialogs)]
    store = SentenceEmbeddingStore(
        entries={f"{d.id}#{u.index}": rng.standard_normal(dim) for d in dialogs for u in d.utterances},
        dim=dim,
    )
    return dialogs, store


def random_stack(rng, layers, dim=8, heads=2, ffn_dim=16):
    """An encoder stack with every tensor moved off its initial value,
    so no bias is zero and no gain is one."""
    stack = init_encoder_stack(dim, heads=heads, ffn_dim=ffn_dim, layers=layers, seed=int(rng.integers(100)))
    for arr in stack_tensors(stack).values():
        arr += 0.1 * rng.standard_normal(arr.shape)
    return stack


def per_dialog_reference(dialogs, store, stack, d_contextual):
    """One stack_forward and one stack_backward per dialog, the weight
    gradients summed over dialogs. Returns (contextual rows in batch
    order, grads keyed like stack_tensors)."""
    dim = stack[0].dim
    rows, grads = [], {}
    start = 0
    for dialog in dialogs:
        n = len(dialog)
        tokens = np.empty((2 * n + 1, dim))
        tokens[0::2] = stack[0].sep
        tokens[1::2] = [store.get(dialog.id, i) for i in range(n)]
        out, caches = stack_forward(tokens + sinusoidal_positions(2 * n + 1, dim), stack)
        rows.append(out[1::2])
        d_out = np.zeros_like(out)
        d_out[1::2] = d_contextual[start:start + n]
        start += n
        d_input, dialog_grads = stack_backward(d_out, caches, stack)
        dialog_grads["0.sep"] = d_input[0::2].sum(axis=0)
        for name, g in dialog_grads.items():
            grads[name] = grads[name] + g if name in grads else g
    return np.vstack(rows), grads


class TestPackedBatch:
    def test_packing_concatenates_dialogs(self):
        rng = np.random.default_rng(0)
        dialogs, store = random_dialogs(rng, 3, 8)
        params = init_encoder(8, heads=2)
        packed = build_batch_sequence(dialogs, store, params)
        singles = [build_dialog_sequence(d, store, params) for d in dialogs]
        np.testing.assert_array_equal(packed.tokens, np.vstack([s.tokens for s in singles]))
        # positions restart at 0 in every dialog
        np.testing.assert_array_equal(packed.positions, np.vstack([s.positions for s in singles]))
        starts = np.cumsum([0] + [len(s.tokens) for s in singles])
        assert packed.sep_positions == tuple(
            int(a + p) for a, s in zip(starts, singles) for p in s.sep_positions
        )
        np.testing.assert_array_equal(
            packed.utterance_rows, np.concatenate([a + s.utterance_rows for a, s in zip(starts, singles)])
        )
        block = np.zeros((starts[-1], starts[-1]), dtype=bool)
        for a, b in zip(starts, starts[1:]):
            block[a:b, a:b] = True
        np.testing.assert_array_equal(packed.mask, np.where(block, 0.0, -np.inf))
        assert all(s.mask is None for s in singles)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_per_dialog_loop(self, layers):
        rng = np.random.default_rng(layers)
        for _ in range(12):
            dialogs, store = random_dialogs(rng, int(rng.integers(1, 9)), 8)
            stack = random_stack(rng, layers)
            d_ctx = rng.standard_normal((sum(len(d) for d in dialogs), 8))
            want_ctx, want_grads = per_dialog_reference(dialogs, store, stack, d_ctx)
            encoding = encode_dialog(dialogs, store, stack)
            grads = encode_dialog_backward(d_ctx, encoding, stack)
            np.testing.assert_allclose(encoding.contextual, want_ctx, rtol=0,
                                       atol=1e-12 * np.abs(want_ctx).max())
            assert set(grads) == set(want_grads)
            for name, g in grads.items():
                want = want_grads[name]
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        dialogs, store = random_dialogs(rng, 3, 8, max_utts=4)
        stack = random_stack(rng, 1)
        coeffs = rng.standard_normal((sum(len(d) for d in dialogs), 8))

        def loss():
            return float((coeffs * encode_dialog(dialogs, store, stack).contextual).sum())

        grads = encode_dialog_backward(coeffs.copy(), encode_dialog(dialogs, store, stack), stack)
        numeric = fd_gradients(loss, stack_tensors(stack), eps=1e-4)
        for name, g in grads.items():
            err = group_relative_error(g, numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"

    def test_dialogs_do_not_see_each_other(self):
        rng = np.random.default_rng(5)
        dialogs, store = random_dialogs(rng, 4, 8)
        stack = random_stack(rng, 2)
        before = encode_dialog(dialogs, store, stack).contextual
        changed = dialogs[1]
        store.entries[f"{changed.id}#0"] = store.entries[f"{changed.id}#0"] + 1.0
        after = encode_dialog(dialogs, store, stack).contextual
        rows = np.cumsum([0] + [len(d) for d in dialogs])
        kept = np.r_[rows[0]:rows[1], rows[2]:rows[4]]
        np.testing.assert_array_equal(after[kept], before[kept])
        assert not np.array_equal(after[rows[1]:rows[2]], before[rows[1]:rows[2]])


def singleton_layer(params) -> SingletonLayerParams:
    """The length-1 view of a full layer, sharing none of its arrays."""
    return layer_from_tensors(SingletonLayerParams, params.tensors(), layer_meta(params))


class TestSingletonPath:
    def test_matches_general_encoder_on_length_one_sequences(self):
        params = init_encoder(8, heads=2, seed=4)
        rows = np.random.default_rng(5).standard_normal((6, 8))
        fast, _ = singleton_forward(rows, singleton_layer(params))
        for i in range(rows.shape[0]):
            slow, _ = encoder_forward(rows[i:i + 1], params)
            np.testing.assert_allclose(fast[i], slow[0], atol=1e-12)

    def test_backward_matches_finite_differences(self):
        params = init_encoder(6, heads=2, ffn_dim=12, seed=8)
        single = singleton_layer(params)
        rows = np.random.default_rng(9).standard_normal((4, 6))
        coeffs = np.random.default_rng(10).standard_normal((4, 6))

        def loss():
            out, _ = singleton_forward(rows, single)
            return float((coeffs * out).sum())

        out, cache = singleton_forward(rows, single)
        d_rows, grads = singleton_backward(coeffs.copy(), cache, single)
        assert set(grads) == set(SingletonLayerParams.TENSOR_NAMES)
        numeric = fd_gradients(loss, single.tensors(), eps=1e-4)
        for name in single.TENSOR_NAMES:
            err = group_relative_error(grads[name], numeric[name])
            assert err < 1e-3, f"{name}: rel err {err:.3e}"
        numeric_rows = fd_gradients(loss, {"rows": rows}, eps=1e-4)["rows"]
        assert group_relative_error(d_rows, numeric_rows) < 1e-3

        # the tensors the singleton layer leaves out are dead on length-1
        # sequences: the full layer's analytic and numeric gradients for
        # them are exactly zero, and the layer's backward has no `sep`
        # entry at all
        def full_loss():
            outs = [encoder_forward(rows[i:i + 1], params)[0] for i in range(len(rows))]
            return float((coeffs * np.vstack(outs)).sum())

        dead = {name: getattr(params, name) for name in ("w_q", "b_q", "w_k", "sep")}
        numeric_dead = fd_gradients(full_loss, dead, eps=1e-4)
        for i in range(len(rows)):
            _, cache_i = encoder_forward(rows[i:i + 1], params)
            _, grads_i = encoder_backward(coeffs[i:i + 1].copy(), cache_i, params)
            assert "sep" not in grads_i
            for name in ("w_q", "b_q", "w_k"):
                assert not grads_i[name].any(), name
        for name in dead:
            assert not numeric_dead[name].any(), name
