from __future__ import annotations

import numpy as np
import pytest

from ercml.errors import NonContiguous, NonFinite
from ercml.optim import CHUNK, Adam, clip_global_norm

from reference_optim import ReferenceAdam


def tensors():
    return {"a": np.arange(4.0), "b": np.ones((2, 3))}


class TestAdam:
    @pytest.mark.parametrize("clip_norm", [1.0, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_and_changes_nothing(self, clip_norm, bad):
        params = tensors()
        opt = Adam(params, clip_norm=clip_norm)
        opt.step({"a": np.full(4, 0.5), "b": np.full((2, 3), 0.5)})
        before = {name: arr.copy() for name, arr in params.items()}
        grads = {"a": np.full(4, 0.5), "b": np.full((2, 3), 0.5)}
        grads["b"][1, 2] = bad
        with pytest.raises(NonFinite, match=r"optimizer step 2: gradient 'b'"):
            opt.step(grads)
        assert opt.t == 1
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        assert grads["a"][0] == 0.5  # not clipped either

    def test_overflowing_norm_raises(self):
        opt = Adam(tensors())
        with pytest.raises(NonFinite, match="norm overflows"), np.errstate(over="ignore"):
            opt.step({"a": np.full(4, 1e200), "b": np.zeros((2, 3))})

    def test_norm_without_clipping(self):
        grads = {"a": np.array([3.0, 4.0])}
        assert clip_global_norm(grads, None) == 5.0
        np.testing.assert_array_equal(grads["a"], [3.0, 4.0])
        assert clip_global_norm(grads, 1.0) == 5.0
        np.testing.assert_allclose(grads["a"], [0.6, 0.8])


# Sizes around the chunk edges: one element, a chunk short by one, exactly
# one chunk, one over, and a 2-D tensor whose last chunk is partial.
ORACLE_SHAPES = {"one": (1,), "short": (CHUNK - 1,), "exact": (CHUNK,), "over": (CHUNK + 1,),
                 "matrix": (3, CHUNK + 7)}


def oracle_params(seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in ORACLE_SHAPES.items()}


def oracle_grads(rng):
    return {name: rng.normal(scale=2.0, size=shape) for name, shape in ORACLE_SHAPES.items()}


def run_both(clip_norm, steps=30):
    """The chunked Adam and the whole-array reference, fed equal gradients."""
    params, ref_params = oracle_params(), oracle_params()
    opt = Adam(params, clip_norm=clip_norm)
    ref = ReferenceAdam(ref_params, clip_norm=clip_norm)
    rng = np.random.default_rng(1)
    norms = []
    for _ in range(steps):
        grads = oracle_grads(rng)
        ref_grads = {name: g.copy() for name, g in grads.items()}
        norms.append((clip_global_norm({n: g.copy() for n, g in grads.items()}, None), ref.step(ref_grads)))
        opt.step(grads)
    assert opt.t == ref.t == steps
    return params, ref_params, norms


class TestChunkedOracle:
    @pytest.mark.parametrize("clip_norm", [None, 1e9])
    def test_bit_identical_when_clip_does_not_scale(self, clip_norm):
        params, ref_params, _ = run_both(clip_norm)
        for name, arr in params.items():
            assert arr.shape == ORACLE_SHAPES[name]
            np.testing.assert_array_equal(arr, ref_params[name])

    def test_scaling_clip_within_tolerance(self):
        # The gradients' norm is about 2 * sqrt(115k) ~ 680, so a clip of 1
        # scales every step; only the order of the norm's sum differs.
        params, ref_params, norms = run_both(clip_norm=1.0)
        for norm, ref_norm in norms:
            assert norm > 1.0
            assert norm == pytest.approx(ref_norm, rel=1e-15, abs=0)
        # Relative to each tensor's largest entry: an element near zero
        # still moves by an ulp of its neighbours' scale.
        for name, arr in params.items():
            scale = np.abs(ref_params[name]).max()
            np.testing.assert_allclose(arr, ref_params[name], rtol=0, atol=1e-15 * scale)

    def test_nan_in_last_chunk_changes_nothing(self):
        params, ref_params = oracle_params(), oracle_params()
        opt = Adam(params, clip_norm=None)
        ref = ReferenceAdam(ref_params, clip_norm=None)
        rng = np.random.default_rng(2)
        for _ in range(3):
            grads = oracle_grads(rng)
            ref.step({n: g.copy() for n, g in grads.items()})
            opt.step(grads)
        before = {name: arr.copy() for name, arr in params.items()}
        grads = oracle_grads(rng)
        grads["matrix"].reshape(-1)[-1] = np.nan
        assert grads["matrix"].size > 3 * CHUNK  # the NaN sits in the fourth, partial chunk
        with pytest.raises(NonFinite, match=r"optimizer step 4: gradient 'matrix'"):
            opt.step(grads)
        assert opt.t == 3
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        # The moments are untouched too: the next good step still matches.
        grads = oracle_grads(rng)
        ref.step({n: g.copy() for n, g in grads.items()})
        opt.step(grads)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, ref_params[name])


class TestNonContiguous:
    @pytest.mark.parametrize("make", [
        lambda: np.ones((4, 6))[:, ::2],
        lambda: np.asfortranarray(np.ones((3, 4))),
        lambda: np.ones((3, 4)).T,
    ], ids=["strided", "fortran", "transposed"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(NonContiguous, match="parameter 'w' is not C-contiguous"):
            Adam({"a": np.zeros(3), "w": make()})

    def test_non_contiguous_gradient_is_fine(self):
        params, ref_params = tensors(), tensors()
        grads = {"a": np.arange(8.0)[::2], "b": np.ones((3, 2)).T}
        ref_grads = {n: g.copy() for n, g in grads.items()}
        Adam(params, clip_norm=None).step(grads)
        ReferenceAdam(ref_params, clip_norm=None).step(ref_grads)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, ref_params[name])
