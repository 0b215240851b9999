from __future__ import annotations

import numpy as np
import pytest

from ercml.errors import NonFinite
from ercml.optim import Adam, clip_global_norm


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
