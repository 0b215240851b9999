"""Whole-array reference for the chunked `ercml.optim.Adam`.

`ReferenceAdam` and `reference_clip_global_norm` are the optimizer as it
was before it streamed tensors in chunks: moments shaped like the
parameters, one numpy expression per line of the textbook update, and the
norm summed from `g * g` per tensor. The oracle tests compare the program
against them; the program never calls them.
"""

from __future__ import annotations

import math

import numpy as np

from ercml.errors import NonFinite


def reference_clip_global_norm(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm is not None and max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class ReferenceAdam:
    def __init__(self, tensors, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=1.0):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(arr) for name, arr in tensors.items()}
        self._v = {name: np.zeros_like(arr) for name, arr in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Returns the pre-clip global norm."""
        norm = reference_clip_global_norm(grads, self.clip_norm)
        if not math.isfinite(norm):
            raise NonFinite(f"optimizer step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, grad in grads.items():
            param = self.tensors[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return norm
