"""First-order adaptive-moment gradient descent with global-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm;
    no scaling when `max_norm` is None or the norm is not finite.

    Returns the pre-clip global norm.
    """
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm is not None and max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """Adam over a live dict of named parameter arrays (updated in place)."""

    def __init__(
        self,
        tensors: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = 1.0,
    ):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(arr) for name, arr in tensors.items()}
        self._v = {name: np.zeros_like(arr) for name, arr in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from a grads dict keyed like the tensors dict.

        Raises:
            NonFinite: a gradient holds a NaN or an infinity; no
                parameter has changed.
        """
        if not math.isfinite(clip_global_norm(grads, self.clip_norm)):
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            what = f"gradient {bad[0]!r} is not finite" if bad else "the gradient norm overflows"
            raise NonFinite(f"optimizer step {self.t + 1}: {what}")
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


def add_grads(into: dict[str, np.ndarray], grads: dict[str, np.ndarray], scale: float = 1.0) -> None:
    """Accumulate `grads` into `into`, scaled."""
    for name, g in grads.items():
        into[name] += scale * g
