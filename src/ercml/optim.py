"""First-order adaptive-moment gradient descent with global-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonContiguous, NonFinite

# Elements per pass of the Adam update. A chunk's gradient, moments,
# parameter and two scratch rows (6 x 128 KiB) stay in cache across the
# chunk's dozen ufunc calls, so each byte of a tensor leaves memory about
# once per step, and no temporary the size of a tensor is allocated.
CHUNK = 16384

# The moment decay rates and the denominator's floor: Kingma & Ba's defaults.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm;
    no scaling when `max_norm` is None or the norm is not finite.

    Returns the pre-clip global norm.
    """
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))  # one BLAS dot per tensor
    if max_norm is not None and max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """Adam over a live dict of named parameter arrays (updated in place).

    Each tensor is streamed in chunks of `CHUNK` elements through two
    scratch rows allocated once, with every element getting the textbook
    update in the textbook order, so the result is bit-identical to the
    whole-array expressions.

    Raises:
        NonContiguous: a parameter is not C-contiguous.
    """

    def __init__(
        self,
        tensors: dict[str, np.ndarray],
        lr: float = 1e-3,
        clip_norm: float | None = 1.0,
    ):
        for name, arr in tensors.items():
            if not arr.flags.c_contiguous:
                raise NonContiguous(f"parameter {name!r} is not C-contiguous; its updates would be lost")
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self._flat = {name: arr.reshape(-1) for name, arr in tensors.items()}
        self._m = {name: np.zeros_like(flat) for name, flat in self._flat.items()}
        self._v = {name: np.zeros_like(flat) for name, flat in self._flat.items()}
        self._scratch = np.empty((2, CHUNK))

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
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, grad in grads.items():
            g_all = grad.reshape(-1)
            p_all, m_all, v_all = self._flat[name], self._m[name], self._v[name]
            for lo in range(0, g_all.size, CHUNK):
                hi = lo + CHUNK
                g, m, v = g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
                a, b = self._scratch[:, : g.size]
                # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=a)
                v *= b2
                v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
                # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
                np.multiply(np.divide(m, bc1, out=a), lr, out=a)
                np.sqrt(np.divide(v, bc2, out=b), out=b)
                b += eps
                a /= b
                p_all[lo:hi] -= a


def add_grads(into: dict[str, np.ndarray], grads: dict[str, np.ndarray], scale: float = 1.0) -> None:
    """Accumulate `grads` into `into`, scaled; names `into` lacks are skipped."""
    for name, acc in into.items():
        acc += scale * grads[name]
