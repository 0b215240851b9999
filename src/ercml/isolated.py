"""Context-free baseline sub-networks over word embeddings.

The isolated baseline embeds each utterance independently of its
dialog: either an affine map over the mean-pooled word vectors, or the
final hidden state of an LSTM run over the word-vector sequence. Both
are trained purely by the triplet loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Utterance
from .embeddings import WordEmbeddingTable, embed_words, mean_pool
from .errors import ShapeMismatch


@dataclass
class LinearSubnetParams:
    w: np.ndarray  # (d_in, d_rep)
    b: np.ndarray  # (d_rep,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}


def init_linear_subnet(d_in: int, d_rep: int, seed: int = 0) -> LinearSubnetParams:
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (d_in + d_rep))
    return LinearSubnetParams(
        w=rng.uniform(-bound, bound, size=(d_in, d_rep)), b=np.zeros(d_rep)
    )


def linear_forward(pooled: np.ndarray, params: LinearSubnetParams):
    """(d_in,) mean-pooled vector -> (d_rep,) representation."""
    if pooled.shape != (params.w.shape[0],):
        raise ShapeMismatch(f"input shape {pooled.shape} != ({params.w.shape[0]},)")
    return pooled @ params.w + params.b, pooled


def linear_backward(d_rep: np.ndarray, cache: np.ndarray, params: LinearSubnetParams):
    return {"w": np.outer(cache, d_rep), "b": d_rep.copy()}


@dataclass
class LstmParams:
    """Single-layer LSTM; gate blocks ordered (input, forget, cell, output)."""

    w_x: np.ndarray  # (d_in, 4H)
    w_h: np.ndarray  # (H, 4H)
    b: np.ndarray    # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_h.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.tensors().items()}


def init_lstm(d_in: int, hidden: int, seed: int = 0) -> LstmParams:
    """Scaled-uniform weights; forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)
    bound_x = np.sqrt(6.0 / (d_in + 4 * hidden))
    bound_h = np.sqrt(6.0 / (hidden + 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    return LstmParams(
        w_x=rng.uniform(-bound_x, bound_x, size=(d_in, 4 * hidden)),
        w_h=rng.uniform(-bound_h, bound_h, size=(hidden, 4 * hidden)),
        b=b,
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmCache:
    xs: np.ndarray       # (T, d_in)
    gates: np.ndarray    # (T, 4H) post-activation: i, f, g, o blocks
    cells: np.ndarray    # (T, H)
    hiddens: np.ndarray  # (T, H)


def lstm_forward(xs: np.ndarray, params: LstmParams):
    """Run the sequence; the representation is the final hidden state."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != params.w_x.shape[0]:
        raise ShapeMismatch(f"input dim {xs.shape[1]} != {params.w_x.shape[0]}")
    hid = params.hidden
    steps = xs.shape[0]
    gates = np.empty((steps, 4 * hid))
    cells = np.empty((steps, hid))
    hiddens = np.empty((steps, hid))
    h = np.zeros(hid)
    c = np.zeros(hid)
    for t in range(steps):
        z = xs[t] @ params.w_x + h @ params.w_h + params.b
        i = _sigmoid(z[:hid])
        f = _sigmoid(z[hid:2 * hid])
        g = np.tanh(z[2 * hid:3 * hid])
        o = _sigmoid(z[3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates[t] = np.concatenate([i, f, g, o])
        cells[t] = c
        hiddens[t] = h
    return h, LstmCache(xs=xs, gates=gates, cells=cells, hiddens=hiddens)


def lstm_backward(d_rep: np.ndarray, cache: LstmCache, params: LstmParams):
    """Backward through time from the final-hidden-state gradient."""
    hid = params.hidden
    steps = cache.xs.shape[0]
    grads = params.zero_grads()
    dh = d_rep.copy()
    dc = np.zeros(hid)
    for t in range(steps - 1, -1, -1):
        i = cache.gates[t, :hid]
        f = cache.gates[t, hid:2 * hid]
        g = cache.gates[t, 2 * hid:3 * hid]
        o = cache.gates[t, 3 * hid:]
        c = cache.cells[t]
        c_prev = cache.cells[t - 1] if t > 0 else np.zeros(hid)
        h_prev = cache.hiddens[t - 1] if t > 0 else np.zeros(hid)
        tc = np.tanh(c)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        grads["w_x"] += np.outer(cache.xs[t], dz)
        grads["w_h"] += np.outer(h_prev, dz)
        grads["b"] += dz
        dh = dz @ params.w_h.T
        dc = dc * f
    return grads


@dataclass
class IsolatedModel:
    """Trained context-free Siamese sub-network."""

    kind: str  # "linear" or "lstm"
    params: LinearSubnetParams | LstmParams

    def represent_with_cache(self, utterance: Utterance, table: WordEmbeddingTable):
        vectors = embed_words(utterance, table)
        if self.kind == "linear":
            return linear_forward(mean_pool(vectors), self.params)
        return lstm_forward(vectors, self.params)

    def represent(self, utterance: Utterance, table: WordEmbeddingTable) -> np.ndarray:
        rep, _ = self.represent_with_cache(utterance, table)
        return rep

    def backward(self, d_rep: np.ndarray, cache) -> dict[str, np.ndarray]:
        if self.kind == "linear":
            return linear_backward(d_rep, cache, self.params)
        return lstm_backward(d_rep, cache, self.params)
