"""Conversation-aware utterance encoding.

A dialog's frozen sentence embeddings are interleaved with a learned
separator vector (leading and trailing separator, 2U+1 rows for U
utterances) and sinusoidal positional encodings are added. A batch of
dialogs is packed into one sequence whose attention mask keeps every
dialog to itself, and the trainable attention-encoder layers run over it
once. The last layer's output holds the utterance rows only, the
per-utterance contextual vectors: its keys and values cover every row,
while its queries and row-wise half run over the utterance rows alone.

Forward and backward passes are written out explicitly in numpy; the
test suite verifies every parameter gradient against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .corpus import Dialog
from .embeddings import SentenceEmbeddingStore
from .checkpoint import checked_tensor, meta_entry
from .errors import BadHeadCount, CheckpointError, CompileError, ShapeMismatch

LN_EPS = 1e-5


# --- parameters -------------------------------------------------------------

@dataclass
class SingletonLayerParams:
    """An encoder layer as it acts on length-1 sequences: the emotion head.

    Softmax over a single key is exactly 1, so attention reduces to the
    value and output projections; the query/key projections and the
    separator could never reach an output and are not held. Field names
    match :class:`AttentionLayerParams`.
    """

    dim: int
    heads: int
    ffn_dim: int
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w_ff1: np.ndarray
    b_ff1: np.ndarray
    w_ff2: np.ndarray
    b_ff2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray

    TENSOR_NAMES = (
        "w_v", "b_v", "w_o", "b_o", "w_ff1", "b_ff1", "w_ff2", "b_ff2",
        "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
    )

    def tensors(self) -> dict[str, np.ndarray]:
        """Live name -> array view; optimizers update these in place."""
        return {name: getattr(self, name) for name in self.TENSOR_NAMES}


@dataclass
class AttentionLayerParams(SingletonLayerParams):
    """One encoder layer: multi-head self-attention + feed-forward block.

    The key projection has no bias: a key bias `c` would add the same
    `q_i . c` to every score of query row `i`, a per-row constant that
    softmax cannot see.
    """

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray

    TENSOR_NAMES = (
        "w_q", "b_q", "w_k", "w_v", "b_v", "w_o", "b_o",
        "w_ff1", "b_ff1", "w_ff2", "b_ff2",
        "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
    )

    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class EncoderLayerParams(AttentionLayerParams):
    """The first encoder layer, which also holds `sep`: the learned
    separator vector interleaved between utterance embeddings when a
    dialog sequence is built. Deeper layers read the previous layer's
    rows, so they hold no separator.
    """

    sep: np.ndarray

    TENSOR_NAMES = AttentionLayerParams.TENSOR_NAMES + ("sep",)


def check_head_count(dim: int, heads: int) -> None:
    """Raises BadHeadCount unless `heads` >= 1 divides `dim`."""
    if heads < 1 or dim % heads != 0:
        raise BadHeadCount(f"dim {dim} not divisible by heads {heads}")


def init_encoder(dim: int, heads: int = 4, ffn_dim: int | None = None, seed: int = 0) -> EncoderLayerParams:
    """Deterministic scaled-uniform initialization; layer norms at identity.

    Raises:
        BadHeadCount: `dim` not divisible by `heads`.
    """
    check_head_count(dim, heads)
    if ffn_dim is None:
        ffn_dim = 4 * dim
    rng = np.random.default_rng(seed)

    def proj(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderLayerParams(
        dim=dim,
        heads=heads,
        ffn_dim=ffn_dim,
        w_q=proj(dim, dim), b_q=np.zeros(dim),
        w_k=proj(dim, dim),
        w_v=proj(dim, dim), b_v=np.zeros(dim),
        w_o=proj(dim, dim), b_o=np.zeros(dim),
        w_ff1=proj(dim, ffn_dim), b_ff1=np.zeros(ffn_dim),
        w_ff2=proj(ffn_dim, dim), b_ff2=np.zeros(dim),
        ln1_gain=np.ones(dim), ln1_bias=np.zeros(dim),
        ln2_gain=np.ones(dim), ln2_bias=np.zeros(dim),
        sep=rng.uniform(-1.0 / np.sqrt(dim), 1.0 / np.sqrt(dim), size=dim),
    )


def layer_meta(layer: SingletonLayerParams) -> dict:
    """The sizes a checkpoint records next to a layer's tensors."""
    return {"dim": layer.dim, "heads": layer.heads, "ffn_dim": layer.ffn_dim}


def layer_from_tensors(
    layer_type: type, tensors: dict[str, np.ndarray], meta: dict, prefix: str = ""
) -> SingletonLayerParams:
    """A `layer_type` instance from copies of the tensors `prefix + name`.

    Entries of `tensors` the layer does not use are left for the caller
    to reject.

    Raises:
        CheckpointError: a size is missing from `meta` or not an integer,
            `dim` is not divisible by `heads`, or a tensor is missing or
            shaped unlike `meta` says.
    """
    dim, heads, ffn_dim = (meta_entry(meta, key) for key in ("dim", "heads", "ffn_dim"))
    if heads < 1 or dim % heads != 0:
        raise CheckpointError(f"checkpoint metadata: dim {dim} not divisible by heads {heads}")
    wide = {"w_ff1": (dim, ffn_dim), "b_ff1": (ffn_dim,), "w_ff2": (ffn_dim, dim)}
    arrays = {
        name: checked_tensor(
            tensors, prefix + name,
            wide.get(name, (dim, dim) if name.startswith("w_") else (dim,)),
        )
        for name in layer_type.TENSOR_NAMES
    }
    return layer_type(dim=dim, heads=heads, ffn_dim=ffn_dim, **arrays)


# --- positional encodings ---------------------------------------------------

def sinusoidal_positions(n: int, dim: int) -> np.ndarray:
    """Fixed sine/cosine positional encodings, shape (n, dim)."""
    positions = np.arange(n)[:, None]
    half = (dim + 1) // 2
    freqs = np.exp(-np.log(10000.0) * (2 * np.arange(half)) / dim)
    angles = positions * freqs[None, :]
    pe = np.zeros((n, 2 * half))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe[:, :dim]


# --- dialog sequences --------------------------------------------------------

@dataclass(frozen=True)
class DialogSequence:
    """A batch of dialogs packed into one token matrix.

    Each dialog contributes its (separator, utterance, ..., separator)
    rows, 2U+1 for U utterances, in batch order; positions restart at 0
    in every dialog. `mask` is the additive attention key mask, 0 within
    a dialog and -inf across dialogs, or None for a single dialog.
    """

    tokens: np.ndarray              # (rows, d), before positional encodings
    positions: np.ndarray           # (rows, d)
    sep_positions: tuple[int, ...]  # separator rows
    utterance_rows: np.ndarray      # rows of the utterances, in batch order
    mask: np.ndarray | None         # (rows, rows)

    def encoder_input(self) -> np.ndarray:
        return self.tokens + self.positions


def build_batch_sequence(
    dialogs: list[Dialog], store: SentenceEmbeddingStore, params: EncoderLayerParams
) -> DialogSequence:
    """Interleave the learned separator with each dialog's frozen
    embeddings and pack the dialogs' rows into one sequence.

    Raises:
        MissingEmbedding: store lacks a vector for some utterance.
        ShapeMismatch: store dim differs from encoder dim.
    """
    if store.dim != params.dim:
        raise ShapeMismatch(f"store dim {store.dim} != encoder dim {params.dim}")
    lengths = [2 * len(d) + 1 for d in dialogs]
    row_in_dialog = np.concatenate([np.arange(n) for n in lengths])
    is_sep = row_in_dialog % 2 == 0
    tokens = np.empty((len(row_in_dialog), params.dim))
    tokens[is_sep] = params.sep
    utterance_rows = np.flatnonzero(~is_sep)
    vectors = (store.get(d.id, u.index) for d in dialogs for u in d.utterances)
    for row, vec in zip(utterance_rows, vectors):
        tokens[row] = vec
    mask = None
    if len(dialogs) > 1:
        dialog_of_row = np.repeat(np.arange(len(dialogs)), lengths)
        mask = np.where(dialog_of_row[:, None] == dialog_of_row[None, :], 0.0, -np.inf)
    return DialogSequence(
        tokens=tokens,
        positions=sinusoidal_positions(max(lengths), params.dim)[row_in_dialog],
        sep_positions=tuple(np.flatnonzero(is_sep).tolist()),
        utterance_rows=utterance_rows,
        mask=mask,
    )


def build_dialog_sequence(
    dialog: Dialog, store: SentenceEmbeddingStore, params: EncoderLayerParams
) -> DialogSequence:
    """:func:`build_batch_sequence` of one dialog: no mask."""
    return build_batch_sequence([dialog], store, params)


# --- layer norm primitives ---------------------------------------------------

def _layer_norm_forward(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gain * xhat + bias, xhat, inv


def _layer_norm_backward(dy, xhat, inv, gain):
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dgain, dbias


def _split_heads(m: np.ndarray, heads: int) -> np.ndarray:
    n, d = m.shape
    return m.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(m: np.ndarray) -> np.ndarray:
    h, n, hd = m.shape
    return m.transpose(1, 0, 2).reshape(n, h * hd)


# --- encoder layer forward / backward ----------------------------------------
#
# A layer is two halves, each written once. The attention half mixes the
# rows of a sequence; the row-wise half (output projection, residual,
# layer norm, feed-forward, residual, layer norm) treats every row on its
# own. The full layer is attention plus the row-wise half; on length-1
# sequences attention is the value projection, which is the emotion
# head's path. A layer may emit a subset of its rows: keys and values
# still cover every input row, and the queries and the row-wise half run
# over the emitted rows only.

@dataclass
class RowwiseCache:
    x: np.ndarray      # layer input, the first residual branch
    mixed: np.ndarray  # rows fed to the output projection
    xhat1: np.ndarray
    inv1: np.ndarray
    n1: np.ndarray
    pre: np.ndarray
    cdf: np.ndarray    # standard normal CDF of `pre`, GELU's gate; GELU is pre * cdf
    xhat2: np.ndarray
    inv2: np.ndarray


@dataclass
class EncoderCache:
    x: np.ndarray  # the whole layer input, which keys and values read
    rows: slice | np.ndarray  # the input rows the layer emitted
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    attn: np.ndarray
    rowwise: RowwiseCache


def _checked_input(x: np.ndarray, params: SingletonLayerParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ShapeMismatch(f"input shape {x.shape} incompatible with dim {params.dim}")
    return x


def _gelu_forward(pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's gate and output: the standard normal CDF of `pre` and `pre`
    times it. The C kernel gives the bits of scipy's `erf` expression
    below, which stands in when the kernel cannot be built."""
    try:
        gelu = optim.load_kernels().gelu_forward
    except CompileError:
        from scipy.special import erf

        cdf = 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
        return cdf, pre * cdf
    cdf, act = np.empty_like(pre), np.empty_like(pre)
    gelu(pre, cdf, act, pre.size)
    return cdf, act


def _rowwise_forward(x: np.ndarray, mixed: np.ndarray, p: SingletonLayerParams):
    r1 = x + (mixed @ p.w_o + p.b_o)
    n1, xhat1, inv1 = _layer_norm_forward(r1, p.ln1_gain, p.ln1_bias)
    pre = n1 @ p.w_ff1 + p.b_ff1
    cdf, act = _gelu_forward(pre)
    r2 = n1 + (act @ p.w_ff2 + p.b_ff2)
    out, xhat2, inv2 = _layer_norm_forward(r2, p.ln2_gain, p.ln2_bias)
    return out, RowwiseCache(
        x=x, mixed=mixed, xhat1=xhat1, inv1=inv1, n1=n1, pre=pre, cdf=cdf, xhat2=xhat2, inv2=inv2,
    )


def _rowwise_backward(d_out: np.ndarray, c: RowwiseCache, p: SingletonLayerParams, grads: dict):
    """Fills the row-wise half's entries of `grads`; returns (d_x, d_mixed)."""
    dr2, grads["ln2_gain"], grads["ln2_bias"] = _layer_norm_backward(
        d_out, c.xhat2, c.inv2, p.ln2_gain
    )
    grads["w_ff2"] = (c.pre * c.cdf).T @ dr2  # the forward's GELU output, bit for bit
    grads["b_ff2"] = dr2.sum(axis=0)
    gelu_grad = c.cdf + c.pre * np.exp(-0.5 * c.pre * c.pre) / np.sqrt(2.0 * np.pi)
    dpre = (dr2 @ p.w_ff2.T) * gelu_grad
    grads["w_ff1"] = c.n1.T @ dpre
    grads["b_ff1"] = dpre.sum(axis=0)
    dn1 = dr2 + dpre @ p.w_ff1.T

    dr1, grads["ln1_gain"], grads["ln1_bias"] = _layer_norm_backward(
        dn1, c.xhat1, c.inv1, p.ln1_gain
    )
    grads["w_o"] = c.mixed.T @ dr1
    grads["b_o"] = dr1.sum(axis=0)
    return dr1, dr1 @ p.w_o.T


def encoder_forward(
    x: np.ndarray,
    params: AttentionLayerParams,
    mask: np.ndarray | None = None,
    rows: slice | np.ndarray = slice(None),
):
    """Full bidirectional self-attention block over one sequence.

    x: (n, d) -> (output (m, d) for the m input rows `rows` selects, in
    that order; cache for the backward pass). Every row attends to all n
    rows whatever `rows` is, so the output equals the full (n, d) output
    indexed by `rows`. Post-norm layout: attention, residual, layer norm,
    feed-forward, residual, layer norm. `mask` (n, n) is added to the
    attention scores; a -inf entry gives that key a weight of exactly 0,
    so :func:`encoder_backward` needs no mask.
    """
    x = _checked_input(x, params)
    p = params
    x_rows = x[rows]
    q = x_rows @ p.w_q + p.b_q
    k = x @ p.w_k
    v = x @ p.w_v + p.b_v
    qh, kh, vh = (_split_heads(m, p.heads) for m in (q, k, v))
    scale = 1.0 / np.sqrt(p.head_dim())
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    if mask is not None:
        scores += mask[rows]
    scores -= scores.max(axis=2, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)
    out, rowwise = _rowwise_forward(x_rows, _merge_heads(attn @ vh), p)
    return out, EncoderCache(x=x, rows=rows, qh=qh, kh=kh, vh=vh, attn=attn, rowwise=rowwise)


def encoder_backward(d_out: np.ndarray, cache: EncoderCache, params: AttentionLayerParams):
    """Gradients of a scalar loss through :func:`encoder_forward`.

    `d_out` holds the emitted rows' gradients. Returns (d_input (n, d)
    over every input row, grads dict keyed like
    `AttentionLayerParams.TENSOR_NAMES`). There is no `sep` entry: the
    layer never reads `sep`, whose gradient :func:`sep_gradient`
    collects from the first layer's d_input rows.
    """
    p = params
    grads = dict.fromkeys(AttentionLayerParams.TENSOR_NAMES)
    d_rows, dhcat = _rowwise_backward(d_out, cache.rowwise, p, grads)

    dheads = _split_heads(dhcat, p.heads)
    dattn = dheads @ cache.vh.transpose(0, 2, 1)
    dvh = cache.attn.transpose(0, 2, 1) @ dheads
    dscores = cache.attn * (dattn - (dattn * cache.attn).sum(axis=2, keepdims=True))
    scale = 1.0 / np.sqrt(p.head_dim())
    dqh = (dscores @ cache.kh) * scale
    dkh = (dscores.transpose(0, 2, 1) @ cache.qh) * scale

    dq, dk, dv = (_merge_heads(m) for m in (dqh, dkh, dvh))
    grads["b_q"] = dq.sum(axis=0)
    grads["b_v"] = dv.sum(axis=0)
    grads["w_q"] = cache.rowwise.x.T @ dq
    d_rows += dq @ p.w_q.T
    dx = np.zeros_like(cache.x)
    dx[cache.rows] = d_rows
    for name, dm in (("w_k", dk), ("w_v", dv)):
        grads[name] = cache.x.T @ dm
        dx += dm @ getattr(p, name).T
    return dx, grads


def singleton_forward(rows: np.ndarray, params: SingletonLayerParams):
    """The layer applied to each row as an independent length-1 sequence.

    Attention over one token passes its value through unchanged, so a
    batch of m rows is one row-wise pass. Equivalent to calling
    :func:`encoder_forward` on each (1, d) row; a test pins that.
    """
    rows = _checked_input(rows, params)
    return _rowwise_forward(rows, rows @ params.w_v + params.b_v, params)


def singleton_backward(d_out: np.ndarray, cache: RowwiseCache, params: SingletonLayerParams):
    """Backward companion of :func:`singleton_forward`; returns (d_rows, grads)."""
    grads = dict.fromkeys(params.TENSOR_NAMES)
    dx, dv = _rowwise_backward(d_out, cache, params, grads)
    grads["w_v"] = cache.x.T @ dv
    grads["b_v"] = dv.sum(axis=0)
    dx += dv @ params.w_v.T
    return dx, grads


def sep_gradient(d_input: np.ndarray, sep_positions: tuple[int, ...]) -> np.ndarray:
    """Accumulate input-row gradients at separator positions into d(sep)."""
    return d_input[list(sep_positions)].sum(axis=0)


# --- encoder stacks -----------------------------------------------------------
#
# The encoder is a list of layers. One layer is the default and the
# published configuration. The first layer is an EncoderLayerParams, whose
# separator vector is interleaved into dialog sequences; deeper layers are
# AttentionLayerParams. Every layer but the last emits all rows, since the
# next layer's keys and values read them; the last emits only the rows the
# caller reads, for a dialog batch its utterance rows.

EncoderStack = list[AttentionLayerParams]


def init_encoder_stack(
    dim: int, heads: int = 4, ffn_dim: int | None = None, layers: int = 1, seed: int = 0
) -> EncoderStack:
    """Independent deterministic initialization per layer. A deeper
    layer takes its tensors from a full layer drawn from its own seed, so
    every value matches that layer's."""
    if layers < 1:
        raise ShapeMismatch(f"need at least one encoder layer, got {layers}")
    stack = [init_encoder(dim, heads=heads, ffn_dim=ffn_dim, seed=seed + 101 * i) for i in range(layers)]
    return stack[:1] + [
        layer_from_tensors(AttentionLayerParams, layer.tensors(), layer_meta(layer)) for layer in stack[1:]
    ]


def stack_tensors(stack: EncoderStack) -> dict[str, np.ndarray]:
    """Flattened live tensors, keyed "<layer>.<name>"."""
    return {
        f"{i}.{name}": arr
        for i, layer in enumerate(stack)
        for name, arr in layer.tensors().items()
    }


def stack_forward(
    x: np.ndarray,
    stack: EncoderStack,
    mask: np.ndarray | None = None,
    rows: slice | np.ndarray = slice(None),
):
    """Layers applied in sequence, each under the same attention `mask`;
    returns (the last layer's output at `rows`, per-layer caches)."""
    caches = []
    out = x
    for layer in stack:
        out, cache = encoder_forward(out, layer, mask, rows if layer is stack[-1] else slice(None))
        caches.append(cache)
    return out, caches


def stack_backward(d_out: np.ndarray, caches: list[EncoderCache], stack: EncoderStack):
    """`d_out` holds the gradients of the rows :func:`stack_forward`
    emitted. Returns (d_input over every input row, flattened grads keyed
    like stack_tensors but with no `sep` entry)."""
    grads: dict[str, np.ndarray] = {}
    d = d_out
    for i in range(len(stack) - 1, -1, -1):
        d, layer_grads = encoder_backward(d, caches[i], stack[i])
        for name, g in layer_grads.items():
            grads[f"{i}.{name}"] = g
    return d, grads


# --- whole batches, as the trainer and the predictor use them -----------------

@dataclass
class DialogEncoding:
    """Forward state of a batch of dialogs: contextual vectors plus
    backward caches."""

    sequence: DialogSequence
    caches: list[EncoderCache]
    contextual: np.ndarray  # (U, d): every utterance of the batch, in batch order


def encode_dialog(dialogs: list[Dialog], store: SentenceEmbeddingStore, encoder: EncoderStack) -> DialogEncoding:
    """Pack the dialogs -> one pass of the encoder layers, the last one
    emitting the utterance rows only; caches retained."""
    seq = build_batch_sequence(dialogs, store, encoder[0])
    out, caches = stack_forward(seq.encoder_input(), encoder, seq.mask, seq.utterance_rows)
    return DialogEncoding(sequence=seq, caches=caches, contextual=out)


def encode_dialog_backward(
    d_contextual: np.ndarray, encoding: DialogEncoding, encoder: EncoderStack
) -> dict[str, np.ndarray]:
    """Backward from per-utterance gradients (U, d) to encoder parameter
    gradients.

    Frozen utterance embeddings receive no gradient; separator rows
    accumulate into the first layer's `sep` entry. Grads are keyed
    "<layer>.<name>" like `stack_tensors`.
    """
    d_input, grads = stack_backward(d_contextual, encoding.caches, encoder)
    grads["0.sep"] = sep_gradient(d_input, encoding.sequence.sep_positions)
    return grads
