"""Utterance-level emotion head.

One attention-encoder layer applied to the utterance vector as a
length-1 sequence (so it holds only the tensors such a sequence uses),
followed by a linear map to label logits. Trained with
imbalance-weighted cross-entropy; pretrainable standalone on frozen
sentence embeddings and left unfrozen for the contextual trainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import (
    checked_tensor, json_int, json_string, load_checkpoint, meta_entry, reject_unknown_tensors, save_checkpoint,
)
from .corpus import ALL_LABEL_IDS, Corpus, label_weights
from .embeddings import SentenceEmbeddingStore
from .encoder import (
    RowwiseCache,
    SingletonLayerParams,
    init_encoder,
    layer_from_tensors,
    layer_meta,
    singleton_backward,
    singleton_forward,
)
from .errors import BadTarget, DimMismatch, EmptyBatch
from .optim import Adam


@dataclass
class ClassifierParams:
    """Encoder-layer-plus-linear emotion head over an ordered label space."""

    encoder: SingletonLayerParams
    w_out: np.ndarray  # (d, K)
    b_out: np.ndarray  # (K,)
    label_space: tuple[int, ...]

    def __post_init__(self):
        if self.w_out.shape != (self.encoder.dim, len(self.label_space)):
            raise DimMismatch(
                f"head shape {self.w_out.shape} incompatible with dim {self.encoder.dim} "
                f"and {len(self.label_space)} labels"
            )

    @property
    def dim(self) -> int:
        return self.encoder.dim

    def tensors(self) -> dict[str, np.ndarray]:
        out = {f"encoder.{name}": arr for name, arr in self.encoder.tensors().items()}
        out["head.w"] = self.w_out
        out["head.b"] = self.b_out
        return out

    def meta(self) -> dict:
        """The sizes and label space a checkpoint records beside tensors()."""
        return {**layer_meta(self.encoder), "label_space": list(self.label_space)}


def init_classifier(
    dim: int,
    label_space: tuple[int, ...] = ALL_LABEL_IDS,
    heads: int = 4,
    ffn_dim: int | None = None,
    seed: int = 0,
) -> ClassifierParams:
    """Deterministic classifier initialization (encoder seed offset to
    decorrelate from the contextual encoder initialized at `seed`).

    The layer takes its tensors from a full encoder layer drawn from the
    same random stream, so every value matches that layer's.
    """
    full = init_encoder(dim, heads=heads, ffn_dim=ffn_dim, seed=seed + 1)
    encoder = layer_from_tensors(SingletonLayerParams, full.tensors(), layer_meta(full))
    rng = np.random.default_rng(seed + 2)
    k = len(label_space)
    bound = np.sqrt(6.0 / (dim + k))
    return ClassifierParams(
        encoder=encoder,
        w_out=rng.uniform(-bound, bound, size=(dim, k)),
        b_out=np.zeros(k),
        label_space=tuple(label_space),
    )


@dataclass
class ClassifierCache:
    encoder_cache: RowwiseCache
    encoded: np.ndarray  # (m, d)


def classify_batch(reps: np.ndarray, params: ClassifierParams):
    """Logits for a batch of utterance representations, (m, d) -> (m, K)."""
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    encoded, cache = singleton_forward(reps, params.encoder)
    logits = encoded @ params.w_out + params.b_out
    return logits, ClassifierCache(encoder_cache=cache, encoded=encoded)


def classifier_backward(d_logits: np.ndarray, cache: ClassifierCache, params: ClassifierParams):
    """Returns (d_representations (m, d), grads keyed like tensors())."""
    grads = {}
    grads["head.w"] = cache.encoded.T @ d_logits
    grads["head.b"] = d_logits.sum(axis=0)
    d_encoded = d_logits @ params.w_out.T
    d_reps, enc_grads = singleton_backward(d_encoded, cache.encoder_cache, params.encoder)
    for name, g in enc_grads.items():
        grads[f"encoder.{name}"] = g
    return d_reps, grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ce_loss_and_grad(
    logits: np.ndarray,
    targets: list[int],
    weights: dict[int, float],
    label_space: tuple[int, ...],
):
    """Mean weighted cross-entropy over a batch and its logit gradient.

    d(mean loss)/d(logits) = w(target) * (softmax - onehot) / m per row.

    Raises:
        EmptyBatch: no rows.
        BadTarget: a target not in the label space.
    """
    m = logits.shape[0]
    if m == 0:
        raise EmptyBatch("cross-entropy over an empty batch")
    outside = set(targets) - set(label_space)
    if outside:
        raise BadTarget(f"targets {sorted(outside)} not in label space {label_space}")
    idx = np.array([label_space.index(t) for t in targets])
    w = np.array([weights.get(t, 1.0) for t in targets])
    logp = log_softmax(logits)
    loss = float(-(w * logp[np.arange(m), idx]).mean())
    d_logits = np.exp(logp)
    d_logits[np.arange(m), idx] -= 1.0
    d_logits *= w[:, None] / m
    return loss, d_logits


def batch_class_weights(batch_labels: list[int]) -> dict[int, float]:
    """Per-batch imbalance weights: batch_size / (K_present * count(l)).

    Balanced batches get weight 1 for every present label; labels absent
    from the batch are simply absent from the map (callers default them
    to 1, where they multiply nothing).

    Raises:
        EmptyBatch: no labels given.
    """
    if not batch_labels:
        raise EmptyBatch("batch_class_weights on an empty batch")
    counts: dict[int, int] = {}
    for lab in batch_labels:
        counts[lab] = counts.get(lab, 0) + 1
    k_present = len(counts)
    total = len(batch_labels)
    return {lab: total / (k_present * c) for lab, c in counts.items()}


def pretrain_classifier(
    corpus: Corpus,
    store: SentenceEmbeddingStore,
    *,
    label_space: tuple[int, ...],
    steps: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
    heads: int,
    ffn_dim: int | None,
    weighted_sampler: bool,
    weighted_ce: bool,
    smooth_counts: int | None,
    grad_clip: float | None,
    log_hook=None,
) -> ClassifierParams:
    """Train the emotion head standalone on frozen utterance embeddings.

    Batches are drawn by the inverse-frequency weighted sampler so rare
    labels appear, and the cross-entropy is re-weighted for the residual
    per-batch imbalance. With a 6-label space, neutral utterances are
    excluded from training entirely. The returned parameters stay
    unfrozen; the contextual trainer keeps updating them. `log_hook`, if
    given, gets `{"step", "ce"}` per step, steps counted from 1.
    :func:`ercml.training.pretrain_from_config` takes every other
    setting from a `TrainConfig`.
    """
    rng = np.random.default_rng(seed)
    items = [
        (store.get(dialog.id, utt.index), utt.label)
        for dialog, utt in corpus.iter_utterances()
        if utt.label in label_space
    ]
    if not items:
        raise EmptyBatch("no trainable utterances for the given label space")
    # The store's own read-only rows: a batch copies only the rows it draws.
    rows, labels = zip(*items)

    if weighted_sampler:
        class_w = label_weights(corpus, labels=label_space, smooth_counts=smooth_counts)
        item_w = np.array([class_w[lab] for lab in labels])
        probs = item_w / item_w.sum()
        # `rng.choice(n, size, p=probs)` builds this CDF on every call and
        # draws exactly this way: the same indices, the same rng state.
        cdf = probs.cumsum()
        cdf /= cdf[-1]

    params = init_classifier(store.dim, label_space=label_space, heads=heads, ffn_dim=ffn_dim, seed=seed)
    adam = Adam(params.tensors(), lr=learning_rate, clip_norm=grad_clip)
    for step in range(1, steps + 1):
        if weighted_sampler:
            chosen = cdf.searchsorted(rng.random(batch_size), side="right")
        else:
            chosen = rng.choice(len(labels), size=batch_size)
        batch_x = np.stack([rows[i] for i in chosen])
        batch_y = [labels[i] for i in chosen]
        ce_w = batch_class_weights(batch_y) if weighted_ce else {}
        logits, cache = classify_batch(batch_x, params)
        loss, d_logits = ce_loss_and_grad(logits, batch_y, ce_w, params.label_space)
        _, grads = classifier_backward(d_logits, cache, params)
        adam.step(grads)
        if log_hook is not None:
            log_hook({"step": step, "ce": loss})
    return params


def _label_ids(ids) -> tuple[int, ...]:
    """A checkpoint's label space: one or more distinct label ids in 0..6.

    Raises:
        TypeError, ValueError: `ids` is not such a list.
    """
    space = tuple(json_int(x) for x in ids)
    if not space or len(set(space)) != len(space) or not set(space) <= set(ALL_LABEL_IDS):
        raise ValueError(f"{list(space)} is not a non-empty list of distinct label ids in 0..6")
    return space


def classifier_from_tensors(tensors: dict[str, np.ndarray], meta: dict, prefix: str = "") -> ClassifierParams:
    """Rebuild from a checkpoint's metadata and its tensors named
    `prefix` + a name of tensors(). Names outside those are left for the
    file's reader to reject, once over the whole file.

    Raises:
        CheckpointError: `meta` is missing an entry or malformed (a size
            that is not an integer, a label space that is not distinct
            ids in 0..6), or a tensor is missing or shaped unlike `meta`
            says.
    """
    label_space = meta_entry(meta, "label_space", _label_ids)
    k = len(label_space)
    encoder = layer_from_tensors(SingletonLayerParams, tensors, meta, prefix=f"{prefix}encoder.")
    return ClassifierParams(
        encoder=encoder,
        w_out=checked_tensor(tensors, f"{prefix}head.w", (encoder.dim, k)),
        b_out=checked_tensor(tensors, f"{prefix}head.b", (k,)),
        label_space=label_space,
    )


def save_classifier(path: str | Path, params: ClassifierParams, provider: str, config_echo: dict, seed: int) -> Path:
    """Write a standalone head (the `pretrain` output) as a `classifier`
    checkpoint recording the store provider it was trained on."""
    meta = {**params.meta(), "provider": provider, "config_echo": config_echo, "seed": seed}
    return save_checkpoint(path, "classifier", params.tensors(), meta)


def load_classifier(path: str | Path) -> tuple[ClassifierParams, str]:
    """(params, store provider) from a `classifier` checkpoint; a file
    recording no provider reads as "unknown". Raises CheckpointError as
    load_checkpoint and classifier_from_tensors do, on a tensor the head
    does not hold, or on a provider that is not a string."""
    _, tensors, meta = load_checkpoint(path, expect_kind="classifier")
    params = classifier_from_tensors(tensors, meta)
    reject_unknown_tensors(tensors, params.tensors())
    return params, meta_entry(meta, "provider", json_string, default="unknown")
