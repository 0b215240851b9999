"""Training procedures.

One trainable, the contextual model: each batch of whole dialogs goes
through a three-step cycle — forward (build sequence, encode, split),
a weighted cross-entropy update through classifier and encoder, and a
triplet update through the encoder over the same batch's
representations. Both losses reach the shared encoder; the frozen
sentence-embedding store is never written.

Imbalance is handled at every stage: inverse-frequency weighted
ordering of the data, per-batch weighted cross-entropy, and weighted
anchor sampling for triplets. Each control can be disabled for
ablation runs.
"""

from __future__ import annotations

import itertools
import math
import typing
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import json_object, json_string, load_checkpoint, meta_entry, reject_unknown_tensors, save_checkpoint
from .classifier import ClassifierParams, ce_step, classifier_from_tensors, classify_batch, pretrain_classifier
from .corpus import ALL_LABEL_IDS, EMOTION_IDS, LABEL_NAMES, Corpus, Dialog, label_weights
from .embeddings import SentenceEmbeddingStore
from .encoder import (
    AttentionLayerParams,
    EncoderLayerParams,
    check_head_count,
    encode_dialog,
    encode_dialog_backward,
    init_encoder_stack,
    layer_from_tensors,
    layer_meta,
    stack_tensors,
)
from .errors import CheckpointError, ConfigError, DimMismatch, InsufficientDiversity
from .metrics import MetricsReport, report_from_predictions
from .optim import Adam
from .triplets import (
    DISTANCES,
    TripletLossConfig,
    batch_all_indices,
    batch_hard_indices,
    batch_triplet_loss_grads,
    pairwise_distances,
    sample_triplet_indices,
)
# Unused here since training mines index arrays, sums gradients in place and
# takes the head's backward through ce_step, but perfbench's traced run wraps
# these names.
from .classifier import classifier_backward  # noqa: F401
from .optim import add_grads  # noqa: F401
from .triplets import batch_all_triplets, batch_hard_triplets, sample_triplets  # noqa: F401

SAMPLING_STRATEGIES = ("weighted-random", "batch-all", "batch-hard")
LOSS_MODES = ("alternating", "summed")


# Numeric TrainConfig fields -> whether the bound is strict (> 0) or not
# (>= 0); an optional field left at None is not checked.
LOWER_BOUNDS = {
    **dict.fromkeys(
        ("epochs", "batch_size", "learning_rate", "margin", "summed_lambda", "pretrain_epochs",
         "pretrain_batch_size", "heads", "ffn_dim", "encoder_layers", "triplets_per_batch", "grad_clip"),
        True,
    ),
    **dict.fromkeys(("seed", "pretrain_steps", "smooth_counts", "max_steps"), False),
}


def check_lower_bound(name: str, value, strict: bool) -> None:
    """Raises ConfigError unless `value` is None, or > 0 (strict) or >= 0."""
    if value is not None and not (value > 0 if strict else value >= 0):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} 0, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on; echoed into every artifact."""

    epochs: int = 5
    batch_size: int = 8              # dialogs per contextual batch
    learning_rate: float = 1e-3
    seed: int = 0
    margin: float = 1.0
    distance: str = "euclidean"
    sampling_strategy: str = "weighted-random"
    loss_mode: str = "alternating"
    summed_lambda: float = 1.0
    label_space_size: int = 7        # 7, or 6 for the neutral-free ablation
    pretrain_epochs: int = 3
    pretrain_steps: int | None = None
    pretrain_batch_size: int = 32
    heads: int = 4
    ffn_dim: int | None = None
    encoder_layers: int = 1
    triplets_per_batch: int | None = None
    weighted_sampler: bool = True
    weighted_ce: bool = True
    triplet_enabled: bool = True
    smooth_counts: int | None = 1
    grad_clip: float | None = 1.0
    max_steps: int | None = None

    def __post_init__(self):
        for name, strict in LOWER_BOUNDS.items():
            check_lower_bound(name, getattr(self, name), strict)
        for name, (kind, optional) in FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and not optional:
                raise ConfigError(f"{name} must not be None")
            # an infinite grad_clip is the flag spelling of "no clipping"
            if kind is float and name != "grad_clip" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.label_space_size not in (6, 7):
            raise ConfigError(f"label_space_size must be 6 or 7, got {self.label_space_size}")
        if self.sampling_strategy not in SAMPLING_STRATEGIES:
            raise ConfigError(f"sampling_strategy must be one of {SAMPLING_STRATEGIES}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}")
        if self.distance not in DISTANCES:
            raise ConfigError(f"distance must be one of {DISTANCES}, got {self.distance!r}")

    def label_space(self) -> tuple[int, ...]:
        return ALL_LABEL_IDS if self.label_space_size == 7 else EMOTION_IDS

    def resolved_pretrain_steps(self, corpus: Corpus) -> int:
        """`pretrain_steps`, or else `pretrain_epochs` passes over the
        corpus's in-space utterances in batches of `pretrain_batch_size`."""
        if self.pretrain_steps is not None:
            return self.pretrain_steps
        n = sum(1 for _, u in corpus.iter_utterances() if u.label in self.label_space())
        return self.pretrain_epochs * max(1, math.ceil(n / self.pretrain_batch_size))

    def class_weights(self, corpus: Corpus) -> dict[int, float]:
        """Inverse-frequency weights over the label space, or uniform ones
        when `weighted_sampler` is off."""
        if not self.weighted_sampler:
            return dict.fromkeys(self.label_space(), 1.0)
        return label_weights(corpus, labels=self.label_space(), smooth_counts=self.smooth_counts)

    def triplet_cfg(self) -> TripletLossConfig:
        return TripletLossConfig(margin=self.margin, distance=self.distance)

    def as_echo(self) -> dict:
        return asdict(self)


# TrainConfig field -> (int, float, bool or str, whether None is allowed),
# read off its type hints; `__post_init__`, the CLI's flags and its
# config-file parser follow it.
FIELD_TYPES = {
    name: (next(t for t in typing.get_args(hint) or (hint,) if t is not type(None)),
           type(None) in typing.get_args(hint))
    for name, hint in typing.get_type_hints(TrainConfig).items()
}


@dataclass
class ContextualModel:
    """Shared contextual encoder stack plus the (unfrozen) emotion head."""

    encoder: list[AttentionLayerParams]
    classifier: ClassifierParams
    config_echo: dict
    provider_name: str = "unknown"

    @property
    def dim(self) -> int:
        return self.encoder[0].dim

    def tensors(self) -> dict[str, np.ndarray]:
        """Live checkpoint tensors: "encoder.<layer>.<name>" and "classifier.<name>"."""
        out = {f"encoder.{n}": a for n, a in stack_tensors(self.encoder).items()}
        out.update({f"classifier.{n}": a for n, a in self.classifier.tensors().items()})
        return out

    def save(self, path: str | Path) -> Path:
        meta = {
            "encoder": {**layer_meta(self.encoder[0]), "layers": len(self.encoder)},
            "classifier": self.classifier.meta(),
            "provider": self.provider_name,
            "config_echo": self.config_echo,
        }
        return save_checkpoint(path, "contextual", self.tensors(), meta)

    @classmethod
    def load(cls, path: str | Path) -> "ContextualModel":
        """Raises CheckpointError on a file of another kind or format
        version, with missing or malformed metadata, whose tensors do not
        match its metadata, or whose head and encoder differ in width."""
        _, tensors, meta = load_checkpoint(path, expect_kind="contextual")
        enc_meta = meta_entry(meta, "encoder", json_object)
        if (layers := meta_entry(enc_meta, "layers")) < 1:
            raise CheckpointError(f"checkpoint metadata: {layers} encoder layers, need at least 1")
        encoder = [
            layer_from_tensors(
                AttentionLayerParams if i else EncoderLayerParams, tensors, enc_meta, prefix=f"encoder.{i}."
            )
            for i in range(layers)
        ]
        clf_meta = meta_entry(meta, "classifier", json_object)
        classifier = classifier_from_tensors(tensors, clf_meta, prefix="classifier.")
        if (dim := classifier.dim) != encoder[0].dim:
            raise CheckpointError(f"checkpoint metadata: classifier dim {dim} != encoder dim {encoder[0].dim}")
        config_echo = meta_entry(meta, "config_echo", json_object, default={})
        meta_entry(config_echo, "train_config", json_object, default={})  # eval reads its seed
        model = cls(
            encoder=encoder,
            classifier=classifier,
            config_echo=config_echo,
            provider_name=meta_entry(meta, "provider", json_string, default="unknown"),
        )
        reject_unknown_tensors(tensors, model.tensors())
        return model


def pretrain_from_config(corpus: Corpus, store: SentenceEmbeddingStore, config: TrainConfig) -> ClassifierParams:
    """:func:`pretrain_classifier` with every setting taken from `config`."""
    return pretrain_classifier(
        corpus,
        store,
        label_space=config.label_space(),
        steps=config.resolved_pretrain_steps(corpus),
        batch_size=config.pretrain_batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
        heads=config.heads,
        ffn_dim=config.ffn_dim,
        weighted_sampler=config.weighted_sampler,
        weighted_ce=config.weighted_ce,
        smooth_counts=config.smooth_counts,
        grad_clip=config.grad_clip,
    )


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


def _epoch_order(
    corpus: Corpus, class_w: dict[int, float], rng: np.random.Generator, weighted: bool
) -> np.ndarray:
    """One pass over all dialogs; weighting biases the visit order toward
    dialogs carrying rare labels (weighted sampling without replacement)."""
    n = len(corpus.dialogs)
    if not weighted:
        return rng.permutation(n)
    dialog_w = np.array([
        max(float(np.mean([class_w.get(lab, 0.0) for lab in d.labels])), 1e-9)
        for d in corpus.dialogs
    ])
    keys = rng.random(n) ** (1.0 / dialog_w)
    return np.argsort(-keys, kind="stable")


def ce_pass(
    dialogs: list[Dialog],
    contextual: np.ndarray,
    classifier: ClassifierParams,
    weighted_ce: bool,
):
    """:func:`ce_step` over every utterance of the batch in the head's
    label space.

    `contextual` holds one row per utterance of the batch, in batch order.
    Returns (loss, its gradient with respect to `contextual`, classifier
    grads), or None when the batch has no in-space utterance (possible
    in 6-label mode on an all-neutral batch).
    """
    utts = [u for d in dialogs for u in d.utterances]
    rows = [r for r, u in enumerate(utts) if u.label in classifier.label_space]
    if not rows:
        return None
    loss, d_reps, clf_grads = ce_step(contextual[rows], [utts[r].label for r in rows], classifier, weighted_ce)
    d_ctx = np.zeros_like(contextual)
    d_ctx[rows] = d_reps
    return loss, d_ctx, clf_grads


def triplet_pass(
    dialogs: list[Dialog],
    contextual: np.ndarray,
    config: TrainConfig,
    class_w: dict[int, float],
    rng: np.random.Generator,
):
    """Mine triplets over the batch's in-space contextual rows and compute
    the mean triplet loss with its gradient with respect to `contextual`
    (packed like :func:`ce_pass`'s), all from one pairwise-distance
    matrix over those rows.

    Returns (loss, active_count, d_ctx) or None when the batch lacks
    label diversity (the trainer then skips the triplet step).
    """
    label_space = config.label_space()
    refs = [(d.id, u.index, u.label) for d in dialogs for u in d.utterances]
    rows = [r for r, (_, _, label) in enumerate(refs) if label in label_space]
    strategy = config.sampling_strategy
    if strategy != "weighted-random":
        # Rows in ref order, so a distance tie goes to the lowest ref; the
        # sampler keeps batch order, which its draws index into.
        rows.sort(key=lambda r: refs[r][:2])
    labels = [refs[r][2] for r in rows]
    if len(set(labels)) < 2:
        return None
    x = contextual[rows]
    tri_cfg = config.triplet_cfg()
    dist = pairwise_distances(x, tri_cfg.distance)

    if strategy == "weighted-random":
        try:
            triplets = sample_triplet_indices(labels, config.triplets_per_batch or len(labels), class_w, rng)
        except InsufficientDiversity:
            return None
    elif strategy == "batch-all":
        triplets = batch_all_indices(labels)
    else:
        triplets = batch_hard_indices(dist, labels)
    if len(triplets[0]) == 0:
        return None
    loss, active, dx = batch_triplet_loss_grads(x, dist, triplets, tri_cfg)
    d_ctx = np.zeros_like(contextual)
    d_ctx[rows] = dx
    return loss, active, d_ctx


def check_train_inputs(store: SentenceEmbeddingStore, config: TrainConfig, classifier: ClassifierParams | None):
    """The checks `train_contextual` makes of its store, config and head
    before any work, for a caller to make before it writes anything.

    Raises:
        DimMismatch, ConfigError: a passed-in classifier's width or label
            space differs from the store's or the config's.
        BadHeadCount: `config.heads` does not divide the store's dim.
    """
    if classifier is not None:
        if classifier.dim != store.dim:
            raise DimMismatch(f"classifier dim {classifier.dim} != store dim {store.dim}")
        if (space := classifier.label_space) != config.label_space():
            raise ConfigError(f"classifier label space {space} != configured {config.label_space()}")
    check_head_count(store.dim, config.heads)


def train_contextual(
    corpus: Corpus,
    store: SentenceEmbeddingStore,
    config: TrainConfig,
    classifier: ClassifierParams | None = None,
    log_hook=None,
) -> ContextualModel:
    """The contextual training procedure over whole-dialog batches.

    Per batch: forward, a cross-entropy update through classifier and
    encoder, then a triplet update through the encoder (alternating
    mode runs them as two parameter updates with a fresh forward in
    between; summed mode applies one update on CE + lambda * triplet).
    Batches without label diversity skip the triplet step and keep
    training. The classifier is pretrained standalone unless one is
    passed in, and stays unfrozen throughout. `log_hook`, if given, gets
    one record per step: `step` (from 1), `epoch`, `ce`, `triplet`,
    `active` and `triplet_skipped`.

    Raises:
        MissingEmbedding: the store lacks a vector for some utterance of
            `corpus` (checked before any training).
        DimMismatch, ConfigError, BadHeadCount: see :func:`check_train_inputs`.
    """
    rng = np.random.default_rng(config.seed)

    store.check_covers(corpus)
    check_train_inputs(store, config, classifier)
    if classifier is None:
        classifier = pretrain_from_config(corpus, store, config)

    encoder = init_encoder_stack(
        store.dim, heads=config.heads, ffn_dim=config.ffn_dim,
        layers=config.encoder_layers, seed=config.seed,
    )
    enc_opt = Adam(stack_tensors(encoder), lr=config.learning_rate, clip_norm=config.grad_clip)
    clf_opt = Adam(classifier.tensors(), lr=config.learning_rate, clip_norm=config.grad_clip)

    class_w = config.class_weights(corpus)
    # Each epoch's order is drawn as that epoch starts, after the previous
    # epoch's steps, since triplet sampling draws from the same rng.
    batches = (
        (epoch, [corpus.dialogs[i] for i in chunk])
        for epoch in range(config.epochs)
        for chunk in _chunks(_epoch_order(corpus, class_w, rng, weighted=config.weighted_sampler), config.batch_size)
    )
    for step, (epoch, dialogs) in enumerate(itertools.islice(batches, config.max_steps), start=1):
        record = _train_cycle(
            dialogs, store, encoder, classifier, enc_opt, clf_opt,
            config, class_w, rng,
        )
        if log_hook is not None:
            log_hook({"step": step, "epoch": epoch, **record})
    return ContextualModel(
        encoder=encoder,
        classifier=classifier,
        config_echo=config.as_echo(),
        provider_name=store.provider_name,
    )


def _train_cycle(
    dialogs, store, encoder, classifier, enc_opt, clf_opt, config, class_w, rng
) -> dict:
    """One batch's updates; returns the step record's loss fields: `ce`,
    `triplet`, `active`, and `triplet_skipped`, true when the batch
    lacked the label diversity for a triplet step."""
    summed = config.loss_mode == "summed"
    encoding = encode_dialog(dialogs, store, encoder)
    ce_out = ce_pass(dialogs, encoding.contextual, classifier, config.weighted_ce)
    ce_loss, d_ctx = 0.0, None  # d_ctx: the encoder update still to make
    if ce_out is not None:
        ce_loss, d_ctx, clf_grads = ce_out
        clf_opt.step(clf_grads)
        del ce_out, clf_grads  # spent: the encoder's backward and step run without the head's gradients
        if not summed:
            enc_opt.step(encode_dialog_backward(d_ctx, encoding, encoder))
            d_ctx = None
    tri_loss, active, skipped = 0.0, 0, False
    if config.triplet_enabled:
        if not summed:  # alternating: a fresh forward after the CE update
            encoding = encode_dialog(dialogs, store, encoder)
        tri_out = triplet_pass(dialogs, encoding.contextual, config, class_w, rng)
        skipped = tri_out is None
        if not skipped:
            tri_loss, active, d_tri = tri_out
            if summed:
                d_tri = config.summed_lambda * d_tri
            d_ctx = d_tri if d_ctx is None else d_ctx + d_tri
    if d_ctx is not None:
        enc_opt.step(encode_dialog_backward(d_ctx, encoding, encoder))
    return {"ce": ce_loss, "triplet": tri_loss, "active": active, "triplet_skipped": skipped}


PREDICT_BATCH = 8  # dialogs per packed prediction pass; batches of 32 ran slower


def predict_dialogs(
    model: ContextualModel, dialogs: Sequence[Dialog], store: SentenceEmbeddingStore
) -> Iterator[tuple[Dialog, list[int]]]:
    """Yields (dialog, one label id per utterance) for each of `dialogs`,
    in order. Dialogs are encoded `PREDICT_BATCH` to a packed pass, whose
    block mask keeps each to its own rows. A label is the argmax of the
    emotion head; a tie goes to the lowest label-space index."""
    space = model.classifier.label_space
    for batch in _chunks(dialogs, PREDICT_BATCH):
        encoding = encode_dialog(batch, store, model.encoder)
        logits, _ = classify_batch(encoding.contextual, model.classifier)
        labels = iter([space[int(i)] for i in np.argmax(logits, axis=1)])
        for dialog in batch:
            yield dialog, [next(labels) for _ in dialog.utterances]


def predict(model: ContextualModel, dialog: Dialog, store: SentenceEmbeddingStore) -> list[int]:
    """:func:`predict_dialogs` on one dialog."""
    return next(predict_dialogs(model, [dialog], store))[1]


def evaluate_model(
    model: ContextualModel,
    corpus: Corpus,
    store: SentenceEmbeddingStore,
    neutral_policy: str = "attribute",
) -> MetricsReport:
    """Score a corpus split with the shared metrics conventions; a 6-label
    model leaves gold-neutral utterances unscored, as training does."""
    space = model.classifier.label_space
    scored = [
        (LABEL_NAMES[pred], LABEL_NAMES[utt.label])
        for dialog, labels in predict_dialogs(model, corpus.dialogs, store)
        for utt, pred in zip(dialog.utterances, labels)
        if utt.label in space
    ]
    label_names = tuple(LABEL_NAMES[i] for i in space)
    return report_from_predictions([p for p, _ in scored], [g for _, g in scored], label_names, neutral_policy)
