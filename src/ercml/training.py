"""Training procedures.

Two trainables: the isolated-utterance Siamese baseline (triplet loss
only), and the contextual model where each batch of whole dialogs goes
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

import logging
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import checked_tensor, load_checkpoint, reject_unknown_tensors, save_checkpoint
from .classifier import (
    ClassifierParams,
    batch_class_weights,
    ce_loss_and_grad,
    classifier_backward,
    classifier_from_tensors,
    classifier_to_tensors,
    classify_batch,
    pretrain_classifier,
)
from .corpus import ALL_LABEL_IDS, EMOTION_IDS, LABEL_NAMES, Corpus, Dialog, label_weights
from .embeddings import SentenceEmbeddingStore, WordEmbeddingTable
from .encoder import (
    DialogEncoding,
    EncoderLayerParams,
    encode_dialog,
    encode_dialog_backward,
    init_encoder_stack,
    layer_from_tensors,
    layer_meta,
    stack_tensors,
    stack_zero_grads,
)
from .errors import CheckpointError, ConfigError, DimMismatch, InsufficientDiversity
from .isolated import IsolatedModel, init_linear_subnet, init_lstm
from .metrics import MetricsReport, report_from_predictions
from .optim import Adam, add_grads
from .triplets import (
    Triplet,
    TripletLossConfig,
    UttRef,
    batch_all_indices,
    batch_hard_indices,
    batch_triplet_loss_grads,
    corpus_pool,
    pairwise_distances,
    sample_triplet_indices,
    sample_triplets,
    triplet_loss_grads,
)
# Unused here since the triplet pass mines index arrays, but perfbench's
# traced run wraps the list-returning miners at these names.
from .triplets import batch_all_triplets, batch_hard_triplets  # noqa: F401

logger = logging.getLogger(__name__)

SAMPLING_STRATEGIES = ("weighted-random", "batch-all", "batch-hard")
LOSS_MODES = ("alternating", "summed")


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
    subnetwork: str = "linear"       # isolated baseline: "linear" or "lstm"
    pretrain_epochs: int = 3
    pretrain_steps: int | None = None
    pretrain_batch_size: int = 32
    heads: int = 4
    ffn_dim: int | None = None
    encoder_layers: int = 1
    rep_dim: int = 16                # isolated-baseline representation width
    triplets_per_batch: int | None = None
    weighted_sampler: bool = True
    weighted_ce: bool = True
    triplet_enabled: bool = True
    smooth_counts: int | None = 1
    grad_clip: float | None = 1.0
    max_steps: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.label_space_size not in (6, 7):
            raise ConfigError(f"label_space_size must be 6 or 7, got {self.label_space_size}")
        if self.sampling_strategy not in SAMPLING_STRATEGIES:
            raise ConfigError(f"sampling_strategy must be one of {SAMPLING_STRATEGIES}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}")
        if self.loss_mode == "summed" and self.summed_lambda <= 0:
            raise ConfigError(f"summed_lambda must be > 0, got {self.summed_lambda}")
        if self.subnetwork not in ("linear", "lstm"):
            raise ConfigError(f"subnetwork must be 'linear' or 'lstm', got {self.subnetwork!r}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.encoder_layers < 1:
            raise ConfigError(f"encoder_layers must be >= 1, got {self.encoder_layers}")

    def label_space(self) -> tuple[int, ...]:
        return ALL_LABEL_IDS if self.label_space_size == 7 else EMOTION_IDS

    def resolved_pretrain_steps(self, corpus: Corpus) -> int:
        """`pretrain_steps`, or else `pretrain_epochs` passes over the
        corpus's in-space utterances in batches of `pretrain_batch_size`."""
        if self.pretrain_steps is not None:
            return self.pretrain_steps
        n = sum(1 for _, u in corpus.iter_utterances() if u.label in self.label_space())
        return self.pretrain_epochs * max(1, math.ceil(n / self.pretrain_batch_size))

    def triplet_cfg(self) -> TripletLossConfig:
        return TripletLossConfig(margin=self.margin, distance=self.distance)

    def as_echo(self) -> dict:
        return asdict(self)


@dataclass
class ContextualModel:
    """Shared contextual encoder stack plus the (unfrozen) emotion head."""

    encoder: list[EncoderLayerParams]
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
            "classifier": classifier_to_tensors(self.classifier)[1],
            "provider": self.provider_name,
            "config_echo": self.config_echo,
        }
        return save_checkpoint(path, "contextual", self.tensors(), meta)

    @classmethod
    def load(cls, path: str | Path) -> "ContextualModel":
        """Raises CheckpointError on a file of another kind or format
        version, or whose tensors do not match its metadata."""
        _, tensors, meta = load_checkpoint(path, expect_kind="contextual")
        enc_meta = meta["encoder"]
        encoder = [
            layer_from_tensors(EncoderLayerParams, tensors, enc_meta, prefix=f"encoder.{i}.")
            for i in range(int(enc_meta["layers"]))
        ]
        clf_tensors = {
            name[len("classifier."):]: arr
            for name, arr in tensors.items()
            if name.startswith("classifier.")
        }
        try:
            classifier = classifier_from_tensors(clf_tensors, meta["classifier"])
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: classifier part: {exc}") from None
        model = cls(
            encoder=encoder,
            classifier=classifier,
            config_echo=meta.get("config_echo", {}),
            provider_name=meta.get("provider", "unknown"),
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
    encodings: list[DialogEncoding],
    classifier: ClassifierParams,
    label_space: tuple[int, ...],
    weighted_ce: bool,
):
    """Cross-entropy loss over every in-space utterance of the batch.

    Returns (loss, per-dialog contextual gradients, classifier grads),
    or None when the batch has no in-space utterance (possible in
    6-label mode on an all-neutral batch).
    """
    rows: list[np.ndarray] = []
    locations: list[tuple[int, int]] = []
    targets: list[int] = []
    for di, (dialog, enc) in enumerate(zip(dialogs, encodings)):
        for utt in dialog.utterances:
            if utt.label in label_space:
                rows.append(enc.contextual[utt.index])
                locations.append((di, utt.index))
                targets.append(utt.label)
    if not rows:
        return None
    weights = batch_class_weights(targets) if weighted_ce else {}
    logits, cache = classify_batch(np.stack(rows), classifier)
    loss, d_logits = ce_loss_and_grad(logits, targets, weights, label_space)
    d_reps, clf_grads = classifier_backward(d_logits, cache, classifier)
    d_ctx = [np.zeros_like(enc.contextual) for enc in encodings]
    for row, (di, ui) in enumerate(locations):
        d_ctx[di][ui] += d_reps[row]
    return loss, d_ctx, clf_grads


def triplet_pass(
    dialogs: list[Dialog],
    encodings: list[DialogEncoding],
    config: TrainConfig,
    class_w: dict[int, float],
    rng: np.random.Generator,
):
    """Mine triplets over the batch's in-space contextual rows and compute
    the mean triplet loss with its per-dialog representation gradients,
    all from one pairwise-distance matrix over those rows.

    Returns (loss, active_count, d_ctx) or None when the batch lacks
    label diversity (the trainer then skips the triplet step).
    """
    label_space = config.label_space()
    where: list[tuple[int, int]] = []  # (dialog position, utterance index) per row
    labels: list[int] = []
    for di, dialog in enumerate(dialogs):
        for utt in dialog.utterances:
            if utt.label in label_space:
                where.append((di, utt.index))
                labels.append(utt.label)
    if len(set(labels)) < 2:
        return None
    strategy = config.sampling_strategy
    if strategy != "weighted-random":
        # Rows in ref order, so a distance tie goes to the lowest ref; the
        # sampler keeps batch order, which its draws index into.
        order = sorted(range(len(where)), key=lambda r: (dialogs[where[r][0]].id, where[r][1]))
        where = [where[r] for r in order]
        labels = [labels[r] for r in order]
    x = np.stack([encodings[di].contextual[ui] for di, ui in where])
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
    d_ctx = [np.zeros_like(enc.contextual) for enc in encodings]
    for (di, ui), grad in zip(where, dx):
        d_ctx[di][ui] = grad
    return loss, active, d_ctx


def _encoder_grads_from_ctx(
    d_ctx: list[np.ndarray],
    encodings: list[DialogEncoding],
    encoder: list[EncoderLayerParams],
) -> dict[str, np.ndarray]:
    grads = stack_zero_grads(encoder)
    for d_c, enc in zip(d_ctx, encodings):
        add_grads(grads, encode_dialog_backward(d_c, enc, encoder))
    return grads


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
    passed in, and stays unfrozen throughout.

    Raises:
        MissingEmbedding: the store lacks a vector for some utterance of
            `corpus` (checked before any training).
    """
    label_space = config.label_space()
    include_neutral = 0 in label_space
    rng = np.random.default_rng(config.seed)

    store.check_covers(corpus)
    if classifier is None:
        classifier = pretrain_from_config(corpus, store, config)
    elif classifier.dim != store.dim:
        raise DimMismatch(f"classifier dim {classifier.dim} != store dim {store.dim}")

    encoder = init_encoder_stack(
        store.dim, heads=config.heads, ffn_dim=config.ffn_dim,
        layers=config.encoder_layers, seed=config.seed,
    )
    enc_opt = Adam(stack_tensors(encoder), lr=config.learning_rate, clip_norm=config.grad_clip)
    clf_opt = Adam(classifier.tensors(), lr=config.learning_rate, clip_norm=config.grad_clip)

    if config.weighted_sampler:
        class_w = label_weights(corpus, include_neutral=include_neutral, smooth_counts=config.smooth_counts)
    else:
        class_w = {lab: 1.0 for lab in label_space}

    step = 0
    done = False
    for epoch in range(config.epochs):
        if done:
            break
        order = _epoch_order(corpus, class_w, rng, weighted=config.weighted_sampler)
        for chunk in _chunks(order, config.batch_size):
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break
            dialogs = [corpus.dialogs[i] for i in chunk]
            ce_loss, tri_loss, active = _train_cycle(
                dialogs, store, encoder, classifier, enc_opt, clf_opt,
                config, class_w, rng,
            )
            step += 1
            logger.info(
                "step=%d epoch=%d ce=%.6f triplet=%.6f active=%d",
                step, epoch, ce_loss, tri_loss, active,
            )
            if log_hook is not None:
                log_hook({
                    "step": step, "epoch": epoch, "ce": ce_loss,
                    "triplet": tri_loss, "active": active,
                })
    return ContextualModel(
        encoder=encoder,
        classifier=classifier,
        config_echo=config.as_echo(),
        provider_name=store.provider_name,
    )


def _train_cycle(
    dialogs, store, encoder, classifier, enc_opt, clf_opt, config, class_w, rng
) -> tuple[float, float, int]:
    label_space = config.label_space()
    encodings = [encode_dialog(d, store, encoder) for d in dialogs]
    ce_out = ce_pass(dialogs, encodings, classifier, label_space, config.weighted_ce)

    if config.loss_mode == "summed":
        tri_out = None
        if config.triplet_enabled:
            tri_out = triplet_pass(dialogs, encodings, config, class_w, rng)
        ce_loss = tri_loss = 0.0
        active = 0
        d_ctx = [np.zeros_like(enc.contextual) for enc in encodings]
        if ce_out is not None:
            ce_loss, d_ce, clf_grads = ce_out
            for acc, d in zip(d_ctx, d_ce):
                acc += d
            clf_opt.step(clf_grads)
        if tri_out is not None:
            tri_loss, active, d_tri = tri_out
            for acc, d in zip(d_ctx, d_tri):
                acc += config.summed_lambda * d
        elif config.triplet_enabled:
            logger.info("triplet step skipped: insufficient label diversity in batch")
        if ce_out is not None or tri_out is not None:
            enc_opt.step(_encoder_grads_from_ctx(d_ctx, encodings, encoder))
        return ce_loss, tri_loss, active

    # alternating: CE update, then a fresh forward for the triplet update
    ce_loss = 0.0
    if ce_out is not None:
        ce_loss, d_ce, clf_grads = ce_out
        enc_grads = _encoder_grads_from_ctx(d_ce, encodings, encoder)
        clf_opt.step(clf_grads)
        enc_opt.step(enc_grads)
    tri_loss = 0.0
    active = 0
    if config.triplet_enabled:
        encodings = [encode_dialog(d, store, encoder) for d in dialogs]
        tri_out = triplet_pass(dialogs, encodings, config, class_w, rng)
        if tri_out is not None:
            tri_loss, active, d_tri = tri_out
            enc_opt.step(_encoder_grads_from_ctx(d_tri, encodings, encoder))
        else:
            logger.info("triplet step skipped: insufficient label diversity in batch")
    return ce_loss, tri_loss, active


def predict(model: ContextualModel, dialog: Dialog, store: SentenceEmbeddingStore) -> list[int]:
    """One label id per utterance: argmax of the emotion head over each
    contextual representation."""
    encoding = encode_dialog(dialog, store, model.encoder)
    logits, _ = classify_batch(encoding.contextual, model.classifier)
    space = model.classifier.label_space
    return [space[int(i)] for i in np.argmax(logits, axis=1)]


def predict_corpus(
    model: ContextualModel, corpus: Corpus, store: SentenceEmbeddingStore
) -> tuple[list[str], list[str]]:
    """(predicted, gold) label names over all scorable utterances.

    For a 6-label model, gold-neutral utterances are not scored (they
    are excluded from both training and evaluation in that mode).
    """
    space = set(model.classifier.label_space)
    preds: list[str] = []
    golds: list[str] = []
    for dialog in corpus.dialogs:
        labels = predict(model, dialog, store)
        for utt, pred in zip(dialog.utterances, labels):
            if utt.label in space:
                preds.append(LABEL_NAMES[pred])
                golds.append(LABEL_NAMES[utt.label])
    return preds, golds


def evaluate_model(
    model: ContextualModel,
    corpus: Corpus,
    store: SentenceEmbeddingStore,
    neutral_policy: str = "attribute",
) -> MetricsReport:
    """Score a corpus split with the shared metrics conventions."""
    preds, golds = predict_corpus(model, corpus, store)
    label_names = tuple(LABEL_NAMES[i] for i in model.classifier.label_space)
    return report_from_predictions(preds, golds, label_names, neutral_policy)


def train_isolated(
    corpus: Corpus,
    table: WordEmbeddingTable,
    config: TrainConfig,
    log_hook=None,
) -> IsolatedModel:
    """Siamese baseline on isolated utterances, triplet loss only.

    The sub-network is an affine map over mean-pooled word vectors or an
    LSTM over the word sequence, per `config.subnetwork`.
    """
    label_space = config.label_space()
    include_neutral = 0 in label_space
    rng = np.random.default_rng(config.seed)
    pool = corpus_pool(corpus, include_neutral=include_neutral)
    if config.weighted_sampler:
        class_w = label_weights(corpus, include_neutral=include_neutral, smooth_counts=config.smooth_counts)
    else:
        class_w = {lab: 1.0 for lab in label_space}
    utt_by_ref = {
        UttRef(d.id, u.index): u
        for d, u in corpus.iter_utterances()
    }
    if config.subnetwork == "linear":
        params = init_linear_subnet(table.dim, config.rep_dim, seed=config.seed)
    else:
        params = init_lstm(table.dim, config.rep_dim, seed=config.seed)
    model = IsolatedModel(
        kind=config.subnetwork, params=params, rep_dim=config.rep_dim,
        config_echo=config.as_echo(),
    )
    opt = Adam(params.tensors(), lr=config.learning_rate, clip_norm=config.grad_clip)
    tri_cfg = config.triplet_cfg()

    step = 0
    done = False
    for epoch in range(config.epochs):
        if done:
            break
        triplets = sample_triplets(pool, count=len(pool), weights=class_w, rng=rng)
        for batch in _chunks(triplets, config.batch_size):
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break
            loss, active = _isolated_batch_update(batch, model, table, utt_by_ref, opt, tri_cfg)
            step += 1
            logger.info("step=%d epoch=%d triplet=%.6f active=%d", step, epoch, loss, active)
            if log_hook is not None:
                log_hook({"step": step, "epoch": epoch, "triplet": loss, "active": active})
    return model


def _isolated_batch_update(
    batch: list[Triplet], model, table, utt_by_ref, opt, tri_cfg
) -> tuple[float, int]:
    refs = sorted({r for t in batch for r in (t.anchor, t.positive, t.negative)})
    reps: dict[UttRef, np.ndarray] = {}
    caches: dict[UttRef, object] = {}
    d_reps: dict[UttRef, np.ndarray] = {}
    for ref in refs:
        rep, cache = model.represent_with_cache(utt_by_ref[ref], table)
        reps[ref] = rep
        caches[ref] = cache
        d_reps[ref] = np.zeros_like(rep)
    total = 0.0
    active = 0
    scale = 1.0 / len(batch)
    for t in batch:
        loss, da, dp, dn = triplet_loss_grads(
            reps[t.anchor], reps[t.positive], reps[t.negative], tri_cfg
        )
        total += loss
        active += loss > 0.0
        d_reps[t.anchor] += scale * da
        d_reps[t.positive] += scale * dp
        d_reps[t.negative] += scale * dn
    grads = model.params.zero_grads()
    for ref in refs:
        add_grads(grads, model.backward(d_reps[ref], caches[ref]))
    opt.step(grads)
    return total * scale, active


def save_isolated(model: IsolatedModel, path: str | Path) -> Path:
    meta = {"subnetwork": model.kind, "rep_dim": model.rep_dim, "config_echo": model.config_echo}
    return save_checkpoint(path, "isolated", model.params.tensors(), meta)


def load_isolated(path: str | Path) -> IsolatedModel:
    """Raises CheckpointError on a file of another kind or format version,
    or whose tensors do not match its sub-network and `rep_dim`."""
    from .isolated import LinearSubnetParams, LstmParams

    _, tensors, meta = load_checkpoint(path, expect_kind="isolated")
    kind, rep = meta.get("subnetwork"), meta.get("rep_dim")
    if kind not in ("linear", "lstm") or not isinstance(rep, int):
        raise CheckpointError(f"{path}: bad metadata subnetwork={kind!r} rep_dim={rep!r}")
    # The input width is the stored one: the first dim of the input weights.
    lead = tensors.get("w" if kind == "linear" else "w_x")
    d_in = lead.shape[0] if lead is not None and lead.ndim == 2 else 0
    if kind == "linear":
        params = LinearSubnetParams(
            w=checked_tensor(tensors, "w", (d_in, rep)), b=checked_tensor(tensors, "b", (rep,))
        )
    else:
        params = LstmParams(
            w_x=checked_tensor(tensors, "w_x", (d_in, 4 * rep)),
            w_h=checked_tensor(tensors, "w_h", (rep, 4 * rep)),
            b=checked_tensor(tensors, "b", (4 * rep,)),
        )
    reject_unknown_tensors(tensors, params.tensors())
    return IsolatedModel(
        kind=kind,
        params=params,
        rep_dim=rep,
        config_echo=meta.get("config_echo", {}),
    )


def run_experiment(
    train_corpus: Corpus,
    eval_corpus: Corpus,
    store: SentenceEmbeddingStore,
    config: TrainConfig,
    n_runs: int = 1,
    neutral_policy: str = "attribute",
) -> list[MetricsReport]:
    """Repeat the full pretrain -> train -> evaluate pipeline with seeds
    seed, seed+1, ..., returning one report per run in order."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    reports = []
    for i in range(n_runs):
        run_cfg = replace(config, seed=config.seed + i)
        model = train_contextual(train_corpus, store, run_cfg)
        report = evaluate_model(model, eval_corpus, store, neutral_policy)
        report = replace(report, extras={**report.extras, "seed": run_cfg.seed})
        reports.append(report)
    return reports
