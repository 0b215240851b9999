"""Per-triplet references for the batched triplet loss in `ercml.triplets`.

`distance`, `triplet_loss_grads` and `reference_train_isolated` are the
loss and the isolated-baseline trainer as they were before both ran on
`pairwise_distances` + `batch_triplet_loss_grads`: one distance and one
gradient pair per (anchor, positive, negative), written straight from
the formulas. The oracle tests compare the program against them; the
program never calls them.
"""

from __future__ import annotations

import numpy as np

from ercml.corpus import label_weights
from ercml.errors import DimMismatch, ZeroVector
from ercml.isolated import IsolatedModel, init_linear_subnet, init_lstm
from ercml.optim import Adam, add_grads
from ercml.triplets import UttRef, corpus_pool, sample_triplets

EUCLID_TINY = 1e-12


def distance(x: np.ndarray, y: np.ndarray, kind: str = "euclidean") -> float:
    """L2 norm of x-y, or 1 - cosine similarity, of two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimMismatch(f"distance on shapes {x.shape} vs {y.shape}")
    if kind == "euclidean":
        return float(np.linalg.norm(x - y))
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("cosine distance undefined for zero-norm vector")
    return float(1.0 - (x @ y) / (nx * ny))


def distance_grads(x: np.ndarray, y: np.ndarray, kind: str):
    """Gradients of distance(x, y) with respect to x and y."""
    if kind == "euclidean":
        diff = x - y
        norm = np.linalg.norm(diff)
        if norm < EUCLID_TINY:  # subgradient at the coincident point
            return np.zeros_like(x), np.zeros_like(y)
        g = diff / norm
        return g, -g
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    dot = x @ y
    dx = dot * x / (nx**3 * ny) - y / (nx * ny)
    dy = dot * y / (ny**3 * nx) - x / (nx * ny)
    return dx, dy


def triplet_loss_grads(ea, ep, en, cfg):
    """max(d(a,p) - d(a,n) + margin, 0) and its gradients w.r.t. a, p, n."""
    ea, ep, en = (np.asarray(v, dtype=float) for v in (ea, ep, en))
    loss = max(distance(ea, ep, cfg.distance) - distance(ea, en, cfg.distance) + cfg.margin, 0.0)
    if loss <= 0.0:
        return 0.0, np.zeros_like(ea), np.zeros_like(ep), np.zeros_like(en)
    dap_da, dap_dp = distance_grads(ea, ep, cfg.distance)
    dan_da, dan_dn = distance_grads(ea, en, cfg.distance)
    return loss, dap_da - dan_da, dap_dp, -dan_dn


def reference_train_isolated(corpus, table, config, *, subnetwork, rep_dim, log_hook=None) -> IsolatedModel:
    """The isolated trainer with list-built triplets over `UttRef`s and
    one :func:`triplet_loss_grads` call per triplet."""
    label_space = config.label_space()
    rng = np.random.default_rng(config.seed)
    pool = corpus_pool(corpus, labels=label_space)
    if config.weighted_sampler:
        class_w = label_weights(corpus, labels=label_space, smooth_counts=config.smooth_counts)
    else:
        class_w = {lab: 1.0 for lab in label_space}
    utt_by_ref = {UttRef(d.id, u.index): u for d, u in corpus.iter_utterances()}
    init = init_linear_subnet if subnetwork == "linear" else init_lstm
    params = init(table.dim, rep_dim, seed=config.seed)
    model = IsolatedModel(kind=subnetwork, params=params)
    opt = Adam(params.tensors(), lr=config.learning_rate, clip_norm=config.grad_clip)
    tri_cfg = config.triplet_cfg()

    step = 0
    for epoch in range(config.epochs):
        triplets = sample_triplets(pool, count=len(pool), weights=class_w, rng=rng)
        for start in range(0, len(triplets), config.batch_size):
            if config.max_steps is not None and step >= config.max_steps:
                return model
            batch = triplets[start:start + config.batch_size]
            refs = sorted({r for t in batch for r in (t.anchor, t.positive, t.negative)})
            reps, caches, d_reps = {}, {}, {}
            for ref in refs:
                reps[ref], caches[ref] = model.represent_with_cache(utt_by_ref[ref], table)
                d_reps[ref] = np.zeros_like(reps[ref])
            total, active = 0.0, 0
            scale = 1.0 / len(batch)
            for t in batch:
                loss, da, dp, dn = triplet_loss_grads(reps[t.anchor], reps[t.positive], reps[t.negative], tri_cfg)
                total += loss
                active += loss > 0.0
                d_reps[t.anchor] += scale * da
                d_reps[t.positive] += scale * dp
                d_reps[t.negative] += scale * dn
            grads = {name: np.zeros_like(arr) for name, arr in model.params.tensors().items()}
            for ref in refs:
                add_grads(grads, model.backward(d_reps[ref], caches[ref]))
            opt.step(grads)
            step += 1
            if log_hook is not None:
                log_hook({"step": step, "epoch": epoch, "triplet": total * scale, "active": active})
    return model
