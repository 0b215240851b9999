"""References for `ercml.triplets`.

`distance` and `triplet_loss_grads` are the loss as it was before it ran
on `pairwise_distances` + `batch_triplet_loss_grads`: one distance and
one gradient pair per (anchor, positive, negative), written straight
from the formulas. `sample_triplet_indices` is the weighted-random
sampler as it was before it worked on one label-sorted order: one list
of rows per label group, and every group's other-label rows laid out
back to back. The oracle tests compare the program against them; the
program never calls them.
"""

from __future__ import annotations

import numpy as np

from ercml.errors import DimMismatch, InsufficientDiversity, ZeroVector

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



def sample_triplet_indices(labels, count: int, weights: dict[int, float], rng: np.random.Generator):
    """Row positions (a, p, n) of `count` weighted-random triplets, drawn
    with the same three generator calls as the program's sampler."""
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    if len(groups) < 2:
        raise InsufficientDiversity(f"pool has {len(groups)} distinct label(s); need >= 2")
    eligible = sorted(
        lab for lab, rows in groups.items() if len(rows) >= 2 and weights.get(lab, 0.0) > 0.0
    )
    if not eligible:
        raise InsufficientDiversity("no label with >= 2 members and positive weight")

    # Candidates are the eligible groups back to back: group g holds
    # candidates[start[g]:start[g] + same_sizes[g]].
    same_sizes = np.array([len(groups[lab]) for lab in eligible])
    start = np.concatenate(([0], np.cumsum(same_sizes)[:-1]))
    candidates = np.concatenate([groups[lab] for lab in eligible])
    cand_group = np.repeat(np.arange(len(eligible)), same_sizes)
    item_probs = np.repeat([float(weights[lab]) for lab in eligible], same_sizes)
    item_probs /= item_probs.sum()
    # Every other-label row per eligible group, labels in sorted order.
    others = [
        np.array([r for olab, rows in sorted(groups.items()) if olab != lab for r in rows])
        for lab in eligible
    ]
    other_sizes = np.array([len(o) for o in others])
    other_start = np.concatenate(([0], np.cumsum(other_sizes)[:-1]))
    other_rows = np.concatenate(others)

    draws = rng.choice(len(candidates), size=count, p=item_probs)
    group_of_draw = cand_group[draws]
    anchor_pos = draws - start[group_of_draw]
    # Uniform over same-label rows excluding the anchor itself.
    p_idx = rng.integers(0, same_sizes[group_of_draw] - 1, size=count)
    p_idx[p_idx >= anchor_pos] += 1
    n_idx = rng.integers(0, other_sizes[group_of_draw], size=count)
    return (
        candidates[draws],
        candidates[start[group_of_draw] + p_idx],
        other_rows[other_start[group_of_draw] + n_idx],
    )
