"""Per-triplet references for the batched triplet loss in `ercml.triplets`.

`distance` and `triplet_loss_grads` are the loss as it was before it ran
on `pairwise_distances` + `batch_triplet_loss_grads`: one distance and
one gradient pair per (anchor, positive, negative), written straight
from the formulas. The oracle tests compare the program against them;
the program never calls them.
"""

from __future__ import annotations

import numpy as np

from ercml.errors import DimMismatch, ZeroVector

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

