"""Triplet construction and the triplet loss over representation space.

Three mining strategies: weighted-random sampling (anchor class drawn
from inverse-frequency label weights), batch-all enumeration, and
batch-hard (farthest positive, nearest negative per anchor). The loss
is max(d(a,p) - d(a,n) + margin, 0) with euclidean or cosine distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import utt_key
from .errors import DimMismatch, InsufficientDiversity, ZeroVector

DISTANCES = ("euclidean", "cosine")
_EUCLID_TINY = 1e-12
_ONE_TRIPLET = (np.array([0]), np.array([1]), np.array([2]))  # rows (a, p, n)


@dataclass(frozen=True, order=True)
class UttRef:
    """Reference to one utterance: dialog id plus position."""

    dialog_id: str
    index: int

    @property
    def key(self) -> str:
        return utt_key(self.dialog_id, self.index)


@dataclass(frozen=True)
class Triplet:
    anchor: UttRef
    positive: UttRef
    negative: UttRef


@dataclass(frozen=True)
class TripletLossConfig:
    margin: float = 1.0
    distance: str = "euclidean"  # one of DISTANCES

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}, got {self.distance!r}")


def distance(x: np.ndarray, y: np.ndarray, kind: str = "euclidean") -> float:
    """Symmetric distance: L2 norm of x-y, or 1 - cosine similarity;
    :func:`pairwise_distances` over the two rows.

    Raises:
        DimMismatch: unequal dimensions.
        ZeroVector: cosine distance on a zero-norm input.
    """
    return float(pairwise_distances(_stacked(x, y), kind)[0, 1])


def triplet_loss(
    ea: np.ndarray, ep: np.ndarray, en: np.ndarray, cfg: TripletLossConfig
) -> float:
    """max(d(a,p) - d(a,n) + margin, 0)."""
    return triplet_loss_grads(ea, ep, en, cfg)[0]


def triplet_loss_grads(
    ea: np.ndarray, ep: np.ndarray, en: np.ndarray, cfg: TripletLossConfig
):
    """Loss and its gradients w.r.t. the three representations:
    :func:`batch_triplet_loss_grads` on the single triplet (0, 1, 2).

    Inactive triplets (loss 0) contribute zero gradient.
    """
    x = _stacked(ea, ep, en)
    loss, _, dx = batch_triplet_loss_grads(x, pairwise_distances(x, cfg.distance), _ONE_TRIPLET, cfg)
    return loss, dx[0], dx[1], dx[2]


def _stacked(*vectors) -> np.ndarray:
    """The vectors as the rows of one matrix; raises DimMismatch on
    unequal shapes."""
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise DimMismatch(f"distance over vectors of shapes {sorted(shapes)}")
    return np.stack(arrays).reshape(len(arrays), -1)


# --- index-level mining -------------------------------------------------
#
# The miners below work on row positions: `labels[i]` is the label of row
# i, and a mined set of triplets is three integer arrays (a, p, n) of row
# positions. The list-returning functions further down are adapters that
# map positions back to `UttRef`s.


def pairwise_distances(x: np.ndarray, kind: str = "euclidean") -> np.ndarray:
    """(n, n) matrix of `distance(x[i], x[j])` over the rows of `x`.

    Built one row at a time from the row differences (euclidean) or row
    products (cosine), never from a Gram expansion, so coincident rows are
    exactly 0 apart and equal rows give bitwise-equal distances: a
    distance tie stays a tie.

    Raises:
        ZeroVector: cosine distance with a zero-norm row.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((len(x), len(x)))
    if kind == "euclidean":
        for i, row in enumerate(x):
            diff = x - row
            out[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return out
    if kind != "cosine":
        raise ValueError(f"unknown distance kind {kind!r}")
    norms = _row_norms(x)
    for i, row in enumerate(x):
        out[i] = 1.0 - np.einsum("ij,j->i", x, row) / (norms * norms[i])
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if (norms == 0.0).any():
        raise ZeroVector("cosine distance undefined for zero-norm vector")
    return norms


def _label_masks(labels) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) masks: same label and not the row itself,
    and different label."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return same & ~np.eye(len(labels), dtype=bool), ~same


def sample_triplet_indices(
    labels, count: int, weights: dict[int, float], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row positions of `count` weighted-random triplets; see
    :func:`sample_triplets` for the sampling rule and the errors raised."""
    # Rows sorted stably by label: group g, the g-th label in sorted order,
    # holds the sorted positions lo[g]:lo[g] + size[g]. Anchors are drawn
    # over the eligible groups' positions, a positive over the anchor's
    # group less the anchor, and a negative over everything outside it.
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    group_labels, lo, size = np.unique(labels[order], return_index=True, return_counts=True)
    if len(group_labels) < 2:
        raise InsufficientDiversity(f"pool has {len(group_labels)} distinct label(s); need >= 2")
    group_w = np.array([float(weights.get(lab, 0.0)) for lab in group_labels.tolist()])
    eligible = (size >= 2) & (group_w > 0.0)
    if not eligible.any():
        raise InsufficientDiversity("no label with >= 2 members and positive weight")
    group = np.repeat(np.arange(len(size)), size)  # of each sorted position
    candidates = np.flatnonzero(eligible[group])
    probs = group_w[group[candidates]]
    probs /= probs.sum()
    anchors = candidates[rng.choice(len(candidates), size=count, p=probs)]
    g = group[anchors]
    positives = lo[g] + rng.integers(0, size[g] - 1, size=count)
    positives += positives >= anchors  # step past the anchor
    negatives = rng.integers(0, len(labels) - size[g], size=count)
    negatives += size[g] * (negatives >= lo[g])  # step past the anchor's group
    return order[anchors], order[positives], order[negatives]


def batch_all_indices(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row positions of every valid (a, p, n), lexicographic by position.

    One (n, n) positive-by-negative mask per anchor, never an (n, n, n) one.
    """
    pos, neg = _label_masks(labels)
    pairs = [np.nonzero(pos[a][:, None] & neg[a]) for a in range(len(pos))]
    empty = np.zeros(0, dtype=np.intp)
    return (
        np.repeat(np.arange(len(pos)), [len(p) for p, _ in pairs]),
        np.concatenate([empty] + [p for p, _ in pairs]),
        np.concatenate([empty] + [n for _, n in pairs]),
    )


def batch_hard_indices(dist: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per eligible anchor, the farthest positive and the nearest negative
    under `dist`; ties go to the lowest row position. Anchors without
    both a positive and a negative are skipped.
    """
    pos, neg = _label_masks(labels)
    anchors = np.nonzero(pos.any(axis=1) & neg.any(axis=1))[0]
    hardest_p = np.argmax(np.where(pos, dist, -np.inf)[anchors], axis=1)
    nearest_n = np.argmin(np.where(neg, dist, np.inf)[anchors], axis=1)
    return anchors, hardest_p, nearest_n


def batch_triplet_loss_grads(
    x: np.ndarray,
    dist: np.ndarray,
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TripletLossConfig,
) -> tuple[float, int, np.ndarray]:
    """Mean triplet loss over T > 0 index triplets of the rows `x`, with
    its gradient with respect to every row.

    `dist` is `pairwise_distances(x, cfg.distance)`. Each active triplet
    adds +1 to a pair coefficient w[a, p] and -1 to w[a, n]; the gradient
    is that of sum(w * dist) / T, a few (n, n) @ (n, d) products, so no
    per-triplet vector is ever built. Returns (loss, active count, dx).
    """
    a, p, n = triplets
    hinge = dist[a, p] - dist[a, n] + cfg.margin
    act = hinge > 0.0
    scale = 1.0 / len(a)
    rows = len(x)
    w = np.bincount(a[act] * rows + p[act], minlength=rows * rows) - np.bincount(
        a[act] * rows + n[act], minlength=rows * rows
    )
    w = w.reshape(rows, rows) * scale
    return float(hinge[act].sum()) * scale, int(act.sum()), _distance_backward(x, dist, w, cfg.distance)


def _distance_backward(x: np.ndarray, dist: np.ndarray, w: np.ndarray, kind: str) -> np.ndarray:
    """Gradient of sum_ij w[i, j] * dist[i, j] with respect to the rows x."""
    if kind == "euclidean":
        # d dist[i,j] / d x_i = (x_i - x_j) / dist[i,j]; zero at coincident rows
        m = np.divide(w, dist, out=np.zeros_like(w), where=dist >= _EUCLID_TINY)
        s = m + m.T
        return s.sum(axis=1)[:, None] * x - s @ x
    # d dist[i,j] / d x_i = (cos_ij * u_i - u_j) / |x_i|, with u the unit rows
    norms = _row_norms(x)
    u = x / norms[:, None]
    s = w + w.T
    return ((s * (1.0 - dist)).sum(axis=1)[:, None] * u - s @ u) / norms[:, None]


# --- list-returning adapters ------------------------------------------------


def _as_triplets(refs: list[UttRef], triplets) -> list[Triplet]:
    return [Triplet(refs[a], refs[p], refs[n]) for a, p, n in zip(*(t.tolist() for t in triplets))]


def sample_triplets(
    pool: list[tuple[UttRef, int]],
    count: int,
    weights: dict[int, float],
    rng: np.random.Generator,
) -> list[Triplet]:
    """Draw `count` valid triplets with a weighted-random anchor sampler.

    Each candidate anchor is drawn with probability proportional to
    `weights[its label]` (the weighted-random-sampler semantics: with
    inverse-frequency weights the anchor classes come out uniform in
    expectation). Anchors are restricted to labels that admit a positive
    (>= 2 members, positive weight). Positive is uniform over same-label
    refs excluding the anchor; negative is uniform over all other-label
    refs. Deterministic given the generator state.

    Raises:
        InsufficientDiversity: fewer than 2 labels in the pool, or no
            label has 2 members and positive weight.
    """
    labels = [lab for _, lab in pool]
    return _as_triplets([ref for ref, _ in pool], sample_triplet_indices(labels, count, weights, rng))


def batch_all_triplets(batch: list[tuple[UttRef, int]]) -> list[Triplet]:
    """Every valid (a, p, n) combination within the batch.

    Output is lexicographic by (anchor, positive, negative) ref order;
    batches without two same-label refs and a different label yield an
    empty list.
    """
    ordered = sorted(batch, key=lambda item: item[0])
    return _as_triplets([ref for ref, _ in ordered], batch_all_indices([lab for _, lab in ordered]))


def batch_hard_triplets(
    batch: list[tuple[UttRef, int, np.ndarray]], cfg: TripletLossConfig
) -> list[Triplet]:
    """One triplet per eligible anchor: farthest positive, nearest negative.

    Distance ties break toward the lowest ref order. Anchors whose label
    has no second member are skipped.

    Raises:
        InsufficientDiversity: fewer than 2 distinct labels in the batch.
        DimMismatch: vectors of unequal dimensions.
    """
    ordered = sorted(batch, key=lambda item: item[0])
    labels = [lab for _, lab, _ in ordered]
    if len(set(labels)) < 2:
        raise InsufficientDiversity(f"batch has {len(set(labels))} distinct label(s); need >= 2")
    dist = pairwise_distances(_stacked(*(vec for _, _, vec in ordered)), cfg.distance)
    return _as_triplets([ref for ref, _, _ in ordered], batch_hard_indices(dist, labels))
