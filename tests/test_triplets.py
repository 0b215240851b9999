from __future__ import annotations

import numpy as np
import pytest

from ercml import training
from ercml.corpus import Dialog, Utterance
from ercml.errors import DimMismatch, InsufficientDiversity, ZeroVector
from ercml.gradcheck import fd_gradient, fd_gradients, group_relative_error
from ercml.training import TrainConfig, triplet_pass
from ercml.triplets import (
    Triplet,
    TripletLossConfig,
    UttRef,
    batch_all_triplets,
    batch_hard_triplets,
    distance,
    pairwise_distances,
    sample_triplets,
    triplet_loss,
    triplet_loss_grads,
)
import reference_triplets as ref_loss


def refs(labels: list[int]) -> list[tuple[UttRef, int]]:
    return [(UttRef("d", i), lab) for i, lab in enumerate(labels)]


class TestDistance:
    def test_euclidean_pythagorean(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_cosine_self_is_zero(self):
        x = np.array([0.3, -1.2, 4.0])
        assert distance(x, x, "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), "cosine") == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for kind in ("euclidean", "cosine"):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert distance(x, y, kind) == pytest.approx(distance(y, x, kind))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            distance(np.zeros(3), np.zeros(4))

    def test_cosine_zero_vector(self):
        with pytest.raises(ZeroVector):
            distance(np.zeros(3), np.ones(3), "cosine")


class TestTripletLoss:
    # 1-D points make the pairwise distances exact
    def test_satisfied_triplet_is_zero(self):
        # d(a,p)=0.2, d(a,n)=1.0, margin 0.5 -> max(0.2-1.0+0.5, 0) = 0
        cfg = TripletLossConfig(margin=0.5)
        a, p, n = np.array([0.0]), np.array([0.2]), np.array([1.0])
        assert triplet_loss(a, p, n, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_give_margin(self):
        cfg = TripletLossConfig(margin=0.5)
        a = np.array([1.0, 2.0])
        assert triplet_loss(a, a.copy(), a.copy(), cfg) == pytest.approx(0.5, abs=1e-12)

    def test_violating_triplet(self):
        # d(a,p)=1.0, d(a,n)=0.2, margin 0.5 -> 1.3
        cfg = TripletLossConfig(margin=0.5)
        a, p, n = np.array([0.0]), np.array([1.0]), np.array([0.2])
        assert triplet_loss(a, p, n, cfg) == pytest.approx(1.3, abs=1e-12)

    def test_nonnegative_always(self):
        rng = np.random.default_rng(1)
        for kind in ("euclidean", "cosine"):
            cfg = TripletLossConfig(margin=0.7, distance=kind)
            for _ in range(200):
                a, p, n = (rng.standard_normal(4) + 0.1 for _ in range(3))
                assert triplet_loss(a, p, n, cfg) >= 0.0

    def test_zero_when_negative_beyond_margin(self):
        cfg = TripletLossConfig(margin=1.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.standard_normal(3)
            p = a + 0.01 * rng.standard_normal(3)
            n = a + 10.0 * rng.standard_normal(3) + 20.0
            if distance(a, n) >= distance(a, p) + cfg.margin:
                assert triplet_loss(a, p, n, cfg) == 0.0

    def test_monotone_in_negative_distance(self):
        # pushing the negative strictly farther never increases the loss
        cfg = TripletLossConfig(margin=1.0)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4)
        p = rng.standard_normal(4)
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        losses = []
        for step in np.linspace(0.1, 5.0, 25):
            losses.append(triplet_loss(a, p, a + step * direction, cfg))
        assert all(l1 >= l2 - 1e-12 for l1, l2 in zip(losses, losses[1:]))

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            TripletLossConfig(margin=0.0)


class TestTripletLossGradients:
    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        cfg = TripletLossConfig(margin=1.0, distance=kind)
        checked = 0
        while checked < 50:
            a = rng.standard_normal(6)
            p = rng.standard_normal(6)
            n = rng.standard_normal(6)
            slack = distance(a, p, kind) - distance(a, n, kind) + cfg.margin
            if abs(slack) < 1e-3:
                continue  # finite differences are invalid across the hinge kink
            arrays = {"a": a, "p": p, "n": n}

            def loss():
                return triplet_loss(arrays["a"], arrays["p"], arrays["n"], cfg)

            _, da, dp, dn = triplet_loss_grads(a, p, n, cfg)
            numeric = fd_gradients(loss, arrays, eps=1e-4)
            assert group_relative_error(da, numeric["a"]) < 1e-4
            assert group_relative_error(dp, numeric["p"]) < 1e-4
            assert group_relative_error(dn, numeric["n"]) < 1e-4
            checked += 1

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_matches_per_triplet_reference(self, kind):
        # the batched routine on one triplet against the per-triplet formulas
        rng = np.random.default_rng(19)
        cfg = TripletLossConfig(margin=1.0, distance=kind)
        active = 0
        for _ in range(200):
            a, p, n = rng.standard_normal((3, 5))
            if rng.random() < 0.2:
                p = a.copy()  # the coincident-point subgradient
            loss, *grads = triplet_loss_grads(a, p, n, cfg)
            ref, *ref_grads = ref_loss.triplet_loss_grads(a, p, n, cfg)
            assert loss == pytest.approx(ref, rel=1e-12, abs=1e-15)
            for g, r in zip(grads, ref_grads):
                np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)
            active += ref > 0.0
        assert 0 < active < 200

    def test_inactive_triplet_zero_gradient(self):
        cfg = TripletLossConfig(margin=0.5)
        a, p, n = np.zeros(3), np.zeros(3), np.full(3, 10.0)
        loss, da, dp, dn = triplet_loss_grads(a, p, n, cfg)
        assert loss == 0.0
        assert not da.any() and not dp.any() and not dn.any()


class TestSampleTriplets:
    def test_two_a_one_b_pool(self):
        pool = refs([1, 1, 2])
        rng = np.random.default_rng(0)
        out = sample_triplets(pool, 20, {1: 0.5, 2: 0.5}, rng)
        assert len(out) == 20
        b_ref = pool[2][0]
        for t in out:
            assert t.negative == b_ref
            assert {t.anchor, t.positive} == {pool[0][0], pool[1][0]}

    def test_single_label_raises(self):
        with pytest.raises(InsufficientDiversity):
            sample_triplets(refs([1, 1, 1]), 5, {1: 1.0}, np.random.default_rng(0))

    def test_no_pairable_label_raises(self):
        with pytest.raises(InsufficientDiversity):
            sample_triplets(refs([1, 2, 3]), 5, {1: 0.4, 2: 0.3, 3: 0.3}, np.random.default_rng(0))

    def test_seed_determinism(self):
        pool = refs([1, 1, 2, 2, 3, 3, 3])
        w = {1: 0.5, 2: 0.3, 3: 0.2}
        out1 = sample_triplets(pool, 50, w, np.random.default_rng(42))
        out2 = sample_triplets(pool, 50, w, np.random.default_rng(42))
        assert out1 == out2

    def test_label_constraints_hold(self):
        pool = refs([1, 1, 2, 2, 4, 4, 4, 5])
        labels = dict(pool)
        out = sample_triplets(pool, 300, {1: 0.25, 2: 0.25, 4: 0.25, 5: 0.25},
                              np.random.default_rng(3))
        for t in out:
            assert labels[t.anchor] == labels[t.positive]
            assert labels[t.anchor] != labels[t.negative]
            assert t.anchor != t.positive

    def test_inverse_frequency_balances_anchor_classes(self):
        # 70/20/10 counts with inverse-frequency weights: anchor classes
        # should come out uniform (multinomial concentration oracle)
        pool = refs([1] * 70 + [2] * 20 + [3] * 10)
        counts = {1: 70, 2: 20, 3: 10}
        inv = {lab: 1.0 / c for lab, c in counts.items()}
        z = sum(inv.values())
        weights = {lab: v / z for lab, v in inv.items()}
        labels = dict(pool)
        out = sample_triplets(pool, 100_000, weights, np.random.default_rng(7))
        tally = {1: 0, 2: 0, 3: 0}
        for t in out:
            tally[labels[t.anchor]] += 1
        for lab in (1, 2, 3):
            assert tally[lab] / 100_000 == pytest.approx(1 / 3, abs=0.01)


def brute_force_all(batch):
    """Independent triple-nested enumeration oracle."""
    out = set()
    for a_ref, a_lab in batch:
        for p_ref, p_lab in batch:
            for n_ref, n_lab in batch:
                if a_lab == p_lab and a_ref != p_ref and n_lab != a_lab:
                    out.add((a_ref, p_ref, n_ref))
    return out


class TestBatchAll:
    def test_two_a_one_b(self):
        out = batch_all_triplets(refs([1, 1, 2]))
        a1, a2, b = UttRef("d", 0), UttRef("d", 1), UttRef("d", 2)
        assert out == [Triplet(a1, a2, b), Triplet(a2, a1, b)]

    def test_all_same_label_empty(self):
        assert batch_all_triplets(refs([4, 4, 4])) == []

    def test_two_by_two(self):
        # 2 ordered same-label pairs per class, 2 negatives each: the
        # brute-force enumeration counts 4 per anchor class, 8 in total
        batch = refs([1, 1, 2, 2])
        out = batch_all_triplets(batch)
        assert len(out) == 8
        assert {(t.anchor, t.positive, t.negative) for t in out} == brute_force_all(batch)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            size = int(rng.integers(0, 9))
            batch = refs([int(rng.integers(0, 4)) for _ in range(size)])
            out = batch_all_triplets(batch)
            assert len(out) <= size * max(size - 1, 0) * size
            assert {(t.anchor, t.positive, t.negative) for t in out} == brute_force_all(batch)
            # emitted triplets respect the label constraints
            labels = dict(batch)
            for t in out:
                assert labels[t.anchor] == labels[t.positive]
                assert labels[t.anchor] != labels[t.negative]

    def test_deterministic_lexicographic_order(self):
        batch = list(reversed(refs([1, 1, 2, 2])))
        out1 = batch_all_triplets(batch)
        out2 = batch_all_triplets(sorted(batch, key=lambda x: x[0]))
        assert out1 == out2


def brute_force_hard(points, kind="euclidean"):
    """Exhaustive hardest-positive / nearest-negative search."""
    out = []
    for a_ref, a_lab, a_vec in sorted(points, key=lambda x: x[0]):
        best_p, best_pd = None, -1.0
        best_n, best_nd = None, float("inf")
        for o_ref, o_lab, o_vec in sorted(points, key=lambda x: x[0]):
            if o_ref == a_ref:
                continue
            d = ref_loss.distance(a_vec, o_vec, kind)
            if o_lab == a_lab and d > best_pd:
                best_p, best_pd = o_ref, d
            if o_lab != a_lab and d < best_nd:
                best_n, best_nd = o_ref, d
        if best_p is not None and best_n is not None:
            out.append((a_ref, best_p, best_n))
    return out


class TestBatchHard:
    def points(self, coords_labels):
        return [
            (UttRef("d", i), lab, np.asarray(vec, dtype=float))
            for i, (vec, lab) in enumerate(coords_labels)
        ]

    def test_farthest_positive_chosen(self):
        pts = self.points([
            (([0.0, 0.0]), 1),
            (([0.1, 0.0]), 1),   # near positive
            (([0.9, 0.0]), 1),   # far positive: chosen
            (([0.0, 5.0]), 2),
        ])
        out = batch_hard_triplets(pts, TripletLossConfig())
        anchor0 = [t for t in out if t.anchor == UttRef("d", 0)][0]
        assert anchor0.positive == UttRef("d", 2)

    def test_nearest_negative_chosen(self):
        pts = self.points([
            (([0.0, 0.0]), 1),
            (([1.0, 0.0]), 1),
            (([0.0, 0.3]), 2),   # near negative: chosen
            (([0.0, 0.2]), 3),   # nearer negative, other label: chosen over the 0.3 one
        ])
        out = batch_hard_triplets(pts, TripletLossConfig())
        anchor0 = [t for t in out if t.anchor == UttRef("d", 0)][0]
        assert anchor0.negative == UttRef("d", 3)

    def test_single_label_raises(self):
        pts = self.points([(([0.0]), 1), (([1.0]), 1)])
        with pytest.raises(InsufficientDiversity):
            batch_hard_triplets(pts, TripletLossConfig())

    def test_five_point_fixture_pinned(self):
        pts = self.points([
            (([0.0, 0.0]), 1),
            (([2.0, 0.0]), 1),
            (([0.5, 0.5]), 2),
            (([3.0, 3.0]), 2),
            (([1.0, -1.0]), 3),
        ])
        out = [(t.anchor, t.positive, t.negative) for t in batch_hard_triplets(pts, TripletLossConfig())]
        assert out == brute_force_hard(pts)

    def test_matches_brute_force_on_random_point_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            size = int(rng.integers(2, 11))
            labels = [int(rng.integers(0, 3)) for _ in range(size)]
            if len(set(labels)) < 2:
                labels[0] = (labels[1] + 1) % 3
            pts = self.points([
                (rng.standard_normal(2).tolist(), lab) for lab in labels
            ])
            out = [(t.anchor, t.positive, t.negative) for t in batch_hard_triplets(pts, TripletLossConfig())]
            assert out == brute_force_hard(pts)

    def test_ties_break_toward_lowest_ref(self):
        # Dialog ids sort opposite to batch order, and both the positives
        # and the negatives of anchor m#0 are exact duplicates.
        same, other = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        batch = [
            (UttRef("z", 0), 1, same), (UttRef("z", 1), 2, other),
            (UttRef("m", 0), 1, np.zeros(2)),
            (UttRef("a", 0), 1, same.copy()), (UttRef("a", 1), 2, other.copy()),
        ]
        for kind in ("euclidean", "cosine"):
            if kind == "cosine":
                batch[2] = (UttRef("m", 0), 1, np.array([1.0, 1.0]))
            out = batch_hard_triplets(batch, TripletLossConfig(distance=kind))
            anchor = [t for t in out if t.anchor == UttRef("m", 0)][0]
            assert anchor.positive == UttRef("a", 0)
            assert anchor.negative == UttRef("a", 1)
            assert [(t.anchor, t.positive, t.negative) for t in out] == brute_force_hard(batch, kind)


def test_sample_triplets_draws_pinned():
    # Pins the generator's consumption: these draws are the ones the
    # list-building sampler made before it became an index-level one.
    labels = [3, 1, 3, 0, 1, 1, 5, 3, 0, 0, 2, 1]
    pool = [(UttRef(f"d{i % 3}", i), lab) for i, lab in enumerate(labels)]
    rng = np.random.default_rng(5)
    out = sample_triplets(pool, 12, {0: 0.1, 1: 0.3, 2: 0.2, 3: 0.25, 5: 0.15}, rng)
    assert [(t.anchor.index, t.positive.index, t.negative.index) for t in out] == [
        (2, 0, 5), (2, 0, 11), (5, 1, 2), (4, 11, 3), (8, 3, 6), (4, 11, 0),
        (5, 11, 6), (8, 9, 5), (8, 3, 11), (7, 0, 10), (11, 4, 8), (1, 5, 3),
    ]
    assert rng.random() == 0.679181533021365


class TestPairwiseDistances:
    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_matches_distance(self, kind):
        x = np.random.default_rng(4).standard_normal((9, 5))
        dist = pairwise_distances(x, kind)
        for i in range(9):
            for j in range(9):
                assert dist[i, j] == pytest.approx(ref_loss.distance(x[i], x[j], kind), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_duplicate_rows_tie_exactly(self, kind):
        x = np.random.default_rng(5).standard_normal((11, 7))
        x[8] = x[3]
        x[10] = x[3]
        dist = pairwise_distances(x, kind)
        assert (dist == dist.T).all()
        assert (dist[:, 8] == dist[:, 3]).all() and (dist[:, 10] == dist[:, 3]).all()
        if kind == "euclidean":
            assert dist[3, 8] == 0.0 and (np.diag(dist) == 0.0).all()

    def test_cosine_zero_row_raises(self):
        x = np.ones((3, 2))
        x[1] = 0.0
        with pytest.raises(ZeroVector):
            pairwise_distances(x, "cosine")


# --- the triplet pass against the per-triplet loop it replaced -------------

STRATEGIES = ("weighted-random", "batch-all", "batch-hard")
PASS_TOL = 1e-12


def packed_refs(dialogs):
    """(ref, label, packed row) of every utterance, in batch order."""
    out = []
    for dialog in dialogs:
        out.extend((UttRef(dialog.id, u.index), u.label, len(out)) for u in dialog.utterances)
    return out


def reference_triplet_pass(dialogs, contextual, config, class_w, rng):
    """The per-triplet triplet pass: list-built triplets, one
    `triplet_loss_grads` call each. Batch-all and batch-hard mine with
    the brute-force oracles. Returns (loss, active, d_ctx, mined)."""
    label_space = config.label_space()
    pool: list[tuple[UttRef, int]] = []
    where: dict[UttRef, int] = {}
    for ref, label, row in packed_refs(dialogs):
        if label in label_space:
            pool.append((ref, label))
            where[ref] = row
    tri_cfg = config.triplet_cfg()

    def vec(ref: UttRef) -> np.ndarray:
        return contextual[where[ref]]

    try:
        if config.sampling_strategy == "weighted-random":
            count = config.triplets_per_batch or len(pool)
            triplets = sample_triplets(pool, count, class_w, rng)
        elif config.sampling_strategy == "batch-all":
            triplets = [Triplet(*t) for t in sorted(brute_force_all(pool))]
        else:
            points = [(r, lab, vec(r)) for r, lab in pool]
            triplets = [Triplet(*t) for t in brute_force_hard(points, tri_cfg.distance)]
    except InsufficientDiversity:
        return None
    if not triplets:
        return None

    d_ctx = np.zeros_like(contextual)
    total = 0.0
    active = 0
    scale = 1.0 / len(triplets)
    for t in triplets:
        loss, da, dp, dn = ref_loss.triplet_loss_grads(vec(t.anchor), vec(t.positive), vec(t.negative), tri_cfg)
        total += loss
        active += loss > 0.0
        for ref, grad in ((t.anchor, da), (t.positive, dp), (t.negative, dn)):
            d_ctx[where[ref]] += scale * grad
    return total * scale, active, d_ctx, len(triplets)


def random_batch(rng, dim=6, coincident=False):
    """3-5 dialogs with DailyDialog-like label skew and their packed
    contextual rows; dialog ids are random, so batch order is not ref
    order."""
    dialogs, blocks = [], []
    for dialog_id in rng.choice(1000, size=int(rng.integers(3, 6)), replace=False):
        n = int(rng.integers(1, 9))
        labels = rng.choice(7, size=n, p=[0.6, 0.05, 0.05, 0.05, 0.15, 0.05, 0.05])
        utts = tuple(Utterance(index=i, text="u", label=int(lab)) for i, lab in enumerate(labels))
        dialogs.append(Dialog(id=f"d{dialog_id:03d}", utterances=utts))
        blocks.append(rng.standard_normal((n, dim)))
    contextual = np.vstack(blocks)
    if coincident:
        # copy rows onto rows of the same and of other dialogs
        for _ in range(len(contextual) // 3):
            source, target = rng.choice(len(contextual), size=2, replace=False)
            contextual[target] = contextual[source]
    return dialogs, contextual


def mined_count(monkeypatch):
    """Spy on the pass's loss routine; returns a list of mined counts."""
    seen = []
    original = training.batch_triplet_loss_grads

    def spy(x, dist, triplets, cfg):
        seen.append(len(triplets[0]))
        return original(x, dist, triplets, cfg)

    monkeypatch.setattr(training, "batch_triplet_loss_grads", spy)
    return seen


def assert_pass_matches(new, ref, seen):
    assert (new is None) == (ref is None)
    if ref is None:
        return
    loss, active, d_ctx = new
    ref_loss, ref_active, ref_ctx, ref_mined = ref
    assert seen[-1] == ref_mined
    assert active == ref_active
    assert loss == pytest.approx(ref_loss, rel=PASS_TOL, abs=1e-300)
    # Rows are compared against the scale of the whole gradient, since a
    # row where contributions cancel has no meaningful relative error.
    assert d_ctx.shape == ref_ctx.shape
    scale = np.linalg.norm(ref_ctx, axis=1).max()
    assert np.linalg.norm(d_ctx - ref_ctx, axis=1).max() <= PASS_TOL * scale


class TestTripletPassOracle:
    @pytest.mark.parametrize("coincident", [False, True])
    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_per_triplet_loop(self, strategy, kind, coincident, monkeypatch):
        seen = mined_count(monkeypatch)
        cfg = TrainConfig(sampling_strategy=strategy, distance=kind, margin=1.5)
        class_w = {lab: 1.0 / (lab + 1) for lab in range(7)}
        rng = np.random.default_rng([STRATEGIES.index(strategy), len(kind), coincident])
        compared = 0
        for seed in range(20):
            dialogs, contextual = random_batch(rng, coincident=coincident)
            new = triplet_pass(dialogs, contextual, cfg, class_w, np.random.default_rng(seed))
            ref = reference_triplet_pass(dialogs, contextual, cfg, class_w, np.random.default_rng(seed))
            assert_pass_matches(new, ref, seen)
            compared += ref is not None
        assert compared >= 15

    @pytest.mark.parametrize("loss_mode", ["alternating", "summed"])
    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_training_matches_reference_pass(self, strategy, kind, loss_mode, train_corpus, store16,
                                             monkeypatch):
        from ercml.encoder import stack_tensors

        cfg = TrainConfig(epochs=1, max_steps=3, pretrain_steps=3, seed=4, sampling_strategy=strategy,
                          distance=kind, loss_mode=loss_mode)
        def reference_pass(*args):
            out = reference_triplet_pass(*args)
            return None if out is None else out[:3]

        runs = []
        for pass_fn in (triplet_pass, reference_pass):
            monkeypatch.setattr(training, "triplet_pass", pass_fn)
            logs = []
            model = training.train_contextual(train_corpus, store16, cfg, log_hook=logs.append)
            runs.append((logs, stack_tensors(model.encoder)))
        (logs, tensors), (ref_logs, ref_tensors) = runs
        assert [r["active"] for r in logs] == [r["active"] for r in ref_logs]
        for rec, ref in zip(logs, ref_logs, strict=True):
            assert rec["triplet"] == pytest.approx(ref["triplet"], rel=1e-10)
        for name, arr in tensors.items():
            np.testing.assert_allclose(arr, ref_tensors[name], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_six_label_space_and_fixed_count(self, strategy, monkeypatch):
        seen = mined_count(monkeypatch)
        cfg = TrainConfig(sampling_strategy=strategy, label_space_size=6, triplets_per_batch=7)
        rng = np.random.default_rng(8)
        for seed in range(20):
            dialogs, contextual = random_batch(rng)
            new = triplet_pass(dialogs, contextual, cfg, {lab: 1.0 for lab in range(1, 7)},
                               np.random.default_rng(seed))
            ref = reference_triplet_pass(dialogs, contextual, cfg, {lab: 1.0 for lab in range(1, 7)},
                                         np.random.default_rng(seed))
            assert_pass_matches(new, ref, seen)

    def test_tie_batch_picks_lowest_ref(self, monkeypatch):
        # batch order z, m, a; ids sort a < m < z. Anchor m#0's positives
        # z#0/a#0 and negatives z#1/a#1 are duplicates: a#0 and a#1 win.
        same, other = [1.0, 0.0], [0.0, 1.0]
        dialogs = [
            Dialog("z", (Utterance(0, "u", 1), Utterance(1, "u", 2))),
            Dialog("m", (Utterance(0, "u", 1),)),
            Dialog("a", (Utterance(0, "u", 1), Utterance(1, "u", 2))),
        ]
        contextual = np.array([same, other, [0.0, 0.0], same, other])
        seen = mined_count(monkeypatch)
        cfg = TrainConfig(sampling_strategy="batch-hard")
        new = triplet_pass(dialogs, contextual, cfg, {}, np.random.default_rng(0))
        assert_pass_matches(new, reference_triplet_pass(dialogs, contextual, cfg, {}, None), seen)
        # z#1 (row 1) is nobody's nearest negative: its duplicate a#1
        # (row 4) is picked
        d_ctx = new[2]
        assert not d_ctx[1].any() and d_ctx[4].any()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cosine_zero_row_raises(self, strategy):
        dialogs, contextual = random_batch(np.random.default_rng(3))
        dialogs.append(Dialog("zz", (Utterance(0, "u", 1), Utterance(1, "u", 1), Utterance(2, "u", 2))))
        contextual = np.vstack([contextual, [[0.0] * 6, [1.0] * 6, [2.0] * 6]])
        cfg = TrainConfig(sampling_strategy=strategy, distance="cosine", triplets_per_batch=500)
        with pytest.raises(ZeroVector):
            triplet_pass(dialogs, contextual, cfg, {lab: 1.0 for lab in range(7)}, np.random.default_rng(0))
        with pytest.raises(ZeroVector):
            reference_triplet_pass(dialogs, contextual, cfg, {lab: 1.0 for lab in range(7)},
                                   np.random.default_rng(0))

    def test_single_label_batch_is_skipped(self):
        dialogs = [Dialog("a", (Utterance(0, "u", 3), Utterance(1, "u", 3)))]
        contextual = np.eye(2)
        for strategy in STRATEGIES:
            cfg = TrainConfig(sampling_strategy=strategy)
            assert triplet_pass(dialogs, contextual, cfg, {3: 1.0}, np.random.default_rng(0)) is None

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_finite_differences(self, strategy, kind):
        cfg = TrainConfig(sampling_strategy=strategy, distance=kind, margin=2.0, triplets_per_batch=12)
        class_w = {lab: 1.0 for lab in range(7)}
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 3:
            dialogs, contextual = random_batch(rng, dim=3)
            out = triplet_pass(dialogs, contextual, cfg, class_w, np.random.default_rng(checked))
            if out is None or not self._away_from_kinks(dialogs, contextual, cfg, class_w, checked):
                continue

            def loss():
                return triplet_pass(dialogs, contextual, cfg, class_w, np.random.default_rng(checked))[0]

            numeric = fd_gradient(loss, contextual, eps=1e-6)
            assert group_relative_error(out[2], numeric, floor=1e-8) < 1e-6
            checked += 1

    @staticmethod
    def _away_from_kinks(dialogs, contextual, cfg, class_w, seed):
        """Every mined hinge, and every batch-hard choice, is clear of a
        switch under a 1e-6 perturbation."""
        ref = reference_triplet_pass(dialogs, contextual, cfg, class_w, np.random.default_rng(seed))
        rows = list(contextual)
        gaps = [abs(a - b) for i, a in enumerate(rows) for b in rows[i + 1:]]
        if min(np.linalg.norm(g) for g in gaps) < 1e-3:
            return False  # coincident rows: a kink of the euclidean distance
        pool = [(ref, label, contextual[row]) for ref, label, row in packed_refs(dialogs)]
        by_ref = {r: v for r, _, v in pool}
        triplets = brute_force_hard(pool, cfg.distance) if cfg.sampling_strategy == "batch-hard" else (
            sorted(brute_force_all([(r, lab) for r, lab, _ in pool])))
        kind = cfg.distance
        for a, p, n in triplets:
            slack = (ref_loss.distance(by_ref[a], by_ref[p], kind)
                     - ref_loss.distance(by_ref[a], by_ref[n], kind) + cfg.margin)
            if abs(slack) < 1e-3:
                return False
        if cfg.sampling_strategy == "batch-hard":
            for r, lab, v in pool:
                ds = sorted(ref_loss.distance(v, o, kind) for o_r, _, o in pool if o_r != r)
                if any(b - a < 1e-3 for a, b in zip(ds, ds[1:])):
                    return False
        return ref is not None
