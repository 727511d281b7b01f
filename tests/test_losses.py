"""Loss tests: values against brute-force oracles, analytic gradients against
central finite differences, and the cuboid-symmetry behavior that motivates
the permutation and Wasserstein losses."""

import numpy as np
import pytest

from mvbox3d.geometry import (
    CORNER_OFFSETS,
    Box9DoF,
    box_corners,
    euler_to_rotation,
    reparameterize_box,
    signed_permutations,
)
from mvbox3d.losses import (
    LossWeights,
    center_loss,
    corner_chamfer_loss,
    focal_loss,
    get_box_loss,
    l1_box_loss,
    permutation_corner_loss,
    prepare_target,
    total_loss,
    wasserstein_loss,
)
from oracles import chamfer_tie_margin, pcd_tie_margin

PERMS = signed_permutations()


def random_pair(rng, jitter=0.4):
    gt = Box9DoF(
        rng.uniform(-2, 2, 3), rng.uniform(0.3, 1.5, 3), rng.uniform(-0.9, 0.9, 3)
    )
    pred = Box9DoF(
        gt.center + rng.normal(0, jitter, 3),
        gt.size * rng.uniform(0.7, 1.4, 3),
        gt.euler + rng.normal(0, 0.3, 3),
    )
    return pred, gt


def fd_box_gradient(fn, pred, gt, h=1e-5):
    p0 = pred.to_params()
    grad = np.zeros(9)
    for k in range(9):
        hi = p0.copy()
        hi[k] += h
        lo = p0.copy()
        lo[k] -= h
        grad[k] = (
            fn(Box9DoF.from_params(hi), gt).value - fn(Box9DoF.from_params(lo), gt).value
        ) / (2 * h)
    return grad


def oracle_corner_orderings(gt):
    """Brute-force: canonical corner sequences of all 48 formal symmetries."""
    rot = euler_to_rotation(gt.euler)
    orderings = []
    for perm in PERMS:
        size_p = np.abs(perm.T @ gt.size)
        orderings.append(gt.center + (CORNER_OFFSETS * size_p) @ (rot @ perm).T)
    return orderings


class TestL1BoxLoss:
    def test_identity(self):
        box = Box9DoF([1, 2, 3], [1, 2, 3], [0.1, 0.2, 0.3])
        res = l1_box_loss(box, box)
        assert res.value == 0.0
        assert np.all(res.grad == 0.0)

    def test_single_coordinate(self):
        gt = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        pred = Box9DoF([9, 0, 0], [1, 1, 1], [0, 0, 0])
        assert l1_box_loss(pred, gt).value == pytest.approx(1.0)

    def test_reparameterization_not_invariant(self):
        rng = np.random.default_rng(0)
        gt = Box9DoF([0.5, -0.2, 1.0], [0.4, 0.9, 1.3], [0.3, -0.4, 0.8])
        positive = 0
        for perm in PERMS[1:]:
            if l1_box_loss(reparameterize_box(gt, perm), gt).value > 0.05:
                positive += 1
        assert positive >= 1


class TestCornerChamferLoss:
    def test_identity_and_reparameterization(self):
        gt = Box9DoF([1, 0, -1], [0.5, 0.8, 1.1], [0.2, 0.4, -0.6])
        assert corner_chamfer_loss(gt, gt).value == pytest.approx(0.0, abs=1e-12)
        for perm in PERMS[::7]:
            other = reparameterize_box(gt, perm)
            assert corner_chamfer_loss(other, gt).value == pytest.approx(0.0, abs=1e-8)

    def test_translation_value(self):
        gt = Box9DoF([0, 0, 0], [0.6, 0.9, 1.2], [0.1, 0.2, 0.3])
        t = np.array([0.05, -0.03, 0.02])
        pred = Box9DoF(gt.center + t, gt.size, gt.euler)
        # brute-force oracle over the 8x8 distance table
        pc, gc = box_corners(pred), box_corners(gt)
        table = np.linalg.norm(pc[:, None] - gc[None, :], axis=2)
        expected = table.min(axis=1).mean() + table.min(axis=0).mean()
        res = corner_chamfer_loss(pred, gt)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.value == pytest.approx(2 * np.linalg.norm(t), abs=1e-12)

    def test_value_against_oracle_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred, gt = random_pair(rng)
            pc, gc = box_corners(pred), box_corners(gt)
            table = np.linalg.norm(pc[:, None] - gc[None, :], axis=2)
            expected = table.min(axis=1).mean() + table.min(axis=0).mean()
            assert corner_chamfer_loss(pred, gt).value == pytest.approx(expected, abs=1e-12)


class TestPermutationCornerLoss:
    def test_identity(self):
        gt = Box9DoF([0, 1, 2], [0.7, 1.0, 1.4], [0.3, 0.1, -0.2])
        assert permutation_corner_loss(gt, gt).value == pytest.approx(0.0, abs=1e-12)

    def test_yaw_quarter_turn_with_swap(self):
        gt = Box9DoF([1, 1, 1], [0.4, 0.9, 0.6], [0, 0, 0.3])
        pred = Box9DoF([1, 1, 1], [0.9, 0.4, 0.6], [0, 0, 0.3 + np.pi / 2])
        assert permutation_corner_loss(pred, gt).value == pytest.approx(0.0, abs=1e-9)

    def test_translation_value(self):
        gt = Box9DoF([0, 0, 0], [0.6, 0.9, 1.2], [0.2, -0.1, 0.5])
        t = np.array([0.03, 0.02, -0.04])
        pred = Box9DoF(gt.center + t, gt.size, gt.euler)
        assert permutation_corner_loss(pred, gt).value == pytest.approx(
            np.linalg.norm(t), abs=1e-12
        )

    def test_value_against_brute_force_orderings(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred, gt = random_pair(rng)
            pc = box_corners(pred)
            expected = min(
                np.linalg.norm(pc - ordering, axis=1).mean()
                for ordering in oracle_corner_orderings(gt)
            )
            assert permutation_corner_loss(pred, gt).value == pytest.approx(expected, abs=1e-10)

    def test_invariant_under_all_48(self):
        gt = Box9DoF([0.4, -0.8, 1.5], [0.5, 0.9, 1.3], [0.25, -0.35, 0.85])
        for perm in PERMS:
            assert permutation_corner_loss(reparameterize_box(gt, perm), gt).value < 1e-6


class TestWassersteinLoss:
    def test_identity_is_zero(self):
        gt = Box9DoF([1, -2, 0.5], [0.5, 0.8, 1.1], [0.1, 0.6, -0.9])
        assert wasserstein_loss(gt, gt).value == pytest.approx(0.0, abs=1e-9)

    def test_center_distance_only(self):
        gt = Box9DoF([0, 0, 0], [1, 2, 3], [0.2, 0.3, 0.4])
        pred = Box9DoF([4, 0, 0], [1, 2, 3], [0.2, 0.3, 0.4])
        # sqrt(||mu diff|| + 0) with ||mu diff|| = 4
        assert wasserstein_loss(pred, gt).value == pytest.approx(2.0, abs=1e-3)

    def test_invariant_under_all_48(self):
        gt = Box9DoF([0.7, 0.1, -0.4], [0.45, 0.85, 1.25], [0.15, -0.55, 1.05])
        for perm in PERMS:
            assert wasserstein_loss(reparameterize_box(gt, perm), gt).value < 1e-6

    def test_units_are_sqrt_scale(self):
        gt = Box9DoF([0, 0, 0], [1, 2, 3], [0, 0, 0])
        pred = Box9DoF([1, 0, 0], [1, 2, 3], [0, 0, 0])
        assert wasserstein_loss(pred, gt).value == pytest.approx(1.0, abs=1e-3)


class TestCenterLoss:
    def test_equal(self):
        res = center_loss([1, 2, 3], [1, 2, 3])
        assert res.value == 0.0
        assert np.all(res.grad == 0.0)

    def test_single_axis(self):
        res = center_loss([3, 0, 0], [0, 0, 0])
        assert res.value == pytest.approx(9.0)
        assert np.allclose(res.grad, [6, 0, 0])


class TestFocalLoss:
    def test_confident_correct_near_zero(self):
        assert focal_loss([20.0, -20.0], 0).value < 1e-6

    def test_hand_evaluated_half(self):
        value = focal_loss([0.0, 0.0], 0).value
        hand = -0.25 * 0.5**2 * np.log(0.5) - 0.75 * 0.5**2 * np.log(0.5)
        assert value == pytest.approx(hand, abs=1e-12)

    def test_background_target(self):
        res = focal_loss([0.0, 0.0], None)
        hand = 2 * (-0.75 * 0.5**2 * np.log(0.5))
        assert res.value == pytest.approx(hand, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(50):
            logits = rng.normal(0, 2, 5)
            target = int(rng.integers(0, 5)) if rng.random() < 0.8 else None
            analytic = focal_loss(logits, target).grad
            fd = np.zeros(5)
            for k in range(5):
                hi = logits.copy()
                hi[k] += h
                lo = logits.copy()
                lo[k] -= h
                fd[k] = (focal_loss(hi, target).value - focal_loss(lo, target).value) / (2 * h)
            assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-5

    def test_bad_target(self):
        with pytest.raises(ValueError):
            focal_loss([0.0, 0.0], 2)


class TestGradients:
    # a fixed table, since hash(kind) is salted per process
    SEEDS = {"l1": 101, "ccd": 102, "pcd": 103, "wd": 104}

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_box_loss_gradients_match_fd(self, kind):
        fn = get_box_loss(kind)
        rng = np.random.default_rng(self.SEEDS[kind])
        checked = 0
        while checked < 60:
            pred, gt = random_pair(rng)
            if kind == "l1" and np.min(np.abs(pred.to_params() - gt.to_params())) < 1e-3:
                continue
            # an active-pair switch inside the FD step is not a gradient error
            if kind == "ccd" and chamfer_tie_margin(pred, gt) < 1e-3:
                continue
            if kind == "pcd" and pcd_tie_margin(pred, gt) < 1e-3:
                continue
            analytic = fn(pred, gt).grad
            fd = fd_box_gradient(fn, pred, gt)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
            assert rel < 1e-4, f"{kind}: rel error {rel}"
            checked += 1

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_nonnegative_and_zero_at_identity(self, kind):
        fn = get_box_loss(kind)
        rng = np.random.default_rng(4)
        for _ in range(30):
            pred, gt = random_pair(rng)
            assert fn(pred, gt).value >= 0.0
            assert fn(gt, gt).value < 1e-9


class TestNearGimbal:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("offset", [1e-3, 1e-5, 1e-7, 0.0])
    def test_symmetric_losses_vanish(self, sign, offset):
        gt = Box9DoF([0.3, -0.2, 1.0], [0.5, 0.9, 1.3], [0.4, sign * (np.pi / 2 - offset), -1.2])
        for perm in PERMS:
            other = reparameterize_box(gt, perm)
            assert wasserstein_loss(other, gt).value < 1e-6
            assert permutation_corner_loss(other, gt).value < 1e-6

    def test_symmetric_losses_vanish_after_axis_swap(self):
        gt = Box9DoF([0.3, -0.2, 1.0], [0.5, 0.9, 1.3], [np.pi / 2 - 1e-7, 0.0, 0.5])
        for perm in PERMS:
            other = reparameterize_box(gt, perm)
            assert wasserstein_loss(other, gt).value < 1e-6
            assert permutation_corner_loss(other, gt).value < 1e-6


def batch_pairs(rng, n, kind):
    """n general-position (pred, gt) pairs, away from the L1 kinks."""
    pairs = []
    while len(pairs) < n:
        pred, gt = random_pair(rng)
        if kind == "l1" and np.min(np.abs(pred.to_params() - gt.to_params())) < 1e-3:
            continue
        pairs.append((pred, gt))
    pred = np.stack([p.to_params() for p, _ in pairs])
    gt = np.stack([g.to_params() for _, g in pairs])
    return pairs, pred, gt


class TestBatchedLosses:
    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_batch_matches_per_row(self, kind):
        fn = get_box_loss(kind)
        pairs, pred, gt = batch_pairs(np.random.default_rng(11), 16, kind)
        batch = fn(pred, gt)
        assert batch.value.shape == (16,)
        assert batch.grad.shape == (16, 9)
        for i, (p, g) in enumerate(pairs):
            single = fn(p, g)
            assert isinstance(single.value, float)
            assert batch.value[i] == pytest.approx(single.value, abs=1e-12)
            assert np.max(np.abs(batch.grad[i] - single.grad)) < 1e-12

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_batch_gradients_match_fd(self, kind):
        fn = get_box_loss(kind)
        _, pred, gt = batch_pairs(np.random.default_rng(12), 16, kind)
        analytic = fn(pred, gt).grad
        h = 1e-5
        fd = np.zeros_like(pred)
        for k in range(9):
            hi = pred.copy()
            hi[:, k] += h
            lo = pred.copy()
            lo[:, k] -= h
            fd[:, k] = (fn(hi, gt).value - fn(lo, gt).value) / (2 * h)
        rel = np.linalg.norm(analytic - fd, axis=1) / np.maximum(np.linalg.norm(fd, axis=1), 1e-8)
        assert np.all(rel < 1e-4), f"{kind}: worst rel error {rel.max()}"

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_broadcast_pred_set_against_gt_set(self, kind):
        fn = get_box_loss(kind)
        rng = np.random.default_rng(13)
        preds = [random_pair(rng)[0] for _ in range(4)]
        gts = [random_pair(rng)[1] for _ in range(3)]
        res = fn(np.stack([p.to_params() for p in preds])[:, None],
                 np.stack([g.to_params() for g in gts])[None])
        assert res.value.shape == (4, 3)
        assert res.grad.shape == (4, 3, 9)
        for i, p in enumerate(preds):
            for j, g in enumerate(gts):
                single = fn(p, g)
                assert res.value[i, j] == pytest.approx(single.value, abs=1e-12)
                assert np.max(np.abs(res.grad[i, j] - single.grad)) < 1e-12

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            wasserstein_loss(np.zeros(8), np.zeros(8))


class TestPreparedTarget:
    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_prepared_and_raw_targets_give_identical_bits(self, kind):
        fn = get_box_loss(kind)
        pairs, pred, gt = batch_pairs(np.random.default_rng(14), 6, kind)
        cases = [(pairs[0][0], pairs[0][1]), (pred[0], gt[0]), (pred, gt),
                 (pred[:, None], gt[None, :4])]
        for p, g in cases:
            raw, prepared = fn(p, g), fn(p, prepare_target(g))
            assert np.array_equal(raw.value, prepared.value)
            assert np.array_equal(raw.grad, prepared.grad)

    def test_prepared_terms_computed_once(self):
        gt = Box9DoF([0.2, -0.1, 1.0], [0.4, 0.7, 0.9], [0.1, -0.2, 0.8])
        target = prepare_target(gt)
        assert prepare_target(target) is target
        assert np.array_equal(target.params, gt.to_params())
        assert np.array_equal(target.corners, box_corners(gt))
        assert np.array_equal(target.corners_major, box_corners(gt).T)
        assert np.array_equal(target.rotation, euler_to_rotation(gt.euler))
        for name in ("rotation", "sigma", "corners", "corners_major"):
            assert getattr(target, name) is getattr(target, name)


class TestTotalLoss:
    def test_default_weights(self):
        w = LossWeights()
        assert (w.cls_weight, w.center_weight, w.box_weight) == (1.0, 0.8, 1.0)

    def test_zero_when_components_zero(self):
        gt = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        res = total_loss(gt, [30.0], gt, 0, LossWeights(), "wd")
        assert res.value < 1e-6
        assert np.max(np.abs(res.box_grad)) < 1e-6

    def test_box_weight_scaling(self):
        rng = np.random.default_rng(5)
        pred, gt = random_pair(rng)
        logits = np.array([0.3, -0.5])
        base = total_loss(pred, logits, gt, 1, LossWeights(0, 0, 1.0), "pcd")
        double = total_loss(pred, logits, gt, 1, LossWeights(0, 0, 2.0), "pcd")
        assert double.value == pytest.approx(2 * base.value)
        assert np.allclose(double.box_grad, 2 * base.box_grad)

    def test_composition(self):
        rng = np.random.default_rng(6)
        pred, gt = random_pair(rng)
        logits = np.array([0.2, 1.1, -0.4])
        w = LossWeights(1.0, 0.8, 1.0)
        res = total_loss(pred, logits, gt, 2, w, "wd")
        expected = (
            1.0 * focal_loss(logits, 2).value
            + 0.8 * center_loss(pred.center, gt.center).value
            + 1.0 * wasserstein_loss(pred, gt).value
        )
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_per_pair(self):
        rng = np.random.default_rng(7)
        w = LossWeights()
        pairs = [random_pair(rng) for _ in range(5)]
        logits = rng.normal(0, 1, (5, 3))
        classes = np.array([0, 2, 1, 1, 0])
        batch = total_loss(np.stack([p.to_params() for p, _ in pairs]), logits,
                           np.stack([g.to_params() for _, g in pairs]), classes, w, "pcd")
        for i, (p, g) in enumerate(pairs):
            single = total_loss(p, logits[i], g, int(classes[i]), w, "pcd")
            assert batch.value[i] == pytest.approx(single.value, abs=1e-12)
            assert np.max(np.abs(batch.box_grad[i] - single.box_grad)) < 1e-12
            assert np.max(np.abs(batch.logits_grad[i] - single.logits_grad)) < 1e-12

    def test_unknown_kind(self):
        gt = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        with pytest.raises(ValueError):
            total_loss(gt, [0.0], gt, 0, LossWeights(), "giou")

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-1.0, 0.8, 1.0)
