"""Matching tests: cost matrix composition, Hungarian assignment against
exhaustive enumeration, and the matched training loss."""

import itertools

import numpy as np
import pytest

from mvbox3d.geometry import Box9DoF, reparameterize_box, signed_permutations
from mvbox3d.losses import LossWeights, center_loss, focal_loss, get_box_loss, total_loss
from mvbox3d.matching import cost_matrix, focal_cost, hungarian, matched_loss

PERMS = signed_permutations()


def brute_force_optimum(cost):
    """Enumerate every complete matching of the smaller side."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    best = np.inf
    best_pairs = None
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = sum(cost[r, cols[r]] for r in range(n_rows))
            pairs = sorted((r, cols[r]) for r in range(n_rows))
            if total < best - 1e-12 or (abs(total - best) <= 1e-12 and pairs < best_pairs):
                best, best_pairs = total, pairs
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = sum(cost[rows[c], c] for c in range(n_cols))
            pairs = sorted((rows[c], c) for c in range(n_cols))
            if total < best - 1e-12 or (abs(total - best) <= 1e-12 and pairs < best_pairs):
                best, best_pairs = total, pairs
    return best, best_pairs


def random_box(rng):
    return Box9DoF(rng.uniform(-2, 2, 3), rng.uniform(0.3, 1.2, 3), rng.uniform(-1, 1, 3))


class TestCostMatrix:
    def test_perfect_match_minimizes_cost(self):
        # the focal-style class cost is negative for a confident correct
        # prediction (it rewards the match); what matters is that the perfect
        # pair undercuts every competing pair and that the geometric terms
        # vanish, so cost == focal term exactly
        box = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        other = Box9DoF([2, 0, 0], [0.5, 0.5, 0.5], [0, 0, 0])
        probs = np.array([0.99, 0.01])
        cost = cost_matrix(
            [(box, probs), (other, np.array([0.5, 0.5]))],
            [(box, 0), (other, 1)],
            LossWeights(),
            "wd",
        )
        assert cost[0, 0] == pytest.approx(focal_cost(0.99), abs=1e-9)
        assert cost[0, 0] < cost[0, 1]
        assert cost[0, 0] < cost[1, 0]
        assert focal_cost(0.99) < focal_cost(0.5) < focal_cost(0.01)

    def test_identical_predictions_identical_rows(self):
        rng = np.random.default_rng(0)
        box = random_box(rng)
        probs = np.array([0.3, 0.7])
        gts = [(random_box(rng), 0), (random_box(rng), 1)]
        cost = cost_matrix([(box, probs), (box, probs)], gts, LossWeights(), "pcd")
        assert np.array_equal(cost[0], cost[1])

    def test_componentwise_recomposition(self):
        rng = np.random.default_rng(1)
        w = LossWeights(1.0, 0.8, 1.0)
        preds = [(random_box(rng), rng.uniform(0.05, 0.95, 3)) for _ in range(3)]
        gts = [(random_box(rng), int(rng.integers(0, 3))) for _ in range(2)]
        cost = cost_matrix(preds, gts, w, "wd")
        box_fn = get_box_loss("wd")
        for p, (pbox, probs) in enumerate(preds):
            for g, (gbox, gcls) in enumerate(gts):
                expected = (
                    w.cls_weight * focal_cost(float(probs[gcls]))
                    + w.center_weight * center_loss(pbox.center, gbox.center).value
                    + w.box_weight * box_fn(pbox, gbox).value
                )
                assert cost[p, g] == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cost_matrix([], [], LossWeights(), "wd")


def per_pair_costs(preds, gts, w, kind):
    """Oracle: the matching cost recomposed one (prediction, gt) pair at a time."""
    box_fn = get_box_loss(kind)
    cost = np.empty((len(preds), len(gts)))
    for p, (pbox, probs) in enumerate(preds):
        for g, (gbox, gcls) in enumerate(gts):
            cost[p, g] = (
                w.cls_weight * focal_cost(float(probs[gcls]))
                + w.center_weight * center_loss(pbox.center, gbox.center).value
                + w.box_weight * box_fn(pbox, gbox).value
            )
    return cost


def near_gimbal_box(rng):
    pitch = rng.choice([-1.0, 1.0]) * (np.pi / 2 - rng.choice([1e-3, 1e-7, 0.0]))
    return Box9DoF(rng.uniform(-2, 2, 3), rng.uniform(0.3, 1.2, 3),
                   [rng.uniform(-1, 1), pitch, rng.uniform(-1, 1)])


class TestBroadcastCostMatrix:
    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 1), (6, 4)])
    def test_matches_per_pair_oracle(self, kind, shape):
        rng = np.random.default_rng(10)
        w = LossWeights(1.0, 0.8, 1.0)
        preds = [(random_box(rng), rng.uniform(0.05, 0.95, 3)) for _ in range(shape[0])]
        gts = [(random_box(rng), int(rng.integers(0, 3))) for _ in range(shape[1])]
        cost = cost_matrix(preds, gts, w, kind)
        assert cost.shape == shape
        assert np.max(np.abs(cost - per_pair_costs(preds, gts, w, kind))) < 1e-12

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_near_gimbal_boxes(self, kind):
        rng = np.random.default_rng(11)
        w = LossWeights()
        gts = [(near_gimbal_box(rng), int(rng.integers(0, 2))) for _ in range(4)]
        preds = [(near_gimbal_box(rng), rng.uniform(0.05, 0.95, 2)) for _ in range(3)]
        preds += [(reparameterize_box(box, PERMS[7 * i + 3]), rng.uniform(0.05, 0.95, 2))
                  for i, (box, _) in enumerate(gts)]
        cost = cost_matrix(preds, gts, w, kind)
        assert np.max(np.abs(cost - per_pair_costs(preds, gts, w, kind))) < 1e-12

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_duplicate_predictions_bitwise_equal_rows(self, kind):
        rng = np.random.default_rng(12)
        gts = [(random_box(rng), int(rng.integers(0, 3))) for _ in range(5)]
        preds = [(random_box(rng), rng.uniform(0.05, 0.95, 3)) for _ in range(9)]
        sources = [0, 4, 4, 8, 2]
        preds += [preds[j] for j in sources]
        cost = cost_matrix(preds, gts, LossWeights(), kind)
        for row, j in enumerate(sources, start=9):
            assert np.array_equal(cost[row], cost[j])


class TestHungarian:
    def test_two_by_two(self):
        pairs = hungarian([[1.0, 2.0], [3.0, 0.0]])
        assert pairs == [(0, 0), (1, 1)]
        assert sum(np.array([[1.0, 2.0], [3.0, 0.0]])[p, g] for p, g in pairs) == 1.0

    def test_diagonal_zeros(self):
        cost = np.ones((3, 3)) + np.eye(3) * -1.0
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_rectangular_against_brute_force(self):
        rng = np.random.default_rng(2)
        cost = rng.normal(0, 2, (5, 3))
        pairs = hungarian(cost)
        total = sum(cost[p, g] for p, g in pairs)
        best, _ = brute_force_optimum(cost)
        assert total == pytest.approx(best, abs=1e-9)
        assert len(pairs) == 3

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(1, 7))
            cost = rng.normal(0, 3, (n_rows, n_cols))
            pairs = hungarian(cost)
            total = sum(cost[p, g] for p, g in pairs)
            best, _ = brute_force_optimum(cost)
            assert total == pytest.approx(best, abs=1e-9)
            assert len(pairs) == min(n_rows, n_cols)
            assert len({p for p, _ in pairs}) == len(pairs)
            assert len({g for _, g in pairs}) == len(pairs)

    def test_lexicographic_tie_break(self):
        # every assignment of an all-zeros matrix is optimal
        assert hungarian(np.zeros((2, 3))) == [(0, 0), (1, 1)]
        assert hungarian(np.zeros((3, 2))) == [(0, 0), (1, 1)]
        # tie between (0,0),(1,1) and (0,1),(1,0)
        cost = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hungarian(cost) == [(0, 0), (1, 1)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0]]))


class TestMatchedLoss:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(4)
        boxes = [random_box(rng) for _ in range(3)]
        preds = []
        gts = []
        for i, box in enumerate(boxes):
            logits = np.full(3, -25.0)
            logits[i] = 25.0
            preds.append((box, logits))
            gts.append((box, i))
        result = matched_loss(preds, gts, LossWeights(), "wd")
        assert result.assignment == [(0, 0), (1, 1), (2, 2)]
        assert result.total_value < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        preds = [(random_box(rng), rng.normal(0, 1, 2)) for _ in range(4)]
        gts = [(random_box(rng), int(rng.integers(0, 2))) for _ in range(3)]
        base = matched_loss(preds, gts, LossWeights(), "pcd").total_value
        shuffled = matched_loss(preds[::-1], gts, LossWeights(), "pcd").total_value
        assert shuffled == pytest.approx(base, abs=1e-9)
        gts_shuffled = matched_loss(preds, gts[::-1], LossWeights(), "pcd").total_value
        assert gts_shuffled == pytest.approx(base, abs=1e-9)

    def test_total_matches_per_pair_oracle(self):
        rng = np.random.default_rng(6)
        w = LossWeights()
        preds = [(random_box(rng), rng.normal(0, 1, 2)) for _ in range(3)]
        gts = [(random_box(rng), int(rng.integers(0, 2))) for _ in range(3)]
        result = matched_loss(preds, gts, w, "wd")
        matched = dict(result.assignment)
        expected = 0.0
        for p, (pbox, logits) in enumerate(preds):
            if p in matched:
                gbox, gcls = gts[matched[p]]
                expected += total_loss(pbox, logits, gbox, gcls, w, "wd").value
            else:
                expected += w.cls_weight * focal_loss(logits, None).value
        assert result.total_value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("kind", ["wd", "pcd"])
    def test_per_prediction_terms_match_per_pair_oracle(self, kind):
        rng = np.random.default_rng(10)
        w = LossWeights()
        preds = [(random_box(rng), rng.normal(0, 1, 3)) for _ in range(7)]
        gts = [(random_box(rng), int(rng.integers(0, 3))) for _ in range(4)]
        result = matched_loss(preds, gts, w, kind)
        matched = dict(result.assignment)
        for p, ((pbox, logits), pl) in enumerate(zip(preds, result.per_prediction)):
            if p in matched:
                gbox, gcls = gts[matched[p]]
                ref = total_loss(pbox, logits, gbox, gcls, w, kind)
                value, box_grad, logits_grad = ref.value, ref.box_grad, ref.logits_grad
            else:
                ref = focal_loss(logits, None)
                value = w.cls_weight * ref.value
                box_grad, logits_grad = np.zeros(9), w.cls_weight * ref.grad
            assert pl.matched_gt == matched.get(p)
            assert pl.value == pytest.approx(value, abs=1e-12)
            assert np.max(np.abs(pl.box_grad - box_grad)) < 1e-12
            assert np.max(np.abs(pl.logits_grad - logits_grad)) < 1e-12

    def test_no_ground_truth(self):
        rng = np.random.default_rng(7)
        preds = [(random_box(rng), np.array([0.5, -0.5])) for _ in range(2)]
        result = matched_loss(preds, [], LossWeights(), "wd")
        assert result.assignment == []
        for pl, (box, logits) in zip(result.per_prediction, preds):
            assert pl.matched_gt is None
            assert np.all(pl.box_grad == 0.0)
            assert pl.value == pytest.approx(focal_loss(logits, None).value)

    def test_unmatched_prediction_gets_background(self):
        rng = np.random.default_rng(8)
        preds = [(random_box(rng), np.array([0.0, 0.0])) for _ in range(3)]
        gts = [(random_box(rng), 0)]
        result = matched_loss(preds, gts, LossWeights(), "wd")
        unmatched = [pl for pl in result.per_prediction if pl.matched_gt is None]
        assert len(unmatched) == 2
        for pl in unmatched:
            assert pl.value == pytest.approx(focal_loss([0.0, 0.0], None).value)

    def test_frozen_assignment_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        w = LossWeights()
        pred_box, gt_box = random_box(rng), random_box(rng)
        logits = rng.normal(0, 1, 2)
        res = total_loss(pred_box, logits, gt_box, 1, w, "wd")
        h = 1e-5
        fd = np.zeros(9)
        base_params = pred_box.to_params()
        for k in range(9):
            hi = base_params.copy()
            hi[k] += h
            lo = base_params.copy()
            lo[k] -= h
            fd[k] = (
                total_loss(Box9DoF.from_params(hi), logits, gt_box, 1, w, "wd").value
                - total_loss(Box9DoF.from_params(lo), logits, gt_box, 1, w, "wd").value
            ) / (2 * h)
        rel = np.linalg.norm(res.box_grad - fd) / max(np.linalg.norm(fd), 1e-8)
        assert rel < 1e-4
