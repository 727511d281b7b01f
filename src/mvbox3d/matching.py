"""One-to-one assignment between predictions and ground truth.

Builds a cost matrix from the same weighted loss terms used for training,
solves it with the Hungarian algorithm (lexicographically smallest optimal
assignment), and evaluates the matched training loss with background
classification for unmatched predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_params
from .losses import (
    LossWeights,
    center_loss,
    focal_loss,
    focal_terms,
    get_box_loss,
    total_loss,
)

_TIE_TOL = 1e-9


def focal_cost(prob):
    """Focal-style classification cost of assigning a gt class with
    probability p; elementwise over arrays of probabilities."""
    pos, neg = focal_terms(prob)
    cost = pos - neg
    return float(cost) if np.ndim(cost) == 0 else cost


def cost_matrix(preds, gts, weights: LossWeights, box_loss_kind: str) -> np.ndarray:
    """Pairwise matching costs, shape (P, G), from one broadcast loss call.

    Args:
        preds: list of (Box9DoF, class probability vector).
        gts: list of (Box9DoF, class id).
        weights: the lambda weights, reused as matching-cost weights.
        box_loss_kind: which box regression loss to use for the box term.
    """
    if not preds or not gts:
        raise ValueError("cost_matrix needs at least one prediction and one ground truth")
    box_fn = get_box_loss(box_loss_kind)
    pred = np.stack([box_params(box) for box, _ in preds])[:, None, :]
    gt = np.stack([box_params(box) for box, _ in gts])[None, :, :]
    probs = np.stack([np.asarray(pr, dtype=float).reshape(-1) for _, pr in preds])
    classes = np.array([int(c) for _, c in gts])
    return (
        weights.cls_weight * focal_cost(probs[:, classes])
        + weights.center_weight * center_loss(pred[..., :3], gt[..., :3]).value
        + weights.box_weight * box_fn(pred, gt).value
    )


def _optimal_cost(cost: np.ndarray) -> float:
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(P, G) pairs.

    Among all optimal assignments, returns the lexicographically smallest
    pair list (pairs sorted by prediction index). Resolved by fixing rows in
    order and re-solving the remainder, so ties are broken deterministically.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
        raise ValueError("cost matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    n_rows, n_cols = c.shape
    best = _optimal_cost(c)
    tol = _TIE_TOL * max(1.0, abs(best))
    pairs: list[tuple[int, int]] = []
    used_cols: list[int] = []
    fixed_cost = 0.0
    for row in range(n_rows):
        if len(pairs) == min(n_rows, n_cols):
            break
        free_cols = [g for g in range(n_cols) if g not in used_cols]
        remaining_rows = np.arange(row + 1, n_rows)
        assigned = None
        for g in free_cols:
            rest_cols = [x for x in free_cols if x != g]
            rest = c[np.ix_(remaining_rows, rest_cols)] if rest_cols else np.zeros((0, 0))
            total = fixed_cost + c[row, g] + _optimal_cost(rest)
            if total <= best + tol:
                assigned = g
                break
        if assigned is not None:
            pairs.append((row, assigned))
            used_cols.append(assigned)
            fixed_cost += c[row, assigned]
    return pairs


@dataclass(frozen=True)
class PredictionLoss:
    """Per-prediction loss terms: matched predictions carry box and logits
    gradients, unmatched ones only the background classification gradient."""

    value: float
    box_grad: np.ndarray
    logits_grad: np.ndarray
    matched_gt: int | None


@dataclass(frozen=True)
class MatchedLoss:
    assignment: list[tuple[int, int]]
    per_prediction: list[PredictionLoss]
    total_value: float


def matched_loss(preds, gts, weights: LossWeights, box_loss_kind: str) -> MatchedLoss:
    """Hungarian matching followed by the weighted training loss.

    The matched pairs are evaluated in one batched ``total_loss`` call and the
    unmatched predictions in one background ``focal_loss`` call.

    Args:
        preds: list of (Box9DoF, logits vector).
        gts: list of (Box9DoF, class id); may be empty, in which case every
            prediction receives the background classification loss only.
    """
    logits = [np.asarray(l, dtype=float).reshape(-1) for _, l in preds]
    if gts:
        probs = [1.0 / (1.0 + np.exp(-l)) for l in logits]
        cost = cost_matrix(
            [(box, pr) for (box, _), pr in zip(preds, probs)], gts, weights, box_loss_kind
        )
        assignment = hungarian(cost)
    else:
        assignment = []
    matched = dict(assignment)
    # prediction index -> (value, box gradient, logits gradient)
    terms = {}
    if assignment:
        rows, cols = zip(*assignment)
        tl = total_loss(np.stack([box_params(preds[p][0]) for p in rows]),
                        np.stack([logits[p] for p in rows]),
                        np.stack([box_params(gts[g][0]) for g in cols]),
                        np.array([int(gts[g][1]) for g in cols]), weights, box_loss_kind)
        for i, p in enumerate(rows):
            terms[p] = (float(tl.value[i]), tl.box_grad[i], tl.logits_grad[i])
    unmatched = [p for p in range(len(preds)) if p not in matched]
    if unmatched:
        cls = focal_loss(np.stack([logits[p] for p in unmatched]), None)
        for i, p in enumerate(unmatched):
            terms[p] = (weights.cls_weight * float(cls.value[i]), np.zeros(9),
                        weights.cls_weight * cls.grad[i])
    per_pred = [PredictionLoss(*terms[p], matched.get(p)) for p in range(len(preds))]
    return MatchedLoss(assignment, per_pred, float(sum(pl.value for pl in per_pred)))
