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
    pred = box_params([box for box, _ in preds])[:, None, :]
    gt = box_params([box for box, _ in gts])[None, :, :]
    probs = np.stack([np.asarray(pr, dtype=float).reshape(-1) for _, pr in preds])
    classes = np.array([int(c) for _, c in gts])
    return (
        weights.cls_weight * focal_cost(probs[:, classes])
        + weights.center_weight * center_loss(pred[..., :3], gt[..., :3]).value
        + weights.box_weight * box_fn(pred, gt).value
    )


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(P, G) pairs.

    Among all optimal assignments, returns the lexicographically smallest
    pair list (pairs sorted by prediction index), with costs within a
    relative ``_TIE_TOL`` of each other counted as ties. One
    ``linear_sum_assignment`` solve does all the optimization:

    1. The matrix is padded to n x n, n = max(P, G), with zero-cost dummy
       rows or columns; a row that takes a dummy column is left unmatched.
       Dummy indices sort after every real one, so matching a row beats
       leaving it unmatched, as in the pair-list order.
    2. Dual potentials u, v (u_i + v_j <= c_ij, equal on the solved pairs)
       are the shortest distances in the residual graph of that matching,
       by Bellman-Ford over the columns: v_j <= v_m(i) + c_ij - c_i,m(i),
       where m(i) is row i's column, one vectorized relaxation per round.
    3. An assignment is optimal exactly when all its pairs are tight
       (reduced cost c_ij - u_i - v_j within the tolerance), so the
       tie-break only needs the tight subgraph.
    4. Rows are fixed in order. Row i keeps its column a unless a tight,
       smaller real column j is still free and the row holding j can
       reach a along an alternating path of tight edges through unfixed
       rows; one backward search from a finds every such row, the
       smallest such j is taken and the path is flipped. Without ties no
       row has a smaller tight column, and no search runs.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
        raise ValueError("cost matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    n_rows, n_cols = c.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = c
    col = linear_sum_assignment(square)[1]
    solved = square[np.arange(n), col]
    tol = _TIE_TOL * max(1.0, abs(float(solved.sum())))
    v = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(v, (square + (v[col] - solved)[:, None]).min(axis=0))
        if not (relaxed < v).any():
            break
        v = relaxed
    tight = square - (solved - v[col])[:, None] - v <= tol
    tight[np.arange(n), col] = True  # solved pairs are tight; rounding must not drop one
    first_tight = tight.argmax(axis=1).tolist()
    match, holder = col.tolist(), np.argsort(col).tolist()
    for i in range(n_rows):
        a = match[i]
        if first_tight[i] >= min(a, n_cols):
            continue
        # backward search from column a over the unfixed rows: step[r] is the
        # column row r moves to on an alternating path that ends by freeing a;
        # dummy columns share their tight rows, so only a real one pushes a dummy
        step, frontier = {}, [a]
        while frontier:
            target = frontier.pop()
            for r in (np.flatnonzero(tight[i + 1:, target]) + i + 1).tolist():
                if r not in step:
                    step[r] = target
                    if target < n_cols or match[r] < n_cols:
                        frontier.append(match[r])
        for j in np.flatnonzero(tight[i, :min(a, n_cols)]).tolist():
            if holder[j] in step:
                r = holder[j]
                match[i], holder[j] = j, i
                while r != i:  # the path ends at a, whose old holder is i
                    match[r], holder[step[r]], r = step[r], r, holder[step[r]]
                break
    return [(i, m) for i, m in enumerate(match[:n_rows]) if m < n_cols]


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
            With no predictions the result is ``MatchedLoss([], [], 0.0)``.
    """
    logits = [np.asarray(l, dtype=float).reshape(-1) for _, l in preds]
    pred, gt = box_params([box for box, _ in preds]), box_params([box for box, _ in gts])
    assignment = []
    if preds and gts:
        probs = [1.0 / (1.0 + np.exp(-l)) for l in logits]
        assignment = hungarian(cost_matrix(list(zip(pred, probs)), gts, weights, box_loss_kind))
    matched = dict(assignment)
    # prediction index -> (value, box gradient, logits gradient)
    terms = {}
    if assignment:
        rows, cols = (list(idx) for idx in zip(*assignment))
        tl = total_loss(pred[rows], np.stack([logits[p] for p in rows]), gt[cols],
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
