"""Box regression and classification losses with analytic gradients.

Box losses are functions of the 9 predicted box parameters
[x, y, z, w, l, h, roll, pitch, yaw]; each returns its value together with
the gradient w.r.t. those parameters. They take ``Box9DoF`` records or
broadcastable (..., 9) parameter arrays and return values (...) with
gradients (..., 9); the ground truth may also be a ``PreparedTarget``.
Selection-type non-smoothness (L1 kinks, nearest-neighbor and permutation
argmins, norms at zero) uses the frozen-active-set subgradient, with zero at
exact ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    CORNER_OFFSETS,
    box_corners,
    box_params,
    corner_arms,
    corner_permutation_table,
    euler_to_rotation,
    gaussian_sigma,
    rotation_derivatives,
)

WASSERSTEIN_EPS = 1e-8
FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25

_PERM_TABLE = corner_permutation_table()
# flat indices into an (8 pred, 8 gt) corner distance table: entry (i, g)
# picks the distance from pred corner i to its gt corner under ordering g
_PERM_GATHER = (np.arange(8) * 8 + _PERM_TABLE).T
_CORNERS = np.arange(8)
_EYE3 = np.eye(3)
_SQRT_EPS = np.sqrt(WASSERSTEIN_EPS)
_NORM_FLOOR = 1e-12
_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossValueGrad:
    """A nonnegative loss value and its gradient w.r.t. the differentiated
    parameters (9 box parameters for box losses, logit-shaped for focal);
    batched inputs give arrays."""

    value: float | np.ndarray
    grad: np.ndarray


@dataclass(frozen=True)
class LossWeights:
    """Combination weights (classification, center, box)."""

    cls_weight: float = 1.0
    center_weight: float = 0.8
    box_weight: float = 1.0

    def __post_init__(self):
        if min(self.cls_weight, self.center_weight, self.box_weight) < 0:
            raise ValueError("loss weights must be nonnegative")


class PreparedTarget:
    """The ground-truth terms the box losses read, each formed on first use and
    then kept: params (..., 9), rotation and sigma (..., 3, 3), corners
    (..., 8, 3) and corners_major (..., 3, 8). A fit forms them once."""

    def __init__(self, gt):
        self.params = box_params(gt)

    rotation = cached_property(lambda self: euler_to_rotation(self.params[..., 6:]))
    sigma = cached_property(lambda self: gaussian_sigma(self.params[..., 3:6], self.rotation))
    corners = cached_property(lambda self: box_corners(self.params))
    corners_major = cached_property(
        lambda self: np.ascontiguousarray(self.corners.swapaxes(-1, -2)))


def prepare_target(gt) -> PreparedTarget:
    """``gt`` as a ``PreparedTarget``; a prepared target passes through."""
    return gt if isinstance(gt, PreparedTarget) else PreparedTarget(gt)


def _result(value, grad) -> LossValueGrad:
    return LossValueGrad(float(value) if value.ndim == 0 else value, grad)


def _inverse(norm):
    """1 / norm, or 0 where the norm is at or below the floor."""
    return np.divide(1.0, norm, out=np.zeros(np.shape(norm)), where=norm > _NORM_FLOOR)


def _corner_frame(params):
    """Corners (..., 8, 3) of (..., 9) parameters and d corner / d params (..., 8, 3, 9)."""
    rot, drot = rotation_derivatives(params[..., 6:])
    size = params[..., 3:6]
    jac = np.empty(params.shape[:-1] + (8, 3, 9))
    jac[..., :3] = _EYE3
    jac[..., 3:6] = CORNER_OFFSETS[:, None, :] * rot[..., None, :, :]
    # d corner_i / d euler_k = dR_k (offset_i * size)
    jac[..., 6:] = np.einsum("...kcd,...id->...ick", drot, CORNER_OFFSETS * size[..., None, :])
    return params[..., None, :3] + corner_arms(size, rot), jac


def _corner_loss(pred, gt, pick) -> LossValueGrad:
    """Corner-distance loss whose value and active (pred corner, gt corner)
    pairs ``pick`` derives from the (..., 8, 8) distance table; each active
    pair adds 1/8 of its unit difference vector to the force on the pred corner."""
    pc, jac = _corner_frame(box_params(pred))
    tgt = prepare_target(gt)
    # coordinate-major differences (..., 3, 8, 8) keep the inner loops long when batched
    sq = (np.ascontiguousarray(pc.swapaxes(-1, -2))[..., :, :, None]
          - tgt.corners_major[..., :, None, :])
    sq *= sq
    dist = np.sqrt(sq.sum(axis=-3))
    value, uses = pick(dist)
    scale = uses * _inverse(dist) / 8.0
    force = pc * scale.sum(axis=-1)[..., None] - scale @ tgt.corners  # sum_j s_ij (pc_i - gc_j)
    grad = force.reshape(force.shape[:-2] + (1, 24)) @ jac.reshape(jac.shape[:-3] + (24, 9))
    return _result(value, grad[..., 0, :])


def _chamfer_pairs(dist):
    # each pred corner's nearest gt corner, and each gt corner's nearest pred corner
    uses = (np.argmin(dist, axis=-1)[..., :, None] == _CORNERS).astype(float)
    uses += np.argmin(dist, axis=-2)[..., None, :] == _CORNERS[:, None]
    return np.einsum("...ij,...ij->...", uses, dist) / 8.0, uses


def _permutation_pairs(dist):
    flat = dist.reshape(dist.shape[:-2] + (64,))
    means = np.take(flat, _PERM_GATHER, axis=-1).sum(axis=-2) / 8.0
    # the corner pairs of the best ordering
    pairs = _PERM_TABLE[np.argmin(means, axis=-1)][..., None] == _CORNERS
    return means.min(axis=-1), pairs.astype(float)


def l1_box_loss(pred, gt) -> LossValueGrad:
    """Mean absolute difference over the 9 raw parameters.

    Deliberately orientation-ambiguous: a reparameterized but geometrically
    identical ground truth generally gives a nonzero value.
    """
    diff = box_params(pred) - prepare_target(gt).params
    return _result(np.abs(diff).sum(axis=-1) / 9.0, np.sign(diff) / 9.0)


def corner_chamfer_loss(pred, gt) -> LossValueGrad:
    """Symmetric chamfer distance between the two 8-corner sets.

    Value is the mean nearest-neighbor distance from pred corners to gt
    corners plus the mean in the other direction; the gradient freezes both
    nearest-neighbor assignments.
    """
    return _corner_loss(pred, gt, _chamfer_pairs)


def permutation_corner_loss(pred, gt) -> LossValueGrad:
    """Minimum over the 48 gt corner orderings of the mean per-corner distance.

    The orderings are the canonical corner sequences of the 48 cuboid
    symmetries, so any reparameterization of the ground truth scores zero.
    The gradient freezes the argmin ordering.
    """
    return _corner_loss(pred, gt, _permutation_pairs)


def wasserstein_loss(pred, gt) -> LossValueGrad:
    """Simplified Wasserstein box distance.

    Computes sqrt(||mu_gt - mu_pred||_2 + ||Sigma_gt - Sigma_pred||_F + eps)
    with Sigma = R diag(w, l, h) R^T, shifted by the constant sqrt(eps) so an
    exact (or 48-symmetry-equivalent) match scores 0. The shift leaves the
    gradient untouched.
    """
    p, tgt = box_params(pred), prepare_target(gt)
    rot, drot = rotation_derivatives(p[..., 6:])
    sigma_p = gaussian_sigma(p[..., 3:6], rot)
    mu_diff = p[..., :3] - tgt.params[..., :3]
    center_dist = np.sqrt(np.einsum("...i,...i->...", mu_diff, mu_diff))
    sig_diff = sigma_p - tgt.sigma
    sig_dist = np.sqrt(np.einsum("...ij,...ij->...", sig_diff, sig_diff))
    root = np.sqrt(center_dist + sig_dist + WASSERSTEIN_EPS)
    value = root - _SQRT_EPS

    direction = sig_diff * _inverse(sig_dist)[..., None, None]
    # <D, d Sigma / d size_k> = r_k^T D r_k, with r_k the k-th column of R
    d_size = np.einsum("...ck,...ck->...k", direction @ rot, rot)
    # <D, dR_k Y^T + Y dR_k^T> = 2 <D Y, dR_k> with Y = R diag(size), D symmetric
    d_euler = 2.0 * np.einsum("...ij,...kij->...k", direction @ (rot * p[..., None, 3:6]), drot)
    d_center = mu_diff * _inverse(center_dist)[..., None]
    grad = np.concatenate([d_center, d_size, d_euler], axis=-1) / (2.0 * root[..., None])
    return _result(value, grad)


def center_loss(pred_center, gt_center) -> LossValueGrad:
    """Squared Euclidean distance between (..., 3) centers; gradient 2 (pred - gt)."""
    p = np.asarray(pred_center, dtype=float)
    g = np.asarray(gt_center, dtype=float)
    if p.shape[-1:] != (3,) or g.shape[-1:] != (3,):
        raise ValueError(f"centers must have 3 components, got shapes {p.shape} and {g.shape}")
    diff = p - g
    return _result(np.sum(diff * diff, axis=-1), 2.0 * diff)


def focal_terms(prob):
    """Per-class sigmoid focal terms (gamma 2, alpha 0.25) of class
    probabilities: the loss when the class is the target and when it is not."""
    p = np.clip(prob, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    pos = FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * (-np.log(p))
    neg = (1.0 - FOCAL_ALPHA) * p**FOCAL_GAMMA * (-np.log(1.0 - p))
    return pos, neg


def focal_loss(logits, target) -> LossValueGrad:
    """Binary sigmoid focal loss summed over classes (gamma 2, alpha 0.25).

    ``logits`` has the classes on its last axis. ``target`` is the positive
    class index, or None for pure background; batched logits (..., C) take an
    integer array (...) of targets.
    """
    x = np.atleast_1d(np.asarray(logits, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    n_cls = x.shape[-1]
    pos = np.zeros(x.shape, dtype=bool)
    if target is not None:
        t = np.asarray(target)
        if np.any((t < 0) | (t >= n_cls)):
            raise ValueError(f"target index {target} out of range for {n_cls} classes")
        pos = np.arange(n_cls) == t[..., None]
    p = np.clip(1.0 / (1.0 + np.exp(-x)), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    pos_term, neg_term = focal_terms(p)
    a, g = FOCAL_ALPHA, FOCAL_GAMMA
    grad = np.where(
        pos,
        a * (1 - p) ** g * (g * p * np.log(p) - (1 - p)),
        (1 - a) * p**g * (p - g * (1 - p) * np.log(1 - p)),
    )
    return _result(np.sum(np.where(pos, pos_term, neg_term), axis=-1), grad)


_BOX_LOSSES = {
    "l1": l1_box_loss,
    "ccd": corner_chamfer_loss,
    "pcd": permutation_corner_loss,
    "wd": wasserstein_loss,
}
BOX_LOSS_KINDS = tuple(_BOX_LOSSES)


def get_box_loss(kind: str):
    try:
        return _BOX_LOSSES[kind]
    except KeyError:
        raise ValueError(f"unknown box loss kind {kind!r}, expected one of {BOX_LOSS_KINDS}")


@dataclass(frozen=True)
class TotalLoss:
    """Weighted sum of classification, center and box losses.

    ``box_grad`` is w.r.t. the 9 predicted box parameters (center gradient
    folded into the first three entries); ``logits_grad`` is w.r.t. the
    classification logits. Batched pairs give arrays of values.
    """

    value: float | np.ndarray
    box_grad: np.ndarray
    logits_grad: np.ndarray


def total_loss(pred_box, pred_logits, gt_box, gt_class,
               weights: LossWeights, box_loss_kind: str) -> TotalLoss:
    """Combined training loss for one matched prediction/ground-truth pair, or
    for (..., 9) parameters with logits (..., C) and classes (...)."""
    box_fn = get_box_loss(box_loss_kind)
    pred, gt = box_params(pred_box), box_params(gt_box)
    cls = focal_loss(pred_logits, gt_class)
    cen = center_loss(pred[..., :3], gt[..., :3])
    box = box_fn(pred, gt)
    value = (
        weights.cls_weight * cls.value
        + weights.center_weight * cen.value
        + weights.box_weight * box.value
    )
    box_grad = weights.box_weight * box.grad
    box_grad[..., :3] += weights.center_weight * cen.grad
    return TotalLoss(value, box_grad, weights.cls_weight * cls.grad)
