"""Oriented 9-DoF boxes and their geometry.

Provides the box type (center / size / Euler orientation), rotation
conversions, corner enumeration, the 48 signed-permutation symmetries of a
cuboid, the Gaussian form used by the Wasserstein box loss, exact pairwise
oriented IoU (a separating-axis broad phase, then the convex hull of the
enumerated intersection vertices), and 3D NMS.

Conventions:
    * Euler angles are (roll, pitch, yaw) composed extrinsically as
      R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
    * Sizes are (w, l, h), the extents along the box's local x/y/z axes.
    * Corners are indexed in canonical bit order: bit 2 is the sign of the
      w half-extent, bit 1 the sign of l, bit 0 the sign of h (0 -> -1/2,
      1 -> +1/2), so corner 0 is (-w/2, -l/2, -h/2) in the local frame.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

DEGENERATE_SIZE = 1e-9

# [v]x flattened row-major is v @ _SKEW
_SKEW = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0],
                  [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)

# Local-frame corner offsets in canonical bit order, entries in {-0.5, +0.5}.
CORNER_OFFSETS = np.array(
    [[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)], dtype=float
) - 0.5
CORNER_OFFSETS.setflags(write=False)


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 components, got shape {np.shape(x)}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class Box9DoF:
    """Oriented 3D box: center (m), size (w, l, h) (m), euler (roll, pitch, yaw) (rad)."""

    center: np.ndarray
    size: np.ndarray
    euler: np.ndarray

    def __post_init__(self):
        center = _as_vec3(self.center, "center")
        size = _as_vec3(self.size, "size")
        euler = _as_vec3(self.euler, "euler")
        if (size <= 0.0).any():
            raise ValueError(f"size components must be strictly positive, got {size}")
        for name, v in (("center", center), ("size", size), ("euler", euler)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def to_params(self) -> np.ndarray:
        """Parameter vector [x, y, z, w, l, h, roll, pitch, yaw]."""
        return np.concatenate([self.center, self.size, self.euler])

    @classmethod
    def from_params(cls, params) -> "Box9DoF":
        p = np.asarray(params, dtype=float).reshape(-1)
        if p.shape != (9,):
            raise ValueError(f"expected 9 box parameters, got shape {np.shape(params)}")
        return cls(p[:3], p[3:6], p[6:9])

    def rotation(self) -> np.ndarray:
        return euler_to_rotation(self.euler)

    def volume(self) -> float:
        return float(np.prod(self.size))


def box_params(box) -> np.ndarray:
    """[x, y, z, w, l, h, roll, pitch, yaw] of a ``Box9DoF``; (..., 9) arrays pass through."""
    if isinstance(box, Box9DoF):
        return box.to_params()
    p = np.asarray(box, dtype=float)
    if p.shape[-1:] != (9,):
        raise ValueError(f"expected (..., 9) box parameters, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class GaussianBox:
    """Gaussian surrogate of a box: mean and symmetric covariance-like matrix."""

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mean = _as_vec3(self.mean, "mean")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (3, 3):
            raise ValueError("sigma must be a 3x3 matrix")
        if np.max(np.abs(sigma - sigma.T)) > 1e-9:
            raise ValueError("sigma must be symmetric")
        mean.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class Detection:
    """A scored, categorized box."""

    box: Box9DoF
    score: float
    category: int

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def euler_to_rotation(euler) -> np.ndarray:
    """Rotation matrices Rz(yaw) Ry(pitch) Rx(roll) of (..., 3) Euler angles,
    shape (..., 3, 3). Corners, the Gaussian form and the loss gradients are
    all built on this one function."""
    return _rotation_trig(euler)[0]


def _rotation_trig(euler):
    """``euler_to_rotation`` with the angles' cosines and sines."""
    e = np.asarray(euler, dtype=float)
    if e.shape[-1:] != (3,):
        raise ValueError(f"euler must have exactly 3 components, got shape {np.shape(euler)}")
    if not np.isfinite(e).all():
        raise ValueError(f"euler must be finite, got {e}")
    single = e.size == 3  # a (3,) or (1, 3) triple unpacks into Python floats: cheaper, same bits
    if single:
        (cr, cp, cy), (sr, sp, sy) = np.cos(e).ravel().tolist(), np.sin(e).ravel().tolist()
    else:  # angle axis first
        first = (e.ndim - 1,) + tuple(range(e.ndim - 1))
        (cr, cp, cy), (sr, sp, sy) = np.cos(e).transpose(first), np.sin(e).transpose(first)
    a, b = cy * sp, sy * sp
    rot = np.array([
        [cy * cp, a * sr - sy * cr, a * cr + sy * sr],
        [sy * cp, b * sr + cy * cr, b * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])
    rot = rot.reshape(e.shape[:-1] + (3, 3)) if single else rot.transpose(
        tuple(range(2, rot.ndim)) + (0, 1))
    return rot, (cr, cp, cy), (sr, sp, sy)


def rotation_to_euler(rot) -> np.ndarray:
    """Euler angles (roll, pitch, yaw) such that euler_to_rotation reproduces ``rot``.

    Uses the Rz Ry Rx decomposition with pitch from atan2, exact next to the
    pitch = +-pi/2 singularity; roll is solved after yaw and absorbs its error.
    At the singularity roll is fixed to zero and the freedom folded into yaw.
    """
    r = np.asarray(rot, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    cp = np.hypot(r[0, 0], r[1, 0])
    pitch = np.arctan2(-r[2, 0], cp)
    if cp > 1e-12:  # off the singularity
        yaw = np.arctan2(r[1, 0], r[0, 0])
        cy, sy = np.cos(yaw), np.sin(yaw)
        # row 1 of Rz(yaw)^T R is (0, cos roll, -sin roll)
        roll = np.arctan2(sy * r[0, 2] - cy * r[1, 2], cy * r[1, 1] - sy * r[0, 1])
    else:
        roll = 0.0
        yaw = np.arctan2(-r[0, 1], r[1, 1])
    return np.array([roll, pitch, yaw])


def rotation_derivatives(euler):
    """Rotation matrices and their partial derivatives w.r.t. (roll, pitch, yaw).

    Returns (R, dR) with R of shape (..., 3, 3) and dR[..., k, :, :] =
    dR/d euler[k] = [a_k]x R, for the Euler axes a = (Rz Ry e_x, Rz e_y, e_z).
    """
    rot, (_, _, cos_yaw), (_, _, sin_yaw) = _rotation_trig(euler)
    axes = np.zeros(rot.shape)
    axes[..., 0, :] = rot[..., :, 0]
    axes[..., 1, 0] = -sin_yaw
    axes[..., 1, 1] = cos_yaw
    axes[..., 2, 2] = 1.0
    return rot, (axes @ _SKEW).reshape(rot.shape[:-2] + (3, 3, 3)) @ rot[..., None, :, :]


def corner_arms(size, rot) -> np.ndarray:
    """Canonical corners minus the center (..., 8, 3) for sizes (..., 3) and rotations."""
    return (CORNER_OFFSETS * np.asarray(size)[..., None, :]) @ rot.swapaxes(-1, -2)


def gaussian_sigma(size, rot) -> np.ndarray:
    """Sigma = R diag(size) R^T for sizes (..., 3) and rotations (..., 3, 3)."""
    return (rot * np.asarray(size)[..., None, :]) @ rot.swapaxes(-1, -2)


def box_corners(box) -> np.ndarray:
    """The 8 world-frame corners in canonical bit order, shape (..., 8, 3), of
    a ``Box9DoF`` or of (..., 9) box parameters."""
    p = box_params(box)
    return p[..., None, :3] + corner_arms(p[..., 3:6], euler_to_rotation(p[..., 6:]))


def signed_permutations() -> list[np.ndarray]:
    """All 48 signed permutation matrices, identity first, deterministic order.

    Each matrix has exactly one nonzero entry (+-1) per row and column.
    Applied as a reparameterization (R' = R P, size' = |P^T size|) it maps a
    box to one with the identical corner set.
    """
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            mat = np.zeros((3, 3), dtype=float)
            for col in range(3):
                mat[perm[col], col] = signs[col]
            mat.setflags(write=False)
            mats.append(mat)
    return mats


_SIGNED_PERMS = signed_permutations()


def corner_permutation_table() -> np.ndarray:
    """(48, 8) index table: row g, entry i gives the original-corner index that
    corner i of the g-th signed-permutation reparameterization coincides with:
    the corner whose local offset has the signs of P_g times corner i's."""
    signs = np.einsum("gij,kj->gik", np.array(_SIGNED_PERMS), CORNER_OFFSETS) > 0
    return np.array([4, 2, 1]) @ signs  # signs: (48, 3 axes, 8 corners)


def reparameterize_box(box: Box9DoF, perm: np.ndarray) -> Box9DoF:
    """Equivalent box under one of the 48 cuboid symmetries.

    ``perm`` must be a signed permutation matrix. Reflections (det -1) are
    normalized by flipping the first local axis, which leaves the corner set
    unchanged but keeps the orientation a proper rotation.
    """
    p = np.asarray(perm, dtype=float)
    rot = euler_to_rotation(box.euler) @ p
    size = np.abs(p.T @ box.size)
    if np.linalg.det(rot) < 0:
        rot = rot @ np.diag([-1.0, 1.0, 1.0])
    return Box9DoF(box.center.copy(), size, rotation_to_euler(rot))


def transform_box(box: Box9DoF, transform) -> Box9DoF:
    """Apply a rigid 4x4 transform to a box."""
    t = np.asarray(transform, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("transform must be 4x4")
    rot = t[:3, :3] @ euler_to_rotation(box.euler)
    center = t[:3, :3] @ box.center + t[:3, 3]
    return Box9DoF(center, box.size.copy(), rotation_to_euler(rot))


def box_to_gaussian(box: Box9DoF) -> GaussianBox:
    """Gaussian form with mean = center and sigma = R diag(w, l, h) R^T.

    Invariant under all 48 signed-permutation reparameterizations, which is
    what makes the derived Wasserstein loss orientation-ambiguity free.
    """
    sigma = gaussian_sigma(box.size, euler_to_rotation(box.euler))
    return GaussianBox(box.center.copy(), 0.5 * (sigma + sigma.T))


# ---------------------------------------------------------------------------
# Exact oriented IoU: broad phase, vertex enumeration and a hull volume.
# ---------------------------------------------------------------------------

_CLIP_EPS = 1e-9

# The 12 edges as (start, end) corner indices: corners that differ in one bit.
_EDGES = np.array([(i, i | bit) for bit in (4, 2, 1) for i in range(8) if not i & bit])
# The two other axes of each axis, in cyclic order, for the 9 edge-cross-edge axes.
_NEXT1, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])


def _params_matrix(boxes) -> np.ndarray:
    """(N, 9) parameters of a ``Box9DoF`` sequence or an (N, 9) array."""
    if isinstance(boxes, np.ndarray):
        p = box_params(boxes)
    else:
        p = np.array([box_params(b) for b in boxes], dtype=float).reshape(len(boxes), 9)
    if p.ndim != 2:
        raise ValueError(f"expected (N, 9) box parameters, got shape {p.shape}")
    return p


def _separated(center_a, half_a, rot_a, center_b, half_b, rot_b) -> np.ndarray:
    """Broad phase over K pairs: True where the boxes cannot overlap. Bounding
    spheres first, then the 15-axis separating-axis test of OBBTree (Gottschalk,
    Lin & Manocha, SIGGRAPH 1996). ``_CLIP_EPS`` is added to every |a_i . b_j|
    so that near-parallel edges (a vanishing cross axis) and rounding can only
    keep a pair, never reject one that overlaps."""
    offset = center_b - center_a
    reach = np.linalg.norm(half_a, axis=-1) + np.linalg.norm(half_b, axis=-1)
    out = np.einsum("ki,ki->k", offset, offset) > reach * reach
    near = np.flatnonzero(~out)
    if len(near) == 0:
        return out
    ha, hb = half_a[near], half_b[near]
    rel = rot_a[near].swapaxes(-1, -2) @ rot_b[near]  # rel[k, i, j] = a_i . b_j
    abs_rel = np.abs(rel) + _CLIP_EPS
    t = np.einsum("kji,kj->ki", rot_a[near], offset[near])  # offset in a's frame
    face_a = np.abs(t) > ha + np.einsum("kij,kj->ki", abs_rel, hb)
    face_b = (np.abs(np.einsum("kij,ki->kj", rel, t))
              > np.einsum("kij,ki->kj", abs_rel, ha) + hb)
    cross = (np.abs(t[:, _NEXT2, None] * rel[:, _NEXT1] - t[:, _NEXT1, None] * rel[:, _NEXT2])
             > ha[:, _NEXT1, None] * abs_rel[:, _NEXT2] + ha[:, _NEXT2, None] * abs_rel[:, _NEXT1]
             + hb[:, None, _NEXT1] * abs_rel[:, :, _NEXT2]
             + hb[:, None, _NEXT2] * abs_rel[:, :, _NEXT1])
    out[near] = face_a.any(axis=1) | face_b.any(axis=1) | cross.any(axis=(1, 2))
    return out


def _vertex_candidates(corners, center, half, rot):
    """The 80 candidate vertices of a box intersection that one box gives, over
    K pairs: its 8 corners (K, 8, 3) inside the other box (``center``, ``half``
    extents, ``rot``), and its 12 edges' crossings of the other's 6 face planes.
    Returns world points (K, 80, 3) and a mask (K, 80) of the valid ones."""
    k = len(corners)
    local = (corners - center[:, None]) @ rot  # in the other box's frame
    limit = half[:, None] + _CLIP_EPS
    inside = np.all(np.abs(local) <= limit, axis=-1)
    start, delta = local[:, _EDGES[:, 0]], local[:, _EDGES[:, 1]] - local[:, _EDGES[:, 0]]
    planes = np.stack([-half, half], axis=1)  # (K, 2, 3): sign, axis
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (planes[:, None] - start[:, :, None]) / delta[:, :, None]  # (K, 12, 2, 3)
        hits = start[:, :, None, None] + t[..., None] * delta[:, :, None, None]
    valid = (t >= 0.0) & (t <= 1.0) & np.all(np.abs(hits) <= limit[:, None, None], axis=-1)
    # world crossings from the world edge, so that they lie on it exactly
    a, b = corners[:, _EDGES[:, 0]], corners[:, _EDGES[:, 1]]
    world = a[:, :, None, None] + np.where(valid, t, 0.0)[..., None] * (b - a)[:, :, None, None]
    return (np.concatenate([corners, world.reshape(k, 72, 3)], axis=1),
            np.concatenate([inside, valid.reshape(k, 72)], axis=1))


def _intersection_volumes(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact intersection volumes (K,) of the box pairs (pa[k], pb[k]).

    The broad phase rejects separated pairs. For the rest, every vertex of the
    intersection polytope is a corner of one box inside the other or a
    crossing of one box's edge with the other's face plane; the volume of the
    convex hull of those 2 x 80 candidates is the exact volume (the
    vertex-plus-hull IoU of Objectron, Ahmadyan et al., arXiv 2012.09988). A flat
    hull means the boxes only touch: volume 0.
    """
    vol = np.zeros(len(pa))
    half_a, half_b = 0.5 * pa[:, 3:6], 0.5 * pb[:, 3:6]
    rot_a, rot_b = euler_to_rotation(pa[:, 6:]), euler_to_rotation(pb[:, 6:])
    live = np.flatnonzero(~_separated(pa[:, :3], half_a, rot_a, pb[:, :3], half_b, rot_b))
    if len(live) == 0:
        return vol
    # both orders of every live pair, (a, b) then (b, a), in one batch
    p = np.concatenate([pa[live], pb[live]])
    half = np.concatenate([half_a[live], half_b[live]])
    rot = np.concatenate([rot_a[live], rot_b[live]])
    other = np.roll(np.arange(len(p)), len(live))
    points, mask = _vertex_candidates(p[:, None, :3] + corner_arms(p[:, 3:6], rot),
                                      p[other, :3], half[other], rot[other])
    points = np.concatenate(np.split(points, 2), axis=1)
    mask = np.concatenate(np.split(mask, 2), axis=1)
    for k in np.flatnonzero(mask.sum(axis=1) >= 4):
        try:
            vol[live[k]] = ConvexHull(points[k, mask[k]]).volume
        except QhullError:
            pass  # flat hull: the boxes only touch
    return vol


def pairwise_iou(boxes_a, boxes_b) -> np.ndarray:
    """Exact oriented 3D IoU of every pair, shape (N, M), in [0, 1].

    ``boxes_a`` and ``boxes_b`` are ``Box9DoF`` sequences or (N, 9) / (M, 9)
    parameter arrays; this is the package's one exact-IoU path. Passing the
    same object twice computes each unordered pair once, so ``pairwise_iou(A,
    A)`` is exactly symmetric with a unit diagonal. Pairs with a
    near-degenerate box (any extent below ``DEGENERATE_SIZE``) yield 0 with a
    warning rather than propagating NaNs.
    """
    pa = _params_matrix(boxes_a)
    same = boxes_b is boxes_a
    pb = pa if same else _params_matrix(boxes_b)
    n, m = len(pa), len(pb)
    out = np.zeros((n, m))
    degenerate_a = np.min(pa[:, 3:6], axis=1) < DEGENERATE_SIZE
    degenerate_b = np.min(pb[:, 3:6], axis=1) < DEGENERATE_SIZE
    if (m and degenerate_a.any()) or (n and degenerate_b.any()):
        warnings.warn("degenerate box in IoU computation, returning 0", RuntimeWarning)
    if same:
        ia, ib = np.triu_indices(n, 1)
        np.fill_diagonal(out, np.where(degenerate_a, 0.0, 1.0))
    else:
        ia, ib = np.divmod(np.arange(n * m), m)
    keep = ~(degenerate_a[ia] | degenerate_b[ib])
    ia, ib = ia[keep], ib[keep]
    inter = _intersection_volumes(pa[ia], pb[ib])
    union = np.prod(pa[ia, 3:6], axis=1) + np.prod(pb[ib, 3:6], axis=1) - inter
    out[ia, ib] = np.clip(inter / union, 0.0, 1.0)
    if same:
        out[ib, ia] = out[ia, ib]
    return out


def intersection_volume(a: Box9DoF, b: Box9DoF) -> float:
    """Exact volume of the intersection polytope of two oriented boxes."""
    return float(_intersection_volumes(box_params(a)[None], box_params(b)[None])[0])


def box_iou(a: Box9DoF, b: Box9DoF) -> float:
    """Exact oriented 3D IoU of two boxes, ``pairwise_iou([a], [b])[0, 0]``."""
    return float(pairwise_iou([a], [b])[0, 0])


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-category 3D NMS.

    Within each category, detections are visited by (score desc, input index
    asc); a detection is dropped when its IoU with an already kept detection
    of the same category exceeds the threshold. Kept detections preserve that
    visiting order. Each category's IoU matrix is computed once.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    by_category: dict[int, list[int]] = {}
    for i in order:
        by_category.setdefault(dets[i].category, []).append(i)
    kept = set()
    for members in by_category.values():
        boxes = [dets[i].box for i in members]
        iou = pairwise_iou(boxes, boxes)
        survivors: list[int] = []
        for k in range(len(members)):
            if not (iou[k, survivors] > iou_threshold).any():
                survivors.append(k)
        kept.update(members[k] for k in survivors)
    return [dets[i] for i in order if i in kept]
