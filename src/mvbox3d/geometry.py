"""Oriented 9-DoF boxes and their geometry.

Provides the box type (center / size / Euler orientation), rotation
conversions, corner enumeration, the 48 signed-permutation symmetries of a
cuboid, the Gaussian form used by the Wasserstein box loss, exact oriented
IoU over lists of box pairs (a separating-axis broad phase, then the volume
of the intersection polytope from its faces on the boxes' face planes), and
3D NMS.

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
import math
import warnings
from dataclasses import dataclass

import numpy as np

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
        names = ("center", "size", "euler")
        try:  # one (3, 3) array and one finite check
            fields = np.array([self.center, self.size, self.euler], dtype=float).reshape(3, 3)
            finite = all(map(math.isfinite, fields.ravel().tolist()))
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:  # field by field, so that the first bad one is named
            fields = np.stack([_as_vec3(getattr(self, name), name) for name in names])
        if min(fields[1].tolist()) <= 0.0:
            raise ValueError(f"size components must be strictly positive, got {fields[1]}")
        fields.setflags(write=False)
        for name, v in zip(names, fields):
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

    def volume(self) -> float:
        return float(np.prod(self.size))


def box_params(boxes) -> np.ndarray:
    """[x, y, z, w, l, h, roll, pitch, yaw]: (9,) of a ``Box9DoF``, (N, 9) of a list of them
    ((0, 9) if empty); (..., 9) arrays pass through. The package's one box converter."""
    if isinstance(boxes, Box9DoF):
        return boxes.to_params()
    if isinstance(boxes, (list, tuple)) and (not boxes or isinstance(boxes[0], Box9DoF)):
        return np.array([(box.center, box.size, box.euler) for box in boxes]).reshape(-1, 9)
    p = np.asarray(boxes, dtype=float)
    if p.shape[-1:] != (9,):
        raise ValueError(f"expected (..., 9) box parameters, got shape {p.shape}")
    return p


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


def corner_arms(size, rot, offsets=CORNER_OFFSETS) -> np.ndarray:
    """R (offset * size), shape (..., M, 3), for sizes (..., 3), rotations and
    normalized offsets (..., M, 3), by default the canonical corners."""
    return (offsets * np.asarray(size)[..., None, :]) @ rot.swapaxes(-1, -2)


def gaussian_sigma(size, rot) -> np.ndarray:
    """Sigma = R diag(size) R^T for sizes (..., 3) and rotations (..., 3, 3)."""
    return (rot * np.asarray(size)[..., None, :]) @ rot.swapaxes(-1, -2)


def box_corners(box, offsets=CORNER_OFFSETS) -> np.ndarray:
    """World points center + R (offset * size), shape (..., M, 3), of a
    ``Box9DoF`` or (..., 9) box parameters at normalized offsets (..., M, 3):
    by default the 8 corners in canonical bit order; aggregation passes its key points."""
    p = box_params(box)
    return p[..., None, :3] + corner_arms(p[..., 3:6], euler_to_rotation(p[..., 6:]), offsets)


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


# ---------------------------------------------------------------------------
# Exact oriented IoU: broad phase, vertex enumeration and a face-plane volume.
# ---------------------------------------------------------------------------

_CLIP_EPS = 1e-9
# A vertex is inside a box, or on a face plane, within rounding.
_PLANE_EPS = 1e-12

# The 12 edges as (start, end) corner indices: corners that differ in one bit.
_EDGES = np.array([(i, i | bit) for bit in (4, 2, 1) for i in range(8) if not i & bit])
# The two other axes of each axis, in cyclic order, for the 9 edge-cross-edge axes.
_NEXT1, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])
# The 6 face planes of a box, (axis, side), the -half side first.
_PLANE_AXIS, _PLANE_SIGN = np.repeat(np.arange(3), 2), np.tile([-1.0, 1.0], 3)
# The 18 vertex sets of a pair: on a's 6 planes, on b's 6 planes, and on both a
# plane of a and its most nearly parallel, equally oriented plane of b (whose
# polygon is subtracted). Per set: the box whose frame it is measured in, the
# plane's axis and its two in-plane axes, the sign of b's center in its
# distance from a's center, and the sign of its term.
_FACE_BOX, _FACE_AXIS = np.repeat([0, 1, 0], 6), np.tile(_PLANE_AXIS, 3)
_FACE_UV = np.stack([_NEXT1[_FACE_AXIS], _NEXT2[_FACE_AXIS]], axis=1)
_FACE_SHIFT = np.concatenate([np.zeros(6), _PLANE_SIGN, np.zeros(6)])
_FACE_WEIGHT = np.repeat([1.0, 1.0, -1.0], 6)


def _params_matrix(boxes) -> np.ndarray:
    """``box_params`` of N boxes, which must be (N, 9)."""
    p = box_params(boxes)
    if p.ndim != 2:
        raise ValueError(f"expected (N, 9) box parameters, got shape {p.shape}")
    return p


def _separated(t, ha, hb, rel) -> np.ndarray:
    """True where the boxes of K pairs cannot overlap, given b's center ``t``
    (K, 3) and axes ``rel`` (K, 3, 3) in a's frame and the half extents ``ha``
    and ``hb``: the 15-axis separating-axis test of OBBTree (Gottschalk, Lin &
    Manocha, SIGGRAPH 1996). On the 9 axes a_i x b_j it compares |t . (a_i x
    b_j)|, the entries of [t]x rel, with the boxes' reach, |[ha]x| |rel| +
    |rel| |[hb]x|. ``_CLIP_EPS`` is added to every |a_i . b_j| so that
    near-parallel edges (a vanishing cross axis) and rounding can only keep a
    pair, never reject one that overlaps."""
    abs_rel = np.abs(rel) + _CLIP_EPS
    face_a = np.abs(t) > ha + np.einsum("kij,kj->ki", abs_rel, hb)
    face_b = (np.abs(np.einsum("kij,ki->kj", rel, t))
              > np.einsum("kij,ki->kj", abs_rel, ha) + hb)
    skew_t, skew_ha, skew_hb = (v @ _SKEW for v in (t, ha, hb))
    cross = (np.abs(skew_t.reshape(-1, 3, 3) @ rel) > np.abs(skew_ha).reshape(-1, 3, 3) @ abs_rel
             + abs_rel @ np.abs(skew_hb).reshape(-1, 3, 3))
    return face_a.any(axis=1) | face_b.any(axis=1) | cross.any(axis=(1, 2))


def _vertex_candidates(corners, local, half):
    """The 80 candidate vertices of a box intersection that each box of n pairs
    gives: its 8 corners inside the other box, and its 12 edges' crossings of
    the other's 6 face planes. ``corners`` (box, 8, 3, n) are the box's corners
    in the frame of the result, ``local`` the same corners in the other box's
    frame and ``half`` (box, 3, n) the other's half extents. Returns the points
    (box, 80, 3, n) and a mask (box, 80, n) of the valid ones."""
    limit = half + _PLANE_EPS
    inside = np.all(np.abs(local) <= limit[:, None], axis=2)
    start, end = local[:, _EDGES[:, 0]], local[:, _EDGES[:, 1]]  # (box, 12, xyz, n)
    step = end - start
    planes = np.stack([-half, half], axis=1)[:, None]  # (box, 1, side, axis, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (planes - start[:, :, None]) / step[:, :, None]  # (box, 12, side, axis, n)
        hits = start[:, :, None, None] + t[:, :, :, :, None] * step[:, :, None, None]
    valid = (t > 0.0) & (t < 1.0) & np.all(np.abs(hits) <= limit[:, None, None, None], axis=4)
    # crossings from the edge in the result's frame, so that they lie on it exactly
    a, b = corners[:, _EDGES[:, 0]], corners[:, _EDGES[:, 1]]
    world = a[:, :, None, None] + np.where(valid, t, 0.0)[:, :, :, :, None] * (b - a)[:, :, None, None]
    return (np.concatenate([corners, world.reshape(2, 72, 3, -1)], axis=1),
            np.concatenate([inside, valid.reshape(2, 72, -1)], axis=1))


def _pair_vertices(pa, pb):
    """The box pairs (pa[k], pb[k]) that may overlap, and their candidate
    intersection vertices in a's frame (a centered at the origin and
    axis-aligned).

    Bounding spheres, then ``_separated``, drop the pairs that cannot overlap.
    Every vertex of the intersection polytope of a kept pair is a corner of one
    box inside the other or a crossing of one box's edge with the other's face
    plane (the vertex set of the Objectron IoU, Ahmadyan et al., arXiv
    2012.09988). Returns the kept indices (n,), b's center ``t`` (n, 3) and
    axes ``rel`` (n, 3, 3) in a's frame, the half extents (n, box, axis), and
    the 2 x 80 candidates (n, 160, 3) with their validity mask (n, 160).
    """
    offset = pb[:, :3] - pa[:, :3]
    reach = 0.5 * (np.linalg.norm(pa[:, 3:6], axis=1) + np.linalg.norm(pb[:, 3:6], axis=1))
    near = np.flatnonzero(np.einsum("ki,ki->k", offset, offset) <= reach * reach)
    if len(near) == 0:
        return near, None, None, None, None, None
    rot_a = euler_to_rotation(pa[near, 6:])
    t = np.einsum("kji,kj->ki", rot_a, offset[near])
    rel = rot_a.swapaxes(-1, -2) @ euler_to_rotation(pb[near, 6:])
    half = 0.5 * np.stack([pa[near, 3:6], pb[near, 3:6]], axis=1)
    keep = ~_separated(t, half[:, 0], half[:, 1], rel)
    live, t, rel, half = near[keep], t[keep], rel[keep], half[keep]
    if len(live) == 0:
        return live, None, None, None, None, None
    # (n, box, corner, xyz) for the matmuls, whose sums depend on the layout; the
    # enumeration on contiguous pair-last copies, one long loop per elementwise op
    corners = np.stack([2.0 * CORNER_OFFSETS * half[:, None, 0],
                        t[:, None] + corner_arms(2.0 * half[:, 1], rel)], axis=1)
    local = np.stack([(corners[:, 0] - t[:, None]) @ rel, corners[:, 1]], axis=1)
    points, mask = _vertex_candidates(*(np.ascontiguousarray(np.moveaxis(v, 0, -1))
                                        for v in (corners, local, half[:, ::-1])))
    return live, t, rel, half, points.reshape(160, 3, -1).transpose(2, 0, 1), mask.reshape(160, -1).T


def _intersection_volumes(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact intersection volumes (K,) of the box pairs (pa[k], pb[k]).

    For the pairs that may overlap, every face of the intersection polytope
    lies on one of the pair's 12 face planes: the vertices
    (``_pair_vertices``) within ``_PLANE_EPS`` of a plane, ordered by
    angle about their centroid, are its face. By the divergence theorem the
    volume is sum_f h_f A_f / 3, with h_f the plane's signed distance from a's
    center and A_f the face's area. A face that a plane of a shares with an
    equally oriented plane of b (coplanar faces, or nearly parallel ones whose
    common vertices spread across their ridge) is counted on both planes, so
    the polygon of their common vertices is subtracted once. When all vertices
    lie on one plane the polytope is flat (the boxes only touch) and the
    volume is exactly 0. Every sum over a data-sized axis is a ``cumsum``, so a
    pair's bits do not depend on the other pairs of the call.
    """
    vol = np.zeros(len(pa))
    live, t, rel, half, points, mask = _pair_vertices(pa, pb)
    if len(live) == 0:
        return vol
    # the kept vertices of each pair to the front, padded to the widest pair
    pair, count = np.arange(len(live))[:, None], mask.sum(axis=1)
    x = points[pair, np.argsort(~mask, axis=1, kind="stable")[:, :count.max()]]
    # (n, box, axis, vertex) coordinates in a's and b's frames; plane 6 box + 2 axis + side
    coords = np.stack([x, (x - t[:, None]) @ rel], axis=1).swapaxes(-1, -2)
    on = ((np.abs(coords[..., None, :] - [[-1.0], [1.0]] * half[..., None, None]) <= _PLANE_EPS)
          & (np.arange(x.shape[1]) < count[:, None])[:, None, None, None]).reshape(len(x), 12, -1)
    flat = (on.sum(axis=-1) == count[:, None]).any(axis=1)
    # each plane of a with its most nearly parallel, equally oriented plane of b
    twin = np.argmax(np.outer(_PLANE_SIGN, _PLANE_SIGN) * rel[:, _PLANE_AXIS[:, None], _PLANE_AXIS], 2)
    on = np.concatenate([on, on[:, :6] & on[pair, 6 + twin]], axis=1)
    fl, ff = np.nonzero((on.sum(axis=-1) >= 3) & ~flat[:, None])
    if len(fl) == 0:
        return vol
    # each polygon's vertices in its plane's 2D axes, about their centroid, by angle
    on = on[fl, ff, None]
    k = on.sum(axis=2, keepdims=True)
    uv = np.where(on, coords[fl[:, None], _FACE_BOX[ff, None], _FACE_UV[ff]], 0.0)
    uv = np.where(on, uv - np.cumsum(uv, axis=2)[..., -1:] / k, 0.0)
    order = np.argsort(np.where(on[:, 0], np.arctan2(uv[:, 1], uv[:, 0]), np.inf), 1, kind="stable")
    rows = np.arange(0, uv.size, uv.shape[2]).reshape(len(fl), 2, 1)  # flat (face, uv) offsets
    uv = uv.take(rows + order[:, None])
    nxt = np.arange(1, uv.shape[2] + 1)
    nxt = uv.take(rows + np.where(nxt < k, nxt, 0))
    twice_area = np.cumsum(uv[:, 0] * nxt[:, 1] - uv[:, 1] * nxt[:, 0], axis=1)[:, -1]
    # a's planes lie half_a from its center; b's are shifted by b's center in b's frame
    height = _FACE_WEIGHT * (half[:, _FACE_BOX, _FACE_AXIS]
                             + _FACE_SHIFT * np.einsum("ki,kij->kj", t, rel)[:, _FACE_AXIS])
    terms = np.zeros_like(height)
    terms[fl, ff] = height[fl, ff] * twice_area
    vol[live] = np.cumsum(terms, axis=1)[:, -1] / 6.0
    return vol


def paired_iou(pa, pb) -> np.ndarray:
    """Exact oriented 3D IoU of the box pairs (pa[k], pb[k]), shape (K,), in [0, 1].

    ``pa`` and ``pb`` are (K, 9) parameter arrays or ``Box9DoF`` sequences of
    equal length. This is the package's one exact-IoU kernel: callers pool
    every pair they need into one call, and a pair's value does not depend on
    the other pairs of the call. Pairs with a near-degenerate box (any extent
    below ``DEGENERATE_SIZE``) yield 0 with a warning rather than NaNs.
    """
    pa, pb = _params_matrix(pa), _params_matrix(pb)
    if len(pa) != len(pb):
        raise ValueError(f"paired_iou needs equal numbers of boxes, got {len(pa)} and {len(pb)}")
    ok = ~(np.minimum(pa[:, 3:6].min(axis=1), pb[:, 3:6].min(axis=1)) < DEGENERATE_SIZE)
    if not ok.all():
        warnings.warn("degenerate box in IoU computation, returning 0", RuntimeWarning)
    out = np.zeros(len(pa))
    inter = _intersection_volumes(pa[ok], pb[ok])
    union = np.prod(pa[ok, 3:6], axis=1) + np.prod(pb[ok, 3:6], axis=1) - inter
    out[ok] = np.clip(inter / union, 0.0, 1.0)
    return out


def pairwise_iou(boxes_a, boxes_b) -> np.ndarray:
    """Exact oriented 3D IoU of every pair, shape (N, M), in [0, 1]: a
    ``paired_iou`` call on all (i, j) index pairs.

    ``boxes_a`` and ``boxes_b`` are ``Box9DoF`` sequences or (N, 9) / (M, 9)
    parameter arrays. Passing the same object twice computes each unordered
    pair once, so ``pairwise_iou(A, A)`` is exactly symmetric with a unit
    diagonal (0, with the warning, for a degenerate box).
    """
    pa = _params_matrix(boxes_a)
    if boxes_b is not boxes_a:
        pb = _params_matrix(boxes_b)
        return paired_iou(np.repeat(pa, len(pb), axis=0), np.tile(pb, (len(pa), 1))).reshape(
            len(pa), len(pb))
    ia, ib = np.triu_indices(len(pa), 1)
    diagonal = np.flatnonzero(pa[:, 3:6].min(axis=1) < DEGENERATE_SIZE)  # 0 from the kernel
    ia, ib = np.concatenate([ia, diagonal]), np.concatenate([ib, diagonal])
    out = np.eye(len(pa))
    out[ia, ib] = out[ib, ia] = paired_iou(pa[ia], pa[ib])
    return out


def intersection_volume(a: Box9DoF, b: Box9DoF) -> float:
    """Exact volume of the intersection polytope of two oriented boxes."""
    return float(_intersection_volumes(box_params(a)[None], box_params(b)[None])[0])


def box_iou(a: Box9DoF, b: Box9DoF) -> float:
    """Exact oriented 3D IoU of two boxes, ``paired_iou([a], [b])[0]``."""
    return float(paired_iou(box_params(a)[None], box_params(b)[None])[0])


def nms_scenes(dets_by_scene: dict, iou_threshold: float) -> dict:
    """Greedy per-category 3D NMS of every scene: ``{scene: nms(dets)}``.

    Within each scene and category, detections are visited by (score desc,
    input index asc); a detection is dropped when its IoU with an already
    kept detection of the same scene and category exceeds the threshold. Kept
    detections preserve that visiting order. The IoU of every same-category
    pair of every scene comes from one ``paired_iou`` call; a pair's value does
    not depend on the other pairs of the call, so pooling the scenes changes
    nothing.
    """
    # per scene: its visiting order and the offset of its boxes in the pool
    visits, first, second, boxes = [], [], [], []
    for dets in dets_by_scene.values():
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        base = len(boxes)
        # (i, j) for every detection i and every same-category j visited before it
        for k, i in enumerate(order):
            for j in order[:k]:
                if dets[j].category == dets[i].category:
                    first.append(base + i)
                    second.append(base + j)
        visits.append((dets, order, base))
        boxes.extend(d.box for d in dets)
    params = box_params(boxes)
    over = paired_iou(params[first], params[second]) > iou_threshold
    suppressors: dict[int, list[int]] = {}
    for k in np.flatnonzero(over).tolist():
        suppressors.setdefault(first[k], []).append(second[k])
    out = {}
    for scene, (dets, order, base) in zip(dets_by_scene, visits):
        kept: set[int] = set()
        for i in order:
            if not any(j in kept for j in suppressors.get(base + i, ())):
                kept.add(base + i)
        out[scene] = [dets[i] for i in order if base + i in kept]
    return out


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-category 3D NMS of one scene's detections, the one-scene
    view of ``nms_scenes``: kept detections in (score desc, input index asc)
    order."""
    return nms_scenes({None: dets}, iou_threshold)[None]
