"""Oriented 9-DoF boxes and their geometry.

Provides the box type (center / size / Euler orientation), rotation
conversions, corner enumeration, the 48 signed-permutation symmetries of a
cuboid, the Gaussian form used by the Wasserstein box loss, exact oriented
IoU via half-space clipping, and 3D NMS.

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

DEGENERATE_SIZE = 1e-9

# [v]x flattened row-major is v @ _SKEW
_SKEW = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0],
                  [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)

# Local-frame corner offsets in canonical bit order, entries in {-0.5, +0.5}.
CORNER_OFFSETS = np.array(
    [[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)], dtype=float
) - 0.5
CORNER_OFFSETS.setflags(write=False)

# Face vertex cycles (indices into the canonical corner order), one quad per
# box face: +w, -w, +l, -l, +h, -h.
_FACE_CYCLES = (
    (4, 5, 7, 6),
    (0, 2, 3, 1),
    (2, 6, 7, 3),
    (0, 1, 5, 4),
    (1, 3, 7, 5),
    (0, 4, 6, 2),
)


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
    e = np.asarray(euler, dtype=float)
    if e.shape[-1:] != (3,):
        raise ValueError(f"euler must have exactly 3 components, got shape {np.shape(euler)}")
    if not np.isfinite(e).all():
        raise ValueError(f"euler must be finite, got {e}")
    # angle axis first; a single (3,) triple unpacks into Python floats, which
    # keeps the per-box call cheap
    first = (e.ndim - 1,) + tuple(range(e.ndim - 1))
    c, s = np.cos(e).transpose(first), np.sin(e).transpose(first)
    (cr, cp, cy), (sr, sp, sy) = (c.tolist(), s.tolist()) if e.ndim == 1 else (c, s)
    a, b = cy * sp, sy * sp
    rot = np.array([
        [cy * cp, a * sr - sy * cr, a * cr + sy * sr],
        [sy * cp, b * sr + cy * cr, b * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])
    return rot.transpose(tuple(range(2, rot.ndim)) + (0, 1))


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
    rot = euler_to_rotation(euler)
    yaw = np.asarray(euler, dtype=float)[..., 2]
    axes = np.zeros(rot.shape)
    axes[..., 0, :] = rot[..., :, 0]
    axes[..., 1, 0] = -np.sin(yaw)
    axes[..., 1, 1] = np.cos(yaw)
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
    corner i of the g-th signed-permutation reparameterization coincides with."""
    table = np.zeros((48, 8), dtype=int)
    for g, perm in enumerate(_SIGNED_PERMS):
        rows = np.argmax(np.abs(perm), axis=0)  # rows[q]: image axis of column q
        signs = perm[rows, np.arange(3)]
        for i in range(8):
            bits = [0, 0, 0]
            for q in range(3):
                b = (i >> (2 - q)) & 1
                if signs[q] < 0:
                    b ^= 1
                bits[rows[q]] = b
            table[g, i] = bits[0] * 4 + bits[1] * 2 + bits[2]
    return table


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
# Exact oriented IoU via iterative half-space clipping.
# ---------------------------------------------------------------------------

_CLIP_EPS = 1e-9


def _box_faces(box: Box9DoF) -> list[np.ndarray]:
    corners = box_corners(box)
    return [corners[list(cycle)] for cycle in _FACE_CYCLES]


def _box_halfspaces(box: Box9DoF):
    """Six (normal, offset) pairs; inside is n . x <= c."""
    rot = euler_to_rotation(box.euler)
    halfspaces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            n = sign * rot[:, axis]
            c = float(n @ box.center) + 0.5 * box.size[axis]
            halfspaces.append((n, c))
    return halfspaces


def _clip_polygon(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against n . x <= c."""
    out = []
    m = len(poly)
    dist = poly @ normal - offset
    for i in range(m):
        j = (i + 1) % m
        di, dj = dist[i], dist[j]
        if di <= _CLIP_EPS:
            out.append(poly[i])
        if (di < -_CLIP_EPS and dj > _CLIP_EPS) or (di > _CLIP_EPS and dj < -_CLIP_EPS):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out) if out else np.zeros((0, 3))


def _plane_basis(normal: np.ndarray):
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(normal, ref)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    return b1, b2


def _dedupe_points(points: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.asarray(kept)


def _clip_faces(faces: list[np.ndarray], normal: np.ndarray, offset: float):
    """Clip a convex polytope (as a face list) against one half-space."""
    all_dist = np.concatenate([poly @ normal - offset for poly in faces])
    if np.all(all_dist <= _CLIP_EPS):
        return faces  # nothing strictly outside: plane does not cut
    if np.all(all_dist >= -_CLIP_EPS):
        return []  # nothing strictly inside: empty interior
    new_faces = []
    section = []
    for poly in faces:
        clipped = _clip_polygon(poly, normal, offset)
        if len(clipped) < 3:
            continue
        on_plane = np.abs(clipped @ normal - offset) <= 10 * _CLIP_EPS
        section.extend(clipped[on_plane])
        if not np.all(on_plane):
            new_faces.append(clipped)
    if len(section) >= 3:
        pts = _dedupe_points(np.asarray(section))
        if len(pts) >= 3:
            b1, b2 = _plane_basis(normal)
            centroid = pts.mean(axis=0)
            rel = pts - centroid
            angles = np.arctan2(rel @ b2, rel @ b1)
            new_faces.append(pts[np.argsort(angles)])
    return new_faces


def _faces_volume(faces: list[np.ndarray]) -> float:
    """Volume of a convex polytope given as a list of convex face polygons."""
    if len(faces) < 4:
        return 0.0
    all_pts = np.concatenate(faces, axis=0)
    q = all_pts.mean(axis=0)
    vol = 0.0
    for poly in faces:
        a = poly[0] - q
        for i in range(1, len(poly) - 1):
            b = poly[i] - q
            c = poly[i + 1] - q
            vol += abs(np.dot(a, np.cross(b, c)))
    return vol / 6.0


def intersection_volume(a: Box9DoF, b: Box9DoF) -> float:
    """Exact volume of the intersection polytope of two oriented boxes."""
    faces = _box_faces(a)
    for normal, offset in _box_halfspaces(b):
        faces = _clip_faces(faces, normal, offset)
        if not faces:
            return 0.0
    return _faces_volume(faces)


def box_iou(a: Box9DoF, b: Box9DoF) -> float:
    """Exact oriented 3D IoU of two boxes, in [0, 1].

    Near-degenerate boxes (any extent below ``DEGENERATE_SIZE``) yield 0 with
    a warning rather than propagating NaNs out of the clipping path.
    """
    if np.min(a.size) < DEGENERATE_SIZE or np.min(b.size) < DEGENERATE_SIZE:
        warnings.warn("degenerate box in IoU computation, returning 0", RuntimeWarning)
        return 0.0
    inter = intersection_volume(a, b)
    union = a.volume() + b.volume() - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-category 3D NMS.

    Within each category, detections are visited by (score desc, input index
    asc); a detection is dropped when its IoU with an already kept detection
    of the same category exceeds the threshold. Kept detections preserve that
    visiting order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept_by_cat: dict[int, list[int]] = {}
    kept: list[Detection] = []
    for i in order:
        det = dets[i]
        suppressed = False
        for j in kept_by_cat.get(det.category, ()):
            if box_iou(det.box, dets[j].box) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept_by_cat.setdefault(det.category, []).append(i)
            kept.append(det)
    return kept
