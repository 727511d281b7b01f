"""Reference implementations that the tests compare the library against.

* ``oracle_intersection_volume`` / ``oracle_iou``: the exact oriented-box
  intersection by Sutherland-Hodgman clipping of one box's faces against the
  other's six half-spaces, one pair at a time. It shares no code with
  ``geometry.pairwise_iou`` beyond the box corners and rotations.
* ``chamfer_tie_margin`` / ``pcd_tie_margin``: how close a (pred, gt) pair is
  to a switch of the active corner pairs of the corner chamfer or permutation
  corner loss; finite differences are not compared across such a switch.
"""

import numpy as np

from mvbox3d.geometry import box_corners, corner_permutation_table, euler_to_rotation

_CLIP_EPS = 1e-9

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


def _box_faces(box):
    corners = box_corners(box)
    return [corners[list(cycle)] for cycle in _FACE_CYCLES]


def _box_halfspaces(box):
    """Six (normal, offset) pairs; inside is n . x <= c."""
    rot = euler_to_rotation(box.euler)
    halfspaces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            n = sign * rot[:, axis]
            c = float(n @ box.center) + 0.5 * box.size[axis]
            halfspaces.append((n, c))
    return halfspaces


def _clip_polygon(poly, normal, offset):
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


def _plane_basis(normal):
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(normal, ref)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    return b1, b2


def _dedupe_points(points, tol=1e-8):
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.asarray(kept)


def _clip_faces(faces, normal, offset):
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


def _faces_volume(faces):
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


def oracle_intersection_volume(a, b):
    """Volume of the intersection of two ``Box9DoF`` by clipping a's faces."""
    faces = _box_faces(a)
    for normal, offset in _box_halfspaces(b):
        faces = _clip_faces(faces, normal, offset)
        if not faces:
            return 0.0
    return _faces_volume(faces)


def oracle_iou(a, b):
    """Oriented IoU of two non-degenerate ``Box9DoF`` from the clipped volume."""
    inter = oracle_intersection_volume(a, b)
    union = a.volume() + b.volume() - inter
    return float(min(1.0, max(0.0, inter / union)))


def chamfer_tie_margin(pred, gt):
    """Smallest gap between a corner's nearest and second-nearest corner of
    the other box, over both directions of the corner chamfer."""
    dist = np.linalg.norm(box_corners(pred)[:, None] - box_corners(gt)[None, :], axis=2)
    margins = []
    for axis in (0, 1):
        part = np.sort(dist, axis=axis)
        margins.append(np.min(part[1] - part[0]) if axis == 0 else np.min(part[:, 1] - part[:, 0]))
    return min(margins)


def pcd_tie_margin(pred, gt):
    """Gap between the best and second-best of the 48 corner orderings."""
    pc = box_corners(pred)
    orderings = box_corners(gt)[corner_permutation_table()]
    means = np.linalg.norm(pc[None] - orderings, axis=2).mean(axis=1)
    top2 = np.sort(means)[:2]
    return top2[1] - top2[0]
