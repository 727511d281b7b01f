"""Reference implementations that the tests compare the library against.

* ``oracle_intersection_volume`` / ``oracle_iou``: the exact oriented-box
  intersection by Sutherland-Hodgman clipping of one box's faces against the
  other's six half-spaces, one pair at a time. It shares no code with
  ``geometry.pairwise_iou`` beyond the box corners and rotations.
* ``oracle_hull_volume``: the volume of the convex hull (Qhull) of the
  intersection vertices that ``geometry`` enumerates, one pair at a time; 0
  when there are fewer than 4 or their hull is flat. It checks the
  library's face-plane volume of the same vertices.
* ``oracle_box_to_gaussian``: the Gaussian form of one box, (mean, sigma)
  with sigma = R diag(w, l, h) R^T symmetrized, R composed from the three
  single-axis rotations.
* ``oracle_pair_vertices`` / ``oracle_vertex_candidates``: the broad phase
  and candidate intersection vertices of box pairs with the pair axis first,
  so that every elementwise op runs over an axis of length 2 or 3, and every
  temporary is a fresh array.
* ``chamfer_tie_margin`` / ``pcd_tie_margin``: how close a (pred, gt) pair is
  to a switch of the active corner pairs of the corner chamfer or permutation
  corner loss; finite differences are not compared across such a switch.
* ``oracle_bilinear_warp`` / ``oracle_standardize_warp``: bilinear sampling
  from a float64 copy of the image at full-size coordinate arrays, and the
  intrinsic standardization warp built on full (H, W) index meshgrids.
* ``oracle_frustum_point_grid``, ``oracle_point_position_embedding``,
  ``oracle_image_position_embedding`` and ``oracle_expected_frustum_points``:
  the literal position encoding, which embeds every frustum point
  t + d_k R r of a (h, w, K, 3) grid and collapses the (h, w, K, C)
  embeddings with the depth weights, IPE = sum_k D_k PPE(p_k).
* ``oracle_project``: the pinhole projection of one point in Python floats.
* ``oracle_aggregation_weights``: the masked softmax of one query's (M, N)
  key-point/view logits.
* ``oracle_aggregate``: deformable aggregation one query at a time, that
  samples one key point of one view at a time (``oracle_bilinear_sample``)
  and adds it to the query's update in a Python double loop.
* ``oracle_heatmap_csv``: the heatmap CSV formatted from numpy scalars, one
  indexed cell at a time.
* ``oracle_render_view``: the owner and depth grids of one view, painted box
  by box with a monotone-chain hull over ``np.unique`` points and one
  full-grid meshgrid half-plane test per hull edge.
* ``oracle_hungarian``: the lexicographically smallest optimal assignment
  found by fixing one row at a time and re-solving the rest with
  ``linear_sum_assignment``, O(P * G) solves per call.
* ``oracle_fit_single_box``: the box fit as a loop over one box, with the
  raw ground-truth parameters passed to the loss at every step and each
  parameter block normed and stepped on its own.
* ``oracle_nms``: NMS of one scene with its own ``paired_iou`` call, the
  suppressing pairs kept in a set of (i, j) tuples.
* ``oracle_greedy_flags``: the greedy matcher on a numpy IoU matrix, one
  masked ``np.argmax`` per detection.
* ``oracle_average_precision``: all-point AP with the precision envelope
  taken by a right-to-left Python loop.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError

from mvbox3d.aggregation import (
    FIXED_KEYPOINT_OFFSETS,
    AggregationWeights,
    camera_descriptor,
    keypoint_validity,
    learnable_keypoint_offsets,
)
from mvbox3d.camera import PixelDepth, SingularProjectionError, frustum_rays, project_points
from mvbox3d.geometry import (
    _EDGES,
    _PLANE_EPS,
    CORNER_OFFSETS,
    Box9DoF,
    _pair_vertices,
    _separated,
    box_corners,
    corner_arms,
    corner_permutation_table,
    euler_to_rotation,
    paired_iou,
)
from mvbox3d.harness import (
    _GRAD_TINY,
    _MIN_FIT_SIZE,
    _STALL_ENTER_DROP,
    _STALL_EXIT_DROP,
    _STALL_LOSS_FLOOR,
    _STALL_WINDOW,
    FitTrace,
)
from mvbox3d.losses import get_box_loss
from mvbox3d.matching import _TIE_TOL

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


def oracle_hull_volume(a, b):
    """Volume of the convex hull of the enumerated intersection vertices of two
    ``Box9DoF``: 0 for a pair the broad phase rejects, for fewer than 4
    vertices and for a flat hull (the boxes only touch)."""
    live, *_, points, mask = _pair_vertices(a.to_params()[None], b.to_params()[None])
    if len(live) == 0 or mask[0].sum() < 4:
        return 0.0
    try:
        return float(ConvexHull(points[0, mask[0]]).volume)
    except QhullError:
        return 0.0


def oracle_box_to_gaussian(box):
    """(mean, sigma) of a ``Box9DoF``: sigma = R diag(w, l, h) R^T, symmetrized,
    with R = Rz(yaw) Ry(pitch) Rx(roll) multiplied out from its factors."""
    (cr, cp, cy), (sr, sp, sy) = np.cos(box.euler), np.sin(box.euler)
    rot = (np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
           @ np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
           @ np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]))
    sigma = rot @ np.diag(box.size) @ rot.T
    return box.center.copy(), 0.5 * (sigma + sigma.T)


def oracle_vertex_candidates(corners, local, half):
    """The 80 candidate vertices that one box gives, pair-first: ``corners``
    and ``local`` (..., 8, 3) and the other box's ``half`` (..., 3); returns
    the points (..., 80, 3) and their mask (..., 80)."""
    limit = half + _PLANE_EPS
    inside = np.all(np.abs(local) <= limit[..., None, :], axis=-1)
    start, end = local[..., _EDGES[:, 0], :], local[..., _EDGES[:, 1], :]
    planes = np.stack([-half, half], axis=-2)[..., None, :, :]  # (..., 1, side, axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (planes - start[..., None, :]) / (end - start)[..., None, :]  # (..., 12, 2, 3)
        hits = start[..., None, None, :] + t[..., None] * (end - start)[..., None, None, :]
    valid = (t > 0.0) & (t < 1.0) & np.all(np.abs(hits) <= limit[..., None, None, None, :], axis=-1)
    a, b = corners[..., _EDGES[:, 0], :], corners[..., _EDGES[:, 1], :]
    world = a[..., None, None, :] + np.where(valid, t, 0.0)[..., None] * (b - a)[..., None, None, :]
    return (np.concatenate([corners, world.reshape(world.shape[:-4] + (72, 3))], axis=-2),
            np.concatenate([inside, valid.reshape(valid.shape[:-3] + (72,))], axis=-1))


def oracle_pair_vertices(pa, pb):
    """``geometry._pair_vertices`` with the pair axis first: the kept indices,
    ``t`` (n, 3), ``rel`` (n, 3, 3), the half extents (n, 2, 3), and the
    candidates (n, 160, 3) with their mask (n, 160)."""
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
    corners = np.stack([2.0 * CORNER_OFFSETS * half[:, None, 0],
                        t[:, None] + corner_arms(2.0 * half[:, 1], rel)], axis=1)
    local = np.stack([(corners[:, 0] - t[:, None]) @ rel, corners[:, 1]], axis=1)
    points, mask = oracle_vertex_candidates(corners, local, half[:, ::-1])
    return live, t, rel, half, points.reshape(len(live), 160, 3), mask.reshape(len(live), 160)


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


def oracle_bilinear_warp(image, src_u, src_v):
    """Sample ``image`` at same-shape coordinate arrays with zero fill outside."""
    img = np.asarray(image, dtype=float)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[..., None]
    height, width = img.shape[:2]
    valid = (src_u >= 0) & (src_u <= width - 1) & (src_v >= 0) & (src_v <= height - 1)
    u = np.clip(src_u, 0, width - 1)
    v = np.clip(src_v, 0, height - 1)
    u0 = np.floor(u).astype(int)
    v0 = np.floor(v).astype(int)
    u1 = np.minimum(u0 + 1, width - 1)
    v1 = np.minimum(v0 + 1, height - 1)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    out = (
        img[v0, u0] * (1 - fu) * (1 - fv)
        + img[v0, u1] * fu * (1 - fv)
        + img[v1, u0] * (1 - fu) * fv
        + img[v1, u1] * fu * fv
    )
    out[~valid] = 0.0
    return out[..., 0] if squeeze else out


def oracle_standardize_warp(image, cam, std_intrinsics):
    """The image warped to ``std_intrinsics``, sampled at full index meshgrids."""
    img = np.asarray(image, dtype=float)
    height, width = img.shape[:2]
    fu_s, fv_s, cu_s, cv_s = cam.intrinsics
    fu_t, fv_t, cu_t, cv_t = np.asarray(std_intrinsics, dtype=float)
    jj, ii = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    src_u = fu_s * (jj - cu_t) / fu_t + cu_s
    src_v = fv_s * (ii - cv_t) / fv_t + cv_s
    return oracle_bilinear_warp(img, src_u, src_v)


@dataclass(frozen=True)
class FrustumPointGrid:
    """World-frame sample points of a camera frustum: points[i, j, k] lies on
    the ray of pixel (pixel_u[j], pixel_v[i]) at camera-frame depth depths[k]."""

    points: np.ndarray  # (h, w, K, 3)
    pixel_u: np.ndarray  # (w,)
    pixel_v: np.ndarray  # (h,)
    depths: np.ndarray  # (K,)


def oracle_frustum_point_grid(cam, grid_hw, max_depth, num_depths):
    """Every frustum point t + d_k R r of ``camera.frustum_rays`` in one grid."""
    us, vs, rays, depths = frustum_rays(cam, grid_hw, max_depth, num_depths)
    points = rays[:, :, None] * depths[:, None] @ cam.extrinsics[:3, :3].T + cam.extrinsics[:3, 3]
    return FrustumPointGrid(points, us, vs, depths)


def oracle_point_position_embedding(grid, params):
    """PPE(p) of every frustum point, an (h, w, K, C) array."""
    return params.apply(grid.points)


def oracle_image_position_embedding(ppe, dt):
    """IPE = sum_k D_k PPE(p_k): (h, w, K, C) point embeddings collapsed with
    (h, w, K) depth weights."""
    ppe = np.asarray(ppe, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if ppe.shape[:3] != dt.shape:
        raise ValueError(f"shape mismatch: PPE {ppe.shape[:3]} vs DT {dt.shape}")
    return np.einsum("hwkc,hwk->hwc", ppe, dt)


def oracle_expected_frustum_points(grid, dt):
    """E[p] = sum_k D_k p_k, the depth-weighted mean frustum point, (h, w, 3)."""
    return np.einsum("hwkc,hwk->hwc", grid.points, np.asarray(dt, dtype=float))


def oracle_bilinear_sample(grid, u, v):
    """Bilinear interpolation of an (H, W, C) grid at one in-range point."""
    height, width = grid.shape[:2]
    u0, v0 = int(math.floor(u)), int(math.floor(v))
    u1, v1 = min(u0 + 1, width - 1), min(v0 + 1, height - 1)
    du, dv = u - u0, v - v0
    return (
        grid[v0, u0] * (1 - du) * (1 - dv)
        + grid[v0, u1] * du * (1 - dv)
        + grid[v1, u0] * (1 - du) * dv
        + grid[v1, u1] * du * dv
    )


def oracle_project(cam, world):
    """Pixel coordinates and depth of one finite world point from scalar
    camera-frame coordinates: R^T (p - t), then (fu x / d + cu, fv y / d + cv)
    for any nonzero depth d, also a negative one."""
    p = np.asarray(world, dtype=float).reshape(3)
    rot = cam.extrinsics[:3, :3]
    x, y, d = (rot.T @ (p - cam.extrinsics[:3, 3])).tolist()
    if d == 0.0:
        raise SingularProjectionError("point lies on the camera plane (depth 0)")
    fu, fv, cu, cv = cam.intrinsics.tolist()
    return PixelDepth(fu * x / d + cu, fv * y / d + cv, d)


def oracle_aggregation_weights(query, cams, validity, params):
    """``aggregation_weights`` of one query: the joint softmax over the (M, N)
    logits shifted by the largest valid one, invalid entries zeroed, divided
    by the sum."""
    valid = np.asarray(validity, dtype=bool)
    m, n = valid.shape
    desc = np.concatenate(
        [query.feature, query.anchor.to_params()] + [camera_descriptor(c) for c in cams]
    )
    logits = params.apply(desc).reshape(m, n)
    if not valid.any():
        return AggregationWeights(np.zeros((m, n)), True)
    shifted = logits - logits[valid].max()
    weights = np.where(valid, np.exp(shifted), 0.0)
    weights /= weights.sum()
    return AggregationWeights(weights, False)


def oracle_aggregate(queries, feature_maps, cams, params):
    """``aggregate`` one query, one key point and one view at a time."""
    out = []
    flags = []
    for query in queries:
        offsets = np.concatenate(
            [FIXED_KEYPOINT_OFFSETS,
             learnable_keypoint_offsets(query.feature, params.offset_params)]
        )
        points = box_corners(query.anchor, offsets)
        valid = np.zeros((len(points), len(cams)), dtype=bool)
        coords = np.zeros((len(points), len(cams), 2))
        for n, (cam, fm) in enumerate(zip(cams, feature_maps)):
            ok, fu, fv = keypoint_validity(cam, fm, points, params.max_depth)
            valid[:, n] = ok
            coords[:, n, 0] = np.where(ok, fu, 0.0)
            coords[:, n, 1] = np.where(ok, fv, 0.0)
        w = oracle_aggregation_weights(query, cams, valid, params.weight_params)
        acc = np.zeros(feature_maps[0].grid.shape[2])
        for i in range(len(points)):
            for n in range(len(cams)):
                if valid[i, n]:
                    acc += w.weights[i, n] * oracle_bilinear_sample(
                        feature_maps[n].grid, *coords[i, n])
        out.append(acc)
        flags.append(w.all_invalid)
    return np.asarray(out), flags


def oracle_heatmap_csv(result):
    """The heatmap CSV, formatting one indexed numpy scalar at a time."""
    lines = ["i,j,similarity,ray_distance"]
    h, w = result.similarity.shape
    for i in range(h):
        for j in range(w):
            lines.append(
                f"{i},{j},{result.similarity[i, j]:.9g},{result.ray_distance[i, j]:.9g}"
            )
    return "\n".join(lines) + "\n"


def _oracle_hull_2d(points):
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2 and cross2(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    return np.asarray(half(pts)[:-1] + half(pts[::-1])[:-1])


def oracle_render_view(scene, view, config):
    """(owner, depth) grids of one view: each cell belongs to the nearest
    center depth among the boxes whose projected hull contains it, the first
    box on a tie; -1 and depth 0 for the background."""
    cam = scene.cameras[view]
    stride = config.feature_stride
    fh, fw = config.image_height // stride, config.image_width // stride
    uu, vv = np.meshgrid(np.arange(fw) * float(stride), np.arange(fh) * float(stride))
    owner = np.full((fh, fw), -1, dtype=int)
    owner_depth = np.full((fh, fw), np.inf)
    for idx, box in enumerate(scene.gt_boxes):
        u, v, d = project_points(cam, box_corners(box))
        front = d > 1e-6
        if front.sum() < 3:
            continue
        rot = cam.extrinsics[:3, :3]
        center_depth = float((box.center - cam.extrinsics[:3, 3]) @ rot[:, 2])
        if center_depth <= 0:
            continue
        hull = _oracle_hull_2d(np.column_stack([u[front], v[front]]))
        inside = np.full(uu.shape, len(hull) >= 3)
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            inside &= (b[0] - a[0]) * (vv - a[1]) - (b[1] - a[1]) * (uu - a[0]) >= 0
        closer = inside & (owner_depth > center_depth)
        owner[closer] = idx
        owner_depth[closer] = center_depth
    return owner, np.where(np.isfinite(owner_depth), owner_depth, 0.0)


def _optimal_cost(cost):
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def oracle_hungarian(cost):
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


def oracle_fit_single_box(gt, init, loss_kind, config):
    """One box fit as a loop over 0-d steps: the raw ground-truth parameters
    go to the loss at every step, and the three block norms, the stall state
    and the trace's gradient norm are Python scalars."""
    loss_fn = get_box_loss(loss_kind)
    gt_params = gt.to_params()
    steps = config.fit_steps
    params = init.to_params()
    losses = np.empty(steps)
    grad_norms = np.empty(steps)
    traj = np.empty((steps, 9))
    boosted_steps = np.zeros(steps, dtype=bool)
    blocks = (slice(0, 3), slice(3, 6), slice(6, 9))
    boosted = False
    for step in range(steps):
        params[3:6] = np.maximum(params[3:6], _MIN_FIT_SIZE)
        if not np.isfinite(params).all():
            Box9DoF.from_params(params)  # raises the ValueError naming the bad block
        res = loss_fn(params, gt_params)
        losses[step] = res.value
        grad_norms[step] = float(np.linalg.norm(res.grad))
        traj[step] = params
        window_drop = (
            losses[step - _STALL_WINDOW] - losses[step] if step >= _STALL_WINDOW else np.inf
        )
        if not boosted:
            boosted = window_drop < _STALL_ENTER_DROP and res.value > _STALL_LOSS_FLOOR
        elif res.value <= _STALL_LOSS_FLOOR or window_drop > _STALL_EXIT_DROP:
            boosted = False
        boosted_steps[step] = boosted
        new_params = params.copy()
        for blk in blocks:
            g = res.grad[blk]
            norm = float(np.linalg.norm(g))
            if boosted and blk.start >= 3 and norm > _GRAD_TINY:
                scale = config.learning_rate / norm
            else:
                scale = config.learning_rate / max(1.0, norm)
            new_params[blk] = params[blk] - g * scale
        params = new_params
    params[3:6] = np.maximum(params[3:6], _MIN_FIT_SIZE)
    final_params = params
    final_loss = float(loss_fn(final_params, gt_params).value)
    best = int(np.argmin(losses))
    if losses[best] < final_loss:
        final_params = traj[best]
        final_loss = float(losses[best])
    return FitTrace(losses, grad_norms, traj, boosted_steps,
                    Box9DoF.from_params(final_params), final_loss, best)


def oracle_nms(dets, iou_threshold):
    """Greedy per-category NMS of one scene: a detection visited by (score
    desc, input index asc) is dropped when its IoU with a kept detection of
    its category exceeds the threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    pairs = [(i, j) for k, i in enumerate(order) for j in order[:k]
             if dets[j].category == dets[i].category]
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T
    params = np.array([d.box.to_params() for d in dets], dtype=float).reshape(len(dets), 9)
    over = paired_iou(params[first], params[second]) > iou_threshold
    suppressed_by = {pair for pair, hit in zip(pairs, over.tolist()) if hit}
    kept = set()
    for i in order:
        if not any((i, j) in suppressed_by for j in kept):
            kept.add(i)
    return [dets[i] for i in order if i in kept]


def oracle_greedy_flags(iou, order, iou_threshold):
    """TP/FP flags of the rows of the (D, G) matrix ``iou`` in ``order``: each
    takes the untaken column with the highest positive IoU, lowest index on
    ties, if that IoU reaches the threshold."""
    if iou.shape[1] == 0:
        return [False] * len(order)
    taken = np.zeros(iou.shape[1], dtype=bool)
    flags = []
    for i in order:
        row = np.where(taken, 0.0, iou[i])
        g = int(np.argmax(row))
        hit = bool(row[g] > 0.0 and row[g] >= iou_threshold)
        taken[g] |= hit
        flags.append(hit)
    return flags


def oracle_average_precision(flags, num_gt):
    """All-point interpolated AP over score-ordered TP/FP flags."""
    if num_gt == 0 or len(flags) == 0:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[0.0], precision])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))
