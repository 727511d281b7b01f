"""Multi-view 3D deformable aggregation.

For each query (feature vector + 9-DoF anchor box) this module generates key
points inside the box, projects them into every view, samples features
bilinearly where the projection is valid, and combines the samples with a
masked softmax over predicted weights. Also hosts K-Means anchor generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, bilinear_warp, project_points
from .enhancer import FeatureMap, LinearParams
from .geometry import Box9DoF, euler_to_rotation

# Stereo center plus the six face centers, in normalized box coordinates.
FIXED_KEYPOINT_OFFSETS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [-0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [0.0, -0.5, 0.0],
        [0.0, 0.0, 0.5],
        [0.0, 0.0, -0.5],
    ]
)
FIXED_KEYPOINT_OFFSETS.setflags(write=False)

NUM_LEARNABLE_KEYPOINTS = 9
NUM_KEYPOINTS = len(FIXED_KEYPOINT_OFFSETS) + NUM_LEARNABLE_KEYPOINTS


@dataclass(frozen=True)
class Query:
    """Decoder query: feature vector paired with a box anchor."""

    feature: np.ndarray
    anchor: Box9DoF

    def __post_init__(self):
        feature = np.asarray(self.feature, dtype=float).reshape(-1)
        if not np.all(np.isfinite(feature)):
            raise ValueError("query feature must be finite")
        feature.setflags(write=False)
        object.__setattr__(self, "feature", feature)


@dataclass(frozen=True)
class AggregationWeights:
    """Masked key-point/view weights: invalid entries are exactly zero and the
    valid ones sum to 1; ``all_invalid`` flags the degenerate no-sample case."""

    weights: np.ndarray  # (M, N)
    all_invalid: bool


@dataclass
class AggregationParams:
    """Networks and limits used by ``aggregate``."""

    offset_params: LinearParams  # query feature -> 27 (9 offsets)
    weight_params: LinearParams  # concat(query, box, cameras) -> M * N
    max_depth: float = math.inf


def learnable_keypoint_offsets(query_feature, params: LinearParams) -> np.ndarray:
    """Regress 9 offsets from the query feature, shape (9, 3), unclamped."""
    feature = np.asarray(query_feature, dtype=float).reshape(-1)
    if params.out_dim != 3 * NUM_LEARNABLE_KEYPOINTS:
        raise ValueError(
            f"{params.role}: offset head must emit {3 * NUM_LEARNABLE_KEYPOINTS} values"
        )
    return params.apply(feature).reshape(NUM_LEARNABLE_KEYPOINTS, 3)


def keypoints_world(box: Box9DoF, offsets) -> np.ndarray:
    """World positions center + R (offset * size) for each normalized offset."""
    off = np.asarray(offsets, dtype=float).reshape(-1, 3)
    rot = euler_to_rotation(box.euler)
    return box.center + (off * box.size) @ rot.T


def camera_descriptor(cam: CameraModel) -> np.ndarray:
    """16 scalars per view: intrinsics then the top 3 extrinsic rows, row-major."""
    return np.concatenate([cam.intrinsics, cam.extrinsics[:3, :].ravel()])


def aggregation_weights(query: Query, cams: list[CameraModel], validity,
                        params: LinearParams) -> AggregationWeights:
    """Masked softmax weights over all (key point, view) pairs.

    Logits come from an affine map over concat(query feature, box parameters,
    per-view camera descriptors). The softmax runs jointly over the M x N
    grid with invalid entries excluded; if nothing is valid the weights are
    all zero and the flag is set.
    """
    valid = np.asarray(validity, dtype=bool)
    if valid.ndim != 2 or valid.shape[1] != len(cams):
        raise ValueError("validity must be (M, N) with one column per camera")
    m, n = valid.shape
    desc = np.concatenate(
        [query.feature, query.anchor.to_params()] + [camera_descriptor(c) for c in cams]
    )
    if params.in_dim != desc.size:
        raise ValueError(f"{params.role}: expected input dim {desc.size}, got {params.in_dim}")
    if params.out_dim != m * n:
        raise ValueError(f"{params.role}: expected output dim {m * n}, got {params.out_dim}")
    logits = params.apply(desc).reshape(m, n)
    if not valid.any():
        return AggregationWeights(np.zeros((m, n)), True)
    shifted = logits - logits[valid].max()
    weights = np.where(valid, np.exp(shifted), 0.0)
    weights /= weights.sum()
    return AggregationWeights(weights, False)


def keypoint_validity(cam: CameraModel, fm: FeatureMap, points,
                      max_depth: float = math.inf):
    """Per-point validity and feature-grid coordinates for one view.

    A point is valid when its depth is in (0, max_depth], its pixel lies in
    the image, and the corresponding feature-grid coordinate is inside the
    sampling footprint of the map.
    """
    u, v, d = project_points(cam, points)
    width, height = cam.image_size
    fh, fw = fm.grid.shape[:2]
    with np.errstate(invalid="ignore"):
        valid = (
            (d > 0)
            & (d <= max_depth)
            & (u >= 0.0)
            & (u <= width - 1)
            & (v >= 0.0)
            & (v <= height - 1)
        )
    fu = u / fm.stride
    fv = v / fm.stride
    valid &= np.where(np.isfinite(fu), (fu <= fw - 1) & (fv <= fh - 1), False)
    return valid, fu, fv


def aggregate(queries: list[Query], feature_maps: list[FeatureMap],
              cams: list[CameraModel], params: AggregationParams):
    """Updated feature per query: the masked-weighted sum of sampled features.

    The key points of all queries are projected into each view together, and
    the valid (query, key point) pairs of a view are sampled in one
    ``bilinear_warp`` call. A query's update adds its weighted samples key
    point by key point, view by view.

    Returns:
        (features, all_invalid_flags): an (n_queries, C) array and a boolean
        list marking queries whose key points were invalid in every view
        (those rows are zero).
    """
    if len(feature_maps) != len(cams):
        raise ValueError("need one feature map per camera")
    n_queries, n_views = len(queries), len(cams)
    m = NUM_KEYPOINTS
    points = np.reshape([
        keypoints_world(
            query.anchor,
            np.concatenate(
                [FIXED_KEYPOINT_OFFSETS,
                 learnable_keypoint_offsets(query.feature, params.offset_params)]
            ),
        )
        for query in queries
    ], (-1, 3))
    channels = feature_maps[0].grid.shape[2] if feature_maps else 0
    valid = np.zeros((n_queries * m, n_views), dtype=bool)
    samples = np.zeros((n_queries * m, n_views, channels))
    for n in range(n_views):
        ok, fu, fv = keypoint_validity(cams[n], feature_maps[n], points, params.max_depth)
        valid[:, n] = ok
        samples[ok, n] = bilinear_warp(feature_maps[n].grid, fu[ok], fv[ok])
    valid = valid.reshape(n_queries, m, n_views)
    samples = samples.reshape(n_queries, m, n_views, channels)
    out = []
    flags = []
    for query, mask, sampled in zip(queries, valid, samples):
        w = aggregation_weights(query, cams, mask, params.weight_params)
        out.append((w.weights[mask][:, None] * sampled[mask]).sum(axis=0))
        flags.append(w.all_invalid)
    return np.asarray(out), flags


# ---------------------------------------------------------------------------
# K-Means anchor generation on 9-dim box parameter vectors.
# ---------------------------------------------------------------------------

_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6
_MIN_ANCHOR_SIZE = 1e-3


def generate_anchors(boxes: list[Box9DoF], k: int, seed) -> list[Box9DoF]:
    """Cluster box parameter vectors with Lloyd's K-Means (k-means++ seeding).

    Callers typically pass ground-truth boxes expressed in a camera frame so
    the centroids serve as per-view anchors. Iterates until the largest
    centroid movement drops below 1e-6 or 100 rounds elapse; centroid sizes
    are clamped to stay valid boxes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(boxes):
        raise ValueError(f"k = {k} exceeds the number of boxes ({len(boxes)})")
    data = np.stack([b.to_params() for b in boxes])
    rng = np.random.default_rng(seed)
    n = len(data)

    centers = np.empty((k, 9))
    centers[0] = data[rng.integers(n)]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        dist = np.sum((data - centers[i - 1]) ** 2, axis=1)
        closest = np.minimum(closest, dist)
        total = closest.sum()
        if total <= 0:
            centers[i] = data[rng.integers(n)]
            continue
        centers[i] = data[rng.choice(n, p=closest / total)]

    for _ in range(_KMEANS_MAX_ITER):
        dists = np.linalg.norm(data[:, None, :] - centers[None, :, :], axis=2)
        assign = np.argmin(dists, axis=1)
        moved = 0.0
        for c in range(k):
            members = data[assign == c]
            if len(members) == 0:
                continue  # empty cluster keeps its previous centroid
            new_center = members.mean(axis=0)
            moved = max(moved, float(np.max(np.abs(new_center - centers[c]))))
            centers[c] = new_center
        if moved < _KMEANS_TOL:
            break

    anchors = []
    for c in centers:
        params = c.copy()
        params[3:6] = np.maximum(params[3:6], _MIN_ANCHOR_SIZE)
        anchors.append(Box9DoF.from_params(params))
    return anchors
