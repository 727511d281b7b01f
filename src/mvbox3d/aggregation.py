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

from .camera import CameraModel, bilinear_warp, frustum_mask, project_points
from .enhancer import FeatureMap, LinearParams
from .geometry import Box9DoF, box_corners, box_params

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
    """Regress 9 offsets from query features (..., C), shape (..., 9, 3), unclamped."""
    feature = np.asarray(query_feature, dtype=float)
    if params.out_dim != 3 * NUM_LEARNABLE_KEYPOINTS:
        raise ValueError(
            f"{params.role}: offset head must emit {3 * NUM_LEARNABLE_KEYPOINTS} values"
        )
    return params.apply(feature).reshape(feature.shape[:-1] + (NUM_LEARNABLE_KEYPOINTS, 3))


def camera_descriptor(cam: CameraModel) -> np.ndarray:
    """16 scalars per view: intrinsics then the top 3 extrinsic rows, row-major."""
    return np.concatenate([cam.intrinsics, cam.extrinsics[:3, :].ravel()])


def _masked_softmax(features, anchors, cams, valid, params: LinearParams):
    """Weights (n, M, N) and all-invalid flags (n,) of n queries with features
    (n, C), anchor parameters (n, 9) and validity (n, M, N); see
    ``aggregation_weights``."""
    n, m, n_views = valid.shape
    views = np.concatenate([camera_descriptor(c) for c in cams])
    desc = np.hstack([features, anchors, np.broadcast_to(views, (n, views.size))])
    if params.in_dim != desc.shape[1]:
        raise ValueError(f"{params.role}: expected input dim {desc.shape[1]}, got {params.in_dim}")
    if params.out_dim != m * n_views:
        raise ValueError(f"{params.role}: expected output dim {m * n_views}, got {params.out_dim}")
    logits = params.apply(desc).reshape(n, m, n_views)
    peak = np.max(logits, axis=(1, 2), keepdims=True, where=valid, initial=-np.inf)
    weights = np.exp(logits - peak, where=valid, out=np.zeros_like(logits))
    some_valid = valid.any(axis=(1, 2))
    np.divide(weights, weights.sum(axis=(1, 2), keepdims=True), out=weights,
              where=some_valid[:, None, None])
    return weights, ~some_valid


def aggregation_weights(query: Query, cams: list[CameraModel], validity,
                        params: LinearParams) -> AggregationWeights:
    """Masked softmax weights over all (key point, view) pairs of one query.

    Logits come from an affine map over concat(query feature, box parameters,
    per-view camera descriptors). The softmax runs jointly over the M x N
    grid with invalid entries excluded; if nothing is valid the weights are
    all zero and the flag is set.
    """
    valid = np.asarray(validity, dtype=bool)
    if valid.ndim != 2 or valid.shape[1] != len(cams):
        raise ValueError("validity must be (M, N) with one column per camera")
    weights, all_invalid = _masked_softmax(
        query.feature[None], box_params(query.anchor)[None], cams, valid[None], params)
    return AggregationWeights(weights[0], bool(all_invalid[0]))


def keypoint_validity(cam: CameraModel, fm: FeatureMap, points,
                      max_depth: float = math.inf):
    """Per-point validity and feature-grid coordinates for one view.

    A point is valid when it passes ``frustum_mask`` (depth in
    (0, max_depth], pixel in the image) and the corresponding feature-grid
    coordinate is inside the sampling footprint of the map.
    """
    u, v, d = project_points(cam, points)
    valid = frustum_mask(cam, u, v, d, max_depth)
    fh, fw = fm.grid.shape[:2]
    fu = u / fm.stride
    fv = v / fm.stride
    valid &= (fu <= fw - 1) & (fv <= fh - 1)
    return valid, fu, fv


def aggregate(queries: list[Query], feature_maps: list[FeatureMap],
              cams: list[CameraModel], params: AggregationParams):
    """Updated feature per query: the masked-weighted sum of sampled features.

    One pass over all queries: one offset regression, one key-point map and
    one weight-logit matmul for the whole batch, and a masked softmax over
    (query, key point, view) arrays. The key points of all queries are
    projected into each view together, and the valid ones of a view are
    sampled in one ``bilinear_warp`` call.

    Returns:
        (features, all_invalid_flags): an (n_queries, C) array and a boolean
        list marking queries whose key points were invalid in every view
        (those rows are zero).
    """
    if len(feature_maps) != len(cams):
        raise ValueError("need one feature map per camera")
    n_queries, n_views = len(queries), len(cams)
    channels = feature_maps[0].grid.shape[2] if feature_maps else 0
    if n_queries == 0:
        return np.zeros((0, channels)), []
    features = np.stack([query.feature for query in queries])
    anchors = box_params([query.anchor for query in queries])
    offsets = np.concatenate(
        [np.broadcast_to(FIXED_KEYPOINT_OFFSETS, (n_queries,) + FIXED_KEYPOINT_OFFSETS.shape),
         learnable_keypoint_offsets(features, params.offset_params)], axis=1)
    points = box_corners(anchors, offsets).reshape(-1, 3)
    valid = np.zeros((n_queries * NUM_KEYPOINTS, n_views), dtype=bool)
    samples = np.zeros((n_queries * NUM_KEYPOINTS, n_views, channels))
    for n in range(n_views):
        ok, fu, fv = keypoint_validity(cams[n], feature_maps[n], points, params.max_depth)
        valid[:, n] = ok
        samples[ok, n] = bilinear_warp(feature_maps[n].grid, fu[ok], fv[ok])
    valid = valid.reshape(n_queries, NUM_KEYPOINTS, n_views)
    samples = samples.reshape(n_queries, NUM_KEYPOINTS, n_views, channels)
    weights, all_invalid = _masked_softmax(features, anchors, cams, valid, params.weight_params)
    return (weights[..., None] * samples).sum(axis=(1, 2)), all_invalid.tolist()


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
    data = box_params(boxes)
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

    centers[:, 3:6] = np.maximum(centers[:, 3:6], _MIN_ANCHOR_SIZE)
    return [Box9DoF.from_params(c) for c in centers]
