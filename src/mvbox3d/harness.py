"""Synthetic-scene harness: deterministic scene generation, oracle feature
rendering, gradient-descent box fitting, position-embedding heatmaps, and the
evaluation runner behind the CLI.

Scene geometry (room size, camera ring, jitter magnitudes) is plumbing with
config defaults; everything is reproducible from integer seeds.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .aggregation import NUM_KEYPOINTS, NUM_LEARNABLE_KEYPOINTS, AggregationParams, Query, aggregate
from .camera import (
    DEFAULT_STD_INTRINSICS,
    CameraModel,
    _json_int,
    camera_from_dict,
    camera_to_dict,
    frustum_rays,
    in_frustum,
    project_points,
)
from .config import RunConfig
from .enhancer import (
    FeatureMap,
    LinearParams,
    depth_distribution,
    init_linear,
    ipe_correlation_map,
)
from .evaluation import (
    MetricsReport,
    SizeThresholds,
    _gt_scene_from_record,
    _scene_record,
    box_record,
    load_detections_jsonl,
    load_gt_jsonl,
    metrics_report,
    report_to_csv,
)
from .geometry import (
    _SIGNED_PERMS,
    Box9DoF,
    box_corners,
    box_params,
    nms_scenes,
    paired_iou,
    reparameterize_box,
)
from .losses import get_box_loss, prepare_target

_MIN_FIT_SIZE = 1e-3
_MIN_SIZE_GAP = 0.1

# Stall handling for the fit loop: the corner- and Gaussian-based losses have
# saddles and long shallow valleys where the size/euler gradients nearly
# vanish while the loss is still high (rotation misaligned, sizes
# compensating), and constant-step descent crawls there for thousands of
# steps. When no loss progress is made over a window, the shape blocks
# switch to full-length normalized steps until real progress resumes, which
# walks such valleys at the nominal rate. The L1 loss can never trigger this
# while unconverged (its loss falls at a fixed parameter-space rate) and
# sits below the loss floor once converged.
_STALL_WINDOW = 60
_STALL_ENTER_DROP = 0.005
_STALL_EXIT_DROP = 0.05
_STALL_LOSS_FLOOR = 5e-3
_GRAD_TINY = 1e-12
_SHAPE_BLOCKS = np.array([[False], [True], [True]])


@dataclass
class SceneSample:
    """A synthetic multi-camera room scene."""

    scene_id: str
    seed: int
    cameras: list[CameraModel]
    gt_boxes: list[Box9DoF]
    gt_categories: list[int]


@dataclass
class RenderedScene:
    """Per-view oracle feature maps painted with instance signatures."""

    image_maps: list[FeatureMap]
    depth_maps: list[FeatureMap]
    signatures: np.ndarray  # (n_instances, C), unit rows
    owners: list[np.ndarray]  # per view (H, W) instance index, -1 background


def _look_at_extrinsics(eye, target) -> np.ndarray:
    """Camera-to-world transform with +z looking at ``target`` and +y down."""
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    fwd = fwd / np.linalg.norm(fwd)
    world_up = np.array([0.0, 0.0, 1.0])
    right = np.cross(fwd, world_up)
    nrm = np.linalg.norm(right)
    if nrm < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    else:
        right /= nrm
    down = np.cross(fwd, right)
    ext = np.eye(4)
    ext[:3, 0] = right
    ext[:3, 1] = down
    ext[:3, 2] = fwd
    ext[:3, 3] = eye
    return ext


def random_box(rng: np.random.Generator, center_low=(-2.0, -2.0, 0.4),
               center_high=(2.0, 2.0, 2.0), size_low=0.3, size_high=0.9) -> Box9DoF:
    """A generic-position box for tests and benchmarks.

    Extents are kept pairwise distinct (by ``_MIN_SIZE_GAP``): boxes with a
    square cross-section have genuinely ambiguous orientation, which no
    orientation-aware objective can recover.
    """
    center = rng.uniform(center_low, center_high)
    size = rng.uniform(size_low, size_high, 3)
    for _ in range(100):
        gaps = np.diff(np.sort(size))
        if np.min(gaps) >= _MIN_SIZE_GAP:
            break
        size = rng.uniform(size_low, size_high, 3)
    euler = np.array(
        [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(-np.pi, np.pi)]
    )
    return Box9DoF(center, size, euler)


def gen_scene(config: RunConfig, seed: int) -> SceneSample:
    """Sample a room scene: cameras on an inward-looking ring, boxes whose
    centers are each visible from at least one camera. Deterministic per seed."""
    rng = np.random.default_rng([int(seed), 0xC0FFEE])
    n_cams = int(rng.integers(config.min_cameras, config.max_cameras + 1))
    n_boxes = int(rng.integers(config.min_boxes, config.max_boxes + 1))
    radius = 0.45 * min(config.room_width, config.room_depth)
    target = np.array([0.0, 0.0, 0.4 * config.room_height])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    cameras = []
    for i in range(n_cams):
        angle = phase + 2.0 * np.pi * i / n_cams
        eye = np.array(
            [radius * np.cos(angle), radius * np.sin(angle), 0.55 * config.room_height]
        )
        ext = _look_at_extrinsics(eye, target)
        cameras.append(
            CameraModel(
                DEFAULT_STD_INTRINSICS, ext, (config.image_width, config.image_height)
            )
        )

    margin = 0.8
    half_w = config.room_width / 2 - margin
    half_d = config.room_depth / 2 - margin
    boxes: list[Box9DoF] = []
    categories: list[int] = []
    for _ in range(n_boxes):
        placed = None
        for attempt in range(200):
            box = random_box(
                rng,
                center_low=(-half_w, -half_d, 0.4),
                center_high=(half_w, half_d, config.room_height - 0.8),
                size_low=config.box_size_min,
                size_high=config.box_size_max,
            )
            # stop at the second camera that sees the center
            seen = (cam for cam in cameras if in_frustum(cam, box.center, config.max_depth))
            if len(list(itertools.islice(seen, 2))) < min(2, n_cams):
                continue
            # keep instances separated so the oracle rendering stays readable;
            # drop the constraint if placement gets tight
            if attempt < 150 and any(
                np.linalg.norm(box.center - b.center) < config.min_box_separation
                for b in boxes
            ):
                continue
            placed = box
            break
        if placed is None:
            # fall back to a spot near the ring's focus, always visible
            placed = random_box(rng, center_low=(-0.5, -0.5, 0.8), center_high=(0.5, 0.5, 1.6))
        boxes.append(placed)
        categories.append(int(rng.integers(config.num_categories)))
    return SceneSample(f"scene{int(seed):05d}", int(seed), cameras, boxes, categories)


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in counterclockwise order."""
    pts = sorted(set(map(tuple, points.tolist())))  # (u, v)-lexicographic, no duplicates
    if len(pts) <= 2:
        return np.array(pts).reshape(-1, 2)

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(iterable):
        chain: list[tuple[float, float]] = []
        for p in iterable:
            while len(chain) >= 2 and cross2(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


def render_feature_maps(scene: SceneSample, config: RunConfig) -> RenderedScene:
    """Paint per-view feature grids with per-instance unit signatures.

    A feature cell belongs to the instance whose projected silhouette (the
    convex hull of its projected corners) contains the cell's image pixel;
    overlaps resolve to the instance with the nearest center depth.
    Background cells are zero. The depth map stores the owning instance's
    center depth.
    """
    signatures = _instance_signatures(scene, config)
    views = [_render_view(scene, view, signatures, config) for view in range(len(scene.cameras))]
    return RenderedScene([v[0] for v in views], [v[1] for v in views], signatures,
                         [v[2] for v in views])


def _instance_signatures(scene: SceneSample, config: RunConfig) -> np.ndarray:
    """One seeded unit-norm signature row per instance (one row if none)."""
    rng = np.random.default_rng([scene.seed, 0x516])
    signatures = rng.normal(size=(max(len(scene.gt_boxes), 1), config.embed_dim))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    return signatures


def _render_view(scene: SceneSample, view: int, signatures: np.ndarray,
                 config: RunConfig) -> tuple[FeatureMap, FeatureMap, np.ndarray]:
    """Image map, depth map and (H, W) owner grid of one view, as described
    in ``render_feature_maps``."""
    cam = scene.cameras[view]
    stride = config.feature_stride
    fh, fw = config.image_height // stride, config.image_width // stride
    cell_u, cell_v = np.arange(fw) * float(stride), (np.arange(fh) * float(stride))[:, None]
    boxes = box_params(scene.gt_boxes)
    if boxes.ndim != 2:
        raise ValueError(f"expected (N, 9) box parameters, got shape {boxes.shape}")
    points = np.concatenate([box_corners(boxes), boxes[:, None, :3]], axis=1)  # corners, center
    u, v, d = (x.reshape(-1, 9) for x in project_points(cam, points))
    owner, owner_depth = np.full((fh, fw), -1), np.full((fh, fw), np.inf)
    for idx in range(len(boxes)):
        front = d[idx, :8] > 1e-6
        center_depth = float(d[idx, 8])
        if front.sum() < 3 or center_depth <= 0:
            continue
        hull = _convex_hull_2d(np.column_stack([u[idx, :8][front], v[idx, :8][front]]))
        if len(hull) < 3:
            continue
        # test the hull's bounding box of cells, padded by one against rounding
        (j0, i0), (j1, i1) = (np.floor(hull.min(axis=0) / stride).astype(int) - 1,
                              np.floor(hull.max(axis=0) / stride).astype(int) + 2)
        rows, cols = slice(max(i0, 0), max(i1, 0)), slice(max(j0, 0), max(j1, 0))
        # inside every counterclockwise edge a -> b, all edges in one broadcast
        e = (np.roll(hull, -1, axis=0) - hull)[:, :, None, None]
        a = hull[:, :, None, None]
        inside = (e[:, 0] * (cell_v[rows] - a[:, 1]) - e[:, 1] * (cell_u[cols] - a[:, 0])
                  >= 0).all(axis=0)
        closer = inside & (owner_depth[rows, cols] > center_depth)
        owner[rows, cols][closer] = idx
        owner_depth[rows, cols][closer] = center_depth
    grid = np.vstack([signatures, np.zeros(config.embed_dim)]).take(owner, axis=0)  # -1: zeros
    depth_grid = np.where(np.isfinite(owner_depth), owner_depth, 0.0)[..., None]
    return (FeatureMap(view, float(stride), grid), FeatureMap(view, float(stride), depth_grid),
            owner)


def build_aggregation_params(config: RunConfig, n_views: int) -> AggregationParams:
    """Zero offset and weight networks for ``n_views`` cameras, sized from the
    aggregation constants: the learnable key points sit at the box center and
    the weights are uniform over the valid (key point, view) pairs."""
    def zeros(role, in_dim, out_dim):
        return LinearParams(np.zeros((out_dim, in_dim)), np.zeros(out_dim), role)

    offset = zeros("keypoint_offsets", config.embed_dim, 3 * NUM_LEARNABLE_KEYPOINTS)
    weight = zeros("aggregation_weights", config.embed_dim + 9 + 16 * n_views,
                   NUM_KEYPOINTS * n_views)
    return AggregationParams(offset, weight, config.max_depth)


def signature_recovery(scene: SceneSample, config: RunConfig):
    """Aggregate each ground-truth box against painted feature maps and score
    the result against every instance signature.

    Uses zero offset and weight parameters (key points at the box itself,
    uniform masked weights) so the result reflects the geometric sampling
    path rather than an arbitrary random network.

    Returns:
        list of (instance index, best-matching signature index, cosine row).
    """
    rendered = render_feature_maps(scene, config)
    params = build_aggregation_params(config, len(scene.cameras))
    queries = [
        Query(rendered.signatures[i], box) for i, box in enumerate(scene.gt_boxes)
    ]
    feats, flags = aggregate(queries, rendered.image_maps, scene.cameras, params)
    results = []
    for i, feat in enumerate(feats):
        norm = np.linalg.norm(feat)
        if norm == 0.0 or flags[i]:
            results.append((i, -1, np.zeros(len(rendered.signatures))))
            continue
        cosines = rendered.signatures @ feat / norm
        results.append((i, int(np.argmax(cosines)), cosines))
    return results


# ---------------------------------------------------------------------------
# Box fitting (desk-scale stand-in for training).
# ---------------------------------------------------------------------------


@dataclass
class FitTrace:
    """Per-step record of one gradient-descent box fit."""

    losses: np.ndarray  # (steps,)
    grad_norms: np.ndarray  # (steps,)
    params: np.ndarray  # (steps, 9)
    boosted: np.ndarray  # (steps,) bool: the step took stall-boosted shape steps
    final_box: Box9DoF
    final_loss: float
    best_step: int  # index of the lowest loss in ``losses``
    symmetry_applied: bool = False


def perturb_box(gt: Box9DoF, rng: np.random.Generator, config: RunConfig,
                force_symmetry: bool | None = None):
    """Jittered initialization; optionally reparameterized by a random cuboid
    symmetry (probability 1/2 unless forced)."""
    center = gt.center + rng.normal(0.0, config.fit_center_jitter, 3)
    size = gt.size * rng.uniform(
        1.0 - config.fit_size_jitter, 1.0 + config.fit_size_jitter, 3
    )
    euler = gt.euler + rng.normal(0.0, config.fit_angle_jitter, 3)
    box = Box9DoF(center, np.maximum(size, _MIN_FIT_SIZE), euler)
    apply_sym = bool(rng.random() < 0.5) if force_symmetry is None else bool(force_symmetry)
    perm_idx = int(rng.integers(len(_SIGNED_PERMS)))  # drawn either way: stable stream
    if apply_sym:
        box = reparameterize_box(box, _SIGNED_PERMS[perm_idx])
    return box, apply_sym


def fit_batch(gt, init, loss_kind: str, config: RunConfig) -> list[FitTrace]:
    """Gradient descent on the chosen box loss from each row of ``init`` toward
    the same row of ``gt``, both (N, 9) arrays or N-box sequences: one trace
    per row. All rows run in lock step, one loss call per step against a
    ``losses.PreparedTarget``; each keeps its own step caps and boost state,
    so its trace is bitwise the one-row fit.

    Steps are capped at the learning rate per parameter block (center / size
    / euler): the blocks live on different scales, the Wasserstein gradient
    is unbounded near its minimum, and the norm-based losses keep
    unit-magnitude subgradients in converged blocks, which under one global
    cap would starve the rest. While a row's loss stalls (see the module
    constants) its shape blocks take full-length normalized steps across
    saddles and shallow valleys. Sizes are clamped to stay valid. The
    iterates end in a step-sized oscillation (the subgradients do not vanish
    at the minima), so the reported fit is the best-loss iterate; the trace
    keeps the raw trajectory.
    """
    loss_fn = get_box_loss(loss_kind)
    params, target = box_params(init).copy(), prepare_target(gt)
    if target.params.shape != params.shape:
        raise ValueError(f"gt {target.params.shape} and init {params.shape} must match")
    if params.ndim != 2:
        raise ValueError(f"expected (N, 9) box parameters, got shape {params.shape}")
    n, steps, lr = len(params), config.fit_steps, config.learning_rate
    if n == 0:
        return []
    losses, boosted = np.empty((steps, n)), np.zeros((steps, n), dtype=bool)
    grads, traj = np.empty((steps, n, 9)), np.empty((steps, n, 9))
    state, any_boosted, sizes = np.zeros(n, dtype=bool), False, params[:, 3:6]
    for step in range(steps):
        np.maximum(sizes, _MIN_FIT_SIZE, out=sizes)
        if not np.isfinite(params).all():
            row, col = np.argwhere(~np.isfinite(params))[0]
            block = ("center", "size", "euler")[col // 3]
            raise ValueError(f"fit row {row}: {block} must be finite")
        res = loss_fn(params, target)
        losses[step] = value = res.value
        grads[step], traj[step] = res.grad, params
        if step >= _STALL_WINDOW:
            drop = losses[step - _STALL_WINDOW] - value
            enter = (drop < _STALL_ENTER_DROP) & (value > _STALL_LOSS_FLOOR)
            if any_boosted:
                stay = ~((value <= _STALL_LOSS_FLOOR) | (drop > _STALL_EXIT_DROP))
                enter = np.where(state, stay, enter)
            boosted[step] = state = enter
            any_boosted = state.any()
        # per (row, block) step: capped at lr, or exactly lr for boosted shape blocks
        g = res.grad.reshape(n, 3, 3)
        norm = np.sqrt(np.vecdot(g, g))[..., None]
        cap = np.maximum(1.0, norm)
        if any_boosted:
            cap = np.where(state[:, None, None] & _SHAPE_BLOCKS & (norm > _GRAD_TINY), norm, cap)
        params -= (g * (lr / cap)).reshape(n, 9)
    np.maximum(sizes, _MIN_FIT_SIZE, out=sizes)
    final_loss, rows = loss_fn(params, target).value, np.arange(n)
    best = np.argmin(losses, axis=0)
    use_best = losses[best, rows] < final_loss
    params[use_best] = traj[best, rows][use_best]
    final_loss = np.where(use_best, losses[best, rows], final_loss)
    grad_norms = np.sqrt(np.vecdot(grads, grads)).T.copy()
    losses, traj, boosted = losses.T.copy(), traj.transpose(1, 0, 2).copy(), boosted.T.copy()
    return [FitTrace(losses[i], grad_norms[i], traj[i], boosted[i], Box9DoF.from_params(params[i]),
                     float(final_loss[i]), int(best[i])) for i in range(n)]


def fit_single_box(gt: Box9DoF, init: Box9DoF, loss_kind: str,
                   config: RunConfig) -> FitTrace:
    """Gradient descent on the chosen box loss from ``init`` toward ``gt``:
    the one-row ``fit_batch``."""
    return fit_batch([gt], [init], loss_kind, config)[0]


def fit_boxes(scene: SceneSample, loss_kind: str, config: RunConfig) -> list[FitTrace]:
    """Fit a perturbed copy of every ground-truth box in the scene, as one batch."""
    draws = [perturb_box(gt, np.random.default_rng([config.seed, scene.seed, idx]), config)
             for idx, gt in enumerate(scene.gt_boxes)]
    traces = fit_batch(scene.gt_boxes, [init for init, _ in draws], loss_kind, config)
    for trace, (_, applied) in zip(traces, draws):
        trace.symmetry_applied = applied
    return traces


@dataclass
class FitOutcome:
    final_iou: float
    final_loss: float
    symmetry_applied: bool


def run_fit_benchmark(loss_kind: str, config: RunConfig, n_instances: int,
                      symmetry: str = "random") -> list[FitOutcome]:
    """Fit ``n_instances`` random boxes and report final IoU against ground truth.

    ``symmetry`` is "random" (probability 1/2), "always", or "never".
    """
    force = {"random": None, "always": True, "never": False}[symmetry]
    gts, draws = [], []
    for i in range(n_instances):
        rng = np.random.default_rng([config.seed, 0xF17, i])
        gts.append(random_box(rng))
        draws.append(perturb_box(gts[-1], rng, config, force_symmetry=force))
    traces = fit_batch(gts, [init for init, _ in draws], loss_kind, config)
    ious = paired_iou([t.final_box for t in traces], gts).tolist()
    return [FitOutcome(iou, t.final_loss, applied)
            for iou, t, (_, applied) in zip(ious, traces, draws)]


def fit_trace_csv(traces: list[FitTrace]) -> str:
    """CSV rendering of fit traces: one row per (instance, step)."""
    lines = ["instance,step,loss,grad_norm,symmetry"]
    for idx, trace in enumerate(traces):
        sym = int(trace.symmetry_applied)
        rows = enumerate(zip(trace.losses.tolist(), trace.grad_norms.tolist()))
        lines += [f"{idx},{step},{loss:.9g},{norm:.9g},{sym}" for step, (loss, norm) in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Position-embedding heatmap.
# ---------------------------------------------------------------------------


@dataclass
class HeatmapResult:
    similarity: np.ndarray  # (h, w) cosine similarity with the reference cell
    ray_distance: np.ndarray  # (h, w) distance between expected 3D points
    ref: tuple[int, int]


def pe_heatmap(scene: SceneSample, config: RunConfig, view: int = 0,
               ref: tuple[int, int] | None = None) -> HeatmapResult:
    """Cosine-similarity map of image position embeddings for one view.

    Builds the position-encoding path with seeded parameters (frustum rays,
    depth distribution from the view's rendered image/depth features, image
    position embeddings), then correlates every cell's embedding with the
    reference cell's. Only the requested view is rendered. The image
    position embedding is the embedding of the expected frustum point (see
    ``mvbox3d.enhancer``), t + E[d] R r on the cell's ray r, as every sample
    is t + d_k R r: no (h, w, K, 3) grid and no (h, w, K, C) embeddings.
    ``view`` and ``ref`` must index a camera and a cell; the default
    reference is the center cell.
    """
    cameras = len(scene.cameras)
    if not 0 <= view < cameras:
        raise ValueError(f"--view {view} out of range: scene has {cameras} cameras, "
                         f"0 to {cameras - 1}")
    img_fm, dep_fm, _ = _render_view(scene, view, _instance_signatures(scene, config), config)
    h, w = img_fm.grid.shape[:2]
    if ref is None:
        ref = (h // 2, w // 2)
    if not (0 <= ref[0] < h and 0 <= ref[1] < w):
        raise ValueError(f"--ref {ref[0]},{ref[1]} out of range: the grid has {h}x{w} cells, "
                         f"i from 0 to {h - 1} and j from 0 to {w - 1}")
    point_embed = init_linear("point_embed", 3, config.embed_dim, [config.seed, 101])
    fuse = init_linear(
        "depth_fuse",
        img_fm.grid.shape[2] + dep_fm.grid.shape[2],
        config.embed_dim,
        [config.seed, 102],
    )
    head = init_linear("depth_head", config.embed_dim, config.num_depth_points,
                       [config.seed, 103])
    cam = scene.cameras[view]
    _, _, rays, depths = frustum_rays(cam, (h, w), config.max_depth, config.num_depth_points)
    mean_depth = depth_distribution(img_fm, dep_fm, fuse, head) @ depths
    expected = mean_depth[..., None] * (rays @ cam.extrinsics[:3, :3].T) + cam.extrinsics[:3, 3]
    similarity = ipe_correlation_map(point_embed.apply(expected), ref)
    ray_distance = np.linalg.norm(expected - expected[ref[0], ref[1]], axis=-1)
    return HeatmapResult(similarity, ray_distance, ref)


@functools.lru_cache(maxsize=4)
def _heatmap_template(h: int, w: int) -> str:
    cells = (f"{i},{j},%.9g,%.9g\n" for i in range(h) for j in range(w))
    return "i,j,similarity,ray_distance\n" + "".join(cells)


def heatmap_csv(result: HeatmapResult) -> str:
    """One row per cell, i-major: i,j,similarity,ray_distance with %.9g values."""
    values = np.stack([result.similarity, result.ray_distance], axis=-1)
    return _heatmap_template(*result.similarity.shape) % tuple(values.ravel().tolist())


# ---------------------------------------------------------------------------
# Evaluation runner and scene serialization.
# ---------------------------------------------------------------------------


def run_eval(dets_path, gts_path, config: RunConfig,
             apply_nms: bool = True) -> tuple[MetricsReport, str]:
    """Load JSON-lines detections and ground truth, optionally NMS every scene
    (one pooled ``nms_scenes`` call) at ``config.nms_iou_threshold``, and
    evaluate AP at
    ``config.ap_iou_threshold``: the report and its CSV text."""
    dets = load_detections_jsonl(dets_path)
    gts = load_gt_jsonl(gts_path)
    if apply_nms:
        dets = nms_scenes(dets, config.nms_iou_threshold)
    report = metrics_report(
        dets,
        gts,
        iou_threshold=config.ap_iou_threshold,
        thresholds=SizeThresholds(config.size_small_max, config.size_medium_max),
    )
    return report, report_to_csv(report)


def scene_to_dict(scene: SceneSample) -> dict:
    return {
        "scene_id": scene.scene_id,
        "seed": scene.seed,
        "cameras": [camera_to_dict(c) for c in scene.cameras],
        "boxes": [box_record(b, c) for b, c in zip(scene.gt_boxes, scene.gt_categories)],
    }


def scene_from_dict(data: dict) -> SceneSample:
    try:
        scene_id, records = _scene_record(data)
        truth = _gt_scene_from_record(data, records)
        cams, seed = [camera_from_dict(c) for c in data["cameras"]], _json_int("seed", data["seed"])
        return SceneSample(scene_id, seed, cams, truth.boxes, truth.categories)
    except KeyError as exc:
        raise ValueError(f"malformed scene record: missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed scene record: {exc}") from exc


def save_scene_json(path, scene: SceneSample) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_scene_json(path) -> SceneSample:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Minimal self-contained SVG line charts.
# ---------------------------------------------------------------------------


def svg_line_chart(series: dict[str, np.ndarray], title: str = "") -> str:
    """A dependency-free 640x360 SVG polyline chart; one polyline per named series."""
    width, height, pad = 640, 360, 40
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
    values = [np.asarray(v, dtype=float) for v in series.values()]
    if not values or all(v.size == 0 for v in values):
        y_min, y_max = 0.0, 1.0
    else:
        y_min = min(float(v.min()) for v in values if v.size)
        y_max = max(float(v.max()) for v in values if v.size)
        if y_max - y_min < 1e-12:
            y_max = y_min + 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{pad - 8}" font-family="sans-serif" font-size="11">'
        f'{y_max:.4g}</text>',
        f'<text x="{pad}" y="{height - pad + 14}" font-family="sans-serif" '
        f'font-size="11">{y_min:.4g}</text>',
    ]
    for idx, (name, vals) in enumerate(series.items()):
        vals = np.asarray(vals, dtype=float)
        if vals.size == 0:
            continue
        n = vals.size
        xs = pad + (width - 2 * pad) * (np.arange(n) / max(n - 1, 1))
        ys = height - pad - (height - 2 * pad) * ((vals - y_min) / (y_max - y_min))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = palette[idx % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * idx}" fill="{color}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
