"""Average-precision evaluation for oriented 3D detections.

Detections match ground truth greedily by score with an oriented-IoU
threshold; AP uses all-point interpolation (precision envelope integrated
over recall). Reports include per-category APs plus macro means over
categories, volume-based size classes, and scene subset tags.

File interchange is JSON lines, one scene per line:
    {"scene_id": ..., "subset": optional tag,
     "boxes": [{"center": [...], "size": [...], "euler": [...],
                "category": int, "score": optional float}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .camera import _json_int, _json_number, _json_numbers
from .config import RunConfig
from .geometry import Box9DoF, Detection, box_params, paired_iou, pairwise_iou

SIZE_CLASSES = ("small", "medium", "large")


@dataclass(frozen=True)
class SizeThresholds:
    """Volume split points: small < small_max <= medium < medium_max <= large."""

    small_max: float = RunConfig.size_small_max
    medium_max: float = RunConfig.size_medium_max

    def classify(self, box: Box9DoF) -> str:
        return self._classes(box_params(box)[None])[0]

    def _classes(self, params) -> list[str]:
        """The size class of each row of (N, 9) box parameters, by its volume."""
        vol = np.prod(params[:, 3:6], axis=1)
        index = (vol >= self.small_max) * (1 + (vol >= self.medium_max))  # 0, 1, 2
        return [SIZE_CLASSES[k] for k in index.tolist()]


@dataclass
class SceneGroundTruth:
    boxes: list[Box9DoF]
    categories: list[int]
    subset: str = "all"


@dataclass
class GroundTruthSet:
    scenes: dict[str, SceneGroundTruth] = field(default_factory=dict)


@dataclass
class MetricsReport:
    overall_ap: float
    per_category: dict[int, float]
    per_size: dict[str, float]
    per_subset: dict[str, float]
    num_gt: dict[int, int]
    num_det: dict[int, int]


def _greedy_flags(iou: list[list[float]], order, cols, iou_threshold: float) -> list[bool]:
    """TP/FP flags of the detections in ``order`` against the ground truths
    ``cols`` (ascending), from the row lists ``iou[detection][ground truth]``:
    each detection takes the untaken ground truth with the highest positive
    IoU, lowest gt index on ties, and is a hit if that IoU reaches the
    threshold. The package's one greedy matcher."""
    taken: set[int] = set()
    flags = []
    for i in order:
        row, best, g = iou[i], 0.0, -1
        for c in cols:
            if row[c] > best and c not in taken:
                best, g = row[c], c
        hit = g >= 0 and best >= iou_threshold
        if hit:
            taken.add(g)
        flags.append(hit)
    return flags


def _score_order(scores) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def match_detections(dets: list[Detection], gt_boxes: list[Box9DoF],
                     iou_threshold: float) -> list[bool]:
    """Greedy TP/FP flags in (score desc, input index asc) order.

    Each detection matches the unmatched ground truth with the highest IoU,
    provided it reaches the threshold; IoU ties go to the lowest gt index.
    """
    iou = pairwise_iou([d.box for d in dets], gt_boxes).tolist()
    return _greedy_flags(iou, _score_order([d.score for d in dets]), range(len(gt_boxes)),
                         iou_threshold)


def average_precision(flags, num_gt: int) -> float:
    """All-point interpolated AP over score-ordered TP/FP flags."""
    if num_gt < 0:
        raise ValueError("num_gt must be nonnegative")
    if num_gt == 0 or len(flags) == 0:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    # precision envelope: running max from the right
    mrec = np.concatenate([[0.0], recall])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision])[::-1])[::-1]
    ap = np.sum((mrec[1:] - mrec[:-1]) * mpre[1:])
    return float(ap)


@dataclass
class _SceneCategory:
    """The detections and ground truths of one category in one scene, their
    size classes, the detections' score order and the IoU rows
    ``iou[detection][ground truth]``."""

    scene_id: str
    subset: str | None  # None for a scene without ground truth
    scores: list[float]
    order: list[int]
    det_sizes: list[str]
    gt_sizes: list[str]
    iou: list[list[float]]


def _scene_tables(dets_by_scene: dict[str, list[Detection]], gts: GroundTruthSet,
                  thresholds: SizeThresholds) -> dict[int, list[_SceneCategory]]:
    """Per category, one table per scene (in scene id order) that holds a
    detection or a ground truth of it. Each scene's boxes are converted and
    size-classed once; all tables' (detection, ground truth) pairs go to one
    ``paired_iou`` call, and each table's IoU matrix is shared by every split."""
    tables: dict[int, list[_SceneCategory]] = {}
    made = []  # (table, its detections' parameters, its ground truths' parameters)
    for scene_id in sorted(set(dets_by_scene) | set(gts.scenes)):
        scene_gt = gts.scenes.get(scene_id)
        subset, gt_boxes, gt_cats = ((scene_gt.subset, scene_gt.boxes, scene_gt.categories)
                                     if scene_gt else (None, [], []))
        dets = dets_by_scene.get(scene_id, [])
        det_params, gt_params = box_params([d.box for d in dets]), box_params(gt_boxes)
        det_sizes, gt_sizes = thresholds._classes(det_params), thresholds._classes(gt_params)
        det_cats = [d.category for d in dets]
        for cat in sorted(set(det_cats) | set(gt_cats)):
            di = [i for i, c in enumerate(det_cats) if c == cat]
            gi = [i for i, c in enumerate(gt_cats) if c == cat]
            scores = [dets[i].score for i in di]
            table = _SceneCategory(scene_id, subset, scores, _score_order(scores),
                                   [det_sizes[i] for i in di], [gt_sizes[i] for i in gi], [])
            tables.setdefault(cat, []).append(table)
            made.append((table, det_params[di], gt_params[gi]))
    if made:
        iou = paired_iou(np.concatenate([np.repeat(d, len(g), axis=0) for _, d, g in made]),
                         np.concatenate([np.tile(g, (len(d), 1)) for _, d, g in made]))
        start = 0
        for table, d, g in made:
            table.iou = iou[start:start + len(d) * len(g)].reshape(len(d), len(g)).tolist()
            start += len(d) * len(g)
    return tables


def _category_ap(tables: list[_SceneCategory], iou_threshold: float,
                 size_filter: str | None = None, subset_filter: str | None = None):
    """AP and counts for one category from its scene tables, optionally
    restricted to a size class or subset tag. Both detections and ground
    truths are filtered to index lists; the IoU rows are shared, not
    recomputed."""
    scored: list[tuple[float, str, int, bool]] = []
    total_gt = 0
    total_det = 0
    for table in tables:
        if subset_filter is not None and table.subset != subset_filter:
            continue
        order, cols = table.order, range(len(table.gt_sizes))
        if size_filter is not None:
            order = [i for i in order if table.det_sizes[i] == size_filter]
            cols = [g for g, s in enumerate(table.gt_sizes) if s == size_filter]
        total_gt += len(cols)
        total_det += len(order)
        flags = _greedy_flags(table.iou, order, cols, iou_threshold)
        for i, flag in zip(order, flags):
            scored.append((table.scores[i], table.scene_id, i, flag))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    ap = average_precision([f for _, _, _, f in scored], total_gt)
    return ap, total_gt, total_det


def metrics_report(dets_by_scene: dict[str, list[Detection]], gts: GroundTruthSet,
                   iou_threshold: float = RunConfig.ap_iou_threshold,
                   thresholds: SizeThresholds | None = None) -> MetricsReport:
    """Per-category APs plus macro means over categories, sizes and subsets.

    Macro means run over categories that have at least one ground truth in
    the relevant split; detection-only categories still show up in the
    per-category table (their detections are all false positives). The IoU
    of every (detection, ground truth) pair of a (scene, category) is computed
    once for all splits, in one pooled call.
    """
    thresholds = thresholds or SizeThresholds()
    tables = _scene_tables(dets_by_scene, gts, thresholds)
    all_categories = sorted(tables)

    per_category: dict[int, float] = {}
    num_gt: dict[int, int] = {}
    num_det: dict[int, int] = {}
    for cat in all_categories:
        per_category[cat], num_gt[cat], num_det[cat] = _category_ap(tables[cat], iou_threshold)
    with_gt = [c for c in all_categories if num_gt[c] > 0]
    overall = float(np.mean([per_category[c] for c in with_gt])) if with_gt else 0.0

    def split_mean(**split) -> float:
        aps = []
        for cat in with_gt:
            ap, n_gt, _ = _category_ap(tables[cat], iou_threshold, **split)
            if n_gt > 0:
                aps.append(ap)
        return float(np.mean(aps)) if aps else 0.0

    per_size = {size: split_mean(size_filter=size) for size in SIZE_CLASSES}
    subsets = sorted({scene.subset for scene in gts.scenes.values()})
    per_subset = {subset: split_mean(subset_filter=subset) for subset in subsets}
    return MetricsReport(overall, per_category, per_size, per_subset, num_gt, num_det)


def report_to_csv(report: MetricsReport) -> str:
    """CSV rendering with header (split, category, ap, num_gt, num_det)."""
    lines = ["split,category,ap,num_gt,num_det"]
    total_gt = sum(report.num_gt.values())
    total_det = sum(report.num_det.values())
    lines.append(f"overall,all,{report.overall_ap:.6f},{total_gt},{total_det}")
    for cat in sorted(report.per_category):
        lines.append(
            f"category,{cat},{report.per_category[cat]:.6f},"
            f"{report.num_gt[cat]},{report.num_det[cat]}"
        )
    for size in SIZE_CLASSES:
        lines.append(f"size,{size},{report.per_size.get(size, 0.0):.6f},,")
    for subset in sorted(report.per_subset):
        lines.append(f"subset,{subset},{report.per_subset[subset]:.6f},,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON-lines interchange.
# ---------------------------------------------------------------------------


def _box_from_record(rec: dict) -> Box9DoF:
    """The record's box; center, size and euler must be lists of JSON numbers
    (an int or a float, and a bool is not an int here): ["0", "0", "1"] and
    [true, 1, 1] are rejected rather than coerced."""
    return Box9DoF(*(_json_numbers(name, rec[name]) for name in ("center", "size", "euler")))


def box_record(box: Box9DoF, category: int) -> dict:
    """JSON record of a categorized box; the one box serializer of the package."""
    center, size, euler = box_params(box).reshape(3, 3).tolist()
    return {"center": center, "size": size, "euler": euler, "category": int(category)}


def _read_jsonl(path, parse):
    """Yield (line number, scene id, parse(record, box records)) for each non-empty
    line; a malformed line raises a ValueError that names the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                scene_id, boxes = _scene_record(rec)
                parsed = scene_id, parse(rec, boxes)
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield (lineno, *parsed)


def _scene_record(rec) -> tuple[str, list[dict]]:
    """(scene id, box records) of a JSON object whose "scene_id" is a string or an
    integer (not a bool; kept as its decimal string) and "boxes" a list of objects."""
    if not isinstance(rec, dict):
        raise ValueError(f"scene record must be a JSON object, got {rec!r}")
    scene_id, boxes = rec["scene_id"], rec["boxes"]
    if not (isinstance(scene_id, str) or type(scene_id) is int):
        raise ValueError(f"scene_id must be a string or an integer, got {scene_id!r}")
    if not (isinstance(boxes, list) and all(isinstance(b, dict) for b in boxes)):
        raise ValueError(f"boxes must be a list of objects, got {boxes!r}")
    return str(scene_id), boxes


def _category_from_record(rec: dict) -> int:
    """The box's category, which must be a JSON integer: 1.7, "2" and true are
    rejected rather than truncated or coerced."""
    return _json_int("category", rec["category"])


def _score_from_record(rec: dict) -> float:
    """The box's score, which must be a JSON number: "0.5" and true are rejected."""
    return float(_json_number("score", rec["score"]))


def _detections_from_record(rec: dict, boxes: list[dict]) -> list[Detection]:
    return [Detection(_box_from_record(b), _score_from_record(b), _category_from_record(b))
            for b in boxes]


def _gt_scene_from_record(rec: dict, boxes: list[dict]) -> SceneGroundTruth:
    subset = rec.get("subset", "all")
    if not isinstance(subset, str):
        raise ValueError(f"subset must be a string, got {subset!r}")
    return SceneGroundTruth([_box_from_record(b) for b in boxes],
                            [_category_from_record(b) for b in boxes], subset)


def load_detections_jsonl(path) -> dict[str, list[Detection]]:
    """Load per-scene detections; every box record needs a score."""
    out: dict[str, list[Detection]] = {}
    for _, scene_id, dets in _read_jsonl(path, _detections_from_record):
        out.setdefault(scene_id, []).extend(dets)
    return out


def load_gt_jsonl(path) -> GroundTruthSet:
    """Load ground truth scenes; the per-line "subset" tag is optional and a
    repeated scene id is an error."""
    gts = GroundTruthSet()
    for lineno, scene_id, scene in _read_jsonl(path, _gt_scene_from_record):
        if scene_id in gts.scenes:
            raise ValueError(f"{path}: line {lineno}: duplicate scene_id {scene_id!r}")
        gts.scenes[scene_id] = scene
    return gts


def save_detections_jsonl(path, dets_by_scene: dict[str, list[Detection]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene_id in sorted(dets_by_scene):
            boxes = [dict(box_record(det.box, det.category), score=float(det.score))
                     for det in dets_by_scene[scene_id]]
            fh.write(json.dumps({"scene_id": scene_id, "boxes": boxes}, sort_keys=True))
            fh.write("\n")


def save_gt_jsonl(path, gts: GroundTruthSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene_id in sorted(gts.scenes):
            scene = gts.scenes[scene_id]
            boxes = [box_record(box, cat) for box, cat in zip(scene.boxes, scene.categories)]
            fh.write(
                json.dumps(
                    {"scene_id": scene_id, "subset": scene.subset, "boxes": boxes},
                    sort_keys=True,
                )
            )
            fh.write("\n")
