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

from .geometry import Box9DoF, Detection, box_iou

SIZE_CLASSES = ("small", "medium", "large")


@dataclass(frozen=True)
class SizeThresholds:
    """Volume split points: small < small_max <= medium < medium_max <= large."""

    small_max: float = 0.01
    medium_max: float = 0.5

    def classify(self, box: Box9DoF) -> str:
        vol = box.volume()
        if vol < self.small_max:
            return "small"
        if vol < self.medium_max:
            return "medium"
        return "large"


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


def match_detections(dets: list[Detection], gt_boxes: list[Box9DoF],
                     iou_threshold: float) -> list[bool]:
    """Greedy TP/FP flags in (score desc, input index asc) order.

    Each detection matches the unmatched ground truth with the highest IoU,
    provided it reaches the threshold; IoU ties go to the lowest gt index.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gt_boxes)
    flags = []
    for i in order:
        best_iou = 0.0
        best_g = -1
        for g, gbox in enumerate(gt_boxes):
            if taken[g]:
                continue
            iou = box_iou(dets[i].box, gbox)
            if iou > best_iou:
                best_iou = iou
                best_g = g
        if best_g >= 0 and best_iou >= iou_threshold:
            taken[best_g] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


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
    mpre = np.concatenate([[0.0], precision])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = np.sum((mrec[1:] - mrec[:-1]) * mpre[1:])
    return float(ap)


def _category_ap(dets_by_scene: dict[str, list[Detection]], gts: GroundTruthSet,
                 category: int, iou_threshold: float,
                 size_filter: str | None = None,
                 subset_filter: str | None = None,
                 thresholds: SizeThresholds | None = None):
    """AP and counts for one category, optionally restricted to a size class
    or subset tag. Both detections and ground truths are filtered."""
    thresholds = thresholds or SizeThresholds()
    scored: list[tuple[float, str, int, bool]] = []
    total_gt = 0
    total_det = 0
    scene_ids = sorted(set(dets_by_scene) | set(gts.scenes))
    for scene_id in scene_ids:
        scene_gt = gts.scenes.get(scene_id)
        if subset_filter is not None:
            if scene_gt is None or scene_gt.subset != subset_filter:
                continue
        gt_boxes = []
        if scene_gt is not None:
            gt_boxes = [
                b
                for b, c in zip(scene_gt.boxes, scene_gt.categories)
                if c == category
                and (size_filter is None or thresholds.classify(b) == size_filter)
            ]
        dets = [
            d
            for d in dets_by_scene.get(scene_id, [])
            if d.category == category
            and (size_filter is None or thresholds.classify(d.box) == size_filter)
        ]
        total_gt += len(gt_boxes)
        total_det += len(dets)
        flags = match_detections(dets, gt_boxes, iou_threshold)
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        for rank, i in enumerate(order):
            scored.append((dets[i].score, scene_id, i, flags[rank]))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    ap = average_precision([f for _, _, _, f in scored], total_gt)
    return ap, total_gt, total_det


def metrics_report(dets_by_scene: dict[str, list[Detection]], gts: GroundTruthSet,
                   iou_threshold: float = 0.25,
                   thresholds: SizeThresholds | None = None) -> MetricsReport:
    """Per-category APs plus macro means over categories, sizes and subsets.

    Macro means run over categories that have at least one ground truth in
    the relevant split; detection-only categories still show up in the
    per-category table (their detections are all false positives).
    """
    thresholds = thresholds or SizeThresholds()
    gt_categories = sorted(
        {c for scene in gts.scenes.values() for c in scene.categories}
    )
    det_categories = sorted(
        {d.category for dets in dets_by_scene.values() for d in dets}
    )
    all_categories = sorted(set(gt_categories) | set(det_categories))

    per_category: dict[int, float] = {}
    num_gt: dict[int, int] = {}
    num_det: dict[int, int] = {}
    for cat in all_categories:
        ap, n_gt, n_det = _category_ap(
            dets_by_scene, gts, cat, iou_threshold, thresholds=thresholds
        )
        per_category[cat] = ap
        num_gt[cat] = n_gt
        num_det[cat] = n_det
    with_gt = [c for c in all_categories if num_gt[c] > 0]
    overall = float(np.mean([per_category[c] for c in with_gt])) if with_gt else 0.0

    per_size: dict[str, float] = {}
    for size in SIZE_CLASSES:
        aps = []
        for cat in gt_categories:
            ap, n_gt, _ = _category_ap(
                dets_by_scene, gts, cat, iou_threshold,
                size_filter=size, thresholds=thresholds,
            )
            if n_gt > 0:
                aps.append(ap)
        per_size[size] = float(np.mean(aps)) if aps else 0.0

    subsets = sorted({scene.subset for scene in gts.scenes.values()})
    per_subset: dict[str, float] = {}
    for subset in subsets:
        aps = []
        for cat in gt_categories:
            ap, n_gt, _ = _category_ap(
                dets_by_scene, gts, cat, iou_threshold,
                subset_filter=subset, thresholds=thresholds,
            )
            if n_gt > 0:
                aps.append(ap)
        per_subset[subset] = float(np.mean(aps)) if aps else 0.0

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
    return Box9DoF(rec["center"], rec["size"], rec["euler"])


def box_record(box: Box9DoF, category: int) -> dict:
    """JSON record of a categorized box; the one box serializer of the package."""
    return {
        "center": [float(x) for x in box.center],
        "size": [float(x) for x in box.size],
        "euler": [float(x) for x in box.euler],
        "category": int(category),
    }


def _read_jsonl(path, parse):
    """Yield (line number, scene id, parse(record)) for each non-empty line; a
    malformed line raises a ValueError that names the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                parsed = str(rec["scene_id"]), parse(rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield (lineno, *parsed)


def _detections_from_record(rec: dict) -> list[Detection]:
    return [Detection(_box_from_record(b), float(b["score"]), int(b["category"]))
            for b in rec["boxes"]]


def _gt_scene_from_record(rec: dict) -> SceneGroundTruth:
    boxes = [_box_from_record(b) for b in rec["boxes"]]
    cats = [int(b["category"]) for b in rec["boxes"]]
    return SceneGroundTruth(boxes, cats, str(rec.get("subset", "all")))


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
