"""Evaluation tests: greedy matching, all-point AP, the split report, and the
JSON-lines interchange, each checked against brute-force oracles."""

import numpy as np
import pytest

from mvbox3d.evaluation import (
    GroundTruthSet,
    SceneGroundTruth,
    SizeThresholds,
    average_precision,
    load_detections_jsonl,
    load_gt_jsonl,
    match_detections,
    metrics_report,
    report_to_csv,
    save_detections_jsonl,
    save_gt_jsonl,
)
from mvbox3d.geometry import Box9DoF, Detection, box_iou


def cube(center, edge=1.0, category=0, score=None):
    box = Box9DoF(center, [edge, edge, edge], [0, 0, 0])
    if score is None:
        return box
    return Detection(box, score, category)


def brute_force_flags(dets, gt_boxes, threshold):
    """Independent greedy matcher with explicit loops."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    flags = []
    for i in order:
        ious = []
        for g, gbox in enumerate(gt_boxes):
            if g not in taken:
                ious.append((box_iou(dets[i].box, gbox), -g))
        if ious:
            best_iou, neg_g = max(ious)
            if best_iou >= threshold:
                taken.add(-neg_g)
                flags.append(True)
                continue
        flags.append(False)
    return flags


def hand_ap(flags, num_gt):
    """Textbook PR integration with the precision envelope."""
    if num_gt == 0 or not flags:
        return 0.0
    tps = 0
    points = []
    for i, f in enumerate(flags, start=1):
        tps += int(f)
        points.append((tps / num_gt, tps / i))
    ap = 0.0
    prev_recall = 0.0
    for idx, (recall, _) in enumerate(points):
        envelope = max(p for r, p in points[idx:])
        ap += (recall - prev_recall) * envelope
        prev_recall = recall
    return ap


class TestMatchDetections:
    def test_single_above_threshold(self):
        gt = [cube([0, 0, 0])]
        dets = [cube([0.3, 0, 0], score=0.9)]  # IoU 0.7/1.3 ~ 0.54
        assert match_detections(dets, gt, 0.25) == [True]

    def test_duplicate_is_fp(self):
        gt = [cube([0, 0, 0])]
        dets = [cube([0, 0, 0], score=0.9), cube([0, 0, 0], score=0.8)]
        assert match_detections(dets, gt, 0.25) == [True, False]

    def test_flags_in_score_order(self):
        gt = [cube([0, 0, 0])]
        dets = [cube([5, 0, 0], score=0.2), cube([0, 0, 0], score=0.9)]
        # returned in (score desc) order: the strong hit first
        assert match_detections(dets, gt, 0.25) == [True, False]

    def test_tie_breaks_lowest_gt_index(self):
        gt = [cube([0, 0, 0]), cube([0, 0, 0])]
        dets = [cube([0, 0, 0], score=0.9)]
        flags = match_detections(dets, gt, 0.25)
        assert flags == [True]
        # second detection must match the remaining gt
        dets.append(cube([0, 0, 0], score=0.8))
        assert match_detections(dets, gt, 0.25) == [True, True]

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gt = [cube(rng.uniform(-2, 2, 3)) for _ in range(int(rng.integers(1, 4)))]
            dets = [
                cube(
                    gt[int(rng.integers(0, len(gt)))].center + rng.normal(0, 0.4, 3),
                    score=float(np.round(rng.uniform(0, 1), 3)),
                )
                for _ in range(int(rng.integers(1, 6)))
            ]
            assert match_detections(dets, [g for g in gt], 0.25) == brute_force_flags(
                dets, gt, 0.25
            )


class TestAveragePrecision:
    def test_known_cases(self):
        assert average_precision([True], 1) == pytest.approx(1.0)
        assert average_precision([False, True], 1) == pytest.approx(0.5)
        assert average_precision([True, True], 4) == pytest.approx(0.5)

    def test_zero_gt(self):
        assert average_precision([False, False], 0) == 0.0
        assert average_precision([], 3) == 0.0

    def test_against_hand_integration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            flags = [bool(rng.random() < 0.5) for _ in range(n)]
            num_gt = max(sum(flags), int(rng.integers(1, 8)))
            assert average_precision(flags, num_gt) == pytest.approx(
                hand_ap(flags, num_gt), abs=1e-12
            )

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            flags = [bool(rng.random() < 0.5) for _ in range(int(rng.integers(1, 8)))]
            num_gt = sum(flags) + int(rng.integers(1, 4))
            base = average_precision(flags, num_gt)
            assert average_precision(flags + [True], num_gt) >= base - 1e-12
            assert average_precision(flags + [False], num_gt) <= base + 1e-12


class TestMetricsReport:
    def _simple_gts(self):
        return GroundTruthSet(
            {
                "a": SceneGroundTruth([cube([0, 0, 0]), cube([3, 0, 0])], [0, 1], "ring"),
                "b": SceneGroundTruth([cube([0, 0, 3])], [0], "line"),
            }
        )

    def test_perfect_detections(self):
        gts = self._simple_gts()
        dets = {
            sid: [
                Detection(box, 1.0, cat)
                for box, cat in zip(scene.boxes, scene.categories)
            ]
            for sid, scene in gts.scenes.items()
        }
        report = metrics_report(dets, gts, 0.25)
        assert report.overall_ap == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in report.per_category.values())
        assert all(v == pytest.approx(1.0) for v in report.per_subset.values())

    def test_empty_detections(self):
        gts = self._simple_gts()
        report = metrics_report({}, gts, 0.25)
        assert report.overall_ap == 0.0
        assert all(v == 0.0 for v in report.per_category.values())

    def test_score_scaling_invariance(self):
        rng = np.random.default_rng(3)
        gts = self._simple_gts()
        dets = {
            "a": [cube(rng.normal([0, 0, 0], 0.2), score=0.8), cube([3, 0, 0], score=0.4, category=1)],
            "b": [cube([0, 0, 3.2], score=0.6)],
        }
        base = metrics_report(dets, gts, 0.25)
        scaled = {
            sid: [Detection(d.box, d.score * 0.5, d.category) for d in ds]
            for sid, ds in dets.items()
        }
        other = metrics_report(scaled, gts, 0.25)
        assert other.overall_ap == pytest.approx(base.overall_ap, abs=1e-12)
        assert other.per_category == base.per_category

    def test_two_category_isolation(self):
        # per-category values equal single-category runs
        gts = self._simple_gts()
        dets = {
            "a": [cube([0.2, 0, 0], score=0.9), cube([9, 9, 9], score=0.8, category=1)],
            "b": [cube([0, 0, 3], score=0.7)],
        }
        full = metrics_report(dets, gts, 0.25)
        for cat in (0, 1):
            gts_cat = GroundTruthSet(
                {
                    sid: SceneGroundTruth(
                        [b for b, c in zip(s.boxes, s.categories) if c == cat],
                        [c for c in s.categories if c == cat],
                        s.subset,
                    )
                    for sid, s in gts.scenes.items()
                }
            )
            dets_cat = {
                sid: [d for d in ds if d.category == cat] for sid, ds in dets.items()
            }
            solo = metrics_report(dets_cat, gts_cat, 0.25)
            assert full.per_category[cat] == pytest.approx(solo.per_category[cat], abs=1e-12)

    def test_unknown_category_detection_is_fp(self):
        gts = self._simple_gts()
        dets = {"a": [cube([0, 0, 0], score=0.9, category=7)]}
        report = metrics_report(dets, gts, 0.25)
        assert report.per_category[7] == 0.0
        assert report.num_gt[7] == 0
        assert report.num_det[7] == 1
        # categories without gt stay out of the macro mean: with no other
        # detections every gt category scores 0, so overall is 0 regardless
        assert report.overall_ap == 0.0

    def test_size_split(self):
        gts = GroundTruthSet(
            {
                "s": SceneGroundTruth(
                    [cube([0, 0, 0], edge=0.1), cube([3, 0, 0], edge=1.0)], [0, 0]
                )
            }
        )
        dets = {
            "s": [
                cube([0, 0, 0], edge=0.1, score=0.9),
                cube([3, 0, 0], edge=1.0, score=0.8),
            ]
        }
        report = metrics_report(dets, gts, 0.25, SizeThresholds(0.01, 0.5))
        assert report.per_size["small"] == pytest.approx(1.0)
        assert report.per_size["large"] == pytest.approx(1.0)
        assert report.per_size["medium"] == 0.0

    def test_csv_shape(self):
        gts = self._simple_gts()
        report = metrics_report({}, gts, 0.25)
        csv_text = report_to_csv(report)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "split,category,ap,num_gt,num_det"
        assert lines[1].startswith("overall,all,")
        assert any(line.startswith("size,small,") for line in lines)
        assert any(line.startswith("subset,ring,") for line in lines)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        gts = GroundTruthSet(
            {"x": SceneGroundTruth([cube([1, 2, 3])], [4], "tag")}
        )
        gt_path = tmp_path / "gt.jsonl"
        save_gt_jsonl(gt_path, gts)
        loaded = load_gt_jsonl(gt_path)
        assert loaded.scenes["x"].subset == "tag"
        assert loaded.scenes["x"].categories == [4]
        assert np.allclose(loaded.scenes["x"].boxes[0].center, [1, 2, 3])

        dets = {"x": [cube([0, 0, 1], score=0.25, category=2)]}
        det_path = tmp_path / "dets.jsonl"
        save_detections_jsonl(det_path, dets)
        loaded_dets = load_detections_jsonl(det_path)
        assert loaded_dets["x"][0].score == 0.25
        assert loaded_dets["x"][0].category == 2

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"scene_id": "a", "boxes": []}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_gt_jsonl(path)

    def test_duplicate_scene_id_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        line = '{"scene_id": "a", "boxes": []}\n'
        path.write_text(line + '{"scene_id": "b", "boxes": []}\n' + line)
        with pytest.raises(ValueError) as info:
            load_gt_jsonl(path)
        message = str(info.value)
        assert str(path) in message
        assert "line 3" in message
        assert "duplicate scene_id 'a'" in message

    def test_missing_score_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"scene_id": "a", "boxes": [{"center": [0,0,0], "size": [1,1,1], '
            '"euler": [0,0,0], "category": 0}]}\n'
        )
        with pytest.raises(ValueError, match="line 1"):
            load_detections_jsonl(path)
