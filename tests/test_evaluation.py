"""Evaluation tests: greedy matching, all-point AP, the split report, and the
JSON-lines interchange, each checked against brute-force oracles."""

import inspect
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbox3d.evaluation import (
    SIZE_CLASSES,
    GroundTruthSet,
    SceneGroundTruth,
    SizeThresholds,
    _greedy_flags,
    _scene_tables,
    average_precision,
    load_detections_jsonl,
    load_gt_jsonl,
    match_detections,
    metrics_report,
    report_to_csv,
    save_detections_jsonl,
    save_gt_jsonl,
)
from mvbox3d.config import RunConfig
from mvbox3d.geometry import Box9DoF, Detection, box_iou, box_params
from oracles import oracle_average_precision, oracle_greedy_flags, oracle_iou

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None)


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


# IoU tables with ties, all-zero rows, values at the tested thresholds and no
# columns at all: (rows as lists, column count, visiting order, ascending
# column subset).
_IOU_VALUE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _iou_tables(draw):
    d, g = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    iou = [draw(st.one_of(st.just([0.0] * g), st.lists(_IOU_VALUE, min_size=g, max_size=g)))
           for _ in range(d)]
    order = draw(st.permutations(range(d)))
    cols = sorted(draw(st.sets(st.integers(0, g - 1), max_size=g))) if g else []
    return iou, g, order, cols


class TestGreedyMatcher:
    """The list matcher equals the numpy oracle on random tables."""

    @PROPERTIES
    @given(_iou_tables(), st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]))
    def test_matches_oracle(self, table, threshold):
        iou, g, order, cols = table
        matrix = np.array(iou, dtype=float).reshape(len(iou), g)
        assert _greedy_flags(iou, order, range(g), threshold) == (
            oracle_greedy_flags(matrix, order, threshold))
        assert _greedy_flags(iou, order, cols, threshold) == (
            oracle_greedy_flags(matrix[:, cols], order, threshold))

    def test_ties_zero_rows_and_no_columns(self):
        iou = [[0.5, 0.5, 0.25], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.25, 0.0, 0.25]]
        order = [0, 1, 2, 3]
        # 0 takes gt 0 (tie, lowest index), 1 has no overlap, 2 takes gt 1,
        # 3 reaches the threshold 0.25 exactly on gt 2
        assert _greedy_flags(iou, order, range(3), 0.25) == [True, False, True, True]
        assert _greedy_flags(iou, order, [2], 0.25) == [True, False, False, False]
        assert _greedy_flags([[], []], [1, 0], [], 0.25) == [False, False]


class TestAveragePrecision:
    @PROPERTIES
    @given(st.lists(st.booleans(), max_size=40), st.integers(0, 45))
    def test_envelope_matches_loop_bitwise(self, flags, extra_gt):
        num_gt = sum(flags) + extra_gt
        ap, expected = average_precision(flags, num_gt), oracle_average_precision(flags, num_gt)
        assert struct.pack("<d", ap) == struct.pack("<d", expected)

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
    def test_defaults_are_the_config_defaults(self):
        config = RunConfig()
        assert SizeThresholds() == SizeThresholds(config.size_small_max, config.size_medium_max)
        default = inspect.signature(metrics_report).parameters["iou_threshold"].default
        assert default == config.ap_iou_threshold

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


def brute_force_split_means(dets_by_scene, gts, threshold, thresholds):
    """Per-size and per-subset macro APs, each split filtered and matched from
    scratch with explicit loops and the clipping oracle's IoU."""
    categories = sorted({c for s in gts.scenes.values() for c in s.categories})

    def split_ap(cat, keep_scene, keep_box):
        stream, total_gt = [], 0
        for sid in sorted(set(dets_by_scene) | set(gts.scenes)):
            scene = gts.scenes.get(sid)
            if not keep_scene(scene):
                continue
            gt_boxes = [b for b, c in zip(scene.boxes, scene.categories)
                        if c == cat and keep_box(b)] if scene else []
            dets = [d for d in dets_by_scene.get(sid, []) if d.category == cat and keep_box(d.box)]
            total_gt += len(gt_boxes)
            taken = set()
            for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
                best, best_g = 0.0, -1
                for g, gbox in enumerate(gt_boxes):
                    iou = oracle_iou(dets[i].box, gbox)
                    if g not in taken and iou > best:
                        best, best_g = iou, g
                tp = best_g >= 0 and best >= threshold
                if tp:
                    taken.add(best_g)
                stream.append((dets[i].score, sid, i, tp))
        stream.sort(key=lambda t: (-t[0], t[1], t[2]))
        return hand_ap([t[3] for t in stream], total_gt), total_gt

    def macro(keep_scene, keep_box):
        aps = [ap for ap, n in (split_ap(c, keep_scene, keep_box) for c in categories) if n > 0]
        return float(np.mean(aps)) if aps else 0.0

    per_size = {size: macro(lambda s: True, lambda b, size=size: thresholds.classify(b) == size)
                for size in SIZE_CLASSES}
    subsets = sorted({s.subset for s in gts.scenes.values()})
    per_subset = {sub: macro(lambda s, sub=sub: s is not None and s.subset == sub, lambda b: True)
                  for sub in subsets}
    return per_size, per_subset


class TestSplitsAgainstBruteForce:
    def _scenes(self, rng):
        gts = GroundTruthSet()
        dets = {}
        for k in range(6):
            n = int(rng.integers(1, 6))
            boxes = [Box9DoF(rng.uniform(-2, 2, 3), rng.uniform(0.1, 1.2, 3),
                             [0, 0, rng.uniform(-1, 1)]) for _ in range(n)]
            cats = [int(rng.integers(0, 3)) for _ in range(n)]
            gts.scenes[f"s{k}"] = SceneGroundTruth(boxes, cats, ("a", "b", "c")[k % 3])
            scene_dets = []
            for box, cat in zip(boxes, cats):
                for _ in range(int(rng.integers(0, 3))):  # duplicates, some cross-category
                    jit = Box9DoF(box.center + rng.normal(0, 0.1, 3),
                                  box.size * rng.uniform(0.8, 1.25, 3), box.euler)
                    det_cat = cat if rng.random() < 0.7 else int(rng.integers(0, 3))
                    scene_dets.append(Detection(jit, float(rng.choice([0.3, 0.6, 0.9])), det_cat))
            scene_dets.append(Detection(Box9DoF(rng.uniform(-2, 2, 3), [0.5, 0.5, 0.5], [0, 0, 0]),
                                        0.6, int(rng.integers(0, 3))))
            dets[f"s{k}"] = scene_dets
        dets["only-dets"] = [Detection(gts.scenes["s0"].boxes[0], 0.9, 1)]
        return dets, gts

    def test_size_and_subset_means(self):
        rng = np.random.default_rng(31)
        thresholds = SizeThresholds()
        for _ in range(6):
            dets, gts = self._scenes(rng)
            report = metrics_report(dets, gts, 0.25, thresholds)
            per_size, per_subset = brute_force_split_means(dets, gts, 0.25, thresholds)
            assert report.per_size.keys() == per_size.keys()
            assert report.per_subset.keys() == per_subset.keys()
            for split, expected in (*per_size.items(), *per_subset.items()):
                got = report.per_size.get(split, report.per_subset.get(split))
                assert abs(got - expected) <= 1e-12, split


def literal_size_class(box, thresholds):
    """The size rule written out: small < small_max <= medium < medium_max <= large."""
    vol = float(np.prod(box.size))
    if vol < thresholds.small_max:
        return "small"
    return "medium" if vol < thresholds.medium_max else "large"


class TestSizeClasses:
    """One size rule: ``classify`` (one box) and eval's per-scene classes
    (each scene's volume column) agree with each other and with the rule."""

    @pytest.mark.parametrize("size, expected", [
        ([0.5, 1.0, 1.0], "small"),
        ([1.0, 1.0, np.nextafter(1.0, 0.0)], "small"),
        ([1.0, 1.0, 1.0], "medium"),  # exactly small_max
        ([2.0, 2.0, np.nextafter(2.0, 0.0)], "medium"),
        ([2.0, 2.0, 2.0], "large"),  # exactly medium_max
        ([4.0, 2.0, 2.0], "large"),
    ])
    def test_boundaries(self, size, expected):
        thresholds = SizeThresholds(1.0, 8.0)
        box = Box9DoF([0, 0, 0], size, [0, 0, 0])
        assert thresholds.classify(box) == literal_size_class(box, thresholds) == expected
        assert thresholds._classes(box_params([box, box])) == [expected, expected]

    @given(st.lists(st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3), max_size=12),
           st.floats(0.01, 2.0), st.floats(0.01, 8.0))
    @PROPERTIES
    def test_scene_classes_are_classify_box_by_box(self, sizes, small_max, medium_max):
        thresholds = SizeThresholds(small_max, medium_max)
        boxes = [Box9DoF([0.0, float(k), 0.0], size, [0, 0, 0.3]) for k, size in enumerate(sizes)]
        cats = [k % 3 for k in range(len(boxes))]
        dets = {"s": [Detection(box, 0.5, (cat + 1) % 3) for box, cat in zip(boxes, cats)]}
        gts = GroundTruthSet({"s": SceneGroundTruth(boxes, cats)})
        tables = _scene_tables(dets, gts, thresholds)
        for cat in range(3):
            sides = ([d.box for d in dets["s"] if d.category == cat],
                     [b for b, c in zip(boxes, cats) if c == cat])
            want = [[literal_size_class(b, thresholds) for b in side] for side in sides]
            assert want == [[thresholds.classify(b) for b in side] for side in sides]
            got = [[t.det_sizes, t.gt_sizes] for t in tables.get(cat, [])]
            assert got == ([want] if any(want) else [])


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

    @pytest.mark.parametrize("value", [1.7, "2", True, None, [1]])
    @pytest.mark.parametrize("loader", [load_detections_jsonl, load_gt_jsonl])
    def test_non_integer_category_rejected(self, tmp_path, loader, value):
        path = tmp_path / "boxes.jsonl"
        box = {"center": [0, 0, 0], "size": [1, 1, 1], "euler": [0, 0, 0],
               "category": 0, "score": 0.5}
        bad = dict(box, category=value)
        path.write_text(json.dumps({"scene_id": "a", "boxes": [box]}) + "\n"
                        + json.dumps({"scene_id": "b", "boxes": [box, bad]}) + "\n")
        with pytest.raises(ValueError) as info:
            loader(path)
        message = str(info.value)
        assert str(path) in message and "line 2" in message
        assert f"category must be an integer, got {value!r}" in message

    @pytest.mark.parametrize("loader, field, value", [
        (loader, field, value)
        for loader in (load_detections_jsonl, load_gt_jsonl)
        for field, value in [
            ("center", ["0", "0", "1"]), ("center", [0, 0, True]), ("center", "000"),
            ("center", [[0, 0, 1]]), ("size", [1, "1", 1]), ("euler", [0, 0, None]),
            ("euler", 0.5), ("score", "0.5"), ("score", True), ("score", None), ("score", [0.5]),
        ]
        if field != "score" or loader is load_detections_jsonl
    ])
    def test_non_number_fields_rejected(self, tmp_path, loader, field, value):
        path = tmp_path / "boxes.jsonl"
        box = {"center": [0, 0, 1], "size": [1, 1, 1], "euler": [0, 0, 0],
               "category": 0, "score": 0.5}
        path.write_text(json.dumps({"scene_id": "a", "boxes": [box]}) + "\n"
                        + json.dumps({"scene_id": "b", "boxes": [box, dict(box, **{field: value})]})
                        + "\n")
        with pytest.raises(ValueError) as info:
            loader(path)
        message = str(info.value)
        assert str(path) in message and "line 2" in message
        kind = "a number" if field == "score" else "a list of numbers"
        assert f"{field} must be {kind}, got {value!r}" in message

    def test_integer_numbers_accepted(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"scene_id": "a", "boxes": [{"center": [0, 0, 1], "size": [1, 2, 1], '
                        '"euler": [0, 0, 0], "category": 0, "score": 1}]}\n')
        det = load_detections_jsonl(path)["a"][0]
        assert det.score == 1.0 and det.box.size.tolist() == [1.0, 2.0, 1.0]

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"scene_id": "a", "boxes": [{"center": [0,0,0], "size": [1,1,1], '
                        '"euler": [0,0,0], "category": 0}]}\n')
        with pytest.raises(ValueError, match="line 1: missing field 'score'"):
            load_detections_jsonl(path)
