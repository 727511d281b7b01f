"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them).

Every expected value is either computed by an independent oracle inside this
module (brute force, enumeration, Monte Carlo, finite differences, hand PR
integration) or is a fixed constant of the design (standardized intrinsics,
loss weights, thresholds)."""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
from scipy.stats import spearmanr

from mvbox3d.aggregation import (
    FIXED_KEYPOINT_OFFSETS,
    NUM_LEARNABLE_KEYPOINTS,
    Query,
    aggregate,
    aggregation_weights,
)
from mvbox3d.camera import (
    DEFAULT_STD_INTRINSICS,
    CameraModel,
    PixelDepth,
    project,
    standardize_intrinsics,
    unproject,
)
from mvbox3d.config import RunConfig
from mvbox3d.evaluation import (
    GroundTruthSet,
    SceneGroundTruth,
    average_precision,
    metrics_report,
)
from mvbox3d.geometry import (
    Box9DoF,
    Detection,
    box_iou,
    euler_to_rotation,
    reparameterize_box,
    signed_permutations,
    transform_box,
)
from mvbox3d.harness import (
    gen_scene,
    pe_heatmap,
    random_box,
    run_fit_benchmark,
    signature_recovery,
)
from mvbox3d.losses import (
    center_loss,
    corner_chamfer_loss,
    focal_loss,
    l1_box_loss,
    permutation_corner_loss,
    wasserstein_loss,
)
from mvbox3d.matching import hungarian
from oracles import chamfer_tie_margin, pcd_tie_margin

PERMS = signed_permutations()


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion}: runtime {elapsed:.1f}s over budget"


def general_position_pair(rng):
    gt = Box9DoF(
        rng.uniform(-2, 2, 3), rng.uniform(0.3, 1.5, 3), rng.uniform(-0.9, 0.9, 3)
    )
    pred = Box9DoF(
        gt.center + rng.normal(0, 0.4, 3),
        gt.size * rng.uniform(0.7, 1.4, 3),
        gt.euler + rng.normal(0, 0.3, 3),
    )
    return pred, gt


def test_criterion_1_loss_symmetry():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst_wd = 0.0
    worst_pcd = 0.0
    boxes_with_l1_gap = 0
    n_boxes = 200
    for _ in range(n_boxes):
        box = random_box(rng)
        l1_seen = 0.0
        for perm in PERMS:
            other = reparameterize_box(box, perm)
            worst_wd = max(worst_wd, wasserstein_loss(other, box).value)
            worst_pcd = max(worst_pcd, permutation_corner_loss(other, box).value)
            if not np.array_equal(perm, np.eye(3)):
                l1_seen = max(l1_seen, l1_box_loss(other, box).value)
        if l1_seen > 0.05:
            boxes_with_l1_gap += 1
    ok = worst_wd < 1e-6 and worst_pcd < 1e-6 and boxes_with_l1_gap == n_boxes
    report(
        1,
        ok,
        f"max wd {worst_wd:.2e}, max pcd {worst_pcd:.2e}, "
        f"l1>0.05 on {boxes_with_l1_gap}/{n_boxes} boxes",
        time.time() - start,
        5.0,
    )


def _fd_gradient(value_fn, params, h=1e-5):
    grad = np.zeros(len(params))
    for k in range(len(params)):
        hi = params.copy()
        hi[k] += h
        lo = params.copy()
        lo[k] -= h
        grad[k] = (value_fn(hi) - value_fn(lo)) / (2 * h)
    return grad


def test_criterion_2_gradient_suite():
    start = time.time()
    checks = {
        "l1": l1_box_loss,
        "ccd": corner_chamfer_loss,
        "pcd": permutation_corner_loss,
        "wd": wasserstein_loss,
    }
    worst = {}
    n_pairs = 1000
    for name, fn in checks.items():
        rng = np.random.default_rng(2000 + len(name))
        worst_rel = 0.0
        done = 0
        while done < n_pairs:
            pred, gt = general_position_pair(rng)
            if name == "l1" and np.min(np.abs(pred.to_params() - gt.to_params())) < 1e-3:
                continue
            if name == "ccd" and chamfer_tie_margin(pred, gt) < 1e-3:
                continue
            if name == "pcd" and pcd_tie_margin(pred, gt) < 1e-3:
                continue
            analytic = fn(pred, gt).grad
            fd = _fd_gradient(lambda p: fn(Box9DoF.from_params(p), gt).value, pred.to_params())
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
            worst_rel = max(worst_rel, rel)
            done += 1
        worst[name] = worst_rel

    rng = np.random.default_rng(2100)
    worst_rel = 0.0
    for _ in range(n_pairs):
        pred_c = rng.normal(0, 2, 3)
        gt_c = rng.normal(0, 2, 3)
        analytic = center_loss(pred_c, gt_c).grad
        fd = _fd_gradient(lambda p: center_loss(p, gt_c).value, pred_c.copy())
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8))
    worst["center"] = worst_rel

    rng = np.random.default_rng(2200)
    worst_rel = 0.0
    for _ in range(n_pairs):
        logits = rng.normal(0, 2, 4)
        target = int(rng.integers(0, 4)) if rng.random() < 0.8 else None
        analytic = focal_loss(logits, target).grad
        fd = _fd_gradient(lambda p: focal_loss(p, target).value, logits.copy())
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8))
    worst["focal"] = worst_rel

    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(2, ok, f"worst FD rel err: {detail}", time.time() - start, 30.0)


def test_criterion_3_iou_monte_carlo_oracle():
    start = time.time()
    rng = np.random.default_rng(3000)
    worst = 0.0
    for i in range(100):
        gt = random_box(rng)
        if i % 3 == 0:
            pred = Box9DoF(
                gt.center + rng.normal(0, 1.2, 3), rng.uniform(0.3, 1.0, 3),
                rng.uniform(-1, 1, 3)
            )
        else:
            pred = Box9DoF(
                gt.center + rng.normal(0, 0.25, 3),
                gt.size * rng.uniform(0.7, 1.3, 3),
                gt.euler + rng.normal(0, 0.4, 3),
            )
        exact = box_iou(pred, gt)
        # Monte-Carlo oracle: 1e6 uniform samples inside pred
        mc_rng = np.random.default_rng(31337 + i)
        rot_p = euler_to_rotation(pred.euler)
        rot_g = euler_to_rotation(gt.euler)
        pts = (mc_rng.random((1_000_000, 3)) - 0.5) * pred.size @ np.eye(3)
        world = pts @ rot_p.T + pred.center
        inside = np.all(np.abs((world - gt.center) @ rot_g) <= gt.size / 2, axis=1)
        inter = pred.volume() * inside.mean()
        mc = inter / (pred.volume() + gt.volume() - inter)
        worst = max(worst, abs(exact - mc))
    ok = worst <= 0.005
    report(3, ok, f"max |exact - MC| = {worst:.4f} over 100 pairs", time.time() - start, 60.0)


def test_criterion_4_hungarian_oracle():
    start = time.time()
    rng = np.random.default_rng(4000)
    worst = 0.0
    for _ in range(500):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(1, 7))
        cost = rng.normal(0, 3, (n_rows, n_cols))
        total = sum(cost[p, g] for p, g in hungarian(cost))
        best = np.inf
        if n_rows <= n_cols:
            for cols in itertools.permutations(range(n_cols), n_rows):
                best = min(best, sum(cost[r, cols[r]] for r in range(n_rows)))
        else:
            for rows in itertools.permutations(range(n_rows), n_cols):
                best = min(best, sum(cost[rows[c], c] for c in range(n_cols)))
        worst = max(worst, abs(total - best))
    ok = worst < 1e-9
    report(4, ok, f"max |hungarian - exhaustive| = {worst:.1e} over 500 matrices",
           time.time() - start, 10.0)


def _oracle_metrics(dets_by_scene, gts, threshold):
    """Independent evaluation pipeline: explicit greedy matcher and textbook
    PR integration, macro-averaged over categories with ground truth."""
    categories = sorted({c for s in gts.scenes.values() for c in s.categories})
    per_cat = {}
    for cat in categories:
        stream = []
        total_gt = 0
        for sid in sorted(set(dets_by_scene) | set(gts.scenes)):
            scene_gt = gts.scenes.get(sid)
            gt_boxes = (
                [b for b, c in zip(scene_gt.boxes, scene_gt.categories) if c == cat]
                if scene_gt
                else []
            )
            total_gt += len(gt_boxes)
            dets = sorted(
                [d for d in dets_by_scene.get(sid, []) if d.category == cat],
                key=lambda d: -d.score,
            )
            used = set()
            for rank, det in enumerate(dets):
                best_iou, best_g = 0.0, -1
                for g, gbox in enumerate(gt_boxes):
                    if g in used:
                        continue
                    iou = box_iou(det.box, gbox)
                    if iou > best_iou:
                        best_iou, best_g = iou, g
                tp = best_g >= 0 and best_iou >= threshold
                if tp:
                    used.add(best_g)
                stream.append((det.score, sid, rank, tp))
        stream.sort(key=lambda item: (-item[0], item[1], item[2]))
        flags = [tp for _, _, _, tp in stream]
        if total_gt == 0:
            per_cat[cat] = 0.0
            continue
        tps = 0
        points = []
        for i, f in enumerate(flags, start=1):
            tps += int(f)
            points.append((tps / total_gt, tps / i))
        ap = 0.0
        prev = 0.0
        for idx, (recall, _) in enumerate(points):
            ap += (recall - prev) * max(p for _, p in points[idx:])
            prev = recall
        per_cat[cat] = ap
    overall = float(np.mean(list(per_cat.values()))) if per_cat else 0.0
    return overall, per_cat


def test_criterion_5_evaluation_oracle():
    start = time.time()
    # known cases, exact
    known_ok = average_precision([True], 1) == 1.0 and average_precision([False, True], 1) == 0.5
    rng = np.random.default_rng(5000)
    worst = 0.0
    for scene_idx in range(50):
        n_gt = int(rng.integers(1, 11))
        gts = GroundTruthSet()
        boxes = [random_box(rng) for _ in range(n_gt)]
        cats = [int(rng.integers(0, 3)) for _ in range(n_gt)]
        gts.scenes["s"] = SceneGroundTruth(boxes, cats)
        dets = []
        for box, cat in zip(boxes, cats):
            if rng.random() < 0.85:
                jit = Box9DoF(
                    box.center + rng.normal(0, 0.15, 3), box.size, box.euler
                )
                dets.append(Detection(jit, float(np.round(rng.uniform(0.1, 1.0), 3)), cat))
            if rng.random() < 0.4:  # spurious detection
                dets.append(
                    Detection(random_box(rng), float(np.round(rng.uniform(0.1, 1.0), 3)),
                              int(rng.integers(0, 3)))
                )
        dets_by_scene = {"s": dets}
        rep = metrics_report(dets_by_scene, gts, 0.25)
        oracle_overall, oracle_cats = _oracle_metrics(dets_by_scene, gts, 0.25)
        worst = max(worst, abs(rep.overall_ap - oracle_overall))
        for cat, ap in oracle_cats.items():
            worst = max(worst, abs(rep.per_category[cat] - ap))
    ok = known_ok and worst < 1e-12
    report(5, ok, f"known cases exact; max |report - oracle| = {worst:.1e} over 50 scenes",
           time.time() - start, 10.0)


def test_criterion_6_camera_roundtrip_and_cis():
    start = time.time()
    ext = np.eye(4)
    ext[:3, :3] = euler_to_rotation([0.2, -0.3, 0.9])
    ext[:3, 3] = [1.0, -0.5, 0.3]
    cam = CameraModel(DEFAULT_STD_INTRINSICS, ext, (512, 512))
    rng = np.random.default_rng(6000)
    worst_rt = 0.0
    for _ in range(1000):
        pd = PixelDepth(rng.uniform(0, 511), rng.uniform(0, 511), rng.uniform(0.05, 10))
        back = project(cam, unproject(cam, pd))
        worst_rt = max(worst_rt, abs(back.u - pd.u), abs(back.v - pd.v),
                       abs(back.depth - pd.depth))

    src_cam = CameraModel([505.0, 470.0, 250.0, 260.0], ext, (512, 512))
    _, std_cam = standardize_intrinsics(np.zeros((512, 512)), src_cam)
    intrinsics_exact = tuple(std_cam.intrinsics) == (432.579, 539.857, 256.0, 256.0)
    fu_s, fv_s, cu_s, cv_s = src_cam.intrinsics
    fu_t, fv_t, cu_t, cv_t = std_cam.intrinsics
    worst_px = 0.0
    for _ in range(1000):
        world = unproject(src_cam, PixelDepth(rng.uniform(0, 511), rng.uniform(0, 511),
                                              rng.uniform(0.2, 10)))
        orig = project(src_cam, world)
        via_std = project(std_cam, world)
        u_expected = (orig.u - cu_s) / fu_s * fu_t + cu_t
        v_expected = (orig.v - cv_s) / fv_s * fv_t + cv_t
        worst_px = max(worst_px, abs(via_std.u - u_expected), abs(via_std.v - v_expected))
    ok = worst_rt <= 1e-7 and worst_px <= 0.5 and intrinsics_exact
    report(
        6,
        ok,
        f"round-trip {worst_rt:.1e}, CIS consistency {worst_px:.1e} px, "
        f"std intrinsics exact: {intrinsics_exact}",
        time.time() - start,
        5.0,
    )


def test_criterion_7_aggregation_contract():
    start = time.time()
    config = RunConfig(max_boxes=4, min_cameras=5, min_box_separation=1.8, box_size_max=0.7)

    # masked-softmax weight contract over random validity patterns
    rng = np.random.default_rng(7000)
    weights_ok = True
    scene0 = gen_scene(config, 0)
    cams = scene0.cameras[:2]
    m = len(FIXED_KEYPOINT_OFFSETS) + NUM_LEARNABLE_KEYPOINTS
    from mvbox3d.enhancer import init_linear

    params = init_linear("weights", config.embed_dim + 9 + 16 * 2, m * 2, 77)
    query = Query(rng.normal(size=config.embed_dim), scene0.gt_boxes[0])
    for _ in range(50):
        validity = rng.random((m, 2)) > 0.5
        w = aggregation_weights(query, cams, validity, params)
        if validity.any():
            weights_ok &= abs(w.weights.sum() - 1.0) < 1e-6
            weights_ok &= float(w.weights[~validity].max(initial=0.0)) == 0.0
        else:
            weights_ok &= w.all_invalid and np.all(w.weights == 0.0)

    # rigid-transform equivariance of the aggregated feature
    from mvbox3d.harness import build_aggregation_params, render_feature_maps

    scene = gen_scene(config, 1)
    rendered = render_feature_maps(scene, config)
    agg_params = build_aggregation_params(config, len(scene.cameras))
    queries = [Query(rendered.signatures[i], b) for i, b in enumerate(scene.gt_boxes)]
    base, _ = aggregate(queries, rendered.image_maps, scene.cameras, agg_params)
    g = np.eye(4)
    g[:3, :3] = euler_to_rotation([0.6, -0.8, 1.7])
    g[:3, 3] = [10.0, -4.0, 2.0]
    moved_queries = [Query(q.feature, transform_box(q.anchor, g)) for q in queries]
    moved_cams = [CameraModel(c.intrinsics, g @ c.extrinsics, c.image_size)
                  for c in scene.cameras]
    moved, _ = aggregate(moved_queries, rendered.image_maps, moved_cams, agg_params)
    equivariance = float(np.max(np.abs(base - moved)))

    # oracle signature recovery on 50 scenes
    recovered = 0
    total = 0
    for seed in range(50):
        for inst, best, _ in signature_recovery(gen_scene(config, seed), config):
            total += 1
            recovered += int(best == inst)
    ok = weights_ok and equivariance <= 1e-6 and recovered == total
    report(
        7,
        ok,
        f"weight contract {weights_ok}, equivariance {equivariance:.1e}, "
        f"recovery {recovered}/{total}",
        time.time() - start,
        30.0,
    )


def test_criterion_8_fit_quality_ordering():
    start = time.time()
    config = RunConfig()
    wd = run_fit_benchmark("wd", config, 100, symmetry="random")
    pcd = run_fit_benchmark("pcd", config, 100, symmetry="random")
    l1 = run_fit_benchmark("l1", config, 100, symmetry="always")
    wd_rate = float(np.mean([o.final_iou >= 0.9 for o in wd]))
    pcd_rate = float(np.mean([o.final_iou >= 0.9 for o in pcd]))
    l1_rate = float(np.mean([o.final_iou >= 0.9 for o in l1]))
    ok = wd_rate >= 0.95 and pcd_rate >= 0.95 and l1_rate < 0.5
    report(
        8,
        ok,
        f"IoU>=0.9 rates: wd {wd_rate:.2f}, pcd {pcd_rate:.2f}, "
        f"l1 under symmetry {l1_rate:.2f}",
        time.time() - start,
        120.0,
    )


def test_criterion_9_embedding_similarity_vs_distance():
    start = time.time()
    config = RunConfig()
    rhos = []
    for seed in range(20):
        scene = gen_scene(config, seed)
        result = pe_heatmap(scene, config)
        rho = spearmanr(result.similarity.ravel(), result.ray_distance.ravel()).statistic
        rhos.append(float(rho))
    ok = all(r < 0 for r in rhos)
    report(9, ok, f"Spearman in [{min(rhos):.2f}, {max(rhos):.2f}] over 20 scenes",
           time.time() - start, 20.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    config_path = tmp_path / "config.json"
    RunConfig(fit_steps=60, max_boxes=3).save(config_path)

    def run_cli(args):
        proc = subprocess.run(
            [sys.executable, "-m", "mvbox3d.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = []
    for tag in ("a", "b"):
        scene = tmp_path / f"scene_{tag}.json"
        gt = tmp_path / f"gt_{tag}.jsonl"
        run_cli(["gen-scene", "--seed", "21", "--out", str(scene), "--gt-out", str(gt)])
        fit_csv = tmp_path / f"fit_{tag}.csv"
        run_cli(["fit", "--loss", "wd", "--seed", "21", "--config", str(config_path),
                 "--out", str(fit_csv)])
        dets = tmp_path / f"dets_{tag}.jsonl"
        rec = json.loads(gt.read_text())
        for box in rec["boxes"]:
            box["score"] = 0.9
        dets.write_text(json.dumps(rec, sort_keys=True) + "\n")
        rep = tmp_path / f"report_{tag}.csv"
        run_cli(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(rep)])
        outputs.append(
            (scene.read_bytes(), gt.read_bytes(), fit_csv.read_bytes(), rep.read_bytes())
        )
    ok = outputs[0] == outputs[1]
    report(10, ok, "gen-scene, fit and eval outputs byte-identical across runs",
           time.time() - start, 60.0)
