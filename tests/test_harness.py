"""Harness tests: deterministic scene generation, oracle rendering, box
fitting behavior, heatmaps, and the evaluation runner."""

import json

import numpy as np
import pytest

from mvbox3d.camera import in_frustum, project
from mvbox3d.config import RunConfig
from mvbox3d.geometry import (
    Box9DoF,
    box_corners,
    box_iou,
    reparameterize_box,
    signed_permutations,
)
from mvbox3d.harness import (
    fit_boxes,
    fit_single_box,
    fit_trace_csv,
    gen_scene,
    heatmap_csv,
    load_scene_json,
    pe_heatmap,
    perturb_box,
    random_box,
    render_feature_maps,
    run_eval,
    run_fit_benchmark,
    save_scene_json,
    scene_gt_record,
    scene_to_dict,
    signature_recovery,
    svg_line_chart,
)

FAST_FIT = RunConfig(fit_steps=300)
RECOVERY = RunConfig(max_boxes=4, min_cameras=5, min_box_separation=1.8, box_size_max=0.7)


class TestGenScene:
    def test_deterministic(self):
        a = gen_scene(RunConfig(), 17)
        b = gen_scene(RunConfig(), 17)
        assert scene_to_dict(a) == scene_to_dict(b)

    def test_box_count_range(self):
        for seed in range(8):
            scene = gen_scene(RunConfig(), seed)
            assert 1 <= len(scene.gt_boxes) <= 10
            assert 2 <= len(scene.cameras) <= 8

    def test_visibility_invariant(self):
        config = RunConfig()
        for seed in range(8):
            scene = gen_scene(config, seed)
            for box in scene.gt_boxes:
                assert any(
                    in_frustum(cam, box.center, config.max_depth) for cam in scene.cameras
                )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(min_boxes=5, max_boxes=2)
        with pytest.raises(ValueError):
            RunConfig(embed_dim=0)

    def test_json_round_trip(self, tmp_path):
        scene = gen_scene(RunConfig(), 3)
        path = tmp_path / "scene.json"
        save_scene_json(path, scene)
        loaded = load_scene_json(path)
        assert scene_to_dict(loaded) == scene_to_dict(scene)

    def test_gt_record_schema(self):
        scene = gen_scene(RunConfig(), 1)
        rec = scene_gt_record(scene)
        assert rec["scene_id"] == scene.scene_id
        assert len(rec["boxes"]) == len(scene.gt_boxes)
        assert {"center", "size", "euler", "category"} <= set(rec["boxes"][0])


class TestRenderFeatureMaps:
    def test_own_pixel_has_signature(self):
        config = RECOVERY
        scene = gen_scene(config, 5)
        rendered = render_feature_maps(scene, config)
        stride = config.feature_stride
        for idx, box in enumerate(scene.gt_boxes):
            hits = 0
            for view, cam in enumerate(scene.cameras):
                try:
                    pd = project(cam, box.center)
                except ValueError:
                    continue
                if not in_frustum(cam, box.center, config.max_depth):
                    continue
                i, j = int(round(pd.v / stride)), int(round(pd.u / stride))
                owner = rendered.owners[view]
                if 0 <= i < owner.shape[0] and 0 <= j < owner.shape[1]:
                    if owner[i, j] == idx:
                        cell = rendered.image_maps[view].grid[i, j]
                        assert np.allclose(cell, rendered.signatures[idx])
                        depth = rendered.depth_maps[view].grid[i, j, 0]
                        assert depth > 0
                        hits += 1
            assert hits >= 1

    def test_background_zero(self):
        config = RECOVERY
        scene = gen_scene(config, 6)
        rendered = render_feature_maps(scene, config)
        for view, owner in enumerate(rendered.owners):
            bg = owner < 0
            assert np.all(rendered.image_maps[view].grid[bg] == 0.0)
            assert np.all(rendered.depth_maps[view].grid[bg] == 0.0)

    def test_signatures_unit_norm(self):
        rendered = render_feature_maps(gen_scene(RunConfig(), 2), RunConfig())
        norms = np.linalg.norm(rendered.signatures, axis=1)
        assert np.allclose(norms, 1.0)


class TestSignatureRecovery:
    def test_recovery_on_sparse_scenes(self):
        for seed in range(6):
            scene = gen_scene(RECOVERY, seed)
            for inst, best, cosines in signature_recovery(scene, RECOVERY):
                assert best == inst
                others = np.delete(cosines, inst)
                if len(others):
                    assert cosines[inst] > others.max()


class TestPerturbAndFit:
    def test_perturb_deterministic(self):
        gt = random_box(np.random.default_rng(0))
        a, sa = perturb_box(gt, np.random.default_rng(9), RunConfig())
        b, sb = perturb_box(gt, np.random.default_rng(9), RunConfig())
        assert sa == sb
        assert np.array_equal(a.to_params(), b.to_params())

    def test_force_symmetry(self):
        gt = random_box(np.random.default_rng(1))
        _, applied = perturb_box(gt, np.random.default_rng(2), RunConfig(), force_symmetry=True)
        assert applied
        _, applied = perturb_box(gt, np.random.default_rng(2), RunConfig(), force_symmetry=False)
        assert not applied

    @pytest.mark.parametrize("kind", ["l1", "ccd", "pcd", "wd"])
    def test_fixed_point(self, kind):
        gt = Box9DoF([0.5, -0.3, 1.2], [0.5, 0.8, 1.1], [0.2, -0.4, 0.9])
        trace = fit_single_box(gt, gt, kind, FAST_FIT)
        assert trace.final_loss < 1e-9
        assert np.max(np.abs(trace.final_box.to_params() - gt.to_params())) < 1e-6

    def test_non_finite_step_rejected(self, monkeypatch):
        # a loss whose gradient turns non-finite drives the parameters there;
        # the per-step check names the block instead of fitting on NaNs
        from mvbox3d import losses

        def nan_grad(pred, gt):
            return losses.LossValueGrad(1.0, np.full(np.shape(pred), np.nan))

        monkeypatch.setitem(losses._BOX_LOSSES, "l1", nan_grad)
        gt = random_box(np.random.default_rng(4))
        with pytest.raises(ValueError, match="center must be finite"):
            fit_single_box(gt, gt, "l1", FAST_FIT)

    def test_unknown_loss_kind(self):
        gt = random_box(np.random.default_rng(3))
        with pytest.raises(ValueError):
            fit_single_box(gt, gt, "iou", FAST_FIT)

    def test_loss_descends(self):
        rng = np.random.default_rng(4)
        gt = random_box(rng)
        init, _ = perturb_box(gt, rng, FAST_FIT, force_symmetry=False)
        trace = fit_single_box(gt, init, "wd", FAST_FIT)
        assert trace.final_loss < 0.25 * trace.losses[0]
        assert np.all(np.isfinite(trace.losses))
        assert len(trace.losses) == FAST_FIT.fit_steps

    def test_fit_boxes_deterministic_and_flagged(self):
        config = RunConfig(fit_steps=50, max_boxes=3)
        scene = gen_scene(config, 11)
        a = fit_boxes(scene, "pcd", config)
        b = fit_boxes(scene, "pcd", config)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.losses, tb.losses)
            assert ta.symmetry_applied == tb.symmetry_applied

    def test_benchmark_wd_recovers(self):
        config = RunConfig(fit_steps=800)
        outcomes = run_fit_benchmark("wd", config, 10, symmetry="never")
        assert np.mean([o.final_iou >= 0.9 for o in outcomes]) >= 0.9

    def test_benchmark_symmetry_modes(self):
        config = RunConfig(fit_steps=10)
        always = run_fit_benchmark("l1", config, 6, symmetry="always")
        never = run_fit_benchmark("l1", config, 6, symmetry="never")
        assert all(o.symmetry_applied for o in always)
        assert not any(o.symmetry_applied for o in never)

    def test_l1_lands_far_in_parameter_space_where_wd_recovers(self):
        # paired runs from identical inits reparameterized by a fixed far
        # symmetry (w/l swap with a sign flip): the raw-param loss stays far
        # from the ground-truth parameter vector inside the step budget while
        # the symmetry-invariant loss already matches the geometry
        config = RunConfig()
        perm = signed_permutations()[17]
        for i in range(6):
            rng = np.random.default_rng([88, i])
            gt = random_box(rng)
            jittered, _ = perturb_box(gt, rng, config, force_symmetry=False)
            init = reparameterize_box(jittered, perm)
            l1_trace = fit_single_box(gt, init, "l1", config)
            wd_trace = fit_single_box(gt, init, "wd", config)
            l1_param_gap = np.mean(np.abs(l1_trace.final_box.to_params() - gt.to_params()))
            assert l1_param_gap > 0.1
            assert box_iou(wd_trace.final_box, gt) >= 0.9

    def test_symmetry_robust_outcome(self):
        # the invariant-aware losses land on the same geometry no matter
        # which of the 48 equivalent parameterizations initializes the fit;
        # tolerances reflect the constant-step oscillation floor (~lr), since
        # euler-coordinate descent cannot mirror trajectories exactly
        config = RunConfig(fit_steps=2500, learning_rate=0.004)
        rng = np.random.default_rng(12)
        gt = random_box(rng)
        init, _ = perturb_box(gt, rng, config, force_symmetry=False)
        perms = signed_permutations()
        for kind in ("wd", "pcd"):
            ref = fit_single_box(gt, init, kind, config)
            ref_corners = np.sort(box_corners(ref.final_box), axis=0)
            for pidx in (5, 17, 40):
                other_init = reparameterize_box(init, perms[pidx])
                other = fit_single_box(gt, other_init, kind, config)
                corners = np.sort(box_corners(other.final_box), axis=0)
                assert np.max(np.abs(corners - ref_corners)) < 5e-3
                assert abs(other.final_loss - ref.final_loss) < 2e-2

    def test_trace_csv_deterministic(self):
        config = RunConfig(fit_steps=20, max_boxes=2)
        scene = gen_scene(config, 7)
        a = fit_trace_csv(fit_boxes(scene, "wd", config))
        b = fit_trace_csv(fit_boxes(scene, "wd", config))
        assert a == b
        assert a.startswith("instance,step,loss,grad_norm,symmetry")


class TestPeHeatmap:
    def test_reference_similarity_one(self):
        scene = gen_scene(RunConfig(), 4)
        result = pe_heatmap(scene, RunConfig())
        assert result.similarity[result.ref] == pytest.approx(1.0)
        assert result.ray_distance[result.ref] == 0.0

    def test_similarity_decays_with_ray_distance(self):
        from scipy.stats import spearmanr

        for seed in (0, 1, 2):
            scene = gen_scene(RunConfig(), seed)
            result = pe_heatmap(scene, RunConfig())
            rho = spearmanr(result.similarity.ravel(), result.ray_distance.ravel()).statistic
            assert rho < 0

    def test_heatmap_csv_header(self):
        scene = gen_scene(RunConfig(), 4)
        text = heatmap_csv(pe_heatmap(scene, RunConfig()))
        assert text.startswith("i,j,similarity,ray_distance")


class TestRunEval:
    def _write_scene_files(self, tmp_path, perturb=0.0, duplicate=False):
        config = RunConfig()
        gt_path = tmp_path / "gt.jsonl"
        det_path = tmp_path / "dets.jsonl"
        with open(gt_path, "w") as gt_fh, open(det_path, "w") as det_fh:
            for seed in (0, 1):
                scene = gen_scene(config, seed)
                gt_fh.write(json.dumps(scene_gt_record(scene), sort_keys=True) + "\n")
                boxes = []
                for box, cat in zip(scene.gt_boxes, scene.gt_categories):
                    rec = {
                        "center": list(box.center + perturb),
                        "size": list(box.size),
                        "euler": list(box.euler),
                        "category": cat,
                        "score": 0.9,
                    }
                    boxes.append(rec)
                    if duplicate:
                        boxes.append(dict(rec, score=0.7))
                det_fh.write(
                    json.dumps({"scene_id": scene.scene_id, "boxes": boxes}) + "\n"
                )
        return det_path, gt_path

    def test_perfect_detections(self, tmp_path):
        det_path, gt_path = self._write_scene_files(tmp_path)
        report, csv_text = run_eval(det_path, gt_path, RunConfig())
        assert report.overall_ap == pytest.approx(1.0)
        assert csv_text.startswith("split,category,ap")

    def test_empty_detections(self, tmp_path):
        _, gt_path = self._write_scene_files(tmp_path)
        det_path = tmp_path / "none.jsonl"
        det_path.write_text("")
        report, _ = run_eval(det_path, gt_path, RunConfig())
        assert report.overall_ap == 0.0

    def test_nms_deduplicates(self, tmp_path):
        det_dup, gt_path = self._write_scene_files(tmp_path, duplicate=True)
        det_clean, _ = self._write_scene_files(tmp_path)
        with_nms, _ = run_eval(det_dup, gt_path, RunConfig(), apply_nms=True)
        clean, _ = run_eval(det_clean, gt_path, RunConfig(), apply_nms=True)
        assert with_nms.overall_ap == pytest.approx(clean.overall_ap, abs=1e-12)

    def test_parse_error(self, tmp_path):
        gt_path = tmp_path / "gt.jsonl"
        gt_path.write_text("broken\n")
        det_path = tmp_path / "dets.jsonl"
        det_path.write_text("")
        with pytest.raises(ValueError, match="line 1"):
            run_eval(det_path, gt_path, RunConfig())


class TestSvgChart:
    def test_chart_contains_series(self):
        text = svg_line_chart({"loss": np.array([3.0, 2.0, 1.0])}, title="fit")
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "fit" in text

    def test_deterministic(self):
        series = {"a": np.linspace(1, 0, 50), "b": np.linspace(0, 2, 50)}
        assert svg_line_chart(series) == svg_line_chart(series)
