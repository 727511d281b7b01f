"""CLI tests: subcommand contracts, exit codes, and byte-level determinism."""

import json

import numpy as np
import pytest

from mvbox3d.camera import CameraModel, save_camera_json
from mvbox3d.cli import main
from mvbox3d.rasters import read_pgm, read_ppm, write_ppm


def run(args):
    return main(args)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["eval", "--dets", "x.jsonl"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_runtime_error_exit_one(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run(["eval", "--dets", "missing.jsonl", "--gt", "missing.jsonl",
                    "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestGenScene:
    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        gts = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p, g in zip(paths, gts):
            assert run(["gen-scene", "--seed", "5", "--out", str(p), "--gt-out", str(g)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert gts[0].read_bytes() == gts[1].read_bytes()

    def test_scene_schema(self, tmp_path, capsys):
        out = tmp_path / "scene.json"
        assert run(["gen-scene", "--seed", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert {"scene_id", "seed", "cameras", "boxes"} <= set(data)


class TestRender:
    def test_writes_rasters(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        out_dir = tmp_path / "render"
        assert run(["render", "--scene", str(scene), "--out-dir", str(out_dir)]) == 0
        owners = sorted(out_dir.glob("*_owner.pgm"))
        assert owners
        img = read_pgm(owners[0])
        assert img.shape == (64, 64)


    @pytest.mark.parametrize("field", ["boxes", "cameras"])
    def test_scene_without_field_exit_one(self, tmp_path, capsys, field):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        data = json.loads(scene.read_text())
        del data[field]
        scene.write_text(json.dumps(data))
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed scene record: missing field '{field}'\n"

    @pytest.mark.parametrize("category", [1.7, "2", True, None])
    def test_scene_non_integer_category_exit_one(self, tmp_path, capsys, category):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        data = json.loads(scene.read_text())
        data["boxes"][0]["category"] = category
        scene.write_text(json.dumps(data))
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: category must be an integer, got {category!r}\n"

    @pytest.mark.parametrize("field, value", [("center", ["0", "0", "1"]), ("size", [1, True, 1])])
    def test_scene_coerced_number_exit_one(self, tmp_path, capsys, field, value):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        data = json.loads(scene.read_text())
        data["boxes"][0][field] = value
        scene.write_text(json.dumps(data))
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {field} must be a list of numbers, got {value!r}\n"

class TestStandardize:
    def test_default_intrinsics_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, rng.integers(0, 256, (64, 64, 3)))
        cam_path = tmp_path / "cam.json"
        save_camera_json(cam_path, CameraModel([500.0, 480.0, 32.0, 30.0], np.eye(4), (64, 64)))
        out_img = tmp_path / "std.ppm"
        out_cam = tmp_path / "std.json"
        code = run(["standardize", "--in", str(img_path), "--cam", str(cam_path),
                    "--out", str(out_img), "--out-cam", str(out_cam)])
        assert code == 0
        cam = json.loads(out_cam.read_text())
        assert cam["intrinsics"] == [432.579, 539.857, 256.0, 256.0]
        assert read_ppm(out_img).shape == (64, 64, 3)

    def test_custom_intrinsics(self, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.zeros((16, 16, 3)))
        cam_path = tmp_path / "cam.json"
        save_camera_json(cam_path, CameraModel([100.0, 100.0, 8.0, 8.0], np.eye(4), (16, 16)))
        out_cam = tmp_path / "std.json"
        code = run(["standardize", "--in", str(img_path), "--cam", str(cam_path),
                    "--out", str(tmp_path / "s.ppm"), "--out-cam", str(out_cam),
                    "--intrinsics", "90", "95", "8", "8"])
        assert code == 0
        assert json.loads(out_cam.read_text())["intrinsics"] == [90.0, 95.0, 8.0, 8.0]


class TestFit:
    def _config(self, tmp_path):
        from mvbox3d.config import RunConfig

        cfg = RunConfig(fit_steps=40, max_boxes=2)
        path = tmp_path / "config.json"
        cfg.save(path)
        return path

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            code = run(["fit", "--loss", "wd", "--seed", "7", "--config", str(cfg),
                        "--out", str(out)])
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_svg_emitted(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        svg = tmp_path / "curve.svg"
        code = run(["fit", "--loss", "pcd", "--seed", "3", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv"), "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_loss_trend(self, tmp_path, capsys):
        from mvbox3d.config import RunConfig

        cfg_path = tmp_path / "config.json"
        RunConfig(fit_steps=400, max_boxes=3).save(cfg_path)
        out = tmp_path / "trace.csv"
        assert run(["fit", "--loss", "wd", "--seed", "7", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        by_instance = {}
        for row in rows:
            inst, step, loss, _, _ = row.split(",")
            by_instance.setdefault(int(inst), []).append(float(loss))
        for losses in by_instance.values():
            assert losses[-1] < 0.5 * losses[0]


class TestEvalCli:
    def test_eval_report(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(scene), "--gt-out", str(gt)])
        dets = tmp_path / "dets.jsonl"
        rec = json.loads(gt.read_text())
        rec.pop("subset", None)
        for box in rec["boxes"]:
            box["score"] = 0.9
        dets.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        code = run(["eval", "--dets", str(dets), "--gt", str(gt), "--iou", "0.25",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "split,category,ap,num_gt,num_det"
        assert lines[1].split(",")[2] == "1.000000"

    def test_eval_duplicate_scene_id_exit_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        rec = json.loads(gt.read_text())
        gt.write_text(2 * (json.dumps(rec) + "\n"))
        for box in rec["boxes"]:
            box["score"] = 0.9
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        code = run(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "line 2" in err and "duplicate scene_id" in err
        assert not out.exists()

    def test_eval_non_integer_category_exit_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        rec = json.loads(gt.read_text())
        for box in rec["boxes"]:
            box["score"] = 0.9
        rec["boxes"][0]["category"] = 1.7
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        code = run(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {dets}: line 1: category must be an integer, got 1.7\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("center", ["0", "0", "1"]), ("score", "0.5"), ("score", True)])
    def test_eval_coerced_number_exit_one(self, tmp_path, capsys, field, value):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        rec = json.loads(gt.read_text())
        for box in rec["boxes"]:
            box["score"] = 0.9
        rec["boxes"][0][field] = value
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        code = run(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(out)])
        assert code == 1
        kind = "a number" if field == "score" else "a list of numbers"
        err = capsys.readouterr().err
        assert err == f"error: {dets}: line 1: {field} must be {kind}, got {value!r}\n"
        assert not out.exists()

    def test_eval_deterministic_bytes(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "9", "--out", str(scene), "--gt-out", str(gt)])
        dets = tmp_path / "dets.jsonl"
        rec = json.loads(gt.read_text())
        for box in rec["boxes"]:
            box["score"] = 0.8
        dets.write_text(json.dumps(rec) + "\n")
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert run(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestHeatmapCli:
    def test_outputs(self, tmp_path, capsys):
        prefix = tmp_path / "hm"
        code = run(["pe-heatmap", "--seed", "2", "--ref", "10,12",
                    "--out-prefix", str(prefix)])
        assert code == 0
        img = read_pgm(f"{prefix}.pgm")
        assert img.shape == (64, 64)
        header = open(f"{prefix}.csv").readline().strip()
        assert header == "i,j,similarity,ray_distance"

    def test_bad_ref(self, tmp_path, capsys):
        code = run(["pe-heatmap", "--seed", "2", "--ref", "oops",
                    "--out-prefix", str(tmp_path / "x")])
        assert code == 1


class TestAggregateDemoCli:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert run(["aggregate-demo", "--seed", "1", "--out", str(out)]) == 0
        header = out.read_text().split("\n")[0]
        assert header == "instance,best_match,own_cosine,best_other_cosine"
