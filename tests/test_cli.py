"""CLI tests: subcommand contracts, exit codes, and byte-level determinism."""

import hashlib
import json

import numpy as np
import pytest

from mvbox3d.camera import CameraModel, save_camera_json
from mvbox3d.cli import build_parser, main
from mvbox3d.config import RunConfig
from mvbox3d.losses import BOX_LOSS_KINDS
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


# Each subcommand that reads --config, ending with the flag of its output.
CONFIG_COMMANDS = {
    "gen-scene": ["gen-scene", "--out"],
    "render": ["render", "--scene", "scene.json", "--out-dir"],
    "fit": ["fit", "--out"],
    "eval": ["eval", "--dets", "dets.jsonl", "--gt", "gt.jsonl", "--out"],
    "pe-heatmap": ["pe-heatmap", "--out-prefix"],
    "aggregate-demo": ["aggregate-demo", "--out"],
}


class TestConfigFile:
    """Every subcommand that reads --config rejects a bad file with one error
    line and exit code 1, before it reads or writes anything else."""

    def run_with(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = run(CONFIG_COMMANDS[command] + [str(tmp_path / "out"), "--config", str(path)])
        assert code == 1
        assert not list(tmp_path.glob("out*"))
        return capsys.readouterr()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("field, value, kind", [
        ("fit_steps", "1200", "an integer"),
        ("max_depth", "10", "a number"),
        ("image_width", None, "an integer"),
        ("fit_steps", 12.5, "an integer"),
        ("fit_steps", True, "an integer"),
        ("feature_stride", 7.5, "an integer"),
    ])
    def test_bad_field_type_exit_one(self, tmp_path, capsys, command, field, value, kind):
        captured = self.run_with(tmp_path, capsys, command, json.dumps({field: value}))
        assert captured.err == f"error: config field {field} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("field, value", [
        ("room_width", float("inf")), ("learning_rate", float("nan")),
        ("max_depth", float("-inf")),
    ])
    def test_non_finite_field_exit_one(self, tmp_path, capsys, command, field, value):
        captured = self.run_with(tmp_path, capsys, command, json.dumps({field: value}))
        assert captured.err == f"error: config field {field} must be finite, got {value!r}\n"

    @pytest.mark.parametrize("command", ["gen-scene", "fit"])
    @pytest.mark.parametrize("field", ["fit_center_jitter", "fit_size_jitter", "fit_angle_jitter"])
    def test_negative_jitter_exit_one(self, tmp_path, capsys, command, field):
        captured = self.run_with(tmp_path, capsys, command, json.dumps({field: -1.0}))
        assert captured.err == f"error: config field {field} must be nonnegative\n"

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_top_level_not_object_exit_one(self, tmp_path, capsys, command):
        captured = self.run_with(tmp_path, capsys, command, "5\n")
        assert captured.err == "error: config must be a JSON object, got 5\n"

    @pytest.mark.parametrize("field", [
        "lambda_cls", "lambda_center", "lambda_box", "anchors_per_view",
        "num_fixed_keypoints", "num_learnable_keypoints",
    ])
    def test_removed_field_exit_one(self, tmp_path, capsys, field):
        text = json.dumps({**json.loads(RunConfig().to_json()), field: 1})
        captured = self.run_with(tmp_path, capsys, "gen-scene", text)
        assert captured.err == f"error: unknown config fields: ['{field}']\n"

    @pytest.mark.parametrize("field", ["nms_iou_threshold", "ap_iou_threshold"])
    def test_threshold_out_of_range_exit_one(self, tmp_path, capsys, field):
        captured = self.run_with(tmp_path, capsys, "eval", json.dumps({field: 1.5}))
        assert captured.err == f"error: config field {field} must be in [0, 1]\n"


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

    @pytest.mark.parametrize("field, value", [
        ("size", [1.0, float("inf"), 1.0]), ("euler", [0.0, float("nan"), 0.0])])
    def test_scene_non_finite_number_exit_one(self, tmp_path, capsys, field, value):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        data = json.loads(scene.read_text())
        data["boxes"][0][field] = value
        scene.write_text(json.dumps(data))
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {field} must be finite, got {value!r}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("seed", "1", "seed must be an integer, got '1'"),
        ("camera width", "64", "malformed camera record: width must be an integer, got '64'"),
    ], ids=["seed", "camera-width"])
    def test_scene_coerced_seed_or_camera_exit_one(self, tmp_path, capsys, field, value,
                                                   message):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        data = json.loads(scene.read_text())
        if field == "seed":
            data["seed"] = value
        else:
            data["cameras"][0]["width"] = value
        scene.write_text(json.dumps(data))
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("change, message", [
        ({"scene_id": {"k": 1}}, "scene_id must be a string or an integer, got {'k': 1}"),
        ({"scene_id": None}, "scene_id must be a string or an integer, got None"),
        ({"boxes": 5}, "boxes must be a list of objects, got 5"),
        ({"boxes": [[0, 0, 0]]}, "boxes must be a list of objects, got [[0, 0, 0]]"),
    ], ids=["scene-id-object", "scene-id-null", "boxes-number", "boxes-of-lists"])
    def test_scene_malformed_record_exit_one(self, tmp_path, capsys, change, message):
        scene = tmp_path / "scene.json"
        run(["gen-scene", "--seed", "1", "--out", str(scene)])
        scene.write_text(json.dumps(dict(json.loads(scene.read_text()), **change)))
        capsys.readouterr()
        code = run(["render", "--scene", str(scene), "--out-dir", str(tmp_path / "r")])
        assert code == 1 and not (tmp_path / "r").exists()
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("field, value, kind", [
        ("intrinsics", ["500", "480", "32", "30"], "a list of numbers"),
        ("extrinsics", [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, True], "a list of numbers"),
        ("width", 64.9, "an integer"),
        ("height", True, "an integer"),
    ], ids=["intrinsics", "extrinsics", "width", "height"])
    def test_coerced_camera_field_exit_one(self, tmp_path, capsys, field, value, kind):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.zeros((64, 64, 3)))
        cam_path = tmp_path / "cam.json"
        save_camera_json(cam_path, CameraModel([500.0, 480.0, 32.0, 30.0], np.eye(4), (64, 64)))
        data = json.loads(cam_path.read_text())
        data[field] = value
        cam_path.write_text(json.dumps(data))
        out = tmp_path / "std.ppm"
        code = run(["standardize", "--in", str(img_path), "--cam", str(cam_path),
                    "--out", str(out), "--out-cam", str(tmp_path / "std.json")])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: malformed camera record: {field} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize("index, value", [(2, float("nan")), (0, float("inf")),
                                              (3, float("-inf"))],
                             ids=["nan-principal-point", "inf-focal", "neg-inf-principal-point"])
    def test_non_finite_intrinsics_exit_one(self, tmp_path, capsys, index, value):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.zeros((64, 64, 3)))
        cam_path = tmp_path / "cam.json"
        save_camera_json(cam_path, CameraModel([500.0, 480.0, 32.0, 30.0], np.eye(4), (64, 64)))
        data = json.loads(cam_path.read_text())
        data["intrinsics"][index] = value
        cam_path.write_text(json.dumps(data))
        out = tmp_path / "std.ppm"
        code = run(["standardize", "--in", str(img_path), "--cam", str(cam_path),
                    "--out", str(out), "--out-cam", str(tmp_path / "std.json")])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err == ("error: malformed camera record: intrinsics must be finite, "
                       f"got {data['intrinsics']!r}\n")

    @pytest.mark.parametrize("target", [["nan", "500", "256", "256"], ["500", "inf", "256", "256"],
                                        ["500", "500", "256", "nan"]],
                             ids=["nan-focal", "inf-focal", "nan-principal-point"])
    def test_non_finite_target_exit_one(self, tmp_path, capsys, target):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.zeros((16, 16, 3)))
        cam_path = tmp_path / "cam.json"
        save_camera_json(cam_path, CameraModel([100.0, 100.0, 8.0, 8.0], np.eye(4), (16, 16)))
        out, out_cam = tmp_path / "s.ppm", tmp_path / "std.json"
        capsys.readouterr()
        code = run(["standardize", "--in", str(img_path), "--cam", str(cam_path),
                    "--out", str(out), "--out-cam", str(out_cam), "--intrinsics", *target])
        assert code == 1 and not out.exists() and not out_cam.exists()
        values = [float(x) for x in target]
        assert capsys.readouterr().err == (
            f"error: target intrinsics must be finite and fu, fv > 0, got {values}\n")

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

    def test_loss_choices_are_the_loss_kinds(self):
        fit = build_parser()._subparsers._group_actions[0].choices["fit"]
        (loss,) = [a for a in fit._actions if a.dest == "loss"]
        assert tuple(loss.choices) == BOX_LOSS_KINDS == ("l1", "ccd", "pcd", "wd")

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

    @pytest.mark.parametrize("field, value", [
        ("score", float("nan")), ("score", float("inf")), ("center", [0.0, float("-inf"), 1.0])])
    def test_eval_non_finite_number_exit_one(self, tmp_path, capsys, field, value):
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
        err = capsys.readouterr().err
        assert err == f"error: {dets}: line 1: {field} must be finite, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("target, change, message", [
        ("gt", {"subset": None}, "subset must be a string, got None"),
        ("gt", {"subset": ["x"]}, "subset must be a string, got ['x']"),
        ("gt", {"scene_id": {"k": 1}}, "scene_id must be a string or an integer, got {'k': 1}"),
        ("dets", {"scene_id": 1.5}, "scene_id must be a string or an integer, got 1.5"),
        ("dets", {"scene_id": True}, "scene_id must be a string or an integer, got True"),
        ("dets", {"boxes": 5}, "boxes must be a list of objects, got 5"),
        ("gt", {"boxes": [5]}, "boxes must be a list of objects, got [5]"),
        ("dets", 5, "scene record must be a JSON object, got 5"),
        ("gt", ["scene0"], "scene record must be a JSON object, got ['scene0']"),
    ], ids=["subset-null", "subset-list", "scene-id-object", "scene-id-float", "scene-id-bool",
            "boxes-number", "boxes-of-numbers", "line-number", "line-list"])
    def test_eval_malformed_record_exit_one(self, tmp_path, capsys, target, change, message):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        records = {"gt": json.loads(gt.read_text())}
        records["dets"] = dict(records["gt"], boxes=[dict(b, score=0.9)
                                                     for b in records["gt"]["boxes"]])
        records[target] = dict(records[target], **change) if isinstance(change, dict) else change
        paths = {name: tmp_path / f"{name}.jsonl" for name in records}
        for name, rec in records.items():
            paths[name].write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        capsys.readouterr()
        code = run(["eval", "--dets", str(paths["dets"]), "--gt", str(paths["gt"]),
                    "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: {paths[target]}: line 1: {message}\n"

    def test_eval_integer_scene_ids(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        rec = dict(json.loads(gt.read_text()), scene_id=7)
        gt.write_text(json.dumps(rec) + "\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(dict(rec, scene_id="7", boxes=[
            dict(b, score=0.9) for b in rec["boxes"]])) + "\n")
        out = tmp_path / "report.csv"
        assert run(["eval", "--dets", str(dets), "--gt", str(gt), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].split(",")[2] == "1.000000"

    @pytest.mark.parametrize("flag, value, field", [
        ("--nms-iou", "-0.2", "nms_iou_threshold"), ("--iou", "1.5", "ap_iou_threshold"),
        ("--iou", "nan", "ap_iou_threshold")])
    def test_eval_threshold_out_of_range_exit_one(self, tmp_path, capsys, flag, value, field):
        gt = tmp_path / "gt.jsonl"
        run(["gen-scene", "--seed", "4", "--out", str(tmp_path / "scene.json"),
             "--gt-out", str(gt)])
        rec = json.loads(gt.read_text())
        for box in rec["boxes"]:
            box["score"] = 0.9
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "report.csv"
        capsys.readouterr()
        code = run(["eval", "--dets", str(dets), "--gt", str(gt), flag, value,
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: config field {field} must be in [0, 1]\n"
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

    @pytest.mark.parametrize("ref", ["a,b", "1.5,2", "1,2,3", "oops"])
    def test_non_integer_ref(self, tmp_path, capsys, ref):
        code = run(["pe-heatmap", "--seed", "2", f"--ref={ref}",
                    "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --ref must be 'i,j' with integers i and j, got {ref!r}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--ref=100,100", "--ref=-1,-1", "--view=-1"])
    def test_out_of_range_view_or_ref(self, tmp_path, capsys, flag):
        code = run(["pe-heatmap", "--seed", "2", flag, "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag.replace('=', ' ')} out of range: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestAggregateDemoCli:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert run(["aggregate-demo", "--seed", "1", "--out", str(out)]) == 0
        header = out.read_text().split("\n")[0]
        assert header == "instance,best_match,own_cosine,best_other_cosine"


GOLDEN_CONFIGS = {
    "default": RunConfig(),
    "perceive": RunConfig(max_boxes=4, min_cameras=5, min_box_separation=1.8, box_size_max=0.7),
    "480x384": RunConfig(image_width=480, image_height=384),
}


def write_scene_chain(root, name, seed):
    """gen-scene, render, pe-heatmap (view seed mod cameras) and aggregate-demo
    of one seed into ``root``."""
    cfg = root.parent / f"{root.name}-config.json"
    GOLDEN_CONFIGS[name].save(cfg)
    common = ["--config", str(cfg)]
    assert run(["gen-scene", "--seed", str(seed), "--out", str(root / "scene.json"),
                "--gt-out", str(root / "gt.jsonl"), *common]) == 0
    assert run(["render", "--scene", str(root / "scene.json"),
                "--out-dir", str(root / "render"), *common]) == 0
    view = seed % len(json.loads((root / "scene.json").read_text())["cameras"])
    assert run(["pe-heatmap", "--seed", str(seed), "--view", str(view),
                "--out-prefix", str(root / "pe"), *common]) == 0
    assert run(["aggregate-demo", "--seed", str(seed), "--out", str(root / "agg.csv"),
                *common]) == 0


def write_standardize(root, width, height):
    """A seeded uint8 image and camera, standardized to the default and to
    seeded custom intrinsics."""
    rng = np.random.default_rng([width, height, 77])
    write_ppm(root / "img.ppm", rng.integers(0, 256, (height, width, 3)))
    intr = [rng.uniform(0.7, 1.3) * width, rng.uniform(0.7, 1.3) * height,
            rng.uniform(0.4, 0.6) * width, rng.uniform(0.4, 0.6) * height]
    save_camera_json(root / "cam.json", CameraModel(intr, np.eye(4), (width, height)))
    target = [rng.uniform(0.6, 1.5) * width, rng.uniform(0.6, 1.5) * height,
              rng.uniform(0.3, 0.7) * width, rng.uniform(0.3, 0.7) * height]
    for tag, extra in (("std", []), ("custom", ["--intrinsics", *[f"{x:.6f}" for x in target]])):
        assert run(["standardize", "--in", str(root / "img.ppm"), "--cam", str(root / "cam.json"),
                    "--out", str(root / f"{tag}.ppm"), "--out-cam", str(root / f"{tag}_cam.json"),
                    *extra]) == 0


def file_digests(root):
    """First 16 hex digits of the sha256 of every file under ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in sorted(root.rglob("*")) if path.is_file()}


# Digests of the files written before the half-plane rasterizer, the
# expected-depth position embedding and the row-then-column warp.
GOLDEN_SCENES = {
    ('default', 0): {
        'agg.csv': 'f91c04f9a13b5a39',
        'gt.jsonl': 'acf5dffc2b352a6e',
        'pe.csv': '473682b1fbb290dd',
        'pe.pgm': 'fa4848c472a7ea86',
        'render/view00_depth.pgm': '1865e69dc2e1a35b',
        'render/view00_owner.pgm': 'ee26510044481339',
        'render/view01_depth.pgm': 'c1f93eaa548a5764',
        'render/view01_owner.pgm': '74a90ed236d4856a',
        'scene.json': 'fd64e5656e47da4d',
    },
    ('default', 1): {
        'agg.csv': '29a3a12a9762854c',
        'gt.jsonl': 'fae70d03cf08bf28',
        'pe.csv': 'cc8645d7c3dc04f2',
        'pe.pgm': '4058f6999f06545c',
        'render/view00_depth.pgm': 'f8e7667134f418c8',
        'render/view00_owner.pgm': '650942ca84465329',
        'render/view01_depth.pgm': '8f11c867ccc02ce2',
        'render/view01_owner.pgm': '41d7a006eb8892ba',
        'scene.json': '05b8492f9761af0c',
    },
    ('default', 2): {
        'agg.csv': '83a86b365913cc84',
        'gt.jsonl': 'b2809461bffb1fcb',
        'pe.csv': 'cbe857ff1f7e0e02',
        'pe.pgm': 'd4b78005f14e03a0',
        'render/view00_depth.pgm': '60ea431975f262f6',
        'render/view00_owner.pgm': 'fea72562bc8590b6',
        'render/view01_depth.pgm': 'c31cf4575222d080',
        'render/view01_owner.pgm': '88498b2c85342c9f',
        'render/view02_depth.pgm': '3dd88c637bf397e9',
        'render/view02_owner.pgm': '781533fe56621815',
        'render/view03_depth.pgm': '8446fa799224a80b',
        'render/view03_owner.pgm': '81fdb4a3cd57239e',
        'render/view04_depth.pgm': 'b797dc1463d3ab4d',
        'render/view04_owner.pgm': '89a7cac09f04b626',
        'scene.json': 'afd9bec63e458069',
    },
    ('perceive', 0): {
        'agg.csv': '941d9b7e6e01ea26',
        'gt.jsonl': 'cd189846938b8101',
        'pe.csv': 'b8a9a0a426a61b83',
        'pe.pgm': 'c2d93ce1c73d25f9',
        'render/view00_depth.pgm': '2548630e5a164008',
        'render/view00_owner.pgm': '08f6501c02a581eb',
        'render/view01_depth.pgm': '2fd6ef2fee57a778',
        'render/view01_owner.pgm': '0d9c1fa32d0af271',
        'render/view02_depth.pgm': 'f7ad5885049c43fd',
        'render/view02_owner.pgm': '352331d9711fef14',
        'render/view03_depth.pgm': '169206fe3350b689',
        'render/view03_owner.pgm': 'b10b50446b6493f7',
        'render/view04_depth.pgm': '85042eb53f06a5b8',
        'render/view04_owner.pgm': '3c2bcc8509c65fd1',
        'scene.json': 'a92625b7dae2de61',
    },
    ('perceive', 1): {
        'agg.csv': '29a3a12a9762854c',
        'gt.jsonl': '2b82520963535d95',
        'pe.csv': '437a9dd1f89b2abc',
        'pe.pgm': '010f16ba898e9a96',
        'render/view00_depth.pgm': '3db2fca03e6a8108',
        'render/view00_owner.pgm': '3db2fca03e6a8108',
        'render/view01_depth.pgm': 'ed71af9c0bbedd07',
        'render/view01_owner.pgm': 'e7cfd3be21283239',
        'render/view02_depth.pgm': 'c24f28611ced1099',
        'render/view02_owner.pgm': 'ea30fcd892aaa386',
        'render/view03_depth.pgm': '3db2fca03e6a8108',
        'render/view03_owner.pgm': '3db2fca03e6a8108',
        'render/view04_depth.pgm': '3db2fca03e6a8108',
        'render/view04_owner.pgm': '3db2fca03e6a8108',
        'scene.json': '2b2c09b2e3df3de2',
    },
    ('perceive', 2): {
        'agg.csv': 'd84c1cde66e9a3f5',
        'gt.jsonl': '85321c62699a5cb0',
        'pe.csv': '15b31c7ba4712c46',
        'pe.pgm': '2e835f6f1236c5c5',
        'render/view00_depth.pgm': '962f0fbb1beba8fb',
        'render/view00_owner.pgm': 'acd33561f1105b9a',
        'render/view01_depth.pgm': 'b75f30424d2e8638',
        'render/view01_owner.pgm': 'b2d7812b3c8de8bb',
        'render/view02_depth.pgm': '613da30b84be201a',
        'render/view02_owner.pgm': '813521eef61fbb0b',
        'render/view03_depth.pgm': 'd9681e86cdf9171b',
        'render/view03_owner.pgm': 'be31d3c937d0a7e5',
        'render/view04_depth.pgm': '7ec0178fc6bec523',
        'render/view04_owner.pgm': 'c82b8ea3675916ad',
        'render/view05_depth.pgm': 'ce0cffc71e8ffbb0',
        'render/view05_owner.pgm': 'd998a89730f47afc',
        'render/view06_depth.pgm': 'e590688f07068fbf',
        'render/view06_owner.pgm': 'd83e646975cc863c',
        'scene.json': '08d97bccc4e6e12d',
    },
    ('480x384', 0): {
        'agg.csv': 'a7684137724dd3b8',
        'gt.jsonl': 'acf5dffc2b352a6e',
        'pe.csv': '8194aff04cb9f5ba',
        'pe.pgm': '4a565e3803afba73',
        'render/view00_depth.pgm': 'd04d38696e2cd670',
        'render/view00_owner.pgm': '2c6aacc7923da1db',
        'render/view01_depth.pgm': '1967adb1c43716d5',
        'render/view01_owner.pgm': 'd2232848727b639b',
        'scene.json': '986178fcbfd88db0',
    },
    ('480x384', 1): {
        'agg.csv': '29a3a12a9762854c',
        'gt.jsonl': 'fae70d03cf08bf28',
        'pe.csv': '518341289f4d6e95',
        'pe.pgm': '68dd6c26315ab9c2',
        'render/view00_depth.pgm': 'ae807c815220e860',
        'render/view00_owner.pgm': '4a506500ee30f5b3',
        'render/view01_depth.pgm': '3f5a4e2d0ff8e73a',
        'render/view01_owner.pgm': 'cc36e136a222b1e6',
        'scene.json': '4ca7da98627b2e69',
    },
    ('480x384', 2): {
        'agg.csv': '257834e420e91ee1',
        'gt.jsonl': 'b2809461bffb1fcb',
        'pe.csv': '7a721c002ce7f505',
        'pe.pgm': '686a47a760c314c3',
        'render/view00_depth.pgm': '3fcd2ea211adba41',
        'render/view00_owner.pgm': '426334d3dd6d11f7',
        'render/view01_depth.pgm': '6952beeda6318053',
        'render/view01_owner.pgm': '7a89ca0e97a6d7a2',
        'render/view02_depth.pgm': '494dd7c5f256175d',
        'render/view02_owner.pgm': 'f17cc43b09f7e1ed',
        'render/view03_depth.pgm': '3d3f7856b7a2033f',
        'render/view03_owner.pgm': 'b3874ac7f0f697fe',
        'render/view04_depth.pgm': 'b0c6a1b6d4360143',
        'render/view04_owner.pgm': '2b77c56e39e89f73',
        'scene.json': '4725ea1b8abbf0e9',
    },
}
GOLDEN_STANDARDIZE = {
    (512, 512): {
        'cam.json': '9a9efcef7745e744',
        'custom.ppm': 'ace08e3eef3525fe',
        'custom_cam.json': '226fe93032a86122',
        'img.ppm': 'a27072945597aa65',
        'std.ppm': 'e183d5ae72aa9cf6',
        'std_cam.json': '2bfa937f0a78fb36',
    },
    (420, 300): {
        'cam.json': '5cf42c8695ff1d8e',
        'custom.ppm': 'b6f9c45bb0362b01',
        'custom_cam.json': '0a02ff13594b794f',
        'img.ppm': 'bddb384296e982f3',
        'std.ppm': 'a16ee9441d89966a',
        'std_cam.json': '6de598943df263e1',
    },
    (129, 257): {
        'cam.json': '5ab42640a360fe11',
        'custom.ppm': '830d6ddd884bcdf0',
        'custom_cam.json': 'd51b05a9724c397e',
        'img.ppm': 'a9d5972a22c64596',
        'std.ppm': '9e635699eb369f1a',
        'std_cam.json': '81ad2646221427df',
    },
}


GOLDEN_EVAL_CONFIG = RunConfig(min_boxes=2, max_boxes=6, box_size_min=0.1, box_size_max=1.2,
                               num_categories=3)
EVAL_VARIANTS = {
    "default.csv": [],
    "no_nms.csv": ["--no-nms"],
    "nms03_iou05.csv": ["--nms-iou", "0.3", "--iou", "0.5"],
}


def _jittered(box, rng, sigma):
    return {"category": box["category"],
            "center": (np.array(box["center"]) + rng.normal(0.0, sigma, 3)).tolist(),
            "size": (np.array(box["size"]) * np.exp(rng.normal(0.0, sigma, 3))).tolist(),
            "euler": (np.array(box["euler"]) + rng.normal(0.0, sigma, 3)).tolist()}


def write_eval_set(root, seed):
    """A 4-scene eval set from ``gen-scene`` seeds, its ground truth tagged
    with two subsets, and the reports of every ``EVAL_VARIANTS`` run on it.

    The last box of each scene is shrunk so that every size class holds
    ground truth. Each ground-truth box gets two jittered detections (so NMS
    suppresses), every third one an exact duplicate of itself, and each scene
    one small spurious box of category 1-3 (3 has no ground truth); scores are
    rounded to one decimal, so they tie."""
    rng = np.random.default_rng([seed, 0xE7A1])
    work = root.parent / f"{root.name}-work"
    work.mkdir()
    GOLDEN_EVAL_CONFIG.save(work / "config.json")
    gt_lines, det_lines = [], []
    for j in range(4):
        assert run(["gen-scene", "--seed", str(10 * seed + j), "--out", str(work / "scene.json"),
                    "--gt-out", str(work / "gt.jsonl"),
                    "--config", str(work / "config.json")]) == 0
        rec = json.loads((work / "gt.jsonl").read_text())
        rec["scene_id"], rec["subset"] = f"s{seed}-{j}", "ab"[j % 2]
        rec["boxes"][-1]["size"] = [0.2 * s for s in rec["boxes"][-1]["size"]]
        dets = []
        for k, box in enumerate(rec["boxes"]):
            for sigma, low in ((0.03, 0.5), (0.1, 0.2)):
                dets.append({**_jittered(box, rng, sigma), "score": round(rng.uniform(low, 1.0), 1)})
            if k % 3 == 0:
                dets.append({**box, "score": round(rng.uniform(0.0, 1.0), 1)})
        dets.append({"category": int(rng.integers(1, 4)),
                     "center": rng.uniform(-2.0, 2.0, 3).tolist(),
                     "size": rng.uniform(0.1, 0.25, 3).tolist(),
                     "euler": rng.uniform(-1.0, 1.0, 3).tolist(),
                     "score": round(rng.uniform(0.0, 0.7), 1)})
        gt_lines.append(json.dumps(rec, sort_keys=True) + "\n")
        det_lines.append(json.dumps({"scene_id": rec["scene_id"], "boxes": dets}) + "\n")
    (root / "gt.jsonl").write_text("".join(gt_lines))
    (root / "dets.jsonl").write_text("".join(det_lines))
    for name, flags in EVAL_VARIANTS.items():
        assert run(["eval", "--dets", str(root / "dets.jsonl"), "--gt", str(root / "gt.jsonl"),
                    "--out", str(root / name), *flags]) == 0


# Digests of the eval inputs and reports written before the pooled NMS and
# the list-based greedy matcher.
GOLDEN_EVALS = {
    1: {
        'default.csv': '5cdff33c8fb0f484',
        'dets.jsonl': '5e427db214ac2b85',
        'gt.jsonl': '57222778615ca016',
        'nms03_iou05.csv': '943c679c2b977705',
        'no_nms.csv': 'ea632c467b233773',
    },
    2: {
        'default.csv': '38ccb3dc2df0759f',
        'dets.jsonl': '020be0fb1482f5ab',
        'gt.jsonl': '8a4121f0561aada7',
        'nms03_iou05.csv': 'df5a7bada938fe15',
        'no_nms.csv': '3ff898fb67f9f906',
    },
    3: {
        'default.csv': 'cd7fbca9611ba186',
        'dets.jsonl': '634bac02a3c3a629',
        'gt.jsonl': 'b853af520b3dff63',
        'nms03_iou05.csv': '808dff73e9356ac1',
        'no_nms.csv': 'aca2998a296f678c',
    },
}


def write_fits(root, seed):
    """The trace CSV and SVG of ``fit`` with every box loss on one seed."""
    for loss in ("l1", "ccd", "pcd", "wd"):
        assert run(["fit", "--loss", loss, "--seed", str(seed), "--out", str(root / f"{loss}.csv"),
                    "--svg", str(root / f"{loss}.svg")]) == 0


# Digests of the fit outputs of seed 1 (one box) and seed 4 (nine boxes)
# with the default config.
GOLDEN_FITS = {
    1: {
        'ccd.csv': 'ed0b3fb250c503c6',
        'ccd.svg': '6699d482bbc7029d',
        'l1.csv': '41f344308a130f4b',
        'l1.svg': 'af6e8dad33901f40',
        'pcd.csv': '208a0a9410ad438c',
        'pcd.svg': '3df68b6c2160235e',
        'wd.csv': 'ffa3d1ddaef426f1',
        'wd.svg': '89cc444a2dabc660',
    },
    4: {
        'ccd.csv': '276fd36d82ebbc94',
        'ccd.svg': '43fd6eb6275d36e3',
        'l1.csv': 'ecb6a67caf907be4',
        'l1.svg': '75d50ad2714240b8',
        'pcd.csv': '53b26e887ec9fb1e',
        'pcd.svg': '4b55554f3ef2a27c',
        'wd.csv': 'fcbd39cd71e00259',
        'wd.svg': '2046a187ffad3a82',
    },
}


class TestGoldenBytes:
    """Every file of the perceive chain, of ``standardize``, of ``eval`` and of
    ``fit`` is byte-stable."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN_EVALS))
    def test_eval_reports(self, tmp_path, capsys, seed):
        root = tmp_path / "out"
        root.mkdir()
        write_eval_set(root, seed)
        assert file_digests(root) == GOLDEN_EVALS[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_FITS))
    def test_fit_traces(self, tmp_path, capsys, seed):
        write_fits(tmp_path, seed)
        assert file_digests(tmp_path) == GOLDEN_FITS[seed]

    @pytest.mark.parametrize("name, seed", sorted(GOLDEN_SCENES))
    def test_scene_chain(self, tmp_path, capsys, name, seed):
        root = tmp_path / "out"
        root.mkdir()
        write_scene_chain(root, name, seed)
        assert file_digests(root) == GOLDEN_SCENES[name, seed]

    @pytest.mark.parametrize("width, height", sorted(GOLDEN_STANDARDIZE))
    def test_standardize(self, tmp_path, capsys, width, height):
        write_standardize(tmp_path, width, height)
        assert file_digests(tmp_path) == GOLDEN_STANDARDIZE[width, height]
