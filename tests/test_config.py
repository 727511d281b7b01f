"""RunConfig: JSON round trip, JSON type checks and value ranges."""

import dataclasses
import json
import math

import pytest

from mvbox3d.config import RunConfig

# A valid value other than the default for every field.
NON_DEFAULT = {
    "embed_dim": 16, "max_depth": 12.5, "num_depth_points": 7,
    "nms_iou_threshold": 0.55, "ap_iou_threshold": 0.5,
    "size_small_max": 0.02, "size_medium_max": 0.6,
    "learning_rate": 0.02, "fit_steps": 33, "fit_center_jitter": 0.2,
    "fit_size_jitter": 0.1, "fit_angle_jitter": 0.4,
    "seed": 9, "room_width": 7.0, "room_depth": 5.0, "room_height": 2.5,
    "min_boxes": 2, "max_boxes": 5, "min_box_separation": 1.5,
    "box_size_min": 0.2, "box_size_max": 0.8, "min_cameras": 3, "max_cameras": 6,
    "image_width": 480, "image_height": 384, "feature_stride": 4, "num_categories": 3,
}


class TestRoundTrip:
    def test_every_field_non_default_survives(self, tmp_path):
        default = RunConfig()
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)}
        assert all(getattr(default, k) != v for k, v in NON_DEFAULT.items())
        config = RunConfig(**NON_DEFAULT)
        assert RunConfig.from_json(config.to_json()) == config
        path = tmp_path / "config.json"
        config.save(path)
        assert RunConfig.load(path) == config

    def test_field_count(self):
        assert len(dataclasses.fields(RunConfig)) == 27

    def test_partial_object_keeps_defaults(self):
        assert RunConfig.from_json('{"seed": 4}') == RunConfig(seed=4)

    def test_float_field_takes_json_integer(self):
        assert RunConfig.from_json('{"max_depth": 10}').max_depth == 10


class TestJsonTypes:
    @pytest.mark.parametrize("field, value, kind", [
        ("fit_steps", "1200", "an integer"),
        ("max_depth", "10", "a number"),
        ("image_width", None, "an integer"),
        ("fit_steps", 12.5, "an integer"),
        ("fit_steps", True, "an integer"),
        ("feature_stride", 7.5, "an integer"),
        ("learning_rate", False, "a number"),
        ("ap_iou_threshold", [0.25], "a number"),
    ])
    def test_bad_field_names_it(self, field, value, kind):
        with pytest.raises(ValueError) as exc:
            RunConfig.from_json(json.dumps({field: value}))
        assert str(exc.value) == f"config field {field} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        ("room_width", math.inf), ("learning_rate", math.nan), ("max_depth", -math.inf),
        ("fit_center_jitter", math.nan), ("nms_iou_threshold", math.inf),
    ])
    def test_non_finite_number_names_it(self, field, value):
        # Python's json writes and reads the non-standard NaN and Infinity
        with pytest.raises(ValueError) as exc:
            RunConfig.from_json(json.dumps({field: value}))
        assert str(exc.value) == f"config field {field} must be finite, got {value!r}"

    @pytest.mark.parametrize("text", ["5", "[]", "null", '"seed"'])
    def test_top_level_must_be_object(self, text):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            RunConfig.from_json(text)

    @pytest.mark.parametrize("field", [
        "lambda_cls", "lambda_center", "lambda_box", "anchors_per_view",
        "num_fixed_keypoints", "num_learnable_keypoints",
    ])
    def test_removed_field_is_unknown(self, field):
        with pytest.raises(ValueError) as exc:
            RunConfig.from_json(json.dumps({field: 1}))
        assert str(exc.value) == f"unknown config fields: ['{field}']"


class TestThresholdRange:
    @pytest.mark.parametrize("field", ["nms_iou_threshold", "ap_iou_threshold"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_closed_interval_accepted(self, field, value):
        assert getattr(RunConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("field", ["nms_iou_threshold", "ap_iou_threshold"])
    @pytest.mark.parametrize("value", [-0.2, 1.5, math.nan])
    def test_outside_rejected(self, field, value):
        with pytest.raises(ValueError) as exc:
            RunConfig(**{field: value})
        assert str(exc.value) == f"config field {field} must be in [0, 1]"

    def test_replace_runs_the_check(self):
        with pytest.raises(ValueError, match="nms_iou_threshold"):
            dataclasses.replace(RunConfig(), nms_iou_threshold=-0.2)


class TestJitterRange:
    @pytest.mark.parametrize("field", ["fit_center_jitter", "fit_size_jitter", "fit_angle_jitter"])
    def test_zero_accepted(self, field):
        assert getattr(RunConfig(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("field", ["fit_center_jitter", "fit_size_jitter", "fit_angle_jitter"])
    @pytest.mark.parametrize("value", [-1.0, -1e-9, math.nan])
    def test_negative_rejected(self, field, value):
        with pytest.raises(ValueError) as exc:
            RunConfig(**{field: value})
        assert str(exc.value) == f"config field {field} must be nonnegative"
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(RunConfig(), **{field: value})
