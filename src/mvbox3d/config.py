"""Run configuration with JSON round-trip.

Model-side defaults (depth range, number of depth bins, NMS/AP thresholds)
follow the reference configuration; scene and fitting parameters are
harness plumbing with desk-scale defaults. The key-point layout is fixed by
``mvbox3d.aggregation`` and the loss weights by ``losses.LossWeights``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .camera import _json_int, _json_number


@dataclass
class RunConfig:
    # feature / position-encoding dimensions (desk scale; reference uses 256)
    embed_dim: int = 32
    max_depth: float = 10.0
    num_depth_points: int = 64
    # thresholds
    nms_iou_threshold: float = 0.4
    ap_iou_threshold: float = 0.25
    size_small_max: float = 0.01
    size_medium_max: float = 0.5
    # box-fitting loop
    learning_rate: float = 0.012
    fit_steps: int = 1200
    fit_center_jitter: float = 0.3
    fit_size_jitter: float = 0.3
    fit_angle_jitter: float = 0.5
    # synthetic scenes
    seed: int = 0
    room_width: float = 6.0
    room_depth: float = 6.0
    room_height: float = 3.0
    min_boxes: int = 1
    max_boxes: int = 10
    min_box_separation: float = 1.0
    box_size_min: float = 0.3
    box_size_max: float = 0.9
    min_cameras: int = 2
    max_cameras: int = 8
    image_width: int = 512
    image_height: int = 512
    feature_stride: int = 8
    num_categories: int = 4

    def __post_init__(self):
        positive = (
            "embed_dim", "max_depth", "num_depth_points", "learning_rate",
            "fit_steps", "image_width", "image_height", "feature_stride",
            "room_width", "room_depth", "room_height", "num_categories",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        for name in ("fit_center_jitter", "fit_size_jitter", "fit_angle_jitter"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"config field {name} must be nonnegative")
        for name in ("nms_iou_threshold", "ap_iou_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"config field {name} must be in [0, 1]")
        if self.min_boxes < 1 or self.max_boxes < self.min_boxes:
            raise ValueError("box count range is inconsistent")
        if self.min_cameras < 1 or self.max_cameras < self.min_cameras:
            raise ValueError("camera count range is inconsistent")
        if not 0 < self.size_small_max <= self.size_medium_max:
            raise ValueError("size class thresholds must be increasing and positive")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """A config from a JSON object of some fields: int fields take JSON
        integers and float fields JSON numbers (a bool or a string is
        neither); an unknown key is an error."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            check = _json_int if types[name] == "int" else _json_number
            check(f"config field {name}", value)
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
