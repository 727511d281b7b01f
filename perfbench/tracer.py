"""In-memory span tracing of mvbox3d's public functions, installed from outside.

Each traced function is replaced, at every module global (and dict entry)
through which the package looks it up, by a wrapper that records a span
(id, name, start, end, parent id, item id). A span's self time is its
duration minus the time covered by its direct child spans. Nothing under
``src/`` is modified: ``install`` patches the loaded modules and ``uninstall``
puts the originals back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) pairs of the functions it covers. Every
# module of the package that holds one of these function objects, under any
# name, is patched, so a call is traced wherever the caller looks it up.
TRACED = {
    "geometry.box_iou": [("geometry", "box_iou")],
    "geometry.nms": [("geometry", "nms")],
    "losses.total_loss": [("losses", "total_loss")],
    "losses.focal_loss": [("losses", "focal_loss")],
    "matching.cost_matrix": [("matching", "cost_matrix")],
    "matching.hungarian": [("matching", "hungarian")],
    "matching.lsap": [("matching", "linear_sum_assignment")],
    "evaluation.metrics_report": [("evaluation", "metrics_report")],
    "evaluation.match_detections": [("evaluation", "match_detections")],
    "evaluation.load_jsonl": [
        ("evaluation", "load_detections_jsonl"),
        ("evaluation", "load_gt_jsonl"),
    ],
    "camera.standardize_intrinsics": [("camera", "standardize_intrinsics")],
    "camera.frustum_point_grid": [("camera", "frustum_point_grid")],
    "camera.project_points": [("camera", "project_points")],
    "enhancer.point_position_embedding": [("enhancer", "point_position_embedding")],
    "enhancer.depth_distribution": [("enhancer", "depth_distribution")],
    "enhancer.image_position_embedding": [("enhancer", "image_position_embedding")],
    "aggregation.aggregate": [("aggregation", "aggregate")],
    "aggregation.bilinear_sample": [("aggregation", "bilinear_sample")],
    "aggregation.keypoint_validity": [("aggregation", "keypoint_validity")],
    "harness.render_feature_maps": [("harness", "render_feature_maps")],
    "harness.gen_scene": [("harness", "gen_scene")],
    "harness.fit_single_box": [("harness", "fit_single_box")],
    "cli.main": [("cli", "main")],
}
# The box losses are looked up through the losses._BOX_LOSSES registry.
BOX_LOSS_KINDS = ("l1", "ccd", "pcd", "wd")

MODULES = ("geometry", "losses", "matching", "evaluation", "camera", "enhancer",
           "aggregation", "harness", "cli")


class Tracer:
    """Span recorder. The caller sets ``item`` before each item."""

    def __init__(self):
        self.item = -1
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in on exit
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                spans[sid] = (sid, name, t0, t1, parent, self.item)
                calls[name] += 1
                self_s[name] += own
            if name == "geometry.box_iou":
                key = "hit" if result > 0.0 else "miss"
                counters[f"{name}.{key}_calls"] += 1
                counters[f"{name}.{key}_s"] += own
            elif name == "aggregation.keypoint_validity":
                valid = result[0]
                counters[f"{name}.valid"] += int(valid.sum())
                counters[f"{name}.points"] += int(valid.size)
            return result

        return traced

    def install(self) -> None:
        pkg = {m: sys.modules[f"mvbox3d.{m}"] for m in MODULES}
        self.missing = []
        targets = []  # (span name, original function)
        for name, locations in TRACED.items():
            found = False
            for mod, attr in locations:
                fn = getattr(pkg[mod], attr, None)
                if callable(fn):
                    targets.append((name, fn))
                    found = True
            if not found:
                self.missing.append(name)
        registry = getattr(pkg["losses"], "_BOX_LOSSES", {})
        for kind in BOX_LOSS_KINDS:
            if kind in registry:
                targets.append((f"losses.{kind}", registry[kind]))
            else:
                self.missing.append(f"losses.{kind}")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        for kind in BOX_LOSS_KINDS:
            if kind in registry:
                self._patches.append((registry, kind, registry[kind]))
                registry[kind] = wrappers[id(registry[kind])]
        for module in list(pkg.values()) + [sys.modules["mvbox3d"]]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def per_item(self, n_items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, normalised per item."""
        n = max(n_items, 1)
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name] / n, "count")

        def self_ms(name):
            out[f"{name}.self_ms"] = (1000.0 * self.self_s[name] / n, "ms")

        c = self.counters
        iou = "geometry.box_iou"
        calls(iou)
        total = self.calls[iou]
        out[f"{iou}.nonzero_ratio"] = (c[f"{iou}.hit_calls"] / total if total else 0.0,
                                       "ratio")
        for key in ("hit", "miss"):
            k = c[f"{iou}.{key}_calls"]
            out[f"{iou}.{key}_ms"] = (1000.0 * c[f"{iou}.{key}_s"] / k if k else 0.0, "ms")
        self_ms("geometry.nms")
        for kind in BOX_LOSS_KINDS:
            calls(f"losses.{kind}")
            self_ms(f"losses.{kind}")
        for name in ("losses.total_loss", "losses.focal_loss", "matching.cost_matrix",
                     "matching.hungarian", "evaluation.metrics_report",
                     "evaluation.load_jsonl", "camera.standardize_intrinsics",
                     "camera.frustum_point_grid", "enhancer.point_position_embedding",
                     "enhancer.depth_distribution", "enhancer.image_position_embedding",
                     "aggregation.aggregate", "harness.render_feature_maps",
                     "harness.gen_scene", "harness.fit_single_box", "cli.main"):
            self_ms(name)
        for name in ("matching.lsap", "evaluation.match_detections",
                     "camera.project_points", "aggregation.bilinear_sample",
                     "harness.render_feature_maps"):
            calls(name)
        kv = "aggregation.keypoint_validity"
        points = c[f"{kv}.points"]
        out[f"{kv}.valid_ratio"] = (c[f"{kv}.valid"] / points if points else 0.0, "ratio")
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "item"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
