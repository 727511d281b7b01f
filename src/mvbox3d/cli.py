"""Command-line interface.

Subcommands: gen-scene, render, standardize, fit, eval, pe-heatmap,
aggregate-demo. Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import harness, rasters
from .camera import load_camera_json, save_camera_json, standardize_intrinsics
from .config import RunConfig
from .evaluation import GroundTruthSet, SceneGroundTruth, save_gt_jsonl
from .geometry import paired_iou
from .losses import BOX_LOSS_KINDS


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.load(path)


def _cmd_gen_scene(args) -> int:
    config = _load_config(args.config)
    scene = harness.gen_scene(config, args.seed)
    harness.save_scene_json(args.out, scene)
    if args.gt_out:
        truth = SceneGroundTruth(scene.gt_boxes, scene.gt_categories)
        save_gt_jsonl(args.gt_out, GroundTruthSet({scene.scene_id: truth}))
    print(
        f"wrote {args.out}: {len(scene.cameras)} cameras, {len(scene.gt_boxes)} boxes"
    )
    return 0


def _cmd_render(args) -> int:
    config = _load_config(args.config)
    scene = harness.load_scene_json(args.scene)
    rendered = harness.render_feature_maps(scene, config)
    os.makedirs(args.out_dir, exist_ok=True)
    for view, (owner, depth_fm) in enumerate(zip(rendered.owners, rendered.depth_maps)):
        n_inst = max(len(scene.gt_boxes), 1)
        owner_img = np.where(owner >= 0, (owner + 1) * (255 // (n_inst + 1)), 0)
        rasters.write_pgm(f"{args.out_dir}/view{view:02d}_owner.pgm", owner_img)
        depth = depth_fm.grid[..., 0]
        rasters.write_pgm(
            f"{args.out_dir}/view{view:02d}_depth.pgm",
            np.clip(depth / config.max_depth, 0, 1) * 255,
        )
    print(f"wrote {2 * len(scene.cameras)} rasters to {args.out_dir}")
    return 0


def _cmd_standardize(args) -> int:
    cam = load_camera_json(args.cam)
    image = rasters.read_ppm(args.infile)
    std = tuple(args.intrinsics) if args.intrinsics else None
    warped, new_cam = standardize_intrinsics(image, cam, std)
    rasters.write_ppm(args.out, warped)
    save_camera_json(args.out_cam, new_cam)
    intr = ", ".join(f"{x:g}" for x in new_cam.intrinsics)
    print(f"wrote {args.out} and {args.out_cam} (intrinsics [{intr}])")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args.config)
    scene = harness.gen_scene(config, args.seed)
    traces = harness.fit_boxes(scene, args.loss, config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(harness.fit_trace_csv(traces))
    if args.svg:
        chart = harness.svg_line_chart(
            {f"box{i}": t.losses for i, t in enumerate(traces)},
            title=f"{args.loss} fit loss (seed {args.seed})",
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(chart)
    ious = paired_iou([t.final_box for t in traces], scene.gt_boxes)
    print(
        f"fit {len(traces)} boxes with {args.loss}: mean final IoU "
        f"{float(np.mean(ious)):.4f}, wrote {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    overrides = {"ap_iou_threshold": args.iou, "nms_iou_threshold": args.nms_iou}
    config = dataclasses.replace(
        _load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    report, csv_text = harness.run_eval(
        args.dets, args.gt, config, apply_nms=not args.no_nms
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    print(f"overall AP@{config.ap_iou_threshold:g}: {report.overall_ap:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pe_heatmap(args) -> int:
    config = _load_config(args.config)
    scene = harness.gen_scene(config, args.seed)
    ref = None
    if args.ref:
        try:
            i, j = map(int, args.ref.split(","))
        except ValueError:
            raise ValueError(
                f"--ref must be 'i,j' with integers i and j, got {args.ref!r}") from None
        ref = (i, j)
    result = harness.pe_heatmap(scene, config, view=args.view, ref=ref)
    rasters.write_pgm(
        f"{args.out_prefix}.pgm", (result.similarity + 1.0) * 0.5 * 255.0
    )
    with open(f"{args.out_prefix}.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(harness.heatmap_csv(result))
    print(
        f"wrote {args.out_prefix}.pgm/.csv (ref {result.ref}, "
        f"self-similarity {result.similarity[result.ref]:.4f})"
    )
    return 0


def _cmd_aggregate_demo(args) -> int:
    config = _load_config(args.config)
    scene = harness.gen_scene(config, args.seed)
    results = harness.signature_recovery(scene, config)
    lines = ["instance,best_match,own_cosine,best_other_cosine"]
    recovered = 0
    for inst, best, cosines in results:
        others = np.delete(cosines, inst) if len(cosines) > 1 else np.array([0.0])
        lines.append(
            f"{inst},{best},{cosines[inst]:.6f},{float(others.max()):.6f}"
        )
        recovered += int(best == inst)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"recovered {recovered}/{len(results)} instance signatures")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvbox3d",
        description="Multi-view 3D box perception toolkit: synthetic scenes, "
        "camera standardization, box fitting and AP evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="scene.json")
    p.add_argument("--gt-out", default=None, help="also write ground truth JSONL")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("render", help="render oracle instance/depth rasters")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", default="render_out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("standardize", help="warp an image to standardized intrinsics")
    p.add_argument("--in", dest="infile", required=True, help="input PPM image")
    p.add_argument("--cam", required=True, help="input camera JSON")
    p.add_argument("--out", default="standardized.ppm")
    p.add_argument("--out-cam", default="standardized_camera.json")
    p.add_argument(
        "--intrinsics",
        type=float,
        nargs=4,
        metavar=("FU", "FV", "CU", "CV"),
        default=None,
        help="target intrinsics (default: the built-in standardized values)",
    )
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("fit", help="gradient-descent box fitting on a synthetic scene")
    p.add_argument("--loss", choices=BOX_LOSS_KINDS, default="wd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="fit_trace.csv")
    p.add_argument("--svg", default=None, help="optional loss-curve SVG")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="AP evaluation of detection JSONL vs ground truth")
    p.add_argument("--dets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=None, help="AP IoU threshold")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--no-nms", action="store_true", help="skip NMS before scoring")
    p.add_argument("--nms-iou", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pe-heatmap", help="position-embedding correlation heatmap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--view", type=int, default=0)
    p.add_argument("--ref", default=None, help="reference cell as 'i,j'")
    p.add_argument("--config", default=None)
    p.add_argument("--out-prefix", default="pe_heatmap")
    p.set_defaults(func=_cmd_pe_heatmap)

    p = sub.add_parser("aggregate-demo", help="multi-view aggregation signature demo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_aggregate_demo)

    return parser


# main parses with one parser per process; build_parser returns a fresh one
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
