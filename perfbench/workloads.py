"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``make_input(i)`` draws item
``i`` from the run seed (outside the timed region), ``run`` is the timed item
and calls only public functions of ``mvbox3d`` (looked up on their modules at
call time, so the tracer sees them), and ``check`` verifies the item's
outputs. ``finish`` makes the whole-run checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from mvbox3d import camera, cli, evaluation, geometry, harness, losses, matching, rasters
from mvbox3d.config import RunConfig
from mvbox3d.geometry import Box9DoF, Detection


@dataclass
class ItemResult:
    ok: bool
    quality: float = math.nan  # the item's contribution to quality_mean
    values: list = field(default_factory=list)  # hashed into the output digest
    info: dict = field(default_factory=dict)  # read by the whole-run checks
    note: str = ""


@dataclass
class RunCheck:
    name: str
    ok: bool
    detail: str


def _cli(*argv) -> int:
    """One in-process ``mvbox3d`` call with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _jitter(box: Box9DoF, rng, center_sd: float, size_rel: float,
            angle_sd: float) -> Box9DoF:
    return Box9DoF(
        box.center + rng.normal(0.0, center_sd, 3),
        box.size * rng.uniform(1.0 - size_rel, 1.0 + size_rel, 3),
        box.euler + rng.normal(0.0, angle_sd, 3),
    )


def _binomial_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1))


def _rate_check(name: str, successes: int, n: int, rate: float,
                alpha: float = 1e-3) -> RunCheck:
    """Fails when ``successes`` of ``n`` is implausibly low for a true success
    rate of ``rate``: P(X <= successes | n, rate) < alpha. A plain
    ``successes / n >= rate`` test on a few dozen samples would fail at random
    for a program whose true rate is just above ``rate``."""
    if n == 0:
        return RunCheck(name, True, "no samples")
    tail = _binomial_cdf(successes, n, rate)
    return RunCheck(name, tail >= alpha,
                    f"{successes}/{n} = {successes / n:.3f} "
                    f"(P(X<={successes} | rate {rate}) = {tail:.2e}, alpha {alpha:g})")


class Fit:
    """One item: ``fit_single_box`` (default 1200 steps) from ``perturb_box`` of
    a ``random_box`` (random symmetry), cycling the losses l1, ccd, pcd, wd, wd,
    then one ``box_iou`` against ground truth.

    wd, the loss the paper trains with, comes twice per cycle. With four equal
    shares the median item would sit on the boundary between two losses'
    times and jump between them from run to run; this way it lies inside the
    wd times."""

    name = "fit"
    KINDS = ("l1", "ccd", "pcd", "wd", "wd")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = RunConfig()

    def setup(self) -> None:
        short = RunConfig(fit_steps=20)
        for i, kind in enumerate(self.KINDS[:4]):
            _, gt, init = self.make_input(i)
            trace = harness.fit_single_box(gt, init, kind, short)
            geometry.box_iou(trace.final_box, gt)

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, 0xF17, i])
        gt = harness.random_box(rng)
        init, _ = harness.perturb_box(gt, rng, self.config)
        return self.KINDS[i % len(self.KINDS)], gt, init

    def run(self, inp):
        kind, gt, init = inp
        trace = harness.fit_single_box(gt, init, kind, self.config)
        return trace, geometry.box_iou(trace.final_box, gt)

    def check(self, inp, out) -> ItemResult:
        kind = inp[0]
        trace, iou = out
        # the reported fit is the best iterate, so it is never worse than the start
        ok = (0.0 <= iou <= 1.0 and math.isfinite(trace.final_loss)
              and trace.final_loss <= trace.losses[0])
        values = list(trace.final_box.to_params()) + [trace.final_loss, iou]
        # quality: the losses expected to converge, so that it is not dominated
        # by the l1 and ccd fits that end in a wrong orientation at random
        quality = iou if kind in ("wd", "pcd") else math.nan
        return ItemResult(ok, quality, values, {"kind": kind, "iou": iou})

    def finish(self, results: list[ItemResult]) -> list[RunCheck]:
        checks = []
        for kind in ("wd", "pcd"):
            ious = [r.info["iou"] for r in results if r.info.get("kind") == kind]
            good = sum(iou >= 0.9 for iou in ious)
            checks.append(_rate_check(f"{kind}_iou_ge_0.9_rate", good, len(ious), 0.95))
        return checks


class Eval:
    """One item: one ``mvbox3d eval`` (JSONL load, per-category NMS,
    ``metrics_report``, CSV write) over a small multi-scene set of its own, with
    two subset tags and three categories. Detections are two jittered
    duplicates of most ground-truth boxes (so NMS suppresses), some poorly
    localised ones and spurious boxes elsewhere in the room. Every
    ``CONTROL_EVERY``-th item is a control whose detections are the ground
    truth, evaluated without NMS, so every split must give AP 1.

    The scenes of an item hold 2, 3, 4 and 5 boxes (the order rotates with the
    item), and of its 14 ground-truth boxes ``MISSED`` have no detection and
    ``POOR`` have a poorly localised one, so every seed gives a run the same
    mix of set sizes; which boxes, and where, comes from the seed."""

    name = "eval"
    SCENES = 4
    BOX_COUNTS = (2, 3, 4, 5)
    MISSED = 2
    POOR = 4
    SUBSETS = ("a", "b")
    CONTROL_EVERY = 8
    NMS_CHECK_SETS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = RunConfig()
        self.scene_configs = [RunConfig(min_boxes=n, max_boxes=n, num_categories=3)
                              for n in self.BOX_COUNTS]
        self.sizes = evaluation.SizeThresholds(self.config.size_small_max,
                                               self.config.size_medium_max)
        self.dets_path = os.path.join(workdir, "dets.jsonl")
        self.gt_path = os.path.join(workdir, "gt.jsonl")
        self.out = os.path.join(workdir, "report.csv")
        self.workdir = workdir

    def _make_set(self, k: int):
        rng = np.random.default_rng([self.seed, 0xE7A1, k])
        gts = evaluation.GroundTruthSet()
        dets: dict[str, list[Detection]] = {}
        order = rng.permutation(sum(self.BOX_COUNTS))
        missed = set(order[:self.MISSED].tolist())
        poor = set(order[self.MISSED:self.MISSED + self.POOR].tolist())
        g = 0  # index of the ground-truth box within the item
        for j in range(self.SCENES):
            scene_config = self.scene_configs[(k + j) % len(self.BOX_COUNTS)]
            scene = harness.gen_scene(scene_config, int(rng.integers(2**31)))
            scene_id = f"set{k}-scene{j}"
            gts.scenes[scene_id] = evaluation.SceneGroundTruth(
                list(scene.gt_boxes), list(scene.gt_categories),
                self.SUBSETS[j % len(self.SUBSETS)])
            scene_dets = []
            for box, cat in zip(scene.gt_boxes, scene.gt_categories):
                if g not in missed:
                    scene_dets.append(Detection(_jitter(box, rng, 0.03, 0.05, 0.05),
                                                rng.uniform(0.5, 1.0), cat))
                    scene_dets.append(Detection(_jitter(box, rng, 0.08, 0.1, 0.1),
                                                rng.uniform(0.2, 0.9), cat))
                if g in poor:
                    scene_dets.append(Detection(_jitter(box, rng, 0.35, 0.2, 0.3),
                                                rng.uniform(0.0, 0.6), cat))
                g += 1
            for _ in range(2):  # spurious boxes elsewhere in the room
                box = harness.random_box(rng, center_low=(-2.2, -2.2, 0.4),
                                         center_high=(2.2, 2.2, 2.2))
                scene_dets.append(Detection(box, rng.uniform(0.0, 0.7),
                                            int(rng.integers(3))))
            dets[scene_id] = scene_dets
        return gts, dets

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for i in (0, self.CONTROL_EVERY - 1):
            self.run(self.make_input(i))

    def _is_control(self, i: int) -> bool:
        return i % self.CONTROL_EVERY == self.CONTROL_EVERY - 1

    def make_input(self, i: int):
        """Writes item ``i``'s set; returns (is control, gt size classes)."""
        gts, dets = self._make_set(i)
        control = self._is_control(i)
        if control:
            dets = {sid: [Detection(b, 1.0, c) for b, c in zip(s.boxes, s.categories)]
                    for sid, s in gts.scenes.items()}
        evaluation.save_detections_jsonl(self.dets_path, dets)
        evaluation.save_gt_jsonl(self.gt_path, gts)
        sizes = {self.sizes.classify(b) for s in gts.scenes.values() for b in s.boxes}
        return control, sizes

    def run(self, inp) -> int:
        flags = ["--no-nms"] if inp[0] else []
        return _cli("eval", "--dets", self.dets_path, "--gt", self.gt_path,
                    "--out", self.out, *flags)

    def check(self, inp, rc: int) -> ItemResult:
        control, gt_sizes = inp
        if rc != 0:
            return ItemResult(False, note=f"exit code {rc}")
        with open(self.out, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        aps = [float(r[2]) for r in rows]
        ok = all(0.0 <= ap <= 1.0 for ap in aps) and rows[0][0] == "overall"
        if control:
            # AP 1 in every split that holds ground truth
            for split, key, ap, n_gt, _ in rows:
                has_gt = {"overall": True, "category": n_gt not in ("", "0"),
                          "size": key in gt_sizes, "subset": True}[split]
                ok &= (not has_gt) or ap == "1.000000"
            return ItemResult(ok, values=aps, note="" if ok else "control AP below 1")
        return ItemResult(ok, aps[0], aps)

    def finish(self, results: list[ItemResult]) -> list[RunCheck]:
        """NMS never keeps two same-category boxes above the IoU threshold,
        checked on the first ``NMS_CHECK_SETS`` sets that are not controls."""
        thr = self.config.nms_iou_threshold
        worst = 0.0
        sets = [k for k in range(2 * self.NMS_CHECK_SETS)
                if not self._is_control(k)][: self.NMS_CHECK_SETS]
        for k in sets:
            for dets in self._make_set(k)[1].values():
                kept = geometry.nms(dets, thr)
                for a in range(len(kept)):
                    for b in range(a + 1, len(kept)):
                        if kept[a].category == kept[b].category:
                            worst = max(worst, geometry.box_iou(kept[a].box, kept[b].box))
        return [RunCheck("nms_kept_iou_le_threshold", worst <= thr,
                         f"max kept same-category IoU {worst:.4f} over {len(sets)} sets "
                         f"(threshold {thr})")]


class Perceive:
    """One item: one scene through the CLI: ``gen-scene``, ``standardize`` of a
    seeded 512x512 PPM from a camera with non-standard intrinsics, ``render``,
    ``pe-heatmap`` and ``aggregate-demo``, with the criterion-7 scene settings
    (>= 5 cameras, <= 4 well-separated boxes).

    Item ``i`` has the ``i % 16``-th of the 16 pairs (5-8 cameras, 1-4 boxes),
    so the numbers of views and queries vary from item to item but every seed
    gives a run the same mix; the scene itself comes from the seed."""

    name = "perceive"
    IMAGES = 4
    IMAGE_SIZE = 512
    CAMERAS = (5, 6, 7, 8)
    BOXES = (1, 2, 3, 4)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config = RunConfig(max_boxes=4, min_cameras=5, min_box_separation=1.8,
                                box_size_max=0.7)
        self.shapes = [(c, b) for b in self.BOXES for c in self.CAMERAS]
        self.path = {name: os.path.join(workdir, name) for name in (
            "scene.json", "gt.jsonl", "std.ppm", "std_cam.json", "render", "pe", "agg.csv")}

    def _config_path(self, shape) -> str:
        return os.path.join(self.workdir, "config-{}-{}.json".format(*shape))

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for cams, boxes in self.shapes:
            config = dataclasses.replace(self.config, min_cameras=cams, max_cameras=cams,
                                         min_boxes=boxes, max_boxes=boxes)
            config.save(self._config_path((cams, boxes)))
        for k in range(self.IMAGES):
            rng = np.random.default_rng([self.seed, 0x9E7, k])
            size = self.IMAGE_SIZE
            image = rng.integers(0, 256, (size, size, 3))
            intr = (rng.uniform(380, 620), rng.uniform(380, 620),
                    rng.uniform(230, 280), rng.uniform(230, 280))
            rasters.write_ppm(os.path.join(self.workdir, f"img{k}.ppm"), image)
            camera.save_camera_json(os.path.join(self.workdir, f"cam{k}.json"),
                                    camera.CameraModel(intr, np.eye(4), (size, size)))
        self.run(self.make_input(0))

    def make_input(self, i: int):
        scene_seed = int(np.random.default_rng([self.seed, 0x5CE, i]).integers(2**31))
        return scene_seed, i % self.IMAGES, self.shapes[i % len(self.shapes)]

    def run(self, inp) -> list[int]:
        seed, k, shape = inp
        p = self.path
        cfg = self._config_path(shape)
        return [
            _cli("gen-scene", "--seed", seed, "--config", cfg, "--out", p["scene.json"],
                 "--gt-out", p["gt.jsonl"]),
            _cli("standardize", "--in", os.path.join(self.workdir, f"img{k}.ppm"),
                 "--cam", os.path.join(self.workdir, f"cam{k}.json"),
                 "--out", p["std.ppm"], "--out-cam", p["std_cam.json"]),
            _cli("render", "--scene", p["scene.json"], "--config", cfg,
                 "--out-dir", p["render"]),
            _cli("pe-heatmap", "--seed", seed, "--config", cfg, "--out-prefix", p["pe"]),
            _cli("aggregate-demo", "--seed", seed, "--config", cfg, "--out", p["agg.csv"]),
        ]

    def check(self, inp, codes: list[int]) -> ItemResult:
        if any(codes):
            return ItemResult(False, note=f"exit codes {codes}")
        p = self.path
        scene = harness.load_scene_json(p["scene.json"])
        n_views, n_boxes = len(scene.cameras), len(scene.gt_boxes)
        ok = (n_views, n_boxes) == inp[2]
        std_cam = camera.load_camera_json(p["std_cam.json"])
        ok &= np.allclose(std_cam.intrinsics, camera.DEFAULT_STD_INTRINSICS, rtol=0, atol=1e-9)
        std = rasters.read_ppm(p["std.ppm"])
        ok &= std.shape == (self.IMAGE_SIZE, self.IMAGE_SIZE, 3)
        ok &= all(os.path.isfile(os.path.join(p["render"], f"view{v:02d}_{kind}.pgm"))
                  for v in range(n_views) for kind in ("owner", "depth"))
        with open(p["pe"] + ".csv", encoding="utf-8") as fh:
            cells = [line.split(",") for line in fh.read().splitlines()[1:]]
        h = w = self.IMAGE_SIZE // self.config.feature_stride
        ref = cells[(h // 2) * w + w // 2]
        sims = np.array([float(c[2]) for c in cells])
        ok &= (len(cells) == h * w and (int(ref[0]), int(ref[1])) == (h // 2, w // 2)
               and abs(float(ref[2]) - 1.0) <= 1e-6 and bool(np.all(np.abs(sims) <= 1 + 1e-9)))
        with open(p["agg.csv"], encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        ok &= len(rows) == n_boxes
        recovered = sum(int(r[0]) == int(r[1]) for r in rows)
        values = [float(x) for r in rows for x in r[2:]] + [float(sims.sum()), float(std.mean())]
        return ItemResult(bool(ok), recovered / max(n_boxes, 1), values,
                          {"recovered": recovered, "instances": n_boxes})

    def finish(self, results: list[ItemResult]) -> list[RunCheck]:
        """Signature recovery of criterion 7. It holds for every scene of that
        criterion's seeds 0-49 but not for every seed: an instance hidden behind
        another in most views takes the other's signature. The run therefore
        checks the recovered share of instances against 0.95."""
        done = [r.info for r in results if r.info]
        recovered = sum(d["recovered"] for d in done)
        total = sum(d["instances"] for d in done)
        missed_scenes = sum(d["recovered"] < d["instances"] for d in done)
        check = _rate_check("signature_recovery_rate", recovered, total, 0.95)
        check.detail += f"; scenes with an unrecovered signature: {missed_scenes}/{len(done)}"
        return [check]


class Assign:
    """One item: one ``matching.matched_loss`` with ``wd`` or ``pcd`` (alternating)
    for P in [10, 48] predictions and G in [1, 20] ground truths. Predictions
    are jittered ground truths, decoys and exact duplicates (cost ties); the
    boxes, logits and order come from the seed."""

    name = "assign"
    KINDS = ("wd", "pcd")
    CLASSES = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.weights = losses.LossWeights()

    def setup(self) -> None:
        for i in range(len(self.KINDS)):
            kind, preds, gts, _ = self.make_input(i)
            matching.matched_loss(preds[:3], gts[:2], self.weights, kind)

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, 0xA55, i])
        # sizes cycle through 20 fixed (P, G) pairs over [10, 48] x [1, 20], so
        # that every seed, and every run of some 100 items or more, gives
        # nearly the same mix of problem sizes
        k = i % 20
        n_gt = 1 + (7 * k) % 20
        n_pred = 10 + 2 * ((11 * k) % 20)
        gts = [(harness.random_box(rng), int(rng.integers(self.CLASSES)))
               for _ in range(n_gt)]
        n_dup = n_pred // 10
        n_copy = min(n_gt, n_pred - n_dup)
        preds, sources = [], []
        for g in rng.permutation(n_gt)[:n_copy]:
            logits = rng.normal(0.0, 1.0, self.CLASSES)
            logits[gts[g][1]] += 2.0
            preds.append((_jitter(gts[g][0], rng, 0.1, 0.1, 0.1), logits))
            sources.append(int(g))
        for _ in range(n_pred - n_dup - n_copy):
            preds.append((harness.random_box(rng), rng.normal(-1.0, 1.0, self.CLASSES)))
            sources.append(-1)
        for j in rng.integers(len(preds), size=n_dup):
            preds.append(preds[j])
            sources.append(sources[j])
        order = rng.permutation(n_pred)
        return (self.KINDS[i % len(self.KINDS)], [preds[j] for j in order], gts,
                [sources[j] for j in order])

    def run(self, inp):
        kind, preds, gts, _ = inp
        return matching.matched_loss(preds, gts, self.weights, kind)

    def check(self, inp, out) -> ItemResult:
        kind, preds, gts, sources = inp
        pairs = out.assignment
        rows = [p for p, _ in pairs]
        cols = [g for _, g in pairs]
        ok = (len(pairs) == min(len(preds), len(gts)) and len(set(rows)) == len(rows)
              and len(set(cols)) == len(cols)
              and all(0 <= p < len(preds) for p in rows)
              and all(0 <= g < len(gts) for g in cols)
              and math.isfinite(out.total_value))
        probs = [1.0 / (1.0 + np.exp(-np.asarray(l, dtype=float))) for _, l in preds]
        cost = matching.cost_matrix([(box, pr) for (box, _), pr in zip(preds, probs)],
                                    gts, self.weights, kind)
        r, c = linear_sum_assignment(cost)
        best = float(cost[r, c].sum())
        got = float(sum(cost[p, g] for p, g in pairs))
        ok &= abs(got - best) <= 1e-9 * max(1.0, abs(best))
        own = sum(sources[p] == g for p, g in pairs)
        values = [float(x) for pair in pairs for x in pair] + [out.total_value]
        return ItemResult(bool(ok), own / len(pairs), values,
                          note="" if ok else f"assignment cost {got} vs optimum {best}")

    def finish(self, results: list[ItemResult]) -> list[RunCheck]:
        return []


def quality_mean(results: list[ItemResult]) -> float:
    qualities = [r.quality for r in results if not math.isnan(r.quality)]
    return sum(qualities) / len(qualities) if qualities else 0.0


WORKLOADS = {cls.name: cls for cls in (Fit, Eval, Perceive, Assign)}
