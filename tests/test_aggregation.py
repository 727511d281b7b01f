"""Aggregation tests: key points, bilinear sampling, masked weights, the
multi-view update, and K-Means anchors."""

import numpy as np
import pytest

from mvbox3d.aggregation import (
    FIXED_KEYPOINT_OFFSETS,
    AggregationParams,
    Query,
    aggregate,
    aggregation_weights,
    camera_descriptor,
    generate_anchors,
    keypoint_validity,
    learnable_keypoint_offsets,
)
from mvbox3d.camera import CameraModel, DEFAULT_STD_INTRINSICS, bilinear_warp, project_points
from mvbox3d.enhancer import FeatureMap, LinearParams, init_linear
from mvbox3d.geometry import Box9DoF, box_corners, euler_to_rotation, transform_box
from oracles import oracle_aggregate, oracle_aggregation_weights, oracle_bilinear_sample


def make_camera(euler=(0, 0, 0), translation=(0, 0, 0), size=(512, 512)):
    ext = np.eye(4)
    ext[:3, :3] = euler_to_rotation(euler)
    ext[:3, 3] = translation
    return CameraModel(DEFAULT_STD_INTRINSICS, ext, size)


def constant_map(value, h=64, w=64, c=4, stride=8.0, view=0):
    return FeatureMap(view, stride, np.full((h, w, c), value, dtype=float))


def zero_params(in_dim, out_dim, role="p"):
    return LinearParams(np.zeros((out_dim, in_dim)), np.zeros(out_dim), role)


class TestFixedOffsets:
    def test_count_and_center_first(self):
        offs = FIXED_KEYPOINT_OFFSETS
        assert offs.shape == (7, 3)
        assert np.array_equal(offs[0], [0, 0, 0])

    def test_sum_zero(self):
        assert np.array_equal(FIXED_KEYPOINT_OFFSETS.sum(axis=0), [0, 0, 0])

    def test_face_centers(self):
        offs = {tuple(o) for o in FIXED_KEYPOINT_OFFSETS}
        expected = {(0.0, 0.0, 0.0)}
        for axis in range(3):
            for sgn in (0.5, -0.5):
                o = [0.0, 0.0, 0.0]
                o[axis] = sgn
                expected.add(tuple(o))
        assert offs == expected


class TestLearnableOffsets:
    def test_zero_params(self):
        offs = learnable_keypoint_offsets(np.ones(8), zero_params(8, 27))
        assert offs.shape == (9, 3)
        assert np.all(offs == 0)

    def test_affine_in_feature(self):
        params = init_linear("offsets", 6, 27, 3)
        f1 = np.random.default_rng(0).normal(size=6)
        f2 = np.random.default_rng(1).normal(size=6)
        base = learnable_keypoint_offsets(np.zeros(6), params)
        lhs = learnable_keypoint_offsets(f1 + f2, params) - base
        rhs = (learnable_keypoint_offsets(f1, params) - base) + (
            learnable_keypoint_offsets(f2, params) - base
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_wrong_out_dim(self):
        with pytest.raises(ValueError):
            learnable_keypoint_offsets(np.ones(4), zero_params(4, 12))


class TestKeypointsWorld:
    """Key points in the world frame: ``box_corners`` at key-point offsets."""

    def test_center_offset(self):
        box = Box9DoF([1, 2, 3], [2, 1, 1], [0.3, 0.2, 0.1])
        pts = box_corners(box, [[0, 0, 0]])
        assert np.allclose(pts[0], [1, 2, 3])

    def test_face_center_axis_aligned(self):
        box = Box9DoF([1, 2, 3], [2.0, 0.5, 0.8], [0, 0, 0])
        pts = box_corners(box, [[0.5, 0, 0]])
        assert np.allclose(pts[0], [2, 2, 3], atol=1e-12)

    def test_face_centers_match_corner_centroids(self):
        # face-center key points equal centroids of the 4 face corners
        box = Box9DoF([0.5, -1.0, 2.0], [0.9, 1.7, 0.6], [0.3, -0.5, 1.2])
        corners = box_corners(box)
        # canonical bit order: bit2 = w sign, bit1 = l sign, bit0 = h sign
        faces = {
            (0.5, 0.0, 0.0): [4, 5, 6, 7],
            (-0.5, 0.0, 0.0): [0, 1, 2, 3],
            (0.0, 0.5, 0.0): [2, 3, 6, 7],
            (0.0, -0.5, 0.0): [0, 1, 4, 5],
            (0.0, 0.0, 0.5): [1, 3, 5, 7],
            (0.0, 0.0, -0.5): [0, 2, 4, 6],
        }
        for off, idx in faces.items():
            kp = box_corners(box, [list(off)])[0]
            centroid = corners[idx].mean(axis=0)
            assert np.max(np.abs(kp - centroid)) < 1e-9


def sample_point(fm, u, v):
    """One feature-grid point through ``bilinear_warp`` on (1,) arrays, as
    ``aggregate`` samples its valid key points."""
    return bilinear_warp(fm.grid, np.array([u]), np.array([v]))[0]


class TestBilinearSample:
    def test_lattice_exact(self):
        rng = np.random.default_rng(2)
        fm = FeatureMap(0, 8.0, rng.normal(size=(4, 5, 3)))
        assert np.array_equal(sample_point(fm, 2.0, 3.0), fm.grid[3, 2])

    def test_constant_field(self):
        fm = constant_map(7.5, h=4, w=4, c=2)
        assert np.allclose(sample_point(fm, 1.3, 2.7), 7.5)

    def test_midpoint_average(self):
        grid = np.zeros((2, 2, 1))
        grid[0, 0, 0] = 2.0
        grid[0, 1, 0] = 4.0
        fm = FeatureMap(0, 1.0, grid)
        assert sample_point(fm, 0.5, 0.0)[0] == pytest.approx(3.0)

    def test_matches_point_oracle_bitwise(self):
        rng = np.random.default_rng(12)
        fm = FeatureMap(0, 8.0, rng.normal(size=(7, 9, 5)))
        points = [(0.0, 0.0), (8.0, 6.0), (8.0, 0.3), (3.25, 6.0)]
        points += [tuple(p) for p in rng.uniform([0, 0], [8, 6], (40, 2))]
        for u, v in points:
            got = sample_point(fm, u, v)
            assert got.shape == (5,)
            assert got.tobytes() == oracle_bilinear_sample(fm.grid, u, v).tobytes()


class TestAggregationWeights:
    def _query(self, c=6):
        return Query(np.zeros(c), Box9DoF([0, 0, 2], [1, 1, 1], [0, 0, 0]))

    def _params(self, m, n, c=6):
        return zero_params(c + 9 + 16 * n, m * n, "weights")

    def test_uniform_when_all_valid(self):
        cams = [make_camera(), make_camera(translation=(1, 0, 0))]
        validity = np.ones((16, 2), dtype=bool)
        w = aggregation_weights(self._query(), cams, validity, self._params(16, 2))
        assert not w.all_invalid
        assert np.max(np.abs(w.weights - 1.0 / 32)) < 1e-12

    def test_masked_view_uniform(self):
        cams = [make_camera(), make_camera(translation=(1, 0, 0))]
        validity = np.ones((16, 2), dtype=bool)
        validity[:, 1] = False
        w = aggregation_weights(self._query(), cams, validity, self._params(16, 2))
        assert np.all(w.weights[:, 1] == 0.0)
        assert np.max(np.abs(w.weights[:, 0] - 1.0 / 16)) < 1e-12

    def test_all_invalid_flag(self):
        cams = [make_camera()]
        w = aggregation_weights(
            self._query(), cams, np.zeros((16, 1), dtype=bool), self._params(16, 1)
        )
        assert w.all_invalid
        assert np.all(w.weights == 0.0)

    def test_weight_mass_with_random_params(self):
        rng = np.random.default_rng(3)
        cams = [make_camera(), make_camera(euler=(0, 0, 2.0))]
        validity = rng.random((16, 2)) > 0.4
        if not validity.any():
            validity[0, 0] = True
        params = init_linear("weights", 6 + 9 + 32, 32, 5)
        w = aggregation_weights(self._query(), cams, validity, params)
        assert w.weights[~validity].max(initial=0.0) == 0.0
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(w.weights >= 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng([seed, 31])
        n_views = 1 + seed % 3
        cams = [make_camera(euler=rng.uniform(-0.5, 0.5, 3), translation=rng.uniform(-1, 1, 3))
                for _ in range(n_views)]
        query = Query(rng.normal(size=6), Box9DoF(rng.uniform(-1, 1, 3) + [0, 0, 3],
                                                  rng.uniform(0.3, 2, 3), rng.uniform(-1, 1, 3)))
        validity = rng.random((16, n_views)) > [0.3, 0.7, 1.0][seed % 3]
        params = init_linear("weights", 6 + 9 + 16 * n_views, 16 * n_views, [seed, 32])
        w = aggregation_weights(query, cams, validity, params)
        want = oracle_aggregation_weights(query, cams, validity, params)
        assert w.all_invalid == want.all_invalid == (not validity.any())
        assert np.max(np.abs(w.weights - want.weights)) <= 1e-12

    def test_descriptor_layout(self):
        cam = make_camera(translation=(1, 2, 3))
        desc = camera_descriptor(cam)
        assert desc.shape == (16,)
        assert np.array_equal(desc[:4], cam.intrinsics)
        assert np.array_equal(desc[4:].reshape(3, 4), cam.extrinsics[:3, :])


def simple_scene(c=4):
    """One box in front of two cameras with constant feature maps."""
    box = Box9DoF([0, 0, 3], [0.8, 0.6, 0.7], [0.1, -0.2, 0.4])
    cams = [make_camera(), make_camera(translation=(0.5, 0, 0))]
    query = Query(np.zeros(c), box)
    return box, cams, query


class TestAggregate:
    def test_single_view_constant_map(self):
        box, cams, query = simple_scene()
        params = AggregationParams(zero_params(4, 27), zero_params(4 + 9 + 16, 16), 10.0)
        feats, flags = aggregate([query], [constant_map(3.25)], cams[:1], params)
        assert not flags[0]
        assert np.allclose(feats[0], 3.25, atol=1e-9)

    def test_two_views_average(self):
        box, cams, query = simple_scene()
        params = AggregationParams(zero_params(4, 27), zero_params(4 + 9 + 32, 32), 10.0)
        maps = [constant_map(1.0, view=0), constant_map(3.0, view=1)]
        feats, _ = aggregate([query], maps, cams, params)
        assert np.allclose(feats[0], 2.0, atol=1e-9)

    def test_all_invalid_zero_update(self):
        box = Box9DoF([0, 0, -5], [0.5, 0.6, 0.7], [0, 0, 0])  # behind both cameras
        cams = [make_camera()]
        query = Query(np.zeros(4), box)
        params = AggregationParams(zero_params(4, 27), zero_params(4 + 9 + 16, 16), 10.0)
        feats, flags = aggregate([query], [constant_map(9.0)], cams, params)
        assert flags[0]
        assert np.all(feats[0] == 0.0)

    def test_projected_pixels_rigid_equivariance(self):
        box, cams, query = simple_scene()
        offsets = np.concatenate([FIXED_KEYPOINT_OFFSETS, np.zeros((9, 3))])
        pts = box_corners(box, offsets)
        g = np.eye(4)
        g[:3, :3] = euler_to_rotation([0.7, -0.4, 2.1])
        g[:3, 3] = [4, -3, 2]
        moved_box = transform_box(box, g)
        moved_pts = box_corners(moved_box, offsets)
        for cam in cams:
            u, v, d = project_points(cam, pts)
            cam2 = CameraModel(cam.intrinsics, g @ cam.extrinsics, cam.image_size)
            u2, v2, d2 = project_points(cam2, moved_pts)
            assert np.nanmax(np.abs(u - u2)) < 1e-7
            assert np.nanmax(np.abs(v - v2)) < 1e-7
            assert np.max(np.abs(d - d2)) < 1e-7

    def test_aggregate_rigid_consistency(self):
        # uniform (zero-parameter) weights: the update only depends on the
        # projected sampling geometry, which a common rigid motion preserves
        rng = np.random.default_rng(4)
        box, cams, query = simple_scene()
        maps = [FeatureMap(i, 8.0, rng.normal(size=(64, 64, 4))) for i in range(2)]
        params = AggregationParams(zero_params(4, 27), zero_params(4 + 9 + 32, 32), 10.0)
        base, _ = aggregate([query], maps, cams, params)
        g = np.eye(4)
        g[:3, :3] = euler_to_rotation([-0.3, 0.8, 1.4])
        g[:3, 3] = [2, 5, -1]
        moved_query = Query(query.feature, transform_box(box, g))
        moved_cams = [CameraModel(c.intrinsics, g @ c.extrinsics, c.image_size) for c in cams]
        moved, _ = aggregate([moved_query], maps, moved_cams, params)
        assert np.max(np.abs(base - moved)) < 1e-6

    def test_output_in_convex_hull_of_samples(self):
        rng = np.random.default_rng(5)
        box, cams, query = simple_scene()
        maps = [FeatureMap(i, 8.0, rng.normal(size=(64, 64, 4))) for i in range(2)]
        params = AggregationParams(
            init_linear("offsets", 4, 27, 6), init_linear("weights", 4 + 9 + 32, 32, 7), 10.0
        )
        feats, _ = aggregate([query], maps, cams, params)
        lo = min(m.grid.min() for m in maps)
        hi = max(m.grid.max() for m in maps)
        assert np.all(feats[0] >= lo - 1e-9) and np.all(feats[0] <= hi + 1e-9)

    def test_invalid_pixels_do_not_contribute(self):
        # box visible only in view 0: view 1 looks away
        box = Box9DoF([0, 0, 3], [0.8, 0.6, 0.7], [0, 0, 0])
        cams = [make_camera(), make_camera(euler=(0, np.pi, 0))]
        query = Query(np.zeros(4), box)
        params = AggregationParams(zero_params(4, 27), zero_params(4 + 9 + 32, 32), 10.0)
        offsets = np.concatenate([FIXED_KEYPOINT_OFFSETS, np.zeros((9, 3))])
        assert not keypoint_validity(cams[1], constant_map(0.0), box_corners(box, offsets))[0].any()
        rng = np.random.default_rng(6)
        maps_a = [constant_map(2.0, view=0), FeatureMap(1, 8.0, rng.normal(size=(64, 64, 4)))]
        maps_b = [constant_map(2.0, view=0), FeatureMap(1, 8.0, rng.normal(size=(64, 64, 4)))]
        fa, _ = aggregate([query], maps_a, cams, params)
        fb, _ = aggregate([query], maps_b, cams, params)
        assert np.array_equal(fa, fb)


class TestAggregateOracle:
    """``aggregate`` against the per-key-point, per-view loop."""

    def _scene(self, seed, n_views=3, c=6):
        rng = np.random.default_rng(seed)
        cams = [make_camera(euler=(0, rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)),
                            translation=(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), 0))
                for _ in range(n_views)]
        maps = [FeatureMap(i, 8.0, rng.normal(size=(64, 64, c))) for i in range(n_views)]
        params = AggregationParams(
            init_linear("offsets", c, 27, [seed, 1]),
            init_linear("weights", c + 9 + 16 * n_views, 16 * n_views, [seed, 2]),
            8.0,
        )
        return rng, cams, maps, params

    @pytest.mark.parametrize("seed", range(6))
    def test_random_queries_match_oracle(self, seed):
        rng, cams, maps, params = self._scene(seed)
        queries = [
            Query(rng.normal(size=6),
                  Box9DoF(rng.uniform([-2, -1.5, 1.5], [2, 1.5, 7]),
                          rng.uniform(0.3, 2.5, 3), rng.uniform(-1, 1, 3)))
            for _ in range(5)
        ]
        feats, flags = aggregate(queries, maps, cams, params)
        want, want_flags = oracle_aggregate(queries, maps, cams, params)
        assert feats.shape == (5, 6) and flags == want_flags
        assert np.max(np.abs(feats - want)) <= 1e-12

    @pytest.mark.parametrize("n_queries", range(1, 7))
    def test_query_batch_matches_oracle(self, n_queries):
        rng, cams, maps, params = self._scene(20 + n_queries, n_views=1 + n_queries % 3)
        queries = [
            Query(rng.normal(size=6),
                  Box9DoF(rng.uniform([-2, -1.5, -1], [2, 1.5, 7]),
                          rng.uniform(0.3, 2.5, 3), rng.uniform(-1, 1, 3)))
            for _ in range(n_queries)
        ]
        feats, flags = aggregate(queries, maps, cams, params)
        want, want_flags = oracle_aggregate(queries, maps, cams, params)
        assert feats.shape == (n_queries, 6) and flags == want_flags
        assert np.max(np.abs(feats - want)) <= 1e-12

    def test_partly_visible_and_all_invalid_queries(self):
        rng, cams, maps, params = self._scene(11, n_views=2)
        edge = Query(rng.normal(size=6), Box9DoF([1.6, 0.0, 3.0], [1.5, 1.2, 1.0], [0, 0, 0]))
        behind = Query(rng.normal(size=6), Box9DoF([0, 0, -5], [0.5, 0.6, 0.7], [0, 0, 0]))
        centered = Query(rng.normal(size=6), Box9DoF([0, 0, 3], [0.8, 0.6, 0.7], [0.1, 0, 0]))
        queries = [edge, behind, centered]
        offsets = np.concatenate(
            [FIXED_KEYPOINT_OFFSETS, learnable_keypoint_offsets(edge.feature, params.offset_params)]
        )
        visible = keypoint_validity(cams[0], maps[0], box_corners(edge.anchor, offsets), 8.0)[0]
        assert visible.any() and not visible.all()
        feats, flags = aggregate(queries, maps, cams, params)
        want, want_flags = oracle_aggregate(queries, maps, cams, params)
        assert flags == want_flags == [False, True, False]
        assert np.all(feats[1] == 0.0)
        assert np.max(np.abs(feats - want)) <= 1e-12

    def test_no_queries(self):
        _, cams, maps, params = self._scene(3)
        feats, flags = aggregate([], maps, cams, params)
        assert feats.shape == (0, 6) and flags == []


class TestGenerateAnchors:
    def _boxes(self, params_list):
        return [Box9DoF.from_params(np.asarray(p, dtype=float)) for p in params_list]

    def test_k_equals_n(self):
        rng = np.random.default_rng(7)
        boxes = [
            Box9DoF(rng.uniform(-2, 2, 3), rng.uniform(0.3, 1, 3), rng.uniform(-1, 1, 3))
            for _ in range(6)
        ]
        anchors = generate_anchors(boxes, 6, seed=0)
        got = sorted(tuple(np.round(a.to_params(), 9)) for a in anchors)
        want = sorted(tuple(np.round(b.to_params(), 9)) for b in boxes)
        assert got == want

    def test_two_separated_clusters(self):
        cluster_a = [[0, 0, 0, 1, 1, 1, 0, 0, 0], [0.2, 0, 0, 1, 1, 1, 0, 0, 0]]
        cluster_b = [[10, 0, 0, 2, 2, 2, 0, 0, 0], [10.2, 0, 0, 2, 2, 2, 0, 0, 0]]
        boxes = self._boxes(cluster_a + cluster_b)
        anchors = generate_anchors(boxes, 2, seed=1)
        centers = sorted(a.center[0] for a in anchors)
        # hand-computed cluster means
        assert centers[0] == pytest.approx(0.1, abs=1e-9)
        assert centers[1] == pytest.approx(10.1, abs=1e-9)

    def test_k_too_large(self):
        boxes = self._boxes([[0, 0, 0, 1, 1, 1, 0, 0, 0]])
        with pytest.raises(ValueError):
            generate_anchors(boxes, 2, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        boxes = [
            Box9DoF(rng.uniform(-2, 2, 3), rng.uniform(0.3, 1, 3), rng.uniform(-1, 1, 3))
            for _ in range(30)
        ]
        a = generate_anchors(boxes, 5, seed=3)
        b = generate_anchors(boxes, 5, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.to_params(), y.to_params())

    def test_sizes_clamped(self):
        boxes = self._boxes(
            [[0, 0, 0, 1e-3, 1e-3, 1e-3, 0, 0, 0], [0, 0, 0, 1e-3, 1e-3, 1e-3, 0, 0, 0]]
        )
        anchors = generate_anchors(boxes, 1, seed=0)
        assert np.all(anchors[0].size >= 1e-3)
