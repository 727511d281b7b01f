"""Position-encoding tests: point embeddings, depth distributions, weighted
collapse, fusion, and the correlation map."""

import numpy as np
import pytest

from mvbox3d.camera import CameraModel, DEFAULT_STD_INTRINSICS
from mvbox3d.enhancer import (
    FeatureMap,
    LinearParams,
    depth_distribution,
    fuse_features,
    init_linear,
    ipe_correlation_map,
)
from mvbox3d.geometry import euler_to_rotation
from oracles import (
    oracle_expected_frustum_points,
    oracle_frustum_point_grid,
    oracle_image_position_embedding,
    oracle_point_position_embedding,
)


def make_camera(euler=(0, 0, 0), translation=(0, 0, 0)):
    ext = np.eye(4)
    ext[:3, :3] = euler_to_rotation(euler)
    ext[:3, 3] = translation
    return CameraModel(DEFAULT_STD_INTRINSICS, ext, (512, 512))


def feature_map(rng, h, w, c, view=0, stride=8.0):
    return FeatureMap(view, stride, rng.normal(size=(h, w, c)))


class TestLinearParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearParams(np.zeros((2, 3)), np.zeros(3), "bad")
        with pytest.raises(ValueError):
            LinearParams(np.full((2, 3), np.nan), np.zeros(2), "bad")

    def test_apply_shape_check(self):
        p = LinearParams(np.ones((2, 3)), np.zeros(2), "p")
        with pytest.raises(ValueError):
            p.apply(np.ones(4))

    def test_init_bounds_and_determinism(self):
        a = init_linear("x", 16, 8, 42)
        b = init_linear("x", 16, 8, 42)
        assert np.array_equal(a.weight, b.weight)
        assert np.all(np.abs(a.weight) <= 1.0 / 4.0)
        assert np.array_equal(a.bias, np.zeros(8))


class TestPointPositionEmbedding:
    def test_zero_weights_give_bias(self):
        grid = oracle_frustum_point_grid(make_camera(), (3, 4), 10.0, 8)
        p = LinearParams(np.zeros((5, 3)), np.arange(5.0), "point_embed")
        ppe = oracle_point_position_embedding(grid, p)
        assert ppe.shape == (3, 4, 8, 5)
        assert np.all(ppe == np.arange(5.0))

    def test_identity_weights_give_coordinates(self):
        grid = oracle_frustum_point_grid(make_camera(), (2, 2), 5.0, 4)
        p = LinearParams(np.eye(3), np.zeros(3), "point_embed")
        ppe = oracle_point_position_embedding(grid, p)
        assert np.max(np.abs(ppe - grid.points)) < 1e-12

    def test_affine_in_points(self):
        grid = oracle_frustum_point_grid(make_camera(), (2, 3), 6.0, 4)
        p = init_linear("point_embed", 3, 7, 0)
        ppe = oracle_point_position_embedding(grid, p)
        doubled = FrustumLike(grid.points * 2)
        ppe2 = oracle_point_position_embedding(doubled, p)
        base = p.bias
        assert np.max(np.abs((ppe2 - base) - 2 * (ppe - base))) < 1e-9

    def test_dim_mismatch(self):
        grid = oracle_frustum_point_grid(make_camera(), (2, 2), 5.0, 4)
        with pytest.raises(ValueError):
            oracle_point_position_embedding(grid, init_linear("p", 4, 7, 0))


class FrustumLike:
    """Minimal stand-in exposing only the .points array."""

    def __init__(self, points):
        self.points = points


class TestDepthDistribution:
    def test_zero_head_uniform(self):
        rng = np.random.default_rng(0)
        img = feature_map(rng, 4, 5, 6)
        dep = feature_map(rng, 4, 5, 2)
        fuse = init_linear("fuse", 8, 6, 1)
        head = LinearParams(np.zeros((16, 6)), np.zeros(16), "head")
        dt = depth_distribution(img, dep, fuse, head)
        assert dt.shape == (4, 5, 16)
        assert np.max(np.abs(dt - 1.0 / 16)) < 1e-12

    def test_normalization_and_nonnegative(self):
        rng = np.random.default_rng(1)
        img = feature_map(rng, 3, 3, 8)
        dep = feature_map(rng, 3, 3, 1)
        dt = depth_distribution(
            img, dep, init_linear("fuse", 9, 8, 2), init_linear("head", 8, 64, 3)
        )
        assert dt.shape[-1] == 64
        assert np.all(dt >= 0)
        assert np.max(np.abs(dt.sum(axis=-1) - 1.0)) < 1e-6

    def test_misaligned_maps_rejected(self):
        rng = np.random.default_rng(2)
        img = feature_map(rng, 3, 3, 4)
        dep = feature_map(rng, 2, 3, 4)
        with pytest.raises(ValueError):
            depth_distribution(img, dep, init_linear("f", 8, 4, 0), init_linear("h", 4, 8, 0))


class TestImagePositionEmbedding:
    def test_one_hot_selects(self):
        rng = np.random.default_rng(3)
        ppe = rng.normal(size=(2, 3, 5, 4))
        dt = np.zeros((2, 3, 5))
        dt[..., 2] = 1.0
        ipe = oracle_image_position_embedding(ppe, dt)
        assert np.max(np.abs(ipe - ppe[:, :, 2, :])) < 1e-12

    def test_uniform_averages(self):
        rng = np.random.default_rng(4)
        ppe = rng.normal(size=(2, 2, 6, 3))
        dt = np.full((2, 2, 6), 1.0 / 6)
        ipe = oracle_image_position_embedding(ppe, dt)
        assert np.max(np.abs(ipe - ppe.mean(axis=2))) < 1e-9

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(5)
        ppe = rng.normal(size=(3, 4, 7, 5))
        logits = rng.normal(size=(3, 4, 7))
        dt = np.exp(logits)
        dt /= dt.sum(axis=-1, keepdims=True)
        ipe = oracle_image_position_embedding(ppe, dt)
        # independent bound oracle: coordinatewise min/max across depth bins
        assert np.all(ipe <= ppe.max(axis=2) + 1e-12)
        assert np.all(ipe >= ppe.min(axis=2) - 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle_image_position_embedding(np.zeros((2, 2, 3, 4)), np.zeros((2, 2, 5)))


class TestFuseFeatures:
    def test_block_identity_selects_image(self):
        rng = np.random.default_rng(6)
        img = feature_map(rng, 3, 3, 4)
        dep = feature_map(rng, 3, 3, 2)
        ipe = rng.normal(size=(3, 3, 5))
        weight = np.zeros((4, 11))
        weight[:, :4] = np.eye(4)
        fused = fuse_features(img, dep, ipe, LinearParams(weight, np.zeros(4), "fuse"))
        assert np.max(np.abs(fused.grid - img.grid)) < 1e-12
        assert fused.view == img.view
        assert fused.stride == img.stride

    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(7)
        img = feature_map(rng, 2, 2, 3)
        dep = feature_map(rng, 2, 2, 1)
        ipe = rng.normal(size=(2, 2, 2))
        fused = fuse_features(img, dep, ipe, LinearParams(np.zeros((4, 6)), np.arange(4.0), "f"))
        assert np.all(fused.grid == np.arange(4.0))

    def test_linear_in_ipe(self):
        rng = np.random.default_rng(8)
        img = feature_map(rng, 2, 3, 3)
        dep = feature_map(rng, 2, 3, 2)
        params = init_linear("fuse", 3 + 2 + 4, 6, 11)
        ipe1 = rng.normal(size=(2, 3, 4))
        ipe2 = rng.normal(size=(2, 3, 4))
        f0 = fuse_features(img, dep, np.zeros((2, 3, 4)), params).grid
        f1 = fuse_features(img, dep, ipe1, params).grid
        f2 = fuse_features(img, dep, ipe2, params).grid
        f12 = fuse_features(img, dep, ipe1 + ipe2, params).grid
        assert np.max(np.abs((f12 - f0) - ((f1 - f0) + (f2 - f0)))) < 1e-9


class TestCorrelationMap:
    def test_reference_is_one(self):
        rng = np.random.default_rng(9)
        ipe = rng.normal(size=(4, 4, 8))
        sims = ipe_correlation_map(ipe, (1, 2))
        assert sims[1, 2] == pytest.approx(1.0)
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)

    def test_antipodal_and_orthogonal(self):
        ipe = np.zeros((1, 3, 2))
        ipe[0, 0] = [1.0, 0.0]
        ipe[0, 1] = [-1.0, 0.0]
        ipe[0, 2] = [0.0, 1.0]
        sims = ipe_correlation_map(ipe, (0, 0))
        assert sims[0, 1] == pytest.approx(-1.0)
        assert sims[0, 2] == pytest.approx(0.0)

    def test_zero_norm_pixel_is_zero(self):
        ipe = np.zeros((1, 2, 3))
        ipe[0, 0] = [1.0, 0.0, 0.0]
        sims = ipe_correlation_map(ipe, (0, 0))
        assert sims[0, 1] == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            ipe_correlation_map(np.zeros((2, 2, 3)), (0, 0))


class TestSpatialSensitivity:
    def _ipe_for_camera(self, cam, seed=13):
        rng = np.random.default_rng(seed)
        grid = oracle_frustum_point_grid(cam, (6, 6), 10.0, 12)
        ppe = oracle_point_position_embedding(grid, init_linear("pe", 3, 16, seed))
        img = feature_map(rng, 6, 6, 8)
        dep = feature_map(rng, 6, 6, 1)
        dt = depth_distribution(
            img, dep, init_linear("fuse", 9, 8, seed + 1), init_linear("head", 8, 12, seed + 2)
        )
        return oracle_image_position_embedding(ppe, dt), grid, dt

    def test_distinct_rays_distinct_embeddings(self):
        ipe, _, _ = self._ipe_for_camera(make_camera())
        flat = ipe.reshape(-1, ipe.shape[-1])
        seen = {tuple(np.round(v, 12)) for v in flat}
        assert len(seen) == flat.shape[0]

    def test_extrinsic_sensitivity(self):
        base, _, _ = self._ipe_for_camera(make_camera())
        moved, _, _ = self._ipe_for_camera(make_camera(euler=(0, 0, 1.0)))
        assert np.max(np.abs(base - moved)) > 1e-3

    def test_ipe_is_embedding_of_expected_point(self):
        # affine embedding with a nonzero bias, normalized depth weights
        rng = np.random.default_rng(21)
        cam = make_camera(euler=(0.2, -0.1, 0.5), translation=(0.4, -0.3, 1.0))
        grid = oracle_frustum_point_grid(cam, (7, 5), 10.0, 12)
        embed = LinearParams(rng.normal(size=(16, 3)), rng.normal(size=16) * 3.0, "pe")
        dt = depth_distribution(
            feature_map(rng, 7, 5, 8), feature_map(rng, 7, 5, 1),
            init_linear("fuse", 9, 8, 22), init_linear("head", 8, 12, 23),
        )
        literal = oracle_image_position_embedding(oracle_point_position_embedding(grid, embed), dt)
        via_mean = embed.apply(oracle_expected_frustum_points(grid, dt))
        assert np.max(np.abs(via_mean - literal)) <= 1e-12

    def test_expected_points_match_hand_sum(self):
        cam = make_camera()
        _, grid, dt = self._ipe_for_camera(cam)
        expected = oracle_expected_frustum_points(grid, dt)
        hand = np.zeros_like(expected)
        for k in range(len(grid.depths)):
            hand += grid.points[:, :, k, :] * dt[:, :, k, None]
        assert np.max(np.abs(expected - hand)) < 1e-12
