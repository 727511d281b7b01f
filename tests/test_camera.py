"""Camera tests: projection round trips, frustum rays, standardization
warps, camera JSON, and raster I/O."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbox3d.aggregation import keypoint_validity
from mvbox3d.camera import (
    DEFAULT_STD_INTRINSICS,
    CameraModel,
    PixelDepth,
    SingularProjectionError,
    bilinear_warp,
    camera_from_dict,
    camera_to_dict,
    frustum_rays,
    in_frustum,
    load_camera_json,
    project,
    project_points,
    save_camera_json,
    standardize_intrinsics,
    unproject,
)
from mvbox3d.enhancer import FeatureMap
from mvbox3d.geometry import euler_to_rotation, signed_permutations
from mvbox3d.rasters import read_pgm, read_ppm, write_pgm, write_ppm
from oracles import (
    oracle_bilinear_warp,
    oracle_frustum_point_grid,
    oracle_project,
    oracle_standardize_warp,
)

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None)


def make_camera(euler=(0, 0, 0), translation=(0, 0, 0), size=(512, 512)):
    ext = np.eye(4)
    ext[:3, :3] = euler_to_rotation(euler)
    ext[:3, 3] = translation
    return CameraModel(DEFAULT_STD_INTRINSICS, ext, size)


class TestCameraModel:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraModel([0.0, 500.0, 256.0, 256.0], np.eye(4), (512, 512))

    def test_rejects_non_rotation(self):
        ext = np.eye(4)
        ext[0, 0] = 2.0
        with pytest.raises(ValueError):
            CameraModel(DEFAULT_STD_INTRINSICS, ext, (512, 512))

    def test_rejects_tiny_image(self):
        with pytest.raises(ValueError):
            CameraModel(DEFAULT_STD_INTRINSICS, np.eye(4), (0, 512))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [
        ("intrinsics", 0), ("intrinsics", 3), ("extrinsics", (0, 3)), ("extrinsics", (1, 1)),
        ("extrinsics", (2, 0)), ("extrinsics", (3, 1)), ("extrinsics", (3, 3)),
    ], ids=["focal", "principal-point", "translation", "rotation-diagonal", "rotation-off-diagonal",
            "bottom-row", "bottom-corner"])
    def test_rejects_non_finite(self, where, value):
        intr, ext = np.array(DEFAULT_STD_INTRINSICS), np.eye(4)
        (intr if where[0] == "intrinsics" else ext)[where[1]] = value
        with pytest.raises(ValueError, match="^camera intrinsics and extrinsics must be finite$"):
            CameraModel(intr, ext, (512, 512))


class TestUnproject:
    def test_principal_point(self):
        cam = make_camera()
        p = unproject(cam, PixelDepth(256.0, 256.0, 2.0))
        assert np.allclose(p, [0, 0, 2], atol=1e-12)

    def test_hand_evaluated_offset(self):
        # u - cu = fu means x = d exactly
        cam = make_camera()
        p = unproject(cam, PixelDepth(256.0 + 432.579, 256.0, 2.0))
        assert np.allclose(p, [2, 0, 2], atol=1e-9)

    def test_translation_shift(self):
        t = np.array([1.5, -2.0, 0.5])
        p0 = unproject(make_camera(), PixelDepth(300.0, 200.0, 3.0))
        p1 = unproject(make_camera(translation=t), PixelDepth(300.0, 200.0, 3.0))
        assert np.allclose(p1 - p0, t, atol=1e-12)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            unproject(make_camera(), PixelDepth(256.0, 256.0, 0.0))


class TestProject:
    def test_optical_axis(self):
        pd = project(make_camera(), [0, 0, 2])
        assert (pd.u, pd.v, pd.depth) == pytest.approx((256.0, 256.0, 2.0))

    def test_hand_evaluated(self):
        pd = project(make_camera(), [2, 0, 2])
        assert pd.u == pytest.approx(256.0 + 432.579, abs=1e-9)

    def test_round_trip_1000_points(self):
        cam = make_camera(euler=(0.2, -0.4, 1.0), translation=(1, 2, -0.5))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            pd = PixelDepth(rng.uniform(0, 511), rng.uniform(0, 511), rng.uniform(0.05, 10))
            world = unproject(cam, pd)
            back = project(cam, world)
            worst = max(worst, abs(back.u - pd.u), abs(back.v - pd.v), abs(back.depth - pd.depth))
        assert worst < 1e-7

    def test_world_round_trip(self):
        cam = make_camera(euler=(0.3, -0.1, 0.8), translation=(0.5, 1.0, -0.2))
        rng = np.random.default_rng(7)
        for _ in range(200):
            world = unproject(cam, PixelDepth(rng.uniform(0, 511), rng.uniform(0, 511),
                                              rng.uniform(0.1, 10)))
            pd = project(cam, world)
            again = unproject(cam, pd)
            assert np.max(np.abs(again - world)) < 1e-7 * max(1.0, np.max(np.abs(world)))

    def test_singular_plane(self):
        with pytest.raises(SingularProjectionError):
            project(make_camera(), [1.0, 0.0, 0.0])

    def test_vectorized_matches_scalar(self):
        cam = make_camera(euler=(0.1, 0.3, -0.7), translation=(0.5, 0.5, 0.5))
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, (50, 3)) + np.array([0, 0, 5.0])
        u, v, d = project_points(cam, pts)
        for i in range(50):
            pd = oracle_project(cam, pts[i])
            assert (u[i], v[i], d[i]) == pytest.approx((pd.u, pd.v, pd.depth), abs=1e-9)

    def test_behind_camera_nan_pixel(self):
        pd = project(make_camera(), [0.5, -0.2, -2.0])
        assert pd.depth == -2.0 and np.isnan(pd.u) and np.isnan(pd.v)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            project(make_camera(), [0.0, np.nan, 1.0])

    def test_rigid_consistency(self):
        # moving camera and point by the same rigid transform fixes (u, v, d)
        cam = make_camera(euler=(0.3, 0.1, -0.9), translation=(1, -1, 0.2))
        world = np.array([0.4, -0.2, 3.0])
        pd = project(cam, world)
        g = np.eye(4)
        g[:3, :3] = euler_to_rotation([1.1, 0.4, -2.0])
        g[:3, 3] = [5, 6, -7]
        cam2 = CameraModel(cam.intrinsics, g @ cam.extrinsics, cam.image_size)
        pd2 = project(cam2, g[:3, :3] @ world + g[:3, 3])
        assert (pd2.u, pd2.v, pd2.depth) == pytest.approx((pd.u, pd.v, pd.depth), abs=1e-9)


class TestInFrustum:
    def test_behind_camera(self):
        assert not in_frustum(make_camera(), [0, 0, -1], 10.0)

    def test_boundary_depth_inclusive(self):
        assert in_frustum(make_camera(), [0, 0, 10.0], 10.0)
        assert not in_frustum(make_camera(), [0, 0, 10.0 + 1e-9], 10.0)

    def test_out_of_image(self):
        cam = make_camera()
        pd = PixelDepth(float(cam.image_size[0] + 10), 256.0, 2.0)
        assert not in_frustum(cam, unproject(cam, pd), 10.0)

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            in_frustum(make_camera(), [0, 0, 1], 0.0)

    def test_point_array(self):
        cam = make_camera(euler=(0.1, 0.2, -0.3), translation=(0.4, 0.0, -0.5))
        pts = np.random.default_rng(5).uniform([-4, -4, -3], [4, 4, 12], (40, 3))
        inside = in_frustum(cam, pts, 10.0)
        assert inside.dtype == bool and inside.shape == (40,)
        assert inside.tolist() == [in_frustum(cam, p, 10.0) for p in pts]
        assert 0 < inside.sum() < 40
        assert type(in_frustum(cam, pts[0], 10.0)) is bool

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            in_frustum(make_camera(), [[0, 0, 1], [0, np.inf, 1]], 10.0)


# The 24 rotations with entries 0 and +-1: through them, with power-of-two
# focal lengths and small integer offsets, a projection is exact.
AXIS_ROTATIONS = [r for r in signed_permutations() if np.linalg.det(r) > 0]


def _camera(rot, t, intrinsics, size):
    ext = np.eye(4)
    ext[:3, :3], ext[:3, 3] = rot, t
    return CameraModel(intrinsics, ext, size)


@st.composite
def general_views(draw):
    """A camera in a general pose, a point in front of it or behind it, near
    the image or on it, and max_depth."""
    cam = _camera(euler_to_rotation([draw(st.floats(-3.2, 3.2)) for _ in range(3)]),
                  [draw(st.floats(-5, 5)) for _ in range(3)],
                  [draw(st.floats(50, 900)), draw(st.floats(50, 900)),
                   draw(st.floats(-50, 700)), draw(st.floats(-50, 700))],
                  (draw(st.integers(1, 640)), draw(st.integers(1, 640))))
    (width, height), (fu, fv, cu, cv) = cam.image_size, cam.intrinsics
    # the border u = 0 (v = 0) is left to the exact views: here rounding decides
    share = st.floats(-0.2, 1.2).filter(lambda x: abs(x) > 1e-3)
    u, v = draw(share) * width, draw(share) * height
    depth = draw(st.floats(1e-3, 12)) * draw(st.sampled_from([1, -1]))
    local = np.array([(u - cu) * depth / fu, (v - cv) * depth / fv, depth])
    world = cam.extrinsics[:3, :3] @ local + cam.extrinsics[:3, 3]
    return cam, world, draw(st.floats(0.5, 15))


@st.composite
def exact_views(draw):
    """An axis-aligned camera and a point whose projection is exact: on the
    camera plane, on an image border, or at exactly max_depth, in front of
    the camera or behind it."""
    width, height = draw(st.integers(1, 640)), draw(st.integers(1, 640))
    fu, fv = 2.0 ** draw(st.integers(5, 10)), 2.0 ** draw(st.integers(5, 10))
    cu, cv = draw(st.integers(-8, width + 8)), draw(st.integers(-8, height + 8))
    cam = _camera(draw(st.sampled_from(AXIS_ROTATIONS)),
                  [draw(st.integers(-4, 4)) for _ in range(3)], [fu, fv, cu, cv],
                  (width, height))
    kind = draw(st.sampled_from(["plane", "border", "max_depth"]))
    u, v = draw(st.integers(-2, width + 1)), draw(st.integers(-2, height + 1))
    if kind == "border" and draw(st.booleans()):
        u = draw(st.sampled_from([0, width - 1]))
    elif kind == "border":
        v = draw(st.sampled_from([0, height - 1]))
    depth = draw(st.integers(1, 64)) / 4.0 * draw(st.sampled_from([1, -1]))
    max_depth = draw(st.integers(1, 64)) / 4.0
    if kind == "plane":
        depth = 0.0
    elif kind == "max_depth":
        depth = max_depth
    local = np.array([(u - cu) * depth / fu, (v - cv) * depth / fv, depth])
    if kind == "plane":
        local[:2] = [draw(st.integers(-64, 64)) / 8.0 for _ in range(2)]
    world = cam.extrinsics[:3, :3] @ local + cam.extrinsics[:3, 3]
    return cam, world, max_depth


def _expected_inside(cam, pd, max_depth):
    """The explicit frustum bounds on an oracle projection."""
    width, height = cam.image_size
    return (pd is not None and 0 < pd.depth <= max_depth
            and 0 <= pd.u <= width - 1 and 0 <= pd.v <= height - 1)


def _bound_margin(cam, pd, max_depth, fm):
    """Distance of an oracle projection to the nearest frustum or footprint
    bound that decides its validity."""
    width, height = cam.image_size
    fh, fw = fm.grid.shape[:2]
    margin = min(abs(pd.depth), abs(pd.depth - max_depth))
    if pd.depth < 0:
        return margin
    return min(margin, abs(pd.u), abs(pd.u - width + 1), abs(pd.v), abs(pd.v - height + 1),
               abs(pd.u / fm.stride - fw + 1), abs(pd.v / fm.stride - fh + 1))


class TestOneProjection:
    """``project``, ``in_frustum`` and ``keypoint_validity`` all read
    ``project_points``; each agrees with ``oracle_project`` plus the explicit
    depth, image and feature-footprint bounds."""

    def _check(self, cam, world, max_depth, fm, exact):
        try:
            want = oracle_project(cam, world)
        except SingularProjectionError:
            want = None
        if want is None:
            with pytest.raises(SingularProjectionError):
                project(cam, world)
        else:
            got = project(cam, world)
            if exact:
                assert got.depth == want.depth
            else:
                assert got.depth == pytest.approx(want.depth, rel=1e-12, abs=1e-12)
            if want.depth > 0 and exact:
                assert (got.u, got.v) == (want.u, want.v)
            elif want.depth > 0:
                assert (got.u, got.v) == pytest.approx((want.u, want.v), rel=1e-9, abs=1e-6)
            else:
                assert np.isnan(got.u) and np.isnan(got.v)
        if not exact and _bound_margin(cam, want, max_depth, fm) < 1e-6:
            return  # rounding decides; the exact views test the bounds themselves
        inside = _expected_inside(cam, want, max_depth)
        assert in_frustum(cam, world, max_depth) is inside
        assert in_frustum(cam, world[None], max_depth).tolist() == [inside]
        fh, fw = fm.grid.shape[:2]
        footprint = inside and want.u / fm.stride <= fw - 1 and want.v / fm.stride <= fh - 1
        valid, fu, fv = keypoint_validity(cam, fm, world[None], max_depth)
        assert valid.tolist() == [footprint]
        if inside:
            assert (fu[0], fv[0]) == pytest.approx((want.u / fm.stride, want.v / fm.stride),
                                                   rel=1e-9, abs=1e-6)

    @staticmethod
    def _feature_map(draw):
        return FeatureMap(0, float(draw(st.sampled_from([1, 4, 8]))),
                          np.zeros((draw(st.integers(1, 100)), draw(st.integers(1, 100)), 1)))

    @PROPERTIES
    @given(general_views(), st.data())
    def test_general_pose(self, view, data):
        self._check(*view, self._feature_map(data.draw), exact=False)

    @PROPERTIES
    @given(exact_views(), st.data())
    def test_plane_border_and_max_depth(self, view, data):
        self._check(*view, self._feature_map(data.draw), exact=True)


class TestFrustumPointGrid:
    def test_depth_ladder(self):
        us, vs, rays, depths = frustum_rays(make_camera(), (4, 6), 10.0, 64)
        assert (us.shape, vs.shape, rays.shape, depths.shape) == ((6,), (4,), (4, 6, 3), (64,))
        assert depths[0] == pytest.approx(10.0 / 128)
        for k in range(1, 64):
            assert depths[k] == pytest.approx(k * 10.0 / 64)

    def test_reprojection_invariant(self):
        cam = make_camera(euler=(0.2, 0.5, -0.3), translation=(2, 0, 1))
        grid = oracle_frustum_point_grid(cam, (5, 7), 8.0, 16)
        worst_px = 0.0
        worst_d = 0.0
        for i in range(5):
            for j in range(7):
                for k in range(16):
                    pd = project(cam, grid.points[i, j, k])
                    worst_px = max(worst_px, abs(pd.u - grid.pixel_u[j]), abs(pd.v - grid.pixel_v[i]))
                    worst_d = max(worst_d, abs(pd.depth - grid.depths[k]))
        assert worst_px < 1e-6
        assert worst_d < 1e-9

    def test_nonnegative_camera_depth(self):
        grid = oracle_frustum_point_grid(make_camera(), (3, 3), 10.0, 8)
        assert np.all(grid.points[..., 2] > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            frustum_rays(make_camera(), (2, 2), 10.0, 0)
        with pytest.raises(ValueError):
            frustum_rays(make_camera(), (2, 2), -1.0, 4)


class TestStandardize:
    @pytest.mark.parametrize("index, value", [(0, np.nan), (1, np.inf), (2, -np.inf), (3, np.nan)])
    def test_rejects_non_finite_target(self, index, value):
        target = [500.0, 500.0, 15.0, 20.0]
        target[index] = value
        with pytest.raises(ValueError) as info:
            standardize_intrinsics(np.zeros((40, 30, 3)), make_camera(size=(30, 40)), target)
        assert str(info.value) == f"target intrinsics must be finite and fu, fv > 0, got {target}"

    def test_identity_warp(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, (40, 30, 3))
        cam = make_camera(size=(30, 40))
        warped, new_cam = standardize_intrinsics(img, cam, cam.intrinsics)
        assert np.max(np.abs(warped - img)) < 1e-9
        assert np.array_equal(new_cam.intrinsics, cam.intrinsics)

    def test_default_intrinsics_value(self):
        img = np.zeros((8, 8))
        cam = CameraModel([600.0, 600.0, 4.0, 4.0], np.eye(4), (8, 8))
        _, new_cam = standardize_intrinsics(img, cam)
        assert tuple(new_cam.intrinsics) == (432.579, 539.857, 256.0, 256.0)

    def test_extrinsics_preserved(self):
        ext = np.eye(4)
        ext[:3, 3] = [1, 2, 3]
        cam = CameraModel([500.0, 500.0, 32.0, 32.0], ext, (64, 64))
        _, new_cam = standardize_intrinsics(np.zeros((64, 64)), cam)
        assert np.array_equal(new_cam.extrinsics, ext)

    def test_warp_then_project_consistency(self):
        # pixel under the standardized model == affine image of the original pixel
        cam = make_camera(euler=(0.1, -0.2, 0.6), translation=(0.3, 0.1, 0))
        std = (500.0, 450.0, 250.0, 240.0)
        _, std_cam = standardize_intrinsics(np.zeros((512, 512)), cam, std)
        fu_s, fv_s, cu_s, cv_s = cam.intrinsics
        fu_t, fv_t, cu_t, cv_t = std
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            world = unproject(cam, PixelDepth(rng.uniform(0, 511), rng.uniform(0, 511),
                                              rng.uniform(0.2, 9)))
            orig = project(cam, world)
            via_std = project(std_cam, world)
            # invert the sampling map: output location of the original pixel
            u_expected = (orig.u - cu_s) / fu_s * fu_t + cu_t
            v_expected = (orig.v - cv_s) / fv_s * fv_t + cv_t
            worst = max(worst, abs(via_std.u - u_expected), abs(via_std.v - v_expected))
        assert worst < 0.5

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 255, (32, 32))
        cam = CameraModel([480.0, 520.0, 16.0, 16.0], np.eye(4), (32, 32))
        once, cam1 = standardize_intrinsics(img, cam)
        twice, _ = standardize_intrinsics(once, cam1)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_zero_padding_outside_source(self):
        img = np.full((16, 16), 200.0)
        cam = CameraModel([100.0, 100.0, 8.0, 8.0], np.eye(4), (16, 16))
        warped, _ = standardize_intrinsics(img, cam, (50.0, 50.0, 8.0, 8.0))
        # wider virtual FOV: the border must include unpainted zeros
        assert warped[0, 0] == 0.0
        assert warped[8, 8] == pytest.approx(200.0)

    def test_bilinear_warp_midpoint(self):
        img = np.array([[0.0, 2.0], [4.0, 6.0]])
        out = bilinear_warp(img, np.array([[0.5]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(3.0)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSamplerOracle:
    """The broadcasting sampler against full-size coordinate arrays."""

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    @pytest.mark.parametrize("channels", [None, 3])
    @pytest.mark.parametrize("zoom", [0.6, 1.0, 1.7])
    def test_standardize_bitwise_equal(self, dtype, channels, zoom):
        rng = np.random.default_rng([int(10 * zoom), channels or 1])
        height, width = 37, 52
        shape = (height, width) if channels is None else (height, width, channels)
        if dtype is np.uint8:
            img = rng.integers(0, 256, shape).astype(np.uint8)
        else:
            img = rng.normal(size=shape) * 40.0
        cam = CameraModel([60.0, 55.0, 25.3, 18.1], np.eye(4), (width, height))
        std = (60.0 * zoom, 55.0 * zoom * 1.1, 26.0, 17.5)
        warped, _ = standardize_intrinsics(img, cam, std)
        expected = oracle_standardize_warp(img, cam, std)
        assert bitwise_equal(warped, expected)
        if zoom < 1.0:  # wider virtual field of view: zero-filled border
            assert np.all(warped[0] == 0.0) and np.all(warped[:, 0] == 0.0)
            assert np.any(warped != 0.0)

    def test_scattered_points_bitwise_equal(self):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(9, 14, 5))
        u = rng.uniform(-1.0, 14.0, 200)
        v = rng.uniform(-1.0, 9.0, 200)
        u[:3] = [0.0, 13.0, 13.0]  # exact borders of the footprint
        v[:3] = [0.0, 8.0, 0.0]
        assert bitwise_equal(bilinear_warp(img, u, v), oracle_bilinear_warp(img, u, v))

    def test_broadcast_rows_match_meshgrid(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (20, 30, 3)).astype(np.uint8)
        u = rng.uniform(-2.0, 31.0, (1, 25))
        v = rng.uniform(-2.0, 21.0, (16, 1))
        uu, vv = np.broadcast_arrays(u, v)
        out = bilinear_warp(img, u, v)
        assert out.shape == (16, 25, 3) and out.dtype == np.float64
        assert bitwise_equal(out, bilinear_warp(img, uu.copy(), vv.copy()))
        assert bitwise_equal(out, oracle_bilinear_warp(img, uu, vv))


    @pytest.mark.parametrize("std", [(60.0, 55.0, -600.0, 17.5), (60.0, 55.0, 26.0, 500.0)],
                             ids=["no-column", "no-row"])
    def test_no_valid_row_or_column_gives_zeros(self, std):
        img = np.random.default_rng(10).integers(0, 256, (37, 52, 3)).astype(np.uint8)
        cam = CameraModel([60.0, 55.0, 25.3, 18.1], np.eye(4), (52, 37))
        warped, _ = standardize_intrinsics(img, cam, std)
        assert not warped.any()
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))

    def test_last_valid_column_at_the_border(self):
        # src_u = j + 3 exactly: column W-4 samples u = W-1, columns W-3.. are outside
        img = np.random.default_rng(11).integers(0, 256, (20, 30, 3)).astype(np.uint8)
        cam = CameraModel([50.0, 50.0, 10.0, 10.0], np.eye(4), (30, 20))
        std = (50.0, 50.0, 7.0, 10.0)
        warped, _ = standardize_intrinsics(img, cam, std)
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))
        assert np.array_equal(warped[:, 26], img[:, 29]) and not warped[:, 27:].any()

    @pytest.mark.parametrize("std", [(1.0, 1.0, 0.0, 0.0), (2.0, 0.5, 0.0, 0.0),
                                     (1.0, 1.0, 0.5, 0.0)], ids=["identity", "zoom", "shifted"])
    def test_one_by_one_image(self, std):
        img = np.array([[[7, 200, 31]]], dtype=np.uint8)
        cam = CameraModel([1.0, 1.0, 0.0, 0.0], np.eye(4), (1, 1))
        warped, _ = standardize_intrinsics(img, cam, std)
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))
        expected = [[[0.0, 0.0, 0.0]]] if std[2] else [[[7.0, 200.0, 31.0]]]
        assert np.array_equal(warped, expected)

    @pytest.mark.parametrize("channels", [None, 3], ids=["grey", "rgb"])
    def test_out_receives_the_samples(self, channels):
        rng = np.random.default_rng(16)
        img = rng.integers(0, 256, (20, 30) if channels is None else (20, 30, channels))
        u, v = rng.uniform(-2.0, 31.0, (1, 25)), rng.uniform(-2.0, 21.0, (16, 1))
        canvas = np.zeros((18, 28) if channels is None else (18, 28, channels))
        got = bilinear_warp(img.astype(np.uint8), u, v, out=canvas[1:-1, 2:-1])
        assert np.shares_memory(got, canvas)
        assert bitwise_equal(canvas[1:-1, 2:-1].copy(), bilinear_warp(img.astype(np.uint8), u, v))
        canvas[1:-1, 2:-1] = 0.0
        assert not canvas.any()

    @pytest.mark.parametrize("std", [(60.0, 55.0, -600.0, 500.0), (6.0, 5.5, -60.0, -60.0)],
                             ids=["shifted-away", "far-corner"])
    def test_map_entirely_outside_gives_zeros(self, std):
        img = np.random.default_rng(13).integers(0, 256, (37, 52, 3)).astype(np.uint8)
        cam = CameraModel([60.0, 55.0, 25.3, 18.1], np.eye(4), (52, 37))
        warped, _ = standardize_intrinsics(img, cam, std)
        assert warped.shape == (37, 52, 3) and warped.dtype == np.float64 and not warped.any()
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))

    @pytest.mark.parametrize("std, keep", [((10.0, 300.0, 10.0, 10.0), (slice(None), 10)),
                                           ((300.0, 10.0, 10.0, 10.0), (10, slice(None)))],
                             ids=["column", "row"])
    def test_single_valid_row_or_column(self, std, keep):
        # a 30-pixel source step: only output index 10 maps inside, onto source pixel 10
        img = np.random.default_rng(14).normal(size=(21, 21, 2)) * 40.0
        cam = CameraModel([300.0, 300.0, 10.0, 10.0], np.eye(4), (21, 21))
        warped, _ = standardize_intrinsics(img, cam, std)
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))
        assert np.array_equal(warped[keep], img[keep])
        warped[keep] = 0.0
        assert not warped.any()

    @pytest.mark.parametrize("channels", [None, 3], ids=["grey", "rgb"])
    @pytest.mark.parametrize("std, out, src", [
        ((50.0, 50.0, 13.0, 4.0), np.s_[:14, 3:], np.s_[6:, :27]),
        ((50.0, 50.0, 7.0, 16.0), np.s_[6:, :27], np.s_[:14, 3:]),
        ((50.0, 50.0, 10.0, 10.0), np.s_[:, :], np.s_[:, :]),
    ], ids=["top-right", "bottom-left", "whole"])
    def test_rectangle_touching_the_border(self, channels, std, out, src):
        # integer shifts of a (20, 30) image: src = index - c_std + 10
        shape = (20, 30) if channels is None else (20, 30, channels)
        img = np.random.default_rng(15).normal(size=shape) * 40.0
        cam = CameraModel([50.0, 50.0, 10.0, 10.0], np.eye(4), (30, 20))
        warped, _ = standardize_intrinsics(img, cam, std)
        assert warped.shape == shape and bitwise_equal(warped, oracle_standardize_warp(img, cam, std))
        assert np.array_equal(warped[out], img[src])
        warped[out] = 0.0
        assert not warped.any()

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_grey_image_rows_then_columns(self, dtype):
        rng = np.random.default_rng(12)
        img = (rng.integers(0, 256, (41, 23)) if dtype is np.uint8
               else rng.normal(size=(41, 23)) * 40.0).astype(dtype)
        cam = CameraModel([30.0, 44.0, 11.7, 19.2], np.eye(4), (23, 41))
        std = (27.0, 51.0, 12.5, 18.0)
        warped, _ = standardize_intrinsics(img, cam, std)
        assert warped.shape == (41, 23) and warped.dtype == np.float64
        assert bitwise_equal(warped, oracle_standardize_warp(img, cam, std))
        u = 30.0 * (np.arange(23.0) - 12.5) / 27.0 + 11.7
        v = 44.0 * (np.arange(41.0) - 18.0) / 51.0 + 19.2
        uu, vv = np.meshgrid(u, v)
        assert bitwise_equal(warped, bilinear_warp(img, uu.ravel(), vv.ravel()).reshape(41, 23))


class TestCameraJson:
    def test_round_trip(self, tmp_path):
        cam = make_camera(euler=(0.4, 0.2, -1.0), translation=(1, 2, 3), size=(640, 480))
        path = tmp_path / "cam.json"
        save_camera_json(path, cam)
        loaded = load_camera_json(path)
        assert np.allclose(loaded.intrinsics, cam.intrinsics)
        assert np.allclose(loaded.extrinsics, cam.extrinsics)
        assert loaded.image_size == cam.image_size

    def test_dict_schema(self):
        cam = make_camera()
        data = camera_to_dict(cam)
        assert set(data) == {"intrinsics", "extrinsics", "width", "height"}
        assert len(data["extrinsics"]) == 16
        again = camera_from_dict(data)
        assert np.allclose(again.extrinsics, cam.extrinsics)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            camera_from_dict({"intrinsics": [1, 1, 0, 0]})

    @pytest.mark.parametrize("field, value, kind", [
        ("intrinsics", ["500", "480", "32", "30"], "a list of numbers"),
        ("intrinsics", [500.0, True, 32.0, 30.0], "a list of numbers"),
        ("extrinsics", np.eye(4).tolist(), "a list of numbers"),
        ("extrinsics", [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, "1"], "a list of numbers"),
        ("width", 64.9, "an integer"),
        ("width", "64", "an integer"),
        ("height", True, "an integer"),
        ("height", 64.0, "an integer"),
    ])
    def test_coerced_field_rejected(self, field, value, kind):
        data = camera_to_dict(make_camera(size=(64, 64)))
        data[field] = value
        message = f"malformed camera record: {field} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            camera_from_dict(data)


class TestRasters:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (11, 7), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, (5, 9, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            read_ppm(path)
