"""Geometry tests: rotations, corners, cuboid symmetries, Gaussian form,
exact IoU against a Monte-Carlo oracle, and NMS against brute force."""

import itertools

import numpy as np
import pytest

from mvbox3d.geometry import (
    CORNER_OFFSETS,
    Box9DoF,
    Detection,
    box_corners,
    box_iou,
    box_to_gaussian,
    corner_permutation_table,
    euler_to_rotation,
    intersection_volume,
    nms,
    reparameterize_box,
    rotation_derivatives,
    rotation_to_euler,
    signed_permutations,
    transform_box,
)


def random_boxes(rng, n, center_scale=2.0):
    boxes = []
    for _ in range(n):
        boxes.append(
            Box9DoF(
                rng.uniform(-center_scale, center_scale, 3),
                rng.uniform(0.3, 1.5, 3),
                rng.uniform(-np.pi, np.pi, 3) * np.array([0.3, 0.3, 1.0]),
            )
        )
    return boxes


def sorted_corners(box):
    c = box_corners(box)
    return c[np.lexsort((c[:, 2], c[:, 1], c[:, 0]))]


def monte_carlo_iou(a, b, n_samples, seed):
    """Independent IoU oracle: uniform samples inside box a."""
    rng = np.random.default_rng(seed)
    rot_a = euler_to_rotation(a.euler)
    rot_b = euler_to_rotation(b.euler)
    local = (rng.uniform(0, 1, (n_samples, 3)) - 0.5) * a.size
    world = local @ rot_a.T + a.center
    in_b = np.all(np.abs((world - b.center) @ rot_b) <= b.size / 2, axis=1)
    inter = a.volume() * in_b.mean()
    union = a.volume() + b.volume() - inter
    return inter / union


class TestBox9DoF:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Box9DoF([0, 0, 0], [1, 0, 1], [0, 0, 0])

    def test_nonfinite_euler(self):
        with pytest.raises(ValueError):
            Box9DoF([0, 0, 0], [1, 1, 1], [0, np.nan, 0])

    def test_params_round_trip(self):
        box = Box9DoF([1, 2, 3], [4, 5, 6], [0.1, 0.2, 0.3])
        again = Box9DoF.from_params(box.to_params())
        assert np.array_equal(again.center, box.center)
        assert np.array_equal(again.size, box.size)
        assert np.array_equal(again.euler, box.euler)

    def test_detection_score_range(self):
        box = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        with pytest.raises(ValueError):
            Detection(box, 1.5, 0)


class TestEulerRotation:
    def test_identity(self):
        assert np.allclose(euler_to_rotation([0, 0, 0]), np.eye(3))

    def test_quarter_turn_yaw(self):
        rot = euler_to_rotation([0, 0, np.pi / 2])
        assert np.allclose(rot @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_against_hand_composition(self):
        # independently compose the three single-axis matrices
        roll, pitch, yaw = 0.3, -0.7, 1.1
        cr, sr = np.cos(roll), np.sin(roll)
        cp, sp = np.cos(pitch), np.sin(pitch)
        cy, sy = np.cos(yaw), np.sin(yaw)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        expected = rz @ ry @ rx
        rot = euler_to_rotation([roll, pitch, yaw])
        assert np.allclose(rot, expected, atol=1e-15)
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            euler_to_rotation([np.inf, 0, 0])

    def test_round_trip_generic(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            euler = rng.uniform(-np.pi, np.pi, 3) * np.array([1, 0.45, 1])
            rot = euler_to_rotation(euler)
            again = euler_to_rotation(rotation_to_euler(rot))
            assert np.max(np.abs(rot - again)) < 1e-12

    def test_round_trip_gimbal(self):
        for pitch in (np.pi / 2, -np.pi / 2):
            rot = euler_to_rotation([0.4, pitch, -1.2])
            again = euler_to_rotation(rotation_to_euler(rot))
            assert np.max(np.abs(rot - again)) < 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("offset", [1e-3, 1e-5, 1e-7, 0.0])
    def test_round_trip_near_gimbal(self, sign, offset):
        rot = euler_to_rotation([0.4, sign * (np.pi / 2 - offset), -1.2])
        again = euler_to_rotation(rotation_to_euler(rot))
        assert np.max(np.abs(rot - again)) < 1e-12

    def test_round_trip_near_gimbal_after_axis_swap(self):
        # a quarter roll turns pitch-free rotations near gimbal lock once the
        # local axes are permuted; the swapped entries are sums, not products
        rot = euler_to_rotation([np.pi / 2 - 1e-7, 0.0, 0.5])
        for perm in signed_permutations():
            other = rot @ perm * np.linalg.det(perm)
            again = euler_to_rotation(rotation_to_euler(other))
            assert np.max(np.abs(other - again)) < 1e-12

    def test_batched_matches_single(self):
        rng = np.random.default_rng(7)
        eulers = rng.uniform(-np.pi, np.pi, (4, 5, 3))
        rots, d_rots = rotation_derivatives(eulers)
        assert rots.shape == (4, 5, 3, 3)
        assert d_rots.shape == (4, 5, 3, 3, 3)
        for idx in np.ndindex(4, 5):
            rot, d_rot = rotation_derivatives(eulers[idx])
            assert np.max(np.abs(rots[idx] - rot)) < 1e-15
            assert np.max(np.abs(d_rots[idx] - d_rot)) < 1e-15

    def test_rotate_then_unrotate_corners(self):
        rng = np.random.default_rng(12)
        g = np.eye(4)
        g[:3, :3] = euler_to_rotation([0.8, -0.4, 2.2])
        g_inv = np.eye(4)
        g_inv[:3, :3] = g[:3, :3].T
        for box in random_boxes(rng, 10):
            back = transform_box(transform_box(box, g), g_inv)
            assert np.max(np.abs(box_corners(back) - box_corners(box))) < 1e-9

    def test_rotation_derivatives_match_fd(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            euler = rng.uniform(-1.2, 1.2, 3)
            _, d_rot = rotation_derivatives(euler)
            for k in range(3):
                ep = euler.copy()
                ep[k] += h
                em = euler.copy()
                em[k] -= h
                fd = (euler_to_rotation(ep) - euler_to_rotation(em)) / (2 * h)
                assert np.max(np.abs(d_rot[k] - fd)) < 1e-8


class TestCorners:
    def test_unit_cube(self):
        box = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        corners = box_corners(box)
        expected = {tuple(s) for s in CORNER_OFFSETS}
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_axis_aligned_scaling(self):
        box = Box9DoF([1, 2, 3], [2, 4, 6], [0, 0, 0])
        corners = box_corners(box)
        expected = {
            (1 + sx, 2 + sy, 3 + sz)
            for sx in (-1, 1)
            for sy in (-2, 2)
            for sz in (-3, 3)
        }
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_yawed_cube_same_set(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        b = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, np.pi / 2])
        assert np.allclose(sorted_corners(a), sorted_corners(b), atol=1e-12)

    def test_parameter_batch_matches_boxes(self):
        rng = np.random.default_rng(8)
        boxes = random_boxes(rng, 6)
        corners = box_corners(np.stack([b.to_params() for b in boxes]))
        assert corners.shape == (6, 8, 3)
        for box, c in zip(boxes, corners):
            assert np.max(np.abs(box_corners(box) - c)) < 1e-15

    def test_centroid_is_center(self):
        rng = np.random.default_rng(2)
        for box in random_boxes(rng, 20):
            assert np.max(np.abs(box_corners(box).mean(axis=0) - box.center)) < 1e-9


class TestSignedPermutations:
    def test_count_and_identity_first(self):
        perms = signed_permutations()
        assert len(perms) == 48
        assert np.array_equal(perms[0], np.eye(3))

    def test_all_orthogonal_and_distinct(self):
        perms = signed_permutations()
        seen = set()
        for p in perms:
            assert np.allclose(p.T @ p, np.eye(3))
            seen.add(tuple(p.astype(int).ravel()))
        assert len(seen) == 48

    def test_reparameterization_preserves_corner_set(self):
        rng = np.random.default_rng(3)
        for box in random_boxes(rng, 5):
            ref = sorted_corners(box)
            for perm in signed_permutations():
                other = reparameterize_box(box, perm)
                assert np.max(np.abs(sorted_corners(other) - ref)) < 1e-9

    def test_corner_permutation_table_matches_formal_construction(self):
        # the formal reparameterized corners c + (R P)(delta * |P^T s|) must
        # equal the original corners reindexed by the table
        rng = np.random.default_rng(4)
        box = random_boxes(rng, 1)[0]
        rot = euler_to_rotation(box.euler)
        corners = box_corners(box)
        table = corner_permutation_table()
        for g, perm in enumerate(signed_permutations()):
            size_p = np.abs(perm.T @ box.size)
            formal = box.center + (CORNER_OFFSETS * size_p) @ (rot @ perm).T
            assert np.max(np.abs(formal - corners[table[g]])) < 1e-9


class TestGaussianBox:
    def test_axis_aligned_diag(self):
        g = box_to_gaussian(Box9DoF([0, 0, 0], [2, 3, 4], [0, 0, 0]))
        assert np.allclose(g.sigma, np.diag([2.0, 3.0, 4.0]), atol=1e-12)

    def test_swap_symmetry(self):
        a = box_to_gaussian(Box9DoF([1, 1, 1], [2, 3, 4], [0, 0, 0]))
        b = box_to_gaussian(Box9DoF([1, 1, 1], [3, 2, 4], [0, 0, np.pi / 2]))
        assert np.max(np.abs(a.sigma - b.sigma)) < 1e-9

    def test_eigenvalues_are_sizes(self):
        rng = np.random.default_rng(5)
        for box in random_boxes(rng, 20):
            g = box_to_gaussian(box)
            assert np.max(np.abs(g.sigma - g.sigma.T)) < 1e-12
            eigvals = np.sort(np.linalg.eigvalsh(g.sigma))
            assert np.max(np.abs(eigvals - np.sort(box.size))) < 1e-9

    def test_invariant_under_all_reparameterizations(self):
        rng = np.random.default_rng(6)
        box = random_boxes(rng, 1)[0]
        ref = box_to_gaussian(box).sigma
        for perm in signed_permutations():
            other = box_to_gaussian(reparameterize_box(box, perm))
            assert np.max(np.abs(other.sigma - ref)) < 1e-9


class TestBoxIoU:
    def test_identical(self):
        box = Box9DoF([1, -1, 2], [0.8, 1.2, 0.5], [0.2, -0.1, 0.7])
        assert box_iou(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_axis_aligned_offset(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        b = Box9DoF([0.5, 0, 0], [1, 1, 1], [0, 0, 0])
        assert box_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_yawed_45_against_monte_carlo(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        b = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, np.pi / 4])
        exact = box_iou(a, b)
        mc = monte_carlo_iou(a, b, 1_000_000, seed=7)
        assert exact == pytest.approx(mc, abs=0.005)
        # analytic: intersection is the regular octagon 2(sqrt(2)-1)
        octagon = 2 * (np.sqrt(2) - 1)
        assert exact == pytest.approx(octagon / (2 - octagon), abs=1e-9)

    def test_disjoint_and_touching(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        assert box_iou(a, Box9DoF([5, 0, 0], [1, 1, 1], [0, 0, 0])) == 0.0
        assert box_iou(a, Box9DoF([1, 0, 0], [1, 1, 1], [0, 0, 0])) == pytest.approx(0.0, abs=1e-9)

    def test_nested(self):
        outer = Box9DoF([0, 0, 0], [2, 2, 2], [0, 0, 0])
        inner = Box9DoF([0, 0, 0.2], [1, 1, 1], [0.3, 0.2, 0.1])
        assert box_iou(outer, inner) == pytest.approx(1 / 8, abs=1e-9)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(8)
        boxes = random_boxes(rng, 12, center_scale=0.8)
        for a, b in itertools.combinations(boxes, 2):
            iab = box_iou(a, b)
            iba = box_iou(b, a)
            assert 0.0 <= iab <= 1.0
            assert iab == pytest.approx(iba, abs=1e-9)

    def test_random_pairs_against_monte_carlo(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            a, b = random_boxes(rng, 2, center_scale=0.5)
            exact = box_iou(a, b)
            mc = monte_carlo_iou(a, b, 400_000, seed=100 + i)
            assert exact == pytest.approx(mc, abs=0.01)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(10)
        a, b = random_boxes(rng, 2, center_scale=0.5)
        ref = box_iou(a, b)
        transform = np.eye(4)
        transform[:3, :3] = euler_to_rotation([0.5, -0.3, 1.9])
        transform[:3, 3] = [3.0, -2.0, 1.0]
        moved = box_iou(transform_box(a, transform), transform_box(b, transform))
        assert moved == pytest.approx(ref, abs=1e-7)

    def test_strictly_below_one_for_distinct_boxes(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        b = Box9DoF([0.01, 0, 0], [1, 1, 1], [0, 0, 0])
        assert box_iou(a, b) < 1.0

    def test_degenerate_warns(self):
        a = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        thin = Box9DoF([0, 0, 0], [1, 1, 1e-10], [0, 0, 0])
        with pytest.warns(RuntimeWarning):
            assert box_iou(a, thin) == 0.0

    def test_intersection_volume_identity(self):
        box = Box9DoF([0.3, -0.7, 1.0], [0.9, 1.4, 0.6], [0.4, 0.2, -1.1])
        assert intersection_volume(box, box) == pytest.approx(box.volume(), rel=1e-9)


def brute_force_nms(dets, threshold):
    kept = []
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    for i in order:
        ok = True
        for j in kept:
            if dets[j].category == dets[i].category and box_iou(dets[i].box, dets[j].box) > threshold:
                ok = False
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


class TestNms:
    def test_identical_pair(self):
        box = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 0)]
        kept = nms(dets, 0.4)
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_disjoint_kept(self):
        dets = [
            Detection(Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0]), 0.5, 0),
            Detection(Box9DoF([5, 0, 0], [1, 1, 1], [0, 0, 0]), 0.6, 0),
        ]
        assert len(nms(dets, 0.4)) == 2

    def test_categories_do_not_suppress(self):
        box = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
        dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 1)]
        assert len(nms(dets, 0.4)) == 2

    def test_chain_overlap_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dets = []
            for k in range(8):
                center = rng.uniform(-0.8, 0.8, 3)
                dets.append(
                    Detection(
                        Box9DoF(center, rng.uniform(0.8, 1.4, 3), [0, 0, rng.uniform(-1, 1)]),
                        float(np.round(rng.uniform(0, 1), 3)),
                        int(rng.integers(0, 2)),
                    )
                )
            kept = nms(dets, 0.5)
            expected = brute_force_nms(dets, 0.5)
            assert [id(d) for d in kept] == [id(d) for d in expected]
