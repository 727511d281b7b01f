"""The pairwise IoU engine against the clipping and hull oracles, and property
tests of its broad phase, of its batch independence and of the IoU."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbox3d.geometry import (
    Box9DoF,
    _pair_vertices,
    box_iou,
    euler_to_rotation,
    intersection_volume,
    paired_iou,
    pairwise_iou,
    rotation_to_euler,
    transform_box,
)
from oracles import (
    oracle_hull_volume,
    oracle_intersection_volume,
    oracle_iou,
    oracle_pair_vertices,
)

PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None)


def random_pair(rng, center_scale):
    return [
        Box9DoF(rng.uniform(-center_scale, center_scale, 3), rng.uniform(0.2, 1.5, 3),
                rng.uniform(-np.pi, np.pi, 3))
        for _ in range(2)
    ]


def rigid(euler, shift):
    t = np.eye(4)
    t[:3, :3] = euler_to_rotation(euler)
    t[:3, 3] = shift
    return t


UNIT = Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0])
MOVE = rigid([0.4, -0.3, 1.1], [0.5, -1.0, 2.0])
GIMBAL = np.pi / 2 - 1e-7
TURN = np.array([0.2, -0.4, 0.3])


def turned(offset, size=(1, 1, 1)):
    """A box oriented by ``TURN`` whose center is ``offset`` in that frame."""
    return Box9DoF(euler_to_rotation(TURN) @ np.asarray(offset, dtype=float), size, TURN)


TURNED_UNIT = turned([0, 0, 0])

FIXED_PAIRS = {
    "identical": (Box9DoF([1, -1, 2], [0.8, 1.2, 0.5], [0.2, -0.1, 0.7]),) * 2,
    "face_touching": (UNIT, Box9DoF([1, 0, 0], [1, 1, 1], [0, 0, 0])),
    "edge_touching": (UNIT, Box9DoF([1, 1, 0], [1, 1, 1], [0, 0, 0])),
    "vertex_touching": (UNIT, Box9DoF([1, 1, 1], [1, 1, 1], [0, 0, 0])),
    "face_touching_moved": (transform_box(UNIT, MOVE),
                            transform_box(Box9DoF([1, 0.3, 0.2], [1, 1, 1], [0, 0, 0]), MOVE)),
    "edge_touching_moved": (transform_box(UNIT, MOVE),
                            transform_box(Box9DoF([1, 1, 0.1], [1, 1, 1], [0, 0, 0]), MOVE)),
    "nested": (Box9DoF([0, 0, 0], [2, 2, 2], [0, 0, 0]),
               Box9DoF([0, 0, 0.2], [1, 1, 1], [0.3, 0.2, 0.1])),
    "coplanar_faces": (UNIT, Box9DoF([0, 0.5, 0], [1, 1, 1], [0, 0, 0])),
    "coplanar_faces_moved": (transform_box(UNIT, MOVE),
                             transform_box(Box9DoF([0.2, 0.5, 0], [1.4, 1, 1], [0, 0, 0]), MOVE)),
    "yaw_45": (UNIT, Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, np.pi / 4])),
    "yaw_45_offset": (UNIT, Box9DoF([0.3, 0.2, 0.1], [1, 1, 1], [0, 0, np.pi / 4])),
    "near_gimbal": (Box9DoF([0.1, 0, 0], [0.5, 0.9, 1.3], [0.4, GIMBAL, -1.2]),
                    Box9DoF([0, 0.1, 0], [0.6, 0.8, 1.2], [0.3, GIMBAL, -1.0])),
    "near_gimbal_axis": (Box9DoF([0, 0, 0], [0.5, 0.9, 1.3], [GIMBAL, 0.0, 0.5]),
                         Box9DoF([0.1, 0, 0.05], [0.5, 0.9, 1.3], [0.0, -GIMBAL, 0.2])),
    "ratio_100_cross": (Box9DoF([0, 0, 0], [10, 0.1, 1], [0, 0, 0]),
                        Box9DoF([0, 0, 0], [0.1, 10, 1], [0, 0, 0.3])),
    "ratio_100_sliver": (Box9DoF([0, 0, 0], [10, 1, 1], [0.1, 0.2, 0.3]),
                         Box9DoF([0.5, 0.2, 0], [0.1, 0.1, 0.1], [0.5, -0.4, 1.0])),
    "face_touching_yaw": (Box9DoF([0, 0, 0], [1, 1, 1], [0, 0, 0.3]),
                          Box9DoF([np.cos(0.3), np.sin(0.3), 0], [1, 1, 1], [0, 0, 0.3])),
    "face_touching_turned": (TURNED_UNIT, turned([1, 0.3, -0.2])),
    "edge_touching_turned": (TURNED_UNIT, turned([0, 1, 1], [0.7, 1, 1])),
    "vertex_touching_turned": (TURNED_UNIT, turned([1, -1, 1])),
    "shared_face_plane_turned": (TURNED_UNIT, turned([0, 0.3, 0.2], [1, 0.8, 0.6])),
}
TOUCHING = ("face_touching", "edge_touching", "vertex_touching", "face_touching_yaw",
            "face_touching_turned", "edge_touching_turned", "vertex_touching_turned")


class TestAgainstClippingOracle:
    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(20240)
        worst = 0.0
        overlapping = 0
        for i in range(500):
            a, b = random_pair(rng, 0.4 if i % 2 else 1.0)
            expected = oracle_iou(a, b)
            worst = max(worst, abs(pairwise_iou([a], [b])[0, 0] - expected))
            overlapping += expected > 0.0
        assert worst <= 1e-12
        assert overlapping > 300

    @pytest.mark.parametrize("name", sorted(FIXED_PAIRS))
    def test_fixed_cases(self, name):
        a, b = FIXED_PAIRS[name]
        assert abs(pairwise_iou([a], [b])[0, 0] - oracle_iou(a, b)) <= 1e-12
        assert abs(intersection_volume(a, b) - oracle_intersection_volume(a, b)) <= 1e-12

    def test_touching_is_zero_and_identical_is_one(self):
        for name in TOUCHING:
            assert box_iou(*FIXED_PAIRS[name]) == 0.0
            assert intersection_volume(*FIXED_PAIRS[name]) == 0.0
        assert box_iou(*FIXED_PAIRS["identical"]) == pytest.approx(1.0, abs=1e-12)

    def test_box_iou_is_bitwise_the_matrix_entry(self):
        rng = np.random.default_rng(5)
        pairs = [random_pair(rng, 0.6) for _ in range(40)] + list(FIXED_PAIRS.values())
        for a, b in pairs:
            assert box_iou(a, b) == pairwise_iou([a], [b])[0, 0]

    def test_matrix_matches_pairs_and_arrays(self):
        rng = np.random.default_rng(6)
        boxes_a = [b for _ in range(4) for b in random_pair(rng, 0.8)]
        boxes_b = boxes_a[:3] + [b for _ in range(2) for b in random_pair(rng, 0.8)]
        matrix = pairwise_iou(boxes_a, boxes_b)
        assert matrix.shape == (8, 7)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert abs(matrix[i, j] - oracle_iou(a, b)) <= 1e-12
        params = np.stack([b.to_params() for b in boxes_a]), np.stack([b.to_params() for b in boxes_b])
        assert np.array_equal(pairwise_iou(*params), matrix)
        self_matrix = pairwise_iou(boxes_a, boxes_a)
        assert np.array_equal(self_matrix, self_matrix.T)
        assert np.max(np.abs(self_matrix - pairwise_iou(boxes_a, list(boxes_a)))) <= 1e-12

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pairwise_iou(np.zeros((2, 8)), np.zeros((1, 9)))
        with pytest.raises(ValueError):
            pairwise_iou(np.zeros(9), np.zeros((1, 9)))


# --- property tests -------------------------------------------------------

coords = st.floats(-1.0, 1.0)
extents = st.floats(0.05, 2.0)
angles = st.floats(-np.pi, np.pi)


@st.composite
def boxes(draw):
    return Box9DoF([draw(coords) for _ in range(3)], [draw(extents) for _ in range(3)],
                   [draw(angles) for _ in range(3)])


@st.composite
def near_touching_pairs(draw):
    """A box and a second one pushed along one of its face normals to about
    the distance at which their projections on that normal meet."""
    a = draw(boxes())
    b = draw(boxes())
    if draw(st.booleans()):  # share the orientation, so that faces can touch flat
        b = Box9DoF(b.center, b.size, a.euler)
    axis = draw(st.integers(0, 2))
    normal = euler_to_rotation(a.euler)[:, axis]
    reach = 0.5 * a.size[axis] + 0.5 * np.abs(euler_to_rotation(b.euler).T @ normal) @ b.size
    scale = draw(st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9])) * draw(st.floats(0.9, 1.1))
    lateral = b.center - a.center
    lateral -= (lateral @ normal) * normal
    return a, Box9DoF(a.center + scale * reach * normal + 0.5 * lateral, b.size, b.euler)


@st.composite
def gimbal_pairs(draw):
    """Two overlapping boxes whose pitch is within 1e-7 of +-pi/2."""
    def box():
        pitch = draw(st.sampled_from([1.0, -1.0])) * (np.pi / 2 - draw(st.floats(0.0, 1e-7)))
        return Box9DoF([draw(st.floats(-0.3, 0.3)) for _ in range(3)],
                       [draw(extents) for _ in range(3)], [draw(angles), pitch, draw(angles)])
    return box(), box()


@st.composite
def sliver_pairs(draw):
    """Two overlapping boxes whose longest extent is 100 times their shortest."""
    def box():
        long = draw(st.floats(0.5, 2.0))
        size = draw(st.permutations([long, long / 100, draw(st.floats(long / 100, long))]))
        return Box9DoF([draw(st.floats(-0.2, 0.2)) for _ in range(3)], size,
                       [draw(angles) for _ in range(3)])
    return box(), box()


def broad_phase_rejects(a, b):
    return len(_pair_vertices(a.to_params()[None], b.to_params()[None])[0]) == 0


class TestProperties:
    @PROPERTIES
    @given(st.one_of(st.tuples(boxes(), boxes()), near_touching_pairs()))
    def test_broad_phase_never_rejects_an_overlap(self, pair):
        a, b = pair
        if broad_phase_rejects(a, b):
            assert oracle_intersection_volume(a, b) <= 1e-12
            assert pairwise_iou([a], [b])[0, 0] == 0.0

    @PROPERTIES
    @given(st.one_of(near_touching_pairs(), gimbal_pairs(), sliver_pairs()))
    def test_volume_matches_hull_oracle(self, pair):
        assert abs(intersection_volume(*pair) - oracle_hull_volume(*pair)) <= 1e-12

    @PROPERTIES
    @given(st.one_of(st.tuples(boxes(), boxes()), near_touching_pairs(), gimbal_pairs()),
           st.lists(boxes(), max_size=3), st.randoms(use_true_random=False))
    def test_pair_bits_do_not_depend_on_the_batch(self, pair, others, rnd):
        a, b = pair
        alone = box_iou(a, b)
        in_matrix = pairwise_iou(others + [a], [b] + others)[len(others), 0]
        batch = [pair, (UNIT, Box9DoF([5, 0, 0], [1, 1, 1], [0, 0, 0])),  # disjoint
                 *(FIXED_PAIRS[name] for name in TOUCHING + ("nested", "identical")),
                 *((box, a) for box in others)]
        rnd.shuffle(batch)
        pooled = paired_iou([p[0] for p in batch], [p[1] for p in batch])
        at = next(i for i, p in enumerate(batch) if p is pair)
        assert np.float64(alone).tobytes() == in_matrix.tobytes() == pooled[at].tobytes()

    @PROPERTIES
    @given(st.lists(boxes(), max_size=5), st.lists(boxes(), max_size=5))
    def test_symmetric(self, boxes_a, boxes_b):
        ab = pairwise_iou(boxes_a, boxes_b)
        assert ab.shape == (len(boxes_a), len(boxes_b))
        assert np.all((ab >= 0.0) & (ab <= 1.0))
        assert np.max(np.abs(ab - pairwise_iou(boxes_b, boxes_a).T), initial=0.0) <= 1e-12

    @PROPERTIES
    @given(st.lists(boxes(), min_size=1, max_size=5))
    def test_unit_diagonal(self, boxes_a):
        assert np.max(np.abs(np.diag(pairwise_iou(boxes_a, list(boxes_a))) - 1.0)) <= 1e-12
        assert np.all(np.diag(pairwise_iou(boxes_a, boxes_a)) == 1.0)

    @PROPERTIES
    @given(boxes(), st.floats(0.1, 0.5), angles, st.floats(-1.0, 1.0))
    def test_nested_gives_volume_ratio(self, outer, shrink, yaw, slide):
        # a square-footprint inner box, turned about the outer's z axis and
        # slid along its axes, whose footprint disc stays inside
        rot = euler_to_rotation(outer.euler)
        side = shrink * min(outer.size[:2]) / np.sqrt(2)
        size = np.array([side, side, shrink * outer.size[2]])
        radius = 0.5 * side * np.sqrt(2)
        slack = np.array([0.5 * outer.size[0] - radius, 0.5 * outer.size[1] - radius,
                          0.5 * (outer.size[2] - size[2])])
        center = outer.center + rot @ (slide * slack * [1.0, -1.0, 0.5])
        inner = Box9DoF(center, size, rotation_to_euler(rot @ euler_to_rotation([0, 0, yaw])))
        ratio = inner.volume() / outer.volume()
        assert abs(pairwise_iou([outer], [inner])[0, 0] - ratio) <= 1e-12

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0)])
    def test_empty(self, n, m):
        rng = np.random.default_rng(1)
        a = [random_pair(rng, 1.0)[0] for _ in range(n)]
        b = [random_pair(rng, 1.0)[0] for _ in range(m)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pairwise_iou(a, b).shape == (n, m)
            assert pairwise_iou(np.zeros((n, 9)), np.zeros((m, 9))).shape == (n, m)

    def test_degenerate_warns_and_gives_zero(self):
        thin = Box9DoF([0, 0, 0], [1, 1, 1e-10], [0, 0, 0])
        with pytest.warns(RuntimeWarning):
            matrix = pairwise_iou([UNIT, thin], [thin, UNIT])
        assert matrix[0, 0] == 0.0 and matrix[1, 0] == 0.0 and matrix[1, 1] == 0.0
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
        pair = [UNIT, thin]
        with pytest.warns(RuntimeWarning):
            self_matrix = pairwise_iou(pair, pair)
        assert self_matrix.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        with pytest.warns(RuntimeWarning):
            assert box_iou(thin, thin) == 0.0


# --- the pair-last vertex enumeration against the pair-first oracle ---------


@st.composite
def overlapping_pairs(draw):
    """Two boxes at least 0.5 across whose centers are less than 0.25 apart:
    each contains the other's center."""
    def box(center):
        return Box9DoF(center, [draw(st.floats(0.5, 2.0)) for _ in range(3)],
                       [draw(angles) for _ in range(3)])
    a = box([draw(coords) for _ in range(3)])
    return a, box(a.center + [draw(st.floats(-0.14, 0.14)) for _ in range(3)])


def aligned(a, offset, size):
    """A box with a's orientation whose center is ``offset`` in a's frame."""
    return Box9DoF(a.center + euler_to_rotation(a.euler) @ np.asarray(offset), size, a.euler)


@st.composite
def face_sharing_pairs(draw):
    """A box and a second one of its orientation flush against one of its faces."""
    a = draw(boxes())
    axis = draw(st.integers(0, 2))
    size = [draw(extents) for _ in range(3)]
    offset = [draw(st.floats(-0.3, 0.3)) for _ in range(3)]
    offset[axis] = draw(st.sampled_from([-0.5, 0.5])) * (a.size[axis] + size[axis])
    return a, aligned(a, offset, size)


@st.composite
def nested_pairs(draw):
    """A box and a smaller one of its orientation inside it, in either order."""
    outer = draw(boxes())
    size = draw(st.floats(0.1, 0.9)) * outer.size
    offset = [draw(st.floats(-1.0, 1.0)) * 0.5 * gap for gap in outer.size - size]
    pair = outer, aligned(outer, offset, size)
    return pair[::-1] if draw(st.booleans()) else pair


@st.composite
def coplanar_pairs(draw):
    """Two boxes of one orientation and one extent along an axis, shifted across it."""
    a = draw(boxes())
    axis = draw(st.integers(0, 2))
    size = [draw(extents) for _ in range(3)]
    size[axis] = a.size[axis]
    offset = [draw(st.floats(-0.5, 0.5)) * extent for extent in a.size]
    offset[axis] = 0.0
    return a, aligned(a, offset, size)


@st.composite
def near_parallel_pairs(draw):
    """Two overlapping boxes whose Euler angles differ by at most 1e-13."""
    a, b = draw(overlapping_pairs())
    tilt = [draw(st.floats(-1e-13, 1e-13)) for _ in range(3)]
    return a, Box9DoF(b.center, b.size, a.euler + tilt)


PAIR_KINDS = {"overlapping": overlapping_pairs(), "face_sharing": face_sharing_pairs(),
              "nested": nested_pairs(), "coplanar": coplanar_pairs(),
              "near_parallel": near_parallel_pairs()}
FAR = (UNIT, Box9DoF([5, 0, 0], [1, 1, 1], [0, 0, 0]))  # the spheres reject it
# the spheres keep it, the separating axes reject it
SLANTED = (UNIT, Box9DoF([1.2, 1.2, 0], [1, 1, 1], [0, 0, np.pi / 4]))


def same_bytes(x, y):
    return (x.shape == y.shape and x.dtype == y.dtype
            and np.ascontiguousarray(x).tobytes() == y.tobytes())


def assert_vertices_match_oracle(pairs):
    """Kept indices, t, rel, half extents, points and mask all byte-equal."""
    pa = np.array([a.to_params() for a, _ in pairs]).reshape(-1, 9)
    pb = np.array([b.to_params() for _, b in pairs]).reshape(-1, 9)
    got, expected = _pair_vertices(pa, pb), oracle_pair_vertices(pa, pb)
    assert same_bytes(got[0], expected[0])
    if len(expected[0]) == 0:
        assert all(x is None for x in got[1:])
    else:
        assert all(same_bytes(x, y) for x, y in zip(got[1:], expected[1:]))
    return expected


class TestPairLastOracle:
    @pytest.mark.parametrize("kind", sorted(PAIR_KINDS))
    @PROPERTIES
    @given(data=st.data())
    def test_batch_matches_pair_first_oracle(self, kind, data):
        drawn = data.draw(st.lists(PAIR_KINDS[kind], min_size=1, max_size=6))
        live, _, rel, *_ = assert_vertices_match_oracle(
            data.draw(st.permutations(drawn + [FAR, SLANTED])))
        if kind in ("overlapping", "nested", "near_parallel"):
            assert len(live) == len(drawn)
        if kind == "near_parallel":
            assert np.max(np.abs(rel - np.eye(3))) <= 1e-12

    @PROPERTIES
    @given(st.one_of(*PAIR_KINDS.values()))
    def test_one_live_pair(self, pair):
        live = assert_vertices_match_oracle([FAR, pair, SLANTED])[0]
        assert len(live) <= 1

    @pytest.mark.parametrize("pairs", [[FAR], [SLANTED], [FAR, SLANTED, FAR], []],
                             ids=["far", "slanted", "mixed", "empty"])
    def test_no_live_pair(self, pairs):
        assert len(assert_vertices_match_oracle(pairs)[0]) == 0

    def test_fixed_pairs(self):
        live = assert_vertices_match_oracle(list(FIXED_PAIRS.values()))[0]
        assert len(live) > len(FIXED_PAIRS) // 2
