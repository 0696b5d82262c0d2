"""Transforms, quaternion algebra, and pose interpolation."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from spincam.camera import world_to_camera_arrays
from spincam.errors import OutOfRange
from spincam.geometry import (
    MAX_COORDINATE,
    UNIT_NORM_TOL,
    PoseTrack,
    RobotGeometry,
    compose,
    first_failure,
    interpolate,
    invalid_pose_row,
    invert,
    quat_multiply,
    quat_rotate,
    slerp_arrays,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def random_quaternion(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_transform(rng) -> tuple[np.ndarray, np.ndarray]:
    return random_quaternion(rng), rng.uniform(-2.0, 2.0, 3)


def to_scipy(q) -> Rotation:
    return Rotation.from_quat(np.roll(q, -1))


def rotation_matrix(q) -> np.ndarray:
    """The 3x3 matrix of the rotation q, column j the rotated basis vector j."""
    return quat_rotate(q, np.eye(3)).T


def to_matrix(q, t) -> np.ndarray:
    """The 4x4 homogeneous matrix of the transform (q, t), rotation by scipy."""
    m = np.eye(4)
    m[:3, :3] = to_scipy(q).as_matrix()
    m[:3, 3] = t
    return m


def apply(transform, v) -> np.ndarray:
    q, t = transform
    return quat_rotate(q, v) + t


def yaw_quaternion(angle: float) -> np.ndarray:
    return np.array([math.cos(0.5 * angle), 0.0, 0.0, math.sin(0.5 * angle)])


def yaw(q) -> float:
    """Heading angle about +z (ZYX convention)."""
    return to_scipy(q).as_euler("ZYX")[0]


class TestQuaternion:
    def test_rotate_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_quaternion(rng)
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(quat_rotate(q, v), to_scipy(q).apply(v), atol=1e-12)

    def test_to_matrix_is_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rotation_matrix(random_quaternion(rng))
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_composes_rotations(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_quaternion(rng), random_quaternion(rng)
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(quat_rotate(quat_multiply(a, b), v),
                                       quat_rotate(a, quat_rotate(b, v)), atol=1e-12)

    def test_yaw_roundtrip(self):
        for angle in (-3.0, -0.5, 0.0, 1.0, 3.1):
            assert yaw(yaw_quaternion(angle)) == pytest.approx(angle, abs=1e-12)


class TestRigidTransform:
    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = random_transform(rng)
            q, translation = compose(*t, *invert(*t))
            np.testing.assert_allclose(translation, np.zeros(3), atol=1e-9)
            assert abs(q @ IDENTITY) == pytest.approx(1.0, abs=1e-9)

    def test_composition_is_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_transform(rng) for _ in range(3))
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(
                apply(compose(*compose(*a, *b), *c), v), apply(compose(*a, *compose(*b, *c)), v),
                atol=1e-9,
            )

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_transform(rng), random_transform(rng)
            ours = to_matrix(*compose(*a, *b))
            np.testing.assert_allclose(ours, to_matrix(*a) @ to_matrix(*b), atol=1e-12)


def neighbor_in_camera(ego, neighbor, camera) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor robot frame (q, t) in the ego camera frame, through the
    array kernels."""
    return compose(*world_to_camera_arrays(*ego, camera.rotation, camera.translation),
                   *neighbor)


class TestRelativeTransform:
    def test_identity_case(self, identity_camera):
        ego = IDENTITY, np.zeros(3)
        q, t = neighbor_in_camera(ego, ego, identity_camera)
        np.testing.assert_allclose(t, np.zeros(3), atol=1e-12)
        assert abs(q[0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_term_chain(self, identity_camera):
        ego = IDENTITY, np.zeros(3)
        neighbor = IDENTITY, np.array([1.0, 0.0, 0.0])
        _q, t = neighbor_in_camera(ego, neighbor, identity_camera)
        np.testing.assert_allclose(t, [1.0, 0.0, 0.0], atol=1e-12)

    def test_yawed_ego_matrix_oracle(self, identity_camera):
        # derived via independent 4x4 homogeneous-matrix chain with scipy rotations
        ego_rot = Rotation.from_euler("z", 90, degrees=True)
        ego = np.roll(ego_rot.as_quat(), 1), np.array([1.0, 2.0, 3.0])
        neighbor = IDENTITY, np.array([2.0, 2.0, 3.0])

        t_ego = np.eye(4)
        t_ego[:3, :3] = ego_rot.as_matrix()
        t_ego[:3, 3] = [1.0, 2.0, 3.0]
        t_nb = np.eye(4)
        t_nb[:3, 3] = [2.0, 2.0, 3.0]
        expected = np.linalg.inv(t_ego) @ t_nb

        rel = neighbor_in_camera(ego, neighbor, identity_camera)
        np.testing.assert_allclose(to_matrix(*rel), expected, atol=1e-12)

    def test_neighbor_equals_ego_for_random_poses(self, identity_camera):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pose = random_transform(rng)
            q, t = neighbor_in_camera(pose, pose, identity_camera)
            np.testing.assert_allclose(t, np.zeros(3), atol=1e-9)
            assert abs(q @ IDENTITY) == pytest.approx(1.0, abs=1e-9)


class TestSlerp:
    def test_halfway_between_yaw_0_and_90(self):
        q = slerp_arrays(yaw_quaternion(0.0), yaw_quaternion(math.pi / 2), 0.5)
        assert yaw(q) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_matches_scipy_slerp(self):
        rng = np.random.default_rng(8)
        ts = np.array([0.0, 0.25, 0.6, 1.0])
        for _ in range(50):
            q0, q1 = random_quaternion(rng), random_quaternion(rng)
            ref = Slerp([0.0, 1.0], Rotation.concatenate([to_scipy(q0), to_scipy(q1)]))
            ours = slerp_arrays(q0, q1, ts)
            for expected, q in zip(ref(ts).as_matrix(), ours):
                np.testing.assert_allclose(expected, rotation_matrix(q), atol=1e-9)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(9)
        q0, q1 = rng.normal(size=(2, 100, 4))
        q0 /= np.linalg.norm(q0, axis=1, keepdims=True)
        q1 /= np.linalg.norm(q1, axis=1, keepdims=True)
        norms = np.linalg.norm(slerp_arrays(q0, q1, rng.random(100)), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-9)


def make_track(entries) -> PoseTrack:
    return PoseTrack("r0", [t for t, _p, _yaw in entries],
                     np.array([p for _t, p, _yaw in entries], dtype=float),
                     [yaw_quaternion(angle) for _t, _p, angle in entries])


class TestInterpolatePose:
    def test_exact_at_sample_times(self):
        track = make_track([(0.0, (0, 0, 0), 0.0), (1.0, (2, 0, 0), 0.5), (2.5, (1, 1, 1), 1.0)])
        positions, quats = interpolate(track, track.times)
        assert positions.tolist() == track.positions.tolist()
        assert quats.tolist() == track.quats.tolist()

    def test_linear_midpoint(self):
        track = make_track([(0.0, (0, 0, 0), 0.0), (1.0, (2, 0, 0), 0.0)])
        positions, _quats = interpolate(track, 0.25)
        np.testing.assert_allclose(positions[0], [0.5, 0.0, 0.0], atol=1e-12)

    def test_rotation_halfway(self):
        track = make_track([(0.0, (0, 0, 0), 0.0), (1.0, (0, 0, 0), math.pi / 2)])
        _positions, quats = interpolate(track, 0.5)
        assert yaw(quats[0]) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_out_of_range(self):
        track = make_track([(0.0, (0, 0, 0), 0.0), (1.0, (1, 0, 0), 0.0)])
        with pytest.raises(OutOfRange):
            interpolate(track, 1.0001)
        with pytest.raises(OutOfRange):
            interpolate(track, -0.0001)

    def test_orientation_always_unit(self):
        rng = np.random.default_rng(10)
        transforms = [random_transform(rng) for _ in range(10)]
        track = PoseTrack("r0", np.arange(10.0), [t for _q, t in transforms],
                          [q for q, _t in transforms])
        _positions, quats = interpolate(track, rng.uniform(0.0, 9.0, 200))
        np.testing.assert_allclose(np.linalg.norm(quats, axis=1), 1.0, rtol=0.0, atol=1e-9)

    def test_track_requires_increasing_timestamps(self):
        with pytest.raises(ValueError):
            make_track([(0.0, (0, 0, 0), 0.0), (0.0, (1, 0, 0), 0.0)])


def mask_formula_pose_row(times, positions, quats):
    """Reference for `invalid_pose_row`: the shape check, then every
    check's per-row mask through `first_failure`."""
    n = len(times)
    if times.shape != (n,) or positions.shape != (n, 3) or quats.shape != (n, 4):
        return 0, (f"expected times (N,), positions (N, 3), quats (N, 4); got "
                   f"{times.shape}, {positions.shape}, {quats.shape}")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(quats * quats, axis=1))
    return first_failure({
        "pose values must be finite": np.isfinite(times)
        & np.isfinite(positions).all(axis=1) & np.isfinite(quats).all(axis=1),
        "time must be non-negative": times >= 0.0,
        "t must be within 1e+06 m per axis": (np.abs(positions) <= 1e6).all(axis=1),
        "quaternion must be unit-norm": np.abs(norms - 1.0) <= UNIT_NORM_TOL,
    })


def pose_rows(n: int = 50):
    rng = np.random.default_rng(11)
    quats = np.array([random_quaternion(rng) for _ in range(n)])
    return np.arange(n) / 10.0, rng.uniform(-2.0, 2.0, (n, 3)), quats


def corrupted_pose_rows():
    """(name, times, positions, quats) with one or two failing rows each,
    and a few, named "passes-...", that pass."""
    n = 50
    cases = [("passes-valid", *pose_rows(n)),
             ("passes-empty", *(a[:0] for a in pose_rows(n)))]
    for row in (0, n // 2, n - 1):
        for value in (np.nan, np.inf, -np.inf):
            for array, column in ((0, None), (1, 0), (1, 2), (2, 0), (2, 3)):
                arrays = pose_rows(n)
                if column is None:
                    arrays[array][row] = value
                else:
                    arrays[array][row, column] = value
                cases.append((f"{value}-in-{array}-{column}-at-{row}", *arrays))
        for name, scale in (("negative-time", -1.0), ("passes-negative-zero-time", -0.0)):
            arrays = pose_rows(n)
            arrays[0][row] = scale * (arrays[0][row] + 0.5)
            cases.append((f"{name}-at-{row}", *arrays))
        for name, scale in (("passes-", 1.0 + 0.5 * UNIT_NORM_TOL),
                            ("", 1.0 + 2.0 * UNIT_NORM_TOL), ("", 1e200), ("", 0.0)):
            arrays = pose_rows(n)
            arrays[2][row] *= scale
            cases.append((f"{name}quaternion-times-{scale}-at-{row}", *arrays))
        for name, value in (("passes-", MAX_COORDINATE), ("", -np.nextafter(MAX_COORDINATE, 2e6)),
                            ("", 1e308)):
            arrays = pose_rows(n)
            arrays[1][row, 1] = value
            cases.append((f"{name}position-{float(value)!r}-at-{row}", *arrays))
    arrays = pose_rows(n)
    arrays[1][30, 1], arrays[0][10] = np.nan, -1.0
    cases.append(("negative-time-before-nan", *arrays))
    arrays = pose_rows(n)
    arrays[2][20] *= 3.0
    arrays[0][40] = np.inf
    cases.append(("non-unit-before-inf", *arrays))
    arrays = pose_rows(n)
    arrays[2][7, 1], arrays[0][7] = np.nan, -1.0
    cases.append(("nan-and-negative-time-at-one-row", *arrays))
    arrays = pose_rows(n)
    arrays[2][7] *= 2.0
    arrays[0][7] = -1.0
    cases.append(("negative-time-and-non-unit-at-one-row", *arrays))
    times, positions, quats = pose_rows(n)
    cases += [("short-positions", times, positions[:-1], quats),
              ("two-column-positions", times, positions[:, :2], quats),
              ("three-column-quats", times, positions, quats[:, :3]),
              ("column-times", times[:, None], positions, quats),
              ("nan-and-wrong-shape", np.full(n, np.nan), positions, quats[:, :3])]
    return cases


@pytest.mark.parametrize("name,times,positions,quats", corrupted_pose_rows(),
                         ids=[case[0] for case in corrupted_pose_rows()])
def test_invalid_pose_row_equals_mask_formula(name, times, positions, quats):
    """Whole-array tests decide, and a failure is located as the per-row
    masks locate it: the earliest row, and at one row the earlier check."""
    expected = mask_formula_pose_row(times, positions, quats)
    assert invalid_pose_row(times, positions, quats) == expected
    assert (expected is None) == name.startswith("passes-")


def test_invalid_pose_row_reports_the_earliest_row_and_check():
    cases = {case[0]: case[1:] for case in corrupted_pose_rows()}
    assert invalid_pose_row(*cases["negative-time-before-nan"]) == \
        (10, "time must be non-negative")
    assert invalid_pose_row(*cases["non-unit-before-inf"]) == (20, "quaternion must be unit-norm")
    assert invalid_pose_row(*cases["nan-and-negative-time-at-one-row"]) == \
        (7, "pose values must be finite")
    assert invalid_pose_row(*cases["negative-time-and-non-unit-at-one-row"]) == \
        (7, "time must be non-negative")
    assert invalid_pose_row(*cases["position-1e+308-at-25"]) == (
        25, "t must be within 1e+06 m per axis")
    assert invalid_pose_row(*cases["nan-and-wrong-shape"])[0] == 0
    assert "expected times (N,)" in invalid_pose_row(*cases["nan-and-wrong-shape"])[1]


def test_robot_geometry_corners_cover_all_sign_combinations():
    geom = RobotGeometry(half_extents=np.array([0.1, 0.2, 0.3]), sphere_radius=0.1)
    corners = geom.corners()
    assert corners.shape == (8, 3)
    assert len({tuple(np.sign(c)) for c in corners}) == 8
    np.testing.assert_allclose(np.abs(corners), np.tile([0.1, 0.2, 0.3], (8, 1)))


def test_robot_geometry_held_to_max_coordinate():
    past = np.nextafter(MAX_COORDINATE, 2e6)
    at_bound = RobotGeometry([0.1, MAX_COORDINATE, 0.3], MAX_COORDINATE)
    assert (at_bound.half_extents[1], at_bound.sphere_radius) == (MAX_COORDINATE, MAX_COORDINATE)
    with pytest.raises(ValueError, match=r"half_extents must be within 1e\+06 m per axis"):
        RobotGeometry([0.1, past, 0.3], 0.1)
    with pytest.raises(ValueError, match=r"sphere_radius must be at most 1e\+06 m"):
        RobotGeometry([0.1, 0.2, 0.3], past)
