"""Transforms, quaternion algebra, and pose interpolation."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from spincam.camera import world_to_camera_arrays
from spincam.errors import OutOfRange
from spincam.geometry import (
    PoseTrack,
    Quaternion,
    RigidTransform,
    RobotGeometry,
    compose,
    interpolate,
    slerp_arrays,
)


def random_quaternion(rng) -> Quaternion:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return Quaternion(*q)


def random_transform(rng) -> RigidTransform:
    return RigidTransform(random_quaternion(rng), rng.uniform(-2.0, 2.0, 3))


def to_scipy(q: Quaternion) -> Rotation:
    return Rotation.from_quat([q.x, q.y, q.z, q.w])


class TestQuaternion:
    def test_rotate_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_quaternion(rng)
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(q.rotate(v), to_scipy(q).apply(v), atol=1e-12)

    def test_to_matrix_is_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_quaternion(rng).to_matrix()
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_composes_rotations(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_quaternion(rng), random_quaternion(rng)
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose((a * b).rotate(v), a.rotate(b.rotate(v)), atol=1e-12)

    def test_from_rotvec_matches_scipy(self):
        rng = np.random.default_rng(3)
        for scale in (1e-14, 1e-6, 0.1, 2.0):
            r = rng.normal(size=3) * scale
            ours = Quaternion.from_rotvec(r).to_matrix()
            np.testing.assert_allclose(ours, Rotation.from_rotvec(r).as_matrix(), atol=1e-12)

    def test_yaw_roundtrip(self):
        for yaw in (-3.0, -0.5, 0.0, 1.0, 3.1):
            assert Quaternion.from_yaw(yaw).yaw() == pytest.approx(yaw, abs=1e-12)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0)


class TestRigidTransform:
    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = random_transform(rng)
            composed = t @ t.inverse()
            np.testing.assert_allclose(composed.translation, np.zeros(3), atol=1e-9)
            assert abs(composed.rotation.dot(Quaternion.identity())) == pytest.approx(1.0, abs=1e-9)

    def test_composition_is_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_transform(rng) for _ in range(3))
            v = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(
                ((a @ b) @ c).apply(v), (a @ (b @ c)).apply(v), atol=1e-9
            )

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_transform(rng), random_transform(rng)
            ours = (a @ b).to_matrix()
            np.testing.assert_allclose(ours, a.to_matrix() @ b.to_matrix(), atol=1e-12)

    def test_non_unit_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(Quaternion(1.0, 1.0, 0.0, 0.0), np.zeros(3))


def neighbor_in_camera(ego: RigidTransform, neighbor: RigidTransform, camera) -> RigidTransform:
    """The neighbor robot frame in the ego camera frame, through the array kernels."""
    q, t = compose(*world_to_camera_arrays(ego.rotation.as_array(), ego.translation, camera),
                   neighbor.rotation.as_array(), neighbor.translation)
    return RigidTransform(Quaternion(*q), t)


class TestRelativeTransform:
    def test_identity_case(self, identity_camera):
        ego = RigidTransform.identity()
        rel = neighbor_in_camera(ego, ego, identity_camera)
        np.testing.assert_allclose(rel.translation, np.zeros(3), atol=1e-12)
        assert abs(rel.rotation.w) == pytest.approx(1.0, abs=1e-12)

    def test_single_term_chain(self, identity_camera):
        ego = RigidTransform.identity()
        neighbor = RigidTransform(Quaternion.identity(), np.array([1.0, 0.0, 0.0]))
        rel = neighbor_in_camera(ego, neighbor, identity_camera)
        np.testing.assert_allclose(rel.translation, [1.0, 0.0, 0.0], atol=1e-12)

    def test_yawed_ego_matrix_oracle(self, identity_camera):
        # derived via independent 4x4 homogeneous-matrix chain with scipy rotations
        ego_rot = Rotation.from_euler("z", 90, degrees=True)
        ego = RigidTransform(Quaternion(*np.roll(ego_rot.as_quat(), 1)), np.array([1.0, 2.0, 3.0]))
        neighbor = RigidTransform(Quaternion.identity(), np.array([2.0, 2.0, 3.0]))

        t_ego = np.eye(4)
        t_ego[:3, :3] = ego_rot.as_matrix()
        t_ego[:3, 3] = [1.0, 2.0, 3.0]
        t_nb = np.eye(4)
        t_nb[:3, 3] = [2.0, 2.0, 3.0]
        expected = np.linalg.inv(t_ego) @ t_nb

        rel = neighbor_in_camera(ego, neighbor, identity_camera)
        np.testing.assert_allclose(rel.to_matrix(), expected, atol=1e-12)

    def test_neighbor_equals_ego_for_random_poses(self, identity_camera):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pose = random_transform(rng)
            rel = neighbor_in_camera(pose, pose, identity_camera)
            np.testing.assert_allclose(rel.translation, np.zeros(3), atol=1e-9)
            assert abs(rel.rotation.dot(Quaternion.identity())) == pytest.approx(1.0, abs=1e-9)


class TestSlerp:
    def test_halfway_between_yaw_0_and_90(self):
        q = slerp_arrays(Quaternion.from_yaw(0.0).as_array(),
                         Quaternion.from_yaw(math.pi / 2).as_array(), 0.5)
        assert Quaternion(*q).yaw() == pytest.approx(math.pi / 4, abs=1e-12)

    def test_matches_scipy_slerp(self):
        rng = np.random.default_rng(8)
        ts = np.array([0.0, 0.25, 0.6, 1.0])
        for _ in range(50):
            q0, q1 = random_quaternion(rng), random_quaternion(rng)
            ref = Slerp([0.0, 1.0], Rotation.concatenate([to_scipy(q0), to_scipy(q1)]))
            ours = slerp_arrays(q0.as_array(), q1.as_array(), ts)
            for expected, q in zip(ref(ts).as_matrix(), ours):
                np.testing.assert_allclose(expected, Quaternion(*q).to_matrix(), atol=1e-9)

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
                     [Quaternion.from_yaw(yaw).as_array() for _t, _p, yaw in entries])


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
        assert Quaternion(*quats[0]).yaw() == pytest.approx(math.pi / 4, abs=1e-12)

    def test_out_of_range(self):
        track = make_track([(0.0, (0, 0, 0), 0.0), (1.0, (1, 0, 0), 0.0)])
        with pytest.raises(OutOfRange):
            interpolate(track, 1.0001)
        with pytest.raises(OutOfRange):
            interpolate(track, -0.0001)

    def test_orientation_always_unit(self):
        rng = np.random.default_rng(10)
        transforms = [random_transform(rng) for _ in range(10)]
        track = PoseTrack("r0", np.arange(10.0), [t.translation for t in transforms],
                          [t.rotation.as_array() for t in transforms])
        _positions, quats = interpolate(track, rng.uniform(0.0, 9.0, 200))
        np.testing.assert_allclose(np.linalg.norm(quats, axis=1), 1.0, rtol=0.0, atol=1e-9)

    def test_track_requires_increasing_timestamps(self):
        with pytest.raises(ValueError):
            make_track([(0.0, (0, 0, 0), 0.0), (0.0, (1, 0, 0), 0.0)])


def test_robot_geometry_corners_cover_all_sign_combinations():
    geom = RobotGeometry(half_extents=np.array([0.1, 0.2, 0.3]), sphere_radius=0.1)
    corners = geom.corners()
    assert corners.shape == (8, 3)
    assert len({tuple(np.sign(c)) for c in corners}) == 8
    np.testing.assert_allclose(np.abs(corners), np.tile([0.1, 0.2, 0.3], (8, 1)))
