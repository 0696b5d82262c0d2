"""Projection, annotation and the camera mount."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from run_columns import annotated

from spincam.camera import (
    CameraIntrinsics,
    CameraModel,
    back_project,
    camera_for_pitch,
    distort_normalized,
    fold_radius,
    in_view,
    pitch_rotation,
    project,
    project_points,
    track_poses,
    undistort_normalized,
)
from spincam.errors import NonPositiveDepth, OutOfRange
from spincam.geometry import PoseTrack, quat_rotate


class TestProject:
    def test_optical_axis_hits_principal_point(self, intr):
        px = project((0.0, 0.0, 1.0), intr)
        assert (px[0], px[1]) == (intr.cx, intr.cy)

    def test_direct_evaluation(self):
        intr = CameraIntrinsics(fx=200.0, fy=200.0, cx=160.0, cy=160.0)
        px = project((1.0, 0.0, 2.0), intr)
        assert px[0] == pytest.approx(260.0, abs=1e-12)
        assert px[1] == pytest.approx(160.0, abs=1e-12)

    def test_zero_depth_raises(self, intr):
        with pytest.raises(NonPositiveDepth):
            project((0.0, 0.0, 0.0), intr)
        with pytest.raises(NonPositiveDepth):
            project((0.1, 0.1, -1.0), intr)


class TestBackProject:
    def test_principal_point(self, intr):
        np.testing.assert_allclose(
            back_project((intr.cx, intr.cy), 2.0, intr), [0.0, 0.0, 2.0], atol=1e-12
        )

    def test_direct_evaluation(self):
        intr = CameraIntrinsics(fx=200.0, fy=200.0, cx=160.0, cy=160.0)
        np.testing.assert_allclose(
            back_project((260.0, 160.0), 2.0, intr), [1.0, 0.0, 2.0], atol=1e-12
        )

    def test_non_positive_depth_raises(self, intr):
        with pytest.raises(NonPositiveDepth):
            back_project((10.0, 10.0), 0.0, intr)

    def test_round_trip_without_distortion(self, intr):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, v = rng.uniform(1.0, 319.0, 2)
            z = rng.uniform(0.2, 5.0)
            point = back_project((u, v), z, intr)
            px = project(point, intr)
            assert abs(px[0] - u) < 1e-9 and abs(px[1] - v) < 1e-9

    def test_round_trip_recovers_3d_point(self, intr):
        rng = np.random.default_rng(1)
        for _ in range(100):
            point = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 4.0)])
            px = project(point, intr)
            if not (0.0 < px[0] < intr.width and 0.0 < px[1] < intr.height):
                continue
            np.testing.assert_allclose(
                back_project(px, float(point[2]), intr), point, atol=1e-9
            )

    def test_distorted_round_trip(self):
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=0.1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v = rng.uniform(0.5, 319.5, 2)
            z = rng.uniform(0.3, 5.0)
            point = back_project((u, v), z, intr)
            px = project(point, intr)
            assert abs(px[0] - u) < 1e-8 and abs(px[1] - v) < 1e-8

    def test_barrel_round_trip_at_the_image_corners(self):
        # the corners are the farthest a pixel of this barrel lens lies
        # from the centre, 0.98 of the way to the fold
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
        for u, v in itertools.product((0.0, 320.0), repeat=2):
            px = project(back_project((u, v), 1.0, intr), intr)
            assert abs(px[0] - u) < 1e-8 and abs(px[1] - v) < 1e-8


def static_pose(position, yaw: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The robot-to-world transform (q, t) of a robot at `position` turned by `yaw`."""
    return (np.array([math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)]),
            np.asarray(position, dtype=float))


def matrix(q, t) -> np.ndarray:
    """The 4x4 homogeneous matrix of the transform (q, t), rotation by scipy."""
    m = np.eye(4)
    m[:3, :3] = Rotation.from_quat(np.roll(q, -1)).as_matrix()
    m[:3, 3] = t
    return m


def apply(m: np.ndarray, points) -> np.ndarray:
    """Points (..., 3) mapped by a 4x4 homogeneous matrix."""
    return np.asarray(points) @ m[:3, :3].T + m[:3, 3]


def still_track(robot_id: str, pose, t: float = 0.0) -> PoseTrack:
    """Two samples, at t and t + 1, of a robot holding `pose` (q, t)."""
    q, position = pose
    return PoseTrack(robot_id, [t, t + 1.0], np.tile(position, (2, 1)), np.tile(q, (2, 1)))


def annotate_still(ego_pose, neighbor_poses: dict, camera, geom):
    """The frame at time 0 of an ego "r0" and neighbors holding still."""
    tracks = [still_track("r0", ego_pose)] + [
        still_track(rid, pose) for rid, pose in neighbor_poses.items()]
    return annotated([0.0], track_poses(tracks, [0.0]), camera, geom).annotations()[0]


class TestAnnotateFrame:
    def test_no_neighbors(self, identity_camera, cube_geom):
        ann = annotate_still(static_pose((0, 0, 0)), {}, identity_camera, cube_geom)
        assert ann.neighbors == []

    def test_cube_bbox_half_width(self, cube_geom):
        # 8 corners projected by hand: nearest face at z = 0.95 bounds the box
        intr = CameraIntrinsics(fx=200.0, fy=200.0, cx=160.0, cy=160.0)
        camera = CameraModel(intrinsics=intr, rotation=[1.0, 0.0, 0.0, 0.0],
                             translation=np.zeros(3), pitch_label="up")
        ann = annotate_still(
            static_pose((0, 0, 0)), {"r1": static_pose((0, 0, 1))}, camera, cube_geom
        )
        (neighbor,) = ann.neighbors
        half_width = 200.0 * 0.05 / 0.95
        assert neighbor.center[0] == pytest.approx(160.0, abs=1e-12)
        assert neighbor.bbox[0] == pytest.approx(160.0 - half_width, abs=1e-9)
        assert neighbor.bbox[2] == pytest.approx(160.0 + half_width, abs=1e-9)
        assert neighbor.bbox[3] - neighbor.bbox[1] == pytest.approx(
            2.0 * half_width, abs=1e-9
        )
        np.testing.assert_allclose(neighbor.rel_position, [0.0, 0.0, 1.0], atol=1e-12)

    def test_neighbor_behind_camera_excluded(self, identity_camera, cube_geom):
        ann = annotate_still(
            static_pose((0, 0, 0)), {"r1": static_pose((0, 0, -1))}, identity_camera, cube_geom
        )
        assert ann.neighbors == []

    def test_center_outside_image_excluded(self, identity_camera, cube_geom):
        # center projects far past the right edge even though depth is positive
        ann = annotate_still(
            static_pose((0, 0, 0)), {"r1": static_pose((5, 0, 1))}, identity_camera, cube_geom
        )
        assert ann.neighbors == []

    def test_bbox_clipped_to_image(self, identity_camera, cube_geom):
        intr = identity_camera.intrinsics
        # close neighbor near the left edge: raw bbox exceeds the image
        ann = annotate_still(
            static_pose((0, 0, 0)), {"r1": static_pose((-0.35, 0, 0.4))},
            identity_camera, cube_geom,
        )
        (neighbor,) = ann.neighbors
        assert neighbor.bbox[0] == 0.0
        assert 0.0 <= neighbor.bbox[1] <= neighbor.bbox[3] <= intr.height

    def test_bbox_contains_center_and_matches_corner_minmax(self, identity_camera, cube_geom):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(200):
            neighbor = static_pose(rng.uniform((-1, -1, 0.5), (1, 1, 3.0)), yaw=rng.uniform(0, 7))
            ann = annotate_still(
                static_pose((0, 0, 0)), {"r1": neighbor}, identity_camera, cube_geom
            )
            if not ann.neighbors:
                continue
            hits += 1
            (n,) = ann.neighbors
            assert n.bbox[0] <= n.center[0] <= n.bbox[2]
            assert n.bbox[1] <= n.center[1] <= n.bbox[3]
            # independent recomputation: min/max over the projected corners
            rel = (matrix(identity_camera.rotation, identity_camera.translation)
                   @ np.linalg.inv(matrix(*static_pose((0, 0, 0)))) @ matrix(*neighbor))
            pixels = np.array(
                [project(c, identity_camera.intrinsics)
                 for c in apply(rel, cube_geom.corners())]
            )
            np.testing.assert_allclose(
                n.bbox,
                np.clip(
                    [pixels[:, 0].min(), pixels[:, 1].min(), pixels[:, 0].max(), pixels[:, 1].max()],
                    0.0, 320.0,
                ),
                atol=1e-9,
            )
        assert hits > 50

    def test_annotation_records_frame_metadata(self, identity_camera, cube_geom):
        tracks = [still_track("r1", static_pose((0, 0, 0)), t=0.5),
                  still_track("r2", static_pose((0, 0, 1)), t=0.5)]
        times = [0.5, 1.5]
        records = annotated(times, track_poses(tracks, times, ego_id="r1"), identity_camera,
                            cube_geom)
        ann = records.annotations()[1]
        assert ann.frame_id == 1 and ann.timestamp == 1.5 and ann.ego_id == "r1"
        assert ann.neighbors[0].robot_id == "r2"


class TestPitchRotation:
    @pytest.mark.parametrize(
        "label,axis_robot",
        [("forward", [1.0, 0.0, 0.0]), ("tilt45", [math.sqrt(0.5), 0.0, math.sqrt(0.5)]),
         ("up", [0.0, 0.0, 1.0])],
    )
    def test_optical_axis_direction(self, label, axis_robot, intr):
        camera = camera_for_pitch(label, intr)
        # robot-frame direction mapping to the camera +z axis
        cam_axis = quat_rotate(camera.rotation, axis_robot)
        np.testing.assert_allclose(cam_axis, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rotation_is_proper(self):
        for pitch in (0.0, 0.3, math.pi / 4, math.pi / 2):
            m = quat_rotate(pitch_rotation(pitch), np.eye(3)).T
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label_rejected(self, intr):
        with pytest.raises(ValueError):
            camera_for_pitch("sideways", intr)


DEFAULT_CORNER = math.hypot(160.0 / 170.0, 160.0 / 170.0)


def accepted_k1(k1: float) -> bool:
    """Whether `CameraIntrinsics` accepts `k1` on the default image."""
    try:
        CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    except ValueError:
        return False
    return True


class TestLensFold:
    """A barrel `k1` is accepted only while the distortion's fold, distorted
    radius (2/3)/sqrt(3|k1|), lies outside the farthest image corner, and a
    pincushion `k1` only while the lens inverse's first Newton step is
    finite there."""

    @pytest.mark.parametrize("k1", [0.0, 0.1, -0.05, -0.08, -0.0836])
    def test_fold_outside_the_default_image_loads(self, k1):
        assert CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1).k1 == k1

    @pytest.mark.parametrize("k1", [-0.0837, -0.1, -0.5, -1e6])
    def test_fold_inside_the_default_image_rejected(self, k1):
        with pytest.raises(ValueError, match="k1"):
            CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)

    def test_limit_follows_the_farthest_corner(self):
        # principal point off center: the far corner is (300, 200) px away
        corner = math.hypot(300.0 / 200.0, 200.0 / 100.0)
        limit = -4.0 / (27.0 * corner * corner)
        common = dict(fx=200.0, fy=100.0, cx=20.0, cy=40.0, width=320, height=240)
        CameraIntrinsics(k1=limit * 0.999, **common)
        with pytest.raises(ValueError, match="k1"):
            CameraIntrinsics(k1=limit * 1.001, **common)
        assert (2.0 / 3.0) / math.sqrt(-3.0 * limit) == pytest.approx(corner)

    def test_pixel_past_the_fold_raises(self):
        # x_d = -360/170 lies past the fold's 1.361, the most that any
        # point distorts to, so no ray passes through that pixel
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
        with pytest.raises(OutOfRange, match="fold"):
            back_project((-200.0, 160.0), 1.0, intr)
        with pytest.raises(OutOfRange):
            undistort_normalized(fold_radius(-0.08), 0.0, -0.08)

    def test_pixel_inside_the_fold_round_trips(self):
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
        u = intr.cx - 0.99 * fold_radius(intr.k1) * intr.fx  # outside the image
        px = project(back_project((u, 160.0), 1.0, intr), intr)
        assert abs(px[0] - u) < 1e-8 and abs(px[1] - 160.0) < 1e-8

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(k1=st.floats(min_value=-0.0837, max_value=sys.float_info.max).filter(accepted_k1),
           radius=st.floats(min_value=0.0, max_value=DEFAULT_CORNER, exclude_max=True),
           angle=st.floats(min_value=-math.pi, max_value=math.pi))
    @example(k1=-0.08, radius=0.999 * fold_radius(-0.08), angle=0.0)
    @example(k1=-0.08, radius=0.9999 * fold_radius(-0.08), angle=0.0)
    @example(k1=-0.08, radius=0.999999 * fold_radius(-0.08), angle=0.0)
    def test_undistortion_inverts_distortion_inside_the_fold(self, k1, radius, angle):
        """Any accepted k1, any distorted point inside the default image's
        corner radius (so inside the fold), and points just inside the fold
        past the corner: distorting the undistorted point gives it back. The
        check is in distorted space, since near the fold the root itself is
        ill-conditioned. Every finite k1 is drawn; `CameraIntrinsics` rejects
        those whose Newton step overflows at the corner."""
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        xd, yd = distort_normalized(*undistort_normalized(x, y, k1), k1)
        assert abs(xd - x) <= 1e-12 and abs(yd - y) <= 1e-12

    @pytest.mark.parametrize("fx", [170.0, 40.0])
    def test_pincushion_limit_follows_newtons_first_step_at_the_corner(self, fx):
        """A positive k1 is accepted only while Newton's first step stays
        finite at the farthest corner: its slope 1 + 3 k1 r^2 overflows
        first while the corner's normalized radius is below 3 (the default
        image's 1.33), its residual r (1 + k1 r^2) - r past it (5.66 at fx
        40). The message names the limit."""
        corner = math.hypot(160.0 / fx, 160.0 / fx)
        limit = sys.float_info.max / (corner * corner * max(3.0, corner))
        common = dict(fx=fx, fy=fx, cx=160.0, cy=160.0)
        CameraIntrinsics(k1=limit * 0.999, **common)
        with pytest.raises(ValueError, match=re.escape(f"k1 must be below {limit:.4g}")):
            CameraIntrinsics(k1=limit * 1.001, **common)

    def test_point_far_past_the_image_raises_where_newton_overflows(self):
        # k1 3e307 is accepted and 3.4e307 is not; at twice the corner radius
        # the first step's slope overflows, where the loop used to stop and
        # return (0, 0)
        k1 = 3e307
        assert accepted_k1(k1) and not accepted_k1(3.4e307)
        with pytest.raises(OutOfRange, match="overflows"):
            undistort_normalized(2.0 * DEFAULT_CORNER, 0.0, k1)
        xd, _ = distort_normalized(*undistort_normalized(DEFAULT_CORNER, 0.0, k1), k1)
        assert xd == pytest.approx(DEFAULT_CORNER, abs=1e-12)

    def test_pincushion_lens_has_no_fold(self):
        xn, yn = undistort_normalized(-360.0 / 170.0, 0.0, 0.1)
        assert distort_normalized(xn, yn, 0.1) == pytest.approx((-360.0 / 170.0, 0.0), abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k1,point", [
        (1e300, (1e5, 0.0, 1.0)),  # the distortion factor 1 + k1 r^2 overflows
        (-0.08, (1.0, 0.0, 1e-200)),  # so does r^2 itself, in the fold mask too
    ])
    def test_far_off_axis_point_lands_out_of_view_without_a_warning(self, k1, point):
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
        assert np.isinf(project_points(point, intr)[0])
        assert not in_view(point, intr)


class TestCameraModel:
    def test_zero_quaternion_rejected(self, intr):
        with pytest.raises(ValueError, match="extrinsic q"):
            CameraModel(intr, rotation=[0.0, 0.0, 0.0, 0.0], translation=np.zeros(3))

    @pytest.mark.parametrize("rotation", [[1.0, 1.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0],
                                          [math.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                          [[1.0, 0.0, 0.0, 0.0]]])
    def test_non_unit_rotation_rejected(self, intr, rotation):
        with pytest.raises(ValueError, match="extrinsic q"):
            CameraModel(intr, rotation=rotation, translation=np.zeros(3))
