"""The batched kernels against per-frame oracles built from the value types.

The oracles interpolate every pose with a scalar slerp, chain
`relative_transform` and `project` neighbor by neighbor, and run the belief
rule on lists of world positions, the way the pipeline worked before it was
vectorized.
"""

import bisect
import contextlib
import io
import json
import math

import numpy as np
import pytest

from spincam.camera import (
    BoundingBox,
    CameraIntrinsics,
    FrameAnnotation,
    FrameRecord,
    ImagePoint,
    NeighborAnnotation,
    annotate_tracks,
    camera_for_pitch,
    camera_to_world,
    in_image,
    project,
    projects_into_image,
    relative_transform,
    world_to_camera,
)
from spincam.cli import main
from spincam.downwash import is_downwash, run_downwash_eval
from spincam.geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    Pose,
    PoseTrack,
    Quaternion,
    RigidTransform,
    interpolate,
)
from spincam.perception import NoiseModel, decode_detections, simulate_detector
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario

TOL = 1e-9
KINDS = {
    "swap": dict(kind="swap", num_robots=2, duration=14.0, rng_seed=3),
    "hover_orbit": dict(kind="hover_orbit", num_robots=4, duration=12.0, frame_rate=10.0),
    "random_waypoint": dict(kind="random_waypoint", num_robots=4, duration=20.0,
                            frame_rate=10.0, rng_seed=1),
}
PITCHES = ("forward", "tilt45", "up")
DISTORTIONS = (0.0, -0.08)


def cross_formula(q: Quaternion, v) -> np.ndarray:
    """Quaternion rotation via np.cross, as Quaternion.rotate once computed it."""
    vec = np.asarray(v, dtype=float)
    u = np.array([q.x, q.y, q.z])
    t = 2.0 * np.cross(u, vec)
    return vec + q.w * t + np.cross(u, t)


def scalar_slerp(q0: Quaternion, q1: Quaternion, t: float) -> Quaternion:
    dot = q0.dot(q1)
    b = q1
    if dot < 0.0:
        dot = -dot
        b = Quaternion(-q1.w, -q1.x, -q1.y, -q1.z)
    if dot > 1.0 - 1e-12:
        return Quaternion(*(a + t * (c - a) for a, c in zip(q0.as_array(), b.as_array())))\
            .normalized()
    theta = math.acos(min(1.0, dot))
    c0 = math.sin((1.0 - t) * theta) / math.sin(theta)
    c1 = math.sin(t * theta) / math.sin(theta)
    return Quaternion(*(c0 * a + c1 * c for a, c in zip(q0.as_array(), b.as_array())))\
        .normalized()


def scalar_pose(track: PoseTrack, t: float) -> Pose:
    """Pose at t, one sample pair at a time."""
    times = track.times.tolist()
    idx = bisect.bisect_right(times, t) - 1
    if times[idx] == t:
        return Pose(t, RigidTransform(Quaternion(*track.quats[idx]), track.positions[idx]))
    alpha = (t - times[idx]) / (times[idx + 1] - times[idx])
    position = (1.0 - alpha) * track.positions[idx] + alpha * track.positions[idx + 1]
    orientation = scalar_slerp(Quaternion(*track.quats[idx]), Quaternion(*track.quats[idx + 1]),
                               alpha)
    return Pose(t, RigidTransform(orientation, position))


def oracle_frames(tracks, camera, geom, times, ego_id="r0"):
    """Per frame: ego pose, neighbor poses, and {robot_id: (rel, center, bbox)}."""
    intr = camera.intrinsics
    frames = []
    for t in times.tolist():
        poses = {track.robot_id: scalar_pose(track, t) for track in tracks}
        ego = poses.pop(ego_id)
        visible = {}
        for rid, pose in sorted(poses.items()):
            rel = relative_transform(ego, pose, camera)
            if rel.translation[2] <= 0.0:
                continue
            center = project(rel.translation, intr)
            if not in_image(center, intr):
                continue
            corners = [rel.apply(c) for c in geom.corners()]
            if any(c[2] <= 0.0 for c in corners):
                continue
            pixels = np.array([project(c, intr).as_array() for c in corners])
            bbox = [
                min(max(pixels[:, 0].min(), 0.0), intr.width),
                min(max(pixels[:, 1].min(), 0.0), intr.height),
                min(max(pixels[:, 0].max(), 0.0), intr.width),
                min(max(pixels[:, 1].max(), 0.0), intr.height),
            ]
            visible[rid] = (rel.translation, center.as_array(), bbox)
        frames.append((ego, poses, visible))
    return frames


def scenario(kind, pitch):
    cfg = ScenarioConfig(**KINDS[kind], camera_pitch=pitch)
    return cfg, generate_scenario(cfg)


class TestQuaternionRotate:
    def test_single_vector_bitwise_equal_to_cross_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = Quaternion(*rng.normal(size=4)).normalized()
            v = rng.normal(size=3) * 10.0 ** rng.integers(-6, 6)
            assert q.rotate(v).tolist() == cross_formula(q, v).tolist()

    def test_stack_bitwise_equal_to_cross_formula(self):
        rng = np.random.default_rng(1)
        for n in (1, 8, 1000):
            q = Quaternion(*rng.normal(size=4)).normalized()
            v = rng.normal(size=(n, 3))
            out = q.rotate(v)
            assert out.shape == (n, 3)
            assert out.tolist() == cross_formula(q, v).tolist()


class TestPoseTrackArrays:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PoseTrack("r0", np.arange(3.0), np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (3, 1)))

    def test_non_finite_rejected(self):
        positions = np.zeros((3, 3))
        positions[1, 2] = math.nan
        with pytest.raises(ValueError):
            PoseTrack("r0", np.arange(3.0), positions, np.tile([1.0, 0, 0, 0], (3, 1)))

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(ValueError):
            PoseTrack("r0", np.arange(2.0), np.zeros((2, 3)), np.tile([2.0, 0, 0, 0], (2, 1)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PoseTrack("r0", [-1.0, 0.0], np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_batched_interpolation_matches_scalar_oracle(self):
        _, tracks = scenario("random_waypoint", "up")
        times = np.concatenate([frame_schedule(ScenarioConfig(**KINDS["random_waypoint"])),
                                tracks[0].times[::97]])
        for track in tracks:
            positions, quats = interpolate(track, times)
            for t, p, q in zip(times.tolist(), positions, quats):
                pose = scalar_pose(track, t)
                np.testing.assert_allclose(p, pose.position, atol=TOL, rtol=0)
                np.testing.assert_allclose(q, pose.orientation.as_array(), atol=TOL, rtol=0)


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_annotate_tracks_matches_per_frame_oracle(kind, pitch, k1):
    cfg, tracks = scenario(kind, pitch)
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    camera = camera_for_pitch(pitch, intr)
    times = frame_schedule(cfg)
    records = annotate_tracks(tracks, camera, DEFAULT_ROBOT_GEOMETRY, times, ego_id="r0")
    oracle = oracle_frames(tracks, camera, DEFAULT_ROBOT_GEOMETRY, times)
    assert len(records) == len(oracle) == len(times)
    seen = 0
    for f, (record, (ego, neighbors, visible)) in enumerate(zip(records, oracle)):
        annotation = record.annotation
        assert annotation.frame_id == f and annotation.timestamp == times[f]
        assert [n.robot_id for n in annotation.neighbors] == list(visible)
        for n in annotation.neighbors:
            rel, center, bbox = visible[n.robot_id]
            np.testing.assert_allclose(n.rel_position, rel, atol=TOL, rtol=0)
            np.testing.assert_allclose(n.center.as_array(), center, atol=TOL, rtol=0)
            np.testing.assert_allclose(
                [n.bbox.u_min, n.bbox.v_min, n.bbox.u_max, n.bbox.v_max], bbox, atol=TOL, rtol=0
            )
        assert record.robot_ids == ("r0", *sorted(neighbors))
        for rid, position in zip(record.robot_ids, record.positions):
            pose = {"r0": ego, **neighbors}[rid]
            np.testing.assert_allclose(position, pose.position, atol=TOL, rtol=0)
        seen += len(visible)
    if pitch != "forward":
        assert seen > 0, "scenario never shows a neighbor; the comparison is vacuous"


@pytest.mark.parametrize("ids", [
    ("r1", "r0", "r2"), ("r0", "r2", "r1"), ("r0", "r1", "r1"), ("r0", "r0", "r1"), ("r0", "r1"),
])
def test_frame_record_enforces_row_layout(ids):
    annotation = FrameAnnotation(0, 0.0, "r0", [])
    rows = np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    assert FrameRecord(annotation, ("r0", "r1", "r2"), *rows).robot_ids == ("r0", "r1", "r2")
    with pytest.raises(ValueError, match="robot_ids"):
        FrameRecord(annotation, ids, *rows)


def oracle_downwash(tracks, camera, cfg, mode, noise, geom=DEFAULT_ROBOT_GEOMETRY,
                    merge_radius=0.1):
    """(gt, pred) per frame from the list-based belief rule and RigidTransforms."""
    intr = camera.intrinsics
    pairs, beliefs = [], []
    frames = oracle_frames(tracks, camera, geom, frame_schedule(cfg))
    for frame_id, (ego, neighbors, visible) in enumerate(frames):
        gt = any(is_downwash(p.position, ego.position, cfg.ellipsoid) for p in neighbors.values())
        if mode == "oracle":
            estimates = [rel for rel, _center, _bbox in visible.values()]
        else:
            annotation = FrameAnnotation(frame_id, ego.timestamp, "r0", [
                NeighborAnnotation(rid, rel, ImagePoint(*center), BoundingBox(*bbox))
                for rid, (rel, center, bbox) in visible.items()
            ])
            output = simulate_detector(annotation, noise, intr, mode, radius=geom.sphere_radius)
            estimates = [e.position for e in
                         decode_detections(output, intr, radius=geom.sphere_radius)]
        to_world = camera_to_world(ego, camera)
        to_camera = world_to_camera(ego, camera)
        beliefs = [b for b in beliefs if not projects_into_image(to_camera.apply(b), intr)]
        for estimate in estimates:
            world = to_world.apply(estimate)
            beliefs = [b for b in beliefs if np.linalg.norm(b - world) >= merge_radius]
            beliefs.append(world)
        pred = any(is_downwash(b, ego.position, cfg.ellipsoid) for b in beliefs)
        pairs.append((gt, pred))
    return pairs


@pytest.mark.parametrize("mode", ("oracle", "box", "grid"))
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_belief_loop_matches_per_frame_oracle(kind, pitch, mode):
    cfg, tracks = scenario(kind, pitch)
    camera = camera_for_pitch(pitch)
    noise = NoiseModel(rng_seed=5) if mode != "oracle" else None
    results = run_downwash_eval(tracks, camera, frame_schedule(cfg), cfg.ellipsoid,
                                ego_id="r0", mode=mode, noise=noise)
    expected = oracle_downwash(tracks, camera, cfg, mode, noise)
    assert [(r.gt_downwash, r.pred_downwash) for r in results] == expected
    assert [r.frame_id for r in results] == list(range(len(expected)))


def test_rotate_calls_do_not_grow_with_frames(tmp_path, monkeypatch):
    """simulate + downwash-eval rotate through the array kernels, not per frame."""
    calls = []
    rotate = Quaternion.rotate
    monkeypatch.setattr(Quaternion, "rotate", lambda q, v: calls.append(1) or rotate(q, v))
    counts = []
    for duration in (5.0, 20.0):
        config = tmp_path / f"wp{duration}.json"
        config.write_text(json.dumps({
            "kind": "random_waypoint", "num_robots": 4, "duration": duration,
            "frame_rate": 30.0, "camera_pitch": "up", "rng_seed": 1,
        }))
        calls.clear()
        out = tmp_path / f"run{duration}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            assert main(["downwash-eval", "--dataset", str(out / "dataset.ndjson"),
                         "--oracle", "--out", str(out / "eval")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_pipeline_builds_no_pose_objects(tmp_path, monkeypatch):
    """simulate, downwash-eval and benchmark carry poses as arrays, not Poses."""
    built = []
    post_init = Pose.__post_init__
    monkeypatch.setattr(Pose, "__post_init__", lambda pose: built.append(1) or post_init(pose))
    config = tmp_path / "wp.json"
    config.write_text(json.dumps({
        "kind": "random_waypoint", "num_robots": 4, "duration": 5.0, "frame_rate": 30.0,
        "camera_pitch": "up", "rng_seed": 1,
    }))
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["downwash-eval", "--dataset", str(out / "dataset.ndjson"),
                     "--oracle", "--out", str(out / "eval")]) == 0
        assert len(built) == 0
        assert main(["benchmark", "--config", str(config), "--oracle",
                     "--out", str(tmp_path / "bench")]) == 0
    assert len(built) == 0
