"""The batched kernels against per-frame oracles.

The oracles interpolate every pose with a scalar slerp, chain the camera
mount, the inverse ego pose and the neighbor pose as 4x4 homogeneous
matrices with scipy rotations and `project` neighbor by neighbor, run the
belief rule on lists of world positions, write dataset lines with
`json.dumps` of one dict per frame, and simulate and decode detections on
pixel, box and detection objects, the way the pipeline worked before it was
vectorized.
"""

import bisect
import contextlib
import importlib
import inspect
import io
import json
import math
import pkgutil
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from run_columns import IDENTITY, annotated, run_records, simulated
from test_perception import clip_ray_position, norm_pixel_ray

import spincam
from spincam.camera import (
    CameraIntrinsics,
    FrameAnnotation,
    FrameRecord,
    NeighborAnnotation,
    RunRecords,
    camera_for_pitch,
    in_view,
    project,
    project_points,
    track_poses,
    undistort_normalized,
)
from spincam.cli import main
from spincam.datasets import WRITE_FRAMES, Dataset, read_dataset, write_dataset
from spincam.downwash import (
    DOWNWASH_MARGIN,
    EllipsoidSpec,
    ellipsoid_margin,
    evaluate_downwash_records,
    run_downwash_eval,
)
from spincam.errors import DegenerateBox
from spincam.geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    PoseTrack,
    interpolate,
    quat_rotate,
)
from spincam.perception import (
    DEFAULT_GRID_COLS,
    DEFAULT_GRID_ROWS,
    GridDetectionMap,
    NoiseModel,
    PositionEstimate,
    decode_detections,
    grid_cell_of,
    perceive,
    simulate_detector,
)
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


def noise_models(seeds) -> list[NoiseModel]:
    """Noise at false-positive rate 0.5 for every seed, and at the first seed
    on each branch of numpy's poisson: no draw at rate 0, a zero decided by
    one uniform below 10 (the frames `perceive` skips), and PTRS at 12."""
    return ([NoiseModel(rng_seed=seed, false_positive_rate=0.5) for seed in seeds]
            + [NoiseModel(rng_seed=seeds[0], false_positive_rate=rate)
               for rate in (0.0, 0.05, 12.0)])


def cross_formula(q, v) -> np.ndarray:
    """Quaternion rotation via np.cross, as the rotation kernel once computed it."""
    vec = np.asarray(v, dtype=float)
    u = q[1:]
    t = 2.0 * np.cross(u, vec)
    return vec + q[0] * t + np.cross(u, t)


def unit_quaternion(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def scalar_slerp(q0: np.ndarray, q1: np.ndarray, t: float) -> np.ndarray:
    dot = float(q0 @ q1)
    b = q1
    if dot < 0.0:
        dot = -dot
        b = -q1
    if dot > 1.0 - 1e-12:
        q = q0 + t * (b - q0)
    else:
        theta = math.acos(min(1.0, dot))
        q = (math.sin((1.0 - t) * theta) * q0 + math.sin(t * theta) * b) / math.sin(theta)
    return q / np.linalg.norm(q)


def scalar_pose(track: PoseTrack, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Robot-to-world orientation and position at t, one sample pair at a time."""
    times = track.times.tolist()
    idx = bisect.bisect_right(times, t) - 1
    if times[idx] == t:
        return track.quats[idx], track.positions[idx]
    alpha = (t - times[idx]) / (times[idx + 1] - times[idx])
    position = (1.0 - alpha) * track.positions[idx] + alpha * track.positions[idx + 1]
    return scalar_slerp(track.quats[idx], track.quats[idx + 1], alpha), position


def matrix(q, t) -> np.ndarray:
    """The 4x4 homogeneous matrix of the transform (q, t), rotation by scipy."""
    m = np.eye(4)
    m[:3, :3] = Rotation.from_quat(np.roll(q, -1)).as_matrix()
    m[:3, 3] = t
    return m


def apply(m: np.ndarray, points) -> np.ndarray:
    """Points (..., 3) mapped by a 4x4 homogeneous matrix."""
    return np.asarray(points) @ m[:3, :3].T + m[:3, 3]


def oracle_frames(tracks, camera, geom, times, ego_id="r0"):
    """Per frame: ego pose, neighbor poses (4x4 robot-to-world matrices), and
    {robot_id: (rel, center, bbox)}."""
    intr = camera.intrinsics
    mount = matrix(camera.rotation, camera.translation)
    frames = []
    for t in times.tolist():
        poses = {track.robot_id: matrix(*scalar_pose(track, t)) for track in tracks}
        ego = poses.pop(ego_id)
        visible = {}
        for rid, pose in sorted(poses.items()):
            rel = mount @ np.linalg.inv(ego) @ pose
            if rel[2, 3] <= 0.0:
                continue
            center = project(rel[:3, 3], intr)
            if not (0.0 < center[0] < intr.width and 0.0 < center[1] < intr.height):
                continue
            # a barrel lens mirrors past its fold, r^2 = 1/(3|k1|): not in view
            xn, yn = rel[0, 3] / rel[2, 3], rel[1, 3] / rel[2, 3]
            if intr.k1 < 0.0 and not xn * xn + yn * yn < 1.0 / (-3.0 * intr.k1):
                continue
            corners = [apply(rel, c) for c in geom.corners()]
            if any(c[2] <= 0.0 for c in corners):
                continue
            pixels = np.array([project(c, intr) for c in corners])
            bbox = [
                min(max(pixels[:, 0].min(), 0.0), intr.width),
                min(max(pixels[:, 1].min(), 0.0), intr.height),
                min(max(pixels[:, 0].max(), 0.0), intr.width),
                min(max(pixels[:, 1].max(), 0.0), intr.height),
            ]
            visible[rid] = (rel[:3, 3], center, np.array(bbox))
        frames.append((ego, poses, visible))
    return frames


def config(kind, pitch):
    return ScenarioConfig(**KINDS[kind], camera_pitch=pitch)


def scenario(kind, pitch):
    cfg = config(kind, pitch)
    return cfg, generate_scenario(cfg)


class TestQuaternionRotate:
    def test_single_vector_bitwise_equal_to_cross_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = unit_quaternion(rng)
            v = rng.normal(size=3) * 10.0 ** rng.integers(-6, 6)
            assert quat_rotate(q, v).tolist() == cross_formula(q, v).tolist()

    def test_stack_bitwise_equal_to_cross_formula(self):
        rng = np.random.default_rng(1)
        for n in (1, 8, 1000):
            q = unit_quaternion(rng)
            v = rng.normal(size=(n, 3))
            out = quat_rotate(q, v)
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
                orientation, position = scalar_pose(track, t)
                np.testing.assert_allclose(p, position, atol=TOL, rtol=0)
                np.testing.assert_allclose(q, orientation, atol=TOL, rtol=0)


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_annotate_tracks_matches_per_frame_oracle(kind, pitch, k1):
    """A scenario's frames annotated as `simulate` annotates them, against the
    per-frame oracle on its pose tracks."""
    cfg, tracks = scenario(kind, pitch)
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    camera = camera_for_pitch(pitch, intr)
    times = frame_schedule(cfg)
    records = simulated(cfg, camera, DEFAULT_ROBOT_GEOMETRY)
    oracle = oracle_frames(tracks, camera, DEFAULT_ROBOT_GEOMETRY, times)
    assert len(records) == len(oracle) == len(times)
    assert records.frame_ids.tolist() == list(range(len(times)))
    assert records.timestamps.tolist() == times.tolist()
    ids = records.robot_ids
    seen = 0
    for f, (ego, neighbors, visible) in enumerate(oracle):
        assert ids == ("r0", *sorted(neighbors))
        rows = np.flatnonzero(records.owner == f)
        assert [ids[r] for r in records.robot[rows]] == list(visible)
        for k, (rel, center, bbox) in zip(rows, visible.values()):
            np.testing.assert_allclose(records.rel_positions[k], rel, atol=TOL, rtol=0)
            np.testing.assert_allclose(records.centers[k], center, atol=TOL, rtol=0)
            np.testing.assert_allclose(records.bboxes[k], bbox, atol=TOL, rtol=0)
        for rid, position in zip(ids, records.positions[f]):
            pose = {"r0": ego, **neighbors}[rid]
            np.testing.assert_allclose(position, pose[:3, 3], atol=TOL, rtol=0)
        seen += len(visible)
    assert seen == len(records.owner)
    if pitch != "forward":
        assert seen > 0, "scenario never shows a neighbor; the comparison is vacuous"


@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_annotated_rows_lie_inside_the_lens_fold(kind, pitch):
    """With a barrel k1 of -0.08, every annotated row's center back-projects
    to within 1e-6 rad of its neighbor's true direction: no row lies past
    the fold, where the lens mirrors."""
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
    records = simulated(config(kind, pitch), camera_for_pitch(pitch, intr),
                        DEFAULT_ROBOT_GEOMETRY)
    assert len(records.owner) > 0, "scenario never shows a neighbor; the check is vacuous"
    truth = records.rel_positions / np.linalg.norm(records.rel_positions, axis=1, keepdims=True)
    rays = np.array([norm_pixel_ray(center, intr) for center in records.centers.tolist()])
    # the angle between unit vectors, accurate near zero
    angles = 2.0 * np.arcsin(np.linalg.norm(rays - truth, axis=1) / 2.0)
    assert angles.max() < 1e-6


@pytest.mark.parametrize("ids,match", [
    (("r0", "r2", "r1"), "robot_ids"), (("r0", "r1", "r1"), "robot_ids"),
    (("r0", "r0", "r1"), "robot_ids"), (("r0", "r1"), "positions has shape"),
])
def test_run_records_enforce_robot_layout(ids, match):
    """The robot rows must be the ego, then the other robots sorted, with one
    pose row each."""
    poses = np.zeros((2, 3, 3)), np.tile(IDENTITY, (2, 3, 1))
    rows = [], [], np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 4))
    good = RunRecords([0, 1], [0.0, 1.0], ("r0", "r1", "r2"), *poses, *rows)
    assert good.robot_ids == ("r0", "r1", "r2")
    with pytest.raises(ValueError, match=match):
        RunRecords([0, 1], [0.0, 1.0], ids, *poses, *rows)


def frame_obj(record: FrameRecord) -> dict:
    """A frame's dataset record, as the writer built it before it formatted
    lines straight from the columns."""
    ann, ids = record.annotation, record.robot_ids
    return {
        "record": "frame",
        "frame_id": ann.frame_id,
        "timestamp": float(ann.timestamp),
        "ego_id": ann.ego_id,
        "neighbors": [
            {
                "robot_id": n.robot_id,
                "rel_position": [float(v) for v in n.rel_position],
                "center": [float(v) for v in n.center],
                "bbox": [float(v) for v in n.bbox],
            }
            for n in ann.neighbors
        ],
        "poses": {
            ids[r]: {"time": float(ann.timestamp), "q": record.quats[r].tolist(),
                     "t": record.positions[r].tolist()}
            for r in sorted(range(len(ids)), key=ids.__getitem__)
        },
    }


COLUMNS = ("frame_ids", "timestamps", "positions", "quats", "owner", "robot", "rel_positions",
           "centers", "bboxes")


def assert_same_columns(a: RunRecords, b: RunRecords) -> None:
    """Bitwise-equal columns of the same dtype and shape."""
    assert a.robot_ids == b.robot_ids
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_dataset_lines_match_json_dumps_oracle(tmp_path, kind, pitch, k1):
    cfg = config(kind, pitch)
    camera = camera_for_pitch(pitch, CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0,
                                                      k1=k1))
    records = simulated(cfg, camera, DEFAULT_ROBOT_GEOMETRY)
    path = tmp_path / "dataset.ndjson"
    write_dataset(Dataset(camera, DEFAULT_ROBOT_GEOMETRY, cfg.ellipsoid, records), path)
    _header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert lines == [json.dumps(frame_obj(record)) for record in records.frames()]
    assert_same_columns(read_dataset(path).records, records)


# The simulated detector and the decoders as they worked on value objects
# (a pixel, a box, a box detection), before pixels and boxes became array rows.
@dataclass(frozen=True)
class ObjectPixel:
    u: float
    v: float


@dataclass(frozen=True)
class ObjectBox:
    u_min: float
    v_min: float
    u_max: float
    v_max: float


@dataclass(frozen=True)
class ObjectBoxDetection:
    bbox: ObjectBox
    confidence: float


def object_back_project(pixel: ObjectPixel, depth_z: float, intr) -> np.ndarray:
    xn, yn = undistort_normalized(
        (pixel.u - intr.cx) / intr.fx, (pixel.v - intr.cy) / intr.fy, intr.k1
    )
    return np.array([depth_z * xn, depth_z * yn, depth_z])


def object_pixel_ray(pixel: ObjectPixel, intr) -> np.ndarray:
    ray = object_back_project(pixel, 1.0, intr)
    return ray / np.linalg.norm(ray)


def object_cell_of(pixel: ObjectPixel, intr, rows: int, cols: int) -> tuple[int, int]:
    row = min(rows - 1, max(0, int(pixel.v * rows / intr.height)))
    col = min(cols - 1, max(0, int(pixel.u * cols / intr.width)))
    return row, col


def object_detector(frame_id, neighbors, noise, intr, mode, radius):
    """A list of ObjectBoxDetection (box) or (confidence, depth) channels
    (grid) for one frame's neighbors [(rel_position, ObjectPixel, ObjectBox)]."""
    rng = np.random.default_rng([noise.rng_seed, frame_id])
    kept = [n for n in neighbors if rng.random() >= noise.miss_rate]
    n_false = int(rng.poisson(noise.false_positive_rate))
    if mode == "box":
        detections = []
        for _rel, _center, b in kept:
            du = rng.normal(0.0, noise.pixel_sigma, size=4)
            u_lo, u_hi = sorted((b.u_min + du[0], b.u_max + du[1]))
            v_lo, v_hi = sorted((b.v_min + du[2], b.v_max + du[3]))
            detections.append(ObjectBoxDetection(
                ObjectBox(u_lo, v_lo, u_hi, v_hi), float(rng.uniform(*noise.true_confidence))))
        for _ in range(n_false):
            depth = rng.uniform(0.5, 3.0)
            half_w, half_h = intr.fx * radius / depth, intr.fy * radius / depth
            cu = rng.uniform(half_w, intr.width - half_w)
            cv = rng.uniform(half_h, intr.height - half_h)
            detections.append(ObjectBoxDetection(
                ObjectBox(cu - half_w, cv - half_h, cu + half_w, cv + half_h),
                float(rng.uniform(*noise.false_confidence))))
        return detections
    rows, cols = DEFAULT_GRID_ROWS, DEFAULT_GRID_COLS
    confidence, depths = np.zeros((rows, cols)), np.zeros((rows, cols))
    for rel, center, _box in kept:
        jittered = np.array([center.u, center.v]) + rng.normal(0.0, noise.pixel_sigma, size=2)
        pixel = ObjectPixel(float(np.clip(jittered[0], 0.0, intr.width - 1e-9)),
                            float(np.clip(jittered[1], 0.0, intr.height - 1e-9)))
        depth = max(float(rel[2]) * (1.0 + rng.normal(0.0, noise.depth_rel_sigma)), 1e-3)
        row, col = object_cell_of(pixel, intr, rows, cols)
        if not (confidence[row, col] > 0.0 and depths[row, col] <= depth):
            confidence[row, col] = float(rng.uniform(*noise.true_confidence))
            depths[row, col] = depth
    for _ in range(n_false):
        row, col = int(rng.integers(0, rows)), int(rng.integers(0, cols))
        if confidence[row, col] > 0.0:
            continue
        confidence[row, col] = float(rng.uniform(*noise.false_confidence))
        depths[row, col] = float(rng.uniform(0.5, 3.0))
    return confidence, depths


def object_decode(output, intr, radius) -> list[np.ndarray]:
    """Positions decoded from object_detector output."""
    positions = []
    if isinstance(output, tuple):
        confidence, depths = output
        rows, cols = confidence.shape
        for row, col in zip(*(a.tolist() for a in np.nonzero(~(confidence < 0.5)))):
            window = confidence[max(0, row - 1) : row + 2, max(0, col - 1) : col + 2]
            if confidence[row, col] < window.max():
                continue
            center = ObjectPixel((col + 0.5) * intr.width / cols,
                                 (row + 0.5) * intr.height / rows)
            positions.append(object_back_project(center, float(depths[row, col]), intr))
        return positions
    for det in output:
        b = det.bbox
        v_mid = 0.5 * (b.v_min + b.v_max)
        try:
            position = clip_ray_position(object_pixel_ray(ObjectPixel(b.u_min, v_mid), intr),
                                         object_pixel_ray(ObjectPixel(b.u_max, v_mid), intr),
                                         radius)
        except DegenerateBox:
            continue
        positions.append(position)
    return positions


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_detector_rows_match_object_oracle(kind, pitch, k1):
    """Detections and decoded positions are bitwise equal to those of the
    object-based detector and decoders, in box and grid mode, at false-positive
    rates 0, 0.05, 0.5 and 12 (`noise_models`)."""
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    geom = DEFAULT_ROBOT_GEOMETRY
    records = simulated(config(kind, pitch), camera_for_pitch(pitch, intr), geom)
    frames = [(ann.frame_id, [(n.rel_position, ObjectPixel(*n.center.tolist()),
                               ObjectBox(*n.bbox.tolist())) for n in ann.neighbors])
              for ann in records.annotations()]
    radius, compared = geom.sphere_radius, 0
    for noise in noise_models((0, 3)):
        for mode in ("box", "grid"):
            for annotation, (frame_id, neighbors) in zip(records.annotations(), frames):
                output = simulate_detector(annotation, noise, intr, mode, radius=radius)
                expected = object_detector(frame_id, neighbors, noise, intr, mode, radius)
                if mode == "box":
                    rows = [(d.bbox.u_min, d.bbox.v_min, d.bbox.u_max, d.bbox.v_max,
                             d.confidence) for d in expected]
                    assert output.tobytes() == np.array(rows).reshape(-1, 5).tobytes()
                    compared += len(rows)
                else:
                    assert output.confidence.tobytes() == expected[0].tobytes()
                    assert output.depth.tobytes() == expected[1].tobytes()
                positions = [e.position for e in decode_detections(output, intr, radius=radius)]
                assert np.reshape(positions, (-1, 3)).tobytes() == \
                    np.reshape(object_decode(expected, intr, radius), (-1, 3)).tobytes()
    assert compared > len(records.owner), "too few box detections for a comparison"


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_run_perception_matches_per_frame_detector(kind, pitch, k1):
    """The owners and positions that perception of a whole run gives, in box
    and grid mode with false positives, are bitwise equal to those of
    `simulate_detector` and `decode_detections` called frame by frame."""
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    camera = camera_for_pitch(pitch, intr)
    records = simulated(config(kind, pitch), camera, DEFAULT_ROBOT_GEOMETRY)
    assert_run_perception_matches_per_frame(records, camera, seeds=(0, 3))


@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_run_perception_matches_per_frame_detector_on_wide_seeds(kind, pitch):
    """The same as `test_run_perception_matches_per_frame_detector`, with
    frame ids that straddle 2**32, so a run seeds one-word and two-word ids,
    and noise seeds of two and three 32-bit words."""
    camera = camera_for_pitch(pitch)
    records = simulated(config(kind, pitch), camera, DEFAULT_ROBOT_GEOMETRY)
    ids = records.frame_ids + (2**32 - len(records) // 2)
    records = replace(records, frame_ids=ids)
    assert ids.min() < 2**32 <= ids.max()
    assert_run_perception_matches_per_frame(records, camera, seeds=(2**64, 2**64 + 5, 2**32))


def assert_run_perception_matches_per_frame(records, camera, seeds):
    """`perceive` owners and positions, box and grid mode, bitwise equal to
    per-frame `simulate_detector` and `decode_detections` under each of
    `noise_models(seeds)`."""
    intr, radius = camera.intrinsics, DEFAULT_ROBOT_GEOMETRY.sphere_radius
    for noise in noise_models(seeds):
        for mode in ("box", "grid"):
            owner, positions = perceive(records, mode, noise, intr, radius)
            frames = [decode_detections(simulate_detector(annotation, noise, intr, mode,
                                                          radius=radius), intr, radius=radius)
                      for annotation in records.annotations()]
            counts = [len(estimates) for estimates in frames]
            assert sum(counts) > len(records.owner) // 2, "too few estimates for a comparison"
            assert owner.tobytes() == np.repeat(np.arange(len(records)), counts).tobytes()
            assert positions.tobytes() == np.reshape(
                [e.position for estimates in frames for e in estimates], (-1, 3)).tobytes()


def isolated_grid_rows(kind, pitch, k1):
    """The intrinsics at `k1`, and each visible row of a scenario's frames
    whose 3 x 3 block of grid cells holds no other row of its frame, as its
    rel_position, its center and the estimates (E, 3) that grid perception
    at zero noise gives its frame."""
    intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
    radius = DEFAULT_ROBOT_GEOMETRY.sphere_radius
    records = simulated(config(kind, pitch), camera_for_pitch(pitch, intr),
                        DEFAULT_ROBOT_GEOMETRY)
    owner, estimates = perceive(records, "grid", NoiseModel(0.0, 0.0, 0.0, 0.0), intr, radius)
    cells = np.array([grid_cell_of(center, intr, DEFAULT_GRID_ROWS, DEFAULT_GRID_COLS)
                      for center in records.centers.tolist()]).reshape(-1, 2)
    rows = []
    for k, f in enumerate(records.owner.tolist()):
        others = (records.owner == f) & (np.arange(len(cells)) != k)
        if not np.any(np.abs(cells[others] - cells[k]).max(axis=1) <= 1):
            rows.append((records.rel_positions[k], records.centers[k], estimates[owner == f]))
    assert rows, "no isolated row: the check is vacuous"
    return intr, rows


@pytest.mark.parametrize("k1", DISTORTIONS)
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_zero_noise_grid_decodes_every_isolated_row(kind, pitch, k1):
    """At zero noise, grid perception decodes each row that no other row of
    its frame crowds: an estimate at the row's exact depth whose pixel is
    within half a grid cell of the row's center."""
    intr, rows = isolated_grid_rows(kind, pitch, k1)
    half_u, half_v = intr.width / DEFAULT_GRID_COLS / 2.0, intr.height / DEFAULT_GRID_ROWS / 2.0
    for rel_position, center, estimates in rows:
        at_depth = estimates[estimates[:, 2] == rel_position[2]]
        offsets = np.abs(project_points(at_depth, intr) - center)
        assert np.any((offsets[:, 0] <= half_u + 1e-9) & (offsets[:, 1] <= half_v + 1e-9))


@pytest.mark.parametrize("k1", [
    0.0, pytest.param(-0.08, marks=pytest.mark.xfail(strict=True, reason=(
        "off axis, the barrel lens's inverse stretches half a cell past "
        "criterion 6's bound, set in undistorted units"))),
])
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_zero_noise_grid_lateral_error_within_half_a_cell(kind, pitch, k1):
    """Criterion 6's bound on the isolated rows of a simulated flight: the
    estimate at the row's exact depth lies within half a cell of it
    laterally, in the camera's undistorted units times the depth."""
    intr, rows = isolated_grid_rows(kind, pitch, k1)
    bound_x = (intr.width / DEFAULT_GRID_COLS / 2.0) / intr.fx
    bound_y = (intr.height / DEFAULT_GRID_ROWS / 2.0) / intr.fy
    for (x, y, z), _center, estimates in rows:
        at_depth = estimates[estimates[:, 2] == z]
        assert np.any((np.abs(at_depth[:, 0] - x) <= z * bound_x + 1e-12)
                      & (np.abs(at_depth[:, 1] - y) <= z * bound_y + 1e-12))


@pytest.mark.parametrize("mode", ("oracle", "omni", "box", "grid"))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_evaluation_of_columns_ignores_frame_line_order(tmp_path, kind, mode):
    """The columns read from a file and the columns of the same file with its
    frame lines reversed, or shuffled, give the same per-frame results."""
    cfg = config(kind, "tilt45")
    camera = camera_for_pitch("tilt45")
    noise = NoiseModel(rng_seed=5) if mode in ("box", "grid") else None
    path = tmp_path / "dataset.ndjson"
    write_dataset(Dataset(camera, DEFAULT_ROBOT_GEOMETRY, cfg.ellipsoid,
                          simulated(cfg, camera, DEFAULT_ROBOT_GEOMETRY)), path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    dataset = read_dataset(path)

    def evaluate(records):
        columns = evaluate_downwash_records(records, camera, cfg.ellipsoid, mode=mode,
                                            noise=noise)
        return list(zip(*(column.tolist() for column in columns)))

    expected = evaluate(dataset.records)
    assert any(pred for _f, _gt, pred in expected)
    for name, order in (("reversed", np.arange(len(lines))[::-1]),
                        ("shuffled", np.random.default_rng(2).permutation(len(lines)))):
        moved_path = tmp_path / f"{name}.ndjson"
        moved_path.write_text("\n".join([header, *(lines[k] for k in order)]) + "\n",
                              encoding="utf-8")
        moved = read_dataset(moved_path)
        assert moved.records.frame_ids.tolist() == dataset.records.frame_ids[order].tolist()
        assert evaluate(moved.records) == expected


def test_run_records_reject_rows_out_of_layout():
    row = dict(rel_positions=[[0.0, 0.0, 1.0]] * 2, centers=[[1.0, 1.0]] * 2,
               bboxes=[[0.0, 0.0, 2.0, 2.0]] * 2)
    fields = dict(frame_ids=[0, 1], timestamps=[0.0, 1.0], robot_ids=("r0", "r1"),
                  positions=np.zeros((2, 2, 3)), quats=np.tile(IDENTITY, (2, 2, 1)))
    assert len(RunRecords(**fields, owner=[0, 1], robot=[1, 1], **row).owner) == 2
    for owner, robot in (([1, 0], [1, 1]), ([0, 2], [1, 1]), ([0, 1], [0, 1]),
                         ([0, 1], [1, 2])):
        with pytest.raises(ValueError, match="neighbor rows"):
            RunRecords(**fields, owner=owner, robot=robot, **row)


def oracle_downwash(tracks, camera, times, ellipsoid, mode, noise,
                    geom=DEFAULT_ROBOT_GEOMETRY, merge_radius=0.1):
    """(gt, pred) per frame from the list-based belief rule and 4x4 matrices."""
    intr = camera.intrinsics
    mount = matrix(camera.rotation, camera.translation)
    pairs, beliefs = [], []
    for frame_id, (t, (ego, neighbors, visible)) in enumerate(
            zip(times.tolist(), oracle_frames(tracks, camera, geom, times))):
        gt = any(ellipsoid_margin(p[:3, 3], ego[:3, 3], ellipsoid) < DOWNWASH_MARGIN
                 for p in neighbors.values())
        if mode == "omni":
            # an all-round view reprojects every belief and perceives every neighbor
            beliefs = []
            seen = [pose[:3, 3] for _rid, pose in sorted(neighbors.items())]
        else:
            if mode == "oracle":
                estimates = [rel for rel, _center, _bbox in visible.values()]
            else:
                annotation = FrameAnnotation(frame_id, t, "r0", [
                    NeighborAnnotation(rid, rel, center, bbox)
                    for rid, (rel, center, bbox) in visible.items()
                ])
                output = simulate_detector(annotation, noise, intr, mode,
                                           radius=geom.sphere_radius)
                estimates = [e.position for e in
                             decode_detections(output, intr, radius=geom.sphere_radius)]
            to_camera = mount @ np.linalg.inv(ego)
            beliefs = [b for b in beliefs if not in_view(apply(to_camera, b), intr)]
            seen = [apply(np.linalg.inv(to_camera), e) for e in estimates]
        for world in seen:
            beliefs = [b for b in beliefs if np.linalg.norm(b - world) >= merge_radius]
            beliefs.append(world)
        pred = any(ellipsoid_margin(b, ego[:3, 3], ellipsoid) < DOWNWASH_MARGIN
                   for b in beliefs)
        pairs.append((gt, pred))
    return pairs


def assert_matches_oracle(tracks, camera, times, ellipsoid, mode, noise):
    gt, pred = run_downwash_eval(tracks, camera, times, ellipsoid, ego_id="r0", mode=mode,
                                 noise=noise)
    assert list(zip(gt.tolist(), pred.tolist())) == oracle_downwash(
        tracks, camera, times, ellipsoid, mode, noise)
    return gt, pred


@pytest.mark.parametrize("mode", ("oracle", "omni", "box", "grid"))
@pytest.mark.parametrize("pitch", PITCHES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_belief_loop_matches_per_frame_oracle(kind, pitch, mode):
    cfg, tracks = scenario(kind, pitch)
    noise = NoiseModel(rng_seed=5) if mode in ("box", "grid") else None
    assert_matches_oracle(tracks, camera_for_pitch(pitch), frame_schedule(cfg), cfg.ellipsoid,
                          mode, noise)


def climb_past_and_return(rate=30.0):
    """An up-camera ego climbs past a hovering neighbor, waits above it, then
    descends back into its downwash: the neighbor's last belief sits below
    the camera, out of view, for several seconds."""
    times = np.arange(0.0, 10.0 + 1e-9, 0.01)
    ego_z = np.interp(times, [0.0, 3.0, 6.0, 8.0, 10.0], [0.0, 3.0, 3.0, 1.95, 1.95])
    ego = np.stack([np.zeros_like(times), np.zeros_like(times), ego_z], axis=1)
    hover = np.tile([0.05, 0.0, 1.5], (len(times), 1))
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (len(times), 1))
    tracks = [PoseTrack("r0", times, ego, identity), PoseTrack("r1", times, hover, identity)]
    return tracks, np.arange(0.0, 10.0 + 1e-9, 1.0 / rate)


# not box: its decoder places the neighbor short of its range (the box spans
# the body's corners, the decoder assumes a smaller sphere), so the last belief
# does not sit where the ego descends
@pytest.mark.parametrize("mode", ("oracle", "grid"))
def test_belief_outlives_several_scan_windows(mode):
    tracks, times = climb_past_and_return()
    noise = NoiseModel(rng_seed=5, false_positive_rate=0.0) if mode != "oracle" else None
    camera = camera_for_pitch("up")
    _, pred = assert_matches_oracle(tracks, camera, times, EllipsoidSpec(), mode, noise)
    records = annotated(times, track_poses(tracks, times), camera, DEFAULT_ROBOT_GEOMETRY)
    last_seen = int(records.owner.max())
    late = np.flatnonzero(pred[last_seen + 101:])
    assert late.size, "no prediction from a belief older than 100 frames"


@pytest.mark.parametrize("mode", ("oracle", "box", "grid"))
def test_frames_without_estimates_predict_nothing(mode):
    tracks, times = climb_past_and_return(rate=10.0)
    camera = camera_for_pitch("forward")  # never sees the neighbor overhead
    noise = NoiseModel(miss_rate=1.0, false_positive_rate=0.0) if mode != "oracle" else None
    records = annotated(times, track_poses(tracks, times), camera, DEFAULT_ROBOT_GEOMETRY)
    assert len(records.owner) == 0
    gt, pred = assert_matches_oracle(tracks, camera, times, EllipsoidSpec(), mode, noise)
    assert gt.any()
    assert not pred.any()


def test_later_estimate_absorbs_earlier_and_beliefs_die_on_reprojection():
    """Hand-built frames for a forward camera. Frame 0 sees two positions
    0.09 m apart on the optical axis; only the farther, later one, outside
    the ellipsoid, becomes a belief. Frame 1 turns the camera away and steps
    toward it: the belief survives and now violates the ellipsoid. Frame 2
    turns back: the belief reprojects and is dropped."""
    camera = camera_for_pitch("forward")
    identity, turned = [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]
    to_world = np.linalg.inv(matrix(camera.rotation, camera.translation))
    near, far = (apply(to_world, [0.0, 0.0, z]) for z in (1.0, 1.09))
    step = 0.1 * (far - near) / np.linalg.norm(far - near)
    ellipsoid = EllipsoidSpec(0.52, 0.52, 0.52)
    assert ellipsoid_margin(near, np.zeros(3), ellipsoid) < DOWNWASH_MARGIN
    assert not ellipsoid_margin(far, np.zeros(3), ellipsoid) < DOWNWASH_MARGIN
    assert ellipsoid_margin(far, step, ellipsoid) < DOWNWASH_MARGIN
    no_box = np.zeros(2), np.array([0.0, 0.0, 1.0, 1.0])
    # the seen robots r1 and r2 are parked 100 m below, out of the ellipsoid
    seen = [(r, np.array([0.0, 0.0, z]), *no_box) for r, z in ((1, 1.0), (2, 1.09))]
    parked = np.tile([0.0, 0.0, -100.0], (2, 1))
    frames = [
        (f, float(f), np.vstack([position, parked]), [quat, identity, identity],
         seen if f == 0 else [])
        for f, (position, quat) in enumerate([(np.zeros(3), identity), (step, turned),
                                              (step, identity)])
    ]
    for ordered in (frames, frames[::-1]):
        columns = evaluate_downwash_records(run_records(("r0", "r1", "r2"), ordered), camera,
                                            ellipsoid)
        assert list(zip(*(column.tolist() for column in columns))) == [
            (0, False, False), (1, False, True), (2, False, False)]


@pytest.mark.parametrize("mode", ("oracle", "omni", "box", "grid"))
def test_empty_record_list_gives_no_results(mode):
    noise = NoiseModel() if mode in ("box", "grid") else None
    camera = camera_for_pitch("up")
    empty = annotated([], track_poses(climb_past_and_return()[0], []), camera,
                      DEFAULT_ROBOT_GEOMETRY)
    columns = evaluate_downwash_records(empty, camera, EllipsoidSpec(), mode=mode, noise=noise)
    assert [column.shape for column in columns] == [(0,)] * 3


def spincam_classes() -> list[type]:
    """Every class that a module of the package defines."""
    modules = [importlib.import_module(f"spincam.{info.name}")
               for info in pkgutil.iter_modules(spincam.__path__)]
    return [value for module in modules for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__]


def count_constructions(monkeypatch) -> Counter:
    """A Counter, by class name, of the objects of `spincam_classes` made
    from now on: by a class's `__init__`, a named tuple's `__new__`, or
    `GridDetectionMap.zeros`, which skips the constructor."""
    built = Counter()

    def counted(make):
        def wrapper(first, *args, **kwargs):
            built[first.__name__ if isinstance(first, type) else type(first).__name__] += 1
            return make(first, *args, **kwargs)
        return wrapper

    # every original first: a subclass's inherited `__init__` is its base's unwrapped one
    makers = [(cls, "__new__" if issubclass(cls, tuple) else "__init__") for cls in
              spincam_classes()]
    for cls, name, make in [(cls, name, getattr(cls, name)) for cls, name in makers]:
        wrapper = counted(make)
        monkeypatch.setattr(cls, name, staticmethod(wrapper) if name == "__new__" else wrapper)
    zeros = GridDetectionMap.zeros
    monkeypatch.setattr(GridDetectionMap, "zeros", staticmethod(
        lambda *args: built.update(["GridDetectionMap"]) or zeros(*args)))
    return built


# Built once per frame that is not quiet, for its generator (`perception.perceive`).
PER_FRAME_EXEMPT = {"FrameSeed"}


def test_cli_builds_no_per_frame_objects(tmp_path, monkeypatch):
    """simulate, oracle, box and grid downwash-eval, oracle and noisy
    benchmark, and rerun build as many objects of the package's classes for
    a 6 s flight as for a 2 s one: frames are carried as columns, not as
    per-frame objects. The one exemption is PER_FRAME_EXEMPT."""
    noise = tmp_path / "noise.json"
    noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')

    def run_matrix(duration: float):
        out = tmp_path / f"{duration:g}s"
        out.mkdir()
        config = out / "wp.json"
        config.write_text(json.dumps({
            "kind": "random_waypoint", "num_robots": 4, "duration": duration,
            "frame_rate": 30.0, "camera_pitch": "up", "rng_seed": 1,
        }))
        assert duration * 30.0 < WRITE_FRAMES  # one chunk: chunks are not frames
        dataset = str(out / "run" / "dataset.ndjson")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config), "--out", str(out / "run")]) == 0
            assert main(["downwash-eval", "--dataset", dataset, "--oracle",
                         "--out", str(out / "oracle")]) == 0
            for mode in ("box", "grid"):
                assert main(["downwash-eval", "--dataset", dataset, "--noise", str(noise),
                             "--mode", mode, "--out", str(out / mode)]) == 0
            assert main(["benchmark", "--config", str(config), "--oracle",
                         "--out", str(out / "bench")]) == 0
            assert main(["benchmark", "--config", str(config), "--noise", str(noise),
                         "--mode", "grid", "--out", str(out / "bench-grid")]) == 0
            assert main(["rerun", "--manifest", str(out / "box" / "manifest.json")]) == 0
        return dataset

    built = count_constructions(monkeypatch)
    run_matrix(1.0)  # warm-up: the command parser is built once per process
    counts = []
    for duration in (2.0, 6.0):
        built.clear()
        dataset = run_matrix(duration)
        counts.append(Counter({name: n for name, n in built.items()
                               if name not in PER_FRAME_EXEMPT}))
    assert counts[0] == counts[1]
    assert counts[0]["Cell"], "the matrix ran the stacked evaluation"
    # positive control: the per-frame edges build each per-frame type
    built.clear()
    data = read_dataset(dataset)
    frame = next(f for f in data.frames if f.annotation.neighbors)
    intr = data.camera.intrinsics
    assert decode_detections(simulate_detector(frame.annotation, NoiseModel(miss_rate=0.0), intr,
                                               "grid"), intr)
    assert {"FrameRecord", "FrameAnnotation", "NeighborAnnotation", "PositionEstimate",
            "GridDetectionMap", *PER_FRAME_EXEMPT} <= set(built)
