"""Camera model: projection, back-projection, frame annotation.

The camera frame is the usual computer-vision one (+z optical axis, +x right,
+y down); the robot frame is +x forward, +y left, +z up. Pixel coordinates are
continuous with (0, 0) at the top-left image corner.

`project_points` is the one projection kernel and `annotate_poses` the one
annotation pipeline: it projects every frame x neighbor x corner of a run in
a few array operations, through a camera mount per frame, and returns the
run as `RunRecords` columns. `project` is the kernel's one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveDepth, OutOfRange
from .geometry import (
    UNIT_NORM_TOL,
    PoseTrack,
    RobotGeometry,
    as_vec3,
    compose,
    interpolate,
    invert,
    quat_normalize,
    quat_rotate,
    require_finite,
)

PITCH_ANGLES = {"forward": 0.0, "tilt45": math.pi / 4.0, "up": math.pi / 2.0}


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters with a single radial distortion term."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    width: int = 320
    height: int = 320

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "k1", "width", "height"):
            require_finite(name, getattr(self, name))
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        corner = math.hypot(max(self.cx, self.width - self.cx) / self.fx,
                            max(self.cy, self.height - self.cy) / self.fy)
        # a ray through the image has a squared norm of at most 1 + corner^2
        if not math.isfinite(corner * corner):
            raise ValueError(f"focal lengths fx {self.fx} and fy {self.fy} are too small for a "
                             f"{self.width}x{self.height} image: the squared normalized radius "
                             f"of its farthest corner overflows")
        # the lens fold, and any overflow of the lens inverse, must lie past the farthest corner
        if self.k1 < 0.0 and fold_radius(self.k1) < corner:
            raise ValueError(
                f"k1 {self.k1} folds the lens at normalized radius {fold_radius(self.k1):.4g}, "
                f"inside the image corner's {corner:.4g}; k1 must be above "
                f"{-4.0 / (27.0 * corner * corner):.4g}")
        if self.k1 > 0.0 and _first_step_overflows(corner, self.k1):
            raise ValueError(
                f"k1 {self.k1} overflows the lens inverse's Newton step at the image corner's "
                f"normalized radius {corner:.4g}; k1 must be below "
                f"{np.finfo(float).max / (corner * corner * max(3.0, corner)):.4g}")


# Plausible defaults for a 320x320 nano-quadrotor camera (~86 deg FOV).
DEFAULT_INTRINSICS = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0)


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Intrinsics plus the robot-to-camera mount: the unit quaternion
    `rotation` (4,) then the `translation` (3,), within MAX_COORDINATE per
    axis. A dataset header stores the mount as its extrinsic `q` and `t`, so
    the checks name those keys."""

    intrinsics: CameraIntrinsics
    rotation: np.ndarray
    translation: np.ndarray
    pitch_label: str = "forward"

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float)
        norm = math.hypot(*q) if q.shape == (4,) else math.nan
        # also rejects a zero or non-finite q: its norm is 0, inf or nan
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(f"extrinsic q must be a unit quaternion (w, x, y, z), "
                             f"got {self.rotation!r}")
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation",
                           as_vec3(self.translation, "extrinsic t", reach=True))


def pitch_rotation(pitch: float) -> np.ndarray:
    """Robot-to-camera rotation for a camera pitched up by `pitch` radians.

    pitch 0 looks along robot +x, pi/2 straight up along robot +z; the image
    x-axis stays aligned with robot -y (level horizon at pitch 0).
    """
    c, s = math.cos(pitch), math.sin(pitch)
    rows = np.array(
        [
            [0.0, -1.0, 0.0],  # camera x (right)
            [s, 0.0, -c],  # camera y (down)
            [c, 0.0, s],  # camera z (optical axis)
        ]
    )
    return _quaternion_from_matrix(rows)


def camera_for_pitch(
    label: str,
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS,
    translation=(0.0, 0.0, 0.0),
) -> CameraModel:
    """Camera model for one of the supported mount labels."""
    if label not in PITCH_ANGLES:
        raise ValueError(f"unknown camera pitch {label!r}; expected one of {sorted(PITCH_ANGLES)}")
    return CameraModel(intrinsics=intrinsics, rotation=pitch_rotation(PITCH_ANGLES[label]),
                       translation=as_vec3(translation, "camera_translation", reach=True),
                       pitch_label=label)


def _quaternion_from_matrix(m: np.ndarray) -> np.ndarray:
    """Rotation matrix to quaternion (Shepperd's branch selection)."""
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)
    return quat_normalize(q)


def fold_radius(k1: float) -> float:
    """Distorted normalized radius of a barrel lens's fold (`k1` < 0):
    r_d = r (1 + k1 r^2) peaks at r = 1/sqrt(3|k1|), distorted radius
    (2/3)/sqrt(3|k1|), and mirrors past it."""
    return (2.0 / 3.0) / math.sqrt(-3.0 * k1)


def distort_normalized(xn: float, yn: float, k1: float) -> tuple[float, float]:
    """Apply first-order radial distortion in normalized camera coordinates."""
    r2 = xn * xn + yn * yn
    factor = 1.0 + k1 * r2
    return xn * factor, yn * factor


def _first_step_overflows(rd: float, k1: float) -> bool:
    """Whether the residual or slope of Newton's first step, at r = r_d, overflows."""
    r2 = rd * rd
    return not (math.isfinite(rd * (1.0 + k1 * r2) - rd) and math.isfinite(1.0 + 3.0 * k1 * r2))


def undistort_normalized(xd: float, yd: float, k1: float) -> tuple[float, float]:
    """Invert the radial term by Newton's method on the radius, exact to
    rounding; raises OutOfRange when the distorted radius lies at or past a
    barrel lens's fold, the most that any point reaches, or, for `k1` > 0,
    overflows the first Newton step, far outside the image.

    g(r) = r (1 + k1 r^2) - r_d is increasing, and concave below a barrel
    lens's fold or convex for a pincushion one, so each Newton step from
    r = r_d moves r further from r_d, towards the root but not past it; the
    first that does not is rounding and ends the loop. (x_d, y_d) then
    shrinks by the distortion factor at r, which keeps the principal point."""
    if k1 == 0.0:
        return xd, yd
    rd = math.hypot(xd, yd)
    if k1 < 0.0 and rd >= fold_radius(k1):
        raise OutOfRange(f"distorted radius {rd:.6g} lies at or past the "
                         f"fold's {fold_radius(k1):.6g} of a lens with k1 {k1}")
    if k1 > 0.0 and _first_step_overflows(rd, k1):
        raise OutOfRange(f"distorted radius {rd:.6g} overflows Newton's step at k1 {k1}")
    r = rd
    while True:
        r2 = r * r
        step = r - (r * (1.0 + k1 * r2) - rd) / (1.0 + 3.0 * k1 * r2)
        # a NaN input compares false and stops after one step
        if not (step > r if k1 < 0.0 else step < r):
            factor = 1.0 + k1 * r2
            return xd / factor, yd / factor
        r = step


def project_points(points, intr: CameraIntrinsics) -> np.ndarray:
    """Camera-frame points (..., 3) to pixels (..., 2).

    Depth is not checked: points with z <= 0 give meaningless pixels (or
    inf/nan), and points far off the axis overflow to inf, so callers mask
    them out.
    """
    p = np.asarray(points, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xd, yd = distort_normalized(p[..., 0] / p[..., 2], p[..., 1] / p[..., 2], intr.k1)
        return np.stack([intr.fx * xd + intr.cx, intr.fy * yd + intr.cy], axis=-1)


def project(point_camera, intr: CameraIntrinsics) -> np.ndarray:
    """Camera-frame point to pixel (u, v) as a (2,) array; raises
    NonPositiveDepth when z <= 0."""
    p = as_vec3(point_camera)
    if p[2] <= 0.0:
        raise NonPositiveDepth(f"point depth {p[2]} is not positive")
    return project_points(p, intr)


def back_project(pixel, depth_z: float, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel (u, v) plus camera-frame depth back to a 3D camera-frame point."""
    if depth_z <= 0.0:
        raise NonPositiveDepth(f"depth {depth_z} is not positive")
    u, v = pixel
    xn, yn = undistort_normalized((u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, intr.k1)
    return np.array([depth_z * xn, depth_z * yn, depth_z])


def in_view(points_camera, intr: CameraIntrinsics) -> np.ndarray:
    """Mask of camera-frame points (..., 3) with positive depth whose pixel
    lies strictly inside the image and, for `k1` < 0, whose undistorted
    normalized radius lies inside the lens fold, r^2 < 1/(3|k1|)."""
    p = np.asarray(points_camera, dtype=float)
    px = project_points(p, intr)
    u, v = px[..., 0], px[..., 1]
    mask = (p[..., 2] > 0.0) & (0.0 < u) & (u < intr.width) & (0.0 < v) & (v < intr.height)
    if intr.k1 < 0.0:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn, yn = p[..., 0] / p[..., 2], p[..., 1] / p[..., 2]
            mask &= xn * xn + yn * yn < 1.0 / (-3.0 * intr.k1)
    return mask


def world_to_camera_arrays(ego_q, ego_t, mount_q, mount_t):
    """World-to-camera transforms (mount after inverse ego pose) for ego
    orientations (..., 4) and positions (..., 3) and robot-to-camera mounts
    (..., 4) / (..., 3); shapes broadcast."""
    return compose(mount_q, mount_t, *invert(ego_q, ego_t))


def camera_to_world_arrays(ego_q, ego_t, mount_q, mount_t):
    """Camera-to-world transforms (ego pose after inverse mount) for ego
    orientations (..., 4) and positions (..., 3) and robot-to-camera mounts
    (..., 4) / (..., 3); shapes broadcast."""
    return compose(ego_q, ego_t, *invert(mount_q, mount_t))


@dataclass(frozen=True, eq=False)
class NeighborAnnotation:
    """One visible neighbor; `RunRecords.annotations()` gives it views of
    the run's rows."""

    robot_id: str
    rel_position: np.ndarray  # (3,) camera frame, positive depth
    center: np.ndarray  # (2,) pixel (u, v)
    bbox: np.ndarray  # (4,) box (u_min, v_min, u_max, v_max)


@dataclass(eq=False)
class FrameAnnotation:
    frame_id: int
    timestamp: float
    ego_id: str
    neighbors: list[NeighborAnnotation]


@dataclass(eq=False)
class FrameRecord:
    """One frame: its annotation plus the world poses of every robot; the
    per-frame view of a `RunRecords` frame row, built by `RunRecords.frames()`.

    Row r of `positions` (R, 3) and `quats` (R, 4) is the robot-to-world pose
    of `robot_ids[r]` at the frame's timestamp. Row 0 is the ego robot; the
    neighbors follow in sorted id order. It is a read-only view: a run is
    built only as `RunRecords` columns.
    """

    annotation: FrameAnnotation
    robot_ids: tuple[str, ...]
    positions: np.ndarray
    quats: np.ndarray


# The dtype of each `RunRecords` column.
COLUMN_DTYPES = {
    "frame_ids": np.int64, "timestamps": np.float64, "positions": np.float64,
    "quats": np.float64, "owner": np.int64, "robot": np.int64,
    "rel_positions": np.float64, "centers": np.float64, "bboxes": np.float64,
}


@dataclass(eq=False)
class RunRecords:
    """A run's annotated frames as columns.

    Frame rows, F of them in schedule or file order: `frame_ids` (F,),
    `timestamps` (F,), and the robot-to-world poses `positions` (F, R, 3) and
    `quats` (F, R, 4) of `robot_ids`, the ego first and the others sorted.

    Neighbor rows, one per visible neighbor, grouped by frame in frame order:
    `owner` (K,) frame row, `robot` (K,) index into `robot_ids` (never the
    ego), `rel_positions` (K, 3) camera-frame position, `centers` (K, 2)
    pixel and `bboxes` (K, 4) box as (u_min, v_min, u_max, v_max).
    """

    frame_ids: np.ndarray
    timestamps: np.ndarray
    robot_ids: tuple[str, ...]
    positions: np.ndarray
    quats: np.ndarray
    owner: np.ndarray
    robot: np.ndarray
    rel_positions: np.ndarray
    centers: np.ndarray
    bboxes: np.ndarray

    def __post_init__(self):
        ids = self.robot_ids = tuple(self.robot_ids)
        n_frames, n_rows = len(self.frame_ids), len(self.owner)
        shapes = {
            "frame_ids": (n_frames,), "timestamps": (n_frames,),
            "positions": (n_frames, len(ids), 3), "quats": (n_frames, len(ids), 4),
            "owner": (n_rows,), "robot": (n_rows,), "rel_positions": (n_rows, 3),
            "centers": (n_rows, 2), "bboxes": (n_rows, 4),
        }
        for name, shape in shapes.items():
            column = np.asarray(getattr(self, name), dtype=COLUMN_DTYPES[name])
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            setattr(self, name, column)
        if (n_frames and not ids) or list(ids[1:]) != sorted(set(ids) - set(ids[:1])):
            raise ValueError(f"robot_ids {ids} must be the ego, then the others sorted")
        if n_rows and not (np.all(np.diff(self.owner) >= 0) and 0 <= self.owner[0]
                           and self.owner[-1] < n_frames and np.all(self.robot >= 1)
                           and np.all(self.robot < len(ids))):
            raise ValueError("neighbor rows must be grouped by frame in frame order and "
                             "name a robot other than the ego")

    def __len__(self) -> int:
        return len(self.frame_ids)

    def annotations(self) -> list[FrameAnnotation]:
        """One `FrameAnnotation` per frame row, its neighbors views of the
        neighbor rows."""
        ids = self.robot_ids
        neighbors = [
            NeighborAnnotation(ids[r], position, center, box)
            for r, position, center, box in zip(
                self.robot.tolist(), self.rel_positions, self.centers, self.bboxes)
        ]
        bounds = np.searchsorted(self.owner, np.arange(len(self) + 1)).tolist()
        return [
            FrameAnnotation(frame_id, timestamp, ids[0], neighbors[lo:hi])
            for frame_id, timestamp, lo, hi in zip(
                self.frame_ids.tolist(), self.timestamps.tolist(), bounds, bounds[1:])
        ]

    def frames(self) -> list[FrameRecord]:
        """One `FrameRecord` per frame row, built from the columns."""
        return [
            FrameRecord(annotation, self.robot_ids, positions, quats)
            for annotation, positions, quats in zip(self.annotations(), self.positions, self.quats)
        ]


def _annotate_neighbors(
    w2c_q: np.ndarray,
    w2c_t: np.ndarray,
    neighbor_q: np.ndarray,
    neighbor_t: np.ndarray,
    intr: CameraIntrinsics,
    geom: RobotGeometry,
) -> tuple[np.ndarray, ...]:
    """Visible neighbors of F frames as rows (frame, slot, rel_position,
    center, bbox), grouped by frame.

    World-to-camera transforms are (F, 4) / (F, 3) arrays, neighbor poses
    (F, N, 4) / (F, N, 3) with `slot` indexing N. Every center goes through
    one projection call, and so do the 8 corners of every neighbor whose
    center is in view.
    """
    centers = quat_rotate(w2c_q[:, None], neighbor_t) + w2c_t[:, None]
    frame, slot = np.nonzero(in_view(centers, intr))
    rel_q, rel_t = compose(w2c_q[frame], w2c_t[frame], neighbor_q[frame, slot],
                           neighbor_t[frame, slot])
    corners = quat_rotate(rel_q[:, None], geom.corners()) + rel_t[:, None]
    # corners on or behind the image plane: degenerate close-range case
    keep = np.all(corners[..., 2] > 0.0, axis=1)
    pixels = project_points(corners[keep], intr)
    boxes = np.stack(
        [
            np.clip(pixels[..., 0].min(axis=1), 0.0, intr.width),
            np.clip(pixels[..., 1].min(axis=1), 0.0, intr.height),
            np.clip(pixels[..., 0].max(axis=1), 0.0, intr.width),
            np.clip(pixels[..., 1].max(axis=1), 0.0, intr.height),
        ],
        axis=-1,
    )
    rel_t = rel_t[keep]
    return frame[keep], slot[keep], rel_t, project_points(rel_t, intr), boxes


def track_poses(
    tracks: Sequence[PoseTrack], times, ego_id: str = "r0"
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Robot ids, the ego first and the others sorted, and their poses at the
    times (F,): positions (F, R, 3) and orientations (F, R, 4). Every track
    is interpolated at all times at once."""
    by_id = {track.robot_id: track for track in tracks}
    if ego_id not in by_id:
        raise ValueError(f"ego robot {ego_id!r} not among tracks")
    times = np.asarray(times, dtype=float).reshape(-1)
    ids = (ego_id, *sorted(rid for rid in by_id if rid != ego_id))
    states = [interpolate(by_id[rid], times) for rid in ids]
    return (ids, np.stack([p for p, _q in states], axis=1),
            np.stack([q for _p, q in states], axis=1))


def annotate_poses(
    frame_ids, times, robot_ids: tuple[str, ...], positions: np.ndarray, quats: np.ndarray,
    mount_q, mount_t, intr: CameraIntrinsics, geom: RobotGeometry,
) -> RunRecords:
    """The annotated run of frames with the given ids, times and poses (the
    `RunRecords` frame columns), seen through a robot-to-camera mount per
    frame, (F, 4) / (F, 3), or one mount (4,) / (3,) for every frame.

    A neighbor is visible when its center is `in_view`: positive depth, inside
    the image and the lens fold. Its box is the min/max of the 8 projected body
    corners, clipped to the image; corners share the center's distortion
    model. Neighbors with any corner on or behind the image plane are dropped
    (degenerate close-range case). All frames are annotated in one
    `_annotate_neighbors` pass.
    """
    w2c_q, w2c_t = world_to_camera_arrays(quats[:, 0], positions[:, 0], mount_q, mount_t)
    frame, slot, rel_positions, centers, bboxes = _annotate_neighbors(
        w2c_q, w2c_t, quats[:, 1:], positions[:, 1:], intr, geom
    )
    return RunRecords(frame_ids, times, robot_ids, positions, quats,
                      frame, slot + 1, rel_positions, centers, bboxes)
