"""Downwash proximity condition, belief-set tracking, and frame-wise prediction.

A robot pair is in downwash when the ellipsoid-normalized distance between
them drops below 2. The ego robot keeps a set of believed neighbor positions
in the world frame: any belief that reprojects into the current image is
dropped, then this frame's perceived neighbors are added back. Prediction
simply tests the ellipsoid condition against every surviving belief.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import (
    CameraModel,
    FrameRecord,
    annotate_tracks,
    camera_to_world_arrays,
    in_view,
    world_to_camera_arrays,
)
from .geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    PoseTrack,
    RobotGeometry,
    as_vec3,
    quat_rotate,
)
from .perception import (
    NoiseModel,
    PositionEstimate,
    decode_detections,
    oracle_estimates,
    simulate_detector,
)

DOWNWASH_MARGIN = 2.0
MERGE_RADIUS = 0.1

EVAL_MODES = ("oracle", "omni", "box", "grid")


@dataclass(frozen=True)
class EllipsoidSpec:
    """Axis-aligned safety ellipsoid radii (meters)."""

    rx: float = 0.15
    ry: float = 0.15
    rz: float = 0.3

    def __post_init__(self):
        radii = (self.rx, self.ry, self.rz)
        if not all(math.isfinite(r) for r in radii):
            raise ValueError(f"ellipsoid radii must be finite, got {radii}")
        if self.rx <= 0.0 or self.ry <= 0.0 or self.rz <= 0.0:
            raise ValueError("ellipsoid radii must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])


def ellipsoid_margins(deltas, ellipsoid: EllipsoidSpec) -> np.ndarray:
    """Ellipsoid-normalized lengths of separation vectors (..., 3)."""
    return np.linalg.norm(np.asarray(deltas, dtype=float) / ellipsoid.as_array(), axis=-1)


def ellipsoid_margin(p_i, p_j, ellipsoid: EllipsoidSpec) -> float:
    """Ellipsoid-normalized separation; values below 2 mean downwash danger."""
    return float(ellipsoid_margins(as_vec3(p_i) - as_vec3(p_j), ellipsoid))


def is_downwash(p_i, p_j, ellipsoid: EllipsoidSpec) -> bool:
    return ellipsoid_margin(p_i, p_j, ellipsoid) < DOWNWASH_MARGIN


@dataclass(frozen=True, eq=False)
class Belief:
    position: np.ndarray  # world frame
    born_at: float


@dataclass(frozen=True, eq=False)
class BeliefSet:
    beliefs: tuple[Belief, ...] = ()

    @staticmethod
    def empty() -> "BeliefSet":
        return BeliefSet(())

    def __len__(self) -> int:
        return len(self.beliefs)

    def __iter__(self):
        return iter(self.beliefs)

    def positions(self) -> np.ndarray:
        if not self.beliefs:
            return np.zeros((0, 3))
        return np.array([b.position for b in self.beliefs])


def _visible(positions: np.ndarray, w2c_q, w2c_t, camera: CameraModel) -> np.ndarray:
    """Mask of world positions (B, 3) that reproject into the image of the
    camera whose world->camera transform is (w2c_q, w2c_t)."""
    return in_view(quat_rotate(w2c_q, positions) + w2c_t, camera.intrinsics)


def _predict(positions: np.ndarray, ego_position: np.ndarray, ellipsoid: EllipsoidSpec) -> bool:
    """True when any world position (B, 3) violates the ellipsoid condition."""
    return bool(np.any(ellipsoid_margins(positions - ego_position, ellipsoid) < DOWNWASH_MARGIN))


def _belief_step(
    positions: np.ndarray, visible: np.ndarray, seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One frame of the belief rule on arrays.

    Beliefs (B, 3) that reproject into the image (`visible`) are dropped; then
    each perceived world position of `seen` (P, 3) is added in turn, absorbing
    every earlier belief within MERGE_RADIUS. Returns the indices of the
    surviving old beliefs and of the surviving new ones; the next belief set
    is the old survivors followed by the new ones, both in order.
    """
    old = np.flatnonzero(~visible)
    if not len(seen):
        return old, np.arange(0)
    near_old = np.linalg.norm(positions[old, None] - seen[None], axis=-1) < MERGE_RADIUS
    old = old[~near_old.any(axis=1)]
    # a new position is absorbed by any position perceived after it
    near_new = np.linalg.norm(seen[:, None] - seen[None], axis=-1) < MERGE_RADIUS
    new = np.flatnonzero(~np.triu(near_new, k=1).any(axis=1))
    return old, new


def update_belief(
    beliefs: BeliefSet,
    ego_pose,
    camera: CameraModel,
    predictions: Sequence[PositionEstimate],
) -> BeliefSet:
    """One frame of the belief rule: drop what reprojects, add what was seen.

    `ego_pose` is the ego robot's `geometry.Pose`. Predictions arrive in the
    camera frame and are stored in the world frame; new beliefs absorb older
    ones within MERGE_RADIUS. Shares `_visible` and `_belief_step` with the
    evaluation loop.
    """
    positions = beliefs.positions()
    ego_q, ego_t = ego_pose.orientation.as_array(), ego_pose.position
    visible = _visible(positions, *world_to_camera_arrays(ego_q, ego_t, camera), camera)
    c2w_q, c2w_t = camera_to_world_arrays(ego_q, ego_t, camera)
    estimates = np.array([p.position for p in predictions], dtype=float).reshape(-1, 3)
    seen = quat_rotate(c2w_q, estimates) + c2w_t
    old, new = _belief_step(positions, visible, seen)
    return BeliefSet(
        tuple(beliefs.beliefs[i] for i in old)
        + tuple(Belief(position=seen[j], born_at=ego_pose.timestamp) for j in new)
    )


def predict_downwash(beliefs: BeliefSet, ego_position, ellipsoid: EllipsoidSpec) -> bool:
    """True when any believed neighbor violates the ellipsoid condition."""
    return _predict(beliefs.positions(), as_vec3(ego_position), ellipsoid)


@dataclass(frozen=True)
class DownwashFrameResult:
    frame_id: int
    gt_downwash: bool
    pred_downwash: bool


def _perceived(
    records: Sequence[FrameRecord],
    camera: CameraModel,
    mode: str,
    noise: NoiseModel | None,
    geom: RobotGeometry,
) -> tuple[list[int], np.ndarray]:
    """Camera-frame position estimates of every frame, stacked (E, 3), and
    how many of them belong to each frame."""
    if mode == "oracle":
        per_frame = (oracle_estimates(r.annotation) for r in records)
    else:
        if noise is None:
            raise ValueError(f"mode {mode!r} needs a NoiseModel")
        intr, radius = camera.intrinsics, geom.sphere_radius
        per_frame = (
            decode_detections(
                simulate_detector(r.annotation, noise, intr, mode, radius=radius),
                intr, radius=radius,
            )
            for r in records
        )
    counts, positions = [], []
    for estimates in per_frame:
        counts.append(len(estimates))
        positions.extend(e.position for e in estimates)
    return counts, np.array(positions, dtype=float).reshape(-1, 3)


def evaluate_downwash_records(
    records: Sequence[FrameRecord],
    camera: CameraModel,
    ellipsoid: EllipsoidSpec,
    mode: str = "oracle",
    noise: NoiseModel | None = None,
    geom: RobotGeometry = DEFAULT_ROBOT_GEOMETRY,
) -> list[DownwashFrameResult]:
    """Run the belief protocol over annotated frame records.

    Records are processed in timestamp order regardless of input order; the
    belief update is order-dependent. Ground truth, perception and every
    frame's camera transforms are computed up front; only the belief update
    runs frame by frame, on a (B, 3) array of world positions.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}; expected one of {EVAL_MODES}")
    ordered = sorted(records, key=lambda record: record.annotation.timestamp)
    ego_q = np.array([r.quats[0] for r in ordered]).reshape(-1, 4)
    ego_t = np.array([r.positions[0] for r in ordered]).reshape(-1, 3)

    # ground truth: any neighbor inside the ellipsoid condition
    owner = np.repeat(np.arange(len(ordered)),
                      np.array([len(r.robot_ids) - 1 for r in ordered], dtype=int))
    neighbors = np.concatenate([np.zeros((0, 3)), *(r.positions[1:] for r in ordered)])
    gt = np.zeros(len(ordered), dtype=bool)
    gt[owner[ellipsoid_margins(neighbors - ego_t[owner], ellipsoid) < DOWNWASH_MARGIN]] = True

    # perceived positions in the world frame, one (P, 3) block per frame
    if mode == "omni":
        seen, owner_seen = neighbors, owner
    else:
        counts, estimates = _perceived(ordered, camera, mode, noise, geom)
        owner_seen = np.repeat(np.arange(len(ordered)), counts)
        c2w_q, c2w_t = camera_to_world_arrays(ego_q, ego_t, camera)
        seen = quat_rotate(c2w_q[owner_seen], estimates) + c2w_t[owner_seen]
    bounds = np.searchsorted(owner_seen, np.arange(len(ordered) + 1)).tolist()
    w2c_q, w2c_t = world_to_camera_arrays(ego_q, ego_t, camera)

    positions = np.zeros((0, 3))
    results = []
    for f, record in enumerate(ordered):
        if mode == "omni":
            visible = np.ones(len(positions), dtype=bool)
        else:
            visible = _visible(positions, w2c_q[f], w2c_t[f], camera)
        frame_seen = seen[bounds[f]:bounds[f + 1]]
        old, new = _belief_step(positions, visible, frame_seen)
        positions = np.concatenate([positions[old], frame_seen[new]])
        results.append(DownwashFrameResult(
            frame_id=record.annotation.frame_id, gt_downwash=bool(gt[f]),
            pred_downwash=_predict(positions, ego_t[f], ellipsoid),
        ))
    return results


def run_downwash_eval(
    tracks: Sequence[PoseTrack],
    camera: CameraModel,
    frames: Sequence[float],
    ellipsoid: EllipsoidSpec,
    ego_id: str | None = None,
    geom: RobotGeometry = DEFAULT_ROBOT_GEOMETRY,
    mode: str = "oracle",
    noise: NoiseModel | None = None,
) -> list[DownwashFrameResult]:
    """Full per-frame evaluation from pose tracks and a frame schedule."""
    if ego_id is None:
        ego_id = tracks[0].robot_id
    records = annotate_tracks(tracks, camera, geom, np.sort(np.asarray(frames, dtype=float)),
                              ego_id)
    return evaluate_downwash_records(records, camera, ellipsoid, mode=mode, noise=noise, geom=geom)
