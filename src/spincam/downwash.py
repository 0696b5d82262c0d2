"""Downwash proximity condition, belief-set tracking, and frame-wise prediction.

A robot pair is in downwash when the ellipsoid-normalized distance between
them drops below 2. The ego robot keeps a set of believed neighbor positions
in the world frame: any belief that reprojects into the current image is
dropped, then this frame's perceived neighbors are added back. Prediction
simply tests the ellipsoid condition against every surviving belief.
`evaluate_downwash_records` holds the one implementation of this rule and
applies it to a whole run at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import (
    CameraModel,
    RunRecords,
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
    require_finite,
)
from .perception import (
    DEFAULT_GRID_COLS,
    DEFAULT_GRID_ROWS,
    NoiseModel,
    decode_box_rows,
    decode_grid_cells,
    detect_rows,
)

DOWNWASH_MARGIN = 2.0
MERGE_RADIUS = 0.1
# belief-frame pairs one lifetime-scan step tests at most; bounds its temporaries
SCAN_PAIRS = 4096

EVAL_MODES = ("oracle", "omni", "box", "grid")


@dataclass(frozen=True)
class EllipsoidSpec:
    """Axis-aligned safety ellipsoid radii (meters)."""

    rx: float = 0.15
    ry: float = 0.15
    rz: float = 0.3

    def __post_init__(self):
        for name in ("rx", "ry", "rz"):
            require_finite(f"ellipsoid {name}", getattr(self, name))
        if self.rx <= 0.0 or self.ry <= 0.0 or self.rz <= 0.0:
            raise ValueError("ellipsoid radii must be positive")

    @classmethod
    def from_radii(cls, radii) -> "EllipsoidSpec":
        """The spec of a [rx, ry, rz] list or tuple; ValueError for any other count."""
        if not isinstance(radii, (list, tuple)) or len(radii) != 3:
            raise ValueError(f"ellipsoid must be 3 radii [rx, ry, rz], got {radii!r}")
        return cls(*radii)

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])


def ellipsoid_margins(deltas, ellipsoid: EllipsoidSpec) -> np.ndarray:
    """Ellipsoid-normalized lengths of separation vectors (..., 3)."""
    return np.linalg.norm(np.asarray(deltas, dtype=float) / ellipsoid.as_array(), axis=-1)


def ellipsoid_margin(p_i, p_j, ellipsoid: EllipsoidSpec) -> float:
    """Ellipsoid-normalized separation; values below 2 mean downwash danger."""
    return float(ellipsoid_margins(as_vec3(p_i) - as_vec3(p_j), ellipsoid))


def _visible(positions: np.ndarray, w2c_q, w2c_t, camera: CameraModel) -> np.ndarray:
    """Mask of world positions (..., 3) that reproject into the image of the
    camera whose world->camera transform is (w2c_q, w2c_t); shapes broadcast."""
    return in_view(quat_rotate(w2c_q, positions) + w2c_t, camera.intrinsics)


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The merge test: mask of position pairs (..., 3) closer than MERGE_RADIUS;
    shapes broadcast."""
    return np.linalg.norm(a - b, axis=-1) < MERGE_RADIUS


def _absorbed(seen: np.ndarray) -> np.ndarray:
    """Mask of perceived positions (..., P, 3) that a later position of the
    same frame absorbs; NaN rows absorb nothing."""
    return np.triu(_near(seen[..., :, None, :], seen[..., None, :, :]), k=1).any(axis=-1)


def _violates(positions: np.ndarray, ego_position, ellipsoid: EllipsoidSpec) -> np.ndarray:
    """Mask of world positions (..., 3) that violate the ellipsoid condition
    around the ego position; shapes broadcast."""
    return ellipsoid_margins(positions - ego_position, ellipsoid) < DOWNWASH_MARGIN


@dataclass(frozen=True)
class DownwashFrameResult:
    frame_id: int
    gt_downwash: bool
    pred_downwash: bool


def _perceived(
    records: RunRecords,
    order: np.ndarray,
    camera: CameraModel,
    mode: str,
    noise: NoiseModel,
    geom: RobotGeometry,
) -> tuple[np.ndarray, np.ndarray]:
    """Perception of the frames taken in `order`: each estimate's frame as
    its place in `order` (E,), ascending, and the camera-frame estimates
    (E, 3).

    The detector and decoder run frame by frame on the run's neighbor rows;
    grid mode reuses one grid buffer, cleared after every frame. Every
    frame's generator draws what its `frame_rng` would, from PCG64 words
    that one `seeding.frame_seeds` call gives for the whole run.
    """
    if mode == "oracle":
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        owner = rank[records.owner]
        rows = np.argsort(owner, kind="stable")
        return owner[rows], records.rel_positions[rows]
    # imported here: it loads numpy.random, which an oracle run never needs
    from .seeding import FrameSeed, frame_seeds

    intr, radius = camera.intrinsics, geom.sphere_radius
    bounds = np.searchsorted(records.owner, np.arange(len(records) + 1)).tolist()
    frame_ids = records.frame_ids.tolist()
    seeds = frame_seeds(noise.rng_seed, records.frame_ids)
    rel_positions, centers = records.rel_positions.tolist(), records.centers.tolist()
    bboxes = records.bboxes.tolist()
    grid = np.zeros((2, DEFAULT_GRID_ROWS, DEFAULT_GRID_COLS))
    counts, positions = [], []
    for f in order.tolist():
        lo, hi = bounds[f], bounds[f + 1]
        rng = np.random.Generator(np.random.PCG64(
            FrameSeed(noise.rng_seed, frame_ids[f], seeds[f])))
        detections = detect_rows(rng, rel_positions[lo:hi], centers[lo:hi], bboxes[lo:hi],
                                 noise, intr, mode, radius, grid)
        if mode == "box":
            estimates = decode_box_rows(detections, intr, radius)
        else:
            estimates = decode_grid_cells(*grid, intr)
            grid.fill(0.0)
        counts.append(len(estimates))
        positions.extend(estimates)
    return (np.repeat(np.arange(len(order)), counts),
            np.array(positions, dtype=float).reshape(-1, 3))


def _scan_lifetimes(
    positions: np.ndarray,
    born_at: np.ndarray,
    frame_seen: np.ndarray,
    ego_q: np.ndarray,
    ego_t: np.ndarray,
    camera: CameraModel,
    ellipsoid: EllipsoidSpec,
) -> np.ndarray:
    """Frames (F,) at which a belief violates the ellipsoid condition after
    the frame it was born in.

    A belief at world position `positions[i]`, born in frame `born_at[i]`,
    dies at the first later frame where it reprojects into the image or lies
    within MERGE_RADIUS of a position perceived in that frame (`frame_seen`,
    (F, P, 3) padded with NaN); no other belief affects that. Each step tests
    the live beliefs against their next `width` frames, at most SCAN_PAIRS
    belief-frame pairs at a time (one belief when `width` is larger); `width`
    doubles, up to F, while beliefs survive.
    """
    n_frames = len(ego_t)
    w2c_q, w2c_t = world_to_camera_arrays(ego_q, ego_t, camera)
    pred = np.zeros(n_frames, dtype=bool)
    live, start, width = np.arange(len(positions)), born_at + 1, 1
    while live.size:
        survivors, size = [], max(1, SCAN_PAIRS // width)
        for chunk in (live[lo:lo + size] for lo in range(0, live.size, size)):
            frames = start[chunk, None] + np.arange(width)
            past_end = frames >= n_frames
            frames = np.minimum(frames, n_frames - 1)
            belief = positions[chunk, None]
            dies = (past_end | _visible(belief, w2c_q[frames], w2c_t[frames], camera)
                    | _near(belief[:, :, None], frame_seen[frames]).any(axis=-1))
            lives = ~np.logical_or.accumulate(dies, axis=1)
            pred[frames[lives & _violates(belief, ego_t[frames], ellipsoid)]] = True
            survivors.append(chunk[lives[:, -1]])
        live = np.concatenate(survivors)
        start[live] += width
        width = min(2 * width, n_frames)
    return pred


def evaluate_downwash_records(
    records: RunRecords,
    camera: CameraModel,
    ellipsoid: EllipsoidSpec,
    mode: str = "oracle",
    noise: NoiseModel | None = None,
    geom: RobotGeometry = DEFAULT_ROBOT_GEOMETRY,
) -> list[DownwashFrameResult]:
    """Run the belief protocol over an annotated run.

    Frames are processed in timestamp order regardless of row order; the
    belief update is order-dependent. Ground truth, perception and every
    frame's camera transforms are computed up front. Every perceived
    position that no later position of its frame absorbs is born as a
    belief, and a belief's lifetime depends on no other belief, so
    prediction is the birth frames plus `_scan_lifetimes` over all beliefs
    at once. In `omni` mode every belief dies in the frame after its birth.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}; expected one of {EVAL_MODES}")
    if mode in ("box", "grid") and noise is None:
        raise ValueError(f"mode {mode!r} needs a NoiseModel")
    order = np.argsort(records.timestamps, kind="stable")
    n_frames = len(order)
    if not n_frames:
        return []
    ego_q, ego_t = records.quats[order, 0], records.positions[order, 0]

    # ground truth: any neighbor inside the ellipsoid condition
    neighbors = records.positions[order, 1:]
    gt = _violates(neighbors, ego_t[:, None], ellipsoid).any(axis=1)

    # perceived positions in the world frame, padded to (F, P, 3) by frame
    if mode == "omni":
        seen = neighbors.reshape(-1, 3)
        owner_seen = np.repeat(np.arange(n_frames), neighbors.shape[1])
    else:
        owner_seen, estimates = _perceived(records, order, camera, mode, noise, geom)
        c2w_q, c2w_t = camera_to_world_arrays(ego_q, ego_t, camera)
        seen = quat_rotate(c2w_q[owner_seen], estimates) + c2w_t[owner_seen]
    first = np.searchsorted(owner_seen, np.arange(n_frames))
    slot = np.arange(len(seen)) - first[owner_seen]
    frame_seen = np.full((n_frames, int(slot.max(initial=-1)) + 1, 3), np.nan)
    frame_seen[owner_seen, slot] = seen

    born = ~_absorbed(frame_seen)[owner_seen, slot]
    positions, born_at = seen[born], owner_seen[born]
    pred = np.zeros(n_frames, dtype=bool)
    pred[born_at[_violates(positions, ego_t[born_at], ellipsoid)]] = True
    if mode != "omni":
        pred |= _scan_lifetimes(positions, born_at, frame_seen, ego_q, ego_t, camera, ellipsoid)
    return [
        DownwashFrameResult(frame_id=f, gt_downwash=g, pred_downwash=p)
        for f, g, p in zip(records.frame_ids[order].tolist(), gt.tolist(), pred.tolist())
    ]


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
