"""Downwash proximity condition, belief-set tracking, and frame-wise prediction.

A robot pair is in downwash when the ellipsoid-normalized distance between
them drops below 2. The ego robot keeps a set of believed neighbor positions
in the world frame: any belief that reprojects into the current image is
dropped, then this frame's perceived neighbors, from `perception.perceive`,
are added back. Prediction tests the ellipsoid condition against every
surviving belief. `_evaluate_frames` holds the one implementation of this
rule and applies it to whole runs at once: `evaluate_downwash_records`
evaluates one annotated run, and `evaluate_cells` stacks a sweep's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .camera import (
    CameraIntrinsics,
    CameraModel,
    RunRecords,
    annotate_poses,
    camera_to_world_arrays,
    in_view,
    track_poses,
    world_to_camera_arrays,
)
from .geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    MAX_COORDINATE,
    PoseTrack,
    RobotGeometry,
    as_vec3,
    quat_rotate,
    require_finite,
)
from .perception import NoiseModel, perceive

DOWNWASH_MARGIN = 2.0
MIN_RADIUS = 1.0 / MAX_COORDINATE  # metres: separations within reach divided by it square finitely
MERGE_RADIUS = 0.1
# belief-frame pairs one lifetime-scan step tests at most; bounds its temporaries
SCAN_PAIRS = 4096
# frames of whole cells that one stacked evaluation holds at most (a larger
# cell runs alone); bounds its temporaries
STACK_FRAMES = 1 << 14

EVAL_MODES = ("oracle", "omni", "box", "grid")


@dataclass(frozen=True)
class EllipsoidSpec:
    """Axis-aligned safety ellipsoid radii (meters), each at least MIN_RADIUS."""

    rx: float = 0.15
    ry: float = 0.15
    rz: float = 0.3

    def __post_init__(self):
        for name in ("rx", "ry", "rz"):
            require_finite(f"ellipsoid {name}", getattr(self, name))
        if min(self.rx, self.ry, self.rz) < MIN_RADIUS:
            raise ValueError(f"ellipsoid radii must be at least {MIN_RADIUS:g} m, "
                             f"got {[self.rx, self.ry, self.rz]}")

    @classmethod
    def from_radii(cls, radii) -> "EllipsoidSpec":
        """The spec of a [rx, ry, rz] list or tuple; ValueError for any other count."""
        if not isinstance(radii, (list, tuple)) or len(radii) != 3:
            raise ValueError(f"ellipsoid must be 3 radii [rx, ry, rz], got {radii!r}")
        return cls(*radii)

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz], dtype=float)


def ellipsoid_margins(deltas, ellipsoid: EllipsoidSpec) -> np.ndarray:
    """Ellipsoid-normalized lengths of separation vectors (..., 3)."""
    return np.linalg.norm(np.asarray(deltas, dtype=float) / ellipsoid.as_array(), axis=-1)


def ellipsoid_margin(p_i, p_j, ellipsoid: EllipsoidSpec) -> float:
    """Ellipsoid-normalized separation; values below 2 mean downwash danger."""
    return float(ellipsoid_margins(as_vec3(p_i) - as_vec3(p_j), ellipsoid))


def _visible(positions: np.ndarray, w2c_q, w2c_t, intr: CameraIntrinsics) -> np.ndarray:
    """Mask of world positions (..., 3) that reproject into the image of the
    camera whose world->camera transform is (w2c_q, w2c_t); shapes broadcast."""
    return in_view(quat_rotate(w2c_q, positions) + w2c_t, intr)


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The merge test: mask of position pairs (..., 3) closer than MERGE_RADIUS;
    shapes broadcast."""
    return np.linalg.norm(a - b, axis=-1) < MERGE_RADIUS


def _absorbed(owner: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Mask of perceived positions (E, 3), grouped by their frame `owner`
    (E,), that a later position of the same frame absorbs: a row i + k with
    row i's owner, k below the widest frame's count."""
    absorbed = np.zeros(len(seen), dtype=bool)
    for k in range(1, np.bincount(owner).max(initial=0)):
        absorbed[:-k] |= (owner[k:] == owner[:-k]) & _near(seen[:-k], seen[k:])
    return absorbed


def _violates(positions: np.ndarray, ego_position, ellipsoid: EllipsoidSpec) -> np.ndarray:
    """Mask of world positions (..., 3) that violate the ellipsoid condition
    around the ego position; shapes broadcast."""
    return ellipsoid_margins(positions - ego_position, ellipsoid) < DOWNWASH_MARGIN


def _scan_lifetimes(
    positions: np.ndarray,
    born_at: np.ndarray,
    end: np.ndarray,
    frame_seen: np.ndarray,
    w2c_q: np.ndarray,
    w2c_t: np.ndarray,
    ego_t: np.ndarray,
    intr: CameraIntrinsics,
    ellipsoid: EllipsoidSpec,
) -> np.ndarray:
    """Frames (F,) at which a belief violates the ellipsoid condition after
    the frame it was born in.

    A belief at world position `positions[i]`, born in frame `born_at[i]`,
    dies at the first later frame where it reprojects into the image or lies
    within MERGE_RADIUS of a position perceived in that frame (`frame_seen`,
    (F, P, 3) padded with NaN), and at frame `end[born_at[i]]`, its run's
    end; no other belief affects that. The frames' world-to-camera transforms
    are (w2c_q, w2c_t) and their ego positions `ego_t`. Each step tests the
    live beliefs against their next `width` frames, at most SCAN_PAIRS
    belief-frame pairs at a time (one belief when `width` is larger); `width`
    doubles, up to F, while beliefs survive.
    """
    n_frames = len(ego_t)
    pred = np.zeros(n_frames, dtype=bool)
    live, start, width = np.arange(len(positions)), born_at + 1, 1
    while live.size:
        survivors, size = [], max(1, SCAN_PAIRS // width)
        for chunk in (live[lo:lo + size] for lo in range(0, live.size, size)):
            frames = start[chunk, None] + np.arange(width)
            past_end = frames >= end[born_at[chunk], None]
            frames = np.minimum(frames, n_frames - 1)
            belief = positions[chunk, None]
            dies = (past_end | _visible(belief, w2c_q[frames], w2c_t[frames], intr)
                    | _near(belief[:, :, None], frame_seen[frames]).any(axis=-1))
            lives = ~np.logical_or.accumulate(dies, axis=1)
            pred[frames[lives & _violates(belief, ego_t[frames], ellipsoid)]] = True
            survivors.append(chunk[lives[:, -1]])
        live = np.concatenate(survivors)
        start[live] += width
        width = min(2 * width, n_frames)
    return pred


def _evaluate_frames(
    records: RunRecords,
    order: np.ndarray,
    end: np.ndarray,
    intr: CameraIntrinsics,
    mount_q,
    mount_t,
    ellipsoid: EllipsoidSpec,
    mode: str,
    noise: NoiseModel | None,
    radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth and prediction (F,) of the frames of `records` taken in
    `order`, the belief protocol's frame order.

    The frame at place i of `order` belongs to a run that ends before place
    `end[i]`, and is seen through the robot-to-camera mount (mount_q[i],
    mount_t[i]); one mount (4,) / (3,) serves every frame. Every frame
    shares the intrinsics `intr`, and every robot the sphere radius `radius`.

    Ground truth, perception and every frame's camera transforms are
    computed up front. Every perceived position that no later position of
    its frame absorbs is born as a belief, and a belief's lifetime depends on
    no other belief, so prediction is the birth frames plus `_scan_lifetimes`
    over all beliefs at once. In `omni` mode every belief dies in the frame
    after its birth.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}; expected one of {EVAL_MODES}")
    if mode in ("box", "grid") and noise is None:
        raise ValueError(f"mode {mode!r} needs a NoiseModel")
    n_frames = len(order)
    if not n_frames:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    ego_q, ego_t = records.quats[order, 0], records.positions[order, 0]

    # ground truth: any neighbor inside the ellipsoid condition
    neighbors = records.positions[order, 1:]
    gt = _violates(neighbors, ego_t[:, None], ellipsoid).any(axis=1)

    # perceived positions in the world frame, padded to (F, P, 3) by frame
    if mode == "omni":
        seen = neighbors.reshape(-1, 3)
        owner_seen = np.repeat(np.arange(n_frames), neighbors.shape[1])
    else:
        owner, estimates = perceive(records, mode, noise, intr, radius)
        # each estimate's place in `order`; a stable sort keeps a frame's estimates in order
        rank = np.empty_like(order)
        rank[order] = np.arange(n_frames)
        rows = np.argsort(rank[owner], kind="stable")
        owner_seen, estimates = rank[owner][rows], estimates[rows]
        c2w_q, c2w_t = camera_to_world_arrays(ego_q, ego_t, mount_q, mount_t)
        seen = quat_rotate(c2w_q[owner_seen], estimates) + c2w_t[owner_seen]
    first = np.searchsorted(owner_seen, np.arange(n_frames))
    slot = np.arange(len(seen)) - first[owner_seen]
    frame_seen = np.full((n_frames, int(slot.max(initial=-1)) + 1, 3), np.nan)
    frame_seen[owner_seen, slot] = seen

    born = ~_absorbed(owner_seen, seen)
    positions, born_at = seen[born], owner_seen[born]
    pred = np.zeros(n_frames, dtype=bool)
    pred[born_at[_violates(positions, ego_t[born_at], ellipsoid)]] = True
    if mode != "omni":
        w2c_q, w2c_t = world_to_camera_arrays(ego_q, ego_t, mount_q, mount_t)
        pred |= _scan_lifetimes(positions, born_at, end, frame_seen, w2c_q, w2c_t, ego_t,
                                intr, ellipsoid)
    return gt, pred


def evaluate_downwash_records(
    records: RunRecords,
    camera: CameraModel,
    ellipsoid: EllipsoidSpec,
    mode: str = "oracle",
    noise: NoiseModel | None = None,
    geom: RobotGeometry = DEFAULT_ROBOT_GEOMETRY,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame ids, ground truth and prediction (F,) of an annotated run, seen
    through the camera's one mount, in timestamp order regardless of row
    order; the belief update is order-dependent."""
    order = np.argsort(records.timestamps, kind="stable")
    gt, pred = _evaluate_frames(records, order, np.full(len(order), len(order)),
                                camera.intrinsics, camera.rotation, camera.translation,
                                ellipsoid, mode, noise, geom.sphere_radius)
    return records.frame_ids[order], gt, pred


class Cell(NamedTuple):
    """One run of a stacked evaluation: its camera, its frame times (F,) in
    ascending order, and `track_poses` at them: the robot ids, the ego first,
    and their positions (F, R, 3) and orientations (F, R, 4)."""

    camera: CameraModel
    times: np.ndarray
    robot_ids: tuple[str, ...]
    positions: np.ndarray
    quats: np.ndarray


def _evaluate_stack(
    stack: list[Cell],
    ellipsoid: EllipsoidSpec,
    geom: RobotGeometry,
    mode: str,
    noise: NoiseModel | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`evaluate_cells` of cells stacked, cell-major, into one run that is
    annotated and evaluated in one pass."""
    camera, robot_ids = stack[0].camera, stack[0].robot_ids
    for cell in stack:
        if cell.camera.intrinsics != camera.intrinsics or cell.robot_ids != robot_ids:
            raise ValueError("stacked cells must share the camera intrinsics and robot ids")
    lengths = [len(cell.times) for cell in stack]
    ends = np.cumsum(lengths)
    mount_q = np.repeat([cell.camera.rotation for cell in stack], lengths, axis=0)
    mount_t = np.repeat([cell.camera.translation for cell in stack], lengths, axis=0)
    # ids restart at 0 in each cell, so a noisy cell draws the generators it would alone
    frame_ids = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    records = annotate_poses(
        frame_ids, np.concatenate([cell.times for cell in stack]), robot_ids,
        np.concatenate([cell.positions for cell in stack]),
        np.concatenate([cell.quats for cell in stack]),
        mount_q, mount_t, camera.intrinsics, geom,
    )
    gt, pred = _evaluate_frames(records, np.arange(len(records)), np.repeat(ends, lengths),
                                camera.intrinsics, mount_q, mount_t, ellipsoid, mode, noise,
                                geom.sphere_radius)
    return [(gt[hi - n:hi], pred[hi - n:hi]) for n, hi in zip(lengths, ends.tolist())]


def evaluate_cells(
    cells: Iterable[Cell],
    ellipsoid: EllipsoidSpec,
    geom: RobotGeometry = DEFAULT_ROBOT_GEOMETRY,
    mode: str = "oracle",
    noise: NoiseModel | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ground truth and prediction (F,) of each cell's frames, in time order,
    as `evaluate_downwash_records` gives them for the cell's run alone.

    `cells` is read once, a cell at a time. Whole cells are stacked in order,
    up to STACK_FRAMES frames (a larger cell runs alone), and each stack is
    annotated and evaluated in one pass. Within a stack, frame ids restart at
    0 in each cell and every belief dies at its cell's end. Stacked cells
    must share the camera intrinsics and robot ids.
    """
    results, stack, size = [], [], 0
    for cell in cells:
        if stack and size + len(cell.times) > STACK_FRAMES:
            results += _evaluate_stack(stack, ellipsoid, geom, mode, noise)
            stack, size = [], 0
        stack.append(cell)
        size += len(cell.times)
    if stack:
        results += _evaluate_stack(stack, ellipsoid, geom, mode, noise)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth and prediction (F,) from pose tracks and a frame
    schedule, in time order: the one-cell case of `evaluate_cells`."""
    if ego_id is None:
        ego_id = tracks[0].robot_id
    times = np.sort(np.asarray(frames, dtype=float).reshape(-1))
    [result] = evaluate_cells([Cell(camera, times, *track_poses(tracks, times, ego_id))],
                              ellipsoid, geom, mode, noise)
    return result
