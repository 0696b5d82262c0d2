"""Detection decoding and simulated detectors.

Two decoding routes are supported: bounding boxes decoded through the
sphere-subtense distance model, and confidence/depth grids decoded by
inverting the pinhole projection. A configurable noise model stands in for
the neural detectors so the evaluation protocol can run without images.

`detect_rows` simulates the detector on one frame's neighbor rows, in the
`RunRecords` layout, with that frame's `frame_rng`. Each route has one
decoder, which takes many detections at once: `_box_positions` decodes box
rows with one BLAS pass for all their rays' dots, and `decode_grid_frames`
finds the peaks of a stack of grids with one threshold pass. Per element,
each does scalar arithmetic, so a position has the same bits however many
are decoded together. `perceive` is a run's perception pass: it runs the
detector frame by frame, every frame's generator seeded from one
`seeding.frame_seeds` pass, and decodes BATCH_FRAMES frames at a time.
`simulate_detector`, `decode_box`, `decode_grid` and `decode_detections` are
the one-frame and one-row cases, over a `FrameAnnotation`, a
`GridDetectionMap` and `PositionEstimate`s.

A quiet frame, one with no neighbor rows whose false-positive count the
first uniform of its stream alone makes 0 (`_quiet_below`), detects
nothing: neither path builds its generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraIntrinsics,
    FrameAnnotation,
    RunRecords,
    back_project,
    undistort_normalized,
)
from .errors import DegenerateBox, NonPositiveDepth, OutOfRange
from .geometry import DEFAULT_ROBOT_GEOMETRY, is_count, is_numbers, require_finite

DEFAULT_GRID_ROWS = 28
DEFAULT_GRID_COLS = 40
DEFAULT_GRID_THRESHOLD = 0.5
# Upper bound on NoiseModel.false_positive_rate, the mean number of fabricated
# detections per frame; each one is drawn one by one.
MAX_FALSE_POSITIVE_RATE = 100.0
# Frames whose detections `perceive` decodes together; their grids are a
# (2, 8, 28, 40) buffer of float64, 143 KB
BATCH_FRAMES = 8


@dataclass(eq=False)
class GridDetectionMap:
    """Confidence and depth channels over a coarse detection grid; their
    (rows, cols) shape is the grid's."""

    confidence: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        self.confidence = np.asarray(self.confidence, dtype=float)
        self.depth = np.asarray(self.depth, dtype=float)
        if self.confidence.ndim != 2 or self.depth.shape != self.confidence.shape:
            raise ValueError(f"channels must be two (rows, cols) arrays of one shape, got "
                             f"{self.confidence.shape} and {self.depth.shape}")
        if not (np.isfinite(self.confidence).all() and np.isfinite(self.depth).all()):
            raise ValueError("confidence and depth must be finite")

    @staticmethod
    def zeros(rows: int = DEFAULT_GRID_ROWS, cols: int = DEFAULT_GRID_COLS) -> "GridDetectionMap":
        """An all-zero map. Its channels are finite and of one shape as made,
        so it skips the constructor's checks, which cost more than the map."""
        gmap = object.__new__(GridDetectionMap)
        gmap.confidence, gmap.depth = np.zeros((rows, cols)), np.zeros((rows, cols))
        return gmap


@dataclass(frozen=True)
class NoiseModel:
    """Detector error model; all draws derive from rng_seed and frame id."""

    pixel_sigma: float = 1.0
    depth_rel_sigma: float = 0.1
    miss_rate: float = 0.1
    false_positive_rate: float = 0.05
    true_confidence: tuple[float, float] = (0.6, 1.0)
    false_confidence: tuple[float, float] = (0.3, 0.7)
    rng_seed: int = 0

    def __post_init__(self):
        for name, hi in (("pixel_sigma", math.inf), ("depth_rel_sigma", math.inf),
                         ("miss_rate", 1.0), ("false_positive_rate", MAX_FALSE_POSITIVE_RATE)):
            value = getattr(self, name)
            require_finite(name, value)
            if not 0.0 <= value <= hi:
                raise ValueError(f"{name} must be in [0, {hi}], got {value}")
        for name in ("true_confidence", "false_confidence"):
            pair = getattr(self, name)
            if not (is_numbers(pair, 2) and 0.0 <= pair[0] <= pair[1] <= 1.0):
                raise ValueError(f"{name} must be [lo, hi] with 0 <= lo <= hi <= 1, got {pair}")
        if not is_count(self.rng_seed):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")


@dataclass(frozen=True, eq=False)
class PositionEstimate:
    position: np.ndarray  # camera frame

    def __post_init__(self):
        if self.position[2] <= 0.0:
            raise ValueError("estimate depth must be positive")


def _dots(a: list, b: list | None = None) -> list[float]:
    """Dot products of the rows (3,) of a with those of b, or with
    themselves. Each equals `np.array(a[k]).dot(b[k])` bitwise: a stacked
    vector-vector matmul calls the BLAS dot that `ndarray.dot` does, whose
    order of summation `np.einsum` and a plain `x*x + y*y + z*z` do not
    keep."""
    a = np.array(a, dtype=float).reshape(-1, 3)
    b = a if b is None else np.array(b, dtype=float).reshape(-1, 3)
    return np.matmul(a[:, None, :], b[:, :, None]).ravel().tolist()


def _box_positions(boxes: list, intr: CameraIntrinsics,
                   radius: float) -> tuple[list[int], np.ndarray]:
    """The rows of the boxes, a list of rows whose first four entries are a
    box (u_min, v_min, u_max, v_max), that give a position, ascending, and
    their camera-frame positions (M, 3) for spheres of the known radius.

    A box's rays pass through the midpoints of its left and right edges,
    undistorted as `back_project` does; the angle alpha between them fixes
    the range, radius / sin(alpha / 2), and their bisector the direction. A
    box gives no position when it has no width (rounding can leave equal
    rays a tiny angle apart), when an edge midpoint lies past the lens's
    reach or its undistorted point's squared norm is not finite (huge
    pixels), or when its rays subtend no angle or are antipodal.

    The rays, then the ray pairs' cosines and bisectors, take their BLAS
    dots in one pass each over all the boxes (`_dots`). The rest is scalar
    arithmetic per box, with min/max clipping a float to the value np.clip
    gives, NaN included, so a position has the same bits however many boxes
    are decoded together."""
    cx, cy, fx, fy, k1 = intr.cx, intr.cy, intr.fx, intr.fy, intr.k1
    rows, points = [], []
    for k, (u_min, v_min, u_max, v_max, *_rest) in enumerate(boxes):
        if u_max <= u_min:
            continue
        yd = (0.5 * (v_min + v_max) - cy) / fy
        try:
            x1, y1 = undistort_normalized((u_min - cx) / fx, yd, k1)
            x2, y2 = undistort_normalized((u_max - cx) / fx, yd, k1)
        except OutOfRange:
            continue
        if not (x1 * x1 + y1 * y1 < math.inf and x2 * x2 + y2 * y2 < math.inf):
            continue
        points += ((x1, y1, 1.0), (x2, y2, 1.0))
        rows.append(k)
    # a ray is its point at depth 1 over the point's norm
    rays = [(x / n, y / n, z / n) for (x, y, z), n in zip(points, map(math.sqrt, _dots(points)))]
    a1, a2 = rays[0::2], rays[1::2]
    centers = [(0.5 * (x1 + x2), 0.5 * (y1 + y2), 0.5 * (z1 + z2))
               for (x1, y1, z1), (x2, y2, z2) in zip(a1, a2)]
    # one BLAS pass: the pairs' cosines, then the centers' squared norms
    dots = _dots(a1 + centers, a2 + centers)
    decoded, positions = [], []
    for k, cosine, square, (x, y, z) in zip(rows, dots, dots[len(rows):], centers):
        alpha, norm = math.acos(min(max(cosine, -1.0), 1.0)), math.sqrt(square)
        if alpha <= 0.0 or norm == 0.0:
            continue
        d = radius / math.sin(0.5 * alpha)
        decoded.append(k)
        positions.append((d * x / norm, d * y / norm, d * z / norm))
    return decoded, np.array(positions, dtype=float).reshape(-1, 3)


def decode_box(box, intr: CameraIntrinsics, radius: float) -> PositionEstimate:
    """Relative position from a box (u_min, v_min, u_max, v_max) and the
    known robot radius: the one-row case of `_box_positions`. Raises
    DegenerateBox when the box gives no position."""
    row = [float(value) for value in box]
    _rows, positions = _box_positions([row], intr, radius)
    if not len(positions):
        raise DegenerateBox(f"box {row} gives no position: it has no width, an edge past "
                            "the lens's reach or the float range, or rays that subtend no angle")
    return PositionEstimate(position=positions[0])


def grid_cell_center(row: int, col: int, intr: CameraIntrinsics, rows: int,
                     cols: int) -> tuple[float, float]:
    """Pixel (u, v) at the center of a grid cell (anisotropic stride)."""
    return (col + 0.5) * intr.width / cols, (row + 0.5) * intr.height / rows


def grid_cell_of(pixel, intr: CameraIntrinsics, rows: int, cols: int) -> tuple[int, int]:
    """The (row, col) grid cell of a pixel (u, v), clamped to the grid."""
    u, v = pixel
    row = min(rows - 1, max(0, int(v * rows / intr.height)))
    col = min(cols - 1, max(0, int(u * cols / intr.width)))
    return row, col


def _claims_cell(confidence: np.ndarray, depths: np.ndarray, row: int, col: int,
                 depth: float) -> bool:
    """The grid's one slot per cell: a detection takes its cell unless the
    cell already holds one at the same or a nearer depth."""
    return not (confidence[row, col] > 0.0 and depths[row, col] <= depth)


def encode_grid(
    annotation: FrameAnnotation,
    intr: CameraIntrinsics,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
) -> GridDetectionMap:
    """Training-target grid for a frame: confidence 1 plus depth per neighbor.

    Two neighbors falling in one cell keep only the nearer depth, mirroring
    the single-slot-per-cell limitation of the grid detector.
    """
    gmap = GridDetectionMap.zeros(rows, cols)
    for neighbor in annotation.neighbors:
        row, col = grid_cell_of(neighbor.center, intr, rows, cols)
        depth = float(neighbor.rel_position[2])
        if _claims_cell(gmap.confidence, gmap.depth, row, col, depth):
            gmap.confidence[row, col] = 1.0
            gmap.depth[row, col] = depth
    return gmap


@functools.lru_cache(maxsize=8)
def _grid_cells(intr: CameraIntrinsics, rows: int, cols: int) -> tuple[list, np.ndarray]:
    """Every cell of a (rows, cols) grid, in flat order: the flat offsets of
    its neighbors inside the grid, one tuple shared by the cells of one
    border, and the normalized coordinates (rows * cols, 2) of its center,
    whose `back_project` point at depth z is (z x, z y, z)."""
    shared, offsets, centers = {}, [], np.empty((rows * cols, 2))
    for row in range(rows):
        for col in range(cols):
            near = tuple(dr * cols + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                         if (dr or dc) and 0 <= row + dr < rows and 0 <= col + dc < cols)
            offsets.append(shared.setdefault(near, near))
            center = grid_cell_center(row, col, intr, rows, cols)
            centers[len(offsets) - 1] = back_project(center, 1.0, intr)[:2]
    return offsets, centers


def decode_grid_frames(
    confidence: np.ndarray,
    depth: np.ndarray,
    intr: CameraIntrinsics,
    threshold: float = DEFAULT_GRID_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions back-projected from every thresholded 8-connected peak of a
    stack of (rows, cols) confidence grids (F, rows, cols), or of one grid
    (rows, cols), at the depth of its cell: the frame (E,) of each,
    ascending, and its position (E, 3).

    One array pass finds every frame's cells not below the threshold, in
    frame then row-major order. Such a cell is a peak unless a neighbor holds
    more; a neighbor below the threshold holds less, so only the found cells
    are compared. A peak's position is the scalar arithmetic of
    `back_project`; like it, this raises NonPositiveDepth when the depth is
    not positive."""
    rows, cols = confidence.shape[-2:]
    cells = confidence.reshape(-1)
    # flat indices: a 1-D nonzero costs less than a 3-D one
    found = (~(cells < threshold)).nonzero()[0]
    if not len(found):
        return found, np.empty((0, 3))
    values = dict(zip(found.tolist(), cells[found].tolist()))
    offsets, centers = _grid_cells(intr, rows, cols)
    size, depths = rows * cols, depth.reshape(-1)
    frames, positions = [], []
    for cell, value in values.items():
        if any(values.get(cell + offset, value) > value for offset in offsets[cell % size]):
            continue
        z = depths.item(cell)
        if z <= 0.0:
            raise NonPositiveDepth(f"depth {z} is not positive")
        x, y = centers.item(cell % size, 0), centers.item(cell % size, 1)
        frames.append(cell // size)
        positions.append((z * x, z * y, z))
    return np.array(frames, dtype=np.int64), np.array(positions, dtype=float).reshape(-1, 3)


def decode_grid(
    gmap: GridDetectionMap,
    intr: CameraIntrinsics,
    threshold: float = DEFAULT_GRID_THRESHOLD,
) -> list[PositionEstimate]:
    """Back-project every thresholded 8-connected confidence peak (see
    `decode_grid_frames`)."""
    _frames, positions = decode_grid_frames(gmap.confidence, gmap.depth, intr, threshold)
    return [PositionEstimate(position=p) for p in positions]


@functools.cache
def _seeding():
    """`spincam.seeding`, imported on first use: it loads numpy.random, which
    an oracle run never needs."""
    from . import seeding

    return seeding


def frame_rng(noise: NoiseModel, frame_id: int) -> np.random.Generator:
    """The generator of every detector draw for one frame: the stream of
    `np.random.default_rng([noise.rng_seed, frame_id])`, seeded from a cached
    block of `seeding.frame_seeds` rows (see `seeding.frame_generator`)."""
    return _seeding().frame_generator(noise.rng_seed, frame_id)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)`, bitwise, for finite bounds: numpy's draw is
    this `lo + (hi - lo) * random()`, behind argument handling that costs
    three times as much."""
    return lo + (hi - lo) * rng.random()


def detect_rows(
    rng: np.random.Generator,
    rel_positions,
    centers,
    bboxes,
    noise: NoiseModel,
    intr: CameraIntrinsics,
    mode: str,
    radius: float,
    grid,
) -> list[tuple[float, ...]]:
    """Noisy detector output for one frame's neighbor rows, drawn from the
    frame's `frame_rng` in a fixed order.

    Row k of `rel_positions` (3 floats), `centers` (2) and `bboxes` (4) is
    one visible neighbor. Box mode returns one (u_min, v_min, u_max, v_max,
    confidence) tuple per detection and ignores `grid`. Any other mode is
    grid mode: it writes the detections into `grid`, a pair of (rows, cols)
    confidence and depth channels that must hold zeros, and returns no
    tuples. `radius` sizes the fabricated false-positive boxes.
    """
    kept = [k for k in range(len(bboxes)) if rng.random() >= noise.miss_rate]
    n_false = int(rng.poisson(noise.false_positive_rate))

    if mode == "box":
        detections = []
        for k in kept:
            u_min, v_min, u_max, v_max = bboxes[k]
            du = rng.normal(0.0, noise.pixel_sigma, size=4).tolist()
            u_lo, u_hi = sorted((u_min + du[0], u_max + du[1]))
            v_lo, v_hi = sorted((v_min + du[2], v_max + du[3]))
            detections.append((u_lo, v_lo, u_hi, v_hi, _uniform(rng, *noise.true_confidence)))
        for _ in range(n_false):
            depth = _uniform(rng, 0.5, 3.0)
            half_w = intr.fx * radius / depth
            half_h = intr.fy * radius / depth
            # a box wider or taller than the image is centred on it
            cu = _uniform(rng, min(half_w, intr.width / 2),
                          max(intr.width - half_w, intr.width / 2))
            cv = _uniform(rng, min(half_h, intr.height / 2),
                          max(intr.height - half_h, intr.height / 2))
            detections.append((cu - half_w, cv - half_h, cu + half_w, cv + half_h,
                               _uniform(rng, *noise.false_confidence)))
        return detections

    confidence, depths = grid
    rows, cols = confidence.shape
    for k in kept:
        u, v = centers[k]
        du, dv = rng.normal(0.0, noise.pixel_sigma, size=2).tolist()
        # min/max clip a float to the value np.clip gives, NaN included
        center = (min(max(u + du, 0.0), intr.width - 1e-9),
                  min(max(v + dv, 0.0), intr.height - 1e-9))
        # rng.normal(0.0, s), bitwise: numpy draws 0.0 + s * standard_normal() too
        depth = float(rel_positions[k][2]) * (
            1.0 + (0.0 + noise.depth_rel_sigma * rng.standard_normal()))
        depth = max(depth, 1e-3)
        row, col = grid_cell_of(center, intr, rows, cols)
        if _claims_cell(confidence, depths, row, col, depth):
            confidence[row, col] = _uniform(rng, *noise.true_confidence)
            depths[row, col] = depth
    for _ in range(n_false):
        row = int(rng.integers(0, rows))
        col = int(rng.integers(0, cols))
        if confidence[row, col] > 0.0:
            continue
        confidence[row, col] = _uniform(rng, *noise.false_confidence)
        depths[row, col] = _uniform(rng, 0.5, 3.0)
    return []


def _quiet_below(noise: NoiseModel) -> float:
    """The first uniforms at or below which a frame with no neighbor rows
    detects nothing. Its one draw is numpy's poisson(lam), which below lam 10
    multiplies uniforms while the product is above exp(-lam), so it is 0
    exactly when the first uniform is not; at lam 0 it draws nothing, and
    from 10 on it takes its PTRS branch, which one uniform does not decide."""
    lam = noise.false_positive_rate
    return math.exp(-lam) if lam < 10.0 else -1.0


def perceive(records: RunRecords, mode: str, noise: NoiseModel | None, intr: CameraIntrinsics,
             radius: float) -> tuple[np.ndarray, np.ndarray]:
    """A run's perception in `mode` ("oracle", "box" or "grid"): each
    perceived position's frame row (E,), ascending, and its camera-frame
    position (E, 3). `radius` is the robots' sphere radius.

    Oracle perception is the visible neighbors' true positions. Box and grid
    perception run `detect_rows` on every frame that is not quiet, each
    frame's generator seeded from one `seeding.frame_seeds` pass over the
    run, with the stream that `frame_rng` gives. Every BATCH_FRAMES such
    frames, their detections are decoded together: box mode's rows in one
    `_box_positions` pass, and grid mode's grids, written into one buffer, in
    one `decode_grid_frames` pass."""
    if mode == "oracle":
        return records.owner, records.rel_positions
    seeding = _seeding()
    bounds = np.searchsorted(records.owner, np.arange(len(records) + 1))
    seeds = seeding.frame_seeds(noise.rng_seed, records.frame_ids)
    quiet = (np.diff(bounds) == 0) & (seeding.first_uniforms(seeds) <= _quiet_below(noise))
    busy, bounds = np.flatnonzero(~quiet).tolist(), bounds.tolist()
    frame_ids = records.frame_ids.tolist()
    rel_positions, centers = records.rel_positions.tolist(), records.centers.tolist()
    bboxes = records.bboxes.tolist()

    def detect(f, grid):
        lo, hi = bounds[f], bounds[f + 1]
        return detect_rows(seeding.frame_generator(noise.rng_seed, frame_ids[f], seeds[f]),
                           rel_positions[lo:hi], centers[lo:hi], bboxes[lo:hi],
                           noise, intr, mode, radius, grid)

    if mode != "box":
        grids = np.zeros((2, BATCH_FRAMES, DEFAULT_GRID_ROWS, DEFAULT_GRID_COLS))
    owners, positions = [np.empty(0, dtype=np.int64)], [np.empty((0, 3))]
    for start in range(0, len(busy), BATCH_FRAMES):
        frames = busy[start:start + BATCH_FRAMES]
        if mode == "box":
            owner, rows = [], []
            for f in frames:
                detections = detect(f, None)
                owner += [f] * len(detections)
                rows += detections
            decoded, estimates = _box_positions(rows, intr, radius)
            owners.append(np.array([owner[k] for k in decoded], dtype=np.int64))
        else:
            for k, f in enumerate(frames):
                detect(f, (grids[0, k], grids[1, k]))
            frame, estimates = decode_grid_frames(grids[0, :len(frames)], grids[1, :len(frames)],
                                                  intr)
            owners.append(np.array(frames, dtype=np.int64)[frame])
            grids.fill(0.0)
        positions.append(estimates)
    return np.concatenate(owners), np.concatenate(positions)


def simulate_detector(
    annotation: FrameAnnotation,
    noise: NoiseModel,
    intr: CameraIntrinsics,
    mode: str,
    radius: float = DEFAULT_ROBOT_GEOMETRY.sphere_radius,
):
    """Noisy detector output for one annotated frame (see `detect_rows`).

    Box mode returns a (D, 5) array, one row (u_min, v_min, u_max, v_max,
    confidence) per detection; grid mode returns a GridDetectionMap. All
    randomness is derived from (rng_seed, frame_id), so repeated calls are
    bit-identical. `radius` sizes the fabricated false-positive boxes.
    """
    if mode not in ("box", "grid"):
        raise ValueError(f"unknown detector mode {mode!r}")
    neighbors = annotation.neighbors
    if not neighbors and (_seeding().frame_row(noise.rng_seed, annotation.frame_id)[1]
                          <= _quiet_below(noise)):  # a quiet frame
        return np.empty((0, 5)) if mode == "box" else GridDetectionMap.zeros()
    rng = frame_rng(noise, annotation.frame_id)
    rows = ([n.rel_position for n in neighbors], [n.center.tolist() for n in neighbors],
            [n.bbox.tolist() for n in neighbors])
    if mode == "box":
        detections = detect_rows(rng, *rows, noise, intr, mode, radius, grid=None)
        return np.array(detections, dtype=float).reshape(-1, 5)
    gmap = GridDetectionMap.zeros()
    detect_rows(rng, *rows, noise, intr, mode, radius, (gmap.confidence, gmap.depth))
    return gmap


def decode_detections(
    output,
    intr: CameraIntrinsics,
    radius: float = DEFAULT_ROBOT_GEOMETRY.sphere_radius,
) -> list[PositionEstimate]:
    """Decode either detector output form into position estimates: one
    frame of `decode_grid_frames`, or the (D, 5) box rows in one
    `_box_positions` pass."""
    if isinstance(output, GridDetectionMap):
        return decode_grid(output, intr)
    if not len(output):  # most frames: skip the decoder's fixed cost
        return []
    _rows, positions = _box_positions(output.tolist(), intr, radius)
    return [PositionEstimate(position=p) for p in positions]
