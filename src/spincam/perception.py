"""Detection decoding and simulated detectors.

Two decoding routes are supported: bounding boxes decoded through the
sphere-subtense distance model, and confidence/depth grids decoded by
inverting the pinhole projection. A configurable noise model stands in for
the neural detectors so the evaluation protocol can run without images.

One per-frame kernel does the work. `detect_rows` simulates the detector on
one frame's neighbor rows, in the `RunRecords` layout, with that frame's
`frame_rng`; `decode_box_rows` and `decode_grid_cells` decode its output
into (3,) camera-frame positions. `downwash` runs the kernel over a run's
rows with one reused grid buffer, and seeds every frame's generator from one
`seeding.frame_seeds` pass, with the stream that `frame_rng` gives.
`simulate_detector`, `decode_box`, `decode_grid` and `decode_detections`
are its one-frame wrappers over a `FrameAnnotation`, a `GridDetectionMap`
and `PositionEstimate`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, FrameAnnotation, back_project, pixel_to_ray
from .errors import DegenerateBox, OutOfRange
from .geometry import DEFAULT_ROBOT_GEOMETRY, is_count, is_numbers, require_finite

DEFAULT_GRID_ROWS = 28
DEFAULT_GRID_COLS = 40
DEFAULT_GRID_THRESHOLD = 0.5
# Upper bound on NoiseModel.false_positive_rate, the mean number of fabricated
# detections per frame; each one is drawn one by one.
MAX_FALSE_POSITIVE_RATE = 100.0


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


def sphere_distance_from_angle(alpha: float, radius: float) -> float:
    """Distance to a sphere of known radius subtending the angle alpha."""
    if alpha <= 0.0:
        raise DegenerateBox("subtended angle must be positive")
    return radius / math.sin(0.5 * alpha)


def _ray_pair_position(a1: np.ndarray, a2: np.ndarray, radius: float) -> np.ndarray:
    """Position (3,) of a sphere from its two horizontal tangent rays (3,)."""
    # min/max clip a float to the value np.clip gives, NaN included; the sqrt
    # of the dot is np.linalg.norm's formula for a vector
    cos_alpha = min(max(float(a1.dot(a2)), -1.0), 1.0)
    d = sphere_distance_from_angle(math.acos(cos_alpha), radius)
    a_c = 0.5 * (a1 + a2)
    norm = math.sqrt(a_c.dot(a_c))
    if norm == 0.0:
        raise DegenerateBox("tangent rays are antipodal; direction is undefined")
    return d * a_c / norm


def _box_position(box, intr: CameraIntrinsics, radius: float) -> np.ndarray:
    u_min, v_min, u_max, v_max = box
    v_mid = 0.5 * (v_min + v_max)
    return _ray_pair_position(pixel_to_ray((u_min, v_mid), intr),
                              pixel_to_ray((u_max, v_mid), intr), radius)


def decode_box(box, intr: CameraIntrinsics, radius: float) -> PositionEstimate:
    """Relative position from a box (u_min, v_min, u_max, v_max) and the
    known robot radius.

    The rays pass through the midpoints of the left and right box edges
    (undistorted); the angle between them fixes the range, their bisector the
    direction.
    """
    return PositionEstimate(position=_box_position(box, intr, radius))


def decode_box_rows(detections, intr: CameraIntrinsics, radius: float) -> list[np.ndarray]:
    """Positions (3,) decoded by `decode_box` from detection rows whose first
    four entries are the box; a degenerate box, or one whose edge midpoint
    lies past the lens fold, gives no position."""
    positions = []
    for detection in detections:
        try:
            positions.append(_box_position(detection[:4], intr, radius))
        except (DegenerateBox, OutOfRange):
            continue
    return positions


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


def decode_grid_cells(
    confidence: np.ndarray,
    depth: np.ndarray,
    intr: CameraIntrinsics,
    threshold: float = DEFAULT_GRID_THRESHOLD,
) -> list[np.ndarray]:
    """Positions (3,) back-projected from every thresholded 8-connected peak
    of a (rows, cols) confidence channel, at the depth of its cell.

    Only cells not below the threshold are visited, in row-major order; a
    cell below the maximum of its 3x3 window is not a peak.
    """
    rows, cols = confidence.shape
    positions = []
    # flat indices, row-major: a 1-D nonzero costs less than a 2-D one
    for cell in (~(confidence < threshold)).ravel().nonzero()[0].tolist():
        row, col = divmod(cell, cols)
        window = confidence[max(0, row - 1) : row + 2, max(0, col - 1) : col + 2]
        if confidence[row, col] < window.max():
            continue
        center = grid_cell_center(row, col, intr, rows, cols)
        positions.append(back_project(center, float(depth[row, col]), intr))
    return positions


def decode_grid(
    gmap: GridDetectionMap,
    intr: CameraIntrinsics,
    threshold: float = DEFAULT_GRID_THRESHOLD,
) -> list[PositionEstimate]:
    """Back-project every thresholded 8-connected confidence peak (see
    `decode_grid_cells`)."""
    return [PositionEstimate(position=p)
            for p in decode_grid_cells(gmap.confidence, gmap.depth, intr, threshold)]


def frame_rng(noise: NoiseModel, frame_id: int) -> np.random.Generator:
    """The generator of every detector draw for one frame."""
    return np.random.default_rng([noise.rng_seed, frame_id])


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
            detections.append((u_lo, v_lo, u_hi, v_hi, rng.uniform(*noise.true_confidence)))
        for _ in range(n_false):
            depth = rng.uniform(0.5, 3.0)
            half_w = intr.fx * radius / depth
            half_h = intr.fy * radius / depth
            # a box wider or taller than the image is centred on it
            cu = rng.uniform(min(half_w, intr.width / 2), max(intr.width - half_w, intr.width / 2))
            cv = rng.uniform(min(half_h, intr.height / 2),
                             max(intr.height - half_h, intr.height / 2))
            detections.append((cu - half_w, cv - half_h, cu + half_w, cv + half_h,
                               rng.uniform(*noise.false_confidence)))
        return detections

    confidence, depths = grid
    rows, cols = confidence.shape
    for k in kept:
        u, v = centers[k]
        du, dv = rng.normal(0.0, noise.pixel_sigma, size=2).tolist()
        # min/max clip a float to the value np.clip gives, NaN included
        center = (min(max(u + du, 0.0), intr.width - 1e-9),
                  min(max(v + dv, 0.0), intr.height - 1e-9))
        depth = float(rel_positions[k][2]) * (1.0 + rng.normal(0.0, noise.depth_rel_sigma))
        depth = max(depth, 1e-3)
        row, col = grid_cell_of(center, intr, rows, cols)
        if _claims_cell(confidence, depths, row, col, depth):
            confidence[row, col] = rng.uniform(*noise.true_confidence)
            depths[row, col] = depth
    for _ in range(n_false):
        row = int(rng.integers(0, rows))
        col = int(rng.integers(0, cols))
        if confidence[row, col] > 0.0:
            continue
        confidence[row, col] = rng.uniform(*noise.false_confidence)
        depths[row, col] = rng.uniform(0.5, 3.0)
    return []


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
    """Decode either detector output form into position estimates."""
    if isinstance(output, GridDetectionMap):
        return decode_grid(output, intr)
    return [PositionEstimate(position=p) for p in decode_box_rows(output.tolist(), intr, radius)]
