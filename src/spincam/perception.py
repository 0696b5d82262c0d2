"""Detection decoding and simulated detectors.

Two decoding routes are supported: bounding boxes decoded through the
sphere-subtense distance model, and confidence/depth grids decoded by
inverting the pinhole projection. A configurable noise model stands in for
the neural detectors so the evaluation protocol can run without images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, FrameAnnotation, back_project, pixel_to_ray
from .errors import DegenerateBox
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
        return GridDetectionMap(np.zeros((rows, cols)), np.zeros((rows, cols)))


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


def decode_rays(a1: np.ndarray, a2: np.ndarray, radius: float) -> PositionEstimate:
    """Position of a sphere from its two horizontal tangent rays."""
    cos_alpha = float(np.clip(np.dot(a1, a2), -1.0, 1.0))
    d = sphere_distance_from_angle(math.acos(cos_alpha), radius)
    a_c = 0.5 * (a1 + a2)
    norm = np.linalg.norm(a_c)
    if norm == 0.0:
        raise DegenerateBox("tangent rays are antipodal; direction is undefined")
    return PositionEstimate(position=d * a_c / norm)


def decode_box(box, intr: CameraIntrinsics, radius: float) -> PositionEstimate:
    """Relative position from a box (u_min, v_min, u_max, v_max) and the
    known robot radius.

    The rays pass through the midpoints of the left and right box edges
    (undistorted); the angle between them fixes the range, their bisector the
    direction.
    """
    u_min, v_min, u_max, v_max = box
    v_mid = 0.5 * (v_min + v_max)
    return decode_rays(pixel_to_ray((u_min, v_mid), intr), pixel_to_ray((u_max, v_mid), intr),
                       radius)


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


def _claims_cell(gmap: GridDetectionMap, row: int, col: int, depth: float) -> bool:
    """The grid's one slot per cell: a detection takes its cell unless the
    cell already holds one at the same or a nearer depth."""
    return not (gmap.confidence[row, col] > 0.0 and gmap.depth[row, col] <= depth)


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
        if _claims_cell(gmap, row, col, depth):
            gmap.confidence[row, col] = 1.0
            gmap.depth[row, col] = depth
    return gmap


def decode_grid(
    gmap: GridDetectionMap,
    intr: CameraIntrinsics,
    threshold: float = DEFAULT_GRID_THRESHOLD,
) -> list[PositionEstimate]:
    """Back-project every thresholded 8-connected confidence peak.

    Only cells not below the threshold are visited, in row-major order; a
    cell below the maximum of its 3x3 window is not a peak.
    """
    conf = gmap.confidence
    estimates = []
    rows, cols = np.nonzero(~(conf < threshold))
    for row, col in zip(rows.tolist(), cols.tolist()):
        window = conf[max(0, row - 1) : row + 2, max(0, col - 1) : col + 2]
        if conf[row, col] < window.max():
            continue
        center = grid_cell_center(row, col, intr, *conf.shape)
        position = back_project(center, float(gmap.depth[row, col]), intr)
        estimates.append(PositionEstimate(position=position))
    return estimates


def _frame_rng(noise: NoiseModel, frame_id: int) -> np.random.Generator:
    return np.random.default_rng([noise.rng_seed, frame_id])


def simulate_detector(
    annotation: FrameAnnotation,
    noise: NoiseModel,
    intr: CameraIntrinsics,
    mode: str,
    radius: float = DEFAULT_ROBOT_GEOMETRY.sphere_radius,
):
    """Noisy detector output for one annotated frame.

    Box mode returns a (D, 5) array, one row (u_min, v_min, u_max, v_max,
    confidence) per detection; grid mode returns a GridDetectionMap. All
    randomness is derived from (rng_seed, frame_id), so repeated calls are
    bit-identical. `radius` sizes the fabricated false-positive boxes.
    """
    if mode not in ("box", "grid"):
        raise ValueError(f"unknown detector mode {mode!r}")
    rng = _frame_rng(noise, annotation.frame_id)

    kept = [n for n in annotation.neighbors if rng.random() >= noise.miss_rate]
    n_false = int(rng.poisson(noise.false_positive_rate))

    if mode == "box":
        detections = []
        for neighbor in kept:
            u_min, v_min, u_max, v_max = neighbor.bbox.tolist()
            du = rng.normal(0.0, noise.pixel_sigma, size=4)
            u_lo, u_hi = sorted((u_min + du[0], u_max + du[1]))
            v_lo, v_hi = sorted((v_min + du[2], v_max + du[3]))
            detections.append((u_lo, v_lo, u_hi, v_hi, rng.uniform(*noise.true_confidence)))
        for _ in range(n_false):
            depth = rng.uniform(0.5, 3.0)
            half_w = intr.fx * radius / depth
            half_h = intr.fy * radius / depth
            cu = rng.uniform(half_w, intr.width - half_w)
            cv = rng.uniform(half_h, intr.height - half_h)
            detections.append((cu - half_w, cv - half_h, cu + half_w, cv + half_h,
                               rng.uniform(*noise.false_confidence)))
        return np.array(detections, dtype=float).reshape(-1, 5)

    gmap = GridDetectionMap.zeros()
    rows, cols = gmap.confidence.shape
    for neighbor in kept:
        center = neighbor.center + rng.normal(0.0, noise.pixel_sigma, size=2)
        center = (np.clip(center[0], 0.0, intr.width - 1e-9),
                  np.clip(center[1], 0.0, intr.height - 1e-9))
        depth = float(neighbor.rel_position[2]) * (1.0 + rng.normal(0.0, noise.depth_rel_sigma))
        depth = max(depth, 1e-3)
        row, col = grid_cell_of(center, intr, rows, cols)
        if _claims_cell(gmap, row, col, depth):
            gmap.confidence[row, col] = float(rng.uniform(*noise.true_confidence))
            gmap.depth[row, col] = depth
    for _ in range(n_false):
        row = int(rng.integers(0, rows))
        col = int(rng.integers(0, cols))
        if gmap.confidence[row, col] > 0.0:
            continue
        gmap.confidence[row, col] = float(rng.uniform(*noise.false_confidence))
        gmap.depth[row, col] = float(rng.uniform(0.5, 3.0))
    return gmap


def decode_detections(
    output,
    intr: CameraIntrinsics,
    radius: float = DEFAULT_ROBOT_GEOMETRY.sphere_radius,
) -> list[PositionEstimate]:
    """Decode either detector output form into position estimates."""
    if isinstance(output, GridDetectionMap):
        return decode_grid(output, intr)
    estimates = []
    for row in output[:, :4].tolist():
        try:
            estimates.append(decode_box(row, intr, radius))
        except DegenerateBox:
            continue
    return estimates
