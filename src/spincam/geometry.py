"""Rigid-body geometry: quaternions, transforms, timestamped pose tracks.

Conventions: quaternions are Hamilton (w, x, y, z) and rotate body-frame
vectors into the parent frame; all distances are meters, angles radians,
timestamps seconds.

A rotation is a unit quaternion array (4,) and a rigid transform a
rotation-then-translation pair (q, t) of arrays (4,) and (3,). The kernels
(`quat_rotate`, `quat_multiply`, `compose`, `invert`, `slerp_arrays`,
`interpolate`) take stacks of quaternions (..., 4) and vectors (..., 3) and
broadcast. A pose track is a `PoseTrack` of arrays. The batched slerp and
rotation algebra follow Sola, "Quaternion kinematics for the error-state
Kalman filter" (arXiv 1711.02508).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
import numpy as np

from .errors import OutOfRange

UNIT_NORM_TOL = 1e-6
MAX_COORDINATE = 1e6  # metres: squares and sums of coordinates within it stay finite


def as_vec3(value, name: str = "vector", reach: bool = False) -> np.ndarray:
    """Coerce to a finite float (3,) array, with `reach` each coordinate within
    MAX_COORDINATE; a ValueError names `name`. A list or tuple must hold 3
    finite numbers, none of them a string or a bool."""
    if isinstance(value, (list, tuple)) and not is_numbers(value, 3):
        raise ValueError(f"{name} must be 3 finite numbers, got {value!r}")
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be 3 numbers: {exc}") from None
    if v.shape != (3,):
        raise ValueError(f"{name} must be 3 numbers, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} components must be finite")
    if reach and not within_reach(v):
        raise ValueError(f"{name} must be within {MAX_COORDINATE:g} m per axis, got {v.tolist()}")
    return v


def _is_real(value) -> bool:
    """A real number that is not a bool (JSON true and false are no numbers).
    JSON numbers are exactly int or float, which skips the slower ABC test."""
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def is_finite(value) -> bool:
    """A real number that is not a bool and that a float holds: neither NaN
    nor infinite, nor an integer beyond float range (JSON `1` followed by 400
    zeros is one)."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def is_count(value) -> bool:
    """A non-negative integer that is not a bool."""
    return (type(value) is int or _is_real(value) and isinstance(value, numbers.Integral)) \
        and value >= 0


def is_numbers(value, size: int | None) -> bool:
    """A list or tuple of finite real numbers, `size` of them unless None."""
    return (isinstance(value, (list, tuple)) and size in (None, len(value))
            and all(is_finite(v) for v in value))


def within_reach(values, axis=None):
    """Whether each coordinate of `values` (all, or along `axis`) is within MAX_COORDINATE."""
    return (np.abs(np.asarray(values, dtype=float)) <= MAX_COORDINATE).all(axis=axis)


def require_finite(name: str, value, error=ValueError) -> None:
    """Raise `error` naming `name` unless `value` is a finite real number."""
    if not _is_real(value):
        raise error(f"{name} must be a number, got {value!r}")
    if not is_finite(value):
        raise error(f"{name} must be finite, got {value!r}")


def _rotate(w, x, y, z, vx, vy, vz):
    """Components of q v q* as v + w t + q_xyz x t, with t = 2 q_xyz x v.

    Takes floats or broadcasting arrays. The cross products are spelled out
    with the multiplications and subtractions `np.cross` performs, in the
    same order, so the result equals the cross-product formula bit for bit.
    """
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def _multiply(w1, x1, y1, z1, w2, x2, y2, z2):
    """Components of the Hamilton product; floats or broadcasting arrays."""
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _split(a: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(a[..., i] for i in range(a.shape[-1]))


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vectors (..., 3) by quaternions (..., 4); shapes broadcast."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack(_rotate(*_split(q), *_split(v)), axis=-1)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton products of quaternion stacks (..., 4); shapes broadcast."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack(_multiply(*_split(a), *_split(b)), axis=-1)


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    w, x, y, z = _split(q)
    return q / np.sqrt(w * w + x * x + y * y + z * z)[..., None]


def compose(qa, ta, qb, tb) -> tuple[np.ndarray, np.ndarray]:
    """Stacked composition of transforms (q, t): the transform x -> a(b(x))."""
    return quat_normalize(quat_multiply(qa, qb)), quat_rotate(qa, tb) + ta


def invert(q, t) -> tuple[np.ndarray, np.ndarray]:
    """Stacked inverses of unit-quaternion transforms (q, t)."""
    q_inv = np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])
    return q_inv, -quat_rotate(q_inv, t)


def slerp_arrays(q0, q1, t) -> np.ndarray:
    """Shortest-arc spherical interpolation of quaternion stacks (..., 4) at
    fractions t (...); nearly parallel pairs blend linearly. Unit output."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    w0, x0, y0, z0 = _split(q0)
    w1, x1, y1, z1 = _split(q1)
    dot = w0 * w1 + x0 * x1 + y0 * y1 + z0 * z1
    b = np.where((dot < 0.0)[..., None], -q1, q1)
    dot = np.abs(dot)[..., None]
    theta = np.arccos(np.minimum(1.0, dot))
    s = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        spherical = np.sin((1.0 - t) * theta) / s * q0 + np.sin(t * theta) / s * b
    linear = q0 + t * (b - q0)
    return quat_normalize(np.where(dot > 1.0 - 1e-12, linear, spherical))


def invalid_pose_row(times, positions, quats) -> tuple[int, str] | None:
    """The first row of float arrays times (N,), positions (N, 3) and quats
    (N, 4) that fails a pose-sample check (finite values, non-negative time,
    position within reach, unit quaternion within UNIT_NORM_TOL), and why; a
    wrong shape is row 0. Whole-array tests decide; masks locate a failure."""
    n = len(times)
    if times.shape != (n,) or positions.shape != (n, 3) or quats.shape != (n, 4):
        return 0, (f"expected times (N,), positions (N, 3), quats (N, 4); got "
                   f"{times.shape}, {positions.shape}, {quats.shape}")
    with np.errstate(over="ignore"):  # a huge component squares to inf: not unit-norm
        norms = np.sqrt(np.sum(quats * quats, axis=1))
    unit, nonnegative = np.abs(norms - 1.0) <= UNIT_NORM_TOL, times >= 0.0
    if (unit.all() and nonnegative.all() and np.isfinite(times).all()
            and within_reach(positions) and np.isfinite(quats).all()):  # reach implies finite
        return None
    return first_failure({
        "pose values must be finite": np.isfinite(times)
        & np.isfinite(positions).all(axis=1) & np.isfinite(quats).all(axis=1),
        "time must be non-negative": nonnegative,
        f"t must be within {MAX_COORDINATE:g} m per axis": within_reach(positions, axis=1),
        "quaternion must be unit-norm": unit,
    })


def first_failure(checks: dict[str, np.ndarray]) -> tuple[int, str] | None:
    """The first row that fails one of the checks {reason: mask of the rows
    that pass}, and why; at one row the earlier check wins."""
    failed = [(int(np.argmin(ok)), reason) for reason, ok in checks.items() if not ok.all()]
    return min(failed, key=lambda failure: failure[0], default=None)


@dataclass(eq=False)
class PoseTrack:
    """Time-ordered pose samples for one robot, held as arrays.

    `times` (N,) are strictly increasing non-negative seconds, `positions`
    (N, 3) world positions and `quats` (N, 4) unit robot-to-world rotations.
    """

    robot_id: str
    times: np.ndarray
    positions: np.ndarray
    quats: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.quats = np.asarray(self.quats, dtype=float)
        bad = invalid_pose_row(self.times, self.positions, self.quats)
        if bad is not None:
            raise ValueError(f"track {self.robot_id!r}: sample {bad[0]}: {bad[1]}")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError(f"track {self.robot_id!r}: timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def bracket(times: np.ndarray, t, name: str) -> tuple[np.ndarray, ...]:
    """Where times t (M,) fall among increasing sample times (N >= 2): the
    sample at or before each (`idx`), the first of the two samples around it
    (`lo`), the fraction of the way from one to the other (`alpha`), and
    whether it lands on a sample (`exact`). OutOfRange names `name` when any
    time lies outside the samples' span."""
    t = np.asarray(t, dtype=float).reshape(-1)
    outside = ~((t >= times[0]) & (t <= times[-1]))
    if np.any(outside):
        raise OutOfRange(f"t={t[outside][0]} outside {name} span [{times[0]}, {times[-1]}]")
    idx = np.searchsorted(times, t, side="right") - 1
    lo = np.minimum(idx, len(times) - 2)
    alpha = (t - times[lo]) / (times[lo + 1] - times[lo])
    return idx, lo, alpha, times[idx] == t


def interpolate(track: PoseTrack, t) -> tuple[np.ndarray, np.ndarray]:
    """Positions (M, 3) and orientations (M, 4) of a track at times t (M,).

    Linear in position, spherical shortest-arc in orientation. Raises
    OutOfRange when any time lies outside the track span; sample times return
    the stored sample exactly.
    """
    if len(track) < 2:
        raise ValueError("interpolation needs a track with at least 2 samples")
    idx, lo, alpha, exact = bracket(track.times, t, f"track {track.robot_id!r}")
    a = alpha[:, None]
    positions = (1.0 - a) * track.positions[lo] + a * track.positions[lo + 1]
    quats = slerp_arrays(track.quats[lo], track.quats[lo + 1], alpha)
    positions[exact] = track.positions[idx[exact]]
    quats[exact] = track.quats[idx[exact]]
    return positions, quats


@dataclass(frozen=True, eq=False)
class RobotGeometry:
    """Physical robot extent: corner box for annotation, sphere for decoding."""

    half_extents: np.ndarray
    sphere_radius: float

    def __post_init__(self):
        object.__setattr__(self, "half_extents",
                           as_vec3(self.half_extents, "half_extents", reach=True))
        require_finite("sphere_radius", self.sphere_radius)
        if np.any(self.half_extents <= 0.0) or self.sphere_radius <= 0.0:
            raise ValueError("robot dimensions must be positive")
        if self.sphere_radius > MAX_COORDINATE:
            raise ValueError(f"sphere_radius must be at most {MAX_COORDINATE:g} m, "
                             f"got {self.sphere_radius!r}")

    def corners(self) -> np.ndarray:
        """The 8 body-frame corner points, one per sign combination."""
        hx, hy, hz = self.half_extents
        signs = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        return signs * np.array([hx, hy, hz])


# Crazyflie-class footprint: ~13 cm motor-to-motor diagonal, 3 cm body height.
DEFAULT_ROBOT_GEOMETRY = RobotGeometry(
    half_extents=np.array([0.065, 0.065, 0.03]), sphere_radius=0.05
)
