"""Kinematic flight-scenario generation and the camera frame schedule.

Tracks are generated as smooth interpolants sampled at a fixed rate, not by
closed-loop simulation; the integrator in `dynamics` exists for physical
validation. Robot "r0" always carries the camera: it is the lower robot in
the swap scenario and the circling robot in the hover-orbit scenario. Flying
robots spin about +z at the configured auto-yaw rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import PITCH_ANGLES
from .downwash import DOWNWASH_MARGIN, EllipsoidSpec, ellipsoid_margin
from .errors import InvalidConfig
from .geometry import PoseTrack, is_count, is_numbers, require_finite

SCENARIO_KINDS = ("random_waypoint", "hover_orbit", "swap")
CAMERA_PITCHES = tuple(PITCH_ANGLES)

DEFAULT_HOVER_HEIGHTS = (0.6, 1.0, 1.4)
WAYPOINT_REJECTION_LIMIT = 1000
# Upper bound on pose samples (duration x sample_rate) and on camera frames
# (duration x frame_rate) per run; track arrays scale with these products.
MAX_SAMPLES = 10**7
# Upper bound on waypoints per robot: `_draw_waypoints` rejection-samples each
# waypoint of each robot in Python, one loop pass per waypoint.
MAX_WAYPOINTS = 1000


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    num_robots: int
    duration: float
    yaw_rate: float = 4.0
    camera_pitch: str = "up"
    frame_rate: float = 6.0
    sample_rate: float = 100.0
    arena_min: tuple[float, float, float] = (-1.5, -1.5, 0.1)
    arena_max: tuple[float, float, float] = (1.5, 1.5, 2.0)
    rng_seed: int = 0
    ellipsoid: EllipsoidSpec = field(default_factory=EllipsoidSpec)
    # random_waypoint parameters
    waypoint_count: int = 6
    max_speed: float = 0.5
    accel: float = 1.0
    # hover_orbit parameters
    hover_heights: tuple[float, ...] | None = None
    orbit_radius: float = 0.5
    orbit_height: float = 0.9
    orbit_speed: float = 0.3
    # swap parameters
    swap_start_a: tuple[float, float, float] = (-0.7, -0.7, 0.5)
    swap_start_b: tuple[float, float, float] = (0.7, 0.7, 0.9)

    def validate(self) -> None:
        for name, allowed in (("kind", SCENARIO_KINDS), ("camera_pitch", CAMERA_PITCHES)):
            value = getattr(self, name)
            if value not in allowed:
                raise InvalidConfig(f"{name} must be one of {allowed}, got {value!r}")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not is_count(value):
                raise InvalidConfig(f"{name} must be a non-negative integer, got {value!r}")
        if not 1 <= self.num_robots <= 4:
            raise InvalidConfig(f"num_robots must be 1..4, got {self.num_robots}")
        for name in _FLOAT_FIELDS:
            require_finite(name, getattr(self, name), InvalidConfig)
        for name, size in _VECTOR_FIELDS.items():
            value = getattr(self, name)
            if value is None and size is None:  # hover_heights: the default heights
                continue
            if not is_numbers(value, size):
                what = "a list of finite numbers" if size is None else f"{size} finite numbers"
                raise InvalidConfig(f"{name} must be {what}, got {value!r}")
        if self.duration <= 0.0 or self.frame_rate <= 0.0 or self.sample_rate < 100.0:
            raise InvalidConfig("duration and rates must be positive (sample_rate >= 100 Hz)")
        if self.yaw_rate < 0.0:
            raise InvalidConfig("yaw_rate must be non-negative")
        for rate in ("sample_rate", "frame_rate"):
            if self.duration * getattr(self, rate) > MAX_SAMPLES:
                raise InvalidConfig(
                    f"duration x {rate} = {self.duration * getattr(self, rate):g} "
                    f"exceeds the limit of {MAX_SAMPLES} per run"
                )
        if _sample_steps(self) < 1:
            raise InvalidConfig(
                f"duration {self.duration:g} s at sample_rate {self.sample_rate:g} Hz gives "
                f"fewer than the 2 pose samples a track needs"
            )
        # shortest-arc slerp between samples cannot tell a yaw step of pi or
        # more from the shorter turn the other way
        yaw_step = self.yaw_rate * self.duration / _sample_steps(self)
        if yaw_step >= math.pi:
            raise InvalidConfig(
                f"yaw_rate {self.yaw_rate:g} rad/s turns {yaw_step:g} rad between pose "
                f"samples at sample_rate {self.sample_rate:g} Hz; it must stay below pi"
            )
        lo, hi = np.array(self.arena_min), np.array(self.arena_max)
        if not np.all(lo < hi):
            raise InvalidConfig("arena bounds must satisfy min < max per axis")
        if self.kind == "swap":
            if self.num_robots != 2:
                raise InvalidConfig("swap scenario requires exactly 2 robots")
            if self.swap_start_a[2] == self.swap_start_b[2]:
                raise InvalidConfig("swap robots must start at distinct heights")
        if self.kind == "hover_orbit":
            if self.num_robots < 2:
                raise InvalidConfig("hover_orbit needs at least one hovering neighbor")
            if self.orbit_radius <= 0.0 or self.orbit_speed <= 0.0:
                raise InvalidConfig("orbit radius and speed must be positive")
            # an empty list, like None, means the default heights
            if self.hover_heights and len(self.hover_heights) < self.num_robots - 1:
                raise InvalidConfig(f"hover_heights provides {len(self.hover_heights)} heights "
                                    f"for {self.num_robots - 1} hovering robots")
        if self.kind == "random_waypoint":
            if not 2 <= self.waypoint_count <= MAX_WAYPOINTS:
                raise InvalidConfig(f"waypoint_count must be 2..{MAX_WAYPOINTS}, "
                                    f"got {self.waypoint_count}")
            if self.max_speed <= 0.0 or self.accel <= 0.0:
                raise InvalidConfig("speed and acceleration must be positive")


_COUNT_FIELDS = ("num_robots", "waypoint_count", "rng_seed")
_FLOAT_FIELDS = ("duration", "frame_rate", "sample_rate", "yaw_rate", "max_speed", "accel",
                 "orbit_radius", "orbit_height", "orbit_speed")
# vector fields and their lengths (None: any)
_VECTOR_FIELDS = {"arena_min": 3, "arena_max": 3, "hover_heights": None, "swap_start_a": 3,
                  "swap_start_b": 3}


def frame_schedule(cfg: ScenarioConfig) -> np.ndarray:
    """Camera timestamps 0, 1/fps, ... up to and including the duration."""
    # the slack keeps a frame at the duration when duration x fps rounds just
    # below an integer; a time past the duration, the end of the tracks, is dropped
    count = int(math.floor(cfg.duration * cfg.frame_rate + 1e-9)) + 1
    times = np.arange(count) / cfg.frame_rate
    return times[times <= cfg.duration]


def _sample_steps(cfg: ScenarioConfig) -> int:
    return int(round(cfg.duration * cfg.sample_rate))


def _sample_times(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.duration, _sample_steps(cfg) + 1)


def _spinning_track(robot_id: str, times: np.ndarray, positions: np.ndarray,
                    yaw_rate: float) -> PoseTrack:
    half_yaw = 0.5 * (yaw_rate * times)
    quats = np.zeros((len(times), 4))
    quats[:, 0] = np.cos(half_yaw)
    quats[:, 3] = np.sin(half_yaw)
    return PoseTrack(robot_id, times, positions, quats)


def _smoothstep(tau: np.ndarray) -> np.ndarray:
    tau = np.clip(tau, 0.0, 1.0)
    return tau * tau * (3.0 - 2.0 * tau)


def _generate_swap(cfg: ScenarioConfig, times: np.ndarray) -> list[PoseTrack]:
    a = np.array(cfg.swap_start_a, dtype=float)
    b = np.array(cfg.swap_start_b, dtype=float)
    lower, upper = (a, b) if a[2] < b[2] else (b, a)
    s = _smoothstep(times / cfg.duration)[:, None]
    lower_xy = (1.0 - s) * lower[None, :2] + s * upper[None, :2]
    upper_xy = (1.0 - s) * upper[None, :2] + s * lower[None, :2]
    pos0 = np.column_stack([lower_xy, np.full(len(times), lower[2])])
    pos1 = np.column_stack([upper_xy, np.full(len(times), upper[2])])
    return [
        _spinning_track("r0", times, pos0, cfg.yaw_rate),
        _spinning_track("r1", times, pos1, cfg.yaw_rate),
    ]


def _hover_layout(cfg: ScenarioConfig) -> list[np.ndarray]:
    heights = cfg.hover_heights or DEFAULT_HOVER_HEIGHTS
    n_hover = cfg.num_robots - 1
    positions = []
    for k in range(n_hover):
        # first hoverer sits on the orbit path; the rest cluster inside it
        radius = cfg.orbit_radius if k == 0 else 0.5 * cfg.orbit_radius
        angle = 2.0 * math.pi * k / max(1, n_hover)
        positions.append(
            np.array([radius * math.cos(angle), radius * math.sin(angle), heights[k]])
        )
    return positions


def _generate_hover_orbit(cfg: ScenarioConfig, times: np.ndarray) -> list[PoseTrack]:
    omega = cfg.orbit_speed / cfg.orbit_radius
    angles = math.pi + omega * times
    orbit = np.column_stack(
        [
            cfg.orbit_radius * np.cos(angles),
            cfg.orbit_radius * np.sin(angles),
            np.full(len(times), cfg.orbit_height),
        ]
    )
    # the hovering robots do not spin
    return [_spinning_track("r0", times, orbit, cfg.yaw_rate)] + [
        _spinning_track(f"r{k + 1}", times, np.tile(position, (len(times), 1)), 0.0)
        for k, position in enumerate(_hover_layout(cfg))
    ]


def _trapezoid_timing(length: float, vmax: float, accel: float) -> tuple[float, float]:
    """Ramp time and total time of a leg under the trapezoidal speed profile
    (a triangle when the leg is too short to reach vmax)."""
    ramp_dist = vmax * vmax / (2.0 * accel)
    if length <= 2.0 * ramp_dist:
        ramp_t = math.sqrt(length / accel)
        return ramp_t, 2.0 * ramp_t
    ramp_t = vmax / accel
    return ramp_t, 2.0 * ramp_t + (length - 2.0 * ramp_dist) / vmax


def _trapezoid_position(t: np.ndarray, length: float, vmax: float,
                        accel: float) -> np.ndarray:
    """Distance along a leg at times t (>= 0) under the trapezoidal speed
    profile; the leg holds its end after it finishes."""
    ramp_dist = vmax * vmax / (2.0 * accel)
    ramp_t, total = _trapezoid_timing(length, vmax, accel)
    t = np.minimum(t, total)
    speeding = 0.5 * accel * t * t
    cruising = ramp_dist + vmax * (t - ramp_t)
    braking = length - 0.5 * accel * (total - t) ** 2
    return np.where(t <= ramp_t, speeding, np.where(t <= total - ramp_t, cruising, braking))


def _draw_waypoints(cfg: ScenarioConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-robot waypoint lists; same-index waypoints of different robots are
    rejection-sampled to keep an ellipsoid margin of at least DOWNWASH_MARGIN."""
    lo = np.array(cfg.arena_min, dtype=float)
    hi = np.array(cfg.arena_max, dtype=float)
    all_waypoints: list[np.ndarray] = []
    for robot in range(cfg.num_robots):
        points = np.zeros((cfg.waypoint_count, 3))
        for k in range(cfg.waypoint_count):
            for attempt in range(WAYPOINT_REJECTION_LIMIT):
                candidate = rng.uniform(lo, hi)
                if all(
                    ellipsoid_margin(candidate, other[k], cfg.ellipsoid) >= DOWNWASH_MARGIN
                    for other in all_waypoints
                ):
                    points[k] = candidate
                    break
            else:
                raise InvalidConfig(
                    "could not place separated waypoints; arena too small for robot count"
                )
        all_waypoints.append(points)
    return all_waypoints


def _waypoint_positions(times: np.ndarray, waypoints: np.ndarray, vmax: float,
                        accel: float) -> np.ndarray:
    """Each sample follows the last leg that has started by its time."""
    positions = np.tile(waypoints[-1], (len(times), 1))
    t_start = 0.0
    for k in range(len(waypoints) - 1):
        delta = waypoints[k + 1] - waypoints[k]
        length = float(np.linalg.norm(delta))
        if length < 1e-12:
            continue
        started = times >= t_start
        s = _trapezoid_position(times[started] - t_start, length, vmax, accel)
        positions[started] = waypoints[k] + s[:, None] * (delta / length)
        t_start += _trapezoid_timing(length, vmax, accel)[1]
    return positions


def _generate_waypoint(cfg: ScenarioConfig, times: np.ndarray,
                       rng: np.random.Generator) -> list[PoseTrack]:
    waypoint_sets = _draw_waypoints(cfg, rng)
    return [
        _spinning_track(
            f"r{i}",
            times,
            _waypoint_positions(times, points, cfg.max_speed, cfg.accel),
            cfg.yaw_rate,
        )
        for i, points in enumerate(waypoint_sets)
    ]


def generate_scenario(cfg: ScenarioConfig) -> list[PoseTrack]:
    """Deterministic pose tracks for one scenario configuration."""
    cfg.validate()
    times = _sample_times(cfg)
    if cfg.kind == "swap":
        return _generate_swap(cfg, times)
    if cfg.kind == "hover_orbit":
        return _generate_hover_orbit(cfg, times)
    # only this kind draws: the others never load numpy.random
    return _generate_waypoint(cfg, times, np.random.default_rng(cfg.rng_seed))

