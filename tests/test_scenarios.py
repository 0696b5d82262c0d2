"""Scenario track generation and the frame schedule."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from spincam import scenarios
from spincam.camera import track_poses
from spincam.downwash import ellipsoid_margin
from spincam.errors import InvalidConfig
from spincam.scenarios import ScenarioConfig, frame_poses, frame_schedule, generate_scenario


def swap_config(**overrides) -> ScenarioConfig:
    defaults = dict(kind="swap", num_robots=2, duration=14.0)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestFrameSchedule:
    def test_one_second_at_six_fps(self):
        ts = frame_schedule(swap_config(duration=1.0, frame_rate=6.0))
        assert len(ts) == 7
        np.testing.assert_allclose(ts, np.arange(7) / 6.0)

    def test_short_run_at_thirty_fps(self):
        ts = frame_schedule(swap_config(duration=0.1, frame_rate=30.0))
        np.testing.assert_allclose(ts, [0.0, 1 / 30, 2 / 30, 3 / 30])

    def test_ten_seconds_at_six_fps(self):
        ts = frame_schedule(swap_config(duration=10.0, frame_rate=6.0))
        assert len(ts) == 61
        np.testing.assert_allclose(np.diff(ts), np.full(60, 1.0 / 6.0), atol=1e-12)

    def test_time_past_the_duration_dropped(self):
        # 1.99999999999 x 3 fps falls 3e-11 short of 6 frame periods
        ts = frame_schedule(swap_config(duration=1.99999999999, frame_rate=3.0))
        np.testing.assert_array_equal(ts, np.arange(6) / 3.0)

    @settings(max_examples=300, deadline=None)
    @given(
        frame_rate=st.floats(0.5, 240.0),
        periods=st.integers(1, 2000),
        shortfall=st.one_of(st.floats(0.0, 2e-9), st.floats(-0.5, 0.5)),
    )
    def test_last_frame_never_passes_the_track_end(self, frame_rate, periods, shortfall):
        """Durations `shortfall` frame periods short of a whole number of
        them; within 1e-9 the slack that keeps a frame at the duration used to
        push the last frame past it."""
        duration = (periods - shortfall) / frame_rate
        assume(0.01 <= duration <= 1000.0)
        cfg = swap_config(duration=duration, frame_rate=frame_rate)
        ts = frame_schedule(cfg)
        assert ts[-1] <= scenarios._sample_times(cfg)[-1]
        # every schedule that stayed inside the tracks before is unchanged
        count = int(math.floor(duration * frame_rate + 1e-9)) + 1
        kept = np.arange(count) / frame_rate
        kept = kept[:-1] if kept[-1] > duration else kept
        assert ts.tolist() == kept.tolist()


class TestSwapScenario:
    def test_endpoints_exchange_xy_and_keep_heights(self):
        cfg = swap_config(
            duration=4.0, swap_start_a=(0.0, 0.0, 0.5), swap_start_b=(1.0, 1.0, 1.0)
        )
        tracks = {t.robot_id: t for t in generate_scenario(cfg)}
        r0_end = tracks["r0"].positions[-1]
        r1_end = tracks["r1"].positions[-1]
        np.testing.assert_allclose(r0_end, [1.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(r1_end, [0.0, 0.0, 1.0], atol=1e-12)

    def test_camera_robot_is_the_lower_one(self):
        cfg = swap_config(swap_start_a=(0.5, 0.5, 1.2), swap_start_b=(-0.5, -0.5, 0.6))
        tracks = {t.robot_id: t for t in generate_scenario(cfg)}
        assert tracks["r0"].positions[0, 2] == 0.6

    def test_downwash_event_guaranteed(self):
        # some sample has horizontal distance below r_x at the initial height gap
        cfg = swap_config()
        tracks = generate_scenario(cfg)
        p0 = tracks[0].positions
        p1 = tracks[1].positions
        horizontal = np.linalg.norm((p0 - p1)[:, :2], axis=1)
        vertical = np.abs((p0 - p1)[:, 2])
        idx = int(np.argmin(horizontal))
        assert horizontal[idx] < cfg.ellipsoid.rx
        assert vertical[idx] == pytest.approx(
            abs(cfg.swap_start_a[2] - cfg.swap_start_b[2]), abs=1e-12
        )
        margins = [
            ellipsoid_margin(a, b, cfg.ellipsoid) for a, b in zip(p0, p1)
        ]
        assert min(margins) < 2.0

    def test_requires_two_robots(self):
        with pytest.raises(InvalidConfig):
            generate_scenario(swap_config(num_robots=3))

    def test_requires_distinct_heights(self):
        with pytest.raises(InvalidConfig):
            generate_scenario(
                swap_config(swap_start_a=(0, 0, 0.5), swap_start_b=(1, 1, 0.5))
            )


class TestHoverOrbit:
    def test_hoverers_static_orbiter_circles(self):
        cfg = ScenarioConfig(kind="hover_orbit", num_robots=4, duration=8.0)
        tracks = {t.robot_id: t for t in generate_scenario(cfg)}
        assert set(tracks) == {"r0", "r1", "r2", "r3"}
        for rid in ("r1", "r2", "r3"):
            positions = tracks[rid].positions
            assert np.ptp(positions, axis=0).max() == 0.0
        orbit = tracks["r0"].positions
        radii = np.linalg.norm(orbit[:, :2], axis=1)
        np.testing.assert_allclose(radii, cfg.orbit_radius, atol=1e-9)
        np.testing.assert_allclose(orbit[:, 2], cfg.orbit_height, atol=1e-12)

    def test_needs_a_neighbor(self):
        with pytest.raises(InvalidConfig):
            generate_scenario(ScenarioConfig(kind="hover_orbit", num_robots=1, duration=5.0))


class TestRandomWaypoint:
    def config(self, **overrides) -> ScenarioConfig:
        defaults = dict(kind="random_waypoint", num_robots=3, duration=20.0, rng_seed=1)
        defaults.update(overrides)
        return ScenarioConfig(**defaults)

    def test_tracks_stay_in_bounds(self):
        cfg = self.config()
        for track in generate_scenario(cfg):
            positions = track.positions
            assert np.all(positions >= np.array(cfg.arena_min) - 1e-9)
            assert np.all(positions <= np.array(cfg.arena_max) + 1e-9)

    def test_timestamps_strictly_increasing(self):
        for track in generate_scenario(self.config()):
            assert np.all(np.diff(track.times) > 0.0)

    def test_yaw_follows_configured_rate(self):
        cfg = self.config(yaw_rate=8.0)
        track = generate_scenario(cfg)[0]
        # heading about +z (ZYX convention)
        yaws = Rotation.from_quat(np.roll(track.quats[:101], -1, axis=1)).as_euler("ZYX")[:, 0]
        for k in range(100):
            expected = 8.0 * (track.times[k + 1] - track.times[k])
            delta = (yaws[k + 1] - yaws[k]) % (2.0 * math.pi)
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_deterministic_in_seed(self):
        cfg = self.config(rng_seed=42)
        first = generate_scenario(cfg)
        second = generate_scenario(cfg)
        for t1, t2 in zip(first, second):
            assert t1.robot_id == t2.robot_id
            assert t1.times.tolist() == t2.times.tolist()
            assert np.array_equal(t1.positions, t2.positions)
            assert t1.quats.tolist() == t2.quats.tolist()

    @pytest.mark.parametrize("length", [0.2, 0.25, 3.0])  # triangle, boundary, trapezoid
    def test_leg_timing_matches_its_profile(self, length):
        vmax, accel = 0.5, 1.0
        ramp_t, total = scenarios._trapezoid_timing(length, vmax, accel)
        assert ramp_t == min(vmax / accel, math.sqrt(length / accel))
        position = scenarios._trapezoid_position(np.array([ramp_t, total, total + 1.0]),
                                                 length, vmax, accel)
        np.testing.assert_allclose(position, [0.5 * accel * ramp_t**2, length, length],
                                   rtol=0, atol=1e-12)

    def test_same_index_waypoints_keep_separation_margin(self):
        # robots hold their first waypoint before moving: margin >= 2 at t=0
        cfg = self.config(num_robots=4, rng_seed=9)
        tracks = generate_scenario(cfg)
        starts = [t.positions[0] for t in tracks]
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                assert ellipsoid_margin(starts[i], starts[j], cfg.ellipsoid) >= 2.0


def overwrite_loop_positions(times, waypoints, vmax, accel) -> np.ndarray:
    """Reference for `scenarios._waypoint_positions`: each leg of non-zero
    length overwrites every sample at or after its start."""
    positions = np.tile(waypoints[-1], (len(times), 1))
    t_start = 0.0
    for k in range(len(waypoints) - 1):
        delta = waypoints[k + 1] - waypoints[k]
        length = float(np.linalg.norm(delta))
        if length < 1e-12:
            continue
        started = times >= t_start
        s = scenarios._trapezoid_position(times[started] - t_start, length, vmax, accel)
        positions[started] = waypoints[k] + s[:, None] * (delta / length)
        t_start += scenarios._trapezoid_timing(length, vmax, accel)[1]
    return positions


class TestWaypointPositions:
    """Each leg writes only its own samples; the positions are the
    overwrite loop's, bit for bit."""

    def assert_equals_overwrite_loop(self, times, waypoints, vmax=0.5, accel=1.0):
        positions = scenarios._waypoint_positions(times, waypoints, vmax, accel)
        expected = overwrite_loop_positions(times, waypoints, vmax, accel)
        assert positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [2, 6, 12, scenarios.MAX_WAYPOINTS])
    @pytest.mark.parametrize("seed", range(12))
    def test_drawn_flights(self, seed, count):
        cfg = ScenarioConfig(kind="random_waypoint", num_robots=2, duration=20.0,
                             rng_seed=seed, waypoint_count=count, max_speed=0.7, accel=1.3)
        times = scenarios._sample_times(cfg)
        for waypoints in scenarios._draw_waypoints(cfg, np.random.default_rng(seed)):
            self.assert_equals_overwrite_loop(times, waypoints, cfg.max_speed, cfg.accel)

    @pytest.mark.parametrize("repeat", [
        [0, 0, 1, 2, 3], [0, 1, 1, 1, 2, 3], [0, 1, 2, 3, 3], [0, 0, 1, 1, 2, 2, 3, 3],
        [2, 2, 2],
    ], ids=["first", "middle", "last", "every", "all-equal"])
    def test_repeated_waypoints_start_no_leg(self, repeat):
        points = np.random.default_rng(5).uniform(-1.5, 1.5, (4, 3))
        times = np.linspace(0.0, 30.0, 3001)
        self.assert_equals_overwrite_loop(times, points[repeat])

    def test_leg_starting_on_a_sample_time(self):
        # a 0.25 m triangle leg takes exactly 2 sqrt(0.25 / 1) = 1 s
        waypoints = np.array([[0.0, 0.0, 1.0], [0.25, 0.0, 1.0], [0.25, 0.5, 1.0],
                              [0.0, 0.5, 1.0]])
        times = np.arange(501) / 100.0
        assert scenarios._trapezoid_timing(0.25, 0.5, 1.0)[1] == times[100]
        self.assert_equals_overwrite_loop(times, waypoints)
        # the sample on the boundary is the second leg's first
        positions = scenarios._waypoint_positions(times, waypoints, 0.5, 1.0)
        assert positions[100].tolist() == waypoints[1].tolist()

    def test_legs_starting_after_the_flight_ends(self):
        points = np.random.default_rng(6).uniform(-1.5, 1.5, (40, 3))
        times = np.linspace(0.0, 3.0, 301)
        total = sum(scenarios._trapezoid_timing(float(np.linalg.norm(b - a)), 0.5, 1.0)[1]
                    for a, b in zip(points, points[1:]))
        assert total > 10.0 * times[-1]
        self.assert_equals_overwrite_loop(times, points)

    def test_legs_past_the_flight_are_not_positioned(self, monkeypatch):
        """At MAX_WAYPOINTS on a 3 s flight, a leg is positioned at most once,
        and only if it starts within the flight."""
        cfg = ScenarioConfig(kind="random_waypoint", num_robots=1, duration=3.0, rng_seed=1,
                             waypoint_count=scenarios.MAX_WAYPOINTS)
        times = scenarios._sample_times(cfg)
        waypoints = scenarios._draw_waypoints(cfg, np.random.default_rng(1))[0]
        durations = [scenarios._trapezoid_timing(float(np.linalg.norm(b - a)), cfg.max_speed,
                                                 cfg.accel)[1]
                     for a, b in zip(waypoints, waypoints[1:])]
        starting = int(np.sum(np.cumsum([0.0, *durations[:-1]]) <= times[-1]))
        calls, position = [], scenarios._trapezoid_position
        monkeypatch.setattr(scenarios, "_trapezoid_position",
                            lambda *args: calls.append(args) or position(*args))
        scenarios._waypoint_positions(times, waypoints, cfg.max_speed, cfg.accel)
        assert 0 < len(calls) <= starting < 10


def just_under_the_yaw_bound(cfg: ScenarioConfig) -> float:
    """The fastest yaw rate `cfg` accepts: one that turns just under pi
    between pose samples."""
    rate = math.pi * cfg.sample_rate
    while True:
        rate = math.nextafter(rate, 0.0)
        try:
            return dataclasses.replace(cfg, yaw_rate=rate).yaw_rate
        except InvalidConfig:
            pass


class TestFramePoses:
    """A sweep's poses, one flight re-spun per yaw rate, are each rate's own
    tracks interpolated at its frame times, bit for bit."""

    @pytest.mark.parametrize("frame_rate", [4.0, 7.0], ids=["on-samples", "between-samples"])
    @pytest.mark.parametrize("kind,robots", [("swap", 2), ("hover_orbit", 4),
                                             ("random_waypoint", 1), ("random_waypoint", 3)])
    def test_each_rate_equals_its_own_tracks(self, kind, robots, frame_rate):
        cfg = ScenarioConfig(kind=kind, num_robots=robots, duration=9.0, rng_seed=2,
                             frame_rate=frame_rate)
        times = frame_schedule(cfg)
        on_samples = np.isin(times, scenarios._sample_times(cfg))
        assert on_samples.all() if frame_rate == 4.0 else on_samples.sum() == 10
        configs = [dataclasses.replace(cfg, yaw_rate=rate)
                   for rate in (0.0, 2.0, 4.5, 8.0, just_under_the_yaw_bound(cfg))]
        sweep = list(frame_poses(configs))
        assert len(sweep) == len(configs)
        for config, (ids, positions, quats) in zip(configs, sweep):
            expected = track_poses(generate_scenario(config), times, "r0")
            assert ids == expected[0] == tuple(f"r{i}" for i in range(robots))
            for got, want in zip((positions, quats), expected[1:]):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), config.yaw_rate
        assert all(positions is sweep[0][1] for _ids, positions, _quats in sweep)

    def test_configurations_must_share_the_flight(self):
        cfg = swap_config()
        with pytest.raises(ValueError, match="yaw_rate"):
            frame_poses([cfg, dataclasses.replace(cfg, yaw_rate=2.0, duration=10.0)])


class TestValidation:
    @pytest.mark.parametrize("name,value", [
        ("kind", "spiral"), ("camera_pitch", "down"), ("num_robots", 2.5), ("rng_seed", -1),
        ("waypoint_count", "6"), ("duration", math.inf), ("yaw_rate", math.nan),
    ])
    def test_built_config_is_checked_naming_the_key(self, name, value):
        """The constructor and dataclasses.replace both run the check: no
        unchecked ScenarioConfig exists."""
        with pytest.raises(InvalidConfig, match=name):
            ScenarioConfig(**{"kind": "swap", "num_robots": 2, "duration": 14.0, name: value})
        with pytest.raises(InvalidConfig, match=name):
            dataclasses.replace(swap_config(), **{name: value})

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(kind="spiral", num_robots=2, duration=5.0)

    def test_unknown_pitch(self):
        with pytest.raises(InvalidConfig):
            swap_config(camera_pitch="down")

    def test_robot_count_range(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(kind="random_waypoint", num_robots=5, duration=5.0)

    def test_sample_rate_floor(self):
        with pytest.raises(InvalidConfig):
            swap_config(sample_rate=50.0)

    def test_bad_arena_bounds(self):
        with pytest.raises(InvalidConfig):
            swap_config(arena_min=(1, 0, 0), arena_max=(-1, 1, 1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["duration", "frame_rate", "sample_rate", "yaw_rate"])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            swap_config(**{name: value})

    def test_vector_fields_take_lists_or_tuples(self):
        swap_config(arena_min=[-1, -1, 0.1], swap_start_b=(0.7, 0.7, 0.9))
        for heights in (None, (), [0.6, 1.0]):
            ScenarioConfig(kind="hover_orbit", num_robots=3, duration=5.0,
                           hover_heights=heights)

    @pytest.mark.parametrize("name,value", [
        ("arena_min", (1.0, 2.0)), ("arena_max", np.ones(3)), ("swap_start_a", (0.0, True, 0.5)),
        ("swap_start_b", "0.7"), ("hover_heights", 1.0), ("hover_heights", ((0.6,),)),
    ])
    def test_malformed_vector_rejected(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            swap_config(**{name: value})

    def test_non_finite_start_rejected(self):
        with pytest.raises(InvalidConfig, match="swap_start_a"):
            swap_config(swap_start_a=(0.0, math.nan, 0.5))

    @pytest.mark.parametrize("overrides", [
        dict(duration=2e5, sample_rate=100.0),
        dict(duration=10.0, sample_rate=2e6),
        dict(duration=100.0, frame_rate=2e5),
    ])
    def test_sample_cap_rejects_before_allocating(self, monkeypatch, overrides):
        def no_allocation(cfg):
            raise AssertionError("track arrays allocated for a rejected config")

        monkeypatch.setattr(scenarios, "_sample_times", no_allocation)
        monkeypatch.setattr(scenarios, "frame_schedule", no_allocation)
        with pytest.raises(InvalidConfig, match="exceeds the limit"):
            generate_scenario(swap_config(**overrides))

    def test_yaw_step_of_pi_or_more_rejected(self):
        # at 100 Hz, 400 rad/s turns 4 rad between samples, which slerp would alias
        with pytest.raises(InvalidConfig, match="yaw_rate"):
            swap_config(yaw_rate=400.0, sample_rate=100.0)
        swap_config(yaw_rate=300.0, sample_rate=100.0)

    def test_sample_cap_admits_the_limit(self):
        cfg = swap_config(duration=1e5, sample_rate=100.0)
        assert cfg.duration * cfg.sample_rate == scenarios.MAX_SAMPLES
