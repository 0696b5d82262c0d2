"""Scenario track generation and the frame schedule."""

import math

import numpy as np
import pytest

from spincam import scenarios
from spincam.downwash import ellipsoid_margin
from spincam.errors import InvalidConfig
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario


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


class TestSwapScenario:
    def test_endpoints_exchange_xy_and_keep_heights(self):
        cfg = swap_config(
            duration=4.0, swap_start_a=(0.0, 0.0, 0.5), swap_start_b=(1.0, 1.0, 1.0)
        )
        tracks = {t.robot_id: t for t in generate_scenario(cfg)}
        r0_end = tracks["r0"].samples[-1].position
        r1_end = tracks["r1"].samples[-1].position
        np.testing.assert_allclose(r0_end, [1.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(r1_end, [0.0, 0.0, 1.0], atol=1e-12)

    def test_camera_robot_is_the_lower_one(self):
        cfg = swap_config(swap_start_a=(0.5, 0.5, 1.2), swap_start_b=(-0.5, -0.5, 0.6))
        tracks = {t.robot_id: t for t in generate_scenario(cfg)}
        assert tracks["r0"].samples[0].position[2] == 0.6

    def test_downwash_event_guaranteed(self):
        # some sample has horizontal distance below r_x at the initial height gap
        cfg = swap_config()
        tracks = generate_scenario(cfg)
        p0 = np.array([p.position for p in tracks[0].samples])
        p1 = np.array([p.position for p in tracks[1].samples])
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
            positions = np.array([p.position for p in tracks[rid].samples])
            assert np.ptp(positions, axis=0).max() == 0.0
        orbit = np.array([p.position for p in tracks["r0"].samples])
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
            positions = np.array([p.position for p in track.samples])
            assert np.all(positions >= np.array(cfg.arena_min) - 1e-9)
            assert np.all(positions <= np.array(cfg.arena_max) + 1e-9)

    def test_timestamps_strictly_increasing(self):
        for track in generate_scenario(self.config()):
            times = np.array([p.timestamp for p in track.samples])
            assert np.all(np.diff(times) > 0.0)

    def test_yaw_follows_configured_rate(self):
        cfg = self.config(yaw_rate=8.0)
        track = generate_scenario(cfg)[0]
        for a, b in zip(track.samples[:100], track.samples[1:101]):
            expected = 8.0 * (b.timestamp - a.timestamp)
            delta = (b.orientation.yaw() - a.orientation.yaw()) % (2.0 * math.pi)
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_deterministic_in_seed(self):
        cfg = self.config(rng_seed=42)
        first = generate_scenario(cfg)
        second = generate_scenario(cfg)
        for t1, t2 in zip(first, second):
            assert t1.robot_id == t2.robot_id
            for p1, p2 in zip(t1.samples, t2.samples):
                assert p1.timestamp == p2.timestamp
                assert np.array_equal(p1.position, p2.position)
                assert p1.orientation.as_array().tolist() == p2.orientation.as_array().tolist()

    def test_same_index_waypoints_keep_separation_margin(self):
        # robots hold their first waypoint before moving: margin >= 2 at t=0
        cfg = self.config(num_robots=4, rng_seed=9)
        tracks = generate_scenario(cfg)
        starts = [t.samples[0].position for t in tracks]
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                assert ellipsoid_margin(starts[i], starts[j], cfg.ellipsoid) >= 2.0


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(kind="spiral", num_robots=2, duration=5.0).validate()

    def test_unknown_pitch(self):
        with pytest.raises(InvalidConfig):
            swap_config(camera_pitch="down").validate()

    def test_robot_count_range(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(kind="random_waypoint", num_robots=5, duration=5.0).validate()

    def test_sample_rate_floor(self):
        with pytest.raises(InvalidConfig):
            swap_config(sample_rate=50.0).validate()

    def test_bad_arena_bounds(self):
        with pytest.raises(InvalidConfig):
            swap_config(arena_min=(1, 0, 0), arena_max=(-1, 1, 1)).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["duration", "frame_rate", "sample_rate", "yaw_rate"])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            swap_config(**{name: value}).validate()

    def test_non_finite_start_rejected(self):
        with pytest.raises(InvalidConfig, match="swap_start_a"):
            swap_config(swap_start_a=(0.0, math.nan, 0.5)).validate()

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
            swap_config(yaw_rate=400.0, sample_rate=100.0).validate()
        swap_config(yaw_rate=300.0, sample_rate=100.0).validate()

    def test_sample_cap_admits_the_limit(self):
        cfg = swap_config(duration=1e5, sample_rate=100.0)
        assert cfg.duration * cfg.sample_rate == scenarios.MAX_SAMPLES
        cfg.validate()
