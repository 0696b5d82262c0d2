"""Ellipsoid condition, belief-set updates, and the evaluation protocol."""

import math

import numpy as np
import pytest

from spincam.camera import camera_for_pitch
from spincam.downwash import (
    Belief,
    BeliefSet,
    EllipsoidSpec,
    ellipsoid_margin,
    is_downwash,
    predict_downwash,
    run_downwash_eval,
    update_belief,
)
from spincam.geometry import Pose, Quaternion, RigidTransform
from spincam.perception import PositionEstimate
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario

E = EllipsoidSpec(0.15, 0.15, 0.3)


def pose(position, yaw: float = 0.0, t: float = 0.0) -> Pose:
    return Pose(t, RigidTransform(Quaternion.from_yaw(yaw), np.asarray(position, dtype=float)))


class TestEllipsoidMargin:
    def test_boundary_above(self):
        # 0.6 m straight up is exactly twice the vertical radius: safe boundary
        assert ellipsoid_margin((0, 0, 0.6), (0, 0, 0), E) == 2.0
        assert not is_downwash((0, 0, 0.6), (0, 0, 0), E)

    def test_coincident(self):
        assert ellipsoid_margin((1, 2, 3), (1, 2, 3), E) == 0.0

    def test_direct_evaluation(self):
        assert ellipsoid_margin((0.15, 0, 0.15), (0, 0, 0), E) == pytest.approx(
            math.sqrt(1.25), abs=1e-12
        )
        assert is_downwash((0.15, 0, 0.15), (0, 0, 0), E)

    def test_symmetric_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert ellipsoid_margin(a, b, E) == ellipsoid_margin(b, a, E)

    def test_scales_inversely_with_ellipsoid(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            doubled = EllipsoidSpec(2 * E.rx, 2 * E.ry, 2 * E.rz)
            assert ellipsoid_margin(a, b, doubled) == pytest.approx(
                0.5 * ellipsoid_margin(a, b, E), rel=1e-12
            )

    def test_spherical_ellipsoid_reduces_to_sphere_test(self):
        rng = np.random.default_rng(2)
        r = 0.2
        sphere = EllipsoidSpec(r, r, r)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert abs(ellipsoid_margin(a, b, sphere) - np.linalg.norm(a - b) / r) < 1e-12

    def test_positive_radii_required(self):
        with pytest.raises(ValueError):
            EllipsoidSpec(0.0, 0.1, 0.1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_finite_radii_required(self, radius):
        with pytest.raises(ValueError, match="finite"):
            EllipsoidSpec(radius, 0.1, 0.1)


class TestPredictDownwash:
    def test_empty_beliefs(self):
        assert predict_downwash(BeliefSet.empty(), (0, 0, 0), E) is False

    def test_belief_directly_overhead(self):
        beliefs = BeliefSet((Belief(np.array([0.0, 0.0, 1.2]), 0.0),))
        # margin 0.2/0.3 = 0.667 < 2
        assert predict_downwash(beliefs, (0, 0, 1.0), E) is True

    def test_far_belief(self):
        beliefs = BeliefSet((Belief(np.array([1.0, 1.0, 0.0]), 0.0),))
        assert predict_downwash(beliefs, (0, 0, 0), E) is False

    def test_monotone_in_beliefs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            positions = rng.uniform(-1, 1, (4, 3))
            ego = rng.uniform(-1, 1, 3)
            beliefs = BeliefSet(tuple(Belief(p, 0.0) for p in positions))
            extended = BeliefSet(beliefs.beliefs + (Belief(rng.uniform(-1, 1, 3), 0.0),))
            if predict_downwash(beliefs, ego, E):
                assert predict_downwash(extended, ego, E)


class TestUpdateBelief:
    def test_empty_stays_empty(self, identity_camera):
        updated = update_belief(BeliefSet.empty(), pose((0, 0, 0)), identity_camera, [])
        assert len(updated) == 0

    def test_belief_behind_camera_is_retained(self, identity_camera):
        # identity extrinsic: camera looks along world +z from the origin
        stale = Belief(np.array([0.0, 0.0, -1.0]), 0.0)
        updated = update_belief(BeliefSet((stale,)), pose((0, 0, 0)), identity_camera, [])
        assert list(updated) == [stale]

    def test_three_frame_hand_trace(self, identity_camera):
        # frame 0: perceive q0 at (0,0,2) in camera frame -> belief appears
        beliefs = BeliefSet.empty()
        beliefs = update_belief(
            beliefs, pose((0, 0, 0), t=0.0), identity_camera,
            [PositionEstimate(np.array([0.0, 0.0, 2.0]), "oracle")],
        )
        assert len(beliefs) == 1
        np.testing.assert_allclose(beliefs.positions(), [[0.0, 0.0, 2.0]])
        # frame 1: old belief reprojects (removed); new perception elsewhere
        beliefs = update_belief(
            beliefs, pose((0, 0, 0), t=1.0), identity_camera,
            [PositionEstimate(np.array([0.5, 0.0, 2.0]), "oracle")],
        )
        assert len(beliefs) == 1
        np.testing.assert_allclose(beliefs.positions(), [[0.5, 0.0, 2.0]])
        assert beliefs.beliefs[0].born_at == 1.0
        # frame 2: belief still in view, nothing perceived -> belief set empties
        beliefs = update_belief(beliefs, pose((0, 0, 0), t=2.0), identity_camera, [])
        assert len(beliefs) == 0

    def test_predictions_transform_to_world_frame(self, intr):
        camera = camera_for_pitch("forward", intr)
        ego = pose((1.0, 2.0, 0.5), yaw=math.pi / 2, t=0.0)
        # camera optical axis: robot +x rotated by yaw 90 deg -> world +y
        beliefs = update_belief(
            BeliefSet.empty(), ego, camera,
            [PositionEstimate(np.array([0.0, 0.0, 2.0]), "oracle")],
        )
        np.testing.assert_allclose(beliefs.positions(), [[1.0, 4.0, 0.5]], atol=1e-9)

    def test_merge_radius_replaces_nearby_belief(self, identity_camera):
        # the stale belief projects just outside the image (u = 321.5), so it
        # is not removed by reprojection; the estimate lands just inside
        stale = Belief(np.array([1.9, 0.0, 2.0]), 0.0)
        nearby = update_belief(
            BeliefSet((stale,)), pose((0, 0, 0), t=1.0), identity_camera,
            [PositionEstimate(np.array([1.85, 0.0, 2.0]), "oracle")],
        )
        assert len(nearby) == 1
        assert nearby.beliefs[0].born_at == 1.0
        np.testing.assert_allclose(nearby.positions(), [[1.85, 0.0, 2.0]])

    def test_idempotent_on_empty_frames(self, identity_camera):
        stale = BeliefSet((Belief(np.array([0.0, 0.0, -1.5]), 0.0),))
        once = update_belief(stale, pose((0, 0, 0), t=1.0), identity_camera, [])
        twice = update_belief(once, pose((0, 0, 0), t=2.0), identity_camera, [])
        assert [tuple(b.position) for b in once] == [tuple(b.position) for b in twice]


class TestRunDownwashEval:
    def test_single_robot_is_vacuous(self):
        cfg = ScenarioConfig(kind="random_waypoint", num_robots=1, duration=5.0, rng_seed=0)
        tracks = generate_scenario(cfg)
        results = run_downwash_eval(
            tracks, camera_for_pitch("up"), frame_schedule(cfg), cfg.ellipsoid, ego_id="r0"
        )
        assert results and all(not r.gt_downwash and not r.pred_downwash for r in results)

    @pytest.mark.parametrize("kind,num,duration,seed", [
        ("swap", 2, 14.0, 0),
        ("hover_orbit", 3, 12.0, 0),
        ("random_waypoint", 3, 20.0, 0),
    ])
    def test_omnidirectional_oracle_matches_ground_truth(self, kind, num, duration, seed):
        cfg = ScenarioConfig(kind=kind, num_robots=num, duration=duration, rng_seed=seed)
        tracks = generate_scenario(cfg)
        results = run_downwash_eval(
            tracks, camera_for_pitch("forward"), frame_schedule(cfg), cfg.ellipsoid,
            ego_id="r0", mode="omni",
        )
        assert all(r.pred_downwash == r.gt_downwash for r in results)

    def test_oracle_up_camera_beats_forward_on_swap(self):
        cfg = ScenarioConfig(kind="swap", num_robots=2, duration=14.0)
        tracks = generate_scenario(cfg)
        frames = frame_schedule(cfg)

        def f1_for(pitch: str) -> float:
            results = run_downwash_eval(
                tracks, camera_for_pitch(pitch), frames, cfg.ellipsoid, ego_id="r0"
            )
            tp = sum(r.gt_downwash and r.pred_downwash for r in results)
            fp = sum(not r.gt_downwash and r.pred_downwash for r in results)
            fn = sum(r.gt_downwash and not r.pred_downwash for r in results)
            return 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0

        assert f1_for("up") >= 0.95
        assert f1_for("forward") < f1_for("up")

    def test_unknown_mode_rejected(self):
        cfg = ScenarioConfig(kind="swap", num_robots=2, duration=2.0)
        tracks = generate_scenario(cfg)
        with pytest.raises(ValueError):
            run_downwash_eval(
                tracks, camera_for_pitch("up"), frame_schedule(cfg), cfg.ellipsoid,
                ego_id="r0", mode="psychic",
            )

    def test_detector_mode_needs_noise_model(self):
        cfg = ScenarioConfig(kind="swap", num_robots=2, duration=2.0)
        tracks = generate_scenario(cfg)
        with pytest.raises(ValueError):
            run_downwash_eval(
                tracks, camera_for_pitch("up"), frame_schedule(cfg), cfg.ellipsoid,
                ego_id="r0", mode="box",
            )
