"""Ellipsoid condition, the belief rule, and the evaluation protocol."""

import math
import tracemalloc

import numpy as np
import pytest

from run_columns import IDENTITY, run_records

from spincam import downwash
from spincam.camera import CameraIntrinsics, camera_for_pitch, in_view, world_to_camera_arrays
from spincam.downwash import (
    DOWNWASH_MARGIN,
    MERGE_RADIUS,
    MIN_RADIUS,
    Cell,
    EllipsoidSpec,
    ellipsoid_margin,
    ellipsoid_margins,
    evaluate_cells,
    evaluate_downwash_records,
    run_downwash_eval,
)
from spincam.geometry import quat_rotate
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario

E = EllipsoidSpec(0.15, 0.15, 0.3)


class TestEllipsoidMargin:
    def test_boundary_above(self):
        # 0.6 m straight up is exactly twice the vertical radius: safe boundary
        assert ellipsoid_margin((0, 0, 0.6), (0, 0, 0), E) == 2.0
        assert not ellipsoid_margin((0, 0, 0.6), (0, 0, 0), E) < DOWNWASH_MARGIN

    def test_coincident(self):
        assert ellipsoid_margin((1, 2, 3), (1, 2, 3), E) == 0.0

    def test_direct_evaluation(self):
        assert ellipsoid_margin((0.15, 0, 0.15), (0, 0, 0), E) == pytest.approx(
            math.sqrt(1.25), abs=1e-12
        )
        assert ellipsoid_margin((0.15, 0, 0.15), (0, 0, 0), E) < DOWNWASH_MARGIN

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

    def test_margin_of_exactly_two_is_no_violation(self):
        # 0.6 m straight above, rz 0.3: the margin is exactly DOWNWASH_MARGIN
        assert not downwash._violates(np.array([0.0, 0.0, 0.6]), np.zeros(3), E)

    def test_positive_radii_required(self):
        with pytest.raises(ValueError):
            EllipsoidSpec(0.0, 0.1, 0.1)

    @pytest.mark.parametrize("radius", [-0.1, 1e-320, np.nextafter(MIN_RADIUS, 0.0)])
    def test_radii_held_to_the_floor(self, radius):
        assert EllipsoidSpec(MIN_RADIUS, MIN_RADIUS, MIN_RADIUS).rx == MIN_RADIUS == 1e-6
        with pytest.raises(ValueError, match="ellipsoid radii must be at least 1e-06 m"):
            EllipsoidSpec(0.1, radius, 0.1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_finite_radii_required(self, radius):
        with pytest.raises(ValueError, match="finite"):
            EllipsoidSpec(radius, 0.1, 0.1)

    def test_radius_past_int64_gives_float_margins(self):
        # a dataset header may hold an integer radius too large for int64
        wide = EllipsoidSpec(0.15, 2**64, 0.3)
        margins = ellipsoid_margins([[0.15, 0.0, 0.0], [0.0, 1.0, 0.6]], wide)
        assert margins.dtype == np.float64
        np.testing.assert_allclose(margins, [1.0, 2.0], rtol=1e-15)


# the robots the hand-built frames perceive, parked 100 m below the ego's
# flights so that they never enter its ellipsoid
SEEN_IDS = ("r1", "r2", "r3", "r4", "r5")
PARKED = np.tile([0.0, 0.0, -100.0], (len(SEEN_IDS), 1))


def record(frame, estimates=(), position=(0.0, 0.0, 0.0), quat=IDENTITY) -> tuple:
    """Frame `frame`, stamped `frame` seconds, of an ego at `position` and
    `quat` whose perception sees the camera-frame positions `estimates`, as
    robots r1, r2, ... in turn: a frame of `run_records`."""
    rows = [(r, e, (0.0, 0.0), (0.0, 0.0, 1.0, 1.0)) for r, e in enumerate(estimates, start=1)]
    return (frame, float(frame), np.vstack([position, PARKED]),
            [quat, *[IDENTITY] * len(SEEN_IDS)], rows)


def predictions(records, camera, ellipsoid=E) -> list[bool]:
    _, _, pred = evaluate_downwash_records(run_records(("r0", *SEEN_IDS), records), camera,
                                           ellipsoid)
    return pred.tolist()


class TestPredictDownwash:
    def test_empty_beliefs(self, identity_camera):
        # a neighbor in the ellipsoid that perception never saw predicts nothing
        unseen = run_records(("r0", "r1"), [(0, 0.0, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.2]],
                                             [IDENTITY] * 2, [])])
        _, (gt,), (pred,) = evaluate_downwash_records(unseen, identity_camera, E)
        assert gt and not pred

    def test_belief_directly_overhead(self, identity_camera):
        # identity extrinsic: camera looks along world +z; margin 0.2/0.3 = 0.667 < 2
        records = [record(0, [(0.0, 0.0, 0.2)], position=(0.0, 0.0, 1.0))]
        assert predictions(records, identity_camera) == [True]

    def test_far_belief(self, identity_camera):
        assert predictions([record(0, [(1.0, 1.0, 1.0)])], identity_camera) == [False]

    def test_monotone_in_beliefs(self, identity_camera):
        rng = np.random.default_rng(3)
        for _ in range(50):
            positions = rng.uniform((-0.5, -0.5, 0.05), (0.5, 0.5, 1), (4, 3))
            extra = rng.uniform((-0.5, -0.5, 0.05), (0.5, 0.5, 1))
            if np.linalg.norm(positions - extra, axis=1).min() < MERGE_RADIUS:
                continue  # a nearby later estimate absorbs an earlier one
            if predictions([record(0, positions)], identity_camera) == [True]:
                assert predictions([record(0, [*positions, extra])], identity_camera) == [True]


class TestUpdateBelief:
    def test_empty_stays_empty(self, identity_camera):
        records = [record(f, position=(0.0, 0.0, 0.1 * f)) for f in range(4)]
        assert predictions(records, identity_camera) == [False] * 4

    def test_belief_behind_camera_is_retained(self, identity_camera):
        # frame 0 sees a neighbor 1 m above; from frame 1 the ego hovers 0.2 m
        # above it, so it lies behind the upward camera and its belief stays
        records = [record(0, [(0.0, 0.0, 1.0)]), record(1, position=(0.0, 0.0, 1.2))]
        assert predictions(records, identity_camera) == [False, True]

    def test_three_frame_hand_trace(self, identity_camera):
        # frame 0: perceive q0 at (0,0,2) -> belief appears
        # frame 1: old belief reprojects (removed); new perception at (0.5,0,2)
        # frame 2: belief still in view, nothing perceived -> belief set empties
        records = [record(0, [(0.0, 0.0, 2.0)]), record(1, [(0.5, 0.0, 2.0)]), record(2)]
        # only (0,0,2) violates a narrow ellipsoid, both violate a wide one
        assert predictions(records, identity_camera, EllipsoidSpec(0.2, 0.2, 1.5)) == [
            True, False, False]
        assert predictions(records, identity_camera, EllipsoidSpec(1.5, 1.5, 1.5)) == [
            True, True, False]

    def test_predictions_transform_to_world_frame(self, intr):
        camera = camera_for_pitch("forward", intr)
        # camera optical axis: robot +x rotated by yaw 90 deg -> world +y, so
        # the estimate 2 m ahead is the world point (1, 4, 0.5). Frame 1 puts
        # the ego on that point (depth 0: out of view), where an ellipsoid of
        # the least radii, MIN_RADIUS (1e-6 m), fires only if the belief lies
        # within 2e-6 m of it.
        yaw = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
        records = [record(0, [(0.0, 0.0, 2.0)], position=(1.0, 2.0, 0.5), quat=yaw),
                   record(1, position=(1.0, 4.0, 0.5))]
        tiny = EllipsoidSpec(MIN_RADIUS, MIN_RADIUS, MIN_RADIUS)
        assert predictions(records, camera, tiny) == [False, True]

    def test_merge_radius_replaces_nearby_belief(self, identity_camera):
        # the stale belief projects just outside the image (u = 321.5), so it
        # is not removed by reprojection; the estimate lands just inside.
        # Frame 2 turns the camera down from (1.95, 0, 2): the stale belief
        # lies 0.05 m away, the nearby one 0.1 m, both out of view.
        down = (0.0, 1.0, 0.0, 0.0)
        stale = [record(0, [(1.9, 0.0, 2.0)])]
        last = record(2, position=(1.95, 0.0, 2.0), quat=down)
        merged = stale + [record(1, [(1.85, 0.0, 2.0)]), last]
        kept = stale + [record(1), last]
        within_8cm, within_12cm = EllipsoidSpec(0.04, 0.04, 0.04), EllipsoidSpec(0.06, 0.06, 0.06)
        assert predictions(kept, identity_camera, within_8cm) == [False, False, True]
        assert predictions(merged, identity_camera, within_8cm) == [False, False, False]
        assert predictions(merged, identity_camera, within_12cm) == [False, False, True]

    def test_positions_exactly_the_merge_radius_apart_do_not_merge(self):
        assert np.linalg.norm([0.1, 0.0, 0.0]) == MERGE_RADIUS
        assert not downwash._near(np.zeros(3), np.array([0.1, 0.0, 0.0]))

    def test_absorption_matches_a_pairwise_loop(self):
        """A position is absorbed by any later position of its frame within
        MERGE_RADIUS; random frames of 0-7 positions in a 0.4 m cube."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            owner = np.repeat(np.arange(10), rng.integers(0, 8, 10))
            seen = rng.uniform(-0.2, 0.2, (len(owner), 3))
            expected = [any(owner[j] == owner[i] and np.linalg.norm(seen[j] - seen[i]) < 0.1
                            for j in range(i + 1, len(owner))) for i in range(len(owner))]
            assert downwash._absorbed(owner, seen).tolist() == expected

    def test_merge_temporaries_do_not_grow_with_frames_times_count_squared(
            self, identity_camera):
        """20 frames that each see 300 neighbors 0.2 m apart, none absorbed:
        the merge test of all pairs of a frame's positions at once would
        hold 20 x 300 x 300 x 3 floats (43 MB)."""
        robots, frames = 301, 20
        row = np.column_stack([0.2 * np.arange(robots), np.zeros(robots), np.full(robots, 5.0)])
        records = run_records([f"r{k:03d}" for k in range(robots)],
                              [(f, float(f), row, [IDENTITY] * robots, []) for f in range(frames)])
        tracemalloc.start()
        try:
            frame_ids, _, _ = evaluate_downwash_records(records, identity_camera, E, mode="omni")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frame_ids) == frames and peak < 16 * 2**20

    def test_idempotent_on_empty_frames(self, identity_camera):
        records = [record(0, [(0.0, 0.0, 1.5)])] + [
            record(f, position=(0.0, 0.0, 1.6)) for f in range(1, 5)]
        assert predictions(records, identity_camera) == [False] + [True] * 4


class TestRunDownwashEval:
    def test_single_robot_is_vacuous(self):
        cfg = ScenarioConfig(kind="random_waypoint", num_robots=1, duration=5.0, rng_seed=0)
        tracks = generate_scenario(cfg)
        gt, pred = run_downwash_eval(
            tracks, camera_for_pitch("up"), frame_schedule(cfg), cfg.ellipsoid, ego_id="r0"
        )
        assert gt.size and not gt.any() and not pred.any()

    @pytest.mark.parametrize("kind,num,duration,seed", [
        ("swap", 2, 14.0, 0),
        ("hover_orbit", 3, 12.0, 0),
        ("random_waypoint", 3, 20.0, 0),
    ])
    def test_omnidirectional_oracle_matches_ground_truth(self, kind, num, duration, seed):
        cfg = ScenarioConfig(kind=kind, num_robots=num, duration=duration, rng_seed=seed)
        tracks = generate_scenario(cfg)
        gt, pred = run_downwash_eval(
            tracks, camera_for_pitch("forward"), frame_schedule(cfg), cfg.ellipsoid,
            ego_id="r0", mode="omni",
        )
        assert np.array_equal(pred, gt)

    def test_oracle_up_camera_beats_forward_on_swap(self):
        cfg = ScenarioConfig(kind="swap", num_robots=2, duration=14.0)
        tracks = generate_scenario(cfg)
        frames = frame_schedule(cfg)

        def f1_for(pitch: str) -> float:
            gt, pred = run_downwash_eval(
                tracks, camera_for_pitch(pitch), frames, cfg.ellipsoid, ego_id="r0"
            )
            tp = int((gt & pred).sum())
            fp = int((~gt & pred).sum())
            fn = int((gt & ~pred).sum())
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


class TestEvaluateCells:
    IDS = ("r0", "r1")

    def cell(self, pitch, neighbor, frames=1):
        """`frames` frames of the ego at rest at the origin, its neighbor at
        `neighbor`, both level."""
        positions = np.tile(np.vstack([np.zeros(3), neighbor]), (frames, 1, 1))
        quats = np.tile(IDENTITY, (frames, 2, 1))
        return Cell(camera_for_pitch(pitch), np.arange(frames) / 6.0, self.IDS, positions,
                    quats)

    @pytest.mark.parametrize("frames", [1, 3])
    def test_belief_dies_at_its_cells_end(self, frames):
        """Cell 0 ends with a belief 0.5 m overhead, inside the ellipsoid;
        cell 1 opens with its forward camera seeing nothing and the neighbor
        far below. No belief crosses into cell 1."""
        overhead, parked = (0.0, 0.0, 0.5), (0.0, 0.0, -100.0)
        cells = [self.cell("up", overhead, frames), self.cell("forward", parked, frames)]
        # through cell 1's camera the belief is out of view and inside the
        # ellipsoid: only its cell's end can end it
        camera = cells[1].camera
        w2c_q, w2c_t = world_to_camera_arrays(IDENTITY, np.zeros(3), camera.rotation,
                                              camera.translation)
        assert not in_view(quat_rotate(w2c_q, overhead) + w2c_t, camera.intrinsics)
        assert ellipsoid_margin(overhead, np.zeros(3), E) < DOWNWASH_MARGIN
        (gt0, pred0), (gt1, pred1) = evaluate_cells(cells, E)
        assert gt0.all() and pred0.all()
        assert not gt1.any() and not pred1.any()

    def test_stacks_hold_whole_cells_up_to_the_frame_limit(self, monkeypatch):
        """No stack holds more than STACK_FRAMES frames unless one cell alone
        is larger, and cells that exactly fill STACK_FRAMES share a stack."""
        stacks, evaluate_stack = [], downwash._evaluate_stack

        def spy(stack, *args):
            stacks.append([len(cell.times) for cell in stack])
            return evaluate_stack(stack, *args)

        monkeypatch.setattr(downwash, "STACK_FRAMES", 4)
        monkeypatch.setattr(downwash, "_evaluate_stack", spy)
        lengths = [2, 2, 3, 5, 1]
        results = evaluate_cells([self.cell("up", (0.0, 0.0, 1.0), n) for n in lengths], E)
        assert [len(gt) for gt, _pred in results] == lengths
        assert all(sum(stack) <= 4 or len(stack) == 1 for stack in stacks)
        assert stacks == [[2, 2], [3], [5], [1]]

    def test_cells_must_share_intrinsics_and_robots(self):
        cell = self.cell("up", (0.0, 0.0, 1.0))
        other = cell._replace(camera=camera_for_pitch(
            "up", CameraIntrinsics(fx=150.0, fy=150.0, cx=160.0, cy=160.0)))
        with pytest.raises(ValueError, match="share"):
            evaluate_cells([cell, other], E)
        with pytest.raises(ValueError, match="share"):
            evaluate_cells([cell, cell._replace(robot_ids=("r0", "r2"))], E)
