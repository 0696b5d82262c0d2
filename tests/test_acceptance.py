"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from test_perception import sphere_silhouette_bbox

from spincam.camera import (
    CameraIntrinsics,
    FrameAnnotation,
    NeighborAnnotation,
    back_project,
    camera_for_pitch,
    project,
)
from spincam.cli import main
from spincam.datasets import GyroSequence, estimate_time_offset
from spincam.downwash import run_downwash_eval
from spincam.dynamics import crazyflie_params, mix_wrench, wrench_from_motors
from spincam.metrics import ConfusionCounts, classification_metrics, hungarian
from spincam.perception import decode_box, decode_grid, encode_grid
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario

INTR = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_1_downwash_table_trend():
    with criterion(1, "swap-scenario downwash F1: forward <= 0.5 < tilt45 < up >= 0.95"):
        base = ScenarioConfig(kind="swap", num_robots=2, duration=14.0)
        start = time.monotonic()
        scores = {}
        for rate in (2.0, 4.0, 6.0, 8.0):
            for pitch in ("forward", "tilt45", "up"):
                cfg = replace(base, yaw_rate=rate, camera_pitch=pitch)
                tracks = generate_scenario(cfg)
                gt, pred = run_downwash_eval(
                    tracks, camera_for_pitch(pitch), frame_schedule(cfg), cfg.ellipsoid,
                    ego_id="r0", mode="oracle",
                )
                counts = ConfusionCounts.from_columns(gt, pred)
                scores[(rate, pitch)] = classification_metrics(counts)[2]
        elapsed = time.monotonic() - start
        for rate in (2.0, 4.0, 6.0, 8.0):
            f_fwd, f_45, f_up = (scores[(rate, p)] for p in ("forward", "tilt45", "up"))
            assert f_up >= 0.95, f"up camera f1 {f_up} at {rate} rad/s"
            assert f_fwd <= 0.5, f"forward camera f1 {f_fwd} at {rate} rad/s"
            assert f_fwd < f_45 < f_up, f"ordering broken at {rate} rad/s: {f_fwd}, {f_45}, {f_up}"
        assert elapsed < 10.0, f"12-cell evaluation took {elapsed:.1f}s"


def test_criterion_2_motor_energy_invariant():
    with criterion(2, "sum of squared motor speeds equals f/kappa_f to 1e-12"):
        params = crazyflie_params()
        rng = np.random.default_rng(0)
        f = 0.45
        for _ in range(1000):
            u = rng.uniform(0.02, 1.0, 4)
            u *= (f / params.kappa_f) / u.sum()
            eta = wrench_from_motors(u, params)
            u_back = mix_wrench(eta, params)
            assert abs(u_back.sum() - f / params.kappa_f) <= 1e-12


def test_criterion_3_sphere_decoding_exact():
    with criterion(3, "sphere-silhouette box decoding exact to 1e-6 over 0.5-5 m"):
        radius = 0.05
        for distance in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            for theta in (-0.5, -0.2, 0.0, 0.3, 0.6):
                center = np.array(
                    [distance * math.sin(theta), 0.0, distance * math.cos(theta)]
                )
                bbox = sphere_silhouette_bbox(center, radius, INTR)
                estimate = decode_box(bbox, INTR, radius)
                assert np.linalg.norm(estimate.position - center) <= 1e-6
                assert abs(np.linalg.norm(estimate.position) - distance) <= 1e-6


def test_criterion_4_projection_inverse_pair():
    with criterion(4, "project/back_project identity: 1e-9 (k1=0), 1e-8 (k1=0.1)"):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            u, v = rng.uniform(0.5, 319.5, 2)
            z = rng.uniform(0.2, 6.0)
            point = back_project((u, v), z, INTR)
            px = project(point, INTR)
            assert abs(px[0] - u) <= 1e-9 and abs(px[1] - v) <= 1e-9
            # and the 3D point itself is recovered given its true depth
            recovered = back_project(px, float(point[2]), INTR)
            assert np.linalg.norm(recovered - point) <= 1e-9
        distorted = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=0.1)
        for _ in range(10_000):
            u, v = rng.uniform(0.5, 319.5, 2)
            z = rng.uniform(0.2, 6.0)
            point = back_project((u, v), z, distorted)
            px = project(point, distorted)
            assert abs(px[0] - u) <= 1e-8 and abs(px[1] - v) <= 1e-8


def exhaustive_minimum(cost: np.ndarray) -> float:
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    rows = range(n)
    best = math.inf
    for cols in itertools.permutations(range(m), n):
        best = min(best, sum(cost[r, c] for r, c in zip(rows, cols)))
    return best


def test_criterion_5_hungarian_optimality():
    with criterion(5, "assignment equals brute-force permutation minimum (500 matrices)"):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            cost = rng.uniform(0.0, 10.0, (n, m))
            result = hungarian(cost)
            assert abs(result.total_cost - exhaustive_minimum(cost)) <= 1e-9
            assert len(result.pairs) == min(n, m)


def test_criterion_6_grid_round_trip_bounds():
    with criterion(6, "grid encode/decode: exact depth, lateral error within half a cell"):
        rng = np.random.default_rng(3)
        rows, cols = 28, 40
        bound_x = (INTR.width / cols / 2.0) / INTR.fx
        bound_y = (INTR.height / rows / 2.0) / INTR.fy
        for frame_id in range(100):
            neighbors = []
            for j in range(int(rng.integers(1, 5))):
                z = rng.uniform(0.4, 5.0)
                x = rng.uniform(-0.85, 0.85) * z * (INTR.cx / INTR.fx)
                y = rng.uniform(-0.85, 0.85) * z * (INTR.cy / INTR.fy)
                position = np.array([x, y, z])
                center = project(position, INTR)
                neighbors.append(
                    NeighborAnnotation(f"r{j + 1}", position, center,
                                       np.concatenate([center - 1, center + 1]))
                )
            annotation = FrameAnnotation(frame_id=frame_id, timestamp=0.0, ego_id="r0",
                                         neighbors=neighbors)
            gmap = encode_grid(annotation, INTR, rows, cols)
            for estimate in decode_grid(gmap, INTR):
                deltas = [np.linalg.norm(estimate.position - n.rel_position)
                          for n in neighbors]
                truth = neighbors[int(np.argmin(deltas))].rel_position
                assert estimate.position[2] == truth[2]
                assert abs(estimate.position[0] - truth[0]) <= truth[2] * bound_x + 1e-12
                assert abs(estimate.position[1] - truth[1]) <= truth[2] * bound_y + 1e-12


def banded_signal(rng):
    freqs = rng.uniform(0.5, 20.0, (3, 6))
    amps = rng.uniform(0.2, 1.0, (3, 6))
    phases = rng.uniform(0.0, 2.0 * math.pi, (3, 6))

    def evaluate(t):
        out = np.zeros((len(t), 3))
        for axis in range(3):
            for f, a, p in zip(freqs[axis], amps[axis], phases[axis]):
                out[:, axis] += a * np.sin(2.0 * math.pi * f * t + p)
        return out

    return evaluate


def test_criterion_7_time_offset_recovery():
    with criterion(7, "1 kHz gyro offsets in [-0.1, 0.1] s: <= 1 ms; noiseless <= 1e-4 s"):
        rng = np.random.default_rng(4)
        t = np.arange(0.0, 10.0, 1e-3)
        shifts = np.concatenate([[-0.1, 0.1, 0.0], rng.uniform(-0.1, 0.1, 7)])
        for shift in shifts:
            signal = banded_signal(rng)
            a = GyroSequence(t, signal(t))
            b = GyroSequence(t, signal(t + shift))
            estimate = estimate_time_offset(a, b, 0.12)
            assert abs(estimate + shift) <= 1e-4, f"noiseless shift {shift}"
            noisy_b = GyroSequence(t, signal(t + shift) + rng.normal(0.0, 0.1, (len(t), 3)))
            estimate = estimate_time_offset(a, noisy_b, 0.12)
            assert abs(estimate + shift) <= 1e-3, f"noisy shift {shift}"


def test_criterion_8_pixel_sensitivity_scale():
    with criterion(8, "+/-2 px box jitter at 2 m: mean position error in [0.05, 0.5] m"):
        radius = 0.05  # Crazyflie-scale sphere
        center = np.array([0.0, 0.0, 2.0])
        bbox = sphere_silhouette_bbox(center, radius, INTR)
        rng = np.random.default_rng(5)
        errors = []
        for _ in range(20_000):
            d = rng.uniform(-2.0, 2.0, 4)
            u_lo, u_hi = sorted((bbox[0] + d[0], bbox[2] + d[1]))
            v_lo, v_hi = sorted((bbox[1] + d[2], bbox[3] + d[3]))
            if u_hi - u_lo < 1e-9:
                continue
            box = (u_lo, v_lo, u_hi, v_hi)
            errors.append(np.linalg.norm(decode_box(box, INTR, radius).position - center))
        mean_error = float(np.mean(errors))
        assert 0.05 <= mean_error <= 0.5, f"mean error {mean_error:.3f} m"


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical datasets and reports"):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"kind": "swap", "num_robots": 2, "duration": 14.0, "camera_pitch": "up"}
        ))
        outputs = []
        for name in ("one", "two"):
            sim_out = tmp_path / f"sim_{name}"
            eval_out = tmp_path / f"eval_{name}"
            assert main(["simulate", "--config", str(config), "--out", str(sim_out),
                         "--seed", "77"]) == 0
            assert main(["downwash-eval", "--dataset", str(sim_out / "dataset.ndjson"),
                         "--oracle", "--out", str(eval_out)]) == 0
            outputs.append(
                ((sim_out / "dataset.ndjson").read_bytes(),
                 (eval_out / "report.csv").read_bytes())
            )
        assert outputs[0][0] == outputs[1][0], "datasets differ"
        assert outputs[0][1] == outputs[1][1], "reports differ"


def test_criterion_10_belief_oracle_equivalence():
    with criterion(10, "omnidirectional exact perception matches ground truth (F1=1.0)"):
        cases = [
            ScenarioConfig(kind="swap", num_robots=2, duration=14.0),
            ScenarioConfig(kind="hover_orbit", num_robots=3, duration=12.0),
            ScenarioConfig(kind="random_waypoint", num_robots=3, duration=20.0, rng_seed=0),
        ]
        for cfg in cases:
            tracks = generate_scenario(cfg)
            gt, pred = run_downwash_eval(
                tracks, camera_for_pitch(cfg.camera_pitch), frame_schedule(cfg),
                cfg.ellipsoid, ego_id="r0", mode="omni",
            )
            assert np.array_equal(pred, gt), cfg.kind
            counts = ConfusionCounts.from_columns(gt, pred)
            assert counts.tp >= 1, f"{cfg.kind}: no positive frames, F1 undefined"
            assert classification_metrics(counts)[2] == 1.0
