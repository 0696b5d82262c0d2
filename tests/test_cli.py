"""Command-line interface: exit codes, outputs, determinism, rerun."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cli_cases
from cli_cases import DROP, HUGE, mutate, mutated_line
from gyro_logs import write_gyro_log
from reports import read_report
from run_columns import annotated

import spincam.downwash
from spincam import perception, scenarios
from spincam.camera import (
    CameraIntrinsics,
    annotate_poses,
    camera_for_pitch,
    track_poses,
)
from spincam.cli import main
from spincam.datasets import (
    GYRO_LOG_COLUMNS,
    Dataset,
    GyroSequence,
    load_noise_model,
    load_simulation_config,
    read_dataset,
    write_dataset,
)
from spincam.downwash import EllipsoidSpec, ellipsoid_margin, run_downwash_eval
from spincam.errors import OutOfRange
from spincam.geometry import DEFAULT_ROBOT_GEOMETRY, PoseTrack, RobotGeometry
from spincam.perception import NoiseModel
from spincam.metrics import ConfusionCounts
from spincam.scenarios import ScenarioConfig, frame_schedule, generate_scenario


# The README's minimal scenario config.
README_SWAP = {"kind": "swap", "num_robots": 2, "duration": 14.0, "yaw_rate": 4.0,
               "camera_pitch": "up", "rng_seed": 7}


def write_config(path, **overrides):
    config = {"kind": "swap", "num_robots": 2, "duration": 14.0, "rng_seed": 3,
              "camera_pitch": "up"}
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def swap_config(tmp_path):
    return write_config(tmp_path / "swap.json")


class TestSimulate:
    def test_writes_manifest_and_dataset(self, tmp_path, swap_config):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(swap_config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["dataset.ndjson", "dataset.npz"]
        dataset = read_dataset(out / "dataset.ndjson")
        assert dataset.camera.pitch_label == "up"
        assert len(dataset.frames) == 85

    def test_dataset_contains_a_downwash_frame(self, tmp_path, swap_config):
        out = tmp_path / "run"
        main(["simulate", "--config", str(swap_config), "--out", str(out)])
        dataset = read_dataset(out / "dataset.ndjson")
        hits = 0
        for record in dataset.frames:
            assert record.robot_ids[0] == "r0"
            ego = record.positions[0]
            for position in record.positions[1:]:
                if ellipsoid_margin(position, ego, dataset.ellipsoid) < 2.0:
                    hits += 1
        assert hits >= 1

    def test_duration_just_short_of_a_frame_time_runs(self, tmp_path):
        # duration x frame_rate falls 3e-11 short of 6: the schedule ends at 5/3 s,
        # not at 2 s past the tracks' end
        config = write_config(tmp_path / "short.json", duration=1.99999999999, frame_rate=3.0)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert read_dataset(out / "dataset.ndjson").records.timestamps.tolist() == [
            k / 3.0 for k in range(6)]
        assert main(["benchmark", "--config", str(config), "--oracle",
                     "--out", str(tmp_path / "bench")]) == 0

    def test_same_seed_byte_identical(self, tmp_path, swap_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(swap_config), "--out", str(out1), "--seed", "11"])
        main(["simulate", "--config", str(swap_config), "--out", str(out2), "--seed", "11"])
        for name in ("dataset.ndjson", "dataset.npz"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDownwashEval:
    def simulate(self, tmp_path, **overrides):
        config = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(config), "--out", str(out)])
        return out / "dataset.ndjson"

    @pytest.mark.parametrize("mode", ["oracle", "box", "grid"])
    def test_report_does_not_depend_on_the_sidecar(self, tmp_path, mode):
        dataset = self.simulate(tmp_path, k1=-0.08)
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')
        perceive = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        reports = []
        for sidecar in (True, False):
            if not sidecar:
                dataset.with_suffix(".npz").unlink()
            assert main(["downwash-eval", "--dataset", str(dataset), *perceive,
                         "--out", str(tmp_path / "eval")]) == 0
            reports.append((tmp_path / "eval" / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_oracle_up_camera_high_f1(self, tmp_path):
        dataset = self.simulate(tmp_path, camera_pitch="up")
        out = tmp_path / "eval"
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(out)]) == 0
        _, summary = read_report(out / "report.csv")
        assert summary["f1"] >= 0.95

    def test_oracle_forward_camera_low_f1(self, tmp_path):
        dataset = self.simulate(tmp_path, camera_pitch="forward")
        out = tmp_path / "eval"
        main(["downwash-eval", "--dataset", str(dataset), "--oracle", "--out", str(out)])
        _, summary = read_report(out / "report.csv")
        assert summary["f1"] < 0.5

    def test_empty_dataset_reports_zero_rows(self, tmp_path):
        camera = camera_for_pitch("up")
        track = PoseTrack("r0", [0.0, 1.0], np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        dataset = Dataset(
            camera=camera,
            geometry=DEFAULT_ROBOT_GEOMETRY,
            ellipsoid=EllipsoidSpec(),
            records=annotated([], track_poses([track], []), camera, DEFAULT_ROBOT_GEOMETRY),
        )
        path = tmp_path / "empty.ndjson"
        write_dataset(dataset, path)
        out = tmp_path / "eval"
        assert main(["downwash-eval", "--dataset", str(path), "--oracle",
                     "--out", str(out)]) == 0
        rows, _ = read_report(out / "report.csv")
        assert rows == []

    @pytest.mark.parametrize("radius", [0.5, 0.6, 1.0])
    def test_false_positive_boxes_wider_than_the_image(self, tmp_path, radius):
        """A robot this large gives fabricated boxes wider than the image
        when they lie near the camera; each is centred on the image."""
        config = write_config(tmp_path / "big.json", sphere_radius=radius)
        noise = tmp_path / "noise.json"
        noise.write_text('{"false_positive_rate": 3.0}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        assert main(["downwash-eval", "--dataset", str(tmp_path / "sim" / "dataset.ndjson"),
                     "--noise", str(noise), "--mode", "box", "--out", str(tmp_path / "e")]) == 0
        assert main(["benchmark", "--config", str(config), "--noise", str(noise), "--mode", "box",
                     "--yaw-rates", "4", "--pitches", "up", "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("radius,past_fold", [(0.5, False), (1.0, True)])
    def test_false_positive_boxes_past_a_barrel_lens_fold(self, tmp_path, monkeypatch,
                                                         radius, past_fold):
        """With k1 -0.08 the fold lies 231 px from the image centre; a
        fabricated box reaches past it once it is over 462 px wide (radius
        1.0 at depth below 0.74). Decoding skips such a box and the run
        completes."""
        skipped, undistort = [], perception.undistort_normalized

        def counted(xd, yd, k1):
            try:
                return undistort(xd, yd, k1)
            except OutOfRange:
                skipped.append((xd, yd))
                raise

        monkeypatch.setattr(perception, "undistort_normalized", counted)
        config = write_config(tmp_path / "big.json", sphere_radius=radius, k1=-0.08)
        noise = tmp_path / "noise.json"
        noise.write_text('{"false_positive_rate": 3.0}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        assert main(["downwash-eval", "--dataset", str(tmp_path / "sim" / "dataset.ndjson"),
                     "--noise", str(noise), "--mode", "box", "--out", str(tmp_path / "e")]) == 0
        assert bool(skipped) == past_fold

    @pytest.mark.parametrize("command", ["downwash-eval", "benchmark"])
    def test_oracle_evaluation_loads_no_numpy_random(self, tmp_path, command):
        """numpy loads numpy.random lazily (its random generators cost about 6
        MB), and neither an oracle evaluation nor an oracle sweep of the
        README's swap config draws anything."""
        if command == "downwash-eval":
            source = ["--dataset", str(self.simulate(tmp_path))]
        else:
            config = tmp_path / "swap.json"
            config.write_text(json.dumps(README_SWAP))
            source = ["--config", str(config)]
        argv = [command, *source, "--oracle", "--out", str(tmp_path / "e")]
        code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
                "from spincam.cli import main; "
                f"assert main({argv!r}) == 0; "
                "sys.exit(0 if eager or 'numpy.random' not in sys.modules else 1)")
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)

    def test_a_module_loads_only_the_modules_it_imports(self):
        """The package re-exports nothing: `spincam.geometry` needs only
        `spincam.errors`, and the command line never loads `spincam.dynamics`
        or, before a noisy evaluation, `spincam.seeding`. Nor does it load
        `hashlib`, which maps OpenSSL, before a dataset is written or read."""
        code = "import sys, {}; print(' '.join(sorted(sys.modules)))"
        loaded = {module: subprocess.run([sys.executable, "-c", code.format(module)], check=True,
                                         capture_output=True, text=True).stdout.split()
                  for module in ("spincam.geometry", "spincam.cli")}
        own = {module: [m for m in names if m.split(".")[0] == "spincam"]
               for module, names in loaded.items()}
        assert own["spincam.geometry"] == ["spincam", "spincam.errors", "spincam.geometry"]
        assert "spincam.cli" in own["spincam.cli"]
        assert not {"spincam.dynamics", "spincam.seeding"} & set(own["spincam.cli"])
        assert not {"hashlib", "_hashlib"} & set(loaded["spincam.cli"])

    def test_matching_and_noisy_evaluation_run_without_scipy(self, tmp_path):
        """The assignment is in-repo: with scipy blocked, matching and both
        noisy evaluation modes still run."""
        dataset = self.simulate(tmp_path)
        noise = tmp_path / "noise.json"
        noise.write_text('{"pixel_sigma": 1.0, "miss_rate": 0.1, "false_positive_rate": 0.5}')
        code = ("import sys; sys.modules['scipy'] = None; "
                "from spincam.cli import main; from spincam.metrics import hungarian, position_errors; "
                "assert hungarian([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]).total_cost == 5.0; "
                "assert position_errors([(0, 0, 1), (0, 0, 3)], [(0, 0, 2.5), (0, 0, 1.5)]) == [0.5, 0.5]; "
                + "; ".join(
                    f"assert main(['downwash-eval', '--dataset', {str(dataset)!r}, '--noise', "
                    f"{str(noise)!r}, '--mode', {mode!r}, '--out', {str(tmp_path / mode)!r}]) == 0"
                    for mode in ("box", "grid")))
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)

    def test_blocking_scipy_fails_its_import(self):
        """Control for the test above: the block does stop scipy loading."""
        code = ("import sys; sys.modules['scipy'] = None\n"
                "try:\n    import scipy.optimize\nexcept ImportError:\n    sys.exit(0)\n"
                "sys.exit(1)")
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)

    def test_renaming_robots_in_sort_order_keeps_every_report(self, tmp_path):
        """Robot ids enter no report: renamed with their sort order kept
        (r0 -> a0, r1 -> b1, r2 -> b2, r3 -> c), a flight's oracle, box and
        grid reports stay byte-identical."""
        config = write_config(tmp_path / "orbit.json", kind="hover_orbit", num_robots=4,
                              camera_pitch="tilt45", duration=20.0, frame_rate=30.0)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
                     "--seed", "7"]) == 0
        dataset = tmp_path / "sim" / "dataset.ndjson"
        names = {"r0": "a0", "r1": "b1", "r2": "b2", "r3": "c"}
        header, *frames = dataset.read_text().splitlines()
        renamed_lines = [header]
        for line in frames:
            frame = json.loads(line)
            frame["ego_id"] = names[frame["ego_id"]]
            frame["poses"] = {names[rid]: pose for rid, pose in frame["poses"].items()}
            for neighbor in frame["neighbors"]:
                neighbor["robot_id"] = names[neighbor["robot_id"]]
            renamed_lines.append(json.dumps(frame))
        renamed = tmp_path / "renamed.ndjson"
        renamed.write_text("\n".join(renamed_lines) + "\n")
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')
        for perceive in (["--oracle"], ["--noise", str(noise), "--mode", "box"],
                         ["--noise", str(noise), "--mode", "grid"]):
            reports = []
            for path in (dataset, renamed):
                out = tmp_path / "eval"
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["downwash-eval", "--dataset", str(path), *perceive,
                                 "--out", str(out)]) == 0
                reports.append((out / "report.csv").read_bytes())
            assert reports[0] == reports[1], perceive
            assert any(pred for _, _, pred in read_report(out / "report.csv")[0])

    @pytest.mark.parametrize("flight", [
        {"kind": "swap", "camera_pitch": "up"},
        {"kind": "hover_orbit", "num_robots": 3, "camera_pitch": "tilt45"},
        {"kind": "random_waypoint", "num_robots": 4, "camera_pitch": "forward"}])
    def test_an_unseen_robot_far_from_the_others_changes_no_report(self, tmp_path, flight):
        """A robot held 1e5 m below the ego's start, which no camera sees and
        which is near no robot, gets no neighbor row and changes no other row
        of the annotated run; the oracle, box and grid reports of the written
        dataset stay byte-identical."""
        spec = load_simulation_config(write_config(tmp_path / "flight.json", duration=8.0,
                                                   **flight))
        times = frame_schedule(spec.scenario)
        ids, positions, quats = track_poses(generate_scenario(spec.scenario), times)
        below = np.broadcast_to(positions[:1, :1] - [0.0, 0.0, 1e5], (len(times), 1, 3))
        level = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (len(times), 1, 4))
        runs = [annotate_poses(np.arange(len(times)), times, run_ids, run_positions, run_quats,
                               spec.camera.rotation, spec.camera.translation,
                               spec.camera.intrinsics, spec.geometry)
                for run_ids, run_positions, run_quats in (
                    (ids, positions, quats),
                    ((*ids, "r9"), np.concatenate([positions, below], axis=1),
                     np.concatenate([quats, level], axis=1)))]
        base, more = runs
        assert len(base.robot) and more.robot_ids == (*base.robot_ids, "r9")
        for name in ("frame_ids", "timestamps", "owner", "robot", "rel_positions", "centers",
                     "bboxes"):
            assert getattr(more, name).tobytes() == getattr(base, name).tobytes(), name
        assert more.positions[:, :-1].tobytes() == base.positions.tobytes()
        assert more.quats[:, :-1].tobytes() == base.quats.tobytes()
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')
        for k, run in enumerate(runs):
            write_dataset(Dataset(camera=spec.camera, geometry=spec.geometry,
                                  ellipsoid=spec.scenario.ellipsoid, records=run),
                          tmp_path / f"{k}.ndjson")
        for perceive in (["--oracle"], ["--noise", str(noise), "--mode", "box"],
                         ["--noise", str(noise), "--mode", "grid"]):
            reports = []
            for k in range(2):
                out = tmp_path / f"eval-{k}"
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["downwash-eval", "--dataset", str(tmp_path / f"{k}.ndjson"),
                                 *perceive, "--out", str(out)]) == 0
                reports.append((out / "report.csv").read_bytes())
            assert reports[0] == reports[1], perceive

    def test_ellipsoid_override(self, tmp_path):
        dataset = self.simulate(tmp_path)
        out = tmp_path / "eval"
        # gigantic ellipsoid: everything is downwash, recall stays 1
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--ellipsoid", "5,5,5", "--out", str(out)]) == 0
        rows, summary = read_report(out / "report.csv")
        assert all(gt for _, gt, _ in rows)


class TestBenchmark:
    def test_single_cell(self, tmp_path, swap_config):
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(swap_config), "--out", str(out),
                     "--yaw-rates", "4", "--pitches", "up", "--oracle"]) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[1].startswith("4.0,up,")

    def test_full_matrix_has_twelve_rows(self, tmp_path, swap_config):
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(swap_config), "--out", str(out),
                     "--oracle"]) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert len(lines) == 13

    def test_builds_one_flight_per_sweep(self, tmp_path, swap_config, monkeypatch):
        """The yaw rates re-spin one flight; none is generated again, or as tracks."""
        flights = []
        flight = scenarios._flight
        monkeypatch.setattr(scenarios, "_flight",
                            lambda cfg: flights.append(cfg.yaw_rate) or flight(cfg))
        monkeypatch.setattr(scenarios, "generate_scenario", None)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["benchmark", "--config", str(swap_config),
                         "--out", str(tmp_path / "b"), "--oracle"]) == 0
        assert flights == [2.0]

    @pytest.mark.parametrize("command,checks", [("simulate", 1), ("benchmark", 5)])
    def test_each_scenario_is_checked_once(self, tmp_path, swap_config, monkeypatch, command,
                                           checks):
        """A scenario is checked when it is built, and never again: the
        config's own, then one per yaw rate of the default sweep."""
        built = []
        check = ScenarioConfig.__post_init__
        monkeypatch.setattr(ScenarioConfig, "__post_init__",
                            lambda cfg: built.append(cfg) or check(cfg))
        oracle = ["--oracle"] if command == "benchmark" else []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(swap_config), "--out", str(tmp_path / "x"),
                         *oracle]) == 0
        assert len(built) == checks

    def test_list_flags_skip_blank_items(self, tmp_path, swap_config):
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(swap_config), "--out", str(out), "--oracle",
                     "--yaw-rates", "2,, 4,", "--pitches", " up ,"]) == 0
        rows = (out / "benchmark.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["2.0", "up"], ["4.0", "up"]]

    @staticmethod
    def sweep(tmp_path, kind, k1, mode, out="bench", rates="0,6"):
        """A 20 s sweep over the yaw rates (0 and 6) and every pitch, with a
        translated mount; returns its config path and benchmark.csv text."""
        config = write_config(tmp_path / f"{kind}.json", kind=kind,
                              num_robots=2 if kind == "swap" else 4, duration=20.0,
                              rng_seed=1, k1=k1, camera_translation=[0.02, -0.01, 0.015])
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')
        perceive = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / out),
                         "--yaw-rates", rates, *perceive]) == 0
        return config, (tmp_path / out / "benchmark.csv").read_text()

    @pytest.mark.parametrize("kind", ["hover_orbit", "random_waypoint"])
    @pytest.mark.parametrize("mode", ["oracle", "box", "grid"])
    def test_a_sweep_gives_the_rows_of_its_one_rate_sweeps(self, tmp_path, mode, kind):
        """The yaw rates of one sweep share a flight; each rate's rows are
        those of a sweep of that rate alone, in the order of the rates."""
        _config, swept = self.sweep(tmp_path, kind, 0.0, mode, rates="0,3,7.5")
        alone = [self.sweep(tmp_path, kind, 0.0, mode, out=f"alone-{rate}", rates=rate)[1]
                 for rate in ("0", "3", "7.5")]
        assert swept.splitlines()[1:] == [row for text in alone for row in text.splitlines()[1:]]

    @pytest.mark.parametrize("k1", [0.0, -0.08])
    @pytest.mark.parametrize("kind", ["swap", "hover_orbit", "random_waypoint"])
    @pytest.mark.parametrize("mode", ["oracle", "box", "grid"])
    def test_stacked_cells_count_as_runs_alone(self, tmp_path, mode, kind, k1):
        """Every cell of the stacked sweep counts what `run_downwash_eval`
        gives for that cell alone."""
        config, text = self.sweep(tmp_path, kind, k1, mode)
        spec = load_simulation_config(config)
        noise = None if mode == "oracle" else load_noise_model(tmp_path / "noise.json")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(rate, pitch) for rate, pitch, *_ in rows] == [
            (rate, pitch) for rate in ("0.0", "6.0") for pitch in ("forward", "tilt45", "up")]
        positives = 0
        for rate, pitch, *_scores, tp, fp, fn, tn in rows:
            scenario = dataclasses.replace(spec.scenario, yaw_rate=float(rate))
            camera = camera_for_pitch(pitch, spec.camera.intrinsics, spec.camera.translation)
            gt, pred = run_downwash_eval(generate_scenario(scenario), camera,
                                         frame_schedule(scenario), scenario.ellipsoid,
                                         ego_id="r0", geom=spec.geometry, mode=mode, noise=noise)
            counts = ConfusionCounts.from_columns(gt, pred)
            assert (int(tp), int(fp), int(fn), int(tn)) == (
                counts.tp, counts.fp, counts.fn, counts.tn), (rate, pitch)
            positives += counts.tp + counts.fp
        assert positives  # the sweep predicts downwash somewhere

    @pytest.mark.parametrize("mode", ["oracle", "box", "grid"])
    def test_cells_evaluated_alone_give_the_same_csv(self, tmp_path, monkeypatch, mode):
        _config, stacked = self.sweep(tmp_path, "hover_orbit", -0.08, mode)
        monkeypatch.setattr(spincam.downwash, "STACK_FRAMES", 1)
        _config, alone = self.sweep(tmp_path, "hover_orbit", -0.08, mode, out="alone")
        assert alone == stacked


class TestTimesync:
    def write_logs(self, tmp_path, shift: float):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 5.0, 1e-3)
        freqs, amps, phases = rng.uniform(0.5, 15.0, (3, 5)), rng.uniform(0.3, 1.0, (3, 5)), \
            rng.uniform(0.0, 6.28, (3, 5))

        def signal(tt):
            out = np.zeros((len(tt), 3))
            for axis in range(3):
                for f, a, p in zip(freqs[axis], amps[axis], phases[axis]):
                    out[:, axis] += a * np.sin(2 * np.pi * f * tt + p)
            return out

        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_gyro_log(GyroSequence(t, signal(t)), path_a)
        write_gyro_log(GyroSequence(t, signal(t + shift)), path_b)
        return path_a, path_b

    def test_identical_logs(self, tmp_path, capsys):
        path_a, path_b = self.write_logs(tmp_path, 0.0)
        assert main(["timesync", "--log-a", str(path_a), "--log-b", str(path_a)]) == 0
        assert abs(float(capsys.readouterr().out.split("=")[1])) < 1e-6

    def test_recovers_shift(self, tmp_path, capsys):
        path_a, path_b = self.write_logs(tmp_path, 0.02)
        assert main(["timesync", "--log-a", str(path_a), "--log-b", str(path_b),
                     "--window", "0.1"]) == 0
        offset = float(capsys.readouterr().out.split("=")[1])
        assert abs(offset + 0.02) < 1e-3


class TestRerun:
    def test_simulate_rerun_byte_identical(self, tmp_path, swap_config):
        out = tmp_path / "run"
        main(["simulate", "--config", str(swap_config), "--out", str(out), "--seed", "5"])
        first = (out / "dataset.ndjson").read_bytes()
        assert main(["rerun", "--manifest", str(out / "manifest.json")]) == 0
        assert (out / "dataset.ndjson").read_bytes() == first

    def test_eval_rerun_byte_identical(self, tmp_path, swap_config):
        sim_out = tmp_path / "run"
        main(["simulate", "--config", str(swap_config), "--out", str(sim_out)])
        eval_out = tmp_path / "eval"
        main(["downwash-eval", "--dataset", str(sim_out / "dataset.ndjson"), "--oracle",
              "--out", str(eval_out)])
        first = (eval_out / "report.csv").read_bytes()
        assert main(["rerun", "--manifest", str(eval_out / "manifest.json")]) == 0
        assert (eval_out / "report.csv").read_bytes() == first

    def test_benchmark_rerun_byte_identical(self, tmp_path, swap_config):
        # a recorded seed of 0 must keep its flag: 0 == False in Python
        noise = tmp_path / "noise.json"
        noise.write_text('{"pixel_sigma": 1.0, "rng_seed": 3}')
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(swap_config), "--out", str(out),
                     "--yaw-rates", "2,6", "--pitches", "up,forward", "--noise", str(noise),
                     "--mode", "grid", "--seed", "0"]) == 0
        first = [(out / name).read_bytes() for name in ("benchmark.csv", "manifest.json")]
        assert json.loads(first[1])["args"]["seed"] == 0
        assert main(["rerun", "--manifest", str(out / "manifest.json")]) == 0
        assert [(out / name).read_bytes() for name in ("benchmark.csv", "manifest.json")] == first


class TestCommandTable:
    """`spincam.cli._COMMANDS` declares each command once; `main` builds the
    parser from it on its first call and reuses it."""

    COMMANDS = ["simulate", "downwash-eval", "benchmark", "timesync", "rerun"]

    def test_one_parser_per_process(self, tmp_path, swap_config):
        """Importing the command line builds no parser; three `main` calls
        build the top-level parser and one per command once between them."""
        sim, bench = str(tmp_path / "sim"), str(tmp_path / "bench")
        calls = [["simulate", "--config", str(swap_config), "--out", sim],
                 ["downwash-eval", "--dataset", f"{sim}/dataset.ndjson", "--oracle",
                  "--out", str(tmp_path / "eval")],
                 ["benchmark", "--config", str(swap_config), "--oracle", "--yaw-rates", "2",
                  "--pitches", "up", "--out", bench]]
        code = ("import argparse, contextlib, io\n"
                "built, init = [], argparse.ArgumentParser.__init__\n"
                "def counted(self, *args, **kwargs):\n"
                "    built.append(self)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "from spincam.cli import main\n"
                "print(len(built))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [main(argv) for argv in {calls!r}]\n"
                "print(len(built), *codes)\n")
        done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True)
        assert done.stdout.split() == ["0", "6", "0", "0", "0"]

    def test_a_reused_parser_keeps_no_state(self, tmp_path, swap_config, monkeypatch):
        """A usage error and then a valid call, in one process, give the exit
        codes, stdout, stderr and files that each gives in a fresh process."""
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("PYTHONPATH", str(Path(spincam.downwash.__file__).parents[1]))
        assert main(["simulate", "--config", str(swap_config), "--out", str(tmp_path)]) == 0
        dataset = str(tmp_path / "dataset.ndjson")
        calls = [["downwash-eval", "--dataset", dataset, "--oracle", "--mode", "xyz",
                  "--out", "eval"],
                 ["downwash-eval", "--dataset", dataset, "--oracle", "--out", "eval"]]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        reused.mkdir()
        expected = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "spincam.cli", *argv], cwd=fresh,
                                  capture_output=True, text=True)
            expected.append((done.returncode, done.stdout, done.stderr))
        monkeypatch.chdir(reused)
        got = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            got.append((code, out.getvalue(), err.getvalue()))
        assert [code for code, _, _ in got] == [2, 0]
        assert got == expected
        assert {path.relative_to(reused): path.read_bytes() for path in reused.rglob("*.*")} == {
            path.relative_to(fresh): path.read_bytes() for path in fresh.rglob("*.*")}

    def test_a_usage_error_returns_2(self, capsys):
        """`main` returns a usage error's exit code, as any rejection's, and
        prints one line naming the command."""
        assert main(["simulate", "--out", "out"]) == 2
        assert capsys.readouterr() == (
            "", "error: spincam simulate: the following arguments are required: --config\n")

    def test_help_is_the_same_each_call(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for argv in [["--help"], *([command, "--help"] for command in self.COMMANDS)] * 2:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(out.getvalue())
        assert texts[:6] == texts[6:]
        assert all(f"usage: spincam {command} [-h]" in text
                   for command, text in zip(self.COMMANDS, texts[1:6]))

    def test_manifests_record_each_commands_flags_in_order(self, tmp_path, swap_config):
        sim = tmp_path / "sim"
        runs = {
            "simulate": (["--config", str(swap_config), "--out", str(sim)],
                         ["config", "out", "seed"]),
            "downwash-eval": (["--dataset", str(sim / "dataset.ndjson"), "--oracle",
                               "--out", str(tmp_path / "downwash-eval")],
                              ["dataset", "out", "oracle", "noise", "mode", "ellipsoid"]),
            "benchmark": (["--config", str(swap_config), "--oracle", "--yaw-rates", "2",
                           "--pitches", "up", "--out", str(tmp_path / "benchmark")],
                          ["config", "out", "yaw_rates", "pitches", "oracle", "noise", "mode",
                           "seed"]),
        }
        for command, (flags, recorded) in runs.items():
            assert main([command, *flags]) == 0
            out = Path(flags[flags.index("--out") + 1])
            assert list(json.loads((out / "manifest.json").read_text())["args"]) == recorded



@pytest.fixture(scope="session")
def base_run(tmp_path_factory):
    """The base run of the rejection table, made through `main`."""
    run = tmp_path_factory.mktemp("cases") / "run"
    cli_cases.build_run(run, cli_cases.in_process)
    return run


@pytest.mark.parametrize("case", cli_cases.CASES, ids=[case.id for case in cli_cases.CASES])
def test_cli_case(case, base_run, tmp_path):
    """A case of the rejection table (tests/cli_cases.py), run in process."""
    problems = cli_cases.check(case, tmp_path, base_run, cli_cases.in_process)
    assert not problems, "\n".join(problems)


def test_case_ids_are_unique():
    # the console run names each case's directory by its id
    ids = [case.id for case in cli_cases.CASES]
    assert len(set(ids)) == len(ids)


def test_one_error_line_counts_every_line_break():
    assert cli_cases.one_error_line("error: a b\n")
    assert not cli_cases.one_error_line("error: a b")
    assert not any(cli_cases.one_error_line(f"error: a{brk}b\n")
                   for brk in ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                               "\u2028", "\u2029"))


class TestCaseRunner:
    """The runner reports a case it does not pass: a copy of a case with a
    wrong exit code, and one with a fragment stderr lacks, fail in both
    modes; the case itself passes."""

    CASE = next(case for case in cli_cases.CASES if case.id == "simulate-missing-config")
    WRONG = [dataclasses.replace(CASE, id="wrong-code", code=3),
             dataclasses.replace(CASE, id="wrong-fragment",
                                 fragments=(*CASE.fragments, "no such message"))]

    def test_in_process(self, base_run, tmp_path):
        problems = []
        for case in (self.CASE, *self.WRONG):
            (tmp_path / case.id).mkdir()
            problems.append(cli_cases.check(case, tmp_path / case.id, base_run,
                                            cli_cases.in_process))
        assert problems[0] == []
        assert problems[1][0] == "exit 2, expected 3"
        assert problems[2][0] == "stderr lacks 'no such message'"

    def test_console(self, capsys, monkeypatch):
        # the subprocesses import spincam from where this process does
        monkeypatch.setenv("PYTHONPATH", str(Path(spincam.downwash.__file__).parents[1]))
        code = cli_cases.main(["--console", f"{shlex.quote(sys.executable)} -m spincam.cli"],
                              cases=[self.CASE, *self.WRONG])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in out if not line.startswith(" ")] == [
            "ok simulate-missing-config", "FAIL wrong-code", "FAIL wrong-fragment",
            "1 passed, 2 failed"]
        assert "    exit 2, expected 3" in out and "    stderr lacks 'no such message'" in out


# Property tests (Hypothesis: MacIver et al., JOSS 2019): mutated copies of
# valid inputs make `main` return 0, with nothing on stderr, or 2 or 3, with
# one `error:` line, and never raise. Replacement values come from a small
# fixed set: each JSON type, a string holding NUL, NaN, infinity, an integer
# beyond float range and boundary numbers, none of them a float large enough
# to ask for a long run.
MUTANT_VALUES = [DROP, "x", "", "x\0", True, False, None, [], [1.0, 2.0], {}, {"a": 1}, math.nan,
                 math.inf, HUGE, 0, -1, 1e-9, 0.5, 1, 2.5]
SMALL_SWAP = {"kind": "swap", "num_robots": 2, "duration": 2.0, "rng_seed": 3,
              "camera_pitch": "up"}
SCENARIO_KEYS = {f.name for cls in (ScenarioConfig, CameraIntrinsics, RobotGeometry)
                 for f in dataclasses.fields(cls)} | {"camera_translation"}
NOISE = {"pixel_sigma": 1.0, "depth_rel_sigma": 0.1, "miss_rate": 0.1,
         "false_positive_rate": 0.5, "rng_seed": 0}
PROPERTY_SETTINGS = settings(max_examples=100, deadline=timedelta(seconds=10),
                             derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


def mutants(base: dict, paths) -> st.SearchStrategy:
    """Copies of `base` with one to three keys dropped or replaced."""
    edit = st.tuples(st.sampled_from(sorted(paths)), st.sampled_from(MUTANT_VALUES))
    return st.lists(edit, min_size=1, max_size=3).map(lambda edits: mutate(base, edits))


def exit_code(argv) -> int:
    """main's exit code, in a fresh empty working directory, once its stderr
    is checked: empty on exit 0, one `error:` line on exit 2 or 3."""
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(None),
          contextlib.redirect_stderr(err)):
        home = os.getcwd()
        os.chdir(work)
        try:
            code = main(argv)
        finally:
            os.chdir(home)
    text = err.getvalue()
    assert text == "" if code == 0 else cli_cases.one_error_line(text), text
    return code


def write_json(path, obj) -> str:
    Path(path).write_text(json.dumps(obj))
    return str(path)


# Dataset frame lines: any key of a frame, its first neighbor or a pose, or
# one element of their number arrays, dropped or set to the JSON text of each
# JSON type, a non-finite, a negative or a fractional number, or an integer
# beyond float range.
FRAME_KEYS = ["record", "frame_id", "timestamp", "ego_id", "neighbors", "poses",
              *(f"neighbors.0.{key}" for key in ("robot_id", "rel_position", "center", "bbox")),
              *(f"poses.{rid}.{key}" for rid in ("r0", "r1") for key in ("time", "q", "t")),
              "neighbors.0.rel_position.2", "neighbors.0.center.0", "neighbors.0.bbox.1",
              "poses.r0.t.0", "poses.r1.q.3"]
FRAME_VALUES = [DROP, '"x"', '"5"', "true", "false", "null", "[]", "[1.0, 2.0]", "{}",
                '{"a": 1}', "NaN", "1e400", str(HUGE), "-1", "5.5"]
# CSV log rows: a field dropped (the row shifts left), or one set or inserted,
# split in two or quoted; 1e200 squares past the float range.
CSV_VALUES = [DROP, "", "x", "nan", "inf", "-inf", "1e400", "1e200", "-1", "0", "5.5", "true",
              "1,2", '"1,2"', '"0"']


def mutated_csv(text: str, edits) -> str:
    """CSV text with each (row, column, field text, insert) edit applied to a
    data row: the field dropped (DROP), the text inserted before it (or after
    the last) or the field replaced by the text."""
    lines = text.splitlines()
    for row, column, value, insert in edits:
        fields = lines[row].split(",")
        if value is DROP:
            del fields[column % len(fields)]
        elif insert:
            fields.insert(column % (len(fields) + 1), value)
        else:
            fields[column % len(fields)] = value
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def csv_edits(rows, columns: int) -> st.SearchStrategy:
    """One to three edits of the given data rows of a CSV log."""
    return st.lists(st.tuples(st.sampled_from(rows), st.integers(0, columns),
                              st.sampled_from(CSV_VALUES), st.booleans()),
                    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A short swap config and its dataset."""
    root = tmp_path_factory.mktemp("small")
    config = write_json(root / "swap.json", SMALL_SWAP)
    assert main(["simulate", "--config", config, "--out", str(root / "run")]) == 0
    return root, config, str(root / "run" / "dataset.ndjson")


@pytest.fixture(scope="module")
def csv_logs(tmp_path_factory):
    """A 0.4 s gyro log at 1 kHz, `a.csv`, and the text of one that reads it
    20 ms later."""
    root = tmp_path_factory.mktemp("logs")
    t = np.arange(0.0, 0.4, 1e-3)

    def rates(tt):
        return np.stack([np.sin(20.0 * tt), np.cos(13.0 * tt), np.sin(31.0 * tt + 1.0)], axis=1)

    write_gyro_log(GyroSequence(t, rates(t)), root / "a.csv")
    write_gyro_log(GyroSequence(t, rates(t + 0.02)), root / "b.csv")
    return root, (root / "b.csv").read_text()


class TestMutatedInputs:
    @PROPERTY_SETTINGS
    @given(config=mutants(SMALL_SWAP, SCENARIO_KEYS | {"ellipsoid"}))
    def test_scenario_config(self, small_run, config):
        path = write_json(small_run[0] / "mutant.json", config)
        assert exit_code(["simulate", "--config", path, "--out", "run"]) in (0, 2, 3)
        assert exit_code(["benchmark", "--config", path, "--out", "bench", "--oracle",
                          "--yaw-rates", "2", "--pitches", "up"]) in (0, 2, 3)

    @PROPERTY_SETTINGS
    @given(noise=mutants(NOISE, {f.name for f in dataclasses.fields(NoiseModel)}),
           mode=st.sampled_from(["box", "grid"]))
    def test_noise_config(self, small_run, noise, mode):
        root, _config, dataset = small_run
        path = write_json(root / "mutant.json", noise)
        assert exit_code(["downwash-eval", "--dataset", dataset, "--noise", path,
                          "--mode", mode, "--out", "eval"]) in (0, 2, 3)

    @PROPERTY_SETTINGS
    @given(data=st.data(), command=st.sampled_from(["benchmark", "downwash-eval"]))
    def test_manifest(self, small_run, data, command):
        root, config, dataset = small_run
        noise = write_json(root / "noise.json", NOISE)
        args = {
            "benchmark": {"config": config, "out": "bench", "yaw_rates": "2", "pitches": "up",
                          "oracle": False, "noise": noise, "mode": "grid", "seed": 0},
            "downwash-eval": {"dataset": dataset, "out": "eval", "oracle": False,
                              "noise": noise, "mode": "box", "ellipsoid": "0.2,0.2,0.4"},
        }[command]
        # mostly the recorded args: a bad command or args object stops at once
        paths = ["command", "args", "schema_version"] + [f"args.{key}" for key in args] * 3
        manifest = data.draw(mutants({"schema_version": 1, "command": command, "args": args},
                                     paths))
        path = write_json(root / "mutant.json", manifest)
        assert exit_code(["rerun", "--manifest", path]) in (0, 2, 3)

    @PROPERTY_SETTINGS
    @given(edits=st.lists(st.tuples(st.sampled_from(FRAME_KEYS), st.sampled_from(FRAME_VALUES)),
                          min_size=1, max_size=2),
           which=st.sampled_from(["first", "seeing", "last"]),
           mode=st.sampled_from(["oracle", "box", "grid"]))
    # a single array element beyond float range, which the drawn examples may miss
    @example(edits=[("poses.r0.t.0", str(HUGE))], which="first", mode="oracle")
    @example(edits=[("neighbors.0.bbox.1", str(HUGE))], which="seeing", mode="box")
    def test_dataset_frame_line(self, small_run, edits, which, mode):
        root, _config, dataset = small_run
        lines = Path(dataset).read_text().splitlines()
        seeing = next(k for k in range(1, len(lines)) if json.loads(lines[k])["neighbors"])
        k = {"first": 1, "seeing": seeing, "last": len(lines) - 1}[which]
        lines[k] = mutated_line(lines[k], edits)
        path = root / "mutant.ndjson"
        path.write_text("\n".join(lines) + "\n")
        noise = write_json(root / "noise.json", NOISE)
        flags = ["--oracle"] if mode == "oracle" else ["--noise", noise, "--mode", mode]
        assert exit_code(["downwash-eval", "--dataset", str(path), *flags,
                          "--out", "eval"]) in (0, 2, 3)

    @PROPERTY_SETTINGS
    @given(edits=csv_edits([1, 2, 200, 400], len(GYRO_LOG_COLUMNS)), first=st.booleans())
    # one rate in the overlap whose square is past float range, which the drawn examples miss
    @example(edits=[(200, 1, "1e200", False)], first=True)
    def test_gyro_log_rows(self, csv_logs, edits, first):
        root, gyro = csv_logs
        path = root / "mutant.csv"
        text = mutated_csv(gyro, edits)
        path.write_text(text)
        logs = [str(path), str(root / "a.csv")][::1 if first else -1]
        code = exit_code(["timesync", "--log-a", logs[0], "--log-b", logs[1], "--window", "0.1"])
        # a row with another field count than the header's is bad data
        counts = {len(row) for row in csv.reader(io.StringIO(text)) if row}
        assert code == 3 if counts != {len(GYRO_LOG_COLUMNS)} else code in (0, 2, 3)
