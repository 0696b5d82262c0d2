"""Command-line interface: exit codes, outputs, determinism, rerun."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spincam.downwash
from spincam import perception
from spincam.camera import CameraIntrinsics, annotate_tracks, camera_for_pitch
from spincam.cli import main
from spincam.datasets import (
    GYRO_LOG_COLUMNS,
    POSE_LOG_COLUMNS,
    Dataset,
    GyroSequence,
    ingest_pose_log,
    load_noise_model,
    load_simulation_config,
    read_dataset,
    read_report,
    write_dataset,
    write_gyro_log,
    write_pose_log,
)
from spincam.downwash import EllipsoidSpec, ellipsoid_margin, run_downwash_eval
from spincam.errors import OutOfRange, SpincamError
from spincam.geometry import DEFAULT_ROBOT_GEOMETRY, PoseTrack, RobotGeometry
from spincam.perception import NoiseModel
from spincam.metrics import ConfusionCounts
from spincam.scenarios import MAX_WAYPOINTS, ScenarioConfig, frame_schedule, generate_scenario


# A JSON integer too large for a float: `1` followed by 400 zeros.
HUGE = 10**400
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
        assert manifest["outputs"] == ["dataset.ndjson"]
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

    def test_bad_robot_count_exits_2(self, tmp_path):
        config = write_config(tmp_path / "bad.json", num_robots=3)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_nan_duration_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "nan.json", duration=float("nan"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "duration must be finite" in capsys.readouterr().err

    def test_non_finite_config_ellipsoid_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "inf.json", ellipsoid=[float("inf"), 0.1, 0.1])
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("fx", math.nan), ("fy", math.inf), ("k1", math.nan), ("sphere_radius", math.nan),
    ])
    def test_non_finite_camera_or_geometry_exits_2_naming_it(self, tmp_path, capsys, key,
                                                             value):
        config = write_config(tmp_path / "bad.json", **{key: value})
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and key in err and "finite" in err

    @pytest.mark.parametrize("k1", [-0.5, -0.1])
    def test_lens_folding_inside_the_image_exits_2_naming_k1(self, tmp_path, capsys, k1):
        config = write_config(tmp_path / "fold.json", k1=k1)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "k1" in err
        assert not (tmp_path / "x" / "dataset.ndjson").exists()

    def test_barrel_lens_folding_outside_the_image_loads(self, tmp_path):
        config = write_config(tmp_path / "barrel.json", k1=-0.08)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("overrides,key", [
        ({"duration": 0.001}, "duration"),
        ({"kind": "random_waypoint", "num_robots": 2.5}, "num_robots"),
        ({"kind": "random_waypoint", "waypoint_count": 2.5}, "waypoint_count"),
        ({"kind": "random_waypoint", "waypoint_count": MAX_WAYPOINTS + 1}, "waypoint_count"),
        ({"rng_seed": -1}, "rng_seed"),
        ({"swap_start_a": [1, 2]}, "swap_start_a"),
        ({"swap_start_b": [0.7, 0.7, 0.9, 1.0]}, "swap_start_b"),
        ({"arena_min": [1]}, "arena_min"),
        ({"arena_max": ["1.5", 1.5, 2.0]}, "arena_max"),
        ({"kind": "hover_orbit", "num_robots": 3, "hover_heights": 2}, "hover_heights"),
        ({"kind": "hover_orbit", "num_robots": 3, "hover_heights": [0.6, "1.0"]},
         "hover_heights"),
        ({"kind": "hover_orbit", "num_robots": 4, "hover_heights": [0.6]}, "hover_heights"),
        ({"ellipsoid": [0.1, 0.1]}, "ellipsoid"),
        ({"ellipsoid": [0.1, 0.1, 0.3, 0.3]}, "ellipsoid"),
        ({"ellipsoid": 0.1}, "ellipsoid"),
        ({"ellipsoid": ["0.1", 0.1, 0.3]}, "ellipsoid"),
        ({"duration": "5"}, "duration"),
        ({"fx": "170"}, "fx"),
        ({"sphere_radius": "x"}, "sphere_radius"),
        ({"width": "320"}, "width"),
        ({"half_extents": [0.1, 0.1]}, "half_extents"),
        ({"camera_translation": [0.1]}, "camera_translation"),
        ({"yaw_rate": True}, "yaw_rate"),
        ({"frame_rate": True}, "frame_rate"),
        ({"fx": True}, "fx"),
        ({"camera_pitch": ["up"]}, "camera_pitch"),
        ({"duration": HUGE}, "duration"),
        ({"fx": HUGE}, "fx"),
        ({"half_extents": [HUGE, 0.1, 0.1]}, "half_extents"),
        ({"half_extents": HUGE}, "half_extents"),
        ({"camera_translation": HUGE}, "camera_translation"),
        ({"arena_min": [HUGE, -1.5, 0.1]}, "arena_min"),
        ({"ellipsoid": [0.15, HUGE, 0.3]}, "ellipsoid"),
        ({"camera_translation": ["0.1", 0.0, 0.0]}, "camera_translation"),
        ({"half_extents": [0.065, True, 0.03]}, "half_extents"),
    ])
    def test_malformed_scenario_exits_2_naming_the_key(self, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path / "bad.json", **overrides)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_huge_integer_seed_keeps_the_integer_rules(self, tmp_path):
        # an integer-only field takes any non-negative JSON integer
        config = write_config(tmp_path / "seed.json", rng_seed=HUGE, duration=2.0)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 0

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

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, swap_config):
        assert main(["simulate", "--config", str(swap_config), "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 2
        assert "rng_seed" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path, swap_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(swap_config), "--out", str(out1), "--seed", "11"])
        main(["simulate", "--config", str(swap_config), "--out", str(out2), "--seed", "11"])
        assert (out1 / "dataset.ndjson").read_bytes() == (out2 / "dataset.ndjson").read_bytes()


class TestDownwashEval:
    def simulate(self, tmp_path, **overrides):
        config = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(config), "--out", str(out)])
        return out / "dataset.ndjson"

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
            records=annotate_tracks([track], camera, DEFAULT_ROBOT_GEOMETRY, []),
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
        skipped, box_position = [], perception._box_position

        def counted(box, intr, r):
            try:
                return box_position(box, intr, r)
            except OutOfRange:
                skipped.append(box)
                raise

        monkeypatch.setattr(perception, "_box_position", counted)
        config = write_config(tmp_path / "big.json", sphere_radius=radius, k1=-0.08)
        noise = tmp_path / "noise.json"
        noise.write_text('{"false_positive_rate": 3.0}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        assert main(["downwash-eval", "--dataset", str(tmp_path / "sim" / "dataset.ndjson"),
                     "--noise", str(noise), "--mode", "box", "--out", str(tmp_path / "e")]) == 0
        assert bool(skipped) == past_fold

    def test_noise_mode_runs(self, tmp_path):
        dataset = self.simulate(tmp_path)
        noise = tmp_path / "noise.json"
        noise.write_text('{"pixel_sigma": 1.0, "miss_rate": 0.1, "rng_seed": 1}')
        out = tmp_path / "eval"
        assert main(["downwash-eval", "--dataset", str(dataset), "--noise", str(noise),
                     "--mode", "box", "--out", str(out)]) == 0

    def test_requires_oracle_or_noise(self, tmp_path):
        dataset = self.simulate(tmp_path)
        assert main(["downwash-eval", "--dataset", str(dataset),
                     "--out", str(tmp_path / "e")]) == 2

    def test_corrupt_dataset_exits_3(self, tmp_path):
        path = tmp_path / "corrupt.ndjson"
        path.write_text('{"record": "header", "schema_version": 1}\nnot json\n')
        assert main(["downwash-eval", "--dataset", str(path), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3

    def test_non_finite_ellipsoid_override_exits_2(self, tmp_path, capsys):
        dataset = self.simulate(tmp_path)
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--ellipsoid", "nan,0.1,0.1", "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "--ellipsoid" in err and "finite" in err

    def test_non_finite_dataset_ellipsoid_exits_3(self, tmp_path, capsys):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        header = json.loads(lines[0])
        header["ellipsoid"][2] = float("nan")
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("radii", [[0.15, 0.15], [0.15, 0.15, 0.3, 0.3], 0.15])
    def test_dataset_ellipsoid_without_three_radii_exits_3(self, tmp_path, capsys, radii):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        header = json.loads(lines[0])
        header["ellipsoid"] = radii
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:1: malformed header record" in err and "ellipsoid" in err

    @pytest.mark.parametrize("mode", ["oracle", "box"])
    def test_repeated_frame_id_exits_3_naming_line(self, tmp_path, capsys, mode):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        frame = json.loads(lines[6])
        frame["frame_id"] = 4  # frame 5 repeats frame 4's id
        lines[6] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 1}')
        flags = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), *flags,
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:7: malformed frame record" in err and "frame_id" in err

    @pytest.mark.parametrize("section,key,value", [
        ("camera", "fx", math.nan), ("camera", "fy", math.inf), ("camera", "k1", math.nan),
        ("geometry", "sphere_radius", math.nan),
    ])
    def test_non_finite_dataset_camera_or_geometry_exits_3(self, tmp_path, capsys, section,
                                                           key, value):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        header = json.loads(lines[0])
        fields = header["camera"]["intrinsics"] if section == "camera" else header["geometry"]
        fields[key] = value
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:1: malformed header record" in err and key in err

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
        or, before a noisy evaluation, `spincam.seeding`."""
        code = ("import sys, {}; "
                "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'spincam')))")
        loaded = {module: subprocess.run([sys.executable, "-c", code.format(module)], check=True,
                                         capture_output=True, text=True).stdout.split()
                  for module in ("spincam.geometry", "spincam.cli")}
        assert loaded["spincam.geometry"] == ["spincam", "spincam.errors", "spincam.geometry"]
        assert "spincam.cli" in loaded["spincam.cli"]
        assert not {"spincam.dynamics", "spincam.seeding"} & set(loaded["spincam.cli"])

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

    def test_dataset_lens_folding_inside_the_image_exits_3(self, tmp_path, capsys):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        header = json.loads(lines[0])
        header["camera"]["intrinsics"]["k1"] = -0.5
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:1: malformed header record" in err and "k1" in err

    @pytest.mark.parametrize("edit", [
        lambda poses: poses.pop("r0"),
        lambda poses: poses["r1"].update(t=[0.0, 1.0]),
        lambda poses: poses["r1"].update(t=["x", 0.0, 1.0]),
        lambda poses: poses["r1"].update(q=[2.0, 0.0, 0.0, 0.0]),
        lambda poses: poses["r0"].update(time=-1.0),
        lambda poses: poses.pop("r1"),
        lambda poses: poses.update(r2=poses["r1"]),
    ], ids=["no-ego-pose", "two-component-t", "non-number-t", "non-unit-q", "negative-time",
            "robot-missing", "extra-robot"])
    def test_malformed_frame_pose_exits_3_naming_line(self, tmp_path, capsys, edit):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        frame = json.loads(lines[4])
        edit(frame["poses"])
        lines[4] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        assert f"{dataset}:5: malformed frame record" in capsys.readouterr().err

    def edit_neighbor_frame(self, tmp_path, edit) -> tuple:
        """The dataset of `simulate` with `edit` applied in place to the
        first frame that sees a neighbor, and that frame's line number."""
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        index = next(k for k, line in enumerate(lines[1:], start=1)
                     if json.loads(line)["neighbors"])
        frame = json.loads(lines[index])
        edit(frame)
        lines[index] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        return dataset, index + 1

    @pytest.mark.parametrize("mode", ["oracle", "box", "grid"])
    @pytest.mark.parametrize("field,text", [
        ("rel_position", "[NaN, 0.1, 1.0]"),
        ("rel_position", "[0.1, 1e400, 1.0]"),
        ("bbox", "[NaN, 10.0, 20.0, 30.0]"),
        ("center", "[Infinity, 5.0]"),
        ("center", "[5.0, -1e999]"),
    ])
    def test_non_finite_neighbor_value_exits_3_naming_line(self, tmp_path, capsys, mode, field,
                                                           text):
        dataset, line_no = self.edit_neighbor_frame(
            tmp_path, lambda frame: frame["neighbors"][0].update({field: "VALUE"}))
        dataset.write_text(dataset.read_text().replace('"VALUE"', text))
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 1}')
        flags = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), *flags,
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:{line_no}: malformed frame record" in err and "finite" in err

    @pytest.mark.parametrize("edit", [
        lambda frame: frame.update(ego_id="r1"),
        lambda frame: frame["neighbors"][0].update(robot_id="r7"),
        lambda frame: frame["neighbors"][0].update(robot_id="r0"),
        lambda frame: frame.update(neighbors={}),
    ], ids=["other-ego", "unknown-neighbor", "ego-neighbor", "neighbors-object"])
    def test_malformed_frame_exits_3_naming_line(self, tmp_path, capsys, edit):
        dataset, line_no = self.edit_neighbor_frame(tmp_path, edit)
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        assert f"{dataset}:{line_no}: malformed frame record" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["oracle", "box"])
    @pytest.mark.parametrize("key,path,text", [
        ("t", ("poses", "r0", "t", 0), '"1.5"'),
        ("t", ("poses", "r1", "t", 2), "true"),
        ("t", ("poses", "r0", "t", 1), str(HUGE)),
        ("q", ("poses", "r1", "q", 0), str(HUGE)),
        ("q", ("poses", "r1", "q", 3), "false"),
        ("time", ("poses", "r0", "time"), '"0.5"'),
        ("time", ("poses", "r1", "time"), str(HUGE)),
        ("rel_position", ("neighbors", 0, "rel_position", 0), '"0.5"'),
        ("rel_position", ("neighbors", 0, "rel_position", 2), str(HUGE)),
        ("center", ("neighbors", 0, "center", 1), "true"),
        ("bbox", ("neighbors", 0, "bbox", 0), "false"),
        ("bbox", ("neighbors", 0, "bbox", 3), str(HUGE)),
        ("timestamp", ("timestamp",), str(HUGE)),
    ], ids=lambda value: "HUGE" if value == str(HUGE) else None)
    def test_frame_value_that_is_no_float_exits_3_naming_line_and_key(
            self, tmp_path, capsys, mode, key, path, text):
        """Every number of a frame line is a JSON number that a float holds:
        not a string, not a bool, not an integer beyond float range."""
        def edit(frame):
            *parents, last = path
            target = frame
            for parent in parents:
                target = target[parent]
            target[last] = "VALUE"

        dataset, line_no = self.edit_neighbor_frame(tmp_path, edit)
        dataset.write_text(dataset.read_text().replace('"VALUE"', text))
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 1}')
        flags = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), *flags,
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:{line_no}: malformed frame record: {key} must be" in err

    @pytest.mark.parametrize("key,edit", [
        ("fx", lambda header: header["camera"]["intrinsics"].update(fx=HUGE)),
        ("ellipsoid", lambda header: header["ellipsoid"].__setitem__(1, HUGE)),
        ("extrinsic q", lambda header: header["camera"]["extrinsic"]["q"].__setitem__(0, HUGE)),
        ("extrinsic q", lambda header: header["camera"]["extrinsic"]["q"].__setitem__(1, False)),
        ("extrinsic q",
         lambda header: header["camera"]["extrinsic"].update(q=[0.5, 0.5, 0.5, 0.6])),
        ("extrinsic q", lambda header: header["camera"]["extrinsic"].update(q=[0, 0, 0, 0])),
        ("extrinsic t", lambda header: header["camera"]["extrinsic"]["t"].__setitem__(2, "0")),
        ("extrinsic t", lambda header: header["camera"]["extrinsic"].update(t=HUGE)),
        ("half_extents", lambda header: header["geometry"]["half_extents"].__setitem__(0, HUGE)),
    ])
    def test_header_value_that_is_no_float_exits_3_naming_key(self, tmp_path, capsys, key,
                                                              edit):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}:1: malformed header record" in err and key in err

    @pytest.mark.parametrize("frame_id", [-1, 2**63])
    def test_frame_id_out_of_range_exits_3_naming_line(self, tmp_path, capsys, frame_id):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        frame = json.loads(lines[4])
        frame["frame_id"] = frame_id
        lines[4] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 1}')
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--noise", str(noise),
                     "--out", str(tmp_path / "e")]) == 3
        assert f"{dataset}:5: malformed frame record" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("frame_id", 5.9), ("frame_id", 5.0), ("frame_id", "5"), ("frame_id", True),
        ("timestamp", True), ("timestamp", "0.5"),
    ])
    def test_wrong_typed_frame_id_or_timestamp_exits_3_naming_line_and_key(
            self, tmp_path, capsys, key, value):
        """frame_id is a JSON integer and timestamp a JSON number: neither is
        coerced from a float, a bool or a string."""
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        frame = json.loads(lines[6])
        frame[key] = value
        lines[6] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        assert f"{dataset}:7: malformed frame record: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_timestamp_exits_3_naming_line(self, tmp_path, capsys, timestamp):
        dataset = self.simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        frame = json.loads(lines[4])
        frame["timestamp"] = timestamp
        lines[4] = json.dumps(frame)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(tmp_path / "e")]) == 3
        assert f"{dataset}:5: malformed frame record" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "5", "[0.5]", "{not json",
        '{"pixel_sigma": NaN}',
        '{"depth_rel_sigma": Infinity}',
        '{"false_positive_rate": NaN}',
        '{"false_positive_rate": 1e30}',
        '{"true_confidence": [NaN, 1.0]}',
        '{"true_confidence": [1.5, 2.0]}',
        '{"true_confidence": [0.5]}',
        '{"false_confidence": [0.7, 0.3]}',
        '{"rng_seed": -1}',
        '{"rng_seed": 1.5}',
        '{"miss_rate": true}',
        '{"pixel_sigma": "1.0"}',
        '{"true_confidence": 1}',
    ])
    def test_malformed_noise_config_exits_2_naming_it(self, tmp_path, capsys, text):
        noise = tmp_path / "noise.json"
        noise.write_text(text)
        assert main(["downwash-eval", "--dataset", str(tmp_path / "unread.ndjson"),
                     "--noise", str(noise), "--out", str(tmp_path / "e")]) == 2
        assert str(noise) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pixel_sigma", "depth_rel_sigma", "miss_rate",
                                     "false_positive_rate"])
    def test_huge_integer_noise_value_exits_2_naming_key(self, tmp_path, capsys, key):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({key: HUGE}))
        assert main(["downwash-eval", "--dataset", str(tmp_path / "unread.ndjson"),
                     "--noise", str(noise), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert str(noise) in err and f"{key} must be finite" in err

    def test_ellipsoid_override(self, tmp_path):
        dataset = self.simulate(tmp_path)
        out = tmp_path / "eval"
        # gigantic ellipsoid: everything is downwash, recall stays 1
        assert main(["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--ellipsoid", "5,5,5", "--out", str(out)]) == 0
        rows, summary = read_report(out / "report.csv")
        assert all(r.gt_downwash for r in rows)


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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "b"), "--oracle"]) == 2

    def test_builds_one_flight_per_yaw_rate(self, tmp_path, swap_config, monkeypatch):
        import spincam.cli

        rates = []
        generate = spincam.cli.generate_scenario
        monkeypatch.setattr(spincam.cli, "generate_scenario",
                            lambda cfg: rates.append(cfg.yaw_rate) or generate(cfg))
        assert main(["benchmark", "--config", str(swap_config), "--out", str(tmp_path / "b"),
                     "--oracle"]) == 0
        assert rates == [2.0, 4.0, 6.0, 8.0]

    def test_bad_pitch_exits_2(self, tmp_path, swap_config):
        assert main(["benchmark", "--config", str(swap_config), "--out", str(tmp_path / "b"),
                     "--pitches", "sideways", "--oracle"]) == 2

    @staticmethod
    def sweep(tmp_path, kind, k1, mode, out="bench"):
        """A 20 s sweep over yaw rates 0 and 6 and every pitch, with a
        translated mount; returns its config path and benchmark.csv text."""
        config = write_config(tmp_path / f"{kind}.json", kind=kind,
                              num_robots=2 if kind == "swap" else 4, duration=20.0,
                              rng_seed=1, k1=k1, camera_translation=[0.02, -0.01, 0.015])
        noise = tmp_path / "noise.json"
        noise.write_text('{"rng_seed": 3, "false_positive_rate": 0.5}')
        perceive = ["--oracle"] if mode == "oracle" else ["--noise", str(noise), "--mode", mode]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / out),
                         "--yaw-rates", "0,6", *perceive]) == 0
        return config, (tmp_path / out / "benchmark.csv").read_text()

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
            results = run_downwash_eval(generate_scenario(scenario), camera,
                                        frame_schedule(scenario), scenario.ellipsoid,
                                        ego_id="r0", geom=spec.geometry, mode=mode, noise=noise)
            counts = ConfusionCounts.from_pairs((r.gt_downwash, r.pred_downwash)
                                                for r in results)
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

    def test_non_overlapping_exits_3(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 1.0, 1e-3)
        write_gyro_log(GyroSequence(t, rng.normal(size=(len(t), 3))), tmp_path / "a.csv")
        write_gyro_log(GyroSequence(t + 10.0, rng.normal(size=(len(t), 3))), tmp_path / "b.csv")
        assert main(["timesync", "--log-a", str(tmp_path / "a.csv"),
                     "--log-b", str(tmp_path / "b.csv"), "--window", "0.1"]) == 3

    @pytest.mark.parametrize("window", ["nan", "inf", "0", "-1"])
    def test_window_not_finite_and_positive_exits_2(self, tmp_path, capsys, window):
        path_a, path_b = self.write_logs(tmp_path, 0.0)
        assert main(["timesync", "--log-a", str(path_a), "--log-b", str(path_b),
                     f"--window={window}"]) == 2
        assert "--window" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command,edit,code,named", [
        ("benchmark", {"pitches": ["up"]}, 2, "pitches"),
        ("benchmark", {"yaw_rates": 5}, 0, None),
        ("downwash-eval", {"ellipsoid": [0.1, 0.1, 0.3]}, 2, "ellipsoid"),
        ("benchmark", {"out": None}, 2, "--out"),
        ("downwash-eval", {"out": None}, 2, "--out"),
        ("downwash-eval", {"dataset": None}, 2, "--dataset"),
        ("downwash-eval", {"mode": "xyz", "oracle": False, "noise": "noise.json"}, 2, "--mode"),
        ("benchmark", {"mode": "xyz"}, 2, "--mode"),
        ("benchmark", {"config": 7}, 2, "'7'"),
        ("downwash-eval", {"noise": 5, "oracle": False}, 2, "'5'"),
        ("benchmark", {"seed": True}, 2, "--seed"),
        ("benchmark", {"oracle": "yes"}, 2, "--oracle"),
        ("benchmark", {"out": "a\0b"}, 2, "'out'"),
    ])
    def test_malformed_manifest_args_checked_as_flags(self, tmp_path, capsys, monkeypatch,
                                                      swap_config, command, edit, code, named):
        # relative paths, such as the file "7", resolve in an empty directory
        monkeypatch.chdir(tmp_path)
        Path("noise.json").write_text('{"pixel_sigma": 1.0}')
        dataset = tmp_path / "run" / "dataset.ndjson"
        main(["simulate", "--config", str(swap_config), "--out", str(dataset.parent)])
        args = {
            "benchmark": {"config": str(swap_config), "out": "bench", "yaw_rates": "2",
                          "pitches": "up", "oracle": True, "noise": None, "mode": "box",
                          "seed": None},
            "downwash-eval": {"dataset": str(dataset), "out": "eval", "oracle": True,
                              "noise": None, "mode": "box", "ellipsoid": None},
        }[command]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": command, "args": args | edit}))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(manifest)]) == code
        err = capsys.readouterr().err
        if code:
            assert str(manifest) in err and named in err

    @pytest.mark.parametrize("text", [
        "{not json",
        "[\"simulate\"]",
        json.dumps({"args": {"config": "c", "out": "o", "seed": None}}),
        json.dumps({"command": "simulate"}),
        json.dumps({"command": "simulate", "args": ["c", "o"]}),
        json.dumps({"command": "simulate", "args": {"config": "c"}}),
        json.dumps({"command": "downwash-eval", "args": {"dataset": "d", "out": "o"}}),
        json.dumps({"command": "timesync", "args": {}}),
        json.dumps({"command": ["simulate"], "args": {}}),
        json.dumps({"command": {}, "args": {}}),
        '{"command": "simulate", "args": {"config": "c", "out": "o", "seed": NaN}}',
    ])
    def test_malformed_manifest_exits_2_naming_it(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["rerun", "--manifest", str(manifest)]) == 2
        assert str(manifest) in capsys.readouterr().err


# Property tests (Hypothesis: MacIver et al., JOSS 2019): mutated copies of
# valid inputs make `main` return 0, 2 or 3, or the parser exit with 2, and
# never raise anything else. Replacement values come from a small fixed set:
# each JSON type, a string holding NUL, NaN, infinity, an integer beyond float
# range and boundary numbers, none of them a float large enough to ask for a
# long run.
DROP = object()
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


def mutate(base: dict, edits) -> dict:
    """A copy of `base` with each (dotted key path, value) edit applied: the
    key or list element dropped (DROP) or set to the value. A number in the
    path indexes a list."""
    out = copy.deepcopy(base)
    for path, value in edits:
        *parents, key = path.split(".")
        target = out
        for parent in parents:
            if isinstance(target, list):  # an index into a list
                target = target[int(parent)] if int(parent) < len(target) else None
            else:
                target = target.get(parent) if isinstance(target, dict) else None
        if isinstance(target, list) and key.isdigit() and int(key) < len(target):
            key = int(key)
        elif not isinstance(target, dict):
            continue
        if value is not DROP:
            target[key] = copy.deepcopy(value)
        elif key in (target if isinstance(target, dict) else range(len(target))):
            del target[key]
    return out


def mutants(base: dict, paths) -> st.SearchStrategy:
    """Copies of `base` with one to three keys dropped or replaced."""
    edit = st.tuples(st.sampled_from(sorted(paths)), st.sampled_from(MUTANT_VALUES))
    return st.lists(edit, min_size=1, max_size=3).map(lambda edits: mutate(base, edits))


def exit_code(argv) -> int:
    """main's exit code, in a fresh empty working directory."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(None):
        home = os.getcwd()
        os.chdir(work)
        try:
            return main(argv)
        except SystemExit as exc:  # the parser's usage error
            assert exc.code == 2
            return 2
        finally:
            os.chdir(home)


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
# CSV log rows: a field dropped (the row shifts left) or replaced, split in two
# or quoted.
CSV_VALUES = [DROP, "", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "5.5", "true", "1,2",
              '"1,2"', '"0"']


def mutated_line(line: str, edits) -> str:
    """A JSON line with each (dotted key path, JSON text) edit applied: the
    key dropped (DROP) or its value replaced by the text."""
    marks = [f"@{k}@" for k in range(len(edits))]
    text = json.dumps(mutate(json.loads(line), [
        (path, value if value is DROP else mark) for (path, value), mark in zip(edits, marks)]))
    for mark, (_path, value) in zip(marks, edits):
        if value is not DROP:
            text = text.replace(json.dumps(mark), value)
    return text


def mutated_csv(text: str, edits) -> str:
    """CSV text with each (row, column, field text) edit applied to a data
    row: the field dropped (DROP) or replaced by the text."""
    lines = text.splitlines()
    for row, column, value in edits:
        fields = lines[row].split(",")
        if value is DROP:
            del fields[column % len(fields)]
        else:
            fields[column % len(fields)] = value
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def csv_edits(rows, columns: int) -> st.SearchStrategy:
    """One to three edits of the given data rows of a CSV log."""
    return st.lists(st.tuples(st.sampled_from(rows), st.integers(0, columns - 1),
                              st.sampled_from(CSV_VALUES)), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A short swap config and its dataset."""
    root = tmp_path_factory.mktemp("small")
    config = write_json(root / "swap.json", SMALL_SWAP)
    assert main(["simulate", "--config", config, "--out", str(root / "run")]) == 0
    return root, config, str(root / "run" / "dataset.ndjson")


@pytest.fixture(scope="module")
def csv_logs(tmp_path_factory):
    """The text of a pose log (2 robots x 5 samples), and of a 0.4 s gyro
    log at 1 kHz that reads `a.csv` 20 ms later."""
    root = tmp_path_factory.mktemp("logs")
    times = np.arange(5.0)
    write_pose_log([PoseTrack(rid, times, np.full((5, 3), float(k)),
                              np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)))
                    for k, rid in enumerate(("r0", "r1"))], root / "poses.csv")
    t = np.arange(0.0, 0.4, 1e-3)

    def rates(tt):
        return np.stack([np.sin(20.0 * tt), np.cos(13.0 * tt), np.sin(31.0 * tt + 1.0)], axis=1)

    write_gyro_log(GyroSequence(t, rates(t)), root / "a.csv")
    write_gyro_log(GyroSequence(t, rates(t + 0.02)), root / "b.csv")
    return root, *((root / name).read_text() for name in ("poses.csv", "b.csv"))


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
    @given(edits=csv_edits([1, 2, 5, 6, 10], len(POSE_LOG_COLUMNS)))
    def test_pose_log_rows(self, csv_logs, edits):
        root, poses, _gyro = csv_logs
        path = root / "mutant.csv"
        path.write_text(mutated_csv(poses, edits))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quaternion norms off 1 warn
            try:
                ingest_pose_log(path)
            except SpincamError:
                pass

    @PROPERTY_SETTINGS
    @given(edits=csv_edits([1, 2, 200, 400], len(GYRO_LOG_COLUMNS)), first=st.booleans())
    def test_gyro_log_rows(self, csv_logs, edits, first):
        root, _poses, gyro = csv_logs
        path = root / "mutant.csv"
        path.write_text(mutated_csv(gyro, edits))
        logs = [str(path), str(root / "a.csv")][::1 if first else -1]
        assert exit_code(["timesync", "--log-a", logs[0], "--log-b", logs[1],
                          "--window", "0.1"]) in (0, 2, 3)
