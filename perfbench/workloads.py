"""The three benchmark workloads: their inputs, one pass, and its checks.

Every pass drives the public `spincam.cli.main(argv)` entry point in this
process (the noisy workload also calls the perception and metrics library
functions for the localization protocol). `prepare` is the set-up a user
pays once before the first pass; the benchmark times it in fresh processes.

A pass returns a `PassOutcome`. Its `summary` holds the outputs that must not
change (confusion counts, sweep rows, localization counts) and is compared
with `reference.json` when the seed was recorded there, and with the run's
first pass otherwise. `problems` lists checks that hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

# The README's swap scenario and noise model. The waypoint flight is fixed at
# rng_seed 1: its work depends on the draw (Python call counts over seeds 0-11
# spread 20 %, IQR over median, by whether a neighbour ever passes overhead),
# which no throughput bound of 25 % or less could absorb.
SWAP_CONFIG = {"kind": "swap", "num_robots": 2, "duration": 14.0, "yaw_rate": 4.0,
               "camera_pitch": "up"}
WAYPOINT_CONFIG = {"kind": "random_waypoint", "num_robots": 4, "duration": 60.0,
                   "frame_rate": 30.0, "camera_pitch": "up", "rng_seed": 1}
ORBIT_CONFIG = {"kind": "hover_orbit", "num_robots": 4, "duration": 60.0,
                "frame_rate": 30.0, "camera_pitch": "tilt45"}
NOISE_CONFIG = {"pixel_sigma": 1.0, "depth_rel_sigma": 0.1, "miss_rate": 0.1,
                "false_positive_rate": 0.05}

SWEEP_CELLS = 12  # default --yaw-rates 2,4,6,8 x --pitches forward,tilt45,up
SWEEP_FRAMES_PER_CELL = 85  # 14 s at the default 6 fps, both ends included
LONG_RUN_FRAMES = 1801  # 60 s at 30 fps, both ends included
# Ground-truth downwash frames of the hover_orbit flight; they depend on the
# flight alone, which no seed changes, so every noise seed must reproduce them.
ORBIT_DOWNWASH_FRAMES = 540
UP_F1_MIN = 0.95  # README: the upward camera predicts downwash near-perfectly
FORWARD_F1_MAX = 0.2  # README: a forward camera is essentially blind (F1 <= 0.2)


def noise_seed(seed: int) -> int:
    """Noise rng seed for a workload seed; the default seed 1 gives the
    README noise model's rng_seed 0."""
    return (seed - 1) % 2**32


@dataclass
class PassOutcome:
    frames: int
    summary: dict
    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli(argv: list[str]) -> int:
    """One in-process CLI call; its progress lines are not benchmark output."""
    import spincam.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return spincam.cli.main(argv)


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def _read_report(path: Path, problems: list[str]) -> list[int]:
    """Confusion counts [tp, fp, fn, tn] of a report.csv.

    The counts are recomputed from the per-frame rows and must agree with the
    footer the program wrote.
    """
    counts = [0, 0, 0, 0]
    footer = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            footer.update(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
        elif line and not line.startswith("frame_id"):
            _frame, gt, pred = line.split(",")
            gt, pred = gt == "1", pred == "1"
            counts[(0 if pred else 2) if gt else (1 if pred else 3)] += 1
    stated = [int(footer.get(key, -1)) for key in ("tp", "fp", "fn", "tn")]
    if stated != counts:
        problems.append(f"{path.name}: footer counts {stated} != row counts {counts}")
    return counts


class Workload:
    name = ""
    robots = 0
    seeded = False  # whether outputs depend on the seed (reference.json keys)

    def prepare(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def run_pass(self, state: dict) -> PassOutcome:
        raise NotImplementedError


class SweepSwap(Workload):
    name = "sweep_swap"
    robots = 2

    def prepare(self, seed, work):
        import spincam.cli  # noqa: F401  (the import is part of set-up)

        config = work / "swap.json"
        _write_json(config, SWAP_CONFIG | {"rng_seed": seed})
        return {"argv": ["benchmark", "--config", str(config), "--oracle",
                         "--out", str(work / "sweep")],
                "csv": work / "sweep" / "benchmark.csv"}

    def run_pass(self, state):
        problems = []
        code = _cli(state["argv"])
        if code != 0:
            return PassOutcome(0, {"exit": code}, {}, [f"benchmark exited {code}"])
        lines = state["csv"].read_text(encoding="utf-8").splitlines()
        rows = lines[1:]
        f1s, frames = [], 0
        for row in rows:
            rate, pitch, _f1_text, _p, _r, *counts = row.split(",")
            tp, fp, fn, tn = (int(c) for c in counts)
            f1 = _f1(tp, fp, fn)
            f1s.append(f1)
            frames += tp + fp + fn + tn
            if tp + fp + fn + tn != SWEEP_FRAMES_PER_CELL:
                problems.append(f"cell {rate},{pitch}: {tp + fp + fn + tn} frames")
            if pitch == "up" and f1 < UP_F1_MIN:
                problems.append(f"cell {rate},up: f1 {f1:.4f} < {UP_F1_MIN}")
            if pitch == "forward" and f1 > FORWARD_F1_MAX + 1e-12:
                problems.append(f"cell {rate},forward: f1 {f1:.4f} > {FORWARD_F1_MAX}")
        if len(rows) != SWEEP_CELLS:
            problems.append(f"benchmark.csv has {len(rows)} cells, expected {SWEEP_CELLS}")
        quality = {"f1": statistics.fmean(f1s)} if f1s else {}
        return PassOutcome(frames, {"header": lines[0], "rows": rows}, quality, problems)


class SimEvalWaypoint4(Workload):
    name = "sim_eval_waypoint4"
    robots = 4

    def prepare(self, seed, work):
        import spincam.cli  # noqa: F401

        config = work / "waypoint.json"
        _write_json(config, WAYPOINT_CONFIG)
        dataset = work / "sim" / "dataset.ndjson"
        return {
            "simulate": ["simulate", "--config", str(config), "--out", str(work / "sim")],
            "eval": ["downwash-eval", "--dataset", str(dataset), "--oracle",
                     "--out", str(work / "eval")],
            "dataset": dataset,
            "report": work / "eval" / "report.csv",
        }

    def run_pass(self, state):
        problems = []
        for step in ("simulate", "eval"):
            code = _cli(state[step])
            if code != 0:
                return PassOutcome(0, {"exit": code}, {}, [f"{step} exited {code}"])
        with open(state["dataset"], encoding="utf-8") as fh:
            frames = json.loads(fh.readline()).get("frame_count")
        counts = _read_report(state["report"], problems)
        if frames != LONG_RUN_FRAMES or sum(counts) != LONG_RUN_FRAMES:
            problems.append(f"dataset frames {frames}, report rows {sum(counts)}, "
                            f"expected {LONG_RUN_FRAMES}")
        summary = {"dataset_frames": frames, "report": counts}
        return PassOutcome(sum(counts), summary, {"f1": _f1(*counts[:3])}, problems)


class NoisyEvalOrbit4(Workload):
    name = "noisy_eval_orbit4"
    robots = 4
    seeded = True

    def prepare(self, seed, work):
        from spincam.datasets import load_noise_model, read_dataset

        config, noise = work / "orbit.json", work / "noise.json"
        _write_json(config, ORBIT_CONFIG | {"rng_seed": seed})
        _write_json(noise, NOISE_CONFIG | {"rng_seed": noise_seed(seed)})
        code = _cli(["simulate", "--config", str(config), "--out", str(work / "sim")])
        if code != 0:
            raise RuntimeError(f"set-up simulate exited {code}")
        dataset_path = work / "sim" / "dataset.ndjson"
        dataset = read_dataset(dataset_path)

        def evaluate(mode):
            return ["downwash-eval", "--dataset", str(dataset_path), "--noise", str(noise),
                    "--mode", mode, "--out", str(work / mode)]

        return {"evals": {mode: evaluate(mode) for mode in ("box", "grid")},
                "reports": {mode: work / mode / "report.csv" for mode in ("box", "grid")},
                "dataset": dataset, "noise": load_noise_model(noise)}

    @staticmethod
    def _localize(dataset, noise_model, mode):
        """The paper's protocol on every frame: count success, and matched
        Euclidean errors on the frames whose decoded count is right."""
        from spincam import metrics, perception

        intr, radius = dataset.camera.intrinsics, dataset.geometry.sphere_radius
        successes, errors = 0, []
        for record in dataset.frames:
            annotation = record.annotation
            output = perception.simulate_detector(annotation, noise_model, intr, mode,
                                                  radius=radius)
            estimates = perception.decode_detections(output, intr, radius=radius)
            truth = [n.rel_position for n in annotation.neighbors]
            if len(estimates) != len(truth):
                continue
            successes += 1
            if truth:
                errors.extend(metrics.position_errors([e.position for e in estimates], truth))
        return successes, errors

    def run_pass(self, state):
        problems, summary, f1s = [], {}, []
        successes, errors = 0, []
        frames = len(state["dataset"].frames)
        for mode, argv in state["evals"].items():
            code = _cli(argv)
            if code != 0:
                return PassOutcome(0, {"exit": code}, {}, [f"downwash-eval {mode} exited {code}"])
            counts = _read_report(state["reports"][mode], problems)
            f1s.append(_f1(*counts[:3]))
            mode_successes, mode_errors = self._localize(state["dataset"], state["noise"], mode)
            successes += mode_successes
            errors += mode_errors
            summary[mode] = {
                "report": counts,
                "count_successes": mode_successes,
                "matched": len(mode_errors),
                "error_sum_m": math.fsum(mode_errors),
            }
            if sum(counts) != frames:
                problems.append(f"{mode}: report rows {sum(counts)} != dataset frames {frames}")
        gt_positives = {mode: s["report"][0] + s["report"][2] for mode, s in summary.items()}
        if set(gt_positives.values()) != {ORBIT_DOWNWASH_FRAMES}:
            problems.append(f"ground-truth downwash frames {gt_positives}, "
                            f"expected {ORBIT_DOWNWASH_FRAMES} in each mode")
        quality = {
            "f1": statistics.fmean(f1s),
            "loc_err_m.p50": statistics.median(errors) if errors else math.nan,
            "count_success_rate": successes / (frames * len(state["evals"])),
        }
        return PassOutcome(frames, summary, quality, problems)


WORKLOADS = {w.name: w for w in (SweepSwap(), SimEvalWaypoint4(), NoisyEvalOrbit4())}
