"""Why each public name of `spincam` exists: the API ledger.

`LEDGER` maps every public name of the package's modules to its reason:

- `cli`: a command runs it;
- `criterion N`: acceptance criterion N (`tests/test_acceptance.py`) calls it;
- `item N`: ROADMAP item N will call it from a command, or delete it.

A public name is a name without a leading underscore that a module defines
(a function, a class or a constant, not a name it imports), keyed
`module.name`, or a public method or property of a public class, keyed
`module.Class.name`. A name with no other reason than the tests has no
place in the package.

`run_matrix` runs every command in process under `sys.setprofile` and
returns the code objects it enters. `tests/test_api_ledger.py` checks the
ledger both ways against it: each `cli` callable is entered, and each
public callable entered is marked `cli`. A class is a callable when a method
of its own source (`__post_init__`, `__init__`, ...) has code; a plain
dataclass or an exception needs only its entry.

Run it to print, per module, the lines of function definitions that the
matrix never enters and the names behind them, then the ledger's reasons
other than `cli` with the lines of their definitions, then the line count of
the package's source files (`src/spincam/*.py`, as `wc -l` counts):

    PYTHONPATH=src python3 tests/api_ledger.py
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import re
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from cli_cases import gyro_csv

REASON = re.compile(r"cli|criterion (?:[1-9]|10)|item \d+[a-z]?")

LEDGER = {
    "camera.PITCH_ANGLES": "cli",
    "camera.CameraIntrinsics": "cli",
    "camera.DEFAULT_INTRINSICS": "cli",
    "camera.CameraModel": "cli",
    "camera.pitch_rotation": "cli",
    "camera.camera_for_pitch": "cli",
    "camera.fold_radius": "cli",
    "camera.distort_normalized": "cli",
    "camera.undistort_normalized": "cli",
    "camera.project_points": "cli",
    "camera.project": "criterion 4",
    "camera.back_project": "cli",
    "camera.in_view": "cli",
    "camera.world_to_camera_arrays": "cli",
    "camera.camera_to_world_arrays": "cli",
    "camera.NeighborAnnotation": "criterion 6",
    "camera.FrameAnnotation": "criterion 6",
    "camera.FrameRecord": "item 2c",
    "camera.COLUMN_DTYPES": "cli",
    "camera.RunRecords": "cli",
    "camera.RunRecords.annotations": "item 2c",
    "camera.RunRecords.frames": "item 2c",
    "camera.track_poses": "criterion 1",
    "camera.annotate_poses": "cli",

    "cli.EXIT_OK": "cli",
    "cli.EXIT_CONFIG": "cli",
    "cli.EXIT_DATA": "cli",
    "cli.Command": "cli",
    "cli.main": "cli",

    "datasets.SCHEMA_VERSION": "cli",
    "datasets.GYRO_LOG_COLUMNS": "cli",
    "datasets.MAX_GYRO_RATE": "cli",
    "datasets.MAX_OFFSETS": "cli",
    "datasets.Dataset": "cli",
    "datasets.Dataset.frames": "item 2c",
    "datasets.WRITE_FRAMES": "cli",
    "datasets.write_dataset": "cli",
    "datasets.read_dataset": "cli",
    "datasets.SIDECAR_SLACK": "cli",
    "datasets.GyroSequence": "cli",
    "datasets.GyroSequence.span": "cli",
    "datasets.read_gyro_log": "cli",
    "datasets.estimate_time_offset": "cli",
    "datasets.write_report": "cli",
    "datasets.SimulationSpec": "cli",
    "datasets.load_simulation_config": "cli",
    "datasets.load_noise_model": "cli",

    "downwash.DOWNWASH_MARGIN": "cli",
    "downwash.MIN_RADIUS": "cli",
    "downwash.MERGE_RADIUS": "cli",
    "downwash.SCAN_PAIRS": "cli",
    "downwash.STACK_FRAMES": "cli",
    "downwash.EVAL_MODES": "cli",
    "downwash.EllipsoidSpec": "cli",
    "downwash.EllipsoidSpec.from_radii": "cli",
    "downwash.EllipsoidSpec.as_array": "cli",
    "downwash.ellipsoid_margins": "cli",
    "downwash.ellipsoid_margin": "cli",
    "downwash.evaluate_downwash_records": "cli",
    "downwash.Cell": "cli",
    "downwash.evaluate_cells": "cli",
    "downwash.run_downwash_eval": "criterion 1",

    "dynamics.Wrench": "criterion 2",
    "dynamics.Wrench.as_array": "criterion 2",
    "dynamics.QuadrotorParams": "criterion 2",
    "dynamics.x_configuration_mixer": "criterion 2",
    "dynamics.crazyflie_params": "criterion 2",
    "dynamics.mix_wrench": "criterion 2",
    "dynamics.wrench_from_motors": "criterion 2",

    "errors.SpincamError": "cli",
    "errors.NonPositiveDepth": "cli",
    "errors.OutOfRange": "cli",
    "errors.InfeasibleWrench": "criterion 2",
    "errors.InvalidConfig": "cli",
    "errors.DegenerateBox": "criterion 3",
    "errors.CardinalityMismatch": "item 2a",
    "errors.ParseError": "cli",
    "errors.VersionMismatch": "cli",
    "errors.NonFiniteValue": "cli",
    "errors.InsufficientOverlap": "cli",

    "geometry.UNIT_NORM_TOL": "cli",
    "geometry.MAX_COORDINATE": "cli",
    "geometry.as_vec3": "cli",
    "geometry.is_finite": "cli",
    "geometry.is_count": "cli",
    "geometry.is_numbers": "cli",
    "geometry.within_reach": "cli",
    "geometry.require_finite": "cli",
    "geometry.quat_rotate": "cli",
    "geometry.quat_multiply": "cli",
    "geometry.quat_normalize": "cli",
    "geometry.compose": "cli",
    "geometry.invert": "cli",
    "geometry.slerp_arrays": "cli",
    "geometry.invalid_pose_row": "cli",
    "geometry.first_failure": "cli",
    "geometry.PoseTrack": "cli",
    "geometry.bracket": "cli",
    "geometry.interpolate": "criterion 1",
    "geometry.RobotGeometry": "cli",
    "geometry.RobotGeometry.corners": "cli",
    "geometry.DEFAULT_ROBOT_GEOMETRY": "cli",

    "metrics.AssignmentResult": "criterion 5",
    "metrics.hungarian": "criterion 5",
    "metrics.position_errors": "item 2a",
    "metrics.ConfusionCounts": "cli",
    "metrics.ConfusionCounts.from_columns": "cli",
    "metrics.classification_metrics": "cli",
    "metrics.ErrorDistribution": "item 2a",
    "metrics.ErrorDistribution.from_samples": "item 2a",

    "perception.DEFAULT_GRID_ROWS": "cli",
    "perception.DEFAULT_GRID_COLS": "cli",
    "perception.DEFAULT_GRID_THRESHOLD": "cli",
    "perception.MAX_FALSE_POSITIVE_RATE": "cli",
    "perception.BATCH_FRAMES": "cli",
    "perception.GridDetectionMap": "criterion 6",
    "perception.GridDetectionMap.zeros": "criterion 6",
    "perception.NoiseModel": "cli",
    "perception.PositionEstimate": "criterion 3",
    "perception.decode_box": "criterion 3",
    "perception.grid_cell_center": "cli",
    "perception.grid_cell_of": "cli",
    "perception.encode_grid": "criterion 6",
    "perception.decode_grid_frames": "cli",
    "perception.decode_grid": "criterion 6",
    "perception.frame_rng": "item 2c",
    "perception.detect_rows": "cli",
    "perception.perceive": "cli",
    "perception.simulate_detector": "item 2c",
    "perception.decode_detections": "item 2c",

    "scenarios.SCENARIO_KINDS": "cli",
    "scenarios.CAMERA_PITCHES": "cli",
    "scenarios.DEFAULT_HOVER_HEIGHTS": "cli",
    "scenarios.WAYPOINT_REJECTION_LIMIT": "cli",
    "scenarios.MAX_SAMPLES": "cli",
    "scenarios.MAX_WAYPOINTS": "cli",
    "scenarios.ScenarioConfig": "cli",
    "scenarios.frame_schedule": "cli",
    "scenarios.generate_scenario": "criterion 1",
    "scenarios.frame_poses": "cli",

    "seeding.SEED_POOL_SIZE": "cli",
    "seeding.INIT_A": "cli",
    "seeding.MULT_A": "cli",
    "seeding.INIT_B": "cli",
    "seeding.MULT_B": "cli",
    "seeding.MIX_MULT_L": "cli",
    "seeding.MIX_MULT_R": "cli",
    "seeding.MASK32": "cli",
    "seeding.INT64_MAX": "item 2c",
    "seeding.PCG_MULT_HI": "cli",
    "seeding.PCG_MULT_LO": "cli",
    "seeding.SEED_BLOCK": "item 2c",
    "seeding.SEED_CACHE_BLOCKS": "item 2c",
    "seeding.frame_seeds": "cli",
    "seeding.first_uniforms": "cli",
    "seeding.frame_row": "item 2c",
    "seeding.FrameSeed": "cli",
    "seeding.FrameSeed.generate_state": "cli",
    "seeding.frame_generator": "cli",
}


def modules() -> dict:
    """Each module of the `spincam` package, by its short name."""
    import spincam

    return {info.name: importlib.import_module(f"spincam.{info.name}")
            for info in pkgutil.iter_modules(spincam.__path__)}


def _source(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _functions(value) -> list:
    """The functions behind a class attribute: a method's, a static or class
    method's, a property's accessors or a cached property's; none for data."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    if isinstance(value, functools.cached_property):
        return [value.func]
    return [value] if inspect.isfunction(value) else []


def public_names() -> dict:
    """Every public name, keyed as `LEDGER` keys it, and its object."""
    names = {}
    for short, module in modules().items():
        for node in _source(module).body:
            for name in _defined(node):
                if name.startswith("_"):
                    continue
                obj = names[f"{short}.{name}"] = getattr(module, name)
                if inspect.isclass(obj):
                    names.update((f"{short}.{name}.{attr}", value)
                                 for attr, value in vars(obj).items()
                                 if not attr.startswith("_") and _functions(value))
    return names


def code_of(obj) -> set:
    """The code objects of a public name: a function's own; a class's
    non-public methods written in its module's source; a method's or
    property's functions; none for a constant or a plain class."""
    if inspect.isclass(obj):
        source = inspect.getsourcefile(obj)
        return {f.__code__ for attr, value in vars(obj).items() if attr.startswith("_")
                for f in _functions(value) if f.__code__.co_filename == source}
    if inspect.isfunction(obj):
        return {obj.__code__}
    return {f.__code__ for f in _functions(obj)}


def run_matrix(work: Path) -> set:
    """The code objects entered while `spincam.cli.main` runs every command
    in `work`, an empty directory: `simulate` of a swap, a hover-orbit and a
    random-waypoint flight at k1 0, -0.08 and 0.05; oracle, box and grid
    `downwash-eval`; an oracle evaluation of a dataset with no sidecar;
    `benchmark`; `rerun` of a simulate manifest; and `timesync`.

    Every function cache of the package is emptied first, so the matrix
    enters what it would in a fresh process."""
    from spincam.cli import main

    for module in modules().values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    flights = {
        "swap": {"kind": "swap", "num_robots": 2, "duration": 4.0, "camera_pitch": "up",
                 "rng_seed": 3},
        "orbit": {"kind": "hover_orbit", "num_robots": 3, "duration": 4.0,
                  "camera_pitch": "tilt45", "k1": -0.08},
        "waypoint": {"kind": "random_waypoint", "num_robots": 3, "duration": 4.0,
                     "camera_pitch": "forward", "k1": 0.05, "rng_seed": 1},
    }
    for name, config in flights.items():
        (work / f"{name}.json").write_text(json.dumps(config))
    (work / "noise.json").write_text('{"rng_seed": 1, "false_positive_rate": 1.0}')
    (work / "a.csv").write_text(gyro_csv(0.0))
    (work / "b.csv").write_text(gyro_csv(0.02))
    (work / "bare").mkdir()
    commands = [
        ["downwash-eval", "--dataset", f"{work}/swap/dataset.ndjson", "--oracle",
         "--out", f"{work}/eval-oracle"],
        *(["downwash-eval", "--dataset", f"{work}/{name}/dataset.ndjson",
           "--noise", f"{work}/noise.json", "--mode", mode, "--out", f"{work}/eval-{mode}"]
          for name, mode in (("orbit", "box"), ("waypoint", "grid"))),
        ["downwash-eval", "--dataset", f"{work}/bare/dataset.ndjson", "--oracle",
         "--out", f"{work}/eval-bare"],
        ["benchmark", "--config", f"{work}/swap.json", "--oracle", "--yaw-rates", "2,4",
         "--out", f"{work}/bench"],
        ["rerun", "--manifest", f"{work}/swap/manifest.json"],
        ["timesync", "--log-a", f"{work}/a.csv", "--log-b", f"{work}/b.csv", "--window", "0.1"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def run(argv):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return main(argv)
        finally:
            sys.setprofile(previous)

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [run(["simulate", "--config", f"{work}/{name}.json", "--out", f"{work}/{name}"])
                 for name in flights]
        shutil.copyfile(work / "swap" / "dataset.ndjson", work / "bare" / "dataset.ndjson")
        codes += [run(argv) for argv in commands]
    if any(codes):
        raise RuntimeError(f"the matrix's commands exited {codes}")
    return entered


def _first_line(node: ast.stmt) -> int:
    """A statement's first line: its first decorator's, as in a code object."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _definitions(module) -> list[tuple[str, int, int]]:
    """Each function definition of a module's source, a top-level function
    or a method of a top-level class: its qualified name, first and last line."""
    found = []
    for node in _source(module).body:
        methods = node.body if isinstance(node, ast.ClassDef) else []
        found += [(f"{node.name}.{item.name}", _first_line(item), item.end_lineno)
                  for item in methods if isinstance(item, ast.FunctionDef)]
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, _first_line(node), node.end_lineno))
    return found


def _spans(module) -> dict[str, range]:
    """The lines that define each name of a module and each method, keyed as
    `LEDGER` keys them without the module."""
    spans = {name: range(_first_line(node), node.end_lineno + 1)
             for node in _source(module).body for name in _defined(node)}
    for name, first, last in _definitions(module):
        spans.setdefault(name, range(first, last + 1))
    return spans


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        entered = {(code.co_filename, code.co_firstlineno, code.co_name)
                   for code in run_matrix(Path(work))}
    print("Lines of function definitions that the command matrix never enters:")
    total = never = 0
    for short, module in modules().items():
        definitions = _definitions(module)
        missed = [(name, last - first + 1) for name, first, last in definitions
                  if (module.__file__, first, name.rsplit(".", 1)[-1]) not in entered]
        lines, missed_lines = sum(last - first + 1 for _, first, last in definitions), \
            sum(n for _, n in missed)
        total, never = total + lines, never + missed_lines
        print(f"  {short}.py: {missed_lines} of {lines}")
        for name, n in missed:
            print(f"      {name} ({n})")
    print(f"  all modules: {never} of {total}")

    print("The ledger's reasons other than cli, and the lines of their definitions:")
    spans = {short: _spans(module) for short, module in modules().items()}
    by_reason = defaultdict(dict)
    for key, reason in LEDGER.items():
        short, name = key.split(".", 1)
        by_reason[reason][key] = {(short, line) for line in spans[short][name]}
    by_reason.pop("cli", None)
    # "item 2a" before "item 13"
    for reason in sorted(by_reason, key=lambda r: [int(t) if t.isdigit() else t
                                                   for t in re.split(r"(\d+)", r)]):
        entries = by_reason[reason]
        print(f"  {reason}: {len(set().union(*entries.values()))} lines")
        for key, lines in entries.items():
            print(f"      {key} ({len(lines)})")

    import spincam

    files = list(Path(spincam.__file__).parent.glob("*.py"))
    source_lines = sum(path.read_bytes().count(b"\n") for path in files)
    print(f"Lines of the package's {len(files)} source files: {source_lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
