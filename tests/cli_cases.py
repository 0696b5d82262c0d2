"""The command line's rejection cases: one table, two ways to run it.

Each `Case` is one `spincam` command line, the input it needs and what it
must give: its exit code and fragments of its stderr. `check` runs a case in
an empty directory, `{work}`, next to a base run, `{run}`, that holds a
simulated swap dataset (`dataset.ndjson` and its sidecar), its
`config.json` and `manifest.json`, a noise config (`noise.json`) and a gyro
log (`a.csv`). Every case is held to one contract:

- the exit code is the case's;
- every fragment is in stderr, and stderr holds no traceback (in process,
  an exception escapes `main` and fails the test);
- on exit 0, stderr is empty;
- on exit 2 or 3, stderr is one line, starting `error: `, whatever is at
  fault: the command line, an input, or a manifest or its replayed command
  line;
- on exit 2 or 3, `{work}` holds exactly what the case's input put there,
  byte for byte: nothing is written and no input is changed.

Tier-1 runs the table in process through `spincam.cli.main`
(`tests/test_cli.py::test_cli_case`). Run it through a console command,
each case a subprocess, with

    python3 tests/cli_cases.py --console spincam
    PYTHONPATH=$PWD/src python3 tests/cli_cases.py --console "python3 -m spincam.cli"

Each case runs in its own directory, so a PYTHONPATH must be absolute. It
prints `ok <id>` or `FAIL <id>` per case and exits 1 if any fails. This
module imports only the standard library, so the console run needs nothing
but the command it runs.

To add a case, append a `Case` to `CASES`: its id, its argv (with `{work}`
and `{run}` for the two directories), its exit code and stderr fragments,
and at most one input, built in `{work}`: `Config` (the base config with
keys set), `Edit` (the base dataset with one value of one line set),
`Bytes` (the base dataset with bytes replaced on one line), `File` (a file
holding text) or `Dir` (an empty directory).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

# The base run's scenario config.
BASE_CONFIG = {"kind": "swap", "num_robots": 2, "duration": 14.0, "rng_seed": 3,
               "camera_pitch": "up"}
# The first line of the base dataset whose frame sees a neighbor.
SEEING = 39
# A JSON integer too large for a float: `1` followed by 400 zeros.
HUGE = 10**400
# An edit that drops a key or list element.
DROP = object()
# The `{work}` files that the inputs write.
CFG, DATA, NOISE, MANIFEST = (f"{{work}}/{name}" for name in
                              ("config.json", "data.ndjson", "noise.json", "manifest.json"))


def gyro_csv(start: float) -> str:
    """A 1 s gyro log at 1 kHz from time `start`, as CSV text."""
    times = [start + k / 1000.0 for k in range(1000)]
    return "t,gx,gy,gz\n" + "".join(
        f"{t!r},{math.sin(7.0 * t)!r},{math.cos(3.0 * t)!r},{math.sin(11.0 * t + 1.0)!r}\n"
        for t in times)


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


# ---------------------------------------------------------------------------
# Inputs: each writes one file or directory in `work`, with `fill` applied to
# any text that names `{work}` or `{run}`.

@dataclass(frozen=True)
class Config:
    """`config.json`: the base config with these keys set."""

    overrides: dict

    def build(self, work: Path, run: Path, fill) -> None:
        (work / "config.json").write_text(json.dumps(BASE_CONFIG | self.overrides))


@dataclass(frozen=True)
class Edit:
    """`data.ndjson`: the base dataset with the value at a dotted key path of
    line `line` (counted from 1) set to JSON `text`, or dropped (DROP); see
    `mutate`. The base dataset's sidecar comes along, as `data.npz`; it no
    longer matches the text."""

    line: int
    path: str
    text: object

    def build(self, work: Path, run: Path, fill) -> None:
        lines = (run / "dataset.ndjson").read_text(encoding="utf-8").splitlines()
        lines[self.line - 1] = mutated_line(lines[self.line - 1], [(self.path, self.text)])
        (work / "data.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
        shutil.copyfile(run / "dataset.npz", work / "data.npz")


@dataclass(frozen=True)
class Bytes:
    """`data.ndjson`: the base dataset with the first `old` on line `line`
    (counted from 1) replaced by `new`."""

    line: int
    old: bytes
    new: bytes

    def build(self, work: Path, run: Path, fill) -> None:
        lines = (run / "dataset.ndjson").read_bytes().split(b"\n")
        lines[self.line - 1] = lines[self.line - 1].replace(self.old, self.new, 1)
        (work / "data.ndjson").write_bytes(b"\n".join(lines))


@dataclass(frozen=True)
class File:
    """A file `name` holding `text`."""

    name: str
    text: str

    def build(self, work: Path, run: Path, fill) -> None:
        (work / self.name).write_text(fill(self.text), encoding="utf-8")


@dataclass(frozen=True)
class Dir:
    """An empty directory `name`."""

    name: str

    def build(self, work: Path, run: Path, fill) -> None:
        (work / self.name).mkdir()


@dataclass(frozen=True)
class Case:
    """One command line and what it must give: its exit code, fragments of
    its stderr, or all of its stderr when `stderr` is set."""

    id: str
    argv: tuple
    code: int
    fragments: tuple = ()
    input: Config | Edit | Bytes | File | Dir | None = None
    stderr: str | None = None


# ---------------------------------------------------------------------------
# The table

SIMULATE = ("simulate", "--config", CFG, "--out", "{work}/out")
EVAL = ("downwash-eval", "--dataset", DATA, "--out", "{work}/out")
EVAL_BASE = ("downwash-eval", "--dataset", "{run}/dataset.ndjson", "--out", "{work}/out")
BENCHMARK = ("benchmark", "--config", "{run}/config.json", "--out", "{work}/out", "--oracle")
RERUN = ("rerun", "--manifest", MANIFEST)
MODES = {"oracle": ("--oracle",), "box": ("--noise", "{run}/noise.json", "--mode", "box"),
         "grid": ("--noise", "{run}/noise.json", "--mode", "grid")}
TINY_ARENA = {"kind": "random_waypoint", "num_robots": 4, "duration": 5.0,
              "arena_min": [0, 0, 0.1], "arena_max": [0.1, 0.1, 0.2]}
HEADER = f"{DATA}:1: malformed header record"
SEEN = f"{DATA}:{SEEING}: malformed frame record"
SEED_ERROR = "error: --seed -1: rng_seed must be a non-negative integer, got -1\n"


def frame_at(line: int) -> str:
    return f"{DATA}:{line}: malformed frame record"


# simulate: a config key that is malformed, or out of range, and the key it names
MALFORMED_SCENARIO = [
    ("duration", {"duration": 0.001}),
    ("num_robots", {"kind": "random_waypoint", "num_robots": 2.5}),
    ("waypoint_count", {"kind": "random_waypoint", "waypoint_count": 2.5}),
    ("waypoint_count", {"kind": "random_waypoint", "waypoint_count": 1001}),
    ("rng_seed", {"rng_seed": -1}),
    ("swap_start_a", {"swap_start_a": [1, 2]}),
    ("swap_start_b", {"swap_start_b": [0.7, 0.7, 0.9, 1.0]}),
    ("arena_min", {"arena_min": [1]}),
    ("arena_max", {"arena_max": ["1.5", 1.5, 2.0]}),
    ("hover_heights", {"kind": "hover_orbit", "num_robots": 3, "hover_heights": 2}),
    ("hover_heights", {"kind": "hover_orbit", "num_robots": 3, "hover_heights": [0.6, "1.0"]}),
    ("hover_heights", {"kind": "hover_orbit", "num_robots": 4, "hover_heights": [0.6]}),
    ("ellipsoid", {"ellipsoid": [0.1, 0.1]}),
    ("ellipsoid", {"ellipsoid": [0.1, 0.1, 0.3, 0.3]}),
    ("ellipsoid", {"ellipsoid": 0.1}),
    ("ellipsoid", {"ellipsoid": ["0.1", 0.1, 0.3]}),
    ("duration", {"duration": "5"}),
    ("fx", {"fx": "170"}),
    ("sphere_radius", {"sphere_radius": "x"}),
    ("width", {"width": "320"}),
    ("half_extents", {"half_extents": [0.1, 0.1]}),
    ("camera_translation", {"camera_translation": [0.1]}),
    ("yaw_rate", {"yaw_rate": True}),
    ("frame_rate", {"frame_rate": True}),
    ("fx", {"fx": True}),
    ("camera_pitch", {"camera_pitch": ["up"]}),
    ("duration", {"duration": HUGE}),
    ("fx", {"fx": HUGE}),
    ("half_extents", {"half_extents": [HUGE, 0.1, 0.1]}),
    ("half_extents", {"half_extents": HUGE}),
    ("camera_translation", {"camera_translation": HUGE}),
    ("arena_min", {"arena_min": [HUGE, -1.5, 0.1]}),
    ("ellipsoid", {"ellipsoid": [0.15, HUGE, 0.3]}),
    ("camera_translation", {"camera_translation": ["0.1", 0.0, 0.0]}),
    ("half_extents", {"half_extents": [0.065, True, 0.03]}),
    ("fx must be finite", {"fx": math.nan}),
    ("fy must be finite", {"fy": math.inf}),
    ("k1 must be finite", {"k1": math.nan}),
    ("sphere_radius must be finite", {"sphere_radius": math.nan}),
    ("k1", {"k1": -0.5}),  # the lens folds inside the image
    ("k1", {"k1": -0.1}),
    ("fx 1e-320", {"fx": 1e-320}),  # the image corner's normalized radius overflows
    ("fy 1e-320", {"fy": 1e-320}),
    ("duration must be finite", {"duration": math.nan}),
    ("ellipsoid[0] must be finite", {"ellipsoid": [math.inf, 0.1, 0.1]}),
    ("swap scenario requires exactly 2 robots", {"num_robots": 3}),
    # past a bound that keeps the arithmetic finite
    ("ellipsoid radii must be at least 1e-06 m", {"ellipsoid": [1e-320, 0.1, 0.1]}),
    ("sphere_radius must be at most 1e+06 m", {"sphere_radius": 1e300}),
    ("half_extents must be within 1e+06 m per axis", {"half_extents": [0.065, 1e300, 0.03]}),
]

# simulate: a config coordinate past geometry.MAX_COORDINATE (1e6 m), which
# would overflow
FAR_SCENARIO = [
    {"kind": "hover_orbit", "num_robots": 3, "orbit_radius": 1e308},
    {"kind": "hover_orbit", "num_robots": 3, "orbit_height": -1e308},
    {"kind": "hover_orbit", "num_robots": 3, "hover_heights": [0.6, 1e308]},
    {"kind": "random_waypoint", "arena_min": [-1e308, -1.5, 0.1]},
    {"kind": "random_waypoint", "arena_max": [1.5, 1e308, 2.0]},
    {"swap_start_a": [1e308, -0.7, 0.5]},
    {"swap_start_b": [0.7, 0.7, 1e308]},
    {"camera_translation": [0.0, 1e308, 0.0]},
]

# downwash-eval: a frame value that is no JSON number a float holds, at a
# key path of the frame that sees a neighbor, and the key it names
NO_FLOAT = [
    ("t", "poses.r0.t.0", '"1.5"'),
    ("t", "poses.r1.t.2", "true"),
    ("t", "poses.r0.t.1", str(HUGE)),
    ("q", "poses.r1.q.0", str(HUGE)),
    ("q", "poses.r1.q.3", "false"),
    ("time", "poses.r0.time", '"0.5"'),
    ("time", "poses.r1.time", str(HUGE)),
    ("rel_position", "neighbors.0.rel_position.0", '"0.5"'),
    ("rel_position", "neighbors.0.rel_position.2", str(HUGE)),
    ("center", "neighbors.0.center.1", "true"),
    ("bbox", "neighbors.0.bbox.0", "false"),
    ("bbox", "neighbors.0.bbox.3", str(HUGE)),
    ("timestamp", "timestamp", str(HUGE)),
]

# downwash-eval: a frame_id or timestamp of the wrong JSON type on line 7
WRONG_TYPE = [("frame_id", "5.9"), ("frame_id", "5.0"), ("frame_id", '"5"'), ("frame_id", "true"),
              ("timestamp", "true"), ("timestamp", '"0.5"')]

# downwash-eval: a neighbor array that is not finite, of the frame that sees one
NOT_FINITE = [("rel_position", "[NaN, 0.1, 1.0]"), ("rel_position", "[0.1, 1e400, 1.0]"),
              ("bbox", "[NaN, 10.0, 20.0, 30.0]"), ("center", "[Infinity, 5.0]"),
              ("center", "[5.0, -1e999]")]

# downwash-eval: a dataset header value that is malformed, and the key it names
MALFORMED_HEADER = [
    ("ellipsoid", "ellipsoid.2", "NaN"),
    ("ellipsoid", "ellipsoid", "[0.15, 0.15]"),
    ("ellipsoid", "ellipsoid", "[0.15, 0.15, 0.3, 0.3]"),
    ("ellipsoid", "ellipsoid", "0.15"),
    ("ellipsoid", "ellipsoid.1", str(HUGE)),
    ("fx", "camera.intrinsics.fx", "NaN"),
    ("fy", "camera.intrinsics.fy", "Infinity"),
    ("k1", "camera.intrinsics.k1", "NaN"),
    ("k1", "camera.intrinsics.k1", "-0.5"),  # the lens folds inside the image
    ("fx", "camera.intrinsics.fx", str(HUGE)),
    ("sphere_radius", "geometry.sphere_radius", "NaN"),
    ("half_extents", "geometry.half_extents.0", str(HUGE)),
    ("extrinsic q", "camera.extrinsic.q.0", str(HUGE)),
    ("extrinsic q", "camera.extrinsic.q.1", "false"),
    ("extrinsic q", "camera.extrinsic.q", "[0.5, 0.5, 0.5, 0.6]"),
    ("extrinsic q", "camera.extrinsic.q", "[0, 0, 0, 0]"),
    ("extrinsic t", "camera.extrinsic.t.2", '"0"'),
    ("extrinsic t", "camera.extrinsic.t", str(HUGE)),
]

# downwash-eval: a dataset header value past a bound, which would overflow in
# some mode, and the message it gives
FAR_HEADER = [
    ("extrinsic-t", "camera.extrinsic.t.0", "1e+308",
     "extrinsic t must be within 1e+06 m per axis"),
    ("ellipsoid", "ellipsoid.0", "1e-320", "ellipsoid radii must be at least 1e-06 m"),
    ("sphere-radius", "geometry.sphere_radius", "1e+300", "sphere_radius must be at most 1e+06 m"),
    ("half-extents", "geometry.half_extents.2", "1e+300",
     "half_extents must be within 1e+06 m per axis"),
]
# ... and the value at each of those bounds, which runs clean
AT_BOUND_HEADER = [
    ("extrinsic-t", "camera.extrinsic.t.0", "1000000.0"),
    ("ellipsoid", "ellipsoid.0", "1e-06"),
    ("sphere-radius", "geometry.sphere_radius", "1000000.0"),
    ("half-extents", "geometry.half_extents.2", "1000000.0"),
]

# downwash-eval: a malformed pose on line 5
MALFORMED_POSE = [
    ("no-ego-pose", "poses.r0", DROP),
    ("two-component-t", "poses.r1.t", "[0.0, 1.0]"),
    ("non-number-t", "poses.r1.t", '["x", 0.0, 1.0]'),
    ("non-unit-q", "poses.r1.q", "[2.0, 0.0, 0.0, 0.0]"),
    ("huge-q", "poses.r1.q", "[1e+200, 0.0, 0.0, 0.0]"),
    ("negative-time", "poses.r0.time", "-1.0"),
    ("robot-missing", "poses.r1", DROP),
    ("extra-robot", "poses.r2", '{"time": 0.5, "q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 1.0]}'),
]

# a noise config that is malformed, as file text
MALFORMED_NOISE = [
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
]

# rerun: recorded args edited, the exit code, and what stderr names
RECORDED_ARGS = {
    "benchmark": {"config": "{run}/config.json", "out": "bench", "yaw_rates": "2",
                  "pitches": "up", "oracle": True, "noise": None, "mode": "box", "seed": None},
    "downwash-eval": {"dataset": "{run}/dataset.ndjson", "out": "eval", "oracle": True,
                      "noise": None, "mode": "box", "ellipsoid": None},
}
MALFORMED_ARGS = [
    ("benchmark", {"pitches": ["up"]}, 2, "pitches"),
    ("benchmark", {"yaw_rates": 5}, 0, None),
    ("downwash-eval", {"ellipsoid": [0.1, 0.1, 0.3]}, 2, "ellipsoid"),
    ("downwash-eval", {"ellipsoid": ""}, 2, "--ellipsoid"),
    ("benchmark", {"out": None}, 2, "--out"),
    ("downwash-eval", {"out": None}, 2, "--out"),
    ("downwash-eval", {"dataset": None}, 2, "--dataset"),
    ("downwash-eval", {"mode": "xyz", "oracle": False, "noise": "{run}/noise.json"}, 2, "--mode"),
    ("benchmark", {"mode": "xyz"}, 2, "--mode"),
    ("benchmark", {"config": 7}, 2, "'7'"),  # the file "7" in the empty `{work}`
    ("downwash-eval", {"noise": 5, "oracle": False}, 2, "'5'"),
    ("benchmark", {"seed": True}, 2, "--seed"),
    ("benchmark", {"oracle": "yes"}, 2, "--oracle"),
    ("benchmark", {"out": "a\0b"}, 2, "'out'"),
    # a value that breaks the replayed command's message over two lines
    ("benchmark", {"yaw_rates": "2\n3"}, 2, "--yaw-rates 2\\n3: could not convert"),
    # keys that are none of the command's flags, such as `seed` misspelt
    ("benchmark", {"sed": 5, "oracel": True}, 2, "args hold unknown keys ['oracel', 'sed']"),
]
MALFORMED_MANIFEST = [
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
    # commands that write no manifest, with every flag recorded
    json.dumps({"command": "timesync", "args": {"log_a": "{run}/a.csv", "log_b": "{run}/a.csv",
                                                "window": 0.5}}),
    json.dumps({"command": "rerun", "args": {"manifest": "{run}/manifest.json"}}),
]

# timesync: the data rows of a gyro log, the line of the bad row and its message
BAD_GYRO_ROWS = [
    ("long-row", "0.0,0,0,0,7\n0.1,0,0,0\n0.2,0,0,0\n", 2, "expected 4 fields, got 5"),
    ("short-row", "0.0,0,0\n0.1,0,0,0\n0.2,0,0,0\n", 2, "expected 4 fields, got 3"),
    ("backwards", "0.0,0,0,0\n0.2,0,0,0\n0.1,0,0,0\n0.3,0,0,0\n", 4,
     "timestamps must be strictly increasing, got 0.1 after 0.2"),
    ("huge-field", "0.0,0,0,0\n0.1," + "1" * 200_000 + ",0,0\n0.2,0,0,0\n", 3,
     "field larger than field limit (131072)"),
    # a quote is no field delimiter: it does not swallow the lines after it
    ("quote", "0.0,0,0,0\n\"0.1,0,0,0\n0.2,0,0,0\n", 3,
     "non-numeric field: could not convert string to float: '\"0.1'"),
    # a rate whose square overflows the offset search's squared differences
    ("huge-rate", "0.0,0,0,0\n0.1,0,1e200,0\n0.2,0,0,0\n", 3,
     "rates must be within +/-1e+06 rad/s, got [0.0, 1e+200, 0.0]"),
]

# timesync: the times of a 3-row gyro log searched against the base run's
# 1 s log at the default --window, and the count of offsets that search needs
DENSE_GYRO_LOGS = [
    ("nanosecond", "0,1e-9,2e-9", "a sample period of 1e-09 s needs 999999999"),
    # a period so small that the window over it is past the float range
    ("subnormal", "0,5e-324,1e-323", "a sample period of 5e-324 s needs inf"),
]

# benchmark: a list flag's value and the whole stderr it gives
BAD_LIST_FLAG = [
    ("nan", "--yaw-rates", "nan", "--yaw-rates nan: yaw_rate must be finite, got nan"),
    ("negative", "--yaw-rates", "-1", "--yaw-rates -1: yaw_rate must be non-negative"),
    ("too-fast", "--yaw-rates", "1e308",
     "--yaw-rates 1e308: yaw_rate 1e+308 rad/s turns inf rad between pose samples at "
     "sample_rate 100 Hz; it must stay below pi"),
    ("inf", "--yaw-rates", "2,inf", "--yaw-rates inf: yaw_rate must be finite, got inf"),
    ("not-a-number", "--yaw-rates", "x",
     "--yaw-rates x: could not convert string to float: 'x'"),
    ("empty", "--yaw-rates", "", "--yaw-rates '': lists no value"),
    ("blank", "--yaw-rates", " , ", "--yaw-rates ' , ': lists no value"),
    ("no-pitch", "--pitches", "", "--pitches '': lists no value"),
    ("unknown-pitch", "--pitches", "up,sideways",
     "--pitches sideways: unknown camera pitch 'sideways'; expected one of "
     "['forward', 'tilt45', 'up']"),
    # an item holding a line break, escaped so the message stays one line
    ("newline", "--yaw-rates", "2\n3",
     "--yaw-rates 2\\n3: could not convert string to float: '2\\n3'"),
    ("carriage-return", "--yaw-rates", "2\r3",
     "--yaw-rates 2\\r3: could not convert string to float: '2\\r3'"),
]

# a command line the parser rejects, and the start of the line it gives,
# naming the command and the flag
PARSER_REJECTS = [
    ("no-command", (), "error: spincam: the following arguments are required: command"),
    ("unknown-command", ("simulat",),
     "error: spincam: argument command: invalid choice: 'simulat'"),
    ("missing-config", ("simulate", "--out", "{work}/out"),
     "error: spincam simulate: the following arguments are required: --config"),
    ("bad-mode", (*EVAL_BASE, "--noise", "{run}/noise.json", "--mode", "xyz"),
     "error: spincam downwash-eval: argument --mode: invalid choice: 'xyz'"),
    ("bad-seed", ("simulate", "--config", "{run}/config.json", "--out", "{work}/out",
                  "--seed", "abc"),
     "error: spincam simulate: argument --seed: invalid int value: 'abc'"),
    ("unrecognized-flag", (*SIMULATE, "--frames", "3"),
     "error: spincam simulate: unrecognized arguments: --frames 3"),
    ("unrecognized-benchmark-flag", (*BENCHMARK, "--rates", "2"),
     "error: spincam benchmark: unrecognized arguments: --rates 2"),
    # a flag is taken only whole, never by a unique prefix of its name
    ("abbreviated-yaw-rates", (*BENCHMARK, "--yaw-rate", "2"),
     "error: spincam benchmark: unrecognized arguments: --yaw-rate 2"),
    ("abbreviated-pitches", (*BENCHMARK, "--yaw-rates", "2", "--pitch", "up"),
     "error: spincam benchmark: unrecognized arguments: --pitch up"),
    ("abbreviated-flags", (*BENCHMARK, "--yaw-rate", "2", "--pitch", "up"),
     "error: spincam benchmark: unrecognized arguments: --yaw-rate 2 --pitch up"),
]

# commands whose --out is a file, or lies under one
OUT_COMMANDS = {
    "simulate": ("simulate", "--config", "{run}/config.json"),
    "benchmark": ("benchmark", "--config", "{run}/config.json", "--oracle", "--yaw-rates", "4",
                  "--pitches", "up"),
    "downwash-eval": ("downwash-eval", "--oracle", "--dataset", "{run}/dataset.ndjson"),
}


def _key_ids(rows, key_of=lambda row: row[0]) -> list[str]:
    """Ids for rows, each its key (by default its first item), numbered from
    1 when the key repeats."""
    keys = [key_of(row) for row in rows]
    return [key if keys.count(key) == 1 else f"{key}-{keys[:k + 1].count(key)}"
            for k, key in enumerate(keys)]


CASES = [
    *(Case(f"parser-{name}", argv, 2, (line,)) for name, argv, line in PARSER_REJECTS),

    # simulate
    Case("simulate-missing-config", ("simulate", "--config", "{work}/nope.json",
                                     "--out", "{work}/out"), 2, ("cannot read",)),
    *(Case(f"simulate-{name}", SIMULATE, 2, (CFG, named), Config(overrides))
      for name, (named, overrides) in zip(_key_ids(MALFORMED_SCENARIO, lambda r: list(r[1])[-1]),
                                          MALFORMED_SCENARIO)),
    *(Case(f"simulate-far-{key}", SIMULATE, 2, (f"{CFG}: {key} must be within 1e+06 m per axis",),
           Config(overrides))
      for overrides in FAR_SCENARIO for key in list(overrides)[-1:]),
    *(Case(f"{command}-arena-too-small", (command, "--config", CFG, "--out", "{work}/out",
                                          *oracle), 2,
           (f"{CFG}: could not place 4 robots' waypoints apart between arena_min [0, 0, 0.1] "
            "and arena_max [0.1, 0.1, 0.2]; widen the arena or lower num_robots",),
           Config(TINY_ARENA))
      for command, oracle in (("simulate", ()), ("benchmark", ("--oracle",)))),
    Case("simulate-barrel-lens-folding-outside-the-image", SIMULATE, 0, (),
         Config({"k1": -0.08})),
    Case("simulate-huge-integer-seed", SIMULATE, 0, (), Config({"rng_seed": HUGE,
                                                                "duration": 2.0})),
    Case("simulate-negative-seed-flag", ("simulate", "--config", "{run}/config.json",
                                         "--out", "{work}/out", "--seed", "-1"), 2,
         stderr=SEED_ERROR),

    # downwash-eval: flags and the noise config
    Case("eval-requires-oracle-or-noise", EVAL_BASE, 2, ("either --oracle or --noise",)),
    Case("eval-noise-mode-runs", (*EVAL_BASE, "--noise", NOISE, "--mode", "box"), 0, (),
         File("noise.json", '{"pixel_sigma": 1.0, "miss_rate": 0.1, "rng_seed": 1}')),
    *(Case(f"eval-ellipsoid-flag-{name}", (*EVAL_BASE, "--oracle", "--ellipsoid", text), 2,
           named)
      for name, text, named in (("nan", "nan,0.1,0.1", ("--ellipsoid", "finite")),
                                ("empty", "", ("--ellipsoid",)),
                                ("two-radii", "1,2", ("--ellipsoid",)),
                                ("tiny", "1e-320,0.1,0.1",
                                 ("--ellipsoid: ellipsoid radii must be at least 1e-06 m",)))),
    *(Case(f"eval-malformed-noise-{k}", ("downwash-eval", "--dataset", "{work}/unread.ndjson",
                                         "--noise", NOISE, "--out", "{work}/out"), 2, (NOISE,),
           File("noise.json", text))
      for k, text in enumerate(MALFORMED_NOISE, start=1)),
    *(Case(f"eval-huge-integer-noise-{key}", ("downwash-eval", "--dataset",
                                               "{work}/unread.ndjson", "--noise", NOISE,
                                               "--out", "{work}/out"), 2,
           (NOISE, f"{key} must be finite"), File("noise.json", json.dumps({key: HUGE})))
      for key in ("pixel_sigma", "depth_rel_sigma", "miss_rate", "false_positive_rate")),

    # downwash-eval: the dataset file
    Case("eval-corrupt-dataset", (*EVAL, "--oracle"), 3, (f"{DATA}:2: invalid record",),
         File("data.ndjson", '{"record": "header", "schema_version": 1}\nnot json\n')),
    # a line break in the path is escaped
    Case("eval-corrupt-dataset-path-with-a-newline",
         ("downwash-eval", "--dataset", "{work}/a\nb.ndjson", "--oracle", "--out", "{work}/out"),
         3, ("error: {work}/a\\nb.ndjson:2: invalid record",),
         File("a\nb.ndjson", '{"record": "header", "schema_version": 1}\nnot json\n')),
    Case("eval-not-utf8", (*EVAL, "--oracle"), 3, (f"{DATA}:6: not UTF-8 text",),
         Bytes(6, b'"r1"', b'"r\xff"')),
    *(Case(f"eval-header-{name}", (*EVAL, "--oracle"), 3, (HEADER, named), Edit(1, path, text))
      for name, (named, path, text) in zip(_key_ids(MALFORMED_HEADER, lambda r: r[1]),
                                           MALFORMED_HEADER)),
    *(Case(f"eval-header-fy-too-small-{mode}", (*EVAL, *flags), 3, (HEADER, "fy 1e-320"),
           Edit(1, "camera.intrinsics.fy", "1e-320"))
      for mode, flags in MODES.items()),
    *(Case(f"eval-header-far-{name}-{mode}", (*EVAL, *flags), 3, (f"{HEADER}: {message}",),
           Edit(1, path, text))
      for name, path, text, message in FAR_HEADER for mode, flags in MODES.items()),
    *(Case(f"eval-header-at-bound-{name}-{mode}", (*EVAL, *flags), 0, (), Edit(1, path, text))
      for name, path, text in AT_BOUND_HEADER for mode, flags in MODES.items()),
    *(Case(f"eval-pose-{name}", (*EVAL, "--oracle"), 3, (frame_at(5),), Edit(5, path, text))
      for name, path, text in MALFORMED_POSE),
    # a coordinate past geometry.MAX_COORDINATE (1e6 m), which would overflow
    Case("eval-pose-far-t", (*EVAL, "--oracle"), 3,
         (f"{frame_at(5)}: t must be within 1e+06 m per axis",), Edit(5, "poses.r1.t.0", "1e+308")),
    *(Case(f"eval-repeated-frame-id-{mode}", (*EVAL, *MODES[mode]), 3,
           (frame_at(7), "frame_id"), Edit(7, "frame_id", "4"))
      for mode in ("oracle", "box")),
    *(Case(f"eval-frame-id-{name}", (*EVAL, "--noise", "{run}/noise.json"), 3,
           (frame_at(5),), Edit(5, "frame_id", text))
      for name, text in (("negative", "-1"), ("2-63", str(2**63)))),
    *(Case(f"eval-wrong-type-{name}", (*EVAL, "--oracle"), 3, (f"{frame_at(7)}: {key} must be",),
           Edit(7, key, text))
      for name, (key, text) in zip(_key_ids(WRONG_TYPE), WRONG_TYPE)),
    *(Case(f"eval-timestamp-{name}", (*EVAL, "--oracle"), 3, (frame_at(5),),
           Edit(5, "timestamp", text))
      for name, text in (("nan", "NaN"), ("inf", "Infinity"), ("minus-inf", "-Infinity"))),
    Case("eval-negative-timestamp", (*EVAL, "--oracle"), 3,
         (f"{frame_at(4)}: timestamp must be non-negative",), Edit(4, "timestamp", "-5.0")),
    *(Case(f"eval-neighbor-{name}", (*EVAL, "--oracle"), 3, (SEEN,), Edit(SEEING, path, text))
      for name, path, text in (("other-ego", "ego_id", '"r1"'),
                               ("unknown", "neighbors.0.robot_id", '"r7"'),
                               ("ego", "neighbors.0.robot_id", '"r0"'),
                               ("object", "neighbors", "{}"))),
    *(Case(f"eval-not-finite-{name}-{mode}", (*EVAL, *flags), 3, (SEEN, "finite"),
           Edit(SEEING, f"neighbors.0.{field}", text))
      for name, (field, text) in zip(_key_ids(NOT_FINITE), NOT_FINITE)
      for mode, flags in MODES.items()),
    *(Case(f"eval-neighbor-far-{mode}", (*EVAL, *flags), 3,
           (f"{SEEN}: rel_position must be within 1e+06 m per axis",),
           Edit(SEEING, "neighbors.0.rel_position.0", "1e+300"))
      for mode, flags in MODES.items()),
    # a box too large to decode gives no position, and no overflow
    Case("eval-huge-bbox-box", (*EVAL, *MODES["box"]), 0, (),
         Edit(SEEING, "neighbors.0.bbox", "[0.0, 0.0, 1e300, 1e300]")),
    *(Case(f"eval-no-float-{name}-{mode}", (*EVAL, *MODES[mode]), 3,
           (f"{SEEN}: {key} must be",), Edit(SEEING, path, text))
      for name, (key, path, text) in zip(_key_ids(NO_FLOAT), NO_FLOAT)
      for mode in ("oracle", "box")),

    # benchmark
    Case("benchmark-missing-config", ("benchmark", "--config", "{work}/nope.json",
                                      "--out", "{work}/out", "--oracle"), 2, ("cannot read",)),
    Case("benchmark-bad-pitch", (*BENCHMARK, "--pitches", "sideways"), 2, ("--pitches",)),
    *(Case(f"benchmark-list-flag-{name}", (*BENCHMARK, flag, value), 2,
           stderr=f"error: {message}\n")
      for name, flag, value, message in BAD_LIST_FLAG),
    Case("benchmark-negative-seed-flag", (*BENCHMARK, "--seed", "-1"), 2, stderr=SEED_ERROR),
    Case("benchmark-bad-seed-named-before-bad-yaw-rates",
         (*BENCHMARK, "--seed", "-1", "--yaw-rates", "nan"), 2, stderr=SEED_ERROR),
    Case("benchmark-config-tiny-ellipsoid", ("benchmark", "--config", CFG, "--out", "{work}/out",
                                             "--oracle", "--yaw-rates", "2"), 2,
         (f"{CFG}: ellipsoid radii must be at least 1e-06 m",),
         Config({"ellipsoid": [1e-320, 0.1, 0.1]})),
    Case("benchmark-config-yaw-rate", ("benchmark", "--config", CFG, "--out", "{work}/out",
                                       "--oracle", "--yaw-rates", "2"), 2,
         (f"{CFG}: yaw_rate must be non-negative",), Config({"yaw_rate": -1.0})),

    # timesync
    Case("timesync-non-overlapping", ("timesync", "--log-a", "{run}/a.csv",
                                      "--log-b", "{work}/b.csv", "--window", "0.1"), 3, (),
         File("b.csv", gyro_csv(10.0))),
    *(Case(f"timesync-window-{name}", ("timesync", "--log-a", "{run}/a.csv",
                                       "--log-b", "{run}/a.csv", f"--window={window}"), 2,
           ("--window",))
      for name, window in (("nan", "nan"), ("inf", "inf"), ("zero", "0"), ("negative", "-1"))),
    *(Case(f"timesync-{name}", ("timesync", "--log-a", "{run}/a.csv", "--log-b", "{work}/b.csv"),
           3, stderr=f"error: {{work}}/b.csv:{line}: {message}\n",
           input=File("b.csv", "t,gx,gy,gz\n" + rows))
      for name, rows, line, message in BAD_GYRO_ROWS),
    *(Case(f"timesync-offset-grid-{name}",
           ("timesync", "--log-a", "{run}/a.csv", "--log-b", "{work}/b.csv"), 2,
           stderr=f"error: --window: a +/-0.5 s search at {needs} offsets, more than 1000000\n",
           input=File("b.csv", "t,gx,gy,gz\n" + "".join(f"{t},0,0,0\n" for t in times.split(","))))
      for name, times, needs in DENSE_GYRO_LOGS),

    # rerun
    *(Case(f"rerun-{command}-args-{k}", RERUN, code,
           (MANIFEST, named) if code else (),
           File("manifest.json", json.dumps({"command": command,
                                             "args": RECORDED_ARGS[command] | edit})))
      for k, (command, edit, code, named) in enumerate(MALFORMED_ARGS, start=1)),
    *(Case(f"rerun-malformed-manifest-{k}", RERUN, 2, (MANIFEST,), File("manifest.json", text))
      for k, text in enumerate(MALFORMED_MANIFEST, start=1)),

    # paths that are directories, and an --out that is a file
    *(Case(f"directory-{flag[2:]}", argv, 2, ("cannot read '{work}/dir': Is a directory",),
           Dir("dir"))
      for flag, argv in (
          ("--config", ("simulate", "--config", "{work}/dir", "--out", "{work}/out")),
          ("--noise", ("downwash-eval", "--dataset", "{work}/unread.ndjson",
                       "--noise", "{work}/dir", "--out", "{work}/out")),
          ("--manifest", ("rerun", "--manifest", "{work}/dir")))),
    *(Case(f"directory-{flag[2:]}", argv, 2, ("Is a directory: '{work}/dir'",), Dir("dir"))
      for flag, argv in (
          ("--dataset", ("downwash-eval", "--dataset", "{work}/dir", "--oracle",
                         "--out", "{work}/out")),
          ("--log-a", ("timesync", "--log-a", "{work}/dir", "--log-b", "{run}/a.csv")),
          ("--log-b", ("timesync", "--log-a", "{run}/a.csv", "--log-b", "{work}/dir")))),
    *(Case(f"{command}-out-{where}", (*argv, "--out", out), 2, (f"--out '{out}'",),
           File("afile", "kept\n"))
      for command, argv in OUT_COMMANDS.items()
      for where, out in (("a-file", "{work}/afile"), ("under-a-file", "{work}/afile/sub"))),
]


# ---------------------------------------------------------------------------
# Running cases

def in_process(argv: list[str], cwd: Path) -> tuple[int, str]:
    """Exit code and stderr of `spincam.cli.main(argv)` run in `cwd`."""
    from spincam.cli import main

    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, err.getvalue()


def console(command: str):
    """A runner that runs `command` (split as a shell splits it) with the
    case's argv, in `cwd`, as a subprocess."""
    prefix = shlex.split(command)

    def run(argv: list[str], cwd: Path) -> tuple[int, str]:
        done = subprocess.run([*prefix, *argv], cwd=cwd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return done.returncode, done.stderr.decode("utf-8", "replace")

    return run


def build_run(run: Path, runner) -> None:
    """Make the base run in the new directory `run` with `runner`'s
    `simulate`, and write its config, noise config and gyro log."""
    run.mkdir()
    (run / "config.json").write_text(json.dumps(BASE_CONFIG))
    (run / "noise.json").write_text('{"rng_seed": 1}')
    (run / "a.csv").write_text(gyro_csv(0.0))
    code, err = runner(["simulate", "--config", str(run / "config.json"), "--out", str(run)],
                       run)
    if code:
        raise RuntimeError(f"simulate of the base run exited {code}: {err}")
    lines = (run / "dataset.ndjson").read_text(encoding="utf-8").splitlines()
    seeing = next(k for k, line in enumerate(lines[1:], start=2) if json.loads(line)["neighbors"])
    if seeing != SEEING:
        raise RuntimeError(f"the base dataset first sees a neighbor on line {seeing}, "
                           f"not {SEEING}")


def _tree(root: Path) -> dict:
    """Every path under `root`, with a file's bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def one_error_line(err: str) -> bool:
    """Whether stderr `err` is one line that starts `error: `: it ends at its
    only line break, of any kind `str.splitlines` counts."""
    line = err[:-1]
    return err.startswith("error: ") and err.endswith("\n") and line.splitlines() == [line]


def check(case: Case, work: Path, run: Path, runner) -> list[str]:
    """Build `case`'s input in the empty directory `work`, run its argv there
    with `runner` and return how it breaks the contract (none: it passes)."""
    def fill(text: str) -> str:
        return text.replace("{work}", str(work)).replace("{run}", str(run))

    if case.input is not None:
        case.input.build(work, run, fill)
    before = _tree(work)
    code, err = runner([fill(arg) for arg in case.argv], work)
    problems = [f"exit {code}, expected {case.code}"] if code != case.code else []
    problems += [f"stderr lacks {fill(f)!r}" for f in case.fragments if fill(f) not in err]
    if case.stderr is not None and err != fill(case.stderr):
        problems.append(f"stderr is not {fill(case.stderr)!r}")
    if "Traceback" in err:
        problems.append("stderr holds a traceback")
    if case.code == 0 and err:
        problems.append("stderr is not empty")
    if case.code and not one_error_line(err):
        problems.append("the rejection's stderr is not one line starting 'error: '")
    if case.code != 0 and _tree(work) != before:
        problems.append("the command wrote to, or changed, its directory")
    return problems + [f"stderr: {err!r}"] if problems else []


def main(argv=None, cases=CASES) -> int:
    parser = argparse.ArgumentParser(description="Run the command line's rejection cases "
                                                 "through a console command.")
    parser.add_argument("--console", required=True, metavar="COMMAND",
                        help='the command to run, such as spincam or "python3 -m spincam.cli"')
    runner = console(parser.parse_args(argv).console)
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        run = Path(root) / "run"
        build_run(run, runner)
        for case in cases:
            work = Path(root) / case.id
            work.mkdir()
            problems = check(case, work, run, runner)
            shutil.rmtree(work)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {case.id}", *problems, sep="\n    ",
                  flush=True)
    print(f"{len(cases) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
