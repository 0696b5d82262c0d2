"""Command-line entry point: each command is declared once, in `_COMMANDS`.

Exit codes: 0 success, 2 usage or configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import namedtuple
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .camera import annotate_poses, camera_for_pitch
from .datasets import (
    Dataset,
    SCHEMA_VERSION,
    _load_json_object,
    estimate_time_offset,
    load_noise_model,
    load_simulation_config,
    read_dataset,
    read_gyro_log,
    write_dataset,
    write_report,
)
from .downwash import Cell, EllipsoidSpec, evaluate_cells, evaluate_downwash_records
from .errors import InvalidConfig, SpincamError
from .metrics import ConfusionCounts, classification_metrics
from .scenarios import frame_poses, frame_schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _write_manifest(out_dir: Path, command: str, args, outputs: list[str]) -> None:
    """Record the run before producing outputs; enough to replay it exactly.
    An `out_dir` that is, or lies under, a file is a usage error, and nothing
    is written."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "args": {key: getattr(args, key) for key in _COMMANDS[command].flags},
        "outputs": outputs,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        # a file where the output directory or one of its parents should be
        raise InvalidConfig(f"--out {str(out_dir)!r}: {exc.strerror}; "
                            f"the output path must be a directory") from exc
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _frame_poses(scenarios, config):
    """`frame_poses` of the scenarios, one flight; InvalidConfig names the config file."""
    try:
        return frame_poses(scenarios)
    except InvalidConfig as exc:  # such as an arena with no room for the waypoints
        raise InvalidConfig(f"{config}: {exc}") from exc


def _seeded(scenario, seed):
    """The scenario, with rng_seed `seed` unless it is None; InvalidConfig names --seed."""
    try:
        return scenario if seed is None else replace(scenario, rng_seed=seed)
    except InvalidConfig as exc:
        raise InvalidConfig(f"--seed {seed}: {exc}") from exc


def _simulate(args) -> int:
    spec = load_simulation_config(args.config)
    scenario = _seeded(spec.scenario, args.seed)
    ids, positions, quats = next(_frame_poses([scenario], args.config))
    times, camera = frame_schedule(scenario), spec.camera
    records = annotate_poses(np.arange(len(times)), times, ids, positions, quats,
                             camera.rotation, camera.translation, camera.intrinsics,
                             spec.geometry)
    dataset = Dataset(
        camera=spec.camera,
        geometry=spec.geometry,
        ellipsoid=scenario.ellipsoid,
        records=records,
    )
    out_dir = Path(args.out)
    _write_manifest(out_dir, "simulate", args, ["dataset.ndjson", "dataset.npz"])
    dataset_path = out_dir / "dataset.ndjson"
    write_dataset(dataset, dataset_path)
    print(f"wrote {dataset_path} ({len(records)} frames, {len(ids)} robots)")
    return EXIT_OK


def _parse_ellipsoid(text: str) -> EllipsoidSpec:
    try:
        return EllipsoidSpec.from_radii([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise InvalidConfig(f"--ellipsoid: {exc}") from exc


def _eval_mode(args) -> tuple[str, object]:
    if args.oracle:
        return "oracle", None
    if args.noise is None:
        raise InvalidConfig("either --oracle or --noise <path> is required")
    return args.mode, load_noise_model(args.noise)


def _downwash_eval(args) -> int:
    mode, noise = _eval_mode(args)
    override = None if args.ellipsoid is None else _parse_ellipsoid(args.ellipsoid)
    dataset = read_dataset(args.dataset)
    out_dir = Path(args.out)
    _write_manifest(out_dir, "downwash-eval", args, ["report.csv"])
    ellipsoid = dataset.ellipsoid if override is None else override
    frame_ids, gt, pred = evaluate_downwash_records(
        dataset.records, dataset.camera, ellipsoid,
        mode=mode, noise=noise, geom=dataset.geometry,
    )
    report_path = out_dir / "report.csv"
    counts = write_report(report_path, frame_ids, gt, pred)
    precision, recall, f1 = classification_metrics(counts)
    print(
        f"frames={len(frame_ids)} tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn} "
        f"precision={precision:.4f} recall={recall:.4f} f1={f1:.4f}"
    )
    print(f"wrote {report_path}")
    return EXIT_OK


def _flag_values(flag: str, text: str, parse) -> list:
    """The comma-separated values of a list flag, each through `parse`;
    InvalidConfig names the flag and the value that `parse` rejects, or the
    flag's text when it lists no value."""
    values = []
    for item in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(parse(item))
        except ValueError as exc:  # InvalidConfig is one
            raise InvalidConfig(f"{flag} {item}: {exc}") from exc
    if not values:
        raise InvalidConfig(f"{flag} {text!r}: lists no value")
    return values


def _benchmark(args) -> int:
    mode, noise = _eval_mode(args)
    spec = load_simulation_config(args.config)
    base = _seeded(spec.scenario, args.seed)
    scenarios = _flag_values("--yaw-rates", args.yaw_rates,
                             lambda text: replace(base, yaw_rate=float(text)))
    cameras = _flag_values("--pitches", args.pitches, partial(
        camera_for_pitch, intrinsics=spec.camera.intrinsics, translation=spec.camera.translation))

    times, sweep = frame_schedule(base), _frame_poses(scenarios, args.config)

    def cells():
        # neither the camera pitch nor the yaw rate moves a robot: one flight per
        # sweep, whose spinning robots each yaw rate re-spins
        for poses in sweep:
            yield from (Cell(camera, times, *poses) for camera in cameras)

    results = evaluate_cells(cells(), base.ellipsoid, spec.geometry, mode, noise)
    rows = []
    for (scenario, camera), (gt, pred) in zip(itertools.product(scenarios, cameras), results):
        counts = ConfusionCounts.from_columns(gt, pred)
        precision, recall, f1 = classification_metrics(counts)
        rows.append((scenario.yaw_rate, camera.pitch_label, f1, precision, recall, counts))

    out_dir = Path(args.out)
    _write_manifest(out_dir, "benchmark", args, ["benchmark.csv"])
    bench_path = out_dir / "benchmark.csv"
    with open(bench_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("yaw_rate,camera_pitch,f1,precision,recall,tp,fp,fn,tn\n")
        for rate, pitch, f1, precision, recall, c in rows:
            fh.write(
                f"{rate},{pitch},{f1:.4f},{precision:.4f},{recall:.4f},"
                f"{c.tp},{c.fp},{c.fn},{c.tn}\n"
            )
    print(f"{'yaw_rate':>8} {'pitch':>8} {'f1':>6} {'prec':>6} {'recall':>6}")
    for rate, pitch, f1, precision, recall, _ in rows:
        print(f"{rate:>8g} {pitch:>8} {f1:>6.2f} {precision:>6.2f} {recall:>6.2f}")
    print(f"wrote {bench_path}")
    return EXIT_OK


def _timesync(args) -> int:
    if not (math.isfinite(args.window) and args.window > 0.0):
        raise InvalidConfig(f"--window must be a finite positive number of seconds, "
                            f"got {args.window}")
    a = read_gyro_log(args.log_a)
    b = read_gyro_log(args.log_b)
    try:
        offset = estimate_time_offset(a, b, args.window)
    except InvalidConfig as exc:
        raise InvalidConfig(f"--window: {exc}") from exc
    print(f"offset={offset:.6f}")
    return EXIT_OK


def _manifest_argv(path: str) -> list[str]:
    """The command line a manifest records, its args turned back into flags;
    InvalidConfig names the path."""
    manifest = _load_json_object(path)
    for key in ("command", "args"):
        if key not in manifest:
            raise InvalidConfig(f"{path}: manifest lacks {key!r}")
    command, stored = manifest["command"], manifest["args"]
    spec = _COMMANDS.get(command) if isinstance(command, str) else None
    if spec is None or not spec.replayable:
        raise InvalidConfig(f"{path}: manifest command {command!r} cannot be re-run")
    if not isinstance(stored, dict):
        raise InvalidConfig(f"{path}: manifest 'args' must be an object")
    missing, unknown = set(spec.flags) - set(stored), set(stored) - set(spec.flags)
    if missing:
        raise InvalidConfig(f"{path}: manifest args lack {sorted(missing)}")
    if unknown:
        raise InvalidConfig(f"{path}: manifest args hold unknown keys {sorted(unknown)}")
    argv = [command]
    for key in spec.flags:
        # a switch records true or false, an option its value or null when unset;
        # no command-line argument holds a NUL character
        value, flag = stored[key], "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if not isinstance(value, (str, int, float)) or "\0" in str(value):
            raise InvalidConfig(f"{path}: manifest arg {key!r} must be a string without NUL, "
                                f"a number, true, false or null, got {value!r}")
        argv.append(flag if value is True else f"{flag}={value}")
    return argv


def _rerun(args) -> int:
    """Replay a manifest's command line through `_run`, which checks each recorded arg
    as it checks a typed flag; a rejection is raised again, naming the manifest."""
    try:
        return _run(_manifest_argv(args.manifest))
    except (SpincamError, OSError) as exc:
        code = _exit_code(exc)
        raise (InvalidConfig if code == EXIT_CONFIG else SpincamError)(
            f"{args.manifest}: the recorded run exited {code}: {exc}") from exc


# Each command's handler, its help, whether `rerun` may replay its manifest, and
# its flags: each dest's `add_argument` keywords, in the order a manifest records.
Command = namedtuple("Command", "handler help replayable flags")
_COMMANDS = {
    "simulate": Command(_simulate, "generate an annotated scenario dataset", True, {
        "config": dict(required=True, help="scenario config (JSON)"),
        "out": dict(required=True, help="output directory"),
        "seed": dict(type=int, default=None, help="override the config rng seed")}),
    "downwash-eval": Command(_downwash_eval, "belief-set downwash prediction report", True, {
        "dataset": dict(required=True, help="dataset file from simulate"),
        "out": dict(required=True, help="output directory"),
        "oracle": dict(action="store_true", help="perfect perception"),
        "noise": dict(default=None, help="noise model config (JSON)"),
        "mode": dict(choices=("box", "grid"), default="box",
                     help="detector style when using --noise"),
        "ellipsoid": dict(default=None, metavar="RX,RY,RZ",
                          help="override the dataset safety ellipsoid")}),
    "benchmark": Command(_benchmark, "sweep yaw rates x camera pitches", True, {
        "config": dict(required=True, help="base scenario config (JSON)"),
        "out": dict(required=True, help="output directory"),
        "yaw_rates": dict(default="2,4,6,8"),
        "pitches": dict(default="forward,tilt45,up"),
        "oracle": dict(action="store_true", help="perfect perception"),
        "noise": dict(default=None, help="noise model config (JSON)"),
        "mode": dict(choices=("box", "grid"), default="box"),
        "seed": dict(type=int, default=None)}),
    "timesync": Command(_timesync, "estimate temporal offset of two gyro logs", False, {
        "log_a": dict(required=True),
        "log_b": dict(required=True),
        "window": dict(type=float, default=0.5, help="search window, seconds")}),
    "rerun": Command(_rerun, "replay a run from its manifest", False, {
        "manifest": dict(required=True)}),
}


class _Parser(argparse.ArgumentParser):
    """A usage error raises InvalidConfig naming the command; subparsers share the class."""

    def error(self, message):
        raise InvalidConfig(f"{self.prog}: {message}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line of `_COMMANDS`, built on first use and kept for the process."""
    parser = _Parser(prog="spincam", allow_abbrev=False,
                     description="Spinning-camera multi-robot localization toolkit")
    parser.add_argument("--version", action="version", version=f"spincam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key, keywords in command.flags.items():
            p.add_argument("--" + key.replace("_", "-"), **keywords)
    return parser


def _run(argv) -> int:
    """Run one command line; a rejection raises."""
    args, extra = _parser().parse_known_args(argv)
    if extra:  # what the command's parser left: name the command, not spincam
        raise InvalidConfig(f"spincam {args.command}: unrecognized arguments: {' '.join(extra)}")
    return _COMMANDS[args.command].handler(args)


def _exit_code(exc: Exception) -> int:
    """The exit code of a rejection: a usage or configuration error, or a data error."""
    config_errors = (InvalidConfig, FileNotFoundError, IsADirectoryError)
    return EXIT_CONFIG if isinstance(exc, config_errors) else EXIT_DATA


def main(argv=None) -> int:
    """Run one command line and return its exit code; a rejection prints one `error:` line."""
    try:
        return _run(argv)
    except (SpincamError, OSError) as exc:
        breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # those str.splitlines counts
        message = str(exc).translate({ord(c): repr(c)[1:-1] for c in breaks})
        print(f"error: {message}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
