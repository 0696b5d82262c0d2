"""File formats and log ingestion.

Datasets and label files are newline-delimited JSON with an explicit schema
version in the leading header record; pose and gyro logs are plain CSV;
reports are CSV rows between '#' metadata lines. Floats serialize with
shortest round-trip decimal form, so read(write(x)) is exact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import (
    BoundingBox,
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    CameraModel,
    FrameAnnotation,
    FrameRecord,
    ImagePoint,
    NeighborAnnotation,
    camera_for_pitch,
)
from .downwash import DownwashFrameResult, EllipsoidSpec
from .errors import (
    InsufficientOverlap,
    InvalidConfig,
    NonFiniteValue,
    ParseError,
    VersionMismatch,
)
from .geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    PoseTrack,
    Quaternion,
    RigidTransform,
    RobotGeometry,
    invalid_pose_row,
)
from .metrics import ConfusionCounts, classification_metrics
from .perception import DEFAULT_GRID_COLS, DEFAULT_GRID_ROWS, NoiseModel, encode_grid
from .scenarios import ScenarioConfig

SCHEMA_VERSION = 1

POSE_LOG_COLUMNS = ["robot_id", "t", "x", "y", "z", "qw", "qx", "qy", "qz"]
GYRO_LOG_COLUMNS = ["t", "gx", "gy", "gz"]


# ---------------------------------------------------------------------------
# JSON encoding helpers

def _camera_obj(camera: CameraModel) -> dict:
    extrinsic = camera.extrinsic
    return {
        "intrinsics": dataclasses.asdict(camera.intrinsics),
        "extrinsic": {
            "q": extrinsic.rotation.as_array().tolist(), "t": extrinsic.translation.tolist()
        },
        "pitch_label": camera.pitch_label,
    }


def _camera_from(obj: dict) -> CameraModel:
    extrinsic = obj["extrinsic"]
    return CameraModel(
        intrinsics=CameraIntrinsics(**obj["intrinsics"]),
        extrinsic=RigidTransform(Quaternion(*extrinsic["q"]),
                                 np.array(extrinsic["t"], dtype=float)),
        pitch_label=obj["pitch_label"],
    )


def _geometry_obj(geom: RobotGeometry) -> dict:
    return {
        "half_extents": [float(v) for v in geom.half_extents],
        "sphere_radius": float(geom.sphere_radius),
    }


def _geometry_from(obj: dict) -> RobotGeometry:
    return RobotGeometry(np.array(obj["half_extents"], dtype=float), obj["sphere_radius"])


def _neighbor_obj(n: NeighborAnnotation) -> dict:
    return {
        "robot_id": n.robot_id,
        "rel_position": [float(v) for v in n.rel_position],
        "center": [float(n.center.u), float(n.center.v)],
        "bbox": [float(n.bbox.u_min), float(n.bbox.v_min), float(n.bbox.u_max), float(n.bbox.v_max)],
    }


def _neighbor_from(obj: dict) -> NeighborAnnotation:
    return NeighborAnnotation(
        robot_id=obj["robot_id"],
        rel_position=np.array(obj["rel_position"], dtype=float),
        center=ImagePoint(*obj["center"]),
        bbox=BoundingBox(*obj["bbox"]),
    )


def _annotation_obj(ann: FrameAnnotation) -> dict:
    return {
        "frame_id": ann.frame_id,
        "timestamp": float(ann.timestamp),
        "ego_id": ann.ego_id,
        "neighbors": [_neighbor_obj(n) for n in ann.neighbors],
    }


def _annotation_from(obj: dict) -> FrameAnnotation:
    timestamp = float(obj["timestamp"])
    if not math.isfinite(timestamp):  # frames are ordered by timestamp
        raise ValueError(f"frame timestamp must be finite, got {timestamp}")
    return FrameAnnotation(
        frame_id=int(obj["frame_id"]),
        timestamp=timestamp,
        ego_id=obj["ego_id"],
        neighbors=[_neighbor_from(n) for n in obj["neighbors"]],
    )


# ---------------------------------------------------------------------------
# Dataset files

@dataclass(eq=False)
class Dataset:
    camera: CameraModel
    geometry: RobotGeometry
    ellipsoid: EllipsoidSpec
    frames: list[FrameRecord]


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {
            "record": "header",
            "schema_version": SCHEMA_VERSION,
            "camera": _camera_obj(dataset.camera),
            "geometry": _geometry_obj(dataset.geometry),
            "ellipsoid": [dataset.ellipsoid.rx, dataset.ellipsoid.ry, dataset.ellipsoid.rz],
            "frame_count": len(dataset.frames),
        }
        fh.write(json.dumps(header) + "\n")
        for record in dataset.frames:
            time = float(record.annotation.timestamp)
            ids = record.robot_ids
            quats, positions = record.quats.tolist(), record.positions.tolist()
            obj = {
                "record": "frame",
                **_annotation_obj(record.annotation),
                "poses": {
                    ids[r]: {"time": time, "q": quats[r], "t": positions[r]}
                    for r in sorted(range(len(ids)), key=ids.__getitem__)
                },
            }
            fh.write(json.dumps(obj) + "\n")


def _parse_json_line(line: str, line_no: int, path) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{line_no}: invalid record: {exc}") from exc
    if not isinstance(obj, dict) or "record" not in obj:
        raise ParseError(f"{path}:{line_no}: expected an object with a 'record' field")
    return obj


def _pose_arrays(path, row_lines: list[int], times: list, translations: list,
                 rotations: list) -> list[np.ndarray]:
    """A dataset's frame poses as times (N,), positions (N, 3), quats (N, 4).

    The stacked rows get the `Pose` checks in one pass; only rows that do not
    stack are checked one by one. ParseError names the line (from
    `row_lines`) of the first invalid row.
    """
    if not row_lines:
        return [np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4))]
    try:
        arrays = [np.array(rows, dtype=float) for rows in (times, translations, rotations)]
        bad = invalid_pose_row(*arrays)
    except (TypeError, ValueError):  # some row does not stack: find the first
        for row, fields in enumerate(zip(times, translations, rotations)):
            try:
                bad = invalid_pose_row(*(np.array([field], dtype=float) for field in fields))
            except (TypeError, ValueError) as exc:
                bad = row, f"pose values must be numbers: {exc}"
            if bad is not None:
                bad = row, bad[1]
                break
    if bad is not None:
        raise ParseError(f"{path}:{row_lines[bad[0]]}: malformed frame record: {bad[1]}")
    return arrays


def read_dataset(path) -> Dataset:
    """Read a dataset file; ParseError names the line of a malformed record.

    Each frame's poses are held in `FrameRecord` row order; a pose's `time`
    is its frame's timestamp, as `write_dataset` writes it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty dataset file (missing header record)")
    header = _parse_json_line(lines[0], 1, path)
    if header.get("record") != "header":
        raise ParseError(f"{path}:1: first record must be the dataset header")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(f"{path}: schema_version {version!r}, supported {SCHEMA_VERSION}")
    records: list[tuple[FrameAnnotation, tuple[str, ...]]] = []
    row_lines, times, translations, rotations = [], [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        obj = _parse_json_line(line, line_no, path)
        if obj["record"] != "frame":
            raise ParseError(f"{path}:{line_no}: unexpected record type {obj['record']!r}")
        try:
            annotation = _annotation_from(obj)
            poses, ego = obj["poses"], annotation.ego_id
            if ego not in poses:
                raise ValueError(f"no pose for ego robot {ego!r}")
            ids = (ego, *sorted(rid for rid in poses if rid != ego))
            for rid in ids:
                times.append(poses[rid]["time"])
                translations.append(poses[rid]["t"])
                rotations.append(poses[rid]["q"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{line_no}: malformed frame record: {exc}") from exc
        records.append((annotation, ids))
        row_lines += [line_no] * len(ids)
    expected = header.get("frame_count")
    if expected is not None and expected != len(records):
        raise ParseError(
            f"{path}: header announces {expected} frames but file holds {len(records)}"
        )
    _times, positions, quats = _pose_arrays(path, row_lines, times, translations, rotations)
    try:
        camera = _camera_from(header["camera"])
        geometry = _geometry_from(header["geometry"])
        ellipsoid = EllipsoidSpec(*header["ellipsoid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}:1: malformed header record: {exc}") from exc
    bounds = np.cumsum([len(ids) for _annotation, ids in records])[:-1]
    frames = [
        FrameRecord(annotation, ids, frame_positions, frame_quats)
        for (annotation, ids), frame_positions, frame_quats
        in zip(records, np.split(positions, bounds), np.split(quats, bounds))
    ]
    return Dataset(camera=camera, geometry=geometry, ellipsoid=ellipsoid, frames=frames)


# ---------------------------------------------------------------------------
# Label export

def export_labels(
    annotations: Sequence[FrameAnnotation],
    mode: str,
    path,
    intr: CameraIntrinsics | None = None,
) -> None:
    """Per-frame training labels: box centers or sparse grid targets."""
    if mode not in ("bbox", "grid"):
        raise ValueError(f"unknown label mode {mode!r}")
    if mode == "grid" and intr is None:
        raise ValueError("grid labels need camera intrinsics for the stride mapping")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {"record": "header", "schema_version": SCHEMA_VERSION, "mode": mode}
        if mode == "grid":
            header["rows"] = DEFAULT_GRID_ROWS
            header["cols"] = DEFAULT_GRID_COLS
        fh.write(json.dumps(header) + "\n")
        for ann in annotations:
            if mode == "bbox":
                obj = {
                    "record": "labels",
                    "frame_id": ann.frame_id,
                    "labels": [_neighbor_obj(n) for n in ann.neighbors],
                }
            else:
                gmap = encode_grid(ann, intr)
                occupied = np.argwhere(gmap.confidence > 0.0)
                obj = {
                    "record": "labels",
                    "frame_id": ann.frame_id,
                    "cells": [
                        [int(r), int(c), float(gmap.confidence[r, c]), float(gmap.depth[r, c])]
                        for r, c in occupied
                    ],
                }
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Pose logs (CSV)

def ingest_pose_log(path) -> list[PoseTrack]:
    """Read a motion-capture style CSV into per-robot pose tracks."""
    rows_by_robot: dict[str, list[tuple[float, list[float], Quaternion]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != POSE_LOG_COLUMNS:
            raise ParseError(
                f"{path}: header row must be '{','.join(POSE_LOG_COLUMNS)}'"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                values = [float(row[c]) for c in POSE_LOG_COLUMNS[1:]]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{line_no}: non-numeric field: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise NonFiniteValue(f"{path}:{line_no}: non-finite value")
            t, x, y, z, qw, qx, qy, qz = values
            norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            if norm < 1e-6:
                raise NonFiniteValue(f"{path}:{line_no}: quaternion norm is zero")
            if abs(norm - 1.0) > 1e-3:
                warnings.warn(
                    f"{path}:{line_no}: quaternion norm {norm:.6f} deviates from 1; normalizing",
                    stacklevel=2,
                )
            q = Quaternion(qw, qx, qy, qz).normalized()
            rows_by_robot.setdefault(row["robot_id"], []).append((t, [x, y, z], q))
    tracks = []
    for robot_id in sorted(rows_by_robot):
        entries = sorted(rows_by_robot[robot_id], key=lambda e: e[0])
        times = [e[0] for e in entries]
        if len(set(times)) != len(times):
            raise ParseError(f"{path}: robot {robot_id!r} has duplicate timestamps")
        try:
            tracks.append(PoseTrack(
                robot_id,
                np.array(times),
                np.array([p for _t, p, _q in entries]),
                np.array([q.as_array() for _t, _p, q in entries]),
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return tracks


def write_pose_log(tracks: Sequence[PoseTrack], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(POSE_LOG_COLUMNS) + "\n")
        for track in tracks:
            rows = np.column_stack([track.times, track.positions, track.quats]).tolist()
            for row in rows:
                fh.write(",".join([track.robot_id] + [repr(v) for v in row]) + "\n")


# ---------------------------------------------------------------------------
# Gyro sequences and time-offset estimation

@dataclass(eq=False)
class GyroSequence:
    """Timestamped body angular-rate samples from one robot."""

    timestamps: np.ndarray
    rates: np.ndarray  # (N, 3) rad/s

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.timestamps.ndim != 1 or self.rates.shape != (len(self.timestamps), 3):
            raise ValueError("rates must be (N, 3) matching N timestamps")
        if len(self.timestamps) < 2 or not np.all(np.diff(self.timestamps) > 0.0):
            raise ValueError("timestamps must be strictly increasing with >= 2 samples")

    @property
    def span(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


def read_gyro_log(path) -> GyroSequence:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != GYRO_LOG_COLUMNS:
            raise ParseError(f"{path}: header row must be '{','.join(GYRO_LOG_COLUMNS)}'")
        times, rates = [], []
        for line_no, row in enumerate(reader, start=2):
            try:
                values = [float(row[c]) for c in GYRO_LOG_COLUMNS]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{line_no}: non-numeric field: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise NonFiniteValue(f"{path}:{line_no}: non-finite value")
            times.append(values[0])
            rates.append(values[1:])
    try:
        return GyroSequence(np.array(times), np.array(rates))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_gyro_log(seq: GyroSequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(GYRO_LOG_COLUMNS) + "\n")
        for t, (gx, gy, gz) in zip(seq.timestamps, seq.rates):
            fh.write(",".join(repr(float(v)) for v in (t, gx, gy, gz)) + "\n")


def _offset_error(a: GyroSequence, b: GyroSequence, delta: float, min_overlap: float) -> float:
    """Mean squared rate difference of a(t) vs b(t + delta) over the overlap."""
    lo = max(a.timestamps[0], b.timestamps[0] - delta)
    hi = min(a.timestamps[-1], b.timestamps[-1] - delta)
    if hi - lo < min_overlap:
        return math.inf
    mask = (a.timestamps >= lo) & (a.timestamps <= hi)
    if mask.sum() < 2:
        return math.inf
    query = a.timestamps[mask] + delta
    total = 0.0
    for axis in range(3):
        resampled = np.interp(query, b.timestamps, b.rates[:, axis])
        total += float(np.mean((a.rates[mask, axis] - resampled) ** 2))
    return total


def estimate_time_offset(a: GyroSequence, b: GyroSequence, search_window: float) -> float:
    """Offset delta minimizing the squared error between a(t) and b(t + delta).

    The discrete minimum over a sample-period grid is refined by parabolic
    interpolation, giving sub-sample resolution on smooth signals.
    """
    step = min(
        float(np.median(np.diff(a.timestamps))),
        float(np.median(np.diff(b.timestamps))),
    )
    min_overlap = 0.5 * min(a.span, b.span)
    count = int(math.floor(search_window / step + 1e-9))
    deltas = np.arange(-count, count + 1) * step
    errors = np.array([_offset_error(a, b, float(d), min_overlap) for d in deltas])
    if not np.any(np.isfinite(errors)):
        raise InsufficientOverlap(
            f"sequences overlap less than half their span within +/-{search_window} s"
        )
    best = int(np.nanargmin(np.where(np.isfinite(errors), errors, np.nan)))
    delta = float(deltas[best])
    if 0 < best < len(deltas) - 1:
        e_lo, e_mid, e_hi = errors[best - 1], errors[best], errors[best + 1]
        denom = e_lo - 2.0 * e_mid + e_hi
        if math.isfinite(e_lo) and math.isfinite(e_hi) and denom > 0.0:
            delta += 0.5 * step * (e_lo - e_hi) / denom
    return delta


# ---------------------------------------------------------------------------
# Reports

def write_report(path, results: Sequence[DownwashFrameResult]) -> ConfusionCounts:
    """Write per-frame rows plus a precision/recall/F1 footer; returns counts."""
    counts = ConfusionCounts.from_pairs((r.gt_downwash, r.pred_downwash) for r in results)
    precision, recall, f1 = classification_metrics(counts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# spincam downwash report schema_version={SCHEMA_VERSION}\n")
        fh.write("frame_id,gt_downwash,pred_downwash\n")
        for r in results:
            fh.write(f"{r.frame_id},{int(r.gt_downwash)},{int(r.pred_downwash)}\n")
        fh.write(
            f"# precision={precision:.4f} recall={recall:.4f} f1={f1:.4f}"
            f" tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}\n"
        )
    return counts


def read_report(path) -> tuple[list[DownwashFrameResult], dict[str, float]]:
    results = []
    summary: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    try:
                        summary[key] = float(value)
                    except ValueError:
                        pass
            continue
        if line.startswith("frame_id"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{line_no}: expected 'frame_id,gt,pred' row")
        try:
            results.append(
                DownwashFrameResult(int(parts[0]), bool(int(parts[1])), bool(int(parts[2])))
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    return results, summary


# ---------------------------------------------------------------------------
# Run configuration files

@dataclass(eq=False)
class SimulationSpec:
    """Everything a simulate run needs: scenario, camera, robot geometry."""

    scenario: ScenarioConfig
    camera: CameraModel
    geometry: RobotGeometry


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_SCENARIO_KEYS = _field_names(ScenarioConfig) - {"ellipsoid"}
_INTRINSICS_KEYS = _field_names(CameraIntrinsics)
_GEOMETRY_KEYS = _field_names(RobotGeometry)
_NOISE_KEYS = _field_names(NoiseModel)


def _load_json_object(path) -> dict:
    """The top-level object of a JSON file; InvalidConfig names the path when
    the file is not valid JSON or its top level is not an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise InvalidConfig(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: top level must be a JSON object")
    return raw


def _load_config(path, known: set[str]) -> dict:
    """A config object whose keys are all known, with JSON lists as tuples."""
    raw = _load_json_object(path)
    unknown = set(raw) - known
    if unknown:
        raise InvalidConfig(f"{path}: unknown keys {sorted(unknown)}")
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in raw.items()}


def load_simulation_config(path) -> SimulationSpec:
    """Parse the flat key-value run configuration (JSON object)."""
    raw = _load_config(path, _SCENARIO_KEYS | _INTRINSICS_KEYS | _GEOMETRY_KEYS
                       | {"camera_translation", "ellipsoid"})
    try:
        scenario_kwargs = {key: raw[key] for key in _SCENARIO_KEYS & set(raw)}
        if "ellipsoid" in raw:
            scenario_kwargs["ellipsoid"] = EllipsoidSpec(*raw["ellipsoid"])
        scenario = ScenarioConfig(**scenario_kwargs)
        scenario.validate()

        intrinsics = dataclasses.replace(
            DEFAULT_INTRINSICS, **{key: raw[key] for key in _INTRINSICS_KEYS & set(raw)}
        )
        camera = camera_for_pitch(
            scenario.camera_pitch, intrinsics, raw.get("camera_translation", (0.0, 0.0, 0.0))
        )
        geometry = dataclasses.replace(
            DEFAULT_ROBOT_GEOMETRY, **{key: raw[key] for key in _GEOMETRY_KEYS & set(raw)}
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidConfig):
            raise
        raise InvalidConfig(f"{path}: {exc}") from exc
    return SimulationSpec(scenario=scenario, camera=camera, geometry=geometry)


def load_noise_model(path) -> NoiseModel:
    raw = _load_config(path, _NOISE_KEYS)
    try:
        return NoiseModel(**raw)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
