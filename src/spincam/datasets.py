"""File formats and log ingestion.

Datasets are newline-delimited JSON with an explicit schema version in the
leading header record; gyro logs are plain CSV; reports are CSV rows
between '#' metadata lines. Floats serialize with shortest round-trip decimal
form, so read(write(x)) is exact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .camera import (
    COLUMN_DTYPES,
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    CameraModel,
    FrameRecord,
    RunRecords,
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
    MAX_COORDINATE,
    RobotGeometry,
    first_failure,
    invalid_pose_row,
    is_count,
    is_finite,
    is_numbers,
    require_finite,
    within_reach,
)
from .metrics import ConfusionCounts, classification_metrics
from .perception import NoiseModel
from .scenarios import ScenarioConfig

SCHEMA_VERSION = 1

GYRO_LOG_COLUMNS = ["t", "gx", "gy", "gz"]


# ---------------------------------------------------------------------------
# JSON encoding helpers

def _camera_obj(camera: CameraModel) -> dict:
    return {
        "intrinsics": dataclasses.asdict(camera.intrinsics),
        "extrinsic": {"q": camera.rotation.tolist(), "t": camera.translation.tolist()},
        "pitch_label": camera.pitch_label,
    }


def _camera_from(obj: dict) -> CameraModel:
    extrinsic = obj["extrinsic"]
    if not is_numbers(extrinsic["q"], 4):
        raise ValueError(f"extrinsic q must be 4 finite numbers, got {extrinsic['q']!r}")
    return CameraModel(
        intrinsics=CameraIntrinsics(**obj["intrinsics"]),
        rotation=extrinsic["q"],
        translation=extrinsic["t"],
        pitch_label=obj["pitch_label"],
    )


def _geometry_obj(geom: RobotGeometry) -> dict:
    return {
        "half_extents": [float(v) for v in geom.half_extents],
        "sphere_radius": float(geom.sphere_radius),
    }


def _geometry_from(obj: dict) -> RobotGeometry:
    return RobotGeometry(obj["half_extents"], obj["sphere_radius"])


class _NonFiniteNumber(ValueError):
    pass


def _reject_constant(name: str):
    raise _NonFiniteNumber(name)


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def _non_finite_key(value, where: str = "") -> str | None:
    """Key path (`camera.intrinsics.fx`, `neighbors[0].bbox[2]`) of the first
    non-finite float in a parsed JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where or "value"
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{k}]", item) for k, item in enumerate(value))
    else:
        return None
    return next((found for key, item in items
                 if (found := _non_finite_key(item, key)) is not None), None)


def _loads_finite(text: str):
    """JSON text as Python values. NaN, Infinity and -Infinity are rejected
    with a _NonFiniteNumber naming the key path of the first one; invalid
    JSON raises ValueError."""
    try:
        return _STRICT_JSON.decode(text)
    except _NonFiniteNumber as exc:
        where = _non_finite_key(json.loads(text))
        raise _NonFiniteNumber(f"{where} must be finite, got {exc}") from None


def _line_text(line: bytes, line_no: int, path) -> str:
    """A line of a text file decoded as UTF-8; ParseError names the line if
    it is not UTF-8."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}:{line_no}: not UTF-8 text: byte {exc.start} of the line: "
                         f"{exc.reason}") from None


# ---------------------------------------------------------------------------
# Dataset files

@dataclass(eq=False)
class Dataset:
    camera: CameraModel
    geometry: RobotGeometry
    ellipsoid: EllipsoidSpec
    records: RunRecords

    @cached_property
    def frames(self) -> list[FrameRecord]:
        """Per-frame views of `records`, built on first access."""
        return self.records.frames()


# Frames `write_dataset` formats and writes at a time: the text held at once
# is that of one chunk, not the whole run.
WRITE_FRAMES = 256

_NEIGHBOR_LINE = (', "rel_position": [%s, %s, %s], "center": [%s, %s], '
                  '"bbox": [%s, %s, %s, %s]}')
_POSE_LINE = ': {"time": %s, "q": [%s, %s, %s, %s], "t": [%s, %s, %s]}'


def _json_literal(text: str) -> str:
    """A JSON string for `text`, escaped for a %-format template."""
    return json.dumps(text).replace("%", "%%")


def _reprs(values: np.ndarray) -> list:
    """The `repr` of each float of `values`, as nested lists of its shape.

    `repr` runs once per distinct bit pattern, not once per value: runs
    repeat most of their floats, and keying on the bits keeps -0.0 apart
    from 0.0.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].reshape(values.shape).tolist()


def _frame_chunks(records: RunRecords) -> Iterator[RunRecords]:
    """`records` as runs of at most WRITE_FRAMES consecutive frames."""
    starts = list(range(0, len(records), WRITE_FRAMES))
    bounds = np.searchsorted(records.owner, starts + [len(records)]).tolist()
    for first, lo, hi in zip(starts, bounds, bounds[1:]):
        frames = slice(first, first + WRITE_FRAMES)
        yield RunRecords(
            records.frame_ids[frames], records.timestamps[frames], records.robot_ids,
            records.positions[frames], records.quats[frames], records.owner[lo:hi] - first,
            records.robot[lo:hi], records.rel_positions[lo:hi], records.centers[lo:hi],
            records.bboxes[lo:hi],
        )


def _frame_neighbors(records: RunRecords) -> list[str]:
    """Each frame row's neighbor objects, formatted straight from the columns
    as the inside of the JSON list `json.dumps` gives for them: a dataset
    line's `neighbors`."""
    neighbor_line = ['{"robot_id": ' + _json_literal(rid) + _NEIGHBOR_LINE
                     for rid in records.robot_ids]
    values = np.concatenate([records.rel_positions, records.centers, records.bboxes], axis=1)
    neighbors = [neighbor_line[r] % tuple(row)
                 for r, row in zip(records.robot.tolist(), _reprs(values))]
    bounds = np.searchsorted(records.owner, np.arange(len(records) + 1)).tolist()
    return [", ".join(neighbors[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _frame_lines(records: RunRecords) -> str:
    """The frame lines of a dataset file, formatted straight from the columns
    of a run of one frame or more.

    Each line is what `json.dumps` gives for the frame's record object: keys
    in the same order, `", "` and `": "` separators, floats as their `repr`,
    and the poses keyed by robot id in sorted order, each with its frame's
    timestamp as `time`.
    """
    ids = records.robot_ids
    n_frames, n_robots = len(records), len(ids)
    by_name = sorted(range(n_robots), key=ids.__getitem__)
    line = ('{"record": "frame", "frame_id": %d, "timestamp": %s, "ego_id": '
            + _json_literal(ids[0]) + ', "neighbors": [%s], "poses": {'
            + ", ".join(_json_literal(ids[r]) + _POSE_LINE for r in by_name) + "}}\n")
    times = np.broadcast_to(records.timestamps[:, None, None], (n_frames, n_robots, 1))
    poses = np.concatenate([times, records.quats, records.positions], axis=2)[:, by_name]
    return "".join([
        line % (frame_id, pose[0], neighbors, *pose)  # pose[0]: the timestamp
        for frame_id, neighbors, pose in zip(
            records.frame_ids.tolist(), _frame_neighbors(records),
            _reprs(poses.reshape(n_frames, -1)))
    ])


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset file: the header line, then one line per frame row,
    formatted a chunk of frames at a time and hashed as written; and next to
    it its column sidecar (see `read_dataset`)."""
    import hashlib  # it maps OpenSSL: only runs that write or read a dataset load it

    records = dataset.records
    header = {
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "camera": _camera_obj(dataset.camera),
        "geometry": _geometry_obj(dataset.geometry),
        "ellipsoid": [dataset.ellipsoid.rx, dataset.ellipsoid.ry, dataset.ellipsoid.rz],
        "frame_count": len(records),
    }
    digest = hashlib.sha256()
    frame_lines = map(_frame_lines, _frame_chunks(records))
    with open(path, "wb") as fh:
        for text in chain([json.dumps(header) + "\n"], frame_lines):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    _write_sidecar(records, path, digest.digest())


def _parse_json_line(line: str, line_no: int, path, kind: str) -> dict:
    """The object on one dataset line, which should be a `kind` record."""
    try:
        obj = _loads_finite(line)
    except _NonFiniteNumber as exc:
        raise ParseError(f"{path}:{line_no}: malformed {kind} record: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}:{line_no}: invalid record: {exc}") from exc
    if not isinstance(obj, dict) or "record" not in obj:
        raise ParseError(f"{path}:{line_no}: expected an object with a 'record' field")
    if obj["record"] != kind:
        raise ParseError(f"{path}:{line_no}: expected a {kind} record, got {obj['record']!r}")
    return obj


def _float_rows(path, row_lines, rows: list, shape: tuple, name: str) -> np.ndarray:
    """JSON numbers, each row of the given shape, as a float array
    (N, *shape); ParseError names the line of the first row that is not."""
    try:
        array = np.array(rows, dtype=float)
        # np.array also parses numeric strings and casts bools
        elements = chain.from_iterable(rows) if shape else rows
        if array.shape == (len(rows), *shape) and set(map(type, elements)) <= {float, int}:
            return array
    except (TypeError, ValueError, OverflowError):
        pass
    if not rows:
        return np.zeros((0, *shape))
    row = next((r for r, value in enumerate(rows)
                if not (is_numbers(value, shape[0]) if shape else is_finite(value))), 0)
    what = f"{shape[0]} finite numbers" if shape else "a finite number"
    raise ParseError(f"{path}:{row_lines[row]}: malformed frame record: "
                     f"{name} must be {what}, got {rows[row]!r}")


def _invalid_rows(records: RunRecords, pose_times: np.ndarray) -> tuple[tuple | None, ...]:
    """The first frame row, pose row and neighbor row of `records` that fail
    a value check, each as `first_failure` gives it. Pose row k is robot
    k % R of frame row k // R, and `pose_times[k]` is its time."""
    first_of_id = np.zeros(len(records), dtype=bool)
    first_of_id[np.unique(records.frame_ids, return_index=True)[1]] = True
    rel_positions, bboxes = records.rel_positions, records.bboxes
    neighbor_values = np.concatenate([rel_positions, records.centers, bboxes], axis=1)
    return (
        first_failure({"frame_id must be non-negative": records.frame_ids >= 0,
                       "frame_id repeats an earlier frame's": first_of_id,
                       "timestamp must be non-negative": records.timestamps >= 0.0}),
        invalid_pose_row(pose_times, records.positions.reshape(-1, 3),
                         records.quats.reshape(-1, 4)),
        first_failure({
            "neighbor values must be finite": np.isfinite(neighbor_values).all(axis=1),
            f"rel_position must be within {MAX_COORDINATE:g} m per axis":
                within_reach(rel_positions, axis=1),
            "rel_position depth must be positive": rel_positions[:, 2] > 0.0,
            "bbox corners must be ordered":
                (bboxes[:, 0] <= bboxes[:, 2]) & (bboxes[:, 1] <= bboxes[:, 3]),
        }),
    )


def _announces(header: dict, n_frames: int) -> bool:
    """Whether the header's `frame_count`, if it has one, is `n_frames`."""
    expected = header.get("frame_count")
    return expected is None or (is_count(expected) and expected == n_frames)


def _parse_frames(path, lines: list[bytes], header: dict) -> RunRecords:
    """The columns of the frame lines of a dataset file whose lines are
    `lines`; ParseError names the line of a malformed record."""
    ids, index = (), {}
    frame_lines, frame_ids, timestamps, counts = [], [], [], []
    times, translations, rotations = [], [], []
    robot, rel_positions, centers, bboxes = [], [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        text = _line_text(line, line_no, path)
        if not text.strip():
            continue
        obj = _parse_json_line(text, line_no, path, "frame")
        try:
            ego, poses, neighbors = obj["ego_id"], obj["poses"], obj["neighbors"]
            if not (isinstance(poses, dict) and isinstance(neighbors, list)):
                raise TypeError("poses must be an object and neighbors a list")
            if not ids:
                if ego not in poses:
                    raise ValueError(f"no pose for ego robot {ego!r}")
                ids = (ego, *sorted(rid for rid in poses if rid != ego))
                index = {rid: r for r, rid in enumerate(ids)}
            elif ego != ids[0] or poses.keys() != index.keys():
                raise ValueError(f"robots {sorted(poses)} with ego {ego!r} differ from the "
                                 f"first frame's {sorted(ids)} with ego {ids[0]!r}")
            frame_id, timestamp = obj["frame_id"], obj["timestamp"]
            if not (is_count(frame_id) and frame_id < 2**63):  # it seeds the detector's rng
                raise ValueError(f"frame_id must be an integer in [0, 2**63), got {frame_id!r}")
            require_finite("timestamp", timestamp)
            frame_ids.append(frame_id)
            timestamps.append(timestamp)
            for rid in ids:
                pose = poses[rid]
                times.append(pose["time"])
                translations.append(pose["t"])
                rotations.append(pose["q"])
            for neighbor in neighbors:
                r = index.get(neighbor["robot_id"])
                if not r:  # unknown, or the ego
                    raise ValueError(f"neighbor {neighbor['robot_id']!r} is not one of the "
                                     f"frame's other robots {list(ids[1:])}")
                robot.append(r)
                rel_positions.append(neighbor["rel_position"])
                centers.append(neighbor["center"])
                bboxes.append(neighbor["bbox"])
            counts.append(len(neighbors))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{line_no}: malformed frame record: {exc}") from exc
        frame_lines.append(line_no)
    if not _announces(header, len(frame_lines)):
        raise ParseError(f"{path}: header announces {header['frame_count']} frames but file "
                         f"holds {len(frame_lines)}")
    pose_lines = np.repeat(frame_lines, len(ids))
    pose_times, positions, quats = (
        _float_rows(path, pose_lines, rows, shape, name)
        for rows, shape, name in ((times, (), "time"), (translations, (3,), "t"),
                                  (rotations, (4,), "q")))
    row_lines = np.repeat(frame_lines, counts)
    rel_positions, centers, bboxes = (
        _float_rows(path, row_lines, rows, (width,), name)
        for rows, width, name in ((rel_positions, 3, "rel_position"), (centers, 2, "center"),
                                  (bboxes, 4, "bbox")))
    n_frames = len(frame_lines)
    records = RunRecords(
        frame_ids, timestamps, ids, positions.reshape(n_frames, len(ids), 3),
        quats.reshape(n_frames, len(ids), 4), np.repeat(np.arange(n_frames), counts), robot,
        rel_positions, centers, bboxes,
    )
    for lines_of_rows, failure in zip((frame_lines, pose_lines, row_lines),
                                      _invalid_rows(records, pose_times)):
        if failure is not None:
            raise ParseError(f"{path}:{lines_of_rows[failure[0]]}: malformed frame record: "
                             f"{failure[1]}")
    return records


def read_dataset(path) -> Dataset:
    """Read a dataset file into columns; ParseError names the line of a
    malformed record.

    Every frame must hold the same robots, with the same ego, as the first
    one, and a `frame_id` no earlier frame holds; every value must be
    finite, and every time non-negative. A pose's `time` is checked but not
    kept: it is its frame's timestamp, as `write_dataset` writes it.

    The file's bytes are read once. Its lines are the `bytes.splitlines`
    ones (LF, CRLF or CR ends them, a Unicode line separator does not), each
    decoded as UTF-8 where it is parsed. The header line is always parsed;
    the frames come from the column sidecar if `_read_sidecar` accepts it,
    and otherwise from the text.
    """
    data = Path(path).read_bytes()
    if not data:
        raise ParseError(f"{path}:1: empty dataset file (missing header record)")
    # a sidecar read splits off the header line alone
    end = min((k for k in (data.find(b"\n"), data.find(b"\r")) if k >= 0), default=len(data))
    header = _parse_json_line(_line_text(data[:end], 1, path), 1, path, "header")
    version = header.get("schema_version")
    if not (is_count(version) and version == SCHEMA_VERSION):
        raise VersionMismatch(f"{path}: schema_version {version!r}, supported {SCHEMA_VERSION}")
    records = _read_sidecar(path, header, data)
    if records is None:
        records = _parse_frames(path, data.splitlines(), header)
    try:
        camera = _camera_from(header["camera"])
        geometry = _geometry_from(header["geometry"])
        ellipsoid = EllipsoidSpec.from_radii(header["ellipsoid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}:1: malformed header record: {exc}") from exc
    return Dataset(camera=camera, geometry=geometry, ellipsoid=ellipsoid, records=records)


# ---------------------------------------------------------------------------
# Column sidecars: a cache of a dataset file's RunRecords columns, keyed by
# the sha256 of its bytes

# Every column value takes fewer bytes than its text in the file, so a sidecar
# unpacks to at most its file's length plus this, for the members' npy headers
SIDECAR_SLACK = 4096


def _sidecar_path(path) -> Path | None:
    """The column sidecar of a dataset file: its path with the suffix `.npz`,
    or None when that is the file itself."""
    sidecar = Path(path).with_suffix(".npz")
    return None if sidecar == Path(path) else sidecar


def _write_sidecar(records: RunRecords, path, sha256: bytes) -> None:
    """Write the sidecar of a dataset file: `sha256`, the digest of its bytes,
    and the columns and robot ids its text holds (with no frames, no robots)."""
    sidecar = _sidecar_path(path)
    if sidecar is None:
        return
    ids = records.robot_ids if len(records) else ()
    columns = {name: getattr(records, name) for name in COLUMN_DTYPES}
    columns["positions"] = records.positions.reshape(len(records), len(ids), 3)
    columns["quats"] = records.quats.reshape(len(records), len(ids), 4)
    # a numpy string drops its trailing NULs, so the ids are kept as JSON bytes
    np.savez(sidecar, sha256=np.frombuffer(sha256, dtype=np.uint8),
             robot_ids=np.frombuffer(json.dumps(ids).encode(), dtype=np.uint8), **columns)


def _read_sidecar(path, header: dict, data: bytes) -> RunRecords | None:
    """The columns of a dataset file whose bytes are `data` from its sidecar,
    or None unless the sidecar loads without pickle, its members unpack to
    at most SIDECAR_SLACK bytes more than `data`, it records the sha256 of
    `data`, and it holds columns of the `RunRecords` dtypes that pass every
    check the text parser makes. Sizes and hash are checked before any
    column is loaded."""
    import hashlib  # it maps OpenSSL: only runs that write or read a dataset load it

    sidecar = _sidecar_path(path)
    if sidecar is None or not sidecar.is_file():
        return None
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            if (sum(info.file_size for info in npz.zip.infolist()) > len(data) + SIDECAR_SLACK
                    or npz["sha256"].tobytes() != hashlib.sha256(data).digest()):
                return None
            arrays = {name: npz[name] for name in ("robot_ids", *COLUMN_DTYPES)}
        ids = json.loads(arrays.pop("robot_ids").tobytes())
    except Exception:  # a damaged file fails in zipfile's, numpy's or json's own ways
        return None
    if not (isinstance(ids, list) and all(isinstance(rid, str) for rid in ids)
            and all(arrays[name].dtype == dtype for name, dtype in COLUMN_DTYPES.items())):
        return None
    try:
        records = RunRecords(robot_ids=ids, **arrays)
    except ValueError:  # not the RunRecords layout
        return None
    pose_times = np.repeat(records.timestamps, len(records.robot_ids))
    valid = _announces(header, len(records)) and not any(_invalid_rows(records, pose_times))
    return records if valid else None


# ---------------------------------------------------------------------------
# Gyro logs (CSV), sequences and time-offset estimation

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
    """The samples of a CSV log whose header is `GYRO_LOG_COLUMNS`. ParseError
    or NonFiniteValue names the line of a bad row: one with another field
    count than the header's, a field that is not a finite number or is over
    the csv module's size limit, or a time not after the row before's. No
    field is quoted, so a quote is a field's own character."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != GYRO_LOG_COLUMNS:
                raise ParseError(f"{path}: header row must be '{','.join(GYRO_LOG_COLUMNS)}'")
            for fields in filter(None, reader):  # a blank line holds no row
                where = f"{path}:{reader.line_num}"
                if len(fields) != len(GYRO_LOG_COLUMNS):
                    raise ParseError(f"{where}: expected {len(GYRO_LOG_COLUMNS)} fields, "
                                     f"got {len(fields)}")
                try:
                    values = [float(field) for field in fields]
                except ValueError as exc:
                    raise ParseError(f"{where}: non-numeric field: {exc}") from exc
                if not all(math.isfinite(v) for v in values):
                    raise NonFiniteValue(f"{where}: non-finite value")
                if rows and not values[0] > rows[-1][0]:
                    raise ParseError(f"{where}: timestamps must be strictly increasing, "
                                     f"got {values[0]!r} after {rows[-1][0]!r}")
                rows.append(values)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # the lines a CSV reader counts are the `bytes.splitlines` ones
        for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
            _line_text(line, line_no, path)  # raises at the first line that is not UTF-8
        raise ParseError(f"{path}: not UTF-8 text") from None
    rows = np.reshape(rows, (-1, 4))
    try:
        return GyroSequence(rows[:, 0], rows[:, 1:])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _offset_error(a: GyroSequence, b: GyroSequence, delta: float, min_overlap: float,
                  rates: tuple[np.ndarray, np.ndarray]) -> float:
    """Mean squared rate difference of a(t) vs b(t + delta) over the overlap;
    `rates` holds the rates of a and of b as contiguous (3, N) axis rows."""
    lo = max(a.timestamps[0], b.timestamps[0] - delta)
    hi = min(a.timestamps[-1], b.timestamps[-1] - delta)
    if hi - lo < min_overlap:
        return math.inf
    # timestamps strictly increase, so the overlap is a slice
    start, stop = np.searchsorted(a.timestamps, lo), np.searchsorted(a.timestamps, hi, "right")
    if stop - start < 2:
        return math.inf
    query = a.timestamps[start:stop] + delta
    return sum(float(np.mean((rate_a[start:stop] - np.interp(query, b.timestamps, rate_b)) ** 2))
               for rate_a, rate_b in zip(*rates))


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
    # past `reach` the logs overlap by less than min_overlap: the search stops
    # two steps beyond it, so a wider window finds the same offset
    reach = max(b.timestamps[-1] - a.timestamps[0], a.timestamps[-1] - b.timestamps[0]) \
        - min_overlap
    count = int(math.floor(min(search_window, reach + 2.0 * step) / step + 1e-9))
    deltas = np.arange(-count, count + 1) * step
    rates = np.ascontiguousarray(a.rates.T), np.ascontiguousarray(b.rates.T)
    errors = np.array([_offset_error(a, b, float(d), min_overlap, rates) for d in deltas])
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
    the file cannot be read, is not valid JSON (NaN and Infinity are not), or
    its top level is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _loads_finite(fh.read())
    except OSError as exc:  # missing, a directory, or not readable
        raise InvalidConfig(f"cannot read {str(path)!r}: {exc.strerror}") from exc
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
            scenario_kwargs["ellipsoid"] = EllipsoidSpec.from_radii(raw["ellipsoid"])
        scenario = ScenarioConfig(**scenario_kwargs)

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
        raise InvalidConfig(f"{path}: {exc}") from exc
    return SimulationSpec(scenario=scenario, camera=camera, geometry=geometry)


def load_noise_model(path) -> NoiseModel:
    raw = _load_config(path, _NOISE_KEYS)
    try:
        return NoiseModel(**raw)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
