"""File format round trips, log ingestion, and time-offset estimation."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gyro_logs import write_gyro_log
from reports import read_report
from run_columns import IDENTITY, run_records, simulated

from spincam import datasets
from spincam.camera import COLUMN_DTYPES, RunRecords, camera_for_pitch
from spincam.datasets import (
    Dataset,
    GyroSequence,
    estimate_time_offset,
    load_noise_model,
    load_simulation_config,
    read_dataset,
    read_gyro_log,
    write_dataset,
    write_report,
)
from spincam.downwash import EllipsoidSpec
from spincam.errors import (
    InsufficientOverlap,
    InvalidConfig,
    NonFiniteValue,
    ParseError,
    VersionMismatch,
)
from spincam.geometry import DEFAULT_ROBOT_GEOMETRY, MAX_COORDINATE
from spincam.scenarios import ScenarioConfig

# The RunRecords columns, every field but the robot ids, and the neighbor-row ones.
COLUMNS = [field.name for field in dataclasses.fields(RunRecords) if field.name != "robot_ids"]
NEIGHBOR_COLUMNS = ("owner", "robot", "rel_positions", "centers", "bboxes")


def random_pose(rng) -> tuple[np.ndarray, np.ndarray]:
    """A random position and unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return rng.uniform(-2, 2, 3), q


def random_dataset(rng, n_frames: int) -> Dataset:
    frames = []
    for k in range(n_frames):
        rows = []
        for j in range(int(rng.integers(0, 3))):
            u_lo, u_hi = np.sort(rng.uniform(0.0, 320.0, 2))
            v_lo, v_hi = np.sort(rng.uniform(0.0, 320.0, 2))
            # neighbor row (robot, rel_position, center, bbox) of robot r{j + 1}
            rows.append((j + 1, rng.uniform((-1, -1, 0.5), (1, 1, 3.0)),
                         rng.uniform(1.0, 319.0, 2), [u_lo, v_lo, u_hi, v_hi]))
        positions, quats = zip(*[random_pose(rng) for _ in range(3)])
        frames.append((k, float(k) / 6.0, positions, quats, rows))
    return Dataset(
        camera=camera_for_pitch("tilt45"),
        geometry=DEFAULT_ROBOT_GEOMETRY,
        ellipsoid=EllipsoidSpec(0.15, 0.15, 0.3),
        records=run_records(("r0", "r1", "r2"), frames),
    )


def assert_datasets_equal(a: Dataset, b: Dataset) -> None:
    assert a.camera.pitch_label == b.camera.pitch_label
    assert a.camera.intrinsics == b.camera.intrinsics
    assert a.camera.rotation.tolist() == b.camera.rotation.tolist()
    assert a.ellipsoid == b.ellipsoid
    assert a.geometry.half_extents.tolist() == b.geometry.half_extents.tolist()
    assert a.geometry.sphere_radius == b.geometry.sphere_radius
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.annotation.frame_id == fb.annotation.frame_id
        assert fa.annotation.timestamp == fb.annotation.timestamp
        assert fa.annotation.ego_id == fb.annotation.ego_id
        assert len(fa.annotation.neighbors) == len(fb.annotation.neighbors)
        for na, nb in zip(fa.annotation.neighbors, fb.annotation.neighbors):
            assert na.robot_id == nb.robot_id
            assert na.rel_position.tolist() == nb.rel_position.tolist()
            assert na.center.tolist() == nb.center.tolist()
            assert na.bbox.tolist() == nb.bbox.tolist()
        assert fa.robot_ids == fb.robot_ids
        assert fa.positions.tolist() == fb.positions.tolist()
        assert fa.quats.tolist() == fb.quats.tolist()


@pytest.fixture
def text_reads(monkeypatch) -> list:
    """Records each parse of a dataset's frame lines: a read that used the
    column sidecar records nothing."""
    calls = []
    parse = datasets._parse_frames

    def spy(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(datasets, "_parse_frames", spy)
    return calls


def sidecar_of(path):
    return path.with_suffix(".npz")


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
    def test_empty_dataset(self, tmp_path, text_reads, sidecar):
        dataset = random_dataset(np.random.default_rng(0), 0)
        path = tmp_path / "empty.ndjson"
        write_dataset(dataset, path)
        if not sidecar:
            sidecar_of(path).unlink()
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == ([] if sidecar else [path])

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
    def test_random_frames_round_trip_exactly(self, tmp_path, text_reads, sidecar):
        dataset = random_dataset(np.random.default_rng(1), 100)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        if not sidecar:
            sidecar_of(path).unlink()
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == ([] if sidecar else [path])

    def test_truncated_record_names_line(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(2), 5)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        content = path.read_text()
        lines = content.splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]  # cut a frame record mid-json
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":4"):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(3), 1)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatch):
            read_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"record": "frame"}\n')
        with pytest.raises(ParseError):
            read_dataset(path)

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
    @pytest.mark.parametrize("line_no", [1, 6])
    def test_non_utf8_byte_names_its_line(self, tmp_path, sidecar, line_no):
        path = tmp_path / "data.ndjson"
        write_dataset(random_dataset(np.random.default_rng(2), 8), path)
        if not sidecar:
            sidecar_of(path).unlink()
        lines = path.read_bytes().split(b"\n")
        lines[line_no - 1] = lines[line_no - 1].replace(b'"record"', b'"rec\xffrd"', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line_no}: not UTF-8")):
            read_dataset(path)

    def test_frame_count_mismatch(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(4), 3)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last frame
        with pytest.raises(ParseError, match="announces"):
            read_dataset(path)


def simulated_dataset(tmp_path, kind: str, pitch: str, k1: float, duration: float = 20.0):
    """A simulated flight at rng_seed 7, 20 s unless `duration` is given,
    written as a dataset file."""
    config = tmp_path / "flight.json"
    config.write_text(json.dumps({"kind": kind, "num_robots": 2 if kind == "swap" else 4,
                                  "duration": duration, "camera_pitch": pitch, "k1": k1,
                                  "rng_seed": 7}))
    spec = load_simulation_config(config)
    records = simulated(spec.scenario, spec.camera, spec.geometry)
    path = tmp_path / "dataset.ndjson"
    write_dataset(Dataset(spec.camera, spec.geometry, spec.scenario.ellipsoid, records), path)
    return path


def assert_columns_bitwise_equal(a: RunRecords, b: RunRecords) -> None:
    assert a.robot_ids == b.robot_ids
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def nul_id_dataset(tmp_path):
    """Robot ids that end in NUL characters, which a numpy string drops."""
    dataset = random_dataset(np.random.default_rng(9), 12)
    dataset.records.robot_ids = ("r0\x00", "r1\x00\x00", "r2")
    path = tmp_path / "nul.ndjson"
    write_dataset(dataset, path)
    return path


def header_only_dataset(tmp_path):
    path = tmp_path / "empty.ndjson"
    write_dataset(random_dataset(np.random.default_rng(0), 0), path)
    return path


# Datasets written by `write_dataset`, each made by a function of tmp_path.
written_datasets = pytest.mark.parametrize("make", [
    lambda tmp_path: simulated_dataset(tmp_path, "swap", "up", 0.0),
    lambda tmp_path: simulated_dataset(tmp_path, "hover_orbit", "tilt45", -0.08),
    lambda tmp_path: simulated_dataset(tmp_path, "random_waypoint", "forward", 0.05),
    header_only_dataset,
    nul_id_dataset,
], ids=["swap-up", "orbit-tilt45-barrel", "waypoint-forward", "header-only", "nul-ids"])


class TestColumnSidecar:
    """`write_dataset` writes `<name>.npz` next to the file; `read_dataset`
    takes the columns from it only when it records the file's sha256 and its
    columns pass the text parser's checks."""

    @written_datasets
    def test_recorded_sha256_is_that_of_the_file_bytes(self, tmp_path, make):
        path = make(tmp_path)
        with np.load(sidecar_of(path)) as npz:
            assert npz["sha256"].tobytes() == hashlib.sha256(path.read_bytes()).digest()

    @written_datasets
    def test_sidecar_columns_equal_the_text_columns_bitwise(self, tmp_path, text_reads, make):
        path = make(tmp_path)
        from_sidecar = read_dataset(path)
        assert text_reads == []
        sidecar_of(path).unlink()
        from_text = read_dataset(path)
        assert text_reads == [path]
        assert_columns_bitwise_equal(from_sidecar.records, from_text.records)
        assert from_sidecar.camera.intrinsics == from_text.camera.intrinsics

    @pytest.mark.parametrize("scale", [2.0, 1e200], ids=["non-unit", "huge"])
    def test_bad_pose_row_fails_the_sidecar_and_the_text_parse(self, tmp_path, text_reads,
                                                               scale):
        """A written file and sidecar whose pose rows 3 x 3 + 2 and 5 x 3 + 1
        (robot r2 of frame 3, r1 of frame 5) hold non-unit quaternions: the
        sidecar's checks refuse it, and the text parse names the earlier row's
        line, as the per-row masks locate it."""
        dataset = random_dataset(np.random.default_rng(7), 12)
        dataset.records.quats[[3, 5], [2, 1]] *= scale
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        with np.load(sidecar_of(path)) as npz:
            assert npz["quats"].tobytes() == dataset.records.quats.tobytes()
        records = dataset.records
        pose_times = np.repeat(records.timestamps, len(records.robot_ids))
        assert datasets._invalid_rows(records, pose_times)[1] == \
            (3 * 3 + 2, "quaternion must be unit-norm")
        with pytest.raises(ParseError, match=r"data\.ndjson:5: malformed frame record: "
                                             r"quaternion must be unit-norm"):
            read_dataset(path)
        assert text_reads == [path]

    def test_sidecar_does_not_change_the_file(self, tmp_path):
        path = simulated_dataset(tmp_path, "swap", "up", 0.0)
        text = path.read_bytes()
        sidecar_of(path).unlink()
        write_dataset(read_dataset(path), path)
        assert path.read_bytes() == text
        assert sidecar_of(path).exists()

    def test_dataset_named_npz_is_not_overwritten(self, tmp_path, text_reads):
        dataset = random_dataset(np.random.default_rng(1), 10)
        path = tmp_path / "data.npz"
        write_dataset(dataset, path)
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == [path]

    @pytest.mark.parametrize("new,error", [
        (b'"frame_id": 2;', r"data\.ndjson:4: invalid record"),
        (b'"frame_id": 1,', r"data\.ndjson:4: malformed frame record: frame_id repeats"),
        (b'"frame_id": 7,', None),
    ])
    def test_changed_byte_runs_the_text_parser(self, tmp_path, text_reads, new, error):
        path = tmp_path / "data.ndjson"
        write_dataset(random_dataset(np.random.default_rng(2), 5), path)
        text = path.read_bytes()
        assert text.count(b'"frame_id": 2,') == 1
        path.write_bytes(text.replace(b'"frame_id": 2,', new))
        if error is None:
            assert read_dataset(path).records.frame_ids.tolist() == [0, 1, 7, 3, 4]
        else:
            with pytest.raises(ParseError, match=error):
                read_dataset(path)
        assert text_reads == [path]

    @pytest.mark.parametrize("change", [
        lambda a: a.update(sha256=a["sha256"][::-1].copy()),
        lambda a: a.update(centers=a["centers"][:, :1]),
        lambda a: a.update(positions=a["positions"][:, :2]),
        lambda a: a.update(rel_positions=np.where(np.arange(3) == 0, np.nan, a["rel_positions"])),
        lambda a: a.update(timestamps=np.append(np.inf, a["timestamps"][1:])),
        lambda a: a.update(timestamps=np.append(-1.0, a["timestamps"][1:])),
        lambda a: a.update(quats=2.0 * a["quats"]),
        lambda a: a.update(quats=1e200 * a["quats"]),
        lambda a: a.update(rel_positions=a["rel_positions"] * [1.0, 1.0, 0.0]),
        lambda a: a.update(bboxes=a["bboxes"][:, [2, 3, 0, 1]]),
        lambda a: a.update(frame_ids=np.append(1, a["frame_ids"][1:])),
        lambda a: a.update(frame_ids=np.append(-1, a["frame_ids"][1:])),
        lambda a: a.update(frame_ids=a["frame_ids"].astype(float)),
        lambda a: a.update(timestamps=a["timestamps"].astype(np.float32)),
        lambda a: a.update(timestamps=a["timestamps"].astype(">f8")),
        lambda a: a.update(robot=a["robot"].astype(np.int32)),
        lambda a: a.update(owner=a["owner"][::-1].copy()),
        lambda a: a.update(robot=np.zeros_like(a["robot"])),
        lambda a: a.pop("bboxes"),
        lambda a: a.update(robot_ids=np.array(["r0", "r1", "r2"], dtype=object)),
        lambda a: a.update(robot_ids=np.array(["r0", "r1", "r2"])),
        lambda a: a.update(robot_ids=np.frombuffer(b'["r0", "r2", "r1"]', dtype=np.uint8)),
        lambda a: a.update(robot_ids=np.frombuffer(b'[0, 1, 2]', dtype=np.uint8)),
        lambda a: a.update(robot_ids=np.frombuffer(b'["r0", "r1"', dtype=np.uint8)),
        lambda a: a.update({name: a[name][a["owner"] < 19] if name in NEIGHBOR_COLUMNS
                            else a[name][:19] for name in COLUMNS}),
    ], ids=["wrong-hash", "wrong-shape", "robot-missing", "nan", "inf-timestamp",
            "negative-timestamp", "non-unit-quaternion", "huge-quaternion", "zero-depth",
            "unordered-box", "repeated-frame-id", "negative-frame-id", "float-frame-ids",
            "float32", "big-endian", "int32", "unordered-owner", "neighbor-is-ego",
            "missing-key", "pickled-object-array", "numpy-string-ids", "unsorted-ids",
            "integer-ids", "truncated-ids", "fewer-frames-than-announced"])
    def test_bad_sidecar_is_not_used(self, tmp_path, text_reads, change):
        dataset = random_dataset(np.random.default_rng(3), 20)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        with np.load(sidecar_of(path)) as npz:
            arrays = dict(npz)
        change(arrays)
        np.savez(sidecar_of(path), **arrays)
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == [path]

    @pytest.mark.parametrize("damage", [
        lambda sidecar: sidecar.write_bytes(sidecar.read_bytes()[:len(sidecar.read_bytes()) // 2]),
        lambda sidecar: sidecar.write_bytes(b""),
        lambda sidecar: sidecar.write_bytes(b"not a zip file"),
        lambda sidecar: np.save(sidecar.open("wb"), np.arange(3)),
        lambda sidecar: (sidecar.unlink(), sidecar.mkdir()),
    ], ids=["truncated", "empty", "not-a-zip", "npy", "directory"])
    def test_unreadable_sidecar_is_not_used(self, tmp_path, text_reads, damage):
        dataset = random_dataset(np.random.default_rng(4), 20)
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        damage(sidecar_of(path))
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == [path]

    def test_nul_robot_ids_as_numpy_strings_are_not_used(self, tmp_path, text_reads):
        # numpy drops the trailing NULs: the ids would no longer be the file's
        path = nul_id_dataset(tmp_path)
        with np.load(sidecar_of(path)) as npz:
            arrays = dict(npz)
        arrays["robot_ids"] = np.array(["r0\x00", "r1\x00\x00", "r2"])
        np.savez(sidecar_of(path), **arrays)
        assert read_dataset(path).records.robot_ids == ("r0\x00", "r1\x00\x00", "r2")
        assert text_reads == [path]

    @pytest.mark.parametrize("right_hash", [False, True], ids=["wrong-hash", "right-hash"])
    def test_oversized_sidecar_is_not_loaded(self, tmp_path, text_reads, right_hash):
        """A 13-frame swap dataset whose sidecar holds a 1,000,000-row `bboxes`
        column (32 MB unpacked, 100 KB packed) reads from its text, and the read
        allocates less than a tenth of the column, whether or not the sidecar
        records the file's sha256: its size in the zip directory rules it out."""
        path = simulated_dataset(tmp_path, "swap", "up", 0.0, duration=2.0)
        with np.load(sidecar_of(path)) as npz:
            arrays = dict(npz)
        if not right_hash:
            arrays["sha256"] = arrays["sha256"][::-1].copy()
        arrays["bboxes"] = np.broadcast_to(np.zeros(4), (1_000_000, 4))
        np.savez_compressed(sidecar_of(path), **arrays)
        tracemalloc.start()
        try:
            dataset = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text_reads == [path] and len(dataset.records) == 13
        assert peak < 3.2e6

    @pytest.mark.parametrize("right_hash", [False, True], ids=["wrong-hash", "right-hash"])
    def test_sidecar_loads_no_column_before_its_hash_matches(self, tmp_path, monkeypatch,
                                                             text_reads, right_hash):
        path = simulated_dataset(tmp_path, "swap", "up", 0.0, duration=2.0)
        if not right_hash:
            with np.load(sidecar_of(path)) as npz:
                arrays = dict(npz)
            np.savez(sidecar_of(path), **arrays | {"sha256": arrays["sha256"][::-1].copy()})
        loaded, getitem = [], np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda npz, key: loaded.append(key) or getitem(npz, key))
        read_dataset(path)
        if right_hash:
            assert loaded == ["sha256", "robot_ids", *COLUMN_DTYPES] and text_reads == []
        else:
            assert loaded == ["sha256"] and text_reads == [path]

    def test_sidecar_of_the_shortest_text_is_used(self, tmp_path, text_reads):
        """The sidecar size bound holds for the fewest text bytes a value can
        take: one-letter robot ids, single-digit frame ids, every float 0.0
        or 1.0, and 40 neighbor rows a frame."""
        row = (1, [0.0, 0.0, 1.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        frames = [(k, 0.0, np.zeros((2, 3)), [IDENTITY] * 2, [row] * 40) for k in range(10)]
        dataset = Dataset(camera_for_pitch("up"), DEFAULT_ROBOT_GEOMETRY, EllipsoidSpec(),
                          run_records(("a", "b"), frames))
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        with np.load(sidecar_of(path)) as npz:
            unpacked = sum(info.file_size for info in npz.zip.infolist())
        assert unpacked < path.stat().st_size
        assert_datasets_equal(dataset, read_dataset(path))
        assert text_reads == []


def dataset_file(tmp_path, dataset: Dataset):
    path = tmp_path / "data.ndjson"
    write_dataset(dataset, path)
    return path


def raw_unicode_copy(path, name: str):
    """A copy of a dataset file whose lines are re-dumped with non-ASCII
    characters written raw, not escaped."""
    copy = path.with_name(name)
    lines = path.read_text(encoding="utf-8").split("\n")
    copy.write_text("\n".join(json.dumps(json.loads(line), ensure_ascii=False) if line else ""
                              for line in lines), encoding="utf-8")
    return copy


class TestLineEnds:
    """A dataset line ends at LF, CRLF or a lone CR, never at a Unicode line
    separator (U+0085, U+2028, U+2029) held raw inside a JSON string."""

    def test_raw_line_separator_in_header_reads_back(self, tmp_path, text_reads):
        dataset = random_dataset(np.random.default_rng(6), 4)
        dataset.camera = dataclasses.replace(dataset.camera, pitch_label="up\u2028")
        path = raw_unicode_copy(dataset_file(tmp_path, dataset), "raw.ndjson")
        assert "\u2028" in path.read_text(encoding="utf-8").split("\n")[0]
        read = read_dataset(path)
        assert read.camera.pitch_label == "up\u2028"
        assert_columns_bitwise_equal(read.records, dataset.records)
        assert text_reads == [path]

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_raw_line_separator_in_frame_reads_back(self, tmp_path, text_reads, separator):
        dataset = random_dataset(np.random.default_rng(7), 6)
        dataset.records.robot_ids = ("r0", f"r1{separator}", f"r2{separator}x")
        path = raw_unicode_copy(dataset_file(tmp_path, dataset), "raw.ndjson")
        assert separator in path.read_text(encoding="utf-8").split("\n")[3]
        assert_columns_bitwise_equal(read_dataset(path).records, dataset.records)
        assert text_reads == [path]

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_error_after_raw_separators_names_its_line(self, tmp_path, separator):
        dataset = random_dataset(np.random.default_rng(7), 6)
        dataset.camera = dataclasses.replace(dataset.camera, pitch_label=f"up{separator}")
        dataset.records.robot_ids = ("r0", f"r1{separator}", f"r2{separator}x")
        path = raw_unicode_copy(dataset_file(tmp_path, dataset), "raw.ndjson")
        lines = path.read_bytes().split(b"\n")
        lines[5] = lines[5][:len(lines[5]) // 2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{path}:6: invalid record")):
            read_dataset(path)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @written_datasets
    def test_crlf_and_cr_files_read_the_lf_columns(self, tmp_path, text_reads, make, end):
        path = make(tmp_path)
        copy = path.with_name("copy.ndjson")
        copy.write_bytes(path.read_bytes().replace(b"\n", end))
        sidecar_of(path).unlink()
        lf, other = read_dataset(path), read_dataset(copy)
        assert text_reads == [path, copy]
        assert_columns_bitwise_equal(other.records, lf.records)
        assert other.camera.intrinsics == lf.camera.intrinsics

    @pytest.mark.parametrize("end", ["\x0b", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_unicode_line_ends_do_not_split_lines(self, tmp_path, end):
        # two frame records on one line are one invalid record, named by its line
        path = tmp_path / "data.ndjson"
        write_dataset(random_dataset(np.random.default_rng(8), 5), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2:4] = [lines[2] + end + lines[3]]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: invalid record")):
            read_dataset(path)


@pytest.fixture
def dataset_opens(monkeypatch) -> list:
    """Records each file that `spincam.datasets` opens, through the `open` it
    binds or through `Path.open`, which `Path.read_bytes` calls."""
    opened, path_open = [], Path.open

    def spy_path_open(self, *args, **kwargs):
        opened.append(Path(self))
        return path_open(self, *args, **kwargs)

    def spy_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy_path_open)
    monkeypatch.setattr(datasets, "open", spy_open, raising=False)
    return opened


class TestOneRead:
    """`read_dataset` opens the dataset file once, whichever way it reads it."""

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
    def test_dataset_file_is_opened_once(self, tmp_path, dataset_opens, text_reads, sidecar):
        path = simulated_dataset(tmp_path, "swap", "up", 0.0)
        if not sidecar:
            sidecar_of(path).unlink()
        dataset_opens.clear()
        read_dataset(path)
        assert dataset_opens.count(path) == 1
        assert text_reads == ([] if sidecar else [path])

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "text"])
    def test_non_utf8_file_is_opened_once(self, tmp_path, dataset_opens, sidecar):
        path = simulated_dataset(tmp_path, "swap", "up", 0.0)
        if not sidecar:
            sidecar_of(path).unlink()
        path.write_bytes(path.read_bytes().replace(b'"r1"', b'"r\xff"', 3))
        dataset_opens.clear()
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: not UTF-8")):
            read_dataset(path)
        assert dataset_opens.count(path) == 1


def special_values_dataset() -> Dataset:
    """Seven frames whose floats include -0.0 next to 0.0, the smallest
    subnormal, 1e300 and, in positions and rel_positions, MAX_COORDINATE,
    repeated across robots, frames and columns; frames 0, 2, 3 and 6 see no
    neighbor."""
    tiny, huge, far = 5e-324, 1e300, MAX_COORDINATE
    quats = [(1.0, 0.0, -0.0, 0.0), (-0.0, 1.0, 0.0, -0.0), (0.0, -0.0, 0.0, 1.0)]
    positions = [(-0.0, 0.0, tiny), (far, -far, -0.0), (-0.0, 0.0, tiny)]
    seen = (1, (-0.0, 0.0, tiny), (0.0, -0.0), (-0.0, 0.0, 0.0, huge))
    rows = {1: [seen, (2, (0.0, -0.0, far), (-0.0, -0.0), (0.0, -0.0, tiny, tiny))],
            4: [(2, (tiny, -tiny, tiny), (huge, 0.0), (-0.0, -0.0, -0.0, -0.0))],
            5: [seen, (2, (-far, far, 1.0), (tiny, -0.0), (-huge, -tiny, -0.0, huge))]}
    timestamps = [-0.0, 0.0, tiny, tiny, huge, 0.0, -0.0]
    frames = [(3 * k, t, positions[k % 3:] + positions[:k % 3], quats[k % 2:] + quats[:k % 2],
               rows.get(k, [])) for k, t in enumerate(timestamps)]
    return Dataset(camera=camera_for_pitch("up"), geometry=DEFAULT_ROBOT_GEOMETRY,
                   ellipsoid=EllipsoidSpec(0.15, 0.15, 0.3),
                   records=run_records(("r0", "r1", "r2"), frames))


def written_bytes(directory, dataset: Dataset) -> list[bytes]:
    """The dataset file and its sidecar, as written into `directory`."""
    directory.mkdir()
    write_dataset(dataset, directory / "data.ndjson")
    return [(directory / name).read_bytes() for name in ("data.ndjson", "data.npz")]


def frame_counts(monkeypatch, name: str) -> list[int]:
    """The frame count of each call to the formatter `datasets.<name>`."""
    counts, formatter = [], getattr(datasets, name)

    def spy(records):
        counts.append(len(records))
        return formatter(records)

    monkeypatch.setattr(datasets, name, spy)
    return counts


class TestWriterFormat:
    """The writer formats each distinct float bit pattern once and writes
    in chunks of at most `WRITE_FRAMES` frames; neither shows in the bytes."""

    def test_lines_are_json_dumps_of_themselves(self, tmp_path):
        path = tmp_path / "data.ndjson"
        write_dataset(special_values_dataset(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 9
        for line in lines[:-1]:
            assert json.dumps(json.loads(line)) == line
        assert '"bbox": [-0.0, 0.0, 0.0, 1e+300]' in lines[2]
        assert '"t": [-0.0, 0.0, 5e-324]' in lines[1]

    def test_text_columns_are_the_written_bits(self, tmp_path, text_reads):
        # -0.0 and 0.0 are equal floats: a dedup keyed on equality would
        # write one for the other
        dataset = special_values_dataset()
        path = tmp_path / "data.ndjson"
        write_dataset(dataset, path)
        sidecar_of(path).unlink()
        assert_columns_bitwise_equal(read_dataset(path).records, dataset.records)
        assert text_reads == [path]

    @pytest.mark.parametrize("make", [
        special_values_dataset,
        lambda: random_dataset(np.random.default_rng(5), 101),
    ], ids=["special-values", "random"])
    @pytest.mark.parametrize("frames", [1, 2, 3])
    def test_chunk_size_does_not_change_the_bytes(self, tmp_path, monkeypatch, make, frames):
        dataset = make()
        default = written_bytes(tmp_path / "default", dataset)
        monkeypatch.setattr(datasets, "WRITE_FRAMES", frames)
        assert written_bytes(tmp_path / "chunked", dataset) == default

    @pytest.mark.parametrize("frames", [2, 3, 256])
    def test_no_formatter_call_gets_more_than_write_frames(self, tmp_path, monkeypatch,
                                                          frames):
        monkeypatch.setattr(datasets, "WRITE_FRAMES", frames)
        lines, neighbors = (frame_counts(monkeypatch, name)
                            for name in ("_frame_lines", "_frame_neighbors"))
        dataset = random_dataset(np.random.default_rng(6), 600)
        written_bytes(tmp_path / "out", dataset)
        # the dataset's lines format every frame once
        assert sum(lines) == 600 and sum(neighbors) == 600
        assert max(lines + neighbors) <= frames
        assert len(lines) == -(-600 // frames)


def banded_signal(times: np.ndarray, rng) -> "SignalEvaluator":
    freqs = rng.uniform(0.5, 20.0, (3, 6))
    amps = rng.uniform(0.2, 1.0, (3, 6))
    phases = rng.uniform(0.0, 2.0 * math.pi, (3, 6))

    def evaluate(t: np.ndarray) -> np.ndarray:
        out = np.zeros((len(t), 3))
        for axis in range(3):
            for f, a, p in zip(freqs[axis], amps[axis], phases[axis]):
                out[:, axis] += a * np.sin(2.0 * math.pi * f * t + p)
        return out

    return evaluate


def per_offset_error(a: GyroSequence, b: GyroSequence, delta: float,
                     min_overlap: float) -> float:
    """The offset error as it was computed before the overlap became a
    slice: a mask over all of `a`, and `b`'s strided rate columns."""
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


class TestTimeOffset:
    def test_identical_sequences(self):
        rng = np.random.default_rng(6)
        t = np.arange(0.0, 5.0, 1e-3)
        signal = banded_signal(t, rng)
        seq = GyroSequence(t, signal(t))
        assert abs(estimate_time_offset(seq, seq, 0.05)) < 1e-6

    def test_recovers_injected_shift(self):
        rng = np.random.default_rng(7)
        t = np.arange(0.0, 5.0, 1e-3)
        signal = banded_signal(t, rng)
        a = GyroSequence(t, signal(t))
        b = GyroSequence(t, signal(t + 0.010))  # b(t) = a(t + 0.010)
        delta = estimate_time_offset(a, b, 0.05)
        assert abs(delta - (-0.010)) < 1e-3  # within one sample period

    def test_noiseless_parabolic_refinement(self):
        rng = np.random.default_rng(8)
        t = np.arange(0.0, 5.0, 1e-3)
        signal = banded_signal(t, rng)
        for shift in (-0.0737, -0.01, 0.0042, 0.0999):
            a = GyroSequence(t, signal(t))
            b = GyroSequence(t, signal(t + shift))
            assert abs(estimate_time_offset(a, b, 0.15) + shift) < 1e-4

    def test_antisymmetric(self):
        rng = np.random.default_rng(9)
        t = np.arange(0.0, 4.0, 1e-3)
        signal = banded_signal(t, rng)
        a = GyroSequence(t, signal(t))
        b = GyroSequence(t, signal(t + 0.0173))
        ab = estimate_time_offset(a, b, 0.05)
        ba = estimate_time_offset(b, a, 0.05)
        assert abs(ab + ba) < 1e-3

    def test_insufficient_overlap(self):
        rng = np.random.default_rng(10)
        t = np.arange(0.0, 1.0, 1e-3)
        signal = banded_signal(t, rng)
        a = GyroSequence(t, signal(t))
        b = GyroSequence(t + 5.0, signal(t))
        with pytest.raises(InsufficientOverlap):
            estimate_time_offset(a, b, 0.1)

    def test_wide_window_stops_where_the_logs_stop_overlapping(self, monkeypatch):
        # 2 s of the criterion-7 signal: past +/-1 s the logs overlap by less
        # than half their span, so the search stops 2 steps beyond
        rng = np.random.default_rng(4)
        t = np.arange(0.0, 2.0, 1e-3)
        signal = banded_signal(t, rng)
        a, b = GyroSequence(t, signal(t)), GyroSequence(t, signal(t + 0.07))
        narrow = estimate_time_offset(a, b, 0.12)
        offsets = []
        error = datasets._offset_error
        monkeypatch.setattr(datasets, "_offset_error",
                            lambda *args: offsets.append(args[2]) or error(*args))
        # the first window keeps the test runnable at a build without the cap,
        # where 1e6 s would make 2e9 offsets
        for window in (1e3, 1e6):
            offsets.clear()
            assert estimate_time_offset(a, b, window) == narrow
            assert max(map(abs, offsets)) <= 1.0 + 2.5e-3
            assert len(offsets) <= 2 * 1003 + 1

    def test_offset_grid_over_the_bound_rejected_before_it_is_built(self, monkeypatch):
        # 1 s at 1 kHz: a window of 0.1 s is 201 offsets, 0.101 s is 203
        t = np.arange(0.0, 1.0, 1e-3)
        a = GyroSequence(t, np.column_stack([np.sin(7.0 * t)] * 3))
        monkeypatch.setattr(datasets, "MAX_OFFSETS", 201)
        assert math.isfinite(estimate_time_offset(a, a, 0.1))
        monkeypatch.setattr(datasets, "_offset_error", lambda *args: pytest.fail("grid built"))
        with pytest.raises(InvalidConfig, match="needs 203 offsets, more than 201"):
            estimate_time_offset(a, a, 0.101)

    def test_offset_grid_past_the_float_range_rejected(self):
        # a subnormal sample period against a 1000 s log, at a window past that reach
        a = GyroSequence(np.array([0.0, 5e-324, 1e-323]), np.zeros((3, 3)))
        b = GyroSequence(np.array([0.0, 500.0, 1000.0]), np.zeros((3, 3)))
        with pytest.raises(InvalidConfig, match="needs inf offsets"):
            estimate_time_offset(a, b, 1e4)

    def test_rates_at_the_bound_search_finitely(self):
        # every squared difference is (2 MAX_GYRO_RATE)^2 or 0, under error::RuntimeWarning
        t = np.arange(0.0, 2.0, 1e-2)
        square = datasets.MAX_GYRO_RATE * np.sign(np.sin(7.0 * t) + 0.5)
        a = GyroSequence(t, np.column_stack([square, -square, square]))
        b = GyroSequence(t, -a.rates)
        assert abs(estimate_time_offset(a, b, 0.5)) <= 0.5

    @pytest.mark.parametrize("window", [0.12, 5.0, 1e3])
    def test_offset_errors_match_per_offset_oracle(self, monkeypatch, window):
        """Every offset's error, and so the offset found, is bitwise that of
        the per-offset formula; the wide windows reach the overlap cap."""
        rng = np.random.default_rng(4)
        t = np.arange(0.0, 2.0, 1e-3)
        signal = banded_signal(t, rng)
        a = GyroSequence(t, signal(t))
        b = GyroSequence(t, signal(t + 0.07) + rng.normal(0.0, 0.1, (len(t), 3)))
        found = estimate_time_offset(a, b, window)
        error, checked = datasets._offset_error, []

        def oracle(a, b, delta, min_overlap, rates):
            expected = per_offset_error(a, b, delta, min_overlap)
            assert error(a, b, delta, min_overlap, rates).hex() == expected.hex(), delta
            checked.append(math.isfinite(expected))
            return expected

        monkeypatch.setattr(datasets, "_offset_error", oracle)
        assert estimate_time_offset(a, b, window).hex() == found.hex()
        assert sum(checked) >= min(window, 1.0) / 1e-3, "too few offsets overlap"

    def test_gyro_log_header_may_space_its_fields(self, tmp_path):
        path = tmp_path / "gyro.csv"
        path.write_text("t, gx, gy, gz\n0.0,1,2,3\n0.1,1,2,3\n\n0.2,x,2,3\n")
        with pytest.raises(ParseError, match=":5: non-numeric"):
            read_gyro_log(path)

    @pytest.mark.parametrize("row, error, message", [
        ("0.2,1,2,3,7", ParseError, "expected 4 fields, got 5"),
        ("0.2,1,2", ParseError, "expected 4 fields, got 3"),
        ("0.2,1,nan,3", NonFiniteValue, "non-finite value"),
        ("0.05,1,2,3", ParseError, "timestamps must be strictly increasing, got 0.05 after 0.1"),
        ("0.1,1,2,3", ParseError, "timestamps must be strictly increasing, got 0.1 after 0.1"),
        ("0.2,1,-1000001,3", ParseError,
         "rates must be within +/-1e+06 rad/s, got [1.0, -1000001.0, 3.0]"),
    ], ids=["long", "short", "nan", "backwards", "repeated", "rate-past-bound"])
    def test_gyro_log_bad_row_names_its_line(self, tmp_path, row, error, message):
        path = tmp_path / "gyro.csv"
        path.write_text(f"t,gx,gy,gz\n0.0,1,2,3\n0.1,1,2,3\n{row}\n0.3,1,2,3\n")
        with pytest.raises(error, match=re.escape(f"{path}:4: {message}")):
            read_gyro_log(path)

    @pytest.mark.parametrize("text", [
        b"t,gx,gy,gz\n0.0,1,2,3\n0.1,1,2,3\n0.2,BAD,2,3\n",
        b"t,gx,gy,gz\r\n0.0,1,2,3\r0.1,1,2,3\x0c\n\n0.2,BAD,2,3\n",
    ], ids=["lf", "crlf-cr-formfeed"])
    def test_gyro_log_non_utf8_byte_names_the_readers_line(self, tmp_path, text):
        # the line a non-numeric field at the same place is reported on
        path = tmp_path / "gyro.csv"
        path.write_bytes(text.replace(b"BAD", b"x"))
        with pytest.raises(ParseError, match=r":(\d+): non-numeric") as numeric:
            read_gyro_log(path)
        line_no = re.search(r":(\d+): non-numeric", str(numeric.value)).group(1)
        path.write_bytes(text.replace(b"BAD", b"\xff"))
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line_no}: not UTF-8")):
            read_gyro_log(path)

    def test_gyro_log_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        t = np.arange(0.0, 0.5, 1e-3)
        seq = GyroSequence(t, rng.normal(size=(len(t), 3)))
        path = tmp_path / "gyro.csv"
        write_gyro_log(seq, path)
        back = read_gyro_log(path)
        assert back.timestamps.tolist() == seq.timestamps.tolist()
        assert back.rates.tolist() == seq.rates.tolist()


class TestReport:
    def test_round_trip_with_footer(self, tmp_path):
        results = [(0, False, False), (1, True, True), (2, True, False), (3, False, True)]
        path = tmp_path / "report.csv"
        counts = write_report(path, *map(np.array, zip(*results)))
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)
        rows, summary = read_report(path)
        assert rows == results
        assert summary["precision"] == 0.5
        assert summary["recall"] == 0.5
        assert summary["f1"] == 0.5
        assert summary["tp"] == 1

    def test_empty_report(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, *np.zeros((3, 0), dtype=bool))
        rows, summary = read_report(path)
        assert rows == []
        assert math.isnan(summary["precision"])
        assert summary["f1"] == 0.0


class TestConfigLoaders:
    def test_minimal_simulation_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "swap", "num_robots": 2, "duration": 5.0}')
        spec = load_simulation_config(path)
        assert spec.scenario.kind == "swap"
        assert spec.camera.pitch_label == spec.scenario.camera_pitch
        assert spec.camera.intrinsics.width == 320

    def test_full_simulation_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "hover_orbit", "num_robots": 3, "duration": 8.0,
            "camera_pitch": "tilt45", "yaw_rate": 6.0, "rng_seed": 5,
            "hover_heights": [0.5, 0.8], "orbit_radius": 0.4,
            "fx": 200.0, "fy": 210.0, "k1": 0.05,
            "half_extents": [0.06, 0.06, 0.025], "sphere_radius": 0.045,
            "ellipsoid": [0.2, 0.2, 0.4],
        }))
        spec = load_simulation_config(path)
        assert spec.scenario.hover_heights == (0.5, 0.8)
        assert spec.camera.intrinsics.fx == 200.0
        assert spec.geometry.sphere_radius == 0.045
        assert spec.scenario.ellipsoid == EllipsoidSpec(0.2, 0.2, 0.4)

    def test_every_scenario_field_is_a_config_key(self, tmp_path):
        scenario = ScenarioConfig(kind="hover_orbit", num_robots=3, duration=8.0,
                                  hover_heights=(0.5, 0.8))
        fields = dataclasses.asdict(scenario)
        del fields["ellipsoid"]  # a config gives it as [rx, ry, rz]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
        assert load_simulation_config(path).scenario == scenario

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "swap", "num_robots": 2, "duration": 5.0, "speling": 1}')
        with pytest.raises(InvalidConfig, match="speling"):
            load_simulation_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "swap", "num_robots": 2}')
        with pytest.raises(InvalidConfig, match="duration"):
            load_simulation_config(path)

    def test_invalid_scenario_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "swap", "num_robots": 3, "duration": 5.0}')
        with pytest.raises(InvalidConfig):
            load_simulation_config(path)

    def test_noise_model_loader(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text('{"pixel_sigma": 2.0, "miss_rate": 0.2, "rng_seed": 9}')
        noise = load_noise_model(path)
        assert noise.pixel_sigma == 2.0 and noise.miss_rate == 0.2

    def test_noise_model_unknown_key(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text('{"pixel_sgima": 2.0}')
        with pytest.raises(InvalidConfig):
            load_noise_model(path)
