"""Writing a gyro log, for the tests."""

from spincam.datasets import GYRO_LOG_COLUMNS, GyroSequence


def write_gyro_log(seq: GyroSequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(GYRO_LOG_COLUMNS) + "\n")
        for t, (gx, gy, gz) in zip(seq.timestamps, seq.rates):
            fh.write(",".join(repr(float(v)) for v in (t, gx, gy, gz)) + "\n")
