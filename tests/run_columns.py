"""Hand-made and annotated runs for the tests, built as `RunRecords` columns."""

import numpy as np

from spincam.camera import RunRecords, annotate_poses
from spincam.scenarios import frame_poses, frame_schedule

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def run_records(robot_ids, frames) -> RunRecords:
    """The columns of hand-made frames, in the given order.

    Each frame is (frame_id, timestamp, positions (R, 3), quats (R, 4), rows)
    with one pose row per robot of `robot_ids`, and each of its neighbor rows
    is (robot, rel_position, center, bbox), `robot` an index into
    `robot_ids`. The `RunRecords` constructor checks the layout.
    """
    rows = [(f, *row) for f, (*_poses, frame_rows) in enumerate(frames) for row in frame_rows]
    owner, robot, rel_positions, centers, bboxes = zip(*rows) if rows else ((),) * 5
    return RunRecords(
        frame_ids=[frame[0] for frame in frames],
        timestamps=[frame[1] for frame in frames],
        robot_ids=robot_ids,
        positions=np.reshape([frame[2] for frame in frames], (len(frames), len(robot_ids), 3)),
        quats=np.reshape([frame[3] for frame in frames], (len(frames), len(robot_ids), 4)),
        owner=owner,
        robot=robot,
        rel_positions=np.reshape(rel_positions, (-1, 3)),
        centers=np.reshape(centers, (-1, 2)),
        bboxes=np.reshape(bboxes, (-1, 4)),
    )


def annotated(times, poses, camera, geom) -> RunRecords:
    """The annotated run of the frames at `times` (F,), frame ids 0, 1, ...,
    whose poses are `(robot_ids, positions (F, R, 3), quats (F, R, 4))`, as
    `track_poses` or `frame_poses` gives them, seen through the camera's one
    mount."""
    robot_ids, positions, quats = poses
    return annotate_poses(np.arange(len(times)), np.asarray(times, dtype=float), robot_ids,
                          positions, quats, camera.rotation, camera.translation,
                          camera.intrinsics, geom)


def simulated(cfg, camera, geom) -> RunRecords:
    """The annotated run of a scenario configuration, as `spincam simulate`
    makes it: `frame_poses` at `frame_schedule(cfg)`, through `annotated`."""
    return annotated(frame_schedule(cfg), next(frame_poses([cfg])), camera, geom)
