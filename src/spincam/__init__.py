"""spincam: simulation and evaluation toolkit for spinning-monocular-camera
multi-robot relative localization.

A single fixed camera swept through 360 degrees by the robot's yaw spin gives
virtual omnidirectional awareness. The toolkit generates flight scenarios,
auto-annotates camera frames with relative positions / centers / bounding
boxes, decodes detections back to 3D positions, maintains a belief set of
neighbor positions, and scores downwash prediction the same way detector
benchmarks score it.
"""

__version__ = "0.1.0"

from .camera import (
    CameraIntrinsics,
    CameraModel,
    DEFAULT_INTRINSICS,
    FrameAnnotation,
    FrameRecord,
    NeighborAnnotation,
    RotationGrid,
    RunRecords,
    annotate_tracks,
    back_project,
    camera_for_pitch,
    project,
    project_points,
    refine_extrinsic_rotation,
)
from .datasets import (
    Dataset,
    GyroSequence,
    estimate_time_offset,
    export_labels,
    ingest_pose_log,
    read_dataset,
    write_dataset,
)
from .downwash import (
    DownwashFrameResult,
    EllipsoidSpec,
    ellipsoid_margin,
    run_downwash_eval,
)
from .dynamics import (
    QuadrotorParams,
    RigidBodyState,
    Wrench,
    crazyflie_params,
    hover_command,
    mix_wrench,
    step_dynamics,
)
from .errors import SpincamError
from .geometry import (
    DEFAULT_ROBOT_GEOMETRY,
    PoseTrack,
    RobotGeometry,
    interpolate,
)
from .metrics import (
    AssignmentResult,
    ConfusionCounts,
    ErrorDistribution,
    classification_metrics,
    hungarian,
    position_errors,
    success,
)
from .perception import (
    GridDetectionMap,
    NoiseModel,
    PositionEstimate,
    decode_box,
    decode_grid,
    encode_grid,
    simulate_detector,
)
from .scenarios import ScenarioConfig, frame_schedule, generate_scenario
