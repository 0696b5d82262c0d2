import numpy as np
import pytest

from spincam.camera import CameraIntrinsics, CameraModel
from spincam.geometry import RobotGeometry


@pytest.fixture
def intr() -> CameraIntrinsics:
    return CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0)


@pytest.fixture
def identity_camera(intr) -> CameraModel:
    """Camera frame coincides with the robot frame (optical axis = robot +z)."""
    return CameraModel(intrinsics=intr, rotation=[1.0, 0.0, 0.0, 0.0], translation=np.zeros(3),
                       pitch_label="up")


@pytest.fixture
def cube_geom() -> RobotGeometry:
    return RobotGeometry(half_extents=np.array([0.05, 0.05, 0.05]), sphere_radius=0.05)
