"""Quadrotor motor mixing and its energy identity.

A wrench (collective thrust and body torques) maps to squared motor speeds
through the actuation matrix B0. Its first row is all kappa_f, so the motor
sum depends on thrust alone and yaw torque costs no extra motor energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWrench
from .geometry import as_vec3


@dataclass(frozen=True, eq=False)
class Wrench:
    """Collective thrust (N) and body torques (N*m)."""

    f: float
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", as_vec3(self.tau))

    def as_array(self) -> np.ndarray:
        return np.array([self.f, self.tau[0], self.tau[1], self.tau[2]])


@dataclass(frozen=True, eq=False)
class QuadrotorParams:
    kappa_f: float  # thrust per squared-motor-speed unit
    b0: np.ndarray  # 4x4 wrench-from-motors matrix, first row all kappa_f

    def __post_init__(self):
        b0 = np.asarray(self.b0, dtype=float)
        object.__setattr__(self, "b0", b0)
        if b0.shape != (4, 4):
            raise ValueError("actuation matrix must be 4x4")
        if not np.allclose(b0[0], self.kappa_f):
            raise ValueError("actuation matrix first row must equal kappa_f")
        if abs(np.linalg.det(b0)) < 1e-12 * self.kappa_f**4:
            raise ValueError("actuation matrix must be invertible")


def x_configuration_mixer(
    kappa_f: float, arm_length: float, drag_to_thrust: float
) -> np.ndarray:
    """Actuation matrix for an X-frame quad with alternating rotor spin."""
    a = arm_length / np.sqrt(2.0)
    # motor order: front-right, back-right, back-left, front-left
    ys = np.array([-a, -a, a, a])
    xs = np.array([a, -a, -a, a])
    spin = np.array([-1.0, 1.0, -1.0, 1.0])
    return kappa_f * np.array(
        [np.ones(4), ys, -xs, drag_to_thrust * spin]
    )


def crazyflie_params() -> QuadrotorParams:
    """Plausible nano-quadrotor defaults (not calibrated to any airframe).

    Motor commands are normalized squared speeds in [0, 1], so kappa_f is the
    per-motor maximum thrust in newtons.
    """
    return QuadrotorParams(
        kappa_f=0.15,
        b0=x_configuration_mixer(0.15, arm_length=0.046, drag_to_thrust=0.006),
    )


def mix_wrench(eta: Wrench, params: QuadrotorParams) -> np.ndarray:
    """Squared motor speeds realizing a wrench: u = B0^-1 eta.

    The all-kappa_f first row of B0 makes sum(u) == f / kappa_f identically,
    so yaw torque is free in terms of total motor energy.
    """
    u = np.linalg.solve(params.b0, eta.as_array())
    if np.any(u < 0.0):
        raise InfeasibleWrench(f"wrench needs negative squared motor speeds: {u}")
    return u


def wrench_from_motors(u, params: QuadrotorParams) -> Wrench:
    u = np.asarray(u, dtype=float)
    eta = params.b0 @ u
    return Wrench(f=float(eta[0]), tau=eta[1:])
