"""Quadrotor rigid-body dynamics and motor mixing.

State integrates under the Newton-Euler equations with body-frame thrust
along +z and an optional externally supplied residual force (disturbances
from neighboring rotors are an input here, not a model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWrench
from .geometry import as_vec3, quat_multiply, quat_normalize, quat_rotate

GRAVITY = 9.81
MAX_STEP = 0.01


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
    mass: float
    inertia: np.ndarray  # 3x3, kg*m^2
    kappa_f: float  # thrust per squared-motor-speed unit
    b0: np.ndarray  # 4x4 wrench-from-motors matrix, first row all kappa_f

    def __post_init__(self):
        inertia = np.asarray(self.inertia, dtype=float)
        b0 = np.asarray(self.b0, dtype=float)
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "b0", b0)
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if inertia.shape != (3, 3) or not np.allclose(inertia, inertia.T):
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
            raise ValueError("inertia must be positive-definite")
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
        mass=0.042,
        inertia=np.diag([1.66e-5, 1.66e-5, 2.93e-5]),
        kappa_f=0.15,
        b0=x_configuration_mixer(0.15, arm_length=0.046, drag_to_thrust=0.006),
    )


@dataclass(frozen=True, eq=False)
class RigidBodyState:
    p: np.ndarray  # world position, m
    v: np.ndarray  # world velocity, m/s
    q: np.ndarray  # body-to-world attitude, unit quaternion (w, x, y, z)
    omega: np.ndarray  # body angular velocity, rad/s

    def __post_init__(self):
        object.__setattr__(self, "p", as_vec3(self.p))
        object.__setattr__(self, "v", as_vec3(self.v))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "omega", as_vec3(self.omega))

    @staticmethod
    def at_rest(position=(0.0, 0.0, 0.0)) -> "RigidBodyState":
        return RigidBodyState(as_vec3(position), np.zeros(3), [1.0, 0.0, 0.0, 0.0], np.zeros(3))


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


def hover_command(params: QuadrotorParams) -> np.ndarray:
    """Motor command balancing gravity with zero torque."""
    return mix_wrench(Wrench(f=params.mass * GRAVITY, tau=np.zeros(3)), params)


def _derivative(state_vec: np.ndarray, f: float, tau: np.ndarray, f_a: np.ndarray,
                params: QuadrotorParams) -> np.ndarray:
    v, q, omega = state_vec[3:6], state_vec[6:10], state_vec[10:13]
    thrust_world = quat_rotate(q, [0.0, 0.0, f])
    acc = np.array([0.0, 0.0, -GRAVITY]) + (thrust_world + f_a) / params.mass
    # quaternion kinematics for body-frame rates: qdot = 0.5 * q * (0, omega)
    qdot = 0.5 * quat_multiply(q, [0.0, *omega])
    inertia = params.inertia
    omega_dot = np.linalg.solve(inertia, np.cross(inertia @ omega, omega) + tau)
    return np.concatenate([v, acc, qdot, omega_dot])


def step_dynamics(
    state: RigidBodyState,
    u,
    f_a,
    dt: float,
    params: QuadrotorParams,
) -> RigidBodyState:
    """One RK4 step of the Newton-Euler dynamics; orientation renormalized."""
    if not 0.0 < dt <= MAX_STEP:
        raise ValueError(f"dt must be in (0, {MAX_STEP}], got {dt}")
    wrench = wrench_from_motors(u, params)
    f_a = as_vec3(f_a)
    y0 = np.concatenate([state.p, state.v, state.q, state.omega])

    k1 = _derivative(y0, wrench.f, wrench.tau, f_a, params)
    k2 = _derivative(y0 + 0.5 * dt * k1, wrench.f, wrench.tau, f_a, params)
    k3 = _derivative(y0 + 0.5 * dt * k2, wrench.f, wrench.tau, f_a, params)
    k4 = _derivative(y0 + dt * k3, wrench.f, wrench.tau, f_a, params)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return RigidBodyState(p=y1[0:3], v=y1[3:6], q=quat_normalize(y1[6:10]), omega=y1[10:13])
