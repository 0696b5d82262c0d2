"""Motor mixing and rigid-body integration."""

import numpy as np
import pytest

from spincam.dynamics import (
    GRAVITY,
    QuadrotorParams,
    RigidBodyState,
    Wrench,
    crazyflie_params,
    hover_command,
    mix_wrench,
    step_dynamics,
    wrench_from_motors,
    x_configuration_mixer,
)
from spincam.errors import InfeasibleWrench


@pytest.fixture
def params() -> QuadrotorParams:
    return crazyflie_params()


class TestMixWrench:
    def test_pure_hover_symmetry(self, params):
        n_sq = 0.25
        eta = Wrench(f=4.0 * params.kappa_f * n_sq, tau=np.zeros(3))
        np.testing.assert_allclose(mix_wrench(eta, params), np.full(4, n_sq), atol=1e-12)

    def test_motor_sum_constant_over_yaw_torque(self, params):
        # total motor energy does not depend on the yaw torque share
        f = 0.42
        for tau_z in np.linspace(-4e-4, 4e-4, 21):
            u = mix_wrench(Wrench(f=f, tau=np.array([0.0, 0.0, tau_z])), params)
            assert abs(u.sum() - f / params.kappa_f) < 1e-12

    def test_energy_invariant_for_random_feasible_wrenches(self, params):
        rng = np.random.default_rng(0)
        f = 0.5
        for _ in range(500):
            u = rng.uniform(0.05, 1.0, 4)
            u *= (f / params.kappa_f) / u.sum()
            eta = wrench_from_motors(u, params)
            assert eta.f == pytest.approx(f, abs=1e-12)
            u_back = mix_wrench(eta, params)
            assert abs(u_back.sum() - f / params.kappa_f) < 1e-12
            np.testing.assert_allclose(u_back, u, atol=1e-9)

    def test_infeasible_roll_torque(self, params):
        # huge roll torque at low thrust drives some motors negative
        eta = Wrench(f=0.01, tau=np.array([0.01, 0.0, 0.0]))
        with pytest.raises(InfeasibleWrench):
            mix_wrench(eta, params)

    def test_mixer_first_row_validation(self, params):
        bad = params.b0.copy()
        bad[0, 0] *= 2.0
        with pytest.raises(ValueError):
            QuadrotorParams(
                mass=params.mass, inertia=params.inertia, kappa_f=params.kappa_f, b0=bad
            )

    def test_singular_mixer_rejected(self, params):
        b0 = x_configuration_mixer(params.kappa_f, 0.046, 0.006)
        b0[3] = b0[0]  # duplicate rows: no longer invertible
        with pytest.raises(ValueError):
            QuadrotorParams(
                mass=params.mass, inertia=params.inertia, kappa_f=params.kappa_f, b0=b0
            )


class TestStepDynamics:
    def test_hover_equilibrium(self, params):
        state = RigidBodyState.at_rest((0.0, 0.0, 1.0))
        u = hover_command(params)
        for _ in range(100):
            new = step_dynamics(state, u, np.zeros(3), 1e-3, params)
            np.testing.assert_allclose(new.p, state.p, atol=1e-9)
            np.testing.assert_allclose(new.v, state.v, atol=1e-9)
            state = new

    def test_free_fall_matches_ballistic_oracle(self, params):
        state = RigidBodyState.at_rest((0.0, 0.0, 10.0))
        for _ in range(1000):
            state = step_dynamics(state, np.zeros(4), np.zeros(3), 1e-3, params)
        assert state.v[2] == pytest.approx(-GRAVITY, abs=1e-4)
        assert state.p[2] - 10.0 == pytest.approx(-0.5 * GRAVITY, abs=1e-4)

    def test_yaw_spin_matches_analytic_rate(self, params):
        # diagonal inertia: omega_z(t) = tau_z * t / J_zz, position undisturbed
        tau_z = 2e-6
        u = mix_wrench(Wrench(f=params.mass * GRAVITY, tau=np.array([0.0, 0.0, tau_z])), params)
        state = RigidBodyState.at_rest((0.0, 0.0, 1.0))
        t = 0.0
        for _ in range(100):
            state = step_dynamics(state, u, np.zeros(3), 1e-3, params)
            t += 1e-3
        assert state.omega[2] == pytest.approx(tau_z * t / params.inertia[2, 2], rel=1e-9)
        np.testing.assert_allclose(state.p, [0.0, 0.0, 1.0], atol=1e-6)

    def test_orientation_stays_unit_norm(self, params):
        u = mix_wrench(
            Wrench(f=params.mass * GRAVITY, tau=np.array([1e-7, -2e-7, 3e-7])), params
        )
        state = RigidBodyState.at_rest((0.0, 0.0, 1.0))
        for _ in range(10_000):
            state = step_dynamics(state, u, np.zeros(3), 1e-3, params)
            assert abs(np.linalg.norm(state.q) - 1.0) < 1e-9

    def test_kinetic_energy_constant_at_equilibrium(self, params):
        state = RigidBodyState.at_rest((0.0, 0.0, 1.0))
        u = hover_command(params)
        ke = lambda s: 0.5 * params.mass * s.v @ s.v + 0.5 * s.omega @ params.inertia @ s.omega
        for _ in range(100):
            new = step_dynamics(state, u, np.zeros(3), 1e-3, params)
            assert abs(ke(new) - ke(state)) < 1e-12
            state = new

    def test_residual_force_accelerates(self, params):
        # constant sideways disturbance at hover thrust
        state = RigidBodyState.at_rest((0.0, 0.0, 1.0))
        u = hover_command(params)
        f_a = np.array([0.01, 0.0, 0.0])
        for _ in range(100):
            state = step_dynamics(state, u, f_a, 1e-3, params)
        assert state.v[0] == pytest.approx(0.01 / params.mass * 0.1, rel=1e-6)

    def test_step_size_validation(self, params):
        state = RigidBodyState.at_rest()
        with pytest.raises(ValueError):
            step_dynamics(state, np.zeros(4), np.zeros(3), 0.0, params)
        with pytest.raises(ValueError):
            step_dynamics(state, np.zeros(4), np.zeros(3), 0.02, params)
