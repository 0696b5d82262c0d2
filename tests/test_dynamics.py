"""Motor mixing."""

import numpy as np
import pytest

from spincam.dynamics import (
    QuadrotorParams,
    Wrench,
    crazyflie_params,
    mix_wrench,
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
            QuadrotorParams(kappa_f=params.kappa_f, b0=bad)

    def test_singular_mixer_rejected(self, params):
        b0 = x_configuration_mixer(params.kappa_f, 0.046, 0.006)
        b0[3] = b0[0]  # duplicate rows: no longer invertible
        with pytest.raises(ValueError):
            QuadrotorParams(kappa_f=params.kappa_f, b0=b0)


    def test_non_square_mixer_rejected(self, params):
        with pytest.raises(ValueError):
            QuadrotorParams(kappa_f=params.kappa_f, b0=params.b0[:3])

    def test_yaw_torque_splits_by_rotor_spin(self, params):
        # spin is orthogonal to the thrust and arm rows, so a pure yaw torque
        # shifts u_i by spin_i * tau_z / (4 kappa_f d) around the hover share
        f, tau_z, drag = 0.42, 3e-4, 0.006
        u = mix_wrench(Wrench(f=f, tau=np.array([0.0, 0.0, tau_z])), params)
        spin = np.array([-1.0, 1.0, -1.0, 1.0])
        expected = f / (4.0 * params.kappa_f) + spin * tau_z / (4.0 * params.kappa_f * drag)
        np.testing.assert_allclose(u, expected, atol=1e-12)
