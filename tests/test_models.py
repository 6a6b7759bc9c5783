"""Delayed SIR model assembly, conservation, and equilibria."""

import math

import numpy as np
import pytest

import polydelay as pdl


def test_initial_slope_hand_value(case_i_params):
    # S'(0) = -sigma S0 I0 + theta I0 with constant history
    dde = pdl.sir_distributed(case_i_params)
    y0 = np.array(case_i_params.y0)
    z = np.array([0.0, 0.01, 0.0])
    dy = dde.rhs(0.0, y0, z)
    assert dy[0] == pytest.approx(-4.9e-4, rel=1e-12)
    assert dy[1] == pytest.approx(0.1 * 0.99 * 0.01 - 0.05 * 0.01,
                                  rel=1e-12)


def test_rhs_components_sum_to_zero(case_i_params):
    dde = pdl.sir_distributed(case_i_params)
    rng = np.random.default_rng(42)
    for _ in range(25):
        y = rng.uniform(0.0, 1.0, 3)
        z = np.array([0.0, rng.uniform(0.0, 1.0), 0.0])
        dy = dde.rhs(0.0, y, z)
        assert abs(float(dy[0] + dy[1] + dy[2])) <= 1e-16


def test_disease_free_history_is_stationary():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    params = pdl.SirParameters(sigma=0.1, theta=0.05, weight=w,
                               y0=(1.0, 0.0, 0.0))
    dde = pdl.sir_distributed(params)
    y0 = np.array(params.y0)
    dy = dde.rhs(0.0, y0, np.zeros(3))
    assert np.all(dy == 0.0)


def test_parameter_validation():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    with pytest.raises(ValueError):
        pdl.SirParameters(sigma=0.0, theta=0.05, weight=w,
                          y0=(0.99, 0.01, 0.0))
    with pytest.raises(ValueError):
        pdl.SirParameters(sigma=0.1, theta=-0.05, weight=w,
                          y0=(0.99, 0.01, 0.0))
    with pytest.raises(ValueError):
        pdl.SirParameters(sigma=0.1, theta=0.05, weight=w,
                          y0=(0.99, 0.02, 0.0))
    with pytest.raises(ValueError):
        pdl.SirParameters(sigma=0.1, theta=0.05, weight=w,
                          y0=(1.2, -0.2, 0.0))
    with pytest.raises(ValueError):
        pdl.SirParameters(sigma=0.1, theta=0.05, weight=w,
                          y0=(0.99, 0.01))
    # nan fails every comparison and inf passes a positivity test
    for sigma, theta in ((math.inf, 0.05), (math.nan, 0.05),
                         (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            pdl.SirParameters(sigma=sigma, theta=theta, weight=w,
                              y0=(0.99, 0.01, 0.0))
    for y0 in ((math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            pdl.SirParameters(sigma=0.1, theta=0.05, weight=w, y0=y0)


def test_auxiliary_chain_initial_values(case_i_params, case_ii_params):
    sys_i = pdl.build_equivalent(pdl.sir_distributed(case_i_params))
    sys_ii = pdl.build_equivalent(pdl.sir_distributed(case_ii_params))
    assert sys_i.assembled.dimension == 8
    assert sys_i.assembled.history(0.0)[3] == pytest.approx(1.2, rel=1e-13)
    assert sys_ii.assembled.history(0.0)[3] == pytest.approx(1.0, rel=1e-13)


def test_conservation_starts_exact(case_i_equivalent):
    _, states = pdl.sample(case_i_equivalent.traj, 2)
    y0 = states[0]
    assert float(y0[0] + y0[1] + y0[2]) == 1.0


def test_conservation_stays_small(case_i_equivalent):
    assert pdl.sir_conserved(case_i_equivalent.traj) <= 1e-6


def test_equilibria_endemic_value(case_i_params):
    points = pdl.sir_equilibrium(case_i_params)
    assert len(points) == 2
    free, endemic = points
    assert free == pytest.approx((1.0, 0.0, 0.0))
    assert endemic[0] == pytest.approx(0.5, rel=1e-14)
    assert endemic[1] == pytest.approx(0.25, rel=1e-14)
    assert endemic.sum() == pytest.approx(1.0, abs=1e-15)


def test_equilibria_without_endemic_branch():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    params = pdl.SirParameters(sigma=0.05, theta=0.1, weight=w,
                               y0=(0.99, 0.01, 0.0))
    points = pdl.sir_equilibrium(params)
    assert len(points) == 1
