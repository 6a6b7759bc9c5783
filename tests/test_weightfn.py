"""Polynomial weight functions: construction, validation, moments."""

import numpy as np
import pytest
from scipy import integrate, stats

import polydelay as pdl


def test_uniform_unit_interval_is_constant_one():
    w = pdl.beta_polynomial(0, 1, 0, 0)
    assert w.coeffs == (1.0,)
    assert w.degree == 0
    assert w.a == 0.0 and w.b == 1.0


def test_beta_2_2_has_degree_four():
    assert pdl.beta_polynomial(30, 150, 2, 2).degree == 4


def test_beta_mass_against_adaptive_quadrature():
    # independent of the closed-form moment used by the validator
    w = pdl.beta_polynomial(30, 150, 2, 2)
    val, est = integrate.quad(lambda t: pdl.evaluate(w, t), 30, 150,
                              epsabs=1e-13, epsrel=1e-13)
    assert abs(val - 1.0) <= 1e-12


@pytest.mark.parametrize("a,b", [(30.0, 150.0), (150.0, 250.0)])
def test_beta_matches_reference_density(a, b):
    w = pdl.beta_polynomial(a, b, 2, 2)
    dist = stats.beta(3, 3, loc=a, scale=b - a)
    for tau in np.linspace(a, b, 23):
        assert pdl.evaluate(w, tau) == pytest.approx(dist.pdf(tau),
                                                     abs=1e-14)


def test_evaluate_uniform():
    w = pdl.beta_polynomial(0, 1, 0, 0)
    assert pdl.evaluate(w, 0.3) == 1.0


def test_evaluate_beta_vanishes_at_endpoints():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    assert abs(pdl.evaluate(w, 30.0)) <= 1e-12
    assert abs(pdl.evaluate(w, 150.0)) <= 1e-12


def test_evaluate_beta_midpoint_closed_form():
    # C * 60^2 * 60^2 with C = 5!/(2! 2! 120^5)
    w = pdl.beta_polynomial(30, 150, 2, 2)
    assert pdl.evaluate(w, 90.0) == pytest.approx(0.015625, rel=1e-13)


def test_evaluate_rejects_points_outside_support():
    w = pdl.beta_polynomial(0, 1, 0, 0)
    with pytest.raises(ValueError):
        pdl.evaluate(w, -0.1)
    with pytest.raises(ValueError):
        pdl.evaluate(w, 1.1)
    with pytest.raises(ValueError):
        pdl.evaluate(w, float("nan"))


def test_moment_uniform_mean():
    assert pdl.moment(pdl.beta_polynomial(0, 1, 0, 0), 1) == \
        pytest.approx(0.5, abs=1e-15)


def test_moment_beta_means():
    w1 = pdl.beta_polynomial(30, 150, 2, 2)
    w2 = pdl.beta_polynomial(150, 250, 2, 2)
    assert pdl.moment(w1, 1) == pytest.approx(90.0, abs=1e-10)
    assert pdl.moment(w2, 1) == pytest.approx(200.0, abs=1e-10)


def test_moment_zero_is_total_mass():
    for a, b, p, q in ((0, 1, 0, 0), (30, 150, 2, 2), (150, 250, 2, 2),
                       (2, 7, 1, 3)):
        w = pdl.beta_polynomial(a, b, p, q)
        assert pdl.moment(w, 0) == pytest.approx(1.0, abs=1e-12)


def test_moment_rejects_negative_index():
    with pytest.raises(ValueError):
        pdl.moment(pdl.beta_polynomial(0, 1, 0, 0), -1)


def test_rescale_uniform():
    w = pdl.rescale_to_unit(pdl.beta_polynomial(30, 150, 0, 0))
    assert w.a == pytest.approx(0.2)
    assert w.b == 1.0
    assert pdl.evaluate(w, 0.5) == pytest.approx(1.0 / 0.8, rel=1e-14)


def test_rescale_beta_symmetry_and_mean():
    w = pdl.rescale_to_unit(pdl.beta_polynomial(30, 150, 2, 2))
    assert pdl.moment(w, 1) == pytest.approx(0.6, rel=1e-13)
    for s in (0.05, 0.1, 0.2, 0.3):
        assert pdl.evaluate(w, 0.6 - s) == \
            pytest.approx(pdl.evaluate(w, 0.6 + s), rel=1e-12)


@pytest.mark.parametrize("p,q", [(0, 0), (2, 2), (1, 3), (5, 0)])
def test_rescale_preserves_degree(p, q):
    w = pdl.beta_polynomial(30, 150, p, q)
    assert pdl.rescale_to_unit(w).degree == w.degree


def test_rescale_preserves_normalisation():
    w = pdl.rescale_to_unit(pdl.beta_polynomial(150, 250, 2, 2))
    assert pdl.moment(w, 0) == pytest.approx(1.0, abs=1e-12)


def test_weight_rejects_bad_interval():
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=1.0, b=1.0, coeffs=(1.0,))
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=-1.0, b=1.0, coeffs=(0.5,))
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=0.0, b=float("inf"), coeffs=(0.0, 1.0))
    # an infinite bound is refused before the exact rational expansion
    with pytest.raises(ValueError, match="interval"):
        pdl.beta_polynomial(30.0, float("inf"), 2, 2)
    with pytest.raises(ValueError, match="interval"):
        pdl.beta_polynomial(float("nan"), 150.0, 2, 2)


def test_weight_rejects_trailing_zero_coefficient():
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=0.0, b=1.0, coeffs=(1.0, 0.0))
    # no coefficient at all has no trailing one either
    with pytest.raises(ValueError, match="nonempty"):
        pdl.PolynomialWeight(a=0.0, b=1.0, coeffs=())


def test_weight_rejects_unnormalised_density():
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=0.0, b=1.0, coeffs=(2.0,))


def test_weight_rejects_negative_density():
    # integrates to one but is negative for tau > 2/3
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=0.0, b=1.0, coeffs=(4.0, -6.0))


def test_weight_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        pdl.PolynomialWeight(a=0.0, b=1.0, coeffs=(float("nan"),))


def test_beta_degree_cap():
    with pytest.raises(ValueError, match="degree too large"):
        pdl.beta_polynomial(0, 1, 16, 15)
    # the boundary degree itself constructs
    assert pdl.beta_polynomial(0, 1, 15, 15).degree == pdl.MAX_DEGREE


def test_beta_rejects_non_integer_exponents():
    with pytest.raises(TypeError):
        pdl.beta_polynomial(0, 1, 1.5, 0)
    with pytest.raises(TypeError):
        pdl.beta_polynomial(0, 1, True, 0)
    with pytest.raises(ValueError):
        pdl.beta_polynomial(0, 1, -1, 0)
