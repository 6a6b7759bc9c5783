"""Polynomial probability densities on compact intervals.

A weight function here is a polynomial g(tau) = sum_i alpha_i tau^i that
is nonnegative on an interval [a, b] with 0 <= a < b and integrates to one
over it. The main constructor builds the beta-type family
C (tau - a)^p (b - tau)^q for nonnegative integer exponents; moments and
the change of variables tau -> tau/b have closed forms that the rest of
the package consumes directly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_EPS = float(np.finfo(float).eps)

# Hard cap on the polynomial degree. Beyond this, monomial coefficients on
# realistic intervals overwhelm double precision no matter how carefully
# they are computed.
MAX_DEGREE = 30

_GRID_POINTS = 1001


def _moment_terms(coeffs, a, b, i):
    """Terms c_j (b^(i+j+1) - a^(i+j+1)) / (i+j+1) of the moment integral of
    tau^i over [a, b]; a power past the float range raises OverflowError."""
    return [c * (b ** (i + j + 1) - a ** (i + j + 1)) / (i + j + 1)
            for j, c in enumerate(coeffs)]


def _check_interval(a, b):
    a = float(a)
    b = float(b)
    if not 0.0 <= a < b < math.inf:
        raise ValueError(
            "interval must satisfy 0 <= a < b < inf, got [%g, %g]" % (a, b))
    return a, b


@dataclass(frozen=True)
class PolynomialWeight:
    """Normalised polynomial density on [a, b].

    Attributes
    ----------
    a, b : float
        Finite interval bounds with 0 <= a < b.
    coeffs : tuple of float
        Monomial coefficients alpha_0..alpha_n (density per unit time).
        The trailing coefficient must be nonzero.

    Construction validates the interval, the unit normalisation of the
    integral over [a, b], and nonnegativity on a 1001-point grid. The two
    numeric checks use a tolerance that grows with the absolute-term sum
    of the monomial representation, so a density is only rejected when it
    is wrong beyond its own representation roundoff; for the low-degree
    densities used in practice the tolerance stays at 1e-12.

    Instances are immutable, and evaluate and moment are deterministic
    and free of side effects.
    """

    a: float
    b: float
    coeffs: tuple

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("coefficient list must be nonempty")
        if coeffs[-1] == 0.0:
            raise ValueError("trailing coefficient must be nonzero")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        try:
            terms = _moment_terms(coeffs, a, b, 0)
        except OverflowError:
            raise ValueError(
                "interval [%g, %g] out of range for a degree-%d density: its "
                "mass overflows a float" % (a, b, len(coeffs) - 1)) from None
        mass = math.fsum(terms)
        tol = max(1e-12, 64.0 * _EPS * math.fsum(abs(t) for t in terms))
        if abs(mass - 1.0) > tol:
            raise ValueError(
                "density must integrate to one over [%.17g, %.17g], got %.17g"
                % (a, b, mass))
        grid = np.linspace(a, b, _GRID_POINTS)
        vals = np.polyval(coeffs[::-1], grid)
        # Python's abs: np.abs raises peak RSS by about 128 KB
        slack = np.maximum(1e-12, 64.0 * _EPS * np.polyval(
            [abs(c) for c in coeffs[::-1]], grid))
        if np.any(vals < -slack):
            k = int(np.argmin(vals))
            raise ValueError(
                "density is negative on [%.17g, %.17g] near tau = %g "
                "(value %g)" % (a, b, grid[k], vals[k]))

    @property
    def degree(self):
        """Polynomial degree n (index of the trailing coefficient)."""
        return len(self.coeffs) - 1


def _checked_exponent(value, name):
    # The density is a polynomial only for genuine nonnegative integer
    # exponents; non-integer values are rejected, not approximated.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError("%s must be a nonnegative integer" % name)
    if value < 0:
        raise ValueError("%s must be a nonnegative integer" % name)
    return int(value)


def beta_polynomial(a, b, p, q):
    """Beta-type density C (tau-a)^p (b-tau)^q expanded in monomials.

    The normalising constant is C = (p+q+1)! / (p! q! (b-a)^(p+q+1)), so
    the result integrates to one over [a, b]. The expansion runs in exact
    rational arithmetic and rounds to float once per coefficient, which
    keeps the normalisation error at the final-rounding level even on
    wide shifted intervals where a floating-point expansion would lose
    many digits.

    Parameters
    ----------
    a, b : float
        Interval bounds with 0 <= a < b.
    p, q : int
        Nonnegative integer exponents of (tau-a)^p (b-tau)^q, not Beta
        shape parameters: the density is Beta(p+1, q+1) mapped to [a, b],
        so p = q = 2 gives 30 (tau-a)^2 (b-tau)^2 / (b-a)^5, i.e.
        Beta(3,3). The degree is n = p + q, capped at MAX_DEGREE.

    Returns
    -------
    PolynomialWeight
    """
    p = _checked_exponent(p, "p")
    q = _checked_exponent(q, "q")
    a, b = _check_interval(a, b)
    if p + q > MAX_DEGREE:
        raise ValueError(
            "degree too large: p + q = %d exceeds %d" % (p + q, MAX_DEGREE))
    fa = Fraction(a)
    fb = Fraction(b)
    const = Fraction(math.factorial(p + q + 1),
                     math.factorial(p) * math.factorial(q))
    const /= (fb - fa) ** (p + q + 1)
    coeffs = [Fraction(0)] * (p + q + 1)
    for j in range(p + 1):
        cj = math.comb(p, j) * (-fa) ** (p - j)
        for k in range(q + 1):
            ck = math.comb(q, k) * (-1) ** k * fb ** (q - k)
            coeffs[j + k] += cj * ck
    try:
        coeffs = tuple(float(const * c) for c in coeffs)
    except OverflowError:
        raise ValueError(
            "interval [%g, %g] out of range for p = %d, q = %d: the density "
            "coefficients overflow a float" % (a, b, p, q)) from None
    # the trailing coefficient is +-C, which is never zero before rounding
    if coeffs[-1] == 0.0:
        raise ValueError(
            "interval [%g, %g] out of range for p = %d, q = %d: the density "
            "coefficients underflow a float" % (a, b, p, q))
    return PolynomialWeight(a, b, coeffs)


def evaluate(w, tau):
    """Density value sum_i alpha_i tau^i at a point tau of [a, b]."""
    if not w.a <= tau <= w.b:
        raise ValueError(
            "tau = %g outside the support [%g, %g]" % (tau, w.a, w.b))
    return float(np.polyval(w.coeffs[::-1], tau))


def moment(w, i):
    """Weighted moment integral of tau^i over [a, b], in closed form.

    moment(w, 0) is the total mass (one by construction) and moment(w, 1)
    the mean of the distribution.
    """
    if i < 0:
        raise ValueError("moment index must be nonnegative")
    return math.fsum(_moment_terms(w.coeffs, w.a, w.b, i))


def rescale_to_unit(w):
    """Density of the rescaled delay tau/b on [a/b, 1].

    Change of variables: for s = tau/b the density of s is b * g(b s), so
    coefficient alpha_i picks up the factor b**(i+1). The degree is
    preserved and the result is automatically normalised; moments scale
    as moment(out, i) = moment(w, i) / b**i. A rescaled density that
    fails the checks raises ValueError naming the original interval too.
    """
    b = w.b
    coeffs = tuple(c * b ** (i + 1) for i, c in enumerate(w.coeffs))
    try:
        return PolynomialWeight(w.a / b, 1.0, coeffs)
    except ValueError as exc:
        raise ValueError("%s (the delay interval [%.17g, %.17g] rescaled to "
                         "[a/b, 1])" % (exc, w.a, b)) from exc
