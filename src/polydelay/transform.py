"""Exact reformulation of distributed-delay DDEs as two-delay systems.

For y'(t) = f(y(t), integral_a^b y(t - tau) g(tau) dtau) with a polynomial
density g of degree n, the truncated moment functions

    x_i(t) = integral_a^b y(t - tau) tau^i dtau

satisfy the closed chain x_i'(t) = y(t-a) a^i - y(t-b) b^i + i x_{i-1}(t)
with x_{-1} = 0, and the distributed integral is recovered exactly as
sum_i alpha_i x_i(t). The pair (y, x) therefore solves an ordinary DDE
with just the two discrete delays a and b. This module builds that
augmented system, its auxiliary initial and stationary values, the time
scaling t -> t/b, and the nilpotent structure matrix of the auxiliary
block.
"""

from dataclasses import dataclass

import numpy as np

from .ddesolver import DiscreteDelayDde
from .quadrature import gauss_legendre
from .weightfn import PolynomialWeight, rescale_to_unit


@dataclass(frozen=True)
class DistributedDelayDde:
    """DDE with a distributed delay: y' = rhs(t, y, z).

    rhs receives z, a length-d vector holding the weighted integral of
    each delayed component over the delay interval (zero in the other
    components). history(t) supplies the state for t <= 0; rhs must be
    deterministic and reentrant.
    """

    dimension: int
    rhs: object
    weight: PolynomialWeight
    delayed_components: frozenset
    history: object

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        comps = frozenset(int(c) for c in self.delayed_components)
        if not comps:
            raise ValueError("delayed_components must be nonempty")
        if not all(0 <= c < self.dimension for c in comps):
            raise ValueError("delayed_components must index state components")
        object.__setattr__(self, "delayed_components", comps)


@dataclass(frozen=True)
class EquivalentSystem:
    """Augmented two-delay system equivalent to a distributed-delay DDE.

    State layout of `assembled`: the d base components first, then for
    each delayed component (ascending index) its auxiliary chain
    x_0..x_n of the degree-n weight. The assembled delays are (a, b), or
    just (b,) when a = 0: the a-terms then read the current state.
    """

    degree: int
    assembled: DiscreteDelayDde


def aux_initial_values(history, weight):
    """Initial auxiliary values x_i(0) = integral_a^b history(-tau) tau^i dtau.

    history is scalar-valued on [-b, 0]. The integral is evaluated with
    a 32-node Gauss-Legendre rule on [a, b]; its weights are
    probability-normalised, so the interval length multiplies the sum.
    When every sampled history value equals history(0) the constant
    closed form y0 (b^{i+1} - a^{i+1}) / (i+1) is used instead.
    """
    a, b = weight.a, weight.b
    rule = gauss_legendre(32, a, b)
    h0 = float(history(0.0))
    hv = np.array([float(history(-tau)) for tau in rule.nodes])
    if np.all(hv == h0):
        return stationary_aux(h0, weight)
    powers = np.vander(rule.nodes, weight.degree + 1, increasing=True)
    return (b - a) * (rule.weights @ (hv[:, None] * powers))


def stationary_aux(y_star_component, weight):
    """Stationary auxiliary values x_i* = y* (b^{i+1} - a^{i+1}) / (i+1)."""
    i1 = np.arange(1, weight.degree + 2)
    return float(y_star_component) * (weight.b ** i1 - weight.a ** i1) / i1


def build_equivalent(dde):
    """Assemble the equivalent two-delay system of a distributed-delay DDE.

    The auxiliary chains start from aux_initial_values of the history.
    The assembled DDE has dimension d + (n+1) * #delayed and
    delays {a, b}, or just {b} when a = 0 since a zero lag is the current
    state.
    """
    w = dde.weight
    a, b = w.a, w.b
    n = w.degree
    d = dde.dimension
    comps = sorted(dde.delayed_components)
    dim = d + (n + 1) * len(comps)
    alpha = np.array(w.coeffs)
    apow = a ** np.arange(n + 1)
    bpow = b ** np.arange(n + 1)
    chain = np.arange(1, n + 1)
    degenerate = a == 0.0
    offsets = {c: d + (n + 1) * k for k, c in enumerate(comps)}
    base_rhs = dde.rhs
    base_hist = dde.history

    def rhs(t, Y, Z):
        y = Y[:d]
        z = np.zeros(d)
        for c in comps:
            o = offsets[c]
            z[c] = alpha @ Y[o:o + n + 1]
        dY = np.empty(dim)
        dY[:d] = base_rhs(t, y, z)
        if degenerate:
            y_a = y
            y_b = Z[:d, 0]
        else:
            y_a = Z[:d, 0]
            y_b = Z[:d, 1]
        for c in comps:
            o = offsets[c]
            x = Y[o:o + n + 1]
            dx = y_a[c] * apow - y_b[c] * bpow
            dx[1:] += chain * x[:-1]
            dY[o:o + n + 1] = dx
        return dY

    x0_full = np.concatenate([
        aux_initial_values(
            lambda s, c=c: np.asarray(base_hist(s), dtype=float)[c], w)
        for c in comps])

    def hist(t):
        Y = np.empty(dim)
        Y[:d] = np.asarray(base_hist(t), dtype=float)
        # the auxiliary components are never read back in time by the
        # rhs; a constant extension keeps the history total
        Y[d:] = x0_full
        return Y

    assembled = DiscreteDelayDde(
        dimension=dim, delays=(b,) if degenerate else (a, b),
        rhs=rhs, history=hist)
    return EquivalentSystem(degree=n, assembled=assembled)


def scale_distributed(dde):
    """Scaled copy of a distributed-delay DDE: the new time is t/b.

    The right-hand side gains a factor b, the weight moves to [a/b, 1]
    via rescale_to_unit, and the history is read at b*t. The distributed
    integral itself is invariant under the change of variables, so the
    rhs callback signature is unchanged.
    """
    b = dde.weight.b
    rhs0 = dde.rhs
    hist0 = dde.history

    def rhs(t, y, z):
        return b * np.asarray(rhs0(b * t, y, z), dtype=float)

    def hist(t):
        return hist0(b * t)

    return DistributedDelayDde(
        dimension=dde.dimension, rhs=rhs, weight=rescale_to_unit(dde.weight),
        delayed_components=dde.delayed_components, history=hist)


def structure_matrix(n):
    """(n+1) x (n+1) matrix with subdiagonal entries 1..n.

    This is the linear part of the auxiliary chain: nilpotent of index
    n+1, rank n, sole eigenvalue 0 with the single eigenvector direction
    (0, ..., 0, 1).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return np.diag(np.arange(1.0, n + 1), -1)


def nilpotent_exponential(A, t):
    """exp(t A) for an (n+1) x (n+1) structure matrix A, as the exact
    finite sum of n+1 powers.

    Because A is nilpotent of index n+1 the series terminates; the
    entries are polynomials in t."""
    out = term = np.eye(len(A))
    for j in range(1, len(A)):
        term = (term @ A) * (t / j)
        out = out + term
    return out


_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


def find_stationary(dde, guess):
    """Damped Newton iteration for stationary points f(y*, y*) = 0.

    In a stationary state the distributed integral of a delayed component
    equals the component itself (the density integrates to one), so the
    algebraic system is rhs(0, y, z) = 0 with z = y on the delayed
    components. The Jacobian is forward-difference and the update is its
    least-squares solution, so families of equilibria (singular
    Jacobians) converge to a nearby family member; the step is halved
    until the residual decreases. Returns y*; the auxiliary values of a
    delayed component c are stationary_aux(y*[c], dde.weight). Raises
    RuntimeError when the residual cannot be pushed below 1e-10.
    """
    d = dde.dimension
    comps = sorted(dde.delayed_components)

    def resid(y):
        z = np.zeros(d)
        z[comps] = y[comps]
        return np.asarray(dde.rhs(0.0, y, z), dtype=float)

    y = np.asarray(guess, dtype=float).copy()
    r = resid(y)
    for _ in range(_NEWTON_MAX_ITER):
        rnorm = float(np.max(np.abs(r)))
        if rnorm <= _NEWTON_TOL:
            break
        J = np.empty((d, d))
        for j in range(d):
            step = 1e-7 * max(1.0, abs(y[j]))
            yp = y.copy()
            yp[j] += step
            J[:, j] = (resid(yp) - r) / step
        dy = np.linalg.lstsq(J, -r, rcond=None)[0]
        lam = 1.0
        improved = False
        while lam > 1e-6:
            y_try = y + lam * dy
            r_try = resid(y_try)
            if float(np.max(np.abs(r_try))) < rnorm:
                y, r = y_try, r_try
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    if float(np.max(np.abs(r))) > 1e-10:
        raise RuntimeError(
            "Newton iteration stalled at residual %g" % np.max(np.abs(r)))
    return y
