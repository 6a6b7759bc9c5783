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
block. The system is linear in its delayed values, so the solver's lookup
forms each chain's delayed forcing a^i y_c(t-a) - b^i y_c(t-b) from the
DDE's weights and sources, and the rhs gets the chains' i x_{i-1} and the
integrals alpha . x from one product by a constant matrix.
"""

from dataclasses import dataclass

import numpy as np

from .ddesolver import DiscreteDelayDde
from .quadrature import gauss_legendre
from .weightfn import PolynomialWeight, rescale_to_unit

# Largest weight degree build_equivalent accepts: the chain drifts off its
# invariant like t^n, and past degree 4 the drift outgrows solver accuracy.
MAX_EQUIVALENT_DEGREE = 4


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

    history is scalar- or length-d-valued on [-b, 0] (then one column
    x_0..x_n per component). It is sampled once, at the nodes of a
    32-node Gauss-Legendre rule on [a, b] with probability-normalised
    weights, so the interval length multiplies the sum. When every
    sample equals the first, stationary_aux of that value is returned.
    """
    a, b = weight.a, weight.b
    rule = gauss_legendre(32, a, b)
    hv = np.array([np.asarray(history(-tau), dtype=float)
                   for tau in rule.nodes])
    if np.all(hv == hv[0]):
        return stationary_aux(hv[0], weight)
    powers = np.vander(rule.nodes, weight.degree + 1, increasing=True)
    return (b - a) * ((rule.weights[:, None] * powers).T @ hv)


def stationary_aux(y_star, weight):
    """Stationary auxiliary values x_i* = y* (b^{i+1} - a^{i+1}) / (i+1)
    of a scalar y*, or one column x_0*..x_n* per component of a vector."""
    y = np.asarray(y_star, dtype=float)
    i1 = np.arange(1, weight.degree + 2).reshape((-1,) + (1,) * y.ndim)
    return y * (weight.b ** i1 - weight.a ** i1) / i1


def build_equivalent(dde):
    """Assemble the equivalent two-delay system of a distributed-delay DDE.

    Every chain starts from one aux_initial_values call, which reads the
    history 32 times. The assembled DDE has dimension d + (n+1) * #delayed
    and delays {a, b}, or just {b} when a = 0 since a zero lag is the
    current state. Its weights and sources make the solver hand the rhs
    each chain row's delayed forcing a^i y_c(t-a) - b^i y_c(t-b); the rhs
    adds the chains' i x_{i-1}, and the y_c(t) term when a = 0, and gets
    the integrals alpha . x from the same product by one constant matrix.
    Weights of degree above MAX_EQUIVALENT_DEGREE raise ValueError.
    """
    w = dde.weight
    a, b = w.a, w.b
    n = w.degree
    if n > MAX_EQUIVALENT_DEGREE:
        raise ValueError("degree %d is above %d, the largest the equivalent "
                         "system takes; use the quadrature variant"
                         % (n, MAX_EQUIVALENT_DEGREE))
    d = dde.dimension
    comps = sorted(dde.delayed_components)
    dim = d + (n + 1) * len(comps)
    degenerate = a == 0.0
    powers = np.arange(n + 1)
    # chain row o + i: x_i' = a^i y_c(t-a) - b^i y_c(t-b) + i x_{i-1}.
    # solve() forms the delayed terms through W and sources; Y @ A gives
    # the rest, and alpha . x in column c; the base rows' W stays zero
    W = np.zeros((dim, 2))
    sources = np.arange(dim)
    A = np.zeros((dim, dim))
    for o, c in zip(range(d, dim, n + 1), comps):
        chain = slice(o, o + n + 1)
        W[chain] = np.column_stack((a ** powers, -b ** powers))
        sources[chain] = c
        A[chain, chain] = structure_matrix(n).T
        A[chain, c] = w.coeffs
        if degenerate:
            # a zero lag reads the current state
            A[c, chain] = a ** powers
    base_rhs = dde.rhs
    base_hist = dde.history

    def rhs(t, Y, U):
        zx = Y.dot(A)
        dY = zx + U[:, 0]
        dY[:d] = base_rhs(t, Y[:d], zx[:d])
        return dY

    # the auxiliary components are never read back in time by the rhs;
    # a constant extension keeps the history total
    x0_full = aux_initial_values(base_hist, w)[:, comps].T.ravel()

    def hist(t):
        return np.concatenate((base_hist(t), x0_full))

    assembled = DiscreteDelayDde(
        dimension=dim, delays=(b,) if degenerate else (a, b),
        rhs=rhs, history=hist, weights=W[:, 1:] if degenerate else W,
        sources=sources)
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
        return np.multiply(rhs0(b * t, y, z), b, dtype=float)

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
