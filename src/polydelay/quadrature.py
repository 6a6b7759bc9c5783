"""Gaussian quadrature for polynomial densities on compact intervals.

Rules are generated by the Golub-Welsch procedure: the three-term
recurrence coefficients of the orthogonal polynomials for the weight form
a symmetric tridiagonal Jacobi matrix whose eigenvalues are the nodes,
and the squared first components of the normalised eigenvectors give the
weights. The eigenproblem is solved by numpy's symmetric eigensolver on
the m x m Jacobi matrix. Weights are normalised to sum to one, matching
the probability densities they integrate against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ddesolver import DiscreteDelayDde
from .weightfn import _checked_exponent


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability-normalised weights of a Gaussian rule.

    exactness is the certified polynomial degree 2m-1 and interval the
    open support (a, b) containing the nodes. Weights are positive and
    sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    interval: tuple

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        a, b = self.interval
        if nodes.size < 1 or weights.size != nodes.size:
            raise ValueError("need matching nonempty nodes and weights")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= a or nodes[-1] >= b:
            raise ValueError("nodes must lie strictly inside the interval")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")


# Hard cap on the node count. A rule solves a dense m x m eigenproblem,
# O(m^2) memory and O(m^3) time: about 0.3 s at the cap.
MAX_NODES = 1000


def _check_rule_args(m, a, b):
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise TypeError("node count m must be an integer")
    if not 1 <= m <= MAX_NODES:
        raise ValueError("node count m must lie in [1, %d], got %d"
                         % (MAX_NODES, m))
    a = float(a)
    b = float(b)
    if not -math.inf < a < b < math.inf:
        raise ValueError(
            "rule interval must be finite with a < b, got [%g, %g]" % (a, b))
    return int(m), a, b


def gauss_legendre(m, a, b):
    """m-node Gauss-Legendre rule for the uniform density on [a, b]."""
    return gauss_jacobi(m, 0, 0, a, b)


def gauss_jacobi(m, p, q, a, b):
    """m-node rule for the normalised density C (tau-a)^p (b-tau)^q.

    Mapped to [-1, 1] this density is the classical weight
    (1-x)^alpha (1+x)^beta with alpha = q and beta = p, whose monic
    three-term recurrence fills the Golub-Welsch matrix; the affine node
    map and the weight normalisation bring the rule back to [a, b].
    """
    m, a, b = _check_rule_args(m, a, b)
    beta = float(_checked_exponent(p, "p"))
    alpha = float(_checked_exponent(q, "q"))
    nu = alpha + beta
    k = np.arange(1.0, m)
    two = 2.0 * k + nu
    # the general diagonal term is 0/0 at k = 0 for the Legendre weight,
    # so the first entry takes its limit
    diag = np.concatenate((
        [(beta - alpha) / (nu + 2.0)],
        (beta * beta - alpha * alpha) / (two * (two + 2.0))))
    bsq = (4.0 * k * (k + alpha) * (k + beta) * (k + nu)
           / (two * two * (two + 1.0) * (two - 1.0)))
    off = np.sqrt(bsq)
    lam, vecs = np.linalg.eigh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    return QuadratureRule(nodes=a + (b - a) * (lam + 1.0) / 2.0,
                          weights=w / w.sum(), exactness=2 * m - 1,
                          interval=(a, b))


def apply(rule, f):
    """Weighted-integral approximation sum_k w_k f(tau_k)."""
    return math.fsum(w * f(t) for t, w in zip(rule.nodes, rule.weights))


def build_quadrature_dde(dde, rule):
    """Replace the distributed integral with its quadrature sum.

    Each delayed component's integral becomes sum_k w_k y_c(t - tau_k),
    so the result is an ordinary DDE with the m nodes as discrete delays
    and the dimension unchanged. The rule's weights are the DDE's weights,
    on the rows of the delayed components, so solve() forms the sums and
    the rhs reads the integral z, zero in the other components, as the
    one column of Z. The rule must target the weight's support interval.
    """
    a, b = dde.weight.a, dde.weight.b
    ra, rb = rule.interval
    if (abs(ra - a) > 1e-12 * max(1.0, abs(a))
            or abs(rb - b) > 1e-12 * max(1.0, abs(b))):
        raise ValueError(
            "rule interval [%g, %g] does not match the weight support "
            "[%g, %g]" % (ra, rb, a, b))
    weights = np.zeros((dde.dimension, rule.nodes.size))
    weights[sorted(dde.delayed_components)] = rule.weights
    base_rhs = dde.rhs

    def rhs(t, y, Z):
        return base_rhs(t, y, Z[:, 0])

    return DiscreteDelayDde(dimension=dde.dimension, delays=tuple(rule.nodes),
                            rhs=rhs, history=dde.history, weights=weights)
