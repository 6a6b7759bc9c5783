"""Delayed SIR model: susceptible, infected, recovered populations where
immunity is lost after a distributed delay.

Recovered individuals rejoin the susceptible pool at the rate
theta * integral I(t - tau) g(tau) dtau, giving

    S' = -sigma S I + theta z,    I' = sigma S I - theta I,
    R' =  theta I   - theta z,

with z the distributed integral of I. The three right-hand sides cancel
pairwise, so S + I + R is conserved; that makes the conservation residual
an independent accuracy diagnostic, which is why R is integrated
explicitly instead of being recovered from 1 - S - I.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ddesolver import sample
from .transform import DistributedDelayDde
from .weightfn import PolynomialWeight


@dataclass(frozen=True)
class SirParameters:
    """Rates, delay density and the constant initial populations (S, I, R).

    sigma is the infection rate, theta the recovery rate (both per unit
    time, positive and finite); y0 must be componentwise nonnegative and
    finite and sum to one within 1e-14.
    """

    sigma: float
    theta: float
    weight: PolynomialWeight
    y0: tuple

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        y0 = tuple(float(v) for v in self.y0)
        if len(y0) != 3:
            raise ValueError("y0 must have three components")
        if not all(0.0 <= v < math.inf for v in y0):
            raise ValueError("populations must be nonnegative and finite")
        if abs(math.fsum(y0) - 1.0) > 1e-14:
            raise ValueError("populations must sum to one")
        object.__setattr__(self, "y0", y0)


def sir_distributed(params):
    """Distributed-delay DDE of the model; the delay acts on component I."""
    sigma = params.sigma
    theta = params.theta
    y0 = np.array(params.y0)

    def rhs(t, y, z):
        # Python floats: the same IEEE arithmetic as numpy scalars, faster
        s, i = float(y[0]), float(y[1])
        si = sigma * s * i
        inflow = theta * float(z[1])
        return np.array([-si + inflow, si - theta * i, theta * i - inflow])

    def hist(t):
        return y0

    return DistributedDelayDde(dimension=3, rhs=rhs, weight=params.weight,
                               delayed_components=frozenset({1}),
                               history=hist)


def sir_conserved(traj):
    """Largest violation of S + I + R = 1 on a 1000-point sample grid."""
    _, y = sample(traj, 1000)
    return float(np.max(np.abs(y[:, 0] + y[:, 1] + y[:, 2] - 1.0)))


def sir_equilibrium(params):
    """Representative equilibrium states (S*, I*, R*) of the model.

    Disease-free states (S*, 0, 1 - S*) are stationary for every S*; the
    first representative puts everyone in S. When theta/sigma < 1 an
    endemic equilibrium family exists with S* = theta/sigma forced and
    I* free in (0, 1 - S*]; the second representative takes half the
    non-susceptible mass, I* = (1 - S*) / 2. The auxiliary values of a
    state are stationary_aux(I*, params.weight).
    """
    points = [np.array([1.0, 0.0, 0.0])]
    s_star = params.theta / params.sigma
    if s_star < 1.0:
        i_star = 0.5 * (1.0 - s_star)
        points.append(np.array([s_star, i_star, 1.0 - s_star - i_star]))
    return points
