"""From a distributed delay to two discrete delays, exactly.

The integral term of a distributed-delay DDE with polynomial density is
a combination of truncated moments x_i(t) of the solution history, and
those moments close under differentiation: each x_i' involves only the
solution at the two interval endpoints plus x_{i-1}. Augmenting the
state with the x_i therefore turns the problem into an ordinary DDE with
two discrete delays, with no approximation anywhere.

This script assembles that system for the delayed SIR model, solves it,
and then verifies the exactness claim numerically: the auxiliary states
carried by the solver are recomputed from the dense output by direct
quadrature and the two agree to integration accuracy.
"""

import numpy as np

import polydelay as pdl

weight = pdl.beta_polynomial(30, 150, 2, 2)
params = pdl.SirParameters(sigma=0.1, theta=0.05, weight=weight,
                           y0=(0.99, 0.01, 0.0))

sir = pdl.sir_distributed(params)
system = pdl.build_equivalent(sir)
print("base model dimension 3, density degree %d" % system.degree)
print("equivalent system dimension %d with delays %s"
      % (system.assembled.dimension, system.assembled.delays))
print("auxiliary start values x_i(0):",
      ", ".join("%.4g" % v for v in system.assembled.history(0.0)[3:]))

print()
print("solving in rescaled time (delays become {0.2, 1})...")
base = pdl.scale_distributed(sir)
scaled = pdl.build_equivalent(base)
opts = pdl.SolverOptions(rtol=1e-6, atol=1e-8, h_max=1e-3)
traj = pdl.solve(scaled.assembled, 20.0 / 3.0, opts)
print("%d accepted steps, %d rejected"
      % (traj.steps_taken, traj.steps_rejected))

print()
print("exactness check: auxiliary states vs direct quadrature of the")
print("dense output (32-node rule), at five times:")
wa, wb = base.weight.a, base.weight.b
rule = pdl.gauss_legendre(32, wa, wb)
span = wb - wa
for tc in np.linspace(1.5, 20.0 / 3.0, 5):
    state = pdl.dense_eval(traj, tc)
    worst = 0.0
    past = pdl.dense_eval(traj, tc - rule.nodes)[:, 1]
    for i in range(scaled.degree + 1):
        direct = span * float(np.dot(rule.weights,
                                     past * np.array(rule.nodes) ** i))
        worst = max(worst, abs(direct - state[3 + i]) / abs(state[3 + i]))
    print("  t = %5.2f  max relative gap %.2e" % (tc, worst))

print()
print("stationary points of the model:")
for y in pdl.sir_equilibrium(params):
    print("  y* = (%.3f, %.3f, %.3f), x*_0 = %.4g"
          % (y[0], y[1], y[2], pdl.stationary_aux(y[1], params.weight)[0]))
found = pdl.find_stationary(sir, np.array([0.6, 0.2, 0.2]))
print("Newton search from (0.6, 0.2, 0.2) lands on y* = (%.6f, %.6f, %.6f);"
      % tuple(found))
print("the endemic equilibria form a family (S* fixed at theta/sigma, I*")
print("and R* free), and the search converges to the nearest member")

