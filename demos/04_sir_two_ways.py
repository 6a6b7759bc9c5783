"""The delayed SIR experiments, solved two ways.

Recovered individuals lose immunity after a beta-distributed delay.
Case (i) draws the delay from [30, 150] days and the solution settles
into the endemic equilibrium S = theta/sigma = 0.5; case (ii) draws it
from [150, 250] days and the solution approaches a sustained oscillation
with a period of roughly 334 days. Both cases are solved through the
exact equivalent system and through a 4-node quadrature discretisation,
and the two routes agree to integration accuracy.

If matplotlib is installed, the trajectories are saved as PNG files.
"""

import numpy as np

import polydelay as pdl

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def run_case(name, a, b, h_max):
    weight = pdl.beta_polynomial(a, b, 2, 2)
    params = pdl.SirParameters(sigma=0.1, theta=0.05, weight=weight,
                               y0=(0.99, 0.01, 0.0))
    base = pdl.scale_distributed(pdl.sir_distributed(params))
    horizon = 1000.0 / b
    opts = pdl.SolverOptions(rtol=1e-6, atol=1e-8, h_max=h_max)

    system = pdl.build_equivalent(base)
    eq = pdl.solve(system.assembled, horizon, opts)
    rule = pdl.gauss_jacobi(4, 2, 2, base.weight.a, base.weight.b)
    qd = pdl.solve(pdl.build_quadrature_dde(base, rule), horizon, opts)

    print("%s: delays drawn from [%g, %g] days" % (name, a, b))
    print("  equivalent system: %d steps, conservation %.2e"
          % (eq.steps_taken, pdl.sir_conserved(eq)))
    print("  4-node quadrature: %d steps, conservation %.2e"
          % (qd.steps_taken, pdl.sir_conserved(qd)))
    grid = np.linspace(0.0, horizon, 200)
    gap = np.max(np.abs(pdl.dense_eval(eq, grid)[:, :3]
                        - pdl.dense_eval(qd, grid)[:, :3]))
    print("  max |equivalent - quadrature| over the horizon: %.2e" % gap)
    s_end = pdl.dense_eval(eq, horizon)[0]
    print("  S(1000 days) = %.5f" % s_end)

    ts, states = pdl.sample(eq, 1000)
    t = ts * b
    y = states[:, :3]
    peaks = [k for k in range(1, 999)
             if y[k, 0] > y[k - 1, 0] and y[k, 0] > y[k + 1, 0]]
    if peaks:
        print("  S peaks at day " + ", ".join("%.0f" % t[k] for k in peaks))
    else:
        print("  S has no interior peaks (monotone approach)")
    print()
    return t, y


t1, y1 = run_case("case (i)", 30, 150, 1e-3)
t2, y2 = run_case("case (ii)", 150, 250, 5e-4)

if plt is not None:
    for label, t, y in (("case_i", t1, y1), ("case_ii", t2, y2)):
        fig, ax = plt.subplots(figsize=(8, 4.5))
        for k, name in enumerate(("S", "I", "R")):
            ax.plot(t, y[:, k], label=name)
        ax.set_xlabel("time [days]")
        ax.set_ylabel("population fraction")
        ax.legend()
        ax.set_title("delayed SIR, %s" % label.replace("_", " "))
        fig.tight_layout()
        out = "sir_%s.png" % label
        fig.savefig(out, dpi=120)
        print("wrote %s" % out)
else:
    print("matplotlib not installed; skipping the plots")
