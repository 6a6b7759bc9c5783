"""How fast does the quadrature discretisation converge?

The equivalent two-delay system is exact, so it serves as the reference.
Each m-node quadrature DDE is solved with identical tolerances and the
maximum difference over a 1000-point grid is recorded per component.
The differences fall fast over the first few m, but the convergence is
algebraic, not exponential: beyond m of about 4 they shrink like m^-2.6,
because y has a kink at t = 0 under the constant history, and a Gaussian
rule converges only algebraically while the kink lies inside the delay
window. S and R differences track each other closely; I moves less and
differs less, and its difference levels off at the error of the
reference solve itself.

If matplotlib is installed, a semi-log plot of the differences is saved.
"""

from polydelay import cli

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

config = cli.assemble_config("case-i")
m_values = list(range(1, 9))
print("case (i), reference = equivalent system, rtol 1e-6, atol 1e-8")
diffs, reference_steps = cli.run_convergence(config, m_values)
print("reference solve: %d steps" % reference_steps)
print()
print("  m   max|dS|      max|dI|      max|dR|")
for m, (ds_m, di_m, dr_m) in zip(m_values, diffs):
    print("  %d   %.5e  %.5e  %.5e" % (m, ds_m, di_m, dr_m))

ds = diffs[:, 0]
print()
print("S difference shrinks %.0fx from m=1 to m=6; beyond m = 4 it falls"
      % (ds[0] / ds[5]))
print("only algebraically, about like m^-2.6 (the kink of y at t = 0).")

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for k, (name, marker) in enumerate((("S", "o"), ("I", "s"), ("R", "^"))):
        ax.semilogy(m_values, diffs[:, k], marker=marker, label=name)
    ax.set_xlabel("quadrature nodes m")
    ax.set_ylabel("max difference vs equivalent system")
    ax.legend()
    fig.tight_layout()
    fig.savefig("convergence_case_i.png", dpi=120)
    print()
    print("wrote convergence_case_i.png")
else:
    print()
    print("matplotlib not installed; skipping the plot")
