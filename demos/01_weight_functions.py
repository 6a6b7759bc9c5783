"""Polynomial delay densities.

A delay distribution on [a, b] enters the solver as a plain polynomial
with exact normalisation. This walk-through builds the two beta-shaped
densities used by the SIR experiments, inspects their moments, and shows
the rescaling that maps the support onto [a/b, 1].
"""

import numpy as np

import polydelay as pdl


def describe(name, w):
    print("%s: degree %d on [%g, %g]" % (name, w.degree, w.a, w.b))
    print("  coefficients:", ", ".join("%.6g" % c for c in w.coeffs))
    print("  mass    = %.15f" % pdl.moment(w, 0))
    print("  mean    = %.15f" % pdl.moment(w, 1))
    var = pdl.moment(w, 2) - pdl.moment(w, 1) ** 2
    print("  st.dev. = %.15f" % np.sqrt(var))


uniform = pdl.beta_polynomial(0, 1, 0, 0)
case_i = pdl.beta_polynomial(30, 150, 2, 2)
case_ii = pdl.beta_polynomial(150, 250, 2, 2)

describe("uniform", uniform)
describe("exponents p = q = 2 (Beta(3,3)) case (i)", case_i)
describe("exponents p = q = 2 (Beta(3,3)) case (ii)", case_ii)

print()
print("density profile of case (i), sampled across the support:")
for tau in np.linspace(30, 150, 9):
    bar = "#" * int(round(pdl.evaluate(case_i, tau) / 0.015625 * 40))
    print("  g(%6.1f) = %.6f %s" % (tau, pdl.evaluate(case_i, tau), bar))

print()
print("rescaling case (i) onto [a/b, 1] preserves shape and degree:")
scaled = pdl.rescale_to_unit(case_i)
print("  support [%g, %g], degree %d" % (scaled.a, scaled.b, scaled.degree))
print("  mean moves from %.1f to %.3f (= 90/150)"
      % (pdl.moment(case_i, 1), pdl.moment(scaled, 1)))
