"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL verdict line with the measured quantity and asserting
at the stated tolerance. Criterion 7 covers two experiment cases, so it
is split into one verdict per case. Runtime bounds are timed around the
work of each criterion, including any shared solve it triggers first."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import polydelay as pdl
from polydelay import cli


def _verdict(label, ok, detail):
    print("%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_01_quadrature_exactness():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    with _Timer() as tm:
        worst = 0.0
        for m in range(1, 9):
            rule = pdl.gauss_jacobi(m, 2, 2, 30, 150)
            for i in range(2 * m):
                exact = pdl.moment(w, i)
                approx = pdl.apply(rule, lambda t, i=i: t ** i)
                worst = max(worst, abs(approx - exact) / abs(exact))
    ok = worst <= 1e-10 and tm.elapsed < 1.0
    _verdict("criterion 01 quadrature exactness", ok,
             "max relative moment error %.3e <= 1e-10 for m=1..8, "
             "i<=2m-1; %.2fs" % (worst, tm.elapsed))
    assert worst <= 1e-10
    assert tm.elapsed < 1.0


def test_criterion_02_mean_node_identity():
    with _Timer() as tm:
        node_i = pdl.gauss_jacobi(1, 2, 2, 30, 150).nodes[0]
        node_ii = pdl.gauss_jacobi(1, 2, 2, 150, 250).nodes[0]
        err = max(abs(node_i - 90.0), abs(node_ii - 200.0))
    ok = err <= 1e-10 and tm.elapsed < 1.0
    _verdict("criterion 02 mean-node identity", ok,
             "single nodes %.12f and %.12f, max deviation %.3e <= 1e-10; "
             "%.2fs" % (node_i, node_ii, err, tm.elapsed))
    assert err <= 1e-10
    assert tm.elapsed < 1.0


def test_criterion_03_aux_derivative_identity():
    # x_i(t) for y = sin t by 32-node quadrature; the chain rule identity
    # x_i' = a^i y(t-a) - b^i y(t-b) + i x_{i-1} is checked by central
    # differences
    a, b = 0.5, 2.0
    rule = pdl.gauss_legendre(32, a, b)
    span = b - a

    def x(i, t):
        if i < 0:
            return 0.0
        return span * math.fsum(
            wk * math.sin(t - tau) * tau ** i
            for tau, wk in zip(rule.nodes, rule.weights))

    with _Timer() as tm:
        delta = 1e-5
        worst = 0.0
        for i in range(5):
            for t in (3.0, 5.0, 7.0):
                numeric = (x(i, t + delta) - x(i, t - delta)) / (2 * delta)
                formula = (a ** i * math.sin(t - a)
                           - b ** i * math.sin(t - b) + i * x(i - 1, t))
                worst = max(worst, abs(numeric - formula))
    ok = worst <= 1e-6 and tm.elapsed < 1.0
    _verdict("criterion 03 auxiliary derivative identity", ok,
             "max |finite difference - formula| %.3e <= 1e-6 for i=0..4, "
             "t in {3,5,7}; %.2fs" % (worst, tm.elapsed))
    assert worst <= 1e-6
    assert tm.elapsed < 1.0


def test_criterion_04_initial_and_stationary_formulas():
    with _Timer() as tm:
        worst = 0.0
        for a, b in ((30.0, 150.0), (150.0, 250.0)):
            w = pdl.beta_polynomial(a, b, 2, 2)
            y0 = 0.01
            vals = pdl.aux_initial_values(lambda t: y0, w)
            stat = pdl.stationary_aux(y0, w)
            for i in range(5):
                closed = y0 * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                worst = max(worst, abs(vals[i] - closed) / closed)
                worst = max(worst, abs(stat[i] - closed) / closed)
    ok = worst <= 1e-12 and tm.elapsed < 1.0
    _verdict("criterion 04 initial/stationary closed forms", ok,
             "max relative deviation %.3e <= 1e-12 for both delay "
             "intervals; %.2fs" % (worst, tm.elapsed))
    assert worst <= 1e-12
    assert tm.elapsed < 1.0


def test_criterion_05_equivalence_recomputation(request):
    with _Timer() as tm:
        run = request.getfixturevalue("case_i_equivalent")
        wa, wb = run.base.weight.a, run.base.weight.b
        rule = pdl.gauss_legendre(32, wa, wb)
        span = wb - wa
        n = run.system.degree
        worst = 0.0
        for tc in np.linspace(1.0, run.horizon, 50):
            state = pdl.dense_eval(run.traj, tc)
            past = pdl.dense_eval(run.traj, tc - rule.nodes)[:, 1]
            powers = np.ones_like(past)
            for i in range(n + 1):
                recomputed = span * float(np.dot(rule.weights,
                                                 past * powers))
                worst = max(worst, abs(recomputed - state[3 + i])
                            / abs(state[3 + i]))
                powers = powers * rule.nodes
    ok = worst <= 1e-4 and tm.elapsed < 30.0
    _verdict("criterion 05 equivalence of auxiliary states", ok,
             "max relative discrepancy %.3e <= 1e-4 at 50 checkpoints; "
             "%.2fs" % (worst, tm.elapsed))
    assert worst <= 1e-4
    assert tm.elapsed < 30.0


def test_criterion_06_conservation(request):
    with _Timer() as tm:
        runs = [request.getfixturevalue(name) for name in (
            "case_i_equivalent", "case_ii_equivalent",
            "case_i_quadrature", "case_ii_quadrature")]
        worst = max(pdl.sir_conserved(run.traj) for run in runs)
    ok = worst <= 1e-6 and tm.elapsed < 60.0
    _verdict("criterion 06 conservation", ok,
             "max |S+I+R-1| %.3e <= 1e-6 over both cases and both "
             "variants; %.2fs" % (worst, tm.elapsed))
    assert worst <= 1e-6
    assert tm.elapsed < 60.0


def test_criterion_07_case_i_stationary_approach(request):
    with _Timer() as tm:
        run = request.getfixturevalue("case_i_equivalent")
        s_end = float(pdl.dense_eval(run.traj, run.horizon)[0])
        # the stored derivative is per unit scaled time; dividing by b
        # gives the rate per unit original time
        rate = float(np.max(np.abs(run.traj.derivs[-1]))) / run.tfac
        s_err = abs(s_end - 0.5)
    ok = s_err <= 0.05 and rate <= 1e-4 and tm.elapsed < 60.0
    _verdict("criterion 07 case (i) stationary approach", ok,
             "S(1000) = %.5f (|S-0.5| = %.3e <= 0.05), final derivative "
             "%.3e <= 1e-4 per unit original time; %.2fs"
             % (s_end, s_err, rate, tm.elapsed))
    assert s_err <= 0.05
    assert rate <= 1e-4
    assert tm.elapsed < 60.0


def test_criterion_07_case_ii_oscillation(request):
    # The period is about 334.5 days, so a 500-day last half can hold one
    # maximum or two depending only on phase. The run goes to 2000 days,
    # sampled about once a day, so the last half spans about three periods.
    with _Timer() as tm:
        run = request.getfixturevalue("case_ii_equivalent_long")
        ts, states = pdl.sample(run.traj, 2000)
        s = states[:, 0]
        times = ts * run.tfac
        half = len(s) // 2
        peaks = [k for k in range(1, len(s) - 1)
                 if s[k] > s[k - 1] and s[k] > s[k + 1]]
        late_peaks = [k for k in peaks if k >= half]
        amplitude = float(s[half:].max() - s[half:].min())
    count_ok = len(late_peaks) >= 2
    amp_ok = amplitude >= 0.01
    ok = count_ok and amp_ok and tm.elapsed < 60.0
    peak_times = ", ".join("%.1f" % times[k] for k in peaks)
    end = run.horizon * run.tfac
    _verdict("criterion 07 case (ii) oscillation", ok,
             "%d strict maxima of S in the last half of a %.0f-day run "
             "(need >= 2; all maxima at t = %s), amplitude %.3f >= 0.01; "
             "%.2fs" % (len(late_peaks), end, peak_times, amplitude,
                        tm.elapsed))
    assert amp_ok
    assert tm.elapsed < 60.0
    assert count_ok, (
        "%d strict maxima of S in [%.0f, %.0f] days (need >= 2); "
        "all maxima at t = %s"
        % (len(late_peaks), end / 2, end, peak_times))


def test_criterion_08_convergence_study():
    with _Timer() as tm:
        config = cli.assemble_config("case-i")
        diffs, _ = cli.run_convergence(config, list(range(1, 7)))
        ds = diffs[:, 0]
        dr = diffs[:, 2]
        strictly_decreasing = all(ds[k + 1] < ds[k] for k in range(5))
        hundredfold = ds[5] <= ds[0] / 100.0
        factor_two = all(0.5 <= ds[k] / dr[k] <= 2.0 for k in range(6))
    ok = (strictly_decreasing and hundredfold and factor_two
          and tm.elapsed < 300.0)
    _verdict("criterion 08 convergence study", ok,
             "S differences %s strictly decreasing=%s, diff(6) <= "
             "diff(1)/100=%s (ratio %.0f), S/R within factor 2=%s; %.2fs"
             % (["%.2e" % v for v in ds], strictly_decreasing, hundredfold,
                ds[0] / ds[5], factor_two, tm.elapsed))
    assert strictly_decreasing
    assert hundredfold
    assert factor_two
    assert tm.elapsed < 300.0


def test_criterion_09_structure_matrix():
    with _Timer() as tm:
        worst_exp = 0.0
        worst_ratio_margin = 0.0
        for n in range(7):
            A = pdl.structure_matrix(n)
            assert np.linalg.matrix_rank(A) == n
            assert np.all(np.linalg.matrix_power(A, n + 1) == 0.0)
            if n >= 1:
                assert np.any(np.linalg.matrix_power(A, n) != 0.0)
            # geometric multiplicity one: the kernel is one-dimensional
            zero_svs = sum(1 for sv in np.linalg.svd(A)[1] if sv <= 1e-12)
            assert zero_svs == 1
            for t in (1.0, 10.0, 100.0):
                oracle = expm(t * A)
                scale = max(1.0, float(np.max(np.abs(oracle))))
                diff = float(np.max(np.abs(
                    pdl.nilpotent_exponential(A, t) - oracle))) / scale
                worst_exp = max(worst_exp, diff)
            if n >= 2:
                v = np.ones(n + 1)
                ratio = (np.linalg.norm(
                    pdl.nilpotent_exponential(A, 100.0) @ v, np.inf)
                    / np.linalg.norm(
                        pdl.nilpotent_exponential(A, 10.0) @ v, np.inf))
                margin = ratio / 10.0 ** n
                assert 0.5 <= margin <= 2.0, (
                    "growth ratio off for n=%d: %.3f x 10^n" % (n, margin))
                worst_ratio_margin = max(worst_ratio_margin,
                                         max(margin, 1.0 / margin))
    ok = worst_exp <= 1e-12 and tm.elapsed < 1.0
    _verdict("criterion 09 structure-matrix properties", ok,
             "rank/nilpotency verified for n=0..6, exponential matches "
             "the scaling-and-squaring oracle to %.3e <= 1e-12 relative, "
             "growth ratios within factor %.2f of 10^n; %.2fs"
             % (worst_exp, worst_ratio_margin, tm.elapsed))
    assert worst_exp <= 1e-12
    assert tm.elapsed < 1.0


def _benchmark_dde():
    def rhs(t, y, Z):
        return -Z[:, 0]

    return pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                                history=lambda t: np.array([1.0]))


def test_criterion_10_solver_order():
    with _Timer() as tm:
        traj = pdl.solve(_benchmark_dde(), 4.0)
        tol = 10.0 * (1e-8 + 1e-6)
        hand_t = np.array([1.0, 1.5, 2.0])
        hand_y = np.array([0.0, -0.375, -0.5])
        value_err = float(np.max(np.abs(
            pdl.dense_eval(traj, hand_t)[:, 0] - hand_y)))
        # piecewise-polynomial solution: degree grows past the pair's
        # order only for t > 3, so the order probe sits at t = 4 where
        # the exact value is 5/24
        errors = []
        for h in (2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
            opts = pdl.SolverOptions(rtol=1e-1, atol=1e6, h_max=h,
                                     h_init=h)
            fixed = pdl.solve(_benchmark_dde(), 4.0, opts)
            errors.append(abs(pdl.dense_eval(fixed, 4.0)[0] - 5.0 / 24.0))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    values_ok = value_err <= tol
    orders_ok = all(2.7 <= p <= 3.3 for p in orders)
    ok = values_ok and orders_ok and tm.elapsed < 5.0
    _verdict("criterion 10 solver order", ok,
             "hand values matched to %.3e <= %.1e; observed orders %s "
             "within [2.7, 3.3]; %.2fs"
             % (value_err, tol, ["%.3f" % p for p in orders], tm.elapsed))
    assert values_ok
    assert orders_ok
    assert tm.elapsed < 5.0


def test_criterion_11_step_counts_reported(request):
    run_i = request.getfixturevalue("case_i_equivalent")
    run_ii = request.getfixturevalue("case_ii_equivalent")
    _verdict("criterion 11 step counts (reported, not asserted)", True,
             "case (i) %d accepted + %d rejected, case (ii) %d accepted "
             "+ %d rejected; the original experiments quote 610 and 1058 "
             "steps with a different controller, so counts are reported "
             "only" % (run_i.traj.steps_taken, run_i.traj.steps_rejected,
                       run_ii.traj.steps_taken,
                       run_ii.traj.steps_rejected))
    assert run_i.traj.steps_taken > 0
    assert run_ii.traj.steps_taken > 0
