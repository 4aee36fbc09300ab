"""Acceptance gate.

One test per criterion; each prints a single [criterion NN] PASS/FAIL line
(run with -s or look at captured output).  Heavy production-resolution runs
are shared through the session fixtures in conftest.
"""

from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

from esocp import (
    ModelParams,
    NoFiniteBoundary,
    build_lattice,
    likelihood_ratio_quadrature,
    predict_return_prob,
    price_european_reference,
    price_full,
    price_partial,
    price_partial_exact,
    regime_return_probs,
    solve_perpetual,
    transition_matrix,
    update_belief,
    verify_odes,
)
from esocp.model import derived
from esocp.perpetual import _threshold_residual

from conftest import BASE, PRODUCTION_L, PRODUCTION_N
from reference import crr_american_call, euler_likelihood_ratio

MC_SEED = 1
MC_PATHS = 100_000
MC_N = 500
MC_L = 101


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


# Printed one-decimal values this pricing study must reproduce:
# (sigma, mu1) -> (v0, v1, u(0), u(0.5)) at mu0=2%, lambda=10%, N=2500, L=250.
TABLE_CELLS = {
    (0.20, -0.02): (26.0, 15.4, 24.6, 19.6),
    (0.20, -0.05): (24.7, 10.5, 22.1, 15.4),
    (0.20, -0.10): (23.7, 6.4, 19.8, 11.7),
    (0.30, -0.02): (35.8, 24.7, 34.7, 29.3),
    (0.30, -0.05): (34.1, 18.5, 32.0, 24.5),
    (0.30, -0.10): (32.6, 12.5, 29.1, 19.4),
}
# High-drift corner of the same table, as an off-base cross-check.
EXTRA_CELL = ((0.18, -0.02, 0.20), (223.3, 15.4, 211.0, 111.4))


def test_criterion_01_comparative_statics_table(full_base, partial_base):
    worst = 0.0
    for (sigma, mu1), target in TABLE_CELLS.items():
        if (sigma, mu1) == (BASE.sigma, BASE.mu1):
            full, partial = full_base, partial_base
        else:
            cell = replace(BASE, sigma=sigma, mu1=mu1)
            full = price_full(cell, PRODUCTION_N, keep_boundaries=False)
            partial = price_partial(cell, PRODUCTION_N, PRODUCTION_L)
        got = (full.v0_root, full.v1_root, partial.root_at(0.0), partial.root_at(0.5))
        worst = max(worst, max(abs(g - t) for g, t in zip(got, target)))

    (mu0, mu1, sigma), target = EXTRA_CELL
    cell = replace(BASE, mu0=mu0, mu1=mu1, sigma=sigma)
    full = price_full(cell, PRODUCTION_N, keep_boundaries=False)
    partial = price_partial(cell, PRODUCTION_N, PRODUCTION_L)
    got = (full.v0_root, full.v1_root, partial.root_at(0.0), partial.root_at(0.5))
    worst = max(worst, max(abs(g - t) for g, t in zip(got, target)))

    _report(
        1,
        worst <= 0.15,
        f"7 table cells reproduced under the default drift convention, "
        f"worst |deviation| = {worst:.3f} (tolerance 0.15)",
    )


def test_criterion_02_absorption_identity(full_base, partial_base):
    gap = abs(partial_base.root_at(1.0) - full_base.v1_root)
    _report(2, gap < 1e-8, f"|u(y0=1) - v1| = {gap:.3e} at N=2500, L=250 (tolerance 1e-8)")


def test_criterion_03_no_switch_reduction():
    p = replace(BASE, lam=0.0)
    oracle = crr_american_call(
        p.spot, p.strike, p.r, p.mu0, p.sigma, p.maturity, PRODUCTION_N
    )
    gap_full = abs(price_full(p, PRODUCTION_N, keep_boundaries=False).v0_root - oracle)
    gap_partial = abs(price_partial(p, PRODUCTION_N, 51).root_at(0.0) - oracle)
    _report(
        3,
        gap_full <= 1e-12 and gap_partial <= 1e-12,
        f"lambda=0 reduction vs independent CRR: full gap {gap_full:.2e}, "
        f"partial gap {gap_partial:.2e} (tolerance 1e-12)",
    )


def test_criterion_04_sandwich_and_monotonicity(full_base, partial_base):
    sweep = np.linspace(0.0, 1.0, 11)
    values = np.array([partial_base.root_at(y) for y in sweep])
    sandwiched = bool(
        np.all(values >= full_base.v1_root - 1e-9) and np.all(values <= full_base.v0_root + 1e-9)
    )
    monotone = bool(np.all(np.diff(values) <= 1e-9))
    _report(
        4,
        sandwiched and monotone,
        f"v1={full_base.v1_root:.4f} <= u(y0) <= v0={full_base.v0_root:.4f} over "
        f"y0 in 0..1 and u non-increasing (tolerance 1e-9)",
    )


def test_criterion_05_exact_oracle_equivalence():
    exact = price_partial_exact(BASE, 12)
    gaps = [abs(price_partial(BASE, 12, L).root_at(BASE.y0) - exact) for L in (51, 101, 201, 501)]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    _report(
        5,
        gaps[-1] <= 0.05 and nonincreasing,
        f"N=12 grid-vs-exact gaps over L=(51,101,201,501): "
        + ", ".join(f"{g:.2e}" for g in gaps)
        + " (non-increasing, final <= 0.05)",
    )


def test_criterion_06_no_early_exercise_identity():
    # mu >= r in both regimes: engines accept the degenerate equal-drift case
    p = ModelParams(mu0=0.05, mu1=0.05, sigma=0.30, lam=0.10, r=0.025,
                    strike=100.0, maturity=10.0, spot=100.0, y0=0.0)
    n = 500
    full = price_full(p, n)
    gap_full = max(
        abs(full.v0_root - price_european_reference(p, n, regime=0)),
        abs(full.v1_root - price_european_reference(p, n, regime=1)),
    )
    boundaries_inf = bool(
        np.all(np.isinf(full.boundary(0)[:n])) and np.all(np.isinf(full.boundary(1)[:n]))
    )
    partial = price_partial(p, n, MC_L, keep_surface=True)
    euro = np.array(
        [price_european_reference(p, n, y0=y) for y in partial.grid.points]
    )
    gap_partial = float(np.max(np.abs(partial.root_layers - euro)))
    surface_inf = bool(np.all(np.isinf(partial.surface[:n])))
    _report(
        6,
        gap_full <= 1e-9 and gap_partial <= 1e-9 and boundaries_inf and surface_inf,
        f"mu0=mu1=5%>=r: American==European (full {gap_full:.2e}, partial "
        f"{gap_partial:.2e}, tolerance 1e-9); all pre-maturity thresholds infinite",
    )


def test_criterion_07_perpetual_closed_form():
    sol = solve_perpetual(BASE)
    assert not isinstance(sol, NoFiniteBoundary)
    quad = abs(
        0.5 * BASE.sigma**2 * sol.gamma**2 + (BASE.mu1 - 0.5 * BASE.sigma**2) * sol.gamma - BASE.r
    )
    k = BASE.strike
    root_res = abs(_threshold_residual(sol.x0, sol.A, sol.B, sol.D, sol.beta, sol.delta, k, sol.x1)) / sol.x0
    ratio_d = (sol.x1 / sol.x0) ** sol.delta
    ratio_b = (sol.x1 / sol.x0) ** sol.beta
    matching = max(
        abs(sol.C - ((1 - sol.A) * sol.x0 - (k + sol.B) - sol.D * ratio_d))
        / max(1.0, abs(sol.C)),
        abs(sol.beta * sol.C - ((1 - sol.A) * sol.x0 + sol.delta * sol.D * ratio_d))
        / max(1.0, abs(sol.beta * sol.C)),
        abs(sol.E * (sol.x1 - k) + sol.F - (sol.A * sol.x1 + sol.B + sol.C * ratio_b + sol.D))
        / max(1.0, abs(sol.E * (sol.x1 - k) + sol.F)),
        abs(
            sol.E * (sol.x1 - k) * sol.gamma
            + sol.beta * sol.F
            - (sol.A * sol.x1 + sol.beta * sol.C * ratio_b - sol.delta * sol.D)
        )
        / max(1.0, abs(sol.E * (sol.x1 - k) * sol.gamma + sol.beta * sol.F)),
    )
    xs_low = np.linspace(1.0, sol.x1 * 0.999, 100)
    xs_mid = np.linspace(sol.x1 * 1.001, sol.x0 * 0.999, 100)
    scale = max(1.0, float(np.max(np.abs(sol.v0(xs_mid)))))
    ode = max(verify_odes(sol, xs_low), verify_odes(sol, xs_mid))

    horizon = replace(BASE, maturity=100.0)
    lattice = price_full(horizon, 25_000, keep_boundaries=False)
    rel0 = abs(lattice.v0_root - sol.v0(BASE.spot)) / sol.v0(BASE.spot)
    rel1 = abs(lattice.v1_root - sol.v1(BASE.spot)) / sol.v1(BASE.spot)

    ok = (
        quad < 1e-12
        and root_res < 1e-10
        and matching < 1e-9
        and ode < 1e-8 * scale
        and rel0 < 0.02
        and rel1 < 0.02
    )
    _report(
        7,
        ok,
        f"quadratic {quad:.1e}<1e-12, threshold eqn {root_res:.1e}<1e-10, "
        f"matching {matching:.1e}<1e-9, ODE {ode:.1e}<{1e-8 * scale:.1e}, "
        f"T=100 lattice vs closed form {max(rel0, rel1):.2%}<2%",
    )


def test_criterion_08_filter_properties():
    lat = build_lattice(BASE, PRODUCTION_N)
    q = transition_matrix(BASE.lam, lat.h)
    p = regime_return_probs(BASE, lat)
    ys = np.linspace(0.0, 1.0, 1001)
    pu = predict_return_prob(ys, q, p, True)
    pd = predict_return_prob(ys, q, p, False)
    sum_gap = float(np.max(np.abs(pu + pd - 1.0)))
    yu = update_belief(ys, True, q, p)
    yd = update_belief(ys, False, q, p)
    mean_gap = float(np.max(np.abs(pu * yu + pd * yd - (q.q01 * (1 - ys) + ys))))
    monotone = bool(np.all(yd >= yu))

    # quadrature vs Euler benchmark on 100 seeded paths, refined in lockstep;
    # the reference grid sits 32x below the finest tested level so its own
    # error does not pollute the measured ratios
    eta = derived(BASE).eta
    rng = np.random.default_rng(2024)
    n_ref = 320_000
    t_total = 1.0
    dt_ref = t_total / n_ref
    euler_gap_max = {}
    euler_gap_sum = {}
    quad_err = {}
    for i in range(100):
        fine = rng.standard_normal(n_ref) * sqrt(dt_ref)
        ref = likelihood_ratio_quadrature(BASE, fine, dt_ref).phi[-1]
        for factor in (64, 32):  # dt = 2e-4 and 1e-4
            dt = dt_ref * factor
            dw = fine.reshape(-1, factor).sum(axis=1)
            quad = likelihood_ratio_quadrature(BASE, dw, dt).phi
            euler = euler_likelihood_ratio(eta, BASE.lam, 0.0, dw, dt)
            gap = float(np.max(np.abs(quad - euler)))
            euler_gap_max[dt] = max(euler_gap_max.get(dt, 0.0), gap)
            euler_gap_sum[dt] = euler_gap_sum.get(dt, 0.0) + gap
            quad_err[dt] = max(quad_err.get(dt, 0.0), abs(quad[-1] - ref))
    dt_c, dt_f = 2e-4, 1e-4
    c_observed = euler_gap_max[dt_f] / dt_f
    quad_ratio = quad_err[dt_f] / quad_err[dt_c]
    euler_ratio = euler_gap_sum[dt_f] / euler_gap_sum[dt_c]
    # The quadrature itself converges at first order (ratio ~ 0.5).  The gap
    # to the Euler benchmark shrinks only at Euler's strong order 1/2 (mean
    # ratio ~ 0.71 structurally); see the decisions ledger.
    convergence_ok = (
        quad_ratio <= 0.60 and euler_ratio <= 0.80 and euler_gap_max[dt_f] <= 1.0 * dt_f
    )

    ok = sum_gap <= 1e-14 and mean_gap <= 1e-12 and monotone and convergence_ok
    _report(
        8,
        ok,
        f"move-prob sum gap {sum_gap:.1e}<=1e-14, posterior-mean gap {mean_gap:.1e}<=1e-12, "
        f"y_dw>=y_up everywhere; |quad-Euler|<=C*dt with C={c_observed:.3f}; "
        f"quadrature halving ratio {quad_ratio:.2f} (order 1), Euler-gap ratio "
        f"{euler_ratio:.2f} (order 1/2)",
    )


def test_criterion_09_monte_carlo_consistency():
    from esocp.simulate import aggregate_stats, replay_batch

    worst_z = 0.0
    details = []
    for y0 in (0.0, 0.5):
        p = replace(BASE, y0=y0)
        full = price_full(p, MC_N)
        partial = price_partial(p, MC_N, MC_L, keep_surface=True)
        table = aggregate_stats(
            replay_batch(full, partial, MC_PATHS, MC_SEED, (y0,)), full.lattice.h
        )
        insider, outsider = table.agents
        v_target = (1 - y0) * full.v0_root + y0 * full.v1_root
        u_target = partial.root_at(y0)
        z_in = (insider.mean_payoff - v_target) / insider.se_payoff
        z_out = (outsider.mean_payoff - u_target) / outsider.se_payoff
        worst_z = max(worst_z, abs(z_in), abs(z_out))
        details.append(f"y0={y0:g}: z_insider={z_in:+.2f}, z_outsider={z_out:+.2f}")

    # determinism: identical substreams give bit-identical outcomes
    p = replace(BASE, y0=0.0)
    full = price_full(p, MC_N)
    partial = price_partial(p, MC_N, MC_L, keep_surface=True)
    a = replay_batch(full, partial, 2000, MC_SEED, (0.0,), chunk_size=333)
    b = replay_batch(full, partial, 2000, MC_SEED, (0.0,), chunk_size=2000)
    deterministic = all(
        np.array_equal(a[k].payoff, b[k].payoff)
        and np.array_equal(a[k].exercise_step, b[k].exercise_step)
        for k in a
    )
    _report(
        9,
        worst_z <= 3.0 and deterministic,
        f"replayed policies vs DP roots at {MC_PATHS} paths: "
        + "; ".join(details)
        + " (|z|<=3); reruns bit-identical",
    )


def test_criterion_10_convergence(full_base, partial_base):
    full_half = price_full(BASE, 1250, keep_boundaries=False)
    partial_half = price_partial(BASE, 1250, PRODUCTION_L)
    partial_fine_grid = price_partial(BASE, PRODUCTION_N, 300)
    d_n = [
        abs(full_base.v0_root - full_half.v0_root),
        abs(full_base.v1_root - full_half.v1_root),
        abs(partial_base.root_at(0.0) - partial_half.root_at(0.0)),
        abs(partial_base.root_at(0.5) - partial_half.root_at(0.5)),
    ]
    d_l = [
        abs(partial_fine_grid.root_at(0.0) - partial_base.root_at(0.0)),
        abs(partial_fine_grid.root_at(0.5) - partial_base.root_at(0.5)),
    ]
    _report(
        10,
        max(d_n) < 0.1 and max(d_l) < 0.05,
        f"N-refinement deltas {', '.join(f'{d:.4f}' for d in d_n)} (<0.1); "
        f"L-refinement deltas {', '.join(f'{d:.4f}' for d in d_l)} (<0.05)",
    )
