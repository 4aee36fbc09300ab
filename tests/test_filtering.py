from dataclasses import replace
from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esocp import (
    ModelParams,
    build_grid,
    build_lattice,
    likelihood_ratio_quadrature,
    predict_return_prob,
    regime_return_probs,
    transition_matrix,
    update_belief,
)
from esocp.model import derived

from conftest import BASE
from reference import euler_likelihood_ratio

N_STEPS = 2500


@pytest.fixture(scope="module")
def chain():
    lat = build_lattice(BASE, N_STEPS)
    q = transition_matrix(BASE.lam, lat.h)
    p = regime_return_probs(BASE, lat)
    return q, p


def test_predict_pure_regimes(chain):
    q, p = chain
    q0 = transition_matrix(0.0, 0.004)
    assert predict_return_prob(0.0, q0, p, True) == p.p_up0
    assert predict_return_prob(0.0, q0, p, False) == p.p_dw0
    assert predict_return_prob(1.0, q, p, True) == p.p_up1
    assert predict_return_prob(1.0, q, p, False) == p.p_dw1


def test_predict_formula_midpoint(chain):
    q, p = chain
    y = 0.5
    expected = p.p_up0 * (q.q00 * (1 - y)) + p.p_up1 * (q.q01 * (1 - y) + y)
    assert predict_return_prob(y, q, p, True) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("n_steps", [1, 60, 2500])
@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.1, 5.0])
def test_filter_is_the_general_two_state_filter_bit_for_bit(lam, n_steps):
    # The chain stores only row 0.  Written out with the absorbing row
    # (q10, q11) = (0, 1), the general two-state filter gives the same bits:
    # x + 0.0 * y and 1.0 * y are exact for beliefs in [0, 1].
    params = replace(BASE, lam=lam)
    lat = build_lattice(params, n_steps)
    q = transition_matrix(lam, lat.h)
    p = regime_return_probs(params, lat)
    q10, q11 = 0.0, 1.0
    for up in (True, False):
        p0, p1 = (p.p_up0, p.p_up1) if up else (p.p_dw0, p.p_dw1)
        for y in (0.0, 1.0, 1e-300, 5e-324, np.linspace(0.0, 1.0, 10001)):
            stay = p0 * (q.q00 * (1.0 - y) + q10 * y)
            switch = p1 * (q.q01 * (1.0 - y) + q11 * y)
            predicted = predict_return_prob(y, q, p, up)
            posterior = update_belief(y, up, q, p)
            if isinstance(y, float):
                assert type(predicted) is float and type(posterior) is float
                assert predicted == stay + switch
                assert posterior == switch / (stay + switch)
            else:
                assert np.array_equal(predicted, stay + switch)
                assert np.array_equal(posterior, switch / (stay + switch))


def test_predict_sums_to_one_sweep(chain):
    q, p = chain
    ys = np.linspace(0.0, 1.0, 1001)
    total = predict_return_prob(ys, q, p, True) + predict_return_prob(ys, q, p, False)
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_update_fixed_points(chain):
    q, p = chain
    assert update_belief(1.0, True, q, p) == 1.0
    assert update_belief(1.0, False, q, p) == 1.0
    q0 = transition_matrix(0.0, 0.004)
    assert update_belief(0.0, True, q0, p) == 0.0
    assert update_belief(0.0, False, q0, p) == 0.0


def test_down_moves_raise_belief(chain):
    # mu0 > mu1: a down move is evidence for the low-drift regime
    q, p = chain
    ys = np.linspace(0.0, 1.0, 1001)
    y_up = update_belief(ys, True, q, p)
    y_dw = update_belief(ys, False, q, p)
    assert np.all(y_dw >= y_up)
    interior = (ys > 0) & (ys < 1)
    assert np.all(y_dw[interior] > y_up[interior])


def test_posterior_mean_consistency(chain):
    # one-step predicted mean of the posterior = prior predictive of state 1
    q, p = chain
    ys = np.linspace(0.0, 1.0, 1001)
    lhs = predict_return_prob(ys, q, p, True) * update_belief(ys, True, q, p) + predict_return_prob(
        ys, q, p, False
    ) * update_belief(ys, False, q, p)
    rhs = q.q01 * (1.0 - ys) + ys
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 5.0),
    mu0=st.floats(-0.2, 0.3),
    gap=st.floats(1e-3, 0.3),
    up=st.booleans(),
)
def test_update_stays_in_unit_interval(y, lam, mu0, gap, up):
    p = replace(BASE, mu0=mu0, mu1=mu0 - gap, lam=lam)
    lat = build_lattice(p, 100)
    q = transition_matrix(lam, lat.h)
    probs = regime_return_probs(p, lat)
    out = update_belief(y, up, q, probs)
    assert 0.0 <= out <= 1.0


def test_grid_two_points(chain):
    q, p = chain
    g = build_grid(2, q, p)
    assert np.array_equal(g.points, [0.0, 1.0])


def test_grid_production_spacing(chain):
    q, p = chain
    g = build_grid(250, q, p)
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    assert np.allclose(np.diff(g.points), 1.0 / 249, atol=1e-15)
    assert g.points[124] == pytest.approx(124.0 / 249.0, abs=1e-15)


def test_grid_targets_inside_brackets(chain):
    q, p = chain
    g = build_grid(250, q, p)
    for target, lo, hi, w in (
        (update_belief(g.points, True, q, p), g.up_lo, g.up_hi, g.w_up),
        (update_belief(g.points, False, q, p), g.dw_lo, g.dw_hi, g.w_dw),
    ):
        assert np.all((g.points[lo] <= target + 1e-12) & (target <= g.points[hi] + 1e-12))
        assert np.all((hi == lo) | (hi == lo + 1))
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert np.all(w[hi == lo] == 0.0)


def test_grid_exact_hits_collapse_bracket():
    # the filter's fixed points (y = 0 without intensity, y = 1 always) land
    # exactly on the grid endpoints and collapse their brackets
    p0 = replace(BASE, lam=0.0)
    lat = build_lattice(p0, 100)
    q = transition_matrix(0.0, lat.h)
    probs = regime_return_probs(p0, lat)
    g = build_grid(11, q, probs)
    for lo, hi, w in ((g.up_lo, g.up_hi, g.w_up), (g.dw_lo, g.dw_hi, g.w_dw)):
        assert lo[0] == hi[0] == 0 and w[0] == 0.0
        assert lo[-1] == hi[-1] == 10 and w[-1] == 0.0
    # absorbing endpoint is an exact hit for any intensity
    gq = build_grid(11, transition_matrix(0.2, lat.h), probs)
    assert gq.up_lo[-1] == gq.up_hi[-1] == 10
    assert gq.w_up[-1] == 0.0


def test_grid_interpolate_roundtrip(chain):
    q, p = chain
    g = build_grid(17, q, p)
    values = np.sin(np.arange(17.0))
    assert g.interpolate(values, g.points[5]) == values[5]
    mid = 0.5 * (g.points[3] + g.points[4])
    assert g.interpolate(values, mid) == pytest.approx(0.5 * (values[3] + values[4]), rel=1e-12)


def test_grid_size_validation(chain):
    q, p = chain
    with pytest.raises(ValueError):
        build_grid(1, q, p)


def test_quadrature_without_intensity_is_pure_exponential():
    p = replace(BASE, lam=0.0, y0=0.25)
    rng = np.random.default_rng(5)
    dt = 1e-3
    dw = rng.standard_normal(500) * sqrt(dt)
    out = likelihood_ratio_quadrature(p, dw, dt)
    eta = derived(p).eta
    w = np.concatenate(([0.0], np.cumsum(dw)))
    t = dt * np.arange(501)
    expected = (0.25 / 0.75) * np.exp(-eta * w - 0.5 * eta**2 * t)
    assert np.max(np.abs(out.phi - expected)) < 1e-12
    assert np.all(out.phi >= 0.0)

    zero = likelihood_ratio_quadrature(replace(p, y0=0.0), dw, dt)
    assert np.all(zero.phi == 0.0)


def test_quadrature_rejects_certain_switch():
    with pytest.raises(ValueError, match="y0 = 1"):
        likelihood_ratio_quadrature(replace(BASE, y0=1.0), np.zeros(10), 0.01)


def test_quadrature_matches_euler_at_order_dt():
    dt = 1e-3
    n = 1000
    rng = np.random.default_rng(20)
    worst = 0.0
    eta, lam = derived(BASE).eta, BASE.lam
    for _ in range(20):
        dw = rng.standard_normal(n) * sqrt(dt)
        quad = likelihood_ratio_quadrature(BASE, dw, dt).phi
        euler = euler_likelihood_ratio(eta, lam, 0.0, dw, dt)
        worst = max(worst, float(np.max(np.abs(quad - euler))))
    assert worst < 1.0 * dt  # observed constant ~0.15


def test_quadrature_self_convergence_is_first_order():
    # refine the same Brownian paths; the trapezoid representation halves its
    # error when dt halves (the Euler benchmark alone would not: strong order 1/2)
    n_fine = 16_000
    t_total = 1.0
    dt_fine = t_total / n_fine
    errs = []
    for dt_factor in (16, 8):
        worst = 0.0
        rng = np.random.default_rng(99)
        for _ in range(20):
            incr = rng.standard_normal(n_fine) * sqrt(dt_fine)
            ref = likelihood_ratio_quadrature(BASE, incr, dt_fine).phi[-1]
            coarse = incr.reshape(-1, dt_factor).sum(axis=1)
            val = likelihood_ratio_quadrature(BASE, coarse, dt_fine * dt_factor).phi[-1]
            worst = max(worst, abs(val - ref))
        errs.append(worst)
    assert errs[1] <= 0.62 * errs[0]


def test_quadrature_matches_price_history_representation():
    # the ratio rewritten in terms of the stock price and its history must
    # agree pathwise with the driving-noise representation
    d = derived(BASE)
    dt = 1e-3
    n = 800
    rng = np.random.default_rng(31)
    dw = rng.standard_normal(n) * sqrt(dt)
    t = dt * np.arange(n + 1)
    wstar = np.concatenate(([0.0], np.cumsum(dw)))
    x = BASE.spot * np.exp(BASE.sigma * wstar + (BASE.mu0 - 0.5 * BASE.sigma**2) * t)

    power = -d.eta / BASE.sigma
    phi0 = 0.2 / 0.8
    integrand = np.exp(-d.kappa * t) * x**-power  # e^{kappa(t-s)}(X_t/X_s)^power split
    cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))))
    phi_from_prices = phi0 * np.exp(d.kappa * t) * (x / BASE.spot) ** power + BASE.lam * np.exp(
        d.kappa * t
    ) * x**power * cum

    params = replace(BASE, y0=0.2)
    phi = likelihood_ratio_quadrature(params, dw, dt).phi
    scale = np.maximum(1.0, np.abs(phi))
    assert np.max(np.abs(phi - phi_from_prices) / scale) < 1e-10
