from dataclasses import replace
from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esocp import (
    AdmissibilityError,
    build_lattice,
    predict_return_prob,
    price_full,
    price_partial,
    regime_return_probs,
    transition_matrix,
    update_belief,
)

from conftest import BASE


def test_crr_geometry_production_size():
    lat = build_lattice(BASE, 2500)
    assert lat.h == 10.0 / 2500
    assert lat.up == pytest.approx(exp(0.30 * sqrt(0.004)), rel=1e-15)
    assert lat.dw == 1.0 / lat.up
    assert lat.up * lat.dw == pytest.approx(1.0, abs=1e-15)


def test_node_prices_recombine():
    lat = build_lattice(BASE, 50)
    for k, j in [(0, 0), (10, 3), (50, 50), (37, 0)]:
        price = lat.level_prices(k)[j]
        assert price * lat.up * lat.dw == pytest.approx(price, rel=1e-12)
    # an up-down round trip comes back to the same price
    assert lat.level_prices(12)[6] == pytest.approx(lat.level_prices(10)[5], rel=1e-12)


def test_level_prices_increasing():
    lat = build_lattice(BASE, 40)
    for k in (1, 7, 40):
        assert np.all(np.diff(lat.level_prices(k)) > 0)


# BASE at N = 1 .. 25,000, the 100-year insider's lattice, and a lattice
# whose top prices overflow to inf
LADDER_CASES = [pytest.param(BASE, n, id=f"N{n}") for n in (1, 50, 500, 2500, 25000)] + [
    pytest.param(replace(BASE, maturity=100.0), 25000, id="T100-N25000"),
    pytest.param(replace(BASE, sigma=2.0, maturity=100.0), 1500, id="overflow-N1500"),
]


@pytest.mark.parametrize("params, n", LADDER_CASES)
def test_level_prices_equal_the_power_formula_bit_for_bit(params, n):
    # the parity ladders the lattice builds once give each step the very
    # floats spot*up**(2j - k) computed on their own
    lat = build_lattice(params, n)
    ks = range(n + 1) if n <= 2500 else sorted({*range(0, n + 1, 997), 1, 2, n // 2, n - 2, n - 1, n})
    with np.errstate(over="ignore"):
        for k in ks:
            want = lat.spot * lat.up ** (2.0 * np.arange(k + 1) - k)
            assert lat.level_prices(k).tobytes() == want.tobytes(), k
    assert [ladder.size for ladder in lat.prices] == [n + 1, n]
    assert lat.disc == exp(-params.r * lat.h)


def test_node_prices_are_read_only():
    # every run of a price_full_roots group reads these same arrays, and every
    # result keeps them
    lat = build_lattice(BASE, 50)
    for view in (*lat.prices, lat.level_prices(0), lat.level_prices(17), lat.level_prices(50)):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
    assert np.isinf(build_lattice(replace(BASE, sigma=2.0, maturity=100.0), 1500).prices[0][-1])


def test_degenerate_volatility_limit():
    p = replace(BASE, sigma=1e-10)
    lat = build_lattice(p, 1)
    assert lat.up == pytest.approx(1.0, abs=1e-9)
    assert lat.dw == pytest.approx(1.0, abs=1e-9)


def test_zero_steps_rejected():
    with pytest.raises(ValueError):
        build_lattice(BASE, 0)


def test_transition_matrix_no_switching():
    q = transition_matrix(0.0, 0.004)
    assert (q.q00, q.q01) == (1.0, 0.0)
    with pytest.raises(ValueError, match="lambda must be non-negative"):
        transition_matrix(-0.1, 0.004)
    for h in (0.0, -0.004):
        with pytest.raises(ValueError, match="step length must be positive"):
            transition_matrix(0.1, h)


def test_transition_matrix_values():
    q = transition_matrix(0.10, 0.004)
    assert q.q00 == pytest.approx(exp(-0.0004), rel=1e-15)
    assert q.q01 == pytest.approx(1.0 - exp(-0.0004), rel=1e-12)
    assert q.q00 + q.q01 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("lam", [0.0, 0.1, 5.0])
def test_switched_state_is_absorbing(lam):
    # the chain stores no row for state 1: the filter keeps a certain switch
    # certain and predicts regime 1's own moves there
    q = transition_matrix(lam, 0.02)
    p = regime_return_probs(BASE, build_lattice(BASE, 500))
    for up, p1 in ((True, p.p_up1), (False, p.p_dw1)):
        assert update_belief(1.0, up, q, p) == 1.0
        assert predict_return_prob(1.0, q, p, up) == p1


def test_return_probs_default_convention():
    lat = build_lattice(BASE, 2500)
    p = regime_return_probs(BASE, lat)
    up, dw = lat.up, lat.dw
    assert p.p_up0 == pytest.approx((exp(0.02 * 0.004) - dw) / (up - dw), rel=1e-14)
    assert p.p_up1 == pytest.approx((exp(-0.02 * 0.004) - dw) / (up - dw), rel=1e-14)
    assert p.p_up0 + p.p_dw0 == pytest.approx(1.0, abs=1e-15)


def test_return_probs_half_variance_drift():
    # mu = sigma^2/2 makes the log-return mean zero; up-probability just above 1/2
    p = replace(BASE, mu0=0.30**2 / 2)
    lat = build_lattice(p, 2500)
    probs = regime_return_probs(p, lat)
    up, dw = lat.up, lat.dw
    expected = (exp(0.30**2 * 0.004 / 2) - dw) / (up - dw)
    assert probs.p_up0 == pytest.approx(expected, rel=1e-14)
    assert 0.5 < probs.p_up0 < 0.51


def test_moment_matching_identity():
    # defining property of the default convention: E[return] = exp(mu*h)
    lat = build_lattice(BASE, 613)
    p = regime_return_probs(BASE, lat)
    for p_up, mu in ((p.p_up0, BASE.mu0), (p.p_up1, BASE.mu1)):
        grown = p_up * lat.up + (1.0 - p_up) * lat.dw
        assert grown == pytest.approx(exp(mu * lat.h), rel=1e-14)


def test_literal_exponent_flag():
    lat = build_lattice(BASE, 2500)
    p = regime_return_probs(replace(BASE, literal_exponent=True), lat)
    up, dw = lat.up, lat.dw
    assert p.p_up0 == pytest.approx((exp(0.02 * sqrt(0.004)) - dw) / (up - dw), rel=1e-14)


def test_inadmissible_drift_rejected_with_max_h():
    # drift strong enough that exp(mu*h) exceeds the up factor
    lat = build_lattice(BASE, 4)  # h = 2.5
    bad = replace(BASE, mu0=BASE.sigma / sqrt(lat.h) * 1.01)
    with pytest.raises(AdmissibilityError, match="admissible h"):
        regime_return_probs(bad, lat)


def test_up_factor_overflow_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match=r"up factor exp\(sigma\*sqrt\(h\)\) = exp\(948.683\) overflows"):
        build_lattice(replace(BASE, sigma=300.0), 1)


@pytest.mark.parametrize("price", [lambda p: price_full(p, 5), lambda p: price_partial(p, 5, 3)])
def test_up_factor_that_rounds_to_one_is_a_value_error_naming_it(price):
    # exp(sigma*sqrt(h)) == 1.0 leaves up - dw == 0 in every move probability
    with pytest.raises(ValueError, match=r"up factor exp\(sigma\*sqrt\(h\)\) = exp\(1.41421e-300\) rounds to 1.0"):
        price(replace(BASE, sigma=1e-300))


def test_discount_factor_overflow_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match=r"discount factor exp\(-r\*h\) = exp\(10000\) overflows"):
        build_lattice(replace(BASE, r=-1000.0), 1)


@pytest.mark.parametrize("literal", [False, True])
def test_growth_factor_overflow_is_a_value_error_naming_it(literal):
    lat = build_lattice(BASE, 1)  # h = 10: mu*h and mu*sqrt(h) both overflow exp
    with pytest.raises(ValueError, match=r"growth factor of regime 0 \(mu=1000.0\) = exp\(.*\) overflows"):
        regime_return_probs(replace(BASE, mu0=1000.0, mu1=0.0, literal_exponent=literal), lat)


def test_joint_transitions_absorption_and_no_switch():
    lat = build_lattice(BASE, 2500)
    p = regime_return_probs(BASE, lat)
    # without switching a fresh regime moves by its own law and stays
    fresh = transition_matrix(0.0, lat.h)
    qi0, qi1 = fresh.q00, fresh.q01
    assert qi1 == 0.0
    assert (p.p_up0 * qi0, p.p_dw0 * qi0) == (p.p_up0, p.p_dw0)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(0.0, 5.0),
    h=st.floats(1e-4, 1.0),
    mu0=st.floats(-0.3, 0.3),
    gap=st.floats(1e-3, 0.3),
    sigma=st.floats(0.05, 0.8),
    regime=st.integers(0, 1),
)
def test_joint_transition_mass_sums_to_one(lam, h, mu0, gap, sigma, regime):
    p = replace(BASE, mu0=mu0, mu1=mu0 - gap, sigma=sigma, lam=lam,
                maturity=h * 10, spot=100.0)
    lat = build_lattice(p, 10)
    q = transition_matrix(lam, lat.h)
    try:
        probs = regime_return_probs(p, lat)
    except AdmissibilityError:
        return
    # the one-step law of (move, next regime): next regime j from the row, then
    # its move; row 1 of the chain is (0, 1), since the switch is absorbing
    qi0, qi1 = (q.q00, q.q01) if regime == 0 else (0.0, 1.0)
    mass = (probs.p_up0 * qi0, probs.p_dw0 * qi0, probs.p_up1 * qi1, probs.p_dw1 * qi1)
    assert all(pr >= 0.0 for pr in mass)
    assert sum(mass) == pytest.approx(1.0, abs=1e-14)
