from dataclasses import replace
from math import inf, log

import numpy as np
import pytest

from esocp import build_lattice, price_european_reference, price_full

from conftest import BASE
from reference import crr_american_call, crr_european_call, full_width_price_full


def test_no_switch_reduces_to_plain_crr():
    p = replace(BASE, lam=0.0)
    result = price_full(p, 500, keep_boundaries=False)
    oracle = crr_american_call(100.0, 100.0, p.r, p.mu0, p.sigma, p.maturity, 500)
    assert abs(result.v0_root - oracle) <= 1e-12


def test_switched_tree_is_single_regime():
    # the low-drift state is absorbing, so its tree never couples back
    result = price_full(BASE, 400, keep_boundaries=False)
    oracle = crr_american_call(100.0, 100.0, BASE.r, BASE.mu1, BASE.sigma, BASE.maturity, 400)
    assert abs(result.v1_root - oracle) <= 1e-12


def test_zero_strike_exercises_immediately():
    # both drifts below r: the discounted stock is a supermartingale
    p = replace(BASE, strike=0.0)
    result = price_full(p, 100, keep_boundaries=False)
    assert result.v0_root == pytest.approx(100.0, abs=1e-12)
    assert result.v1_root == pytest.approx(100.0, abs=1e-12)


def test_no_early_exercise_when_drift_dominates_rate():
    # mu >= r in both regimes: American equals European, thresholds infinite
    p = replace(BASE, mu0=0.05, mu1=0.05)
    n = 200
    result = price_full(p, n)
    for regime in (0, 1):
        euro = price_european_reference(p, n, regime=regime)
        assert abs(result.root(regime) - euro) <= 1e-9
        assert np.all(np.isinf(result.boundary(regime)[:n]))
        assert result.boundary(regime)[n] == p.strike


def test_american_dominates_european():
    n = 300
    result = price_full(BASE, n, keep_boundaries=False)
    assert result.v0_root >= price_european_reference(BASE, n, regime=0)
    assert result.v1_root >= price_european_reference(BASE, n, regime=1)


def test_european_reference_against_plain_crr():
    p = replace(BASE, lam=0.0)
    euro = price_european_reference(p, 400, regime=1)
    oracle = crr_european_call(100.0, 100.0, p.r, p.mu1, p.sigma, p.maturity, 400)
    assert abs(euro - oracle) <= 1e-12


def test_european_belief_start_is_regime_mixture():
    e0 = price_european_reference(BASE, 150, regime=0)
    e1 = price_european_reference(BASE, 150, regime=1)
    em = price_european_reference(BASE, 150, y0=0.3)
    assert em == pytest.approx(0.7 * e0 + 0.3 * e1, rel=1e-14)
    with pytest.raises(ValueError):
        price_european_reference(BASE, 150)
    with pytest.raises(ValueError):
        price_european_reference(BASE, 150, regime=0, y0=0.5)


def test_vanishing_horizon_collapses_to_intrinsic():
    p = replace(BASE, maturity=1e-8, spot=130.0)
    assert price_european_reference(p, 1, regime=0) == pytest.approx(30.0, abs=1e-3)


# The value slices come from the full-width reference sweep, which test_sweep
# pins bit for bit against the active-window sweep's roots and boundaries.


def test_value_dominance_nodewise():
    result = full_width_price_full(BASE, 60)
    for v0, v1 in zip(result["slices0"], result["slices1"]):
        assert np.all(v0 >= v1 - 1e-12)


def test_slices_monotone_and_convex_in_price():
    result = full_width_price_full(BASE, 60)
    lat = build_lattice(BASE, 60)
    for k in range(61):
        prices = lat.level_prices(k)
        for values in (result["slices0"][k], result["slices1"][k]):
            assert np.all(np.diff(values) >= -1e-10)
            if k >= 2:
                slopes = np.diff(values) / np.diff(prices)
                assert np.all(np.diff(slopes) >= -1e-10)


def test_time_decay_at_fixed_price():
    # same parity => same node price two steps later, shifted one index up
    result = full_width_price_full(BASE, 60)
    for slices in (result["slices0"], result["slices1"]):
        for k in range(0, 59):
            now, later = slices[k], slices[k + 2]
            assert np.all(now >= later[1:-1] - 1e-10)


def test_boundaries_terminal_and_ordering():
    n = 400
    result = price_full(BASE, n)
    b0, b1 = result.boundary(0), result.boundary(1)
    assert b0[n] == BASE.strike and b1[n] == BASE.strike
    both = np.isfinite(b0) & np.isfinite(b1)
    assert np.all(b1[both] <= b0[both] + 1e-9)
    assert np.all(b0[np.isfinite(b0)] > BASE.strike - 1e-12)


def test_boundaries_nonincreasing_up_to_one_node():
    n = 400
    result = price_full(BASE, n)
    allowance = 2.0 * log(result.lattice.up) + 1e-12
    for b in (result.boundary(0), result.boundary(1)):
        fin = np.isfinite(b)
        logs = np.log(b[fin])
        assert np.all(np.diff(logs) <= allowance)

