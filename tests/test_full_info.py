from dataclasses import replace
from math import inf, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esocp import (
    NonFiniteResultError,
    _workers,
    build_lattice,
    price_european_reference,
    price_full,
    price_full_roots,
    sweep,
)
from esocp.full_info import EXERCISE_TIE_TOL, first_exercise_prices

from conftest import BASE
from reference import crr_american_call, crr_european_call, full_width_price_full


def test_no_switch_reduces_to_plain_crr():
    p = replace(BASE, lam=0.0)
    result = price_full(p, 500, keep_boundaries=False)
    oracle = crr_american_call(100.0, 100.0, p.r, p.mu0, p.sigma, p.maturity, 500)
    assert abs(result.v0_root - oracle) <= 1e-12
    with pytest.raises(ValueError, match="boundaries were not retained"):
        result.boundary(0)


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
        assert abs((result.v0_root, result.v1_root)[regime] - euro) <= 1e-9
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


@pytest.mark.parametrize("regime", [2, -1])
def test_unknown_regime_is_rejected(regime):
    with pytest.raises(ValueError, match="regime must be 0 or 1"):
        price_full(BASE, 50).boundary(regime)
    with pytest.raises(ValueError, match="regime must be 0 or 1"):
        price_european_reference(BASE, 50, regime=regime)


@pytest.mark.parametrize("y0", [1.5, -3.0, float("nan")])
def test_european_belief_outside_unit_interval_is_rejected(y0):
    # a y0 outside [0, 1] would extrapolate the regime mixture (nan used to
    # raise NonFiniteResultError, which blames node-price overflow)
    with pytest.raises(ValueError, match=r"y0 must lie in \[0, 1\]") as raised:
        price_european_reference(BASE, 50, y0=y0)
    assert not isinstance(raised.value, NonFiniteResultError)


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


def masked_first_exercise_prices(prices, strike, intrinsic, continuation):
    """The threshold with the in-the-money mask always applied and a separate any() pass."""
    tied = intrinsic >= continuation - EXERCISE_TIE_TOL * np.maximum(1.0, intrinsic)
    exercised = (prices > strike) & tied
    first = np.argmax(exercised, axis=1)
    return np.where(exercised.any(axis=1), prices[first], inf)


def test_first_exercise_prices_match_the_masked_scan():
    rng = np.random.default_rng(11)
    strike = 100.0
    for _ in range(2000):
        width = int(rng.integers(1, 12))
        # ascending prices wholly above the strike, or straddling it, or at or below it
        low = float(rng.choice([101.0, 80.0, 95.0, strike]))
        prices = np.sort(low + rng.choice([0.0, 1.0, 5.0, 20.0], size=width).cumsum())
        intrinsic = np.maximum(prices - strike, 0.0)
        shape = (int(rng.integers(1, 5)), width)
        # continuation above intrinsic (no exercise), equal to it (an exact tie),
        # just inside the tie tolerance, or below it
        offsets = rng.choice([1.0, 0.0, 0.5e-12, -1.0], size=shape)
        continuation = intrinsic + offsets * np.maximum(1.0, intrinsic)
        if rng.random() < 0.3:
            continuation[0] = intrinsic + 1.0  # a row with no exercise
        want = masked_first_exercise_prices(prices, strike, intrinsic, continuation)
        got = first_exercise_prices(prices, strike, intrinsic, continuation)
        assert np.array_equal(got, want), (prices, continuation)
        assert type(got) is type(want)


# -- runs that share a lattice, priced in one sweep ---------------------------


def alone(params, n):
    """price_full's roots of one run, or the error it raises."""
    try:
        result = price_full(params, n, keep_boundaries=False)
    except ValueError as exc:
        return exc
    return result.v0_root, result.v1_root


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w))
        else:
            assert g == w  # bit for bit


LATTICES = (BASE, replace(BASE, sigma=0.2, spot=80.0), replace(BASE, r=0.0, strike=120.0, maturity=3.0))
# mu0 above r or not, inadmissible drifts at small N, lam = 0 (no switch),
# either growth convention
RUN = st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.1), st.just(0.0) | st.floats(0.0, 3.0), st.booleans())


def group_of(lattice, drifts):
    return [
        replace(lattice, mu0=mu0, mu1=mu1, lam=lam, literal_exponent=literal)
        for mu0, mu1, lam, literal in drifts
    ]


@settings(max_examples=60, deadline=None)
@given(
    lattice=st.sampled_from(LATTICES),
    drifts=st.lists(RUN, min_size=1, max_size=6),
    n=st.integers(1, 200),
)
def test_group_roots_equal_price_full_bit_for_bit(lattice, drifts, n):
    # each run draws its own growth convention, so a group may mix them
    runs = group_of(lattice, drifts)
    got = price_full_roots(runs, n)
    assert_same_outcomes(got, [alone(p, n) for p in runs])


@settings(max_examples=20, deadline=None)
@given(
    lattice=st.sampled_from(LATTICES),
    drifts=st.sampled_from([1, 3, 5]).flatmap(lambda c: st.lists(RUN, min_size=c, max_size=c)),
    n=st.integers(1, 200),
)
def test_group_roots_never_split(lattice, drifts, n):
    # Even where every sweep may split, a group's sweep runs in this process.
    runs = group_of(lattice, drifts)
    want = [alone(p, n) for p in runs]
    splits, real = [], sweep._split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "can_fork", lambda: True)
        mp.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
        mp.setattr(sweep, "_split", lambda run: splits.append(run.n_layers) or real(run))
        got = price_full_roots(runs, n)
    assert_same_outcomes(got, want)
    assert splits == []


def test_group_with_the_overflow_run_raises_or_returns_as_each_alone():
    # The overflow run (mu0 above r, so no sure-exercise region) widens the
    # shared window to nodes priced inf, where the others' own windows stop.
    overflow = replace(BASE, sigma=2.0, maturity=100.0, mu0=0.08, lam=0.0)
    runs = [
        replace(overflow, mu0=-0.5, mu1=-0.6, lam=0.1),
        overflow,
        replace(overflow, mu0=-1.0, mu1=-1.5),
        replace(overflow, mu0=3.0),
        replace(overflow, mu0=0.0, mu1=-0.02, lam=0.3),
    ]
    with np.errstate(all="ignore"):
        want = [alone(p, 1500) for p in runs]
        got = price_full_roots(runs, 1500)
    assert [isinstance(w, NonFiniteResultError) for w in want] == [False, True, False, True, False]
    assert_same_outcomes(got, want)


def test_group_must_share_the_lattice_strike_and_rate():
    for other in (dict(sigma=0.2), dict(maturity=5.0), dict(spot=90.0), dict(strike=90.0), dict(r=0.0)):
        with pytest.raises(ValueError, match="must share"):
            price_full_roots([BASE, replace(BASE, mu0=0.05, **other)], 50)
    assert price_full_roots([], 50) == []
    # y0 is not the insider's: runs may differ in it
    assert price_full_roots([BASE, replace(BASE, y0=0.5)], 50) == [alone(BASE, 50)] * 2
