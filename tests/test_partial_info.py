import subprocess
import sys
from dataclasses import replace
from math import exp, log
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import esocp
from esocp import (
    AdmissibilityError,
    ModelParams,
    build_lattice,
    predict_return_prob,
    price_full,
    price_partial,
    price_partial_exact,
    regime_return_probs,
    transition_matrix,
)

from esocp._workers import usable_cpus

from conftest import BASE, PRODUCTION_L, PRODUCTION_N
from reference import crr_american_call, no_switch_outsider_value, tree_policy_value


def test_single_step_closed_form():
    lat = build_lattice(BASE, 1)
    q = transition_matrix(BASE.lam, lat.h)
    p = regime_return_probs(BASE, lat)
    y0 = 0.3
    pu = predict_return_prob(y0, q, p, True)
    expected = max(
        0.0,
        exp(-BASE.r * lat.h)
        * (pu * max(100.0 * lat.up - 100.0, 0.0) + (1.0 - pu) * max(100.0 * lat.dw - 100.0, 0.0)),
    )
    assert price_partial(BASE, 1, 11).root_at(y0) == pytest.approx(expected, rel=1e-14)
    assert price_partial_exact(replace(BASE, y0=y0), 1) == pytest.approx(expected, rel=1e-14)


def test_certain_switch_equals_switched_insider_tree():
    # the top belief layer runs the regime-1 recursion verbatim
    n = 300
    full = price_full(BASE, n, keep_boundaries=False)
    partial = price_partial(BASE, n, 41)
    assert abs(partial.root_at(1.0) - full.v1_root) <= 1e-12
    assert price_partial_exact(replace(BASE, y0=1.0), 12) == pytest.approx(
        price_full(BASE, 12, keep_boundaries=False).v1_root, abs=1e-12
    )


def test_no_switch_reduces_to_plain_crr():
    p = replace(BASE, lam=0.0)
    got = price_partial(p, 500, 21).root_at(0.0)
    oracle = crr_american_call(100.0, 100.0, p.r, p.mu0, p.sigma, p.maturity, 500)
    assert abs(got - oracle) <= 1e-12


def test_exact_enumeration_cap():
    with pytest.raises(ValueError, match="2\\^N"):
        price_partial_exact(BASE, 23)


def test_grid_approximation_converges_to_exact_oracle():
    exact = price_partial_exact(replace(BASE, y0=0.5), 12)
    gaps = []
    for n_belief in (3, 5, 11, 25, 51):
        approx = price_partial(BASE, 12, n_belief).root_at(0.5)
        gaps.append(abs(approx - exact))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


NO_SWITCH = replace(BASE, lam=0.0)


@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_no_switch_oracle_equals_exact_enumeration(n):
    other = replace(NO_SWITCH, mu0=0.08, mu1=-0.10, sigma=0.2, literal_exponent=True)
    for params in (NO_SWITCH, other):
        for y0 in (0.0, 0.3, 0.5, 0.9, 1.0):
            p = replace(params, y0=y0)
            assert no_switch_outsider_value(p, n) == pytest.approx(price_partial_exact(p, n), rel=1e-12, abs=0)


NO_SWITCH_BELIEFS = (0.3, 0.5, 0.9)


@pytest.fixture(scope="module")
def no_switch_exact():
    return np.array([no_switch_outsider_value(replace(NO_SWITCH, y0=y0), PRODUCTION_N) for y0 in NO_SWITCH_BELIEFS])


@pytest.fixture(scope="module")
def no_switch_grid():
    return price_partial(NO_SWITCH, PRODUCTION_N, 250).root_at(np.array(NO_SWITCH_BELIEFS))


def test_grid_is_above_the_no_switch_oracle_at_production_size(no_switch_exact, no_switch_grid):
    # the value is convex in the belief, so interpolating it between layers overstates it
    assert np.all(no_switch_grid >= no_switch_exact)


def test_grid_gap_to_the_no_switch_oracle_shrinks_with_L(no_switch_exact, no_switch_grid):
    coarse = price_partial(NO_SWITCH, PRODUCTION_N, 101).root_at(np.array(NO_SWITCH_BELIEFS))
    assert np.all(no_switch_grid - no_switch_exact < coarse - no_switch_exact)


def test_sandwich_between_insider_values():
    n = 300
    full = price_full(BASE, n, keep_boundaries=False)
    partial = price_partial(BASE, n, 101)
    for y0 in np.linspace(0.0, 1.0, 11):
        u = partial.root_at(y0)
        assert full.v1_root - 1e-9 <= u <= full.v0_root + 1e-9


def test_value_nonincreasing_in_belief():
    partial = price_partial(BASE, 300, 101)
    assert np.all(np.diff(partial.root_layers) <= 1e-9)


def test_root_interpolation_hits_grid_exactly():
    partial = price_partial(BASE, 200, 51)
    for l in (0, 7, 25, 50):
        assert partial.root_at(partial.grid.points[l]) == partial.root_layers[l]
    mid = 0.5 * (partial.grid.points[3] + partial.grid.points[4])
    lo, hi = partial.root_layers[3], partial.root_layers[4]
    assert min(lo, hi) <= partial.root_at(mid) <= max(lo, hi)


@pytest.mark.parametrize("y0", [1.5, -0.5, 1.0 + 1e-12, float("nan"), [0.2, 1.5]])
def test_root_at_rejects_beliefs_outside_unit_interval(y0):
    partial = price_partial(BASE, 50, 11)
    with pytest.raises(ValueError, match=r"y0 must lie in \[0, 1\]"):
        partial.root_at(y0)
    assert partial.root_at(1.0) == partial.root_layers[-1]
    assert partial.root_at(0.0) == partial.root_layers[0]


def test_default_start_uses_model_prior():
    # the exact oracle starts from params.y0; the grid's layers do not depend on it
    p = replace(BASE, y0=0.4)
    partial = price_partial(p, 10, 101)
    assert np.array_equal(partial.root_layers, price_partial(BASE, 10, 101).root_layers)
    assert price_partial_exact(p, 10) == pytest.approx(partial.root_at(0.4), abs=1e-9)
    assert price_partial_exact(p, 10) != pytest.approx(price_partial_exact(BASE, 10), abs=1e-3)


def test_surface_shape_and_terminal_row():
    n = 200
    surface = price_partial(BASE, n, 51, keep_surface=True).surface
    assert surface.shape == (n + 1, 51)
    assert np.all(surface[n] == BASE.strike)
    assert price_partial(BASE, n, 51).surface is None


def test_surface_monotone_in_belief():
    surface = price_partial(BASE, 300, 61, keep_surface=True).surface
    finite = np.isfinite(surface)
    for k in range(surface.shape[0]):
        row = surface[k]
        ok = finite[k, :-1] & finite[k, 1:]
        assert np.all(row[1:][ok] <= row[:-1][ok] * (1.0 + 1e-12))
        # once infinite at low belief, higher beliefs may turn finite but not
        # the other way round (threshold falls with belief)
        assert not np.any(np.isinf(row[1:]) & np.isfinite(row[:-1]))


def test_surface_certain_belief_matches_switched_boundary():
    n = 300
    full = price_full(BASE, n)
    surface = price_partial(BASE, n, 61, keep_surface=True).surface
    assert np.array_equal(surface[:, -1], full.boundary(1))


def test_surface_nonincreasing_in_time_up_to_one_node():
    result = price_partial(BASE, 300, 41, keep_surface=True)
    surface = result.surface
    allowance = 2.0 * log(result.lattice.up) + 1e-12
    for l in range(41):
        col = surface[:, l]
        fin = np.isfinite(col)
        logs = np.log(col[fin])
        assert np.all(np.diff(logs) <= allowance)


def test_retained_slice_invariants():
    n = 200
    result = price_partial(BASE, n, 51, keep_surface=True, keep_slice_at=n // 2)
    values = result.slice_values
    assert values.shape == (51, 101)
    prices = result.lattice.level_prices(100)
    intrinsic = np.maximum(prices - BASE.strike, 0.0)
    assert np.all(values >= intrinsic[None, :] - 1e-12)
    # value falls as the low-drift regime becomes more likely
    assert np.all(np.diff(values, axis=0) <= 1e-9)


def test_smooth_pasting_delta_at_production_size(partial_base):
    # one-sided discrete delta just below the boundary; O(sqrt(h)) lattice
    # error justifies the 5% slack
    result = partial_base
    k = PRODUCTION_N // 2  # the fixture's keep_slice_at
    prices = result.lattice.level_prices(k)
    checked = 0
    for l in range(result.grid.n_points):
        threshold = result.surface[k, l]
        if not np.isfinite(threshold):
            continue
        j = int(np.searchsorted(prices, threshold))
        assert prices[j] == threshold
        if j < 1:
            continue
        values = result.slice_values[l]
        delta = (values[j] - values[j - 1]) / (prices[j] - prices[j - 1])
        assert 0.95 <= delta <= 1.0 + 1e-9
        checked += 1
    assert checked > 100


def test_input_validation():
    with pytest.raises(ValueError):
        price_partial(BASE, 100, 1)
    with pytest.raises(ValueError):
        price_partial(BASE, 100, 11, keep_slice_at=100)
    with pytest.raises(ValueError):
        price_partial_exact(replace(BASE, y0=-0.2), 10)


@st.composite
def small_admissible_cases(draw):
    """Admissible parameters at N <= 16 (the exact tree has at most 2^16 leaves),
    L in [2, 60] belief layers and a start belief in [0, 1]."""
    mu1 = draw(st.floats(-0.3, 0.2))
    params = ModelParams(
        mu0=draw(st.floats(mu1 + 1e-3, 0.3)),
        mu1=mu1,
        sigma=draw(st.floats(0.05, 0.8)),
        lam=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
        r=draw(st.floats(0.0, 0.1)),
        strike=100.0,
        maturity=draw(st.floats(0.1, 10.0)),
        spot=draw(st.floats(30.0, 300.0)),
        y0=0.0,
    )
    n_steps = draw(st.integers(1, 16))
    try:
        regime_return_probs(params, build_lattice(params, n_steps))
    except AdmissibilityError:
        assume(False)
    return params, n_steps, draw(st.integers(2, 60)), draw(st.floats(0.0, 1.0))


# Rounding slack only: every inequality below holds exactly in exact arithmetic.
ORACLE_SLACK = 1e-12


@settings(max_examples=300, deadline=None)
@given(small_admissible_cases())
def test_grid_bounds_exact_from_above_and_sits_between_insider_values(case):
    # The exact outsider value is convex in the belief (for a fixed stopping
    # rule the payoff is linear in the prior), linear interpolation
    # overestimates a convex function and the sweep is monotone, so the grid
    # value is never below the exact one, at any N and L.  The grid values
    # themselves are convex in the belief: on the equidistant grid their
    # second differences are not negative.
    params, n_steps, n_belief, y0 = case
    partial = price_partial(params, n_steps, n_belief)
    layers, grid = partial.root_layers, partial.root_at(y0)
    assert np.all(np.diff(layers, 2) >= -ORACLE_SLACK * np.max(np.abs(layers)))
    exact = price_partial_exact(replace(params, y0=y0), n_steps)
    assert grid >= exact - ORACLE_SLACK * exact
    full = price_full(params, n_steps, keep_boundaries=False)
    assert full.v1_root - ORACLE_SLACK * full.v1_root <= grid <= full.v0_root + ORACLE_SLACK * full.v0_root


@pytest.mark.parametrize("params", [pytest.param(BASE, id="base"), pytest.param(replace(BASE, lam=2.0), id="lam2")])
@pytest.mark.parametrize("n_belief", [5, 21, 101])
@pytest.mark.parametrize("y0", [0.0, 0.5])
def test_grid_policy_on_the_exact_tree_is_below_exact(params, n_belief, y0):
    # The grid's exercise policy, followed on the exact belief tree, is one
    # stopping rule there; price_partial_exact is the best one, and the grid
    # bounds it from above: policy <= exact <= grid.
    params = replace(params, y0=y0)
    for n_steps in (1, 2, 3, 7, 12):
        partial = price_partial(params, n_steps, n_belief, keep_surface=True)
        policy, exact, grid = tree_policy_value(partial), price_partial_exact(params, n_steps), partial.root_at(y0)
        assert policy <= exact + ORACLE_SLACK * max(1.0, exact), n_steps
        assert exact <= grid + ORACLE_SLACK * max(1.0, grid), n_steps


@pytest.mark.parametrize("n_belief", [5, 21, 101])
@pytest.mark.parametrize("y0", [0.0, 0.5])
def test_grid_policy_at_base_n7_is_exact(n_belief, y0):
    # At N = 7 the grid's policy on the exact tree loses nothing against the
    # exact solution.  The surface there has equal neighbouring layers, whose
    # interpolation s*(1 - w) + s*w can round 1 ulp above s; a node priced
    # exactly s must still exercise.
    params = replace(BASE, y0=y0)
    policy = tree_policy_value(price_partial(params, 7, n_belief, keep_surface=True))
    exact = price_partial_exact(params, 7)
    assert abs(policy - exact) <= ORACLE_SLACK * max(1.0, exact)


# A fresh process prices the production cell twice without the surface, then
# once with it (whose thresholds make (L, w) temporaries every step), and
# prints each operation's minor faults in itself and in its reaped split helper.
FAULTS_SCRIPT = """
import resource
from esocp import ModelParams, price_partial
def faults():
    return [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
for keep_surface in (False, False, True):
    before = faults()
    price_partial({params!r}, {n}, {n_belief}, keep_surface=keep_surface)
    print(*(after - was for after, was in zip(faults(), before)))
"""


@pytest.mark.skipif(usable_cpus() < 2, reason="the production sweep splits only with two or more CPUs")
def test_split_production_sweeps_do_not_fault_their_temporaries():
    # Until something large is freed, glibc maps and unmaps each of the
    # continuation's 256 KiB block temporaries: without a surface, whose free
    # does that, every split operation faulted about 410 k pages in the
    # caller and as many in the helper.
    script = FAULTS_SCRIPT.format(params=BASE, n=PRODUCTION_N, n_belief=PRODUCTION_L)
    src = str(Path(esocp.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True,
        timeout=300,
    )
    operations = ("first, without surface", "second, without surface", "third, with surface")
    for operation, line in zip(operations, done.stdout.splitlines(), strict=True):
        caller, helper = map(int, line.split())
        assert caller < 50_000 and 0 < helper < 50_000, (operation, caller, helper)
