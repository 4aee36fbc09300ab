"""Active-window sweeps against the full-width sweeps, work counts and the
non-finite guard."""

from dataclasses import replace

import numpy as np
import pytest

from esocp import NonFiniteResultError, price_european_reference, price_full, price_partial, sweep

from conftest import BASE
from reference import full_width_price_full, full_width_price_partial

CASES = {
    "base": BASE,
    "mu0_above_r": replace(BASE, mu0=0.04),  # layer 0 never has a sure-exercise region
    "r_zero": replace(BASE, r=0.0),
    "spot_60": replace(BASE, spot=60.0),
    "spot_300": replace(BASE, spot=300.0),
    "lam_zero": replace(BASE, lam=0.0),
}
SIZES = (1, 2, 7, 60, 200)
N_BELIEF = 21

# sigma*sqrt(T*N) far beyond log(float max): the top node prices overflow.
OVERFLOW = replace(BASE, sigma=2.0, maturity=100.0, mu0=0.08, lam=0.0)
OVERFLOW_N = 1500


@pytest.mark.parametrize("n_steps", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_partial_window_matches_full_width(case, n_steps):
    params = CASES[case]
    want = full_width_price_partial(params, n_steps, N_BELIEF, keep_slice_at=n_steps // 2)
    got = price_partial(params, n_steps, N_BELIEF, keep_surface=True, keep_slice_at=n_steps // 2)
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(got, name), want[name]), name
    plain = price_partial(params, n_steps, N_BELIEF, keep_surface=True)
    assert np.array_equal(plain.root_layers, want["root_layers"])
    assert np.array_equal(plain.surface, want["surface"])


@pytest.mark.parametrize("n_steps", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_full_window_matches_full_width(case, n_steps):
    params = CASES[case]
    want = full_width_price_full(params, n_steps)
    got = price_full(params, n_steps)
    assert (got.v0_root, got.v1_root) == (want["v0_root"], want["v1_root"])
    assert np.array_equal(got.boundary0, want["boundary0"])
    assert np.array_equal(got.boundary1, want["boundary1"])
    kept = price_full(params, n_steps, keep_slices=True)
    for name in ("slices0", "slices1"):
        assert len(getattr(kept, name)) == n_steps + 1
        for mine, theirs in zip(getattr(kept, name), want[name]):
            assert np.array_equal(mine, theirs), name


def test_node_steps_below_full_triangle():
    n, n_belief = 400, 51
    partial = price_partial(BASE, n, n_belief)
    assert 0 < partial.node_steps < n_belief * n * (n + 1) // 2
    full = price_full(BASE, n)
    assert 0 < full.node_steps < n * (n + 1)
    # Full-width steps count every node.
    kept = price_full(BASE, n, keep_slices=True)
    assert kept.node_steps == n * (n + 1)


def test_overflowing_lattice_raises():
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteResultError):
            price_full(OVERFLOW, OVERFLOW_N)
        with pytest.raises(NonFiniteResultError):
            price_partial(OVERFLOW, OVERFLOW_N, 5)
        with pytest.raises(NonFiniteResultError):
            price_european_reference(OVERFLOW, OVERFLOW_N, regime=0)
        with pytest.raises(NonFiniteResultError):
            price_european_reference(OVERFLOW, OVERFLOW_N, y0=0.5)


# Up-moves so unlikely (mu0 just above the admissibility bound -sigma/sqrt(h))
# that the values of deep out-of-the-money nodes underflow to exactly 0.
UNDERFLOW = replace(BASE, mu0=-2.95, mu1=-2.96)
UNDERFLOW_N = 1000


def test_zero_run_is_trimmed_without_changing_a_bit(monkeypatch):
    want_full = full_width_price_full(UNDERFLOW, UNDERFLOW_N)
    want_partial = full_width_price_partial(UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_slice_at=UNDERFLOW_N // 2)
    full = price_full(UNDERFLOW, UNDERFLOW_N)
    partial = price_partial(
        UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_surface=True, keep_slice_at=UNDERFLOW_N // 2
    )
    assert (full.v0_root, full.v1_root) == (want_full["v0_root"], want_full["v1_root"])
    assert np.array_equal(full.boundary0, want_full["boundary0"])
    assert np.array_equal(full.boundary1, want_full["boundary1"])
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(partial, name), want_partial[name]), name
    # the retained slice has far more zero nodes than never-in-the-money ones
    k = UNDERFLOW_N // 2
    best_at_maturity = full.lattice.price_ladder()[2 * (UNDERFLOW_N - k + np.arange(k + 1))]
    never_in_the_money = np.count_nonzero(best_at_maturity <= UNDERFLOW.strike)
    assert np.count_nonzero(np.all(partial.slice_values == 0.0, axis=0)) > never_in_the_money + 100

    plain = price_partial(UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_surface=True)
    # without the trim the window starts at the never-in-the-money edge
    monkeypatch.setattr(sweep, "_zeros_below", lambda values: 0)
    untrimmed_full = price_full(UNDERFLOW, UNDERFLOW_N)
    untrimmed_partial = price_partial(UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_surface=True)
    assert (untrimmed_full.v0_root, untrimmed_full.v1_root) == (full.v0_root, full.v1_root)
    assert np.array_equal(untrimmed_partial.surface, partial.surface)
    assert full.node_steps < 0.6 * untrimmed_full.node_steps
    assert plain.node_steps < 0.6 * untrimmed_partial.node_steps
