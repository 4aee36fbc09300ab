"""Active-window sweeps against the full-width sweeps, in one process and
split across two, work counts and the non-finite guard."""

import os
import signal
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from esocp import NonFiniteResultError, _workers, price_european_reference, price_full, price_partial, sweep

from conftest import BASE, one_cpu
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


def test_node_steps_below_full_triangle():
    n, n_belief = 400, 51
    partial = price_partial(BASE, n, n_belief)
    assert 0 < partial.node_steps < n_belief * n * (n + 1) // 2
    full = price_full(BASE, n)
    assert 0 < full.node_steps < n * (n + 1)
    # A full-width step counts every node: at N=1 the only step has one node.
    assert price_partial(BASE, 1, n_belief, keep_slice_at=0).node_steps == n_belief


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


@cache
def underflow_reference():
    return (
        full_width_price_full(UNDERFLOW, UNDERFLOW_N),
        full_width_price_partial(UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_slice_at=UNDERFLOW_N // 2),
    )


def test_zero_run_is_trimmed_without_changing_a_bit(monkeypatch):
    want_full, want_partial = underflow_reference()
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


# -- the sweep split across two processes ------------------------------------


class SplitAttempted(Exception):
    pass


def refuse_split(run):
    raise SplitAttempted


@pytest.fixture
def forced_split(monkeypatch):
    """Split every sweep; returns the list of sweeps that were split."""
    if _workers.usable_cpus() < 2:
        pytest.skip("one usable CPU")
    split, real = [], sweep._split

    def counted(run):
        split.append(run.n)
        return real(run)

    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
    monkeypatch.setattr(sweep, "_split", counted)
    return split


@pytest.fixture
def deadline():
    """Fail a test that would hang instead of waiting for it."""

    def expire(signum, frame):
        raise TimeoutError("the split sweep did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_steps", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_split_window_matches_full_width(case, n_steps, forced_split, monkeypatch):
    params = CASES[case]
    want = full_width_price_partial(params, n_steps, N_BELIEF, keep_slice_at=n_steps // 2)
    got = price_partial(params, n_steps, N_BELIEF, keep_surface=True, keep_slice_at=n_steps // 2)
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(got, name), want[name]), name
    want_full = full_width_price_full(params, n_steps)
    full = price_full(params, n_steps)
    assert (full.v0_root, full.v1_root) == (want_full["v0_root"], want_full["v1_root"])
    assert np.array_equal(full.boundary0, want_full["boundary0"])
    assert np.array_equal(full.boundary1, want_full["boundary1"])
    assert forced_split == [n_steps, n_steps]
    assert_no_child_left()
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", 10**18)
    assert got.node_steps == price_partial(params, n_steps, N_BELIEF, keep_slice_at=n_steps // 2).node_steps
    assert full.node_steps == price_full(params, n_steps).node_steps


def test_split_on_one_core_matches_full_width(forced_split, deadline, monkeypatch):
    # Both processes on one core with a short spin: nearly every exchange
    # blocks and the scheduler interleaves the halves at random points.
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(_workers, "can_fork", lambda: True)
    monkeypatch.setattr(sweep, "SPIN_TRIES", 1)
    want = full_width_price_partial(BASE, 200, N_BELIEF, keep_slice_at=100)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        got = price_partial(BASE, 200, N_BELIEF, keep_surface=True, keep_slice_at=100)
    finally:
        os.sched_setaffinity(0, cpus)
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(got, name), want[name]), name
    assert forced_split == [200]


def test_split_zero_trim_matches_full_width(forced_split):
    want_full, want_partial = underflow_reference()
    full = price_full(UNDERFLOW, UNDERFLOW_N)
    partial = price_partial(
        UNDERFLOW, UNDERFLOW_N, N_BELIEF, keep_surface=True, keep_slice_at=UNDERFLOW_N // 2
    )
    assert (full.v0_root, full.v1_root) == (want_full["v0_root"], want_full["v1_root"])
    assert np.array_equal(full.boundary0, want_full["boundary0"])
    assert np.array_equal(full.boundary1, want_full["boundary1"])
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(partial, name), want_partial[name]), name
    assert forced_split == [UNDERFLOW_N, UNDERFLOW_N]


def test_one_cpu_sweeps_in_process(monkeypatch):
    one_cpu(monkeypatch)
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
    monkeypatch.setattr(sweep, "_split", refuse_split)
    want = full_width_price_partial(BASE, 60, N_BELIEF, keep_slice_at=30)
    got = price_partial(BASE, 60, N_BELIEF, keep_surface=True, keep_slice_at=30)
    for name in ("root_layers", "surface", "slice_values", "slice_continuation"):
        assert np.array_equal(getattr(got, name), want[name]), name


def surface_in_worker(n_steps):
    return os.getpid(), price_partial(BASE, n_steps, N_BELIEF, keep_surface=True).surface


@pytest.mark.skipif(_workers.usable_cpus() < 2, reason="one usable CPU")
def test_no_split_inside_a_worker(monkeypatch):
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
    monkeypatch.setattr(sweep, "_split", refuse_split)
    with pytest.raises(SplitAttempted):
        price_partial(BASE, 60, N_BELIEF)
    want = full_width_price_partial(BASE, 60, N_BELIEF, keep_slice_at=30)["surface"]
    for pid, surface in _workers.ordered_map(surface_in_worker, [60, 60]):
        assert pid != os.getpid()
        assert np.array_equal(surface, want)


class Engaged(Exception):
    pass


def refuse_sweep(self, *args):
    raise Engaged("in process")


def test_split_engages_only_for_wide_windows(monkeypatch):
    monkeypatch.setattr(_workers, "can_fork", lambda: True)
    monkeypatch.setattr(sweep, "_split", refuse_split)
    monkeypatch.setattr(sweep._Sweep, "run", refuse_sweep)
    # the outsider at production size (N=2500, L=250) is split ...
    with pytest.raises(SplitAttempted):
        price_partial(BASE, 2500, 250)
    # ... the replay benchmark's set-up (N=500, L=101) and the 100-year insider are not
    with pytest.raises(Engaged):
        price_partial(BASE, 500, 101)
    with pytest.raises(Engaged):
        price_full(replace(BASE, maturity=100.0), 25000)


def misbehave_at(monkeypatch, step, where, action):
    """Make the sweep's column update at ``step`` call ``action`` first, in
    the parent or in the helper process."""
    parent, real = os.getpid(), sweep._Sweep.columns

    def columns(self, k, *args):
        if k == step and (os.getpid() == parent) == (where == "parent"):
            action()
        return real(self, k, *args)

    monkeypatch.setattr(sweep._Sweep, "columns", columns)


def fail():
    raise ValueError("column update failed on this half")


@pytest.mark.parametrize("step", [59, 0])  # the first and the last step
@pytest.mark.parametrize("where", ["helper", "parent"])
def test_sweep_error_is_raised_with_its_message(forced_split, deadline, monkeypatch, where, step):
    misbehave_at(monkeypatch, step, where, fail)
    with pytest.raises(ValueError, match="column update failed on this half"):
        price_partial(BASE, 60, N_BELIEF)
    assert forced_split == [60]
    assert_no_child_left()


def test_dead_helper_raises_instead_of_hanging(forced_split, deadline, monkeypatch):
    misbehave_at(monkeypatch, 30, "helper", lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match="died"):
        price_partial(BASE, 60, N_BELIEF)
    assert_no_child_left()
