"""Active-window sweeps against the full-width sweeps, in one process and
split across two, work counts and the non-finite guard."""

import os
import signal
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from esocp import (
    NonFiniteResultError,
    _workers,
    partial_info,
    price_european_reference,
    price_full,
    price_full_roots,
    price_partial,
    sweep,
)

from conftest import BASE, assert_no_child_left, one_cpu
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
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(got, name), want[name]), name
    plain = price_partial(params, n_steps, N_BELIEF, keep_surface=True)
    assert np.array_equal(plain.root_layers, want["root_layers"])
    assert np.array_equal(plain.surface, want["surface"])
    # the slice is read off its step's window, which no option widens
    assert plain.node_steps == got.node_steps


@pytest.mark.parametrize("n_steps", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_full_window_matches_full_width(case, n_steps):
    params = CASES[case]
    want = full_width_price_full(params, n_steps)
    got = price_full(params, n_steps)
    assert (got.v0_root, got.v1_root) == (want["v0_root"], want["v1_root"])
    assert np.array_equal(got.boundary0, want["boundary0"])
    assert np.array_equal(got.boundary1, want["boundary1"])


# The 100-year insider at N=4000 drops its top column at 1,970 of its steps
# and an underflowed zero column at the bottom at 294.
LONG_HORIZON = replace(BASE, maturity=100.0)
LONG_HORIZON_N = 4000


@pytest.mark.parametrize("bufsize", [16, 8192])  # the caller's ufunc buffer
@pytest.mark.parametrize("split", [False, True], ids=["one process", "split"])
def test_long_horizon_insider_matches_full_width(split, bufsize, request):
    splits = request.getfixturevalue("forced_split") if split else []
    callers = np.setbufsize(bufsize)
    try:
        want = full_width_price_full(LONG_HORIZON, LONG_HORIZON_N)
        got = price_full(LONG_HORIZON, LONG_HORIZON_N)
        assert np.getbufsize() == bufsize
    finally:
        np.setbufsize(callers)
    assert (got.v0_root, got.v1_root) == (want["v0_root"], want["v1_root"])
    assert np.array_equal(got.boundary0, want["boundary0"])
    assert np.array_equal(got.boundary1, want["boundary1"])
    # The same run in the middle of a group of three, whose first run never
    # exercises early (mu0 > r) and so widens the shared window to every node.
    runs = [replace(LONG_HORIZON, mu0=0.05), LONG_HORIZON, replace(LONG_HORIZON, lam=0.0)]
    assert price_full_roots(runs, LONG_HORIZON_N)[1] == (want["v0_root"], want["v1_root"])
    # the insider's sweeps never split, even when every sweep may
    assert splits == []


def scan_exercised_from(values, intrinsic):
    top = values.shape[1]
    while top > 0 and np.all(values[:, top - 1] == intrinsic[top - 1]):
        top -= 1
    return top


def scan_zeros_below(values):
    dead = 0
    while dead < values.shape[1] and not np.any(values[:, dead]):
        dead += 1
    return dead


def test_trims_match_a_column_scan():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n_layers = int(rng.choice([1, 2, 3, 21]))
        width = int(rng.choice([0, 1, 2, 3, 15, 16, 17, 18, 40]))
        intrinsic = rng.choice([0.0, 1.5, 2.0], size=width)
        # each entry 0, intrinsic or something else; runs longer than a chunk at either end
        kinds = rng.integers(0, 3, size=(n_layers, width))
        if rng.random() < 0.3:
            kinds[:, width - int(rng.integers(0, width + 1)) :] = 1
        if rng.random() < 0.3:
            kinds[:, : int(rng.integers(0, width + 1))] = 0
        values = np.where(kinds == 0, 0.0, np.where(kinds == 1, intrinsic, rng.choice([-1.0, np.nan, 7.0])))
        assert sweep._exercised_from(values, intrinsic) == scan_exercised_from(values, intrinsic)
        assert sweep._zeros_below(values) == scan_zeros_below(values)
    for width in (0, 1, 2, 17, 40):
        intrinsic = np.linspace(1.0, 2.0, width)
        exercised = np.broadcast_to(intrinsic, (2, width))
        assert sweep._exercised_from(exercised, intrinsic) == 0
        assert sweep._zeros_below(np.zeros((2, width))) == width


def test_node_steps_below_full_triangle():
    n, n_belief = 400, 51
    partial = price_partial(BASE, n, n_belief)
    assert 0 < partial.node_steps < n_belief * n * (n + 1) // 2
    full = price_full(BASE, n)
    assert 0 < full.node_steps < n * (n + 1)
    # At N=1 the only step sweeps its one node.
    assert price_partial(BASE, 1, n_belief, keep_slice_at=0).node_steps == n_belief


def test_overflowing_lattice_raises():
    # The sweeps overflow silently and the root check raises; the European
    # reference runs outside any sweep, with numpy's warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResultError):
            price_full(OVERFLOW, OVERFLOW_N)
        with pytest.raises(NonFiniteResultError):
            price_partial(OVERFLOW, OVERFLOW_N, 5)
    with np.errstate(all="ignore"):
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
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(partial, name), want_partial[name]), name
    # the retained slice has far more zero nodes than never-in-the-money ones
    k = UNDERFLOW_N // 2
    best_at_maturity = full.lattice.prices[0][UNDERFLOW_N - k :]  # ladder entries 2 * (N - k + j)
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


def open_fds():
    """This process's open file descriptors, or none where there is no /proc."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc") else set()


@pytest.fixture
def forced_split(monkeypatch):
    """Split every sweep; returns the list of sweeps that were split.  The
    test must leave open the file descriptors it found open, and no more."""
    if _workers.usable_cpus() < 2:
        pytest.skip("one usable CPU")
    split, real = [], sweep._split

    def counted(run):
        split.append(run.n)
        return real(run)

    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
    monkeypatch.setattr(sweep, "_split", counted)
    fds = open_fds()
    yield split
    assert open_fds() == fds


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


@pytest.mark.parametrize("n_steps", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_split_window_matches_full_width(case, n_steps, forced_split, monkeypatch):
    params = CASES[case]
    want = full_width_price_partial(params, n_steps, N_BELIEF, keep_slice_at=n_steps // 2)
    got = price_partial(params, n_steps, N_BELIEF, keep_surface=True, keep_slice_at=n_steps // 2)
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(got, name), want[name]), name
    want_full = full_width_price_full(params, n_steps)
    full = price_full(params, n_steps)
    assert (full.v0_root, full.v1_root) == (want_full["v0_root"], want_full["v1_root"])
    assert np.array_equal(full.boundary0, want_full["boundary0"])
    assert np.array_equal(full.boundary1, want_full["boundary1"])
    assert forced_split == [n_steps]  # the outsider's sweep only
    assert_no_child_left()
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", 10**18)
    assert got.node_steps == price_partial(params, n_steps, N_BELIEF, keep_slice_at=n_steps // 2).node_steps
    assert full.node_steps == price_full(params, n_steps).node_steps


def test_split_on_one_core_matches_full_width(forced_split, deadline, monkeypatch):
    # Both processes on one core with a short spin: nearly every exchange
    # blocks and the scheduler interleaves the halves at random points.
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(_workers, "can_fork", lambda: True)
    monkeypatch.setattr(sweep, "SPIN_S", 0.0)
    want = full_width_price_partial(BASE, 200, N_BELIEF, keep_slice_at=100)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        got = price_partial(BASE, 200, N_BELIEF, keep_surface=True, keep_slice_at=100)
    finally:
        os.sched_setaffinity(0, cpus)
    for name in ("root_layers", "surface", "slice_values"):
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
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(partial, name), want_partial[name]), name
    assert forced_split == [UNDERFLOW_N]  # the outsider's sweep only


@pytest.mark.parametrize("n_belief", [2, 3, 21, 50])
def test_split_by_layers_matches_full_width(n_belief, forced_split, monkeypatch):
    # L=2 leaves one layer per process; from L=3 on, the child rows one
    # half's layers read reach into the other half's
    calls, update = [], sweep._Sweep.update

    def recorded(self, k, new_lo, children, layers, intrinsic, window):
        calls.append((k, children, layers, window))
        return update(self, k, new_lo, children, layers, intrinsic, window)

    monkeypatch.setattr(sweep._Sweep, "update", recorded)
    want = full_width_price_partial(BASE, 200, n_belief, keep_slice_at=100)
    got = price_partial(BASE, 200, n_belief, keep_surface=True, keep_slice_at=100)
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(got, name), want[name]), name
    grid, half = got.grid, n_belief // 2
    low_end = max(grid.up_hi[:half].max(), grid.dw_hi[:half].max()) + 1
    high_first = min(grid.up_lo[half:].min(), grid.dw_lo[half:].min())
    assert (low_end > half and high_first < half) == (n_belief > 2)
    # the caller sweeps only its own layers, and reads the children of every
    # layer in place: the terminal payoffs, then the last step's window,
    # whose other rows the helper wrote
    assert [k for k, *_ in calls] == list(range(199, -1, -1))
    assert {layers for _, _, layers, _ in calls} == {(0, half)}
    assert calls[0][1].shape[0] == n_belief and calls[0][1].strides[0] == 0
    for (_, _, _, window), (_, children, _, next_window) in zip(calls, calls[1:]):
        assert children.shape[0] == n_belief
        assert np.may_share_memory(children, window)
        assert not np.may_share_memory(children, next_window)
    assert forced_split == [200]
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", 10**18)
    assert got.node_steps == price_partial(BASE, 200, n_belief, keep_slice_at=100).node_steps


# A strike far below the spot: from step 23 back to the root every node is
# exercised in every layer, so those 24 steps sweep an empty window.
DEEP_IN_THE_MONEY = replace(BASE, strike=1.0)


def test_split_through_empty_windows_matches_full_width(forced_split, monkeypatch):
    swept, update = [], sweep._Sweep.update

    def recorded(self, k, *args):
        swept.append(k)
        return update(self, k, *args)

    monkeypatch.setattr(sweep._Sweep, "update", recorded)
    want = full_width_price_partial(DEEP_IN_THE_MONEY, 60, N_BELIEF, keep_slice_at=30)
    got = price_partial(DEEP_IN_THE_MONEY, 60, N_BELIEF, keep_surface=True, keep_slice_at=30)
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(got, name), want[name]), name
    assert forced_split == [60]
    assert sorted(set(range(60)) - set(swept)) == list(range(24))


def test_sweep_heap_holds_no_child_buffer(monkeypatch):
    # Beyond the surface and the two windows of L x (N + 1) doubles, the
    # heap holds one continuation block's gathers (at most three arrays of
    # partial_info.ROW_BLOCK_ELEMENTS doubles) and the thresholds' (L, w)
    # temporaries: less than one L x (2N + 3) buffer of doubles, the size a
    # per-sweep copy of the children and continuations would take.  Measured
    # with numpy 2.4.6: 514,352 bytes against the bound's 810,424 (a sweep
    # that keeps such a copy reads 1,325,832).
    one_cpu(monkeypatch)
    n, n_belief = 500, 101
    price_partial(BASE, 50, 11)
    tracemalloc.start()
    try:
        got = price_partial(BASE, n, n_belief, keep_surface=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    windows = 2 * n_belief * (n + 1) * 8
    assert peak - got.surface.nbytes - windows < n_belief * (2 * n + 3) * 8


@pytest.mark.parametrize("entries", [1, 100])  # one row per block, or a few
@pytest.mark.parametrize("split", [False, True], ids=["one process", "split"])
@pytest.mark.parametrize("case", ["base", "spot_60", "lam_zero"])
def test_row_blocks_match_full_width(case, split, entries, monkeypatch, request):
    splits = request.getfixturevalue("forced_split") if split else []
    monkeypatch.setattr(partial_info, "ROW_BLOCK_ELEMENTS", entries)
    params = CASES[case]
    want = full_width_price_partial(params, 60, N_BELIEF, keep_slice_at=30)
    got = price_partial(params, 60, N_BELIEF, keep_surface=True, keep_slice_at=30)
    for name in ("root_layers", "surface", "slice_values"):
        assert np.array_equal(getattr(got, name), want[name]), name
    assert splits == ([60] if split else [])


def test_one_cpu_sweeps_in_process(monkeypatch):
    one_cpu(monkeypatch)
    monkeypatch.setattr(sweep, "SPLIT_MIN_ENTRIES", -1)
    monkeypatch.setattr(sweep, "_split", refuse_split)
    want = full_width_price_partial(BASE, 60, N_BELIEF, keep_slice_at=30)
    got = price_partial(BASE, 60, N_BELIEF, keep_surface=True, keep_slice_at=30)
    for name in ("root_layers", "surface", "slice_values"):
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
    # nor is any insider sweep above SPLIT_MIN_ENTRIES: one run with 2 x 30,208
    # entries, and three runs whose first widens the window to every node
    with pytest.raises(Engaged):
        price_full(BASE, 60000)
    with pytest.raises(Engaged):
        price_full_roots([replace(BASE, mu0=0.05), BASE, replace(BASE, lam=0.0)], 25000)


def misbehave_at(monkeypatch, step, where, action):
    """Make the sweep's layer update at ``step`` call ``action`` first, in
    the parent or in the helper process."""
    parent, real = os.getpid(), sweep._Sweep.update

    def update(self, k, *args):
        if k == step and (os.getpid() == parent) == (where == "parent"):
            action()
        return real(self, k, *args)

    monkeypatch.setattr(sweep._Sweep, "update", update)


def fail():
    raise ValueError("layer update failed on this half")


def fail_unpicklably():
    class LocalError(Exception):  # pickle cannot find a local class
        pass

    raise LocalError("layer update failed on this half")


@pytest.mark.parametrize("step", [59, 0])  # the first and the last step
@pytest.mark.parametrize("where", ["helper", "parent"])
def test_sweep_error_is_raised_with_its_message(forced_split, deadline, monkeypatch, where, step):
    misbehave_at(monkeypatch, step, where, fail)
    with pytest.raises(ValueError, match="layer update failed on this half"):
        price_partial(BASE, 60, N_BELIEF)
    assert forced_split == [60]
    assert_no_child_left()


def test_unpicklable_helper_error_is_raised_with_its_type_name(forced_split, deadline, monkeypatch):
    misbehave_at(monkeypatch, 30, "helper", fail_unpicklably)
    with pytest.raises(RuntimeError, match="LocalError: layer update failed on this half"):
        price_partial(BASE, 60, N_BELIEF)
    assert forced_split == [60]
    assert_no_child_left()


def test_dead_helper_raises_instead_of_hanging(forced_split, deadline, monkeypatch):
    deaths = [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(0), "died mid-sweep"),
    ]
    for action, how in deaths:
        with monkeypatch.context() as patch:
            misbehave_at(patch, 30, "helper", action)
            with pytest.raises(ChildProcessError, match="died") as raised:
                price_partial(BASE, 60, N_BELIEF)
        assert how in str(raised.value)
        assert_no_child_left()


def gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc")
def test_helper_exits_when_its_caller_dies(forced_split, deadline, monkeypatch):
    # The caller is a process forked here: at step 30 it reports its helper's
    # pid and kills itself, leaving the helper waiting for its half.
    read_end, write_end = os.pipe()
    caller = os.fork()
    if caller == 0:
        try:
            os.close(read_end)
            helpers, real_fork = [], os.fork

            def fork():
                helpers.append(real_fork())
                return helpers[-1]

            def report_and_die():
                os.write(write_end, f"{helpers[0]}\n".encode())
                os.kill(os.getpid(), signal.SIGKILL)

            monkeypatch.setattr(os, "fork", fork)
            misbehave_at(monkeypatch, 30, "parent", report_and_die)
            price_partial(BASE, 60, N_BELIEF)
        finally:
            os._exit(1)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        helper = int(pipe.readline())
    _, status = os.waitpid(caller, 0)
    try:
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        while not gone_or_zombie(helper):
            time.sleep(0.01)
    finally:
        if not gone_or_zombie(helper):  # a helper that stayed would outlive the tests
            os.kill(helper, signal.SIGKILL)
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, True], ids=["one process", "split"])
def test_sweep_restores_the_callers_numpy_state(split, deadline, monkeypatch, request):
    splits = request.getfixturevalue("forced_split") if split else []
    seen = []
    misbehave_at(monkeypatch, 30, "parent", lambda: seen.append((np.getbufsize(), np.geterr())))
    callers = np.setbufsize(1024)
    try:
        with np.errstate(all="raise", under="print"):
            state = np.getbufsize(), np.geterr()
            price_partial(BASE, 60, N_BELIEF)
            assert (np.getbufsize(), np.geterr()) == state
            misbehave_at(monkeypatch, 30, "parent", fail)
            with pytest.raises(ValueError, match="layer update failed on this half"):
                price_partial(BASE, 60, N_BELIEF)
            assert (np.getbufsize(), np.geterr()) == state
    finally:
        np.setbufsize(callers)
    assert seen == [(sweep.UFUNC_BUFFER, {**state[1], "over": "ignore", "invalid": "ignore"})]
    assert splits == ([60, 60] if split else [])
    assert_no_child_left()
