import os
import signal
import time
from dataclasses import replace
from math import exp

import numpy as np
import pytest

from esocp import (
    build_lattice,
    price_full,
    price_partial,
    regime_return_probs,
    replay_policies,
    simulate_joint_path,
    transition_matrix,
    update_belief,
)
from esocp import _workers, simulate
from esocp.simulate import (
    BLOCK,
    SLAB_ROWS,
    AgentOutcomes,
    SimPath,
    _switch_step_from_uniform,
    aggregate_stats,
    block_rows,
    path_uniforms,
    replay_batch,
    replay_draws,
    surface_threshold,
)

import reference
from reference import block_uniforms
from conftest import BASE, assert_no_child_left, one_cpu

N = 250

_real_update_belief = simulate.update_belief


@pytest.fixture(scope="module")
def machinery():
    lat = build_lattice(BASE, N)
    q = transition_matrix(BASE.lam, lat.h)
    p = regime_return_probs(BASE, lat)
    return lat, q, p


@pytest.fixture(scope="module")
def priced():
    full = price_full(BASE, N)
    partial = price_partial(BASE, N, 51, keep_surface=True)
    return full, partial


def test_same_seed_same_path(machinery):
    lat, q, p = machinery
    a = simulate_joint_path(BASE, lat, q, p, (7, 3))
    b = simulate_joint_path(BASE, lat, q, p, (7, 3))
    assert np.array_equal(a.stock, b.stock)
    assert np.array_equal(a.regime, b.regime)
    assert np.array_equal(a.ups, b.ups)
    assert a.switch_step == b.switch_step
    c = simulate_joint_path(BASE, lat, q, p, (7, 4))
    assert not np.array_equal(a.ups, c.ups)


def test_path_internal_consistency(machinery, monkeypatch):
    lat, q, p = machinery
    calls = []

    def counting_update_belief(*args):
        calls.append(np.shape(args[0]))
        return _real_update_belief(*args)

    monkeypatch.setattr(simulate, "update_belief", counting_update_belief)
    # an exact repeat and the fixed point 1 ride along in the one filter pass
    for starts in ((0.5,), (0.0, 0.5, 0.5, 1.0)):
        calls.clear()
        path = simulate_joint_path(BASE, lat, q, p, (11, 0), starts)
        assert calls == [(len(starts),)] * N  # one call per step on all starts at once
        assert list(path.beliefs) == list(dict.fromkeys(starts))
        assert np.all(np.diff(path.regime) >= 0)  # single switch
        j = np.concatenate(([0], np.cumsum(path.ups)))
        assert np.array_equal(path.stock, lat.spot * lat.up ** (2.0 * j - np.arange(N + 1)))
        for y0, beliefs in path.beliefs.items():
            assert beliefs.flags.c_contiguous and beliefs[0] == y0
            y = y0
            for k in range(N):
                y = _real_update_belief(y, path.ups[k], q, p)
                assert beliefs[k + 1] == y  # replayed filter is the filter
    assert np.all(path.beliefs[1.0] == 1.0)


def test_no_intensity_never_switches(machinery):
    lat, _, p = machinery
    p0 = replace(BASE, lam=0.0)
    q0 = transition_matrix(0.0, lat.h)
    for seed in range(20):
        path = simulate_joint_path(p0, lat, q0, p, (seed, 0))
        assert path.switch_step is None
        assert np.all(path.regime == 0)


def test_switch_step_distribution():
    # inverse-transform sampling must reproduce the geometric law; the case
    # q01 = 1 - exp(-4) corresponds to a very hard switch intensity
    q00 = exp(-4.0)
    u = np.random.default_rng(0).random(100_000)
    m = _switch_step_from_uniform(u, q00)
    p1 = 1.0 - q00
    freq = np.mean(m == 1.0)
    se = np.sqrt(p1 * (1 - p1) / u.size)
    assert abs(freq - p1) < 3 * se
    tail = np.mean(m > 3.0)
    se_tail = np.sqrt(q00**3 * (1 - q00**3) / u.size)
    assert abs(tail - q00**3) < max(3 * se_tail, 1e-4)


def test_move_frequencies_match_regime_probs(machinery):
    lat, q, p = machinery
    ups0 = ups1 = n0 = n1 = 0
    for seed in range(400):
        path = simulate_joint_path(BASE, lat, q, p, (2024, seed), belief_starts=())
        regimes = path.regime[1:]  # move k uses the regime prevailing at k+1
        ups0 += int(np.sum(path.ups[regimes == 0]))
        n0 += int(np.sum(regimes == 0))
        ups1 += int(np.sum(path.ups[regimes == 1]))
        n1 += int(np.sum(regimes == 1))
    assert n0 + n1 == 400 * N and min(n0, n1) > 10_000
    for ups, n, prob in ((ups0, n0, p.p_up0), (ups1, n1, p.p_up1)):
        se = np.sqrt(prob * (1 - prob) / n)
        assert abs(ups / n - prob) < 3 * se


def test_replay_discounts_payoffs_consistently(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    path = simulate_joint_path(BASE, lat, q, p, (5, 1))
    outcomes = replay_policies(path, full, {0.0: partial, 0.5: partial})
    assert [o.agent for o in outcomes] == ["insider", "outsider(y0=0)", "outsider(y0=0.5)"]
    for o in outcomes:
        if o.exercise_step is None:
            assert o.payoff == 0.0 and np.isnan(o.exercise_price)
        else:
            again = exp(-BASE.r * o.exercise_step * lat.h) * max(
                o.exercise_price - BASE.strike, 0.0
            )
            assert abs(o.payoff - again) <= 1e-14 * max(1.0, o.payoff)
            assert o.exercise_price == path.stock[o.exercise_step]


def test_hopeless_option_never_exercised(machinery):
    lat, q, p = machinery
    deep = replace(BASE, strike=1e9)
    full = price_full(deep, N)
    partial = price_partial(deep, N, 21, keep_surface=True)
    path = simulate_joint_path(deep, lat, q, p, (13, 2))
    for o in replay_policies(path, full, {0.0: partial}):
        assert o.exercise_step is None and o.payoff == 0.0


def _crafted_path(lat, q, p, ups, switch_step):
    """Fabricated path with a chosen move sequence and switch step; the stock
    and beliefs stay consistent with the moves (the only thing replay uses)."""
    n = lat.n_steps
    ups = np.asarray(ups, dtype=bool)
    j = np.concatenate(([0], np.cumsum(ups)))
    stock = lat.spot * lat.up ** (2.0 * j - np.arange(n + 1))
    regime = np.zeros(n + 1, dtype=np.int8)
    regime[switch_step:] = 1
    beliefs = {}
    for y0 in (0.0, 1.0):
        ys = np.empty(n + 1)
        ys[0] = y = y0
        for k in range(n):
            y = update_belief(y, ups[k], q, p)
            ys[k + 1] = y
        beliefs[y0] = ys
    return SimPath(lattice=lat, ups=ups, stock=stock, regime=regime,
                   switch_step=switch_step, beliefs=beliefs)


def test_insider_exercises_at_the_change_point(machinery, priced):
    # stock climbs late and sits between the two insider thresholds exactly
    # when the switch lands: the change point itself triggers exercise
    lat, q, p = machinery
    full, partial = priced
    b0, b1 = full.boundary(0), full.boundary(1)
    theta = N // 2
    target = None
    for j in range(theta, 0, -1):
        x = lat.spot * lat.up ** (2.0 * j - theta)
        if b1[theta] <= x < b0[theta]:
            target = j
            break
    assert target is not None, "no lattice node sits between the thresholds"
    ups = np.zeros(N, dtype=bool)
    ups[theta - target : theta] = True  # down first, then climb into position
    path = _crafted_path(lat, q, p, ups, theta)
    assert all(path.stock[k] < b0[k] for k in range(theta))
    insider = replay_policies(path, full, {})[0]
    assert insider.exercise_step == theta


def test_certain_outsider_mirrors_switched_insider(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    hits = 0
    for seed in range(6):
        path = simulate_joint_path(
            replace(BASE, y0=1.0 - 1e-12), lat, q, p, (90, seed), belief_starts=(1.0,)
        )
        if path.switch_step != 0:
            continue
        insider, outsider = replay_policies(path, full, {1.0: partial})
        assert insider.exercise_step == outsider.exercise_step
        hits += 1
    assert hits > 0


def test_batch_agrees_with_single_paths(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    batch = replay_batch(full, partial, 32, 321, (0.0, 0.5), chunk_size=10)
    for i in (0, 9, 10, 31):
        path = simulate_joint_path(BASE, lat, q, p, (321, i))
        outcomes = replay_policies(path, full, {0.0: partial, 0.5: partial})
        for o in outcomes:
            arr = batch[o.agent]
            step = None if arr.exercise_step[i] < 0 else int(arr.exercise_step[i])
            assert step == o.exercise_step
            assert arr.payoff[i] == o.payoff


def test_batch_chunking_is_invisible(priced):
    # chunks are whole blocks; the last block is partly used
    full, partial = priced
    n_paths = 2 * BLOCK + 37
    runs = [
        replay_batch(full, partial, n_paths, 77, (0.5,), chunk_size=c) for c in (7, 333, BLOCK, 5000)
    ]
    for agent in runs[0]:
        for other in runs[1:]:
            assert other[agent].payoff.size == n_paths
            assert np.array_equal(runs[0][agent].payoff, other[agent].payoff)
            assert np.array_equal(runs[0][agent].exercise_step, other[agent].exercise_step)
            assert np.array_equal(
                runs[0][agent].exercise_price, other[agent].exercise_price, equal_nan=True
            )


def assert_same_outcomes(a, b):
    assert list(a) == list(b)
    for agent in a:
        assert np.array_equal(a[agent].exercise_step, b[agent].exercise_step)
        assert np.array_equal(a[agent].exercise_price, b[agent].exercise_price, equal_nan=True)
        assert np.array_equal(a[agent].payoff, b[agent].payoff)


@pytest.mark.parametrize("n_paths", [BLOCK + 1, 3 * BLOCK, 4 * BLOCK + 37])
def test_pooled_replay_equals_in_process_replay(priced, monkeypatch, n_paths):
    full, partial = priced
    pooled = {c: replay_batch(full, partial, n_paths, 19, (0.0, 0.5), chunk_size=c) for c in (7, BLOCK, None)}
    one_cpu(monkeypatch)
    serial = replay_batch(full, partial, n_paths, 19, (0.0, 0.5))
    for run in pooled.values():
        assert_same_outcomes(run, serial)
    n_blocks = -(-n_paths // BLOCK)
    draws = np.hstack([block_uniforms(19, b, N) for b in range(n_blocks)])
    whole = replay_draws(full, partial, draws, (0.0, 0.5))
    for agent, outcome in serial.items():
        assert np.array_equal(outcome.payoff, whole[agent].payoff[:n_paths])
        assert np.array_equal(outcome.exercise_step, whole[agent].exercise_step[:n_paths])


def test_short_last_chunk_of_a_share_is_invisible(priced, monkeypatch):
    # one CPU: three blocks, replayed as chunks of two and one, or of one each
    full, partial = priced
    one_cpu(monkeypatch)
    runs = [replay_batch(full, partial, 3 * BLOCK - 5, 77, (0.5,), chunk_size=c) for c in (2 * BLOCK, BLOCK)]
    assert_same_outcomes(*runs)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
def test_every_usable_cpu_gets_a_chunk(priced, monkeypatch, cpus):
    # by default, contiguous chunks of ceil(blocks / cpus) blocks, at most one per CPU
    full, partial = priced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    maps = []

    def in_process(fn, items):
        maps.append(list(items))
        return map(fn, maps[-1])

    monkeypatch.setattr(simulate, "ordered_map", in_process)
    for n_blocks in (1, 2, 3, 5, 9):
        maps.clear()
        replay_batch(full, partial, n_blocks * BLOCK - 1, 3, (0.5,))
        (chunks,) = maps
        assert len(chunks) <= cpus
        assert [b for chunk in chunks for b in chunk] == list(range(n_blocks))
        assert max(map(len, chunks)) == -(-n_blocks // cpus)


_chunk_pids = []
_real_replay_draws = simulate.replay_draws


def _replay_draws_recording_pid(*args):
    _chunk_pids.append(os.getpid())
    return _real_replay_draws(*args)


def _replay_in_worker(job):
    full, partial, n_paths = job
    return os.getpid(), replay_batch(full, partial, n_paths, 5, (0.5,), chunk_size=BLOCK), list(_chunk_pids)


@pytest.mark.skipif(_workers.usable_cpus() < 2, reason="one usable CPU")
def test_replay_inside_a_worker_runs_in_process(priced, monkeypatch):
    full, partial = priced
    monkeypatch.setattr(simulate, "replay_draws", _replay_draws_recording_pid)
    runs = list(_workers.ordered_map(_replay_in_worker, [(full, partial, 3 * BLOCK)] * 2))
    monkeypatch.setattr(simulate, "replay_draws", _real_replay_draws)
    serial = replay_batch(full, partial, 3 * BLOCK, 5, (0.5,))
    for pid, outcomes, chunk_pids in runs:
        assert pid != os.getpid()
        assert chunk_pids == [pid] * 3  # three chunks, all in the worker itself
        assert_same_outcomes(outcomes, serial)


def in_workers(monkeypatch, action):
    """Make replay_draws call ``action`` first in every forked replay worker."""
    parent = os.getpid()

    def replay_draws(*args):
        if os.getpid() != parent:
            action()
        return _real_replay_draws(*args)

    monkeypatch.setattr(simulate, "replay_draws", replay_draws)


def fail():
    raise KeyError("replay of this chunk failed")


def fail_unpicklably():
    class LocalError(Exception):  # pickle cannot find a local class
        pass

    raise LocalError("replay of this chunk failed")


class TwoPartError(Exception):
    def __init__(self, what, how):  # unpickling passes the message alone
        super().__init__(f"{what} {how}")


def fail_unloadably():
    raise TwoPartError("replay of this chunk", "failed")


_worker_chunks = []  # each forked worker starts with the caller's, which stays empty


def fail_after_the_first_chunk():
    _worker_chunks.append(None)
    if len(_worker_chunks) > 1:
        raise KeyError("replay of a later chunk failed")


forked = pytest.mark.skipif(_workers.usable_cpus() < 2, reason="one usable CPU")


@forked
@pytest.mark.parametrize(
    "action, raised, message, n_blocks, chunk_size",
    [
        (fail, KeyError, "replay of this chunk", 2, None),
        (fail_unpicklably, RuntimeError, "LocalError: replay of this chunk", 2, None),
        (fail_unloadably, RuntimeError, "TwoPartError: replay of this chunk failed", 2, None),
        # five one-block chunks on two workers: each worker's first chunk
        # succeeds, and whichever claims a second one fails there
        (fail_after_the_first_chunk, KeyError, "replay of a later chunk", 5, BLOCK),
    ],
    ids=["picklable", "unpicklable", "unloadable", "later chunk"],
)
def test_worker_error_is_raised_with_its_type_and_message(
    priced, monkeypatch, action, raised, message, n_blocks, chunk_size
):
    full, partial = priced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    replay_batch(full, partial, n_blocks * BLOCK, 1, (0.5,), chunk_size)
    assert_no_child_left()
    in_workers(monkeypatch, action)
    with pytest.raises(raised, match=message):
        replay_batch(full, partial, n_blocks * BLOCK, 1, (0.5,), chunk_size)
    assert_no_child_left()


@forked
@pytest.mark.parametrize(
    "action, message",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os._exit(0), "no worker process returned item 0 of 2"),
    ],
    ids=["killed", "exit 3", "exit 0"],
)
def test_lost_worker_raises_instead_of_returning_zeros(priced, monkeypatch, action, message):
    full, partial = priced
    in_workers(monkeypatch, action)
    with pytest.raises(ChildProcessError, match=message):
        replay_batch(full, partial, 2 * BLOCK, 1, (0.5,))
    assert_no_child_left()


def test_chunk_without_outcomes_raises_instead_of_returning_zeros(priced, monkeypatch):
    # the -2 sentinel catches a chunk that was never replayed, however it was lost
    full, partial = priced
    monkeypatch.setattr(simulate, "ordered_map", lambda fn, items: map(fn, list(items)[1:]))
    with pytest.raises(ChildProcessError, match="left paths without outcomes"):
        replay_batch(full, partial, 3 * BLOCK, 1, (0.5,), BLOCK)


@forked
def test_caller_error_while_waiting_kills_and_reaps_the_workers(priced, monkeypatch):
    full, partial = priced

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    in_workers(monkeypatch, lambda: time.sleep(60))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(Interrupted):
            replay_batch(full, partial, 2 * BLOCK, 1, (0.5,))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30  # the sleeping workers were not waited for
    assert_no_child_left()


@pytest.mark.parametrize("y0", [1.5, -0.3, float("nan")])
def test_beliefs_outside_unit_interval_are_rejected_before_drawing(machinery, priced, monkeypatch, y0):
    lat, q, p = machinery
    full, partial = priced

    def no_draws(*args, **kwargs):
        raise AssertionError("drew or forked before checking the belief starts")

    for name in ("block_rows", "path_uniforms", "ordered_map"):
        monkeypatch.setattr(simulate, name, no_draws)
    with pytest.raises(ValueError, match="belief starts must lie in"):
        replay_batch(full, partial, 2000, 1, (0.5, y0))
    with pytest.raises(ValueError, match="belief starts must lie in"):
        simulate_joint_path(BASE, lat, q, p, (1, 0), (0.0, y0))
    monkeypatch.undo()
    path = simulate_joint_path(BASE, lat, q, p, (1, 0), (0.0,))
    with pytest.raises(ValueError, match="belief starts must lie in"):
        replay_policies(path, full, {0.0: partial, y0: partial})


def test_distinct_beliefs_with_one_label_are_rejected_before_drawing(machinery, priced, monkeypatch):
    # both read outsider(y0=0.123457): one set of outcome arrays would hold both
    lat, q, p = machinery
    full, partial = priced
    draws = block_uniforms(1, 0, N)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew or forked before checking the labels")

    for name in ("block_rows", "ordered_map"):
        monkeypatch.setattr(simulate, name, no_draws)
    message = r"belief starts 0\.1234567 and 0\.1234568 share the outcome label outsider\(y0=0\.123457\)"
    with pytest.raises(ValueError, match=message):
        replay_batch(full, partial, 3000, 1, (0.5, 0.1234567, 0.1234568))
    with pytest.raises(ValueError, match=message):
        replay_draws(full, partial, draws, (0.1234567, 0.5, 0.1234568))
    monkeypatch.undo()
    path = simulate_joint_path(BASE, lat, q, p, (1, 0), (0.1234567, 0.1234568))
    with pytest.raises(ValueError, match=message):
        replay_policies(path, full, {0.1234567: partial, 0.1234568: partial})
    # an exact repeat names one agent, whose outcomes both replays agree on
    repeated = replay_batch(full, partial, 3000, 1, (0.1234567, 0.1234567))
    assert list(repeated) == ["insider", "outsider(y0=0.123457)"]
    assert_same_outcomes(repeated, replay_batch(full, partial, 3000, 1, (0.1234567,)))


def test_single_paths_match_batch_across_block_boundaries(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    batch = replay_batch(full, partial, 2 * BLOCK + 6, 4242, (0.0,), chunk_size=1)
    for i in (0, BLOCK - 1, BLOCK, 2 * BLOCK + 5):
        path = simulate_joint_path(BASE, lat, q, p, (4242, i), (0.0,))
        assert np.array_equal(path.stock[1:] > path.stock[:-1], path.ups)
        for o in replay_policies(path, full, {0.0: partial}):
            step = -1 if o.exercise_step is None else o.exercise_step
            assert batch[o.agent].exercise_step[i] == step
            assert batch[o.agent].payoff[i] == o.payoff


def test_path_uniforms_are_columns_of_block_uniforms():
    for n in (7, 2 * SLAB_ROWS + 1):
        for index in (0, BLOCK - 1, BLOCK, 3 * BLOCK - 1):
            want = block_uniforms(8, index // BLOCK, n)[:, index % BLOCK]
            assert np.array_equal(path_uniforms(8, index, n), want)


@pytest.mark.parametrize("n_rows", [SLAB_ROWS - 1, SLAB_ROWS, SLAB_ROWS + 1, 2 * SLAB_ROWS + 3])
@pytest.mark.parametrize("blocks", [range(5, 6), range(2, 5)], ids=["1 block", "3 blocks"])
def test_streamed_rows_are_the_block_uniforms(n_rows, blocks):
    # each row is copied as it comes: the next slab overwrites the views
    rows = [row.copy() for row in block_rows(8, blocks, n_rows - 2)]
    assert np.array_equal(rows, np.hstack([block_uniforms(8, b, n_rows - 2) for b in blocks]))


def test_replay_of_the_stream_equals_replay_of_the_matrix(priced):
    # N = 250: the stream refills its slab many times within one replay
    full, partial = priced
    blocks = range(2, 5)
    streamed = replay_draws(full, partial, block_rows(31, blocks, N), (0.0, 0.5))
    whole = replay_draws(full, partial, np.hstack([block_uniforms(31, b, N) for b in blocks]), (0.0, 0.5))
    assert_same_outcomes(streamed, whole)


def test_default_chunk_replays_each_share_in_one_call(priced, monkeypatch):
    # the benchmark's 100k paths on two CPUs (the default chunk does not depend
    # on N): two chunks of 49 blocks, so each worker pays replay_draws' fixed
    # cost per step once
    full, partial = priced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    chunks, calls = [], []

    def in_process(fn, items):
        for item in items:
            chunks.append(item)
            yield fn(item)

    def replay_draws(*args):
        calls.append(chunks[-1])
        return _real_replay_draws(*args)

    monkeypatch.setattr(simulate, "ordered_map", in_process)
    monkeypatch.setattr(simulate, "replay_draws", replay_draws)
    replay_batch(full, partial, 100_000, 1, (0.5,))
    assert chunks == [range(0, 49), range(49, 98)] and calls == chunks


def test_block_stream_is_pinned():
    # a change in numpy's seeding or PCG64 stream would silently change every
    # simulated number; it fails here instead
    golden = [0.5118216247002567, 0.9504636963259353, 0.14415961271963373, 0.9486494471372439]
    assert block_uniforms(1, 0, 3)[0, :4].tolist() == golden
    assert np.array_equal(block_uniforms(1, 0, 3).ravel(), np.random.default_rng((1, 0)).random(5 * BLOCK))


def _engine_cases():
    yield "base y0=0", BASE, 60
    yield "base y0=0.5", replace(BASE, y0=0.5), 60
    yield "lambda=0", replace(BASE, lam=0.0), 60
    yield "strike 1e9", replace(BASE, strike=1e9), 60
    yield "N=1", BASE, 1
    yield "N=7", replace(BASE, y0=0.5), 7
    # regime 1's up probability 0.2245 takes _move_prob_select's four-pass branch
    yield "mu1=-20% N=20", replace(BASE, mu1=-0.2), 20
    yield "mu1=-20% N=20 y0=0.5", replace(BASE, mu1=-0.2, y0=0.5), 20


@pytest.mark.parametrize("name,params,n", list(_engine_cases()), ids=[c[0] for c in _engine_cases()])
def test_replay_engine_matches_path_at_a_time_oracle(name, params, n):
    full = price_full(params, n)
    partial = price_partial(params, n, 21, keep_surface=True)
    draws = block_uniforms(2024, 3, n)
    belief_starts = (0.0, 0.5)
    engine = replay_draws(full, partial, draws, belief_starts)
    oracle = reference.path_at_a_time_replay(full, partial, draws, belief_starts)
    assert list(engine) == list(oracle)
    for agent, (steps, prices, payoffs) in oracle.items():
        assert np.array_equal(engine[agent].exercise_step, steps), agent
        assert np.array_equal(engine[agent].exercise_price, prices, equal_nan=True), agent
        assert np.array_equal(engine[agent].payoff, payoffs), agent
    # thresholds themselves, exact grid hits and infinite layers included:
    # many beliefs at one step, and one belief per step along a whole path
    ys = np.concatenate((partial.grid.points, draws[0, :50]))
    for k in range(n + 1):
        expected = [reference.grid_threshold(partial.surface[k], partial.grid.n_points, y) for y in ys]
        assert np.array_equal(surface_threshold(partial, k, ys), expected)
    path_steps = np.arange(n + 1)
    ys = np.where(path_steps % 2, draws[0, : n + 1], partial.grid.points[path_steps % partial.grid.n_points])
    expected = [reference.grid_threshold(partial.surface[k], partial.grid.n_points, y) for k, y in enumerate(ys)]
    assert np.array_equal(surface_threshold(partial, path_steps, ys), expected)
    exercised = sum(int(np.sum(steps >= 0)) for steps, _, _ in oracle.values())
    if params.strike > 1e6:
        assert exercised == 0
    elif n > 1:
        assert exercised > 0


def test_move_prob_select_is_exact():
    # over a grid of (0, 1) both branches run: the two-pass form
    # up * (p_up - p_dw) + p_dw alone rounds off some p_up below 0.25, such
    # as 0.22453808014072035 (mu1 = -20% at N = 20)
    up = np.array([1.0, 0.0, 0.0, 1.0])
    out, scratch = np.empty(4), np.empty(4)
    two_pass_inexact = 0
    for p_up in [*np.linspace(0.0, 1.0, 1002)[1:-1], 0.1, 0.2245, 0.22453808014072035]:
        p_dw = 1.0 - p_up
        two_pass_inexact += p_dw + (p_up - p_dw) != p_up
        simulate._move_prob_select(p_up, p_dw)(up, out, scratch)
        assert out.tolist() == [p_up, p_dw, p_dw, p_up], p_up
    assert two_pass_inexact > 0


_real_surface_threshold = simulate.surface_threshold


def test_repeated_belief_start_is_replayed_once(priced, monkeypatch):
    full, partial = priced
    draws = block_uniforms(5, 0, N)
    calls = {}

    def counting_surface_threshold(*args):
        calls[starts] = calls.get(starts, 0) + 1
        return _real_surface_threshold(*args)

    monkeypatch.setattr(simulate, "surface_threshold", counting_surface_threshold)
    out = {}
    for starts in ((0.5,), (0.5, 0.5)):
        out[starts] = replay_draws(full, partial, draws, starts)
    assert calls[(0.5,)] > 0 and calls[(0.5, 0.5)] == calls[(0.5,)]
    assert_same_outcomes(out[(0.5, 0.5)], out[(0.5,)])


def enumerated_columns(full):
    """Every path of the replay as one uniform column, with its probability.

    One column per (switch step, move sequence): switch step 0 starts in
    regime 1 and N + 1 stands for no switch within the horizon.  Each draw
    sits at the midpoint of the probability interval of its outcome (a
    switch step s >= 1 is a row-1 draw in (q00^s, q00^(s-1)]).  Returns the
    (N + 2, M) draws, the (M,) probabilities and the (M,) switch steps.
    """
    params, q, p, n = full.params, full.q, full.p, full.lattice.n_steps
    y0, q00 = params.y0, q.q00
    # (switch step, probability, row-0 draw, row-1 draw)
    switches = [(0, y0, y0 / 2, 0.5)]
    for s in range(1, n + 1):
        switches.append((s, (1 - y0) * q00 ** (s - 1) * q.q01, (1 + y0) / 2, (q00**s + q00 ** (s - 1)) / 2))
    switches.append((n + 1, (1 - y0) * q00**n, (1 + y0) / 2, q00**n / 2))
    ups = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(bool)  # (2^N, N), True = up
    draws, weights, steps = [], [], []
    for s, prob, u0, u1 in switches:
        if prob == 0.0:
            continue
        p_up = np.where(np.arange(1, n + 1) >= s, p.p_up1, p.p_up0)  # the regime at each step's end
        block = np.empty((n + 2, ups.shape[0]))
        block[0], block[1] = u0, u1
        block[2:] = np.where(ups, p_up / 2, (1 + p_up) / 2).T
        draws.append(block)
        weights.append(prob * np.prod(np.where(ups, p_up, 1 - p_up), axis=1))
        steps.append(np.full(ups.shape[0], s))
    return np.hstack(draws), np.concatenate(weights), np.concatenate(steps)


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(BASE, id="base"),
        pytest.param(replace(BASE, lam=2.0), id="lam2"),
        pytest.param(replace(BASE, lam=0.0), id="lam0"),
    ],
)
@pytest.mark.parametrize("n_belief", [5, 21, 101])
@pytest.mark.parametrize("y0", [0.0, 0.5])
def test_replay_enumerated_exactly_equals_the_tree_values(params, n_belief, y0):
    # The probability-weighted replay over every path is the insider's value
    # at the prior and the value of the grid's policy on the exact belief tree.
    params = replace(params, y0=y0)
    for n in (1, 2, 3, 7, 10):
        full = price_full(params, n)
        partial = price_partial(params, n, n_belief, keep_surface=True)
        draws, weights, steps = enumerated_columns(full)
        switch = simulate._switch_steps(params, full.q, draws[0], draws[1])
        assert np.array_equal(np.minimum(switch, n + 1), steps), n
        assert weights.sum() == pytest.approx(1.0, rel=1e-12), n
        replayed = replay_draws(full, partial, draws, (y0,))
        insider = weights @ replayed["insider"].payoff
        outsider = weights @ replayed[f"outsider(y0={y0:g})"].payoff
        want = (1 - y0) * full.v0_root + y0 * full.v1_root
        assert abs(insider - want) <= 1e-10 * want, n
        want = reference.tree_policy_value(partial)
        assert abs(outsider - want) <= 1e-10 * want, n


def test_replay_rejects_policies_priced_under_other_parameters(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    other = price_partial(replace(BASE, strike=150.0, r=0.05), N, 51, keep_surface=True)
    with pytest.raises(ValueError, match="other parameters"):
        replay_batch(full, other, 10, 1, (0.0,))
    path = simulate_joint_path(BASE, lat, q, p, (1, 0))
    with pytest.raises(ValueError, match="other parameters"):
        replay_policies(path, full, {0.0: other})
    # the growth convention is a model input too: same lattice, other move probabilities
    literal = price_partial(replace(BASE, literal_exponent=True), N, 51, keep_surface=True)
    assert literal.lattice == full.lattice and literal.p != full.p
    with pytest.raises(ValueError, match="other parameters"):
        replay_batch(full, literal, 10, 1, (0.0,))
    # the prior alone may differ: every outsider variant sets its own
    shifted = price_partial(replace(BASE, y0=0.5), N, 51, keep_surface=True)
    assert replay_batch(full, shifted, 10, 1, (0.5,))["outsider(y0=0.5)"].payoff.size == 10
    with pytest.raises(ValueError, match="n_paths"):
        replay_batch(full, partial, 0, 1, (0.0,))
    # a partial result priced without its surface has no policy to replay
    bare = price_partial(BASE, N, 51)
    with pytest.raises(ValueError, match="no retained exercise surface"):
        replay_batch(full, bare, 10, 1, (0.0,))
    with pytest.raises(ValueError, match="no retained exercise surface"):
        replay_policies(path, full, {0.0: bare})


def test_aggregate_single_path_is_identity(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    batch = replay_batch(full, partial, 1, 6, (0.0,))
    table = aggregate_stats(batch, lat.h)
    insider = table.agents[0]
    assert insider.n_paths == 1
    assert insider.mean_payoff == batch["insider"].payoff[0]
    assert insider.se_payoff == 0.0


def _outcomes_from_single_paths(per_path) -> dict[str, AgentOutcomes]:
    by_agent = {}
    for outcomes in per_path:
        for o in outcomes:
            by_agent.setdefault(o.agent, []).append(o)
    return {
        agent: AgentOutcomes(
            agent=agent,
            exercise_step=np.array([-1 if o.exercise_step is None else o.exercise_step for o in rows]),
            exercise_price=np.array([o.exercise_price for o in rows]),
            payoff=np.array([o.payoff for o in rows]),
        )
        for agent, rows in by_agent.items()
    }


def test_aggregate_list_and_batch_agree(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    per_path = [
        replay_policies(simulate_joint_path(BASE, lat, q, p, (55, i)), full, {0.0: partial})
        for i in range(40)
    ]
    from_lists = aggregate_stats(_outcomes_from_single_paths(per_path), lat.h)
    from_batch = aggregate_stats(replay_batch(full, partial, 40, 55, (0.0,)), lat.h)
    for a, b in zip(from_lists.agents, from_batch.agents):
        assert a.agent == b.agent
        assert a.mean_payoff == pytest.approx(b.mean_payoff, rel=1e-12)
        assert a.exercise_frequency == b.exercise_frequency
    assert from_lists.pairs[0].mean_diff == pytest.approx(
        from_batch.pairs[0].mean_diff, rel=1e-12
    )


def test_insider_not_dominated_with_common_randomness(priced):
    full, partial = priced
    table = aggregate_stats(replay_batch(full, partial, 20_000, 9001, (0.0,)), full.lattice.h)
    diff = table.pairs[0]
    assert diff.mean_diff >= -2.0 * diff.se_diff


def test_lattice_mismatch_rejected(machinery, priced):
    lat, q, p = machinery
    full, partial = priced
    other = build_lattice(BASE, N + 1)
    path = simulate_joint_path(BASE, other, transition_matrix(BASE.lam, other.h),
                               regime_return_probs(BASE, other), (1, 0))
    with pytest.raises(ValueError, match="lattice mismatch"):
        replay_policies(path, full, {0.0: partial})
