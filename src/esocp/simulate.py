"""Monte Carlo engine: simulate the joint lattice dynamics and replay the
insider's and outsider's optimal exercise policies on common paths.

Reproducibility contract: paths come in blocks of BLOCK = 1024.  Block b
covers paths [b*BLOCK, (b+1)*BLOCK) and draws all its uniforms from one
stream, ``default_rng((master_seed, b)).random((N + 2, BLOCK))``, laid out
step-major: row 0 decides the initial regime, row 1 the switch step, row
k + 2 the move over step k, and column c belongs to path b*BLOCK + c.  The
stream is read SLAB_ROWS rows at a time (``block_rows``), which draws the same
numbers.  Path i is therefore the same whatever the number of paths or the
chunk size, and ``simulate_joint_path`` with seed (master_seed, i) reproduces
batch path i.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, replace
from math import inf, log, nan
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._workers import fork_each, usable_cpus
from .filtering import update_belief
from .full_info import FullInfoResult
from .lattice import Lattice, QMatrix, RegimeReturnProbs
from .model import ModelParams, check_beliefs
from .partial_info import PartialInfoResult

BLOCK = 1024
RNG_NAME = f"numpy PCG64 (default_rng), stream (seed, block) per block of {BLOCK} paths, step-major"

_ROWS_BEFORE_MOVES = 2  # initial-regime draw + switch-step draw
# Rows drawn per refill of a stream.  On a 2-core KVM guest, slabs of 8, 16,
# 32 and 64 rows replayed 100k paths at N=500 equally fast within noise, and
# each child's peak RSS was 41, 44, 50 and 61 MB: 16 rows keep nearly all of
# that saving with half the refills of 8.  At least 2, so that rows 0 and 1
# come from one slab.
SLAB_ROWS = 16
# About 32 MB per chunk, for its slab plus replay_draws' per-path arrays, of
# which there are about 12 plus 4 per agent (8 bytes each).
_CHUNK_BYTES = 32 << 20


def block_rows(master_seed: int, blocks: range, n_steps: int):
    """Yield the N + 2 step-major uniform rows of the paths of blocks, in order.

    Row r is the row r of each block's ``default_rng((master_seed, b))``
    stream, side by side.  The rows are views of one (SLAB_ROWS, paths) slab
    that every stream refills SLAB_ROWS rows at a time, so a row holds its
    numbers only until a row of the next slab is asked for.
    """
    n_rows = n_steps + _ROWS_BEFORE_MOVES
    streams = [np.random.default_rng((master_seed, b)) for b in blocks]
    slab = np.empty((min(SLAB_ROWS, n_rows), len(streams) * BLOCK))
    drawn = np.empty((len(slab), BLOCK))  # Generator.random writes only contiguous arrays
    for first in range(0, n_rows, SLAB_ROWS):
        rows = slab[: min(SLAB_ROWS, n_rows - first)]
        for c, stream in enumerate(streams):
            rows[:, c * BLOCK : (c + 1) * BLOCK] = stream.random(out=drawn[: len(rows)])
        yield from rows


def path_uniforms(master_seed: int, index: int, n_steps: int) -> np.ndarray:
    """The (N + 2,) uniforms of path index: its column of its block's rows."""
    block, column = divmod(index, BLOCK)
    return np.array([row[column] for row in block_rows(master_seed, range(block, block + 1), n_steps)])


@dataclass(frozen=True)
class SimPath:
    lattice: Lattice
    ups: np.ndarray  # (N,) booleans, True = up move
    stock: np.ndarray  # (N+1,) node prices along the path
    regime: np.ndarray  # (N+1,) 0/1, non-decreasing
    switch_step: int | None  # first step in regime 1; None if never
    beliefs: dict[float, np.ndarray]  # filtered path per initial belief


@dataclass(frozen=True)
class ExerciseOutcome:
    agent: str
    exercise_step: int | None
    exercise_price: float  # nan when never exercised
    payoff: float  # discounted to time zero
    thresholds: np.ndarray  # (N+1,) price the stock was compared against per step


def _switch_step_from_uniform(u: float | np.ndarray, q00: float):
    """First step index in regime 1, sampled by inverting the geometric law."""
    if q00 >= 1.0:
        return np.full_like(np.asarray(u, dtype=float), inf)
    with np.errstate(divide="ignore"):
        ratio = np.log(u) / log(q00)
    return np.floor(ratio) + 1.0


def _switch_steps(params: ModelParams, q: QMatrix, u_regime, u_switch) -> np.ndarray:
    """First step in regime 1 per path (0 if it starts there, inf if never)."""
    return np.where(u_regime < params.y0, 0.0, _switch_step_from_uniform(u_switch, q.q00))


def simulate_joint_path(
    params: ModelParams,
    lattice: Lattice,
    q: QMatrix,
    p: RegimeReturnProbs,
    seed: tuple[int, int],
    belief_starts: Sequence[float] = (0.0, 0.5),
) -> SimPath:
    """One path of (stock, regime) plus the outsider's filtered beliefs.

    ``seed`` is (master seed, path index).  The move over a step is drawn
    with the probability of the regime prevailing at the end of that step.
    """
    check_beliefs(belief_starts, "belief starts")
    master_seed, index = seed
    n = lattice.n_steps
    draws = path_uniforms(master_seed, index, n)

    first = float(_switch_steps(params, q, draws[0], draws[1]))
    switch = int(first) if first <= n else None
    regime = np.zeros(n + 1, dtype=np.int8)
    if switch is not None:
        regime[switch:] = 1

    ups = draws[_ROWS_BEFORE_MOVES:] < np.where(regime[1:] == 1, p.p_up1, p.p_up0)
    j = np.concatenate(([0], np.cumsum(ups)))
    stock = np.array([lattice.level_prices(k)[jk] for k, jk in enumerate(j)])

    beliefs: dict[float, np.ndarray] = {}
    for y0 in belief_starts:
        path = np.empty(n + 1)
        path[0] = y = y0
        for step in range(n):
            y = update_belief(y, ups[step], q, p)
            path[step + 1] = y
        beliefs[y0] = path

    return SimPath(
        lattice=lattice,
        ups=ups,
        stock=stock,
        regime=regime,
        switch_step=switch,
        beliefs=beliefs,
    )


def _check_same_lattice(a: Lattice, b: Lattice, what: str) -> None:
    if a.n_steps != b.n_steps or a.up != b.up or a.spot != b.spot:
        raise ValueError(f"lattice mismatch between simulated path and {what}")


def _check_policies(full: FullInfoResult, partial: PartialInfoResult, what: str) -> None:
    """Both policies must come from one model; only the prior y0 may differ."""
    _check_same_lattice(full.lattice, partial.lattice, what)
    if replace(full.params, y0=0.0) != replace(partial.params, y0=0.0):
        raise ValueError(
            f"{what} was priced under other parameters than full-information pricing "
            "(only y0 may differ)"
        )
    if partial.surface is None:
        raise ValueError("partial result has no retained exercise surface")


def surface_threshold(surface_row: np.ndarray, result: PartialInfoResult, y) -> np.ndarray:
    """Exercise threshold at beliefs y in [0, 1], linear between belief layers.

    An infinite threshold on either side of a genuine bracket makes the whole
    cell uncrossable (no interpolation across an infinite layer): inf times a
    weight in (0, 1) stays inf.  A weight of 0 (exact hit), or two equal
    layers, reads the layer: ``s*(1 - w) + s*w`` can round 1 ulp off s, and a
    node priced exactly s would then not exercise.
    """
    lo, hi, w = result.grid.locate(y)
    s_lo, s_hi = surface_row[lo], surface_row[hi]
    with np.errstate(invalid="ignore"):
        interp = s_lo * (1.0 - w) + s_hi * w
    return np.where((w == 0.0) | (s_lo == s_hi), s_lo, interp)


def _discount_factors(full_result: FullInfoResult) -> np.ndarray:
    """exp(-r t_k) for k = 0..N; the one discounting both replay paths use."""
    lattice = full_result.lattice
    return np.exp(-full_result.params.r * lattice.h * np.arange(lattice.n_steps + 1))


def _first_crossing(stock: np.ndarray, threshold: np.ndarray) -> int | None:
    hits = np.flatnonzero(stock >= threshold)
    return int(hits[0]) if hits.size else None


def replay_policies(
    path: SimPath,
    full_result: FullInfoResult,
    partial_results: Mapping[float, PartialInfoResult],
) -> list[ExerciseOutcome]:
    """Exercise both agents' optimal policies along one simulated path.

    The insider stops the first time the stock crosses the boundary of the
    regime they currently observe; each outsider variant stops at the first
    crossing of the surface threshold interpolated at her current belief.
    Each outcome keeps the per-step thresholds its agent was compared with.
    """
    _check_same_lattice(path.lattice, full_result.lattice, "full-information pricing")
    check_beliefs(partial_results, "belief starts")
    strike = full_result.params.strike
    disc = _discount_factors(full_result)

    def outcome(agent: str, thresholds: np.ndarray) -> ExerciseOutcome:
        step = _first_crossing(path.stock, thresholds)
        if step is None:
            return ExerciseOutcome(agent, None, nan, 0.0, thresholds)
        x = float(path.stock[step])
        return ExerciseOutcome(agent, step, x, float(disc[step] * max(x - strike, 0.0)), thresholds)

    insider = np.where(path.regime == 1, full_result.boundary(1), full_result.boundary(0))
    outcomes = [outcome("insider", insider)]
    for y0, partial in partial_results.items():
        _check_policies(full_result, partial, f"partial pricing (y0={y0:g})")
        threshold = np.array(
            [surface_threshold(s, partial, y) for s, y in zip(partial.surface, path.beliefs[y0])]
        )
        outcomes.append(outcome(f"outsider(y0={y0:g})", threshold))
    return outcomes


@dataclass(frozen=True)
class AgentOutcomes:
    """Vectorised outcomes of one agent over a batch of common paths."""

    agent: str
    exercise_step: np.ndarray  # (M,) int64, -1 where never exercised
    exercise_price: np.ndarray  # (M,) float, nan where never exercised
    payoff: np.ndarray  # (M,) discounted payoff


def replay_batch(
    full_result: FullInfoResult,
    partial_result: PartialInfoResult,
    n_paths: int,
    master_seed: int,
    belief_starts: Sequence[float] = (0.0, 0.5),
    chunk_size: int | None = None,
) -> dict[str, AgentOutcomes]:
    """Simulate n_paths with common random numbers and replay every policy.

    Paths are drawn block by block (see the module docstring).  The blocks
    are split into one near-equal contiguous share per usable CPU, and each
    share is replayed in a child forked for it (``_workers.fork_each``), a
    chunk of whole blocks at a time, each chunk's uniforms streamed from
    ``block_rows``.  chunk_size (paths, rounded up to whole blocks) bounds one
    chunk's slab and per-path arrays; it does not change the results.  By
    default a chunk takes about 32 MB, which holds a share of 100k paths.
    Every agent's outcomes live in one anonymous shared mapping made before
    the fork: each child draws its own blocks and writes its paths' outcomes
    in place, so nothing is pickled either way, and the returned arrays are
    views of that mapping.  All outsider variants share one exercise surface
    (the value surface does not depend on the initial belief) but carry
    their own filtered belief paths.
    """
    _check_policies(full_result, partial_result, "partial pricing")
    check_beliefs(belief_starts, "belief starts")
    agents = list(dict.fromkeys(agent_labels(belief_starts)))
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n = full_result.lattice.n_steps
    n_blocks = -(-n_paths // BLOCK)
    if chunk_size is None:
        chunk_size = _CHUNK_BYTES // (8 * (SLAB_ROWS + 12 + 4 * len(agents)))
    chunk_blocks = max(1, -(-chunk_size // BLOCK))
    size = len(agents) * n_blocks * BLOCK
    shared = mmap.mmap(-1, 3 * 8 * size)
    steps = np.frombuffer(shared, np.int64, size).reshape(len(agents), -1)
    prices, payoffs = np.frombuffer(shared, float, 2 * size, 8 * size).reshape(2, len(agents), -1)
    steps.fill(-2)  # never an outcome: marks a path no share wrote

    def replay_share(share: range) -> None:
        for first in range(share.start, share.stop, chunk_blocks):
            blocks = range(first, min(first + chunk_blocks, share.stop))
            out = replay_draws(full_result, partial_result, block_rows(master_seed, blocks, n), belief_starts)
            paths = slice(blocks.start * BLOCK, blocks.stop * BLOCK)
            for a, agent in enumerate(agents):
                steps[a, paths] = out[agent].exercise_step
                prices[a, paths] = out[agent].exercise_price
                payoffs[a, paths] = out[agent].payoff

    n_shares = min(n_blocks, usable_cpus())
    bounds = [s * n_blocks // n_shares for s in range(n_shares + 1)]
    fork_each(replay_share, [range(a, b) for a, b in zip(bounds, bounds[1:])])
    if np.any(steps == -2):
        raise ChildProcessError("a replay worker left paths without outcomes")
    return {
        agent: AgentOutcomes(agent, steps[a, :n_paths], prices[a, :n_paths], payoffs[a, :n_paths])
        for a, agent in enumerate(agents)
    }


def agent_labels(belief_starts: Sequence[float]) -> list[str]:
    """The outcome keys: "insider", then "outsider(y0=...)" per belief start.

    An exact repeat of a belief repeats its label.  Two distinct beliefs with
    one label (0.1234567 and 0.1234568 both read "0.123457") raise
    ``ValueError``: their outcomes would share one key.
    """
    labels = [f"outsider(y0={y0:g})" for y0 in belief_starts]
    first: dict[str, float] = {}
    for label, y0 in zip(labels, belief_starts):
        if first.setdefault(label, y0) != y0:
            raise ValueError(f"belief starts {first[label]!r} and {y0!r} share the outcome label {label}")
    return ["insider"] + labels


def _move_prob_select(p_up: float, p_dw: float):
    """A select(up, out, scratch) writing p_up where up is 1.0 and p_dw where it is 0.0.

    Either way each entry is exactly p_up or p_dw.  The two-pass form
    up * (p_up - p_dw) + p_dw is exact wherever p_dw + (p_up - p_dw) == p_up,
    which Sterbenz's lemma guarantees for any p_up in [1/3, 2/3] (p_dw is
    1 - p_up), and which fails for some p_up below about 0.25 (0.2245 at
    mu1 = -20%, N = 20).  There the select adds the two products
    up * p_up and (1 - up) * p_dw, one of them exactly 0.
    """
    step = p_up - p_dw
    if p_dw + step == p_up:

        def select(up: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
            np.multiply(up, step, out=out)
            out += p_dw

    else:

        def select(up: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
            np.subtract(1.0, up, out=scratch)
            scratch *= p_dw
            np.multiply(up, p_up, out=out)
            out += scratch

    return select


def replay_draws(
    full_result: FullInfoResult,
    partial_result: PartialInfoResult,
    draws: Iterable[np.ndarray],
    belief_starts: Sequence[float] = (0.0, 0.5),
) -> dict[str, AgentOutcomes]:
    """Replay every policy on the paths of N + 2 step-major uniform rows.

    draws yields (M,) rows in order, as an (N + 2, M) matrix or ``block_rows``
    do; each row is read before the next is asked for, except that rows 0 and
    1 are read together.  Column i is one path, its rows used as in the module
    docstring.  Each step runs over all paths at once, on each path's count j
    of up moves so far: node prices ascend in j, so a path's stock reaches a
    threshold exactly when j reaches the first index of
    ``Lattice.level_prices(k)`` at or above it.  One compare of j picks the
    paths that reach the lowest threshold the step can have; only there, and
    only for agents that have not exercised, is the stock read and a
    threshold evaluated (a belief bracketed).  Only the realised branch of the
    filter is evaluated (the operations of ``update_belief``, in its order),
    with the move probabilities picked exactly by ``_move_prob_select`` from
    the move indicator, which, like j, is kept as float64 (whole numbers,
    exact below 2**53).  An exact repeat of a belief start is replayed once.
    """
    params, lattice, q, p = full_result.params, full_result.lattice, full_result.q, full_result.p
    n = lattice.n_steps
    b0, b1 = full_result.boundary(0), full_result.boundary(1)
    surface = partial_result.surface
    # An interpolated threshold is at least the smaller of its two layers up to
    # rounding; the relative margin keeps every possible crossing a candidate.
    surface_floor = np.min(surface, axis=1) * (1.0 - 1e-12)

    labels = agent_labels(belief_starts)
    starts = dict(zip(labels[1:], belief_starts))  # an exact repeat shares its label
    agents = ["insider", *starts]
    rows = iter(draws)
    u_regime = next(rows)
    m = u_regime.size
    switch = _switch_steps(params, q, u_regime, next(rows))
    steps = {a: np.full(m, -1, dtype=np.int64) for a in agents}
    prices = {a: np.full(m, nan) for a in agents}
    beliefs = [np.full(m, float(y0)) for y0 in starts.values()]
    j = np.zeros(m)
    # paths sorted by switch step: the ones entering regime 1 at step t are
    # order[entered[t - 1]:entered[t]]
    order = np.argsort(switch, kind="stable")
    entered = np.searchsorted(switch[order], np.arange(n + 1), side="right")
    p_up = np.where(switch <= 0, p.p_up1, p.p_up0)  # move probability of the next step
    select0, select1 = _move_prob_select(p.p_up0, p.p_dw0), _move_prob_select(p.p_up1, p.p_dw1)
    up, p0, p1, stay, favour, denom = (np.empty(m) for _ in range(6))

    def exercise(agent: str, k: int, first: int, threshold) -> None:
        # the paths of this step's reach whose stock is at or above level[first]
        if first > k:
            return
        candidates = reach[(reach_j >= first) & (steps[agent][reach] < 0)]
        if candidates.size:
            stock = level[j[candidates].astype(np.intp)]
            hit = stock >= threshold(candidates)
            steps[agent][candidates[hit]] = k
            prices[agent][candidates[hit]] = stock[hit]

    for k in range(n + 1):
        # first node index at or above the lowest threshold each agent can have
        level = lattice.level_prices(k)
        first_insider = int(np.searchsorted(level, min(b0[k], b1[k])))
        first_outsider = int(np.searchsorted(level, surface_floor[k]))
        if min(first_insider, first_outsider) <= k:
            reach = np.flatnonzero(j >= min(first_insider, first_outsider))
            reach_j = j[reach]
        exercise("insider", k, first_insider, lambda c: np.where(switch[c] <= k, b1[k], b0[k]))
        for agent, y in zip(agents[1:], beliefs):
            exercise(agent, k, first_outsider, lambda c: surface_threshold(surface[k], partial_result, y[c]))
        if k == n:
            break

        p_up[order[entered[k] : entered[k + 1]]] = p.p_up1
        np.less(next(rows), p_up, out=up)
        j += up
        select0(up, p0, stay)
        select1(up, p1, stay)
        for y in beliefs:
            # update_belief's operations, in its order, on the realised move
            np.subtract(1.0, y, out=stay)
            np.multiply(q.q01, stay, out=favour)
            favour += y
            favour *= p1
            np.multiply(q.q00, stay, out=denom)
            denom *= p0
            denom += favour
            np.divide(favour, denom, out=y)

    disc = _discount_factors(full_result)
    out = {}
    for agent in agents:
        s, x = steps[agent], prices[agent]
        exercised = s >= 0
        payoff = np.zeros(m)
        payoff[exercised] = disc[s[exercised]] * np.maximum(x[exercised] - params.strike, 0.0)
        out[agent] = AgentOutcomes(agent=agent, exercise_step=s, exercise_price=x, payoff=payoff)
    return out


@dataclass(frozen=True)
class AgentStats:
    agent: str
    n_paths: int
    mean_payoff: float
    std_payoff: float
    se_payoff: float
    exercise_frequency: float
    mean_exercise_time: float  # years over exercised paths; nan if none


@dataclass(frozen=True)
class PairStats:
    first: str
    second: str
    mean_diff: float  # mean(first - second) on common paths
    se_diff: float


@dataclass(frozen=True)
class SummaryTable:
    agents: list[AgentStats]
    pairs: list[PairStats]

    def as_text(self) -> str:
        lines = [
            f"{'agent':<20} {'paths':>8} {'mean':>12} {'stdev':>12} {'stderr':>10} "
            f"{'ex.freq':>8} {'mean t*':>9}"
        ]
        for a in self.agents:
            lines.append(
                f"{a.agent:<20} {a.n_paths:>8d} {a.mean_payoff:>12.6f} {a.std_payoff:>12.6f} "
                f"{a.se_payoff:>10.6f} {a.exercise_frequency:>8.4f} {a.mean_exercise_time:>9.4f}"
            )
        for d in self.pairs:
            lines.append(
                f"{d.first} - {d.second}: mean diff {d.mean_diff:.6f} (se {d.se_diff:.6f})"
            )
        return "\n".join(lines)


def _stats_from_arrays(outcomes: AgentOutcomes, h: float) -> AgentStats:
    pay = outcomes.payoff
    m = pay.size
    mean = float(np.mean(pay))
    std = float(np.std(pay, ddof=1)) if m > 1 else 0.0
    exercised = outcomes.exercise_step >= 0
    freq = float(np.mean(exercised))
    mean_time = float(h * np.mean(outcomes.exercise_step[exercised])) if exercised.any() else nan
    return AgentStats(
        agent=outcomes.agent,
        n_paths=m,
        mean_payoff=mean,
        std_payoff=std,
        se_payoff=std / m**0.5 if m > 1 else 0.0,
        exercise_frequency=freq,
        mean_exercise_time=mean_time,
    )


def aggregate_stats(outcomes: Mapping[str, AgentOutcomes], h: float) -> SummaryTable:
    """Summarise per-agent payoffs and insider-vs-outsider differences."""
    agents = [_stats_from_arrays(o, h) for o in outcomes.values()]
    pairs = []
    insider = outcomes.get("insider")
    if insider is not None:
        for name, other in outcomes.items():
            if name == "insider":
                continue
            diff = insider.payoff - other.payoff
            m = diff.size
            se = float(np.std(diff, ddof=1) / m**0.5) if m > 1 else 0.0
            pairs.append(
                PairStats(first="insider", second=name, mean_diff=float(np.mean(diff)), se_diff=se)
            )
    return SummaryTable(agents=agents, pairs=pairs)
