"""Full-information pricer: the insider observes the drift regime directly.

Backward induction runs jointly over two value trees, one per regime, coupled
through the switching chain; runs that share a lattice can be swept together,
two trees each.  Exercise boundaries are read off slice by slice
as the smallest in-the-money node price where stopping beats continuing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .lattice import (
    Lattice,
    NonFiniteResultError,
    QMatrix,
    RegimeReturnProbs,
    build_lattice,
    check_finite,
    regime_return_probs,
    transition_matrix,
)
from .model import ModelParams, check_beliefs
from .sweep import SweepResult, backward_sweep

# A node counts as exercised when intrinsic >= continuation - TIE_TOL*max(1, intrinsic),
# so boundary extraction is deterministic under floating-point ties.
EXERCISE_TIE_TOL = 1e-12


def first_exercise_prices(
    prices: np.ndarray, strike: float, intrinsic: np.ndarray, continuation: np.ndarray
) -> np.ndarray:
    """Smallest in-the-money node price where intrinsic >= continuation.

    ``prices`` ascend over n_nodes >= 1 nodes and ``continuation`` is
    (m, n_nodes), m independent slices; returns an (m,) array, +inf where no
    node of a slice exercises.
    """
    exercised = intrinsic >= continuation - EXERCISE_TIE_TOL * np.maximum(1.0, intrinsic)
    if prices[0] <= strike:  # the sweep passes in-the-money nodes only
        exercised &= prices > strike
    first = np.argmax(exercised, axis=1)  # 0 in a row with no exercised node
    return np.where((first > 0) | exercised[:, 0], prices[first], inf)


@dataclass(frozen=True)
class FullInfoResult:
    v0_root: float  # value at the root in the high-drift regime
    v1_root: float  # value at the root in the low-drift (absorbing) regime
    boundary0: np.ndarray | None  # (N+1,) exercise threshold per step, +inf allowed
    boundary1: np.ndarray | None
    params: ModelParams
    lattice: Lattice
    q: QMatrix
    p: RegimeReturnProbs
    node_steps: int = 0  # layer-node updates the sweep performed (2 layers: the regimes)

    def boundary(self, regime: int) -> np.ndarray:
        if regime not in (0, 1):
            raise ValueError(f"regime must be 0 or 1, got {regime}")
        b = self.boundary0 if regime == 0 else self.boundary1
        if b is None:
            raise ValueError("boundaries were not retained for this run")
        return b


def _sweep_runs(
    lattice: Lattice, strike: float, qs: list[QMatrix], ps: list[RegimeReturnProbs], keep_boundaries: bool
) -> SweepResult:
    """One active-window sweep over the regime trees of C runs on ``lattice``.

    The runs share the lattice (with its discount factor) and the strike; run
    c brings its switching chain qs[c] and move probabilities ps[c].  Its two
    regime rows are layers 2c (high drift) and 2c + 1 (low drift).  The
    sweep is not ``by_layers``, so it always runs in one process.
    """
    up_probs = np.array([(p.p_up0, p.p_up1) for p in ps]).reshape(-1, 1)
    dw_probs = np.array([(p.p_dw0, p.p_dw1) for p in ps]).reshape(-1, 1)
    mix = np.array([(q.q00, q.q01) for q in qs]).reshape(-1, 1)
    # w <= N + 1; only the pages of the columns used are touched
    work = np.empty((up_probs.shape[0], lattice.n_steps + 1))

    def continuation(children: np.ndarray, out: np.ndarray, layers: tuple[int, int]) -> None:
        # Each run's two rows run the same operations as
        #   up1 = p_up1 * v1[1:] + p_dw1 * v1[:-1]
        #   cont0 = disc * (q00 * (p_up0 * v0[1:] + p_dw0 * v0[:-1]) + q01 * up1)
        #   cont1 = disc * up1
        # on the stacked rows of every run, in place in ``out``; the sweep is
        # never split, so ``layers`` is every layer.
        tmp = work[:, : out.shape[1]]
        np.multiply(up_probs, children[:, 1:], out=out)
        np.multiply(dw_probs, children[:, :-1], out=tmp)
        out += tmp
        np.multiply(mix, out, out=tmp)
        np.add(tmp[0::2], tmp[1::2], out=out[0::2])
        out *= lattice.disc

    sure_up = [(q.q00 * p.p_up0 + q.q01 * p.p_up1, p.p_up1) for q, p in zip(qs, ps)]
    sure_dw = [(q.q00 * p.p_dw0 + q.q01 * p.p_dw1, p.p_dw1) for q, p in zip(qs, ps)]
    return backward_sweep(
        lattice,
        strike,
        np.array(sure_up).ravel(),
        np.array(sure_dw).ravel(),
        continuation,
        thresholds=first_exercise_prices if keep_boundaries else None,
    )


def price_full(params: ModelParams, n_steps: int, keep_boundaries: bool = True) -> FullInfoResult:
    """Value the option under full information on an N-step lattice.

    v(k, x, i) = max{(x-K)+, disc * sum_j q_ij [p_up,j v(k+1, x*up, j)
                                               + p_dw,j v(k+1, x*dw, j)]},
    terminal value (x-K)+, both regime trees swept together as the two layers
    of one active-window sweep (see ``sweep``).
    """
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)
    run = _sweep_runs(lattice, params.strike, [q], [p], keep_boundaries)
    v0_root, v1_root = (float(v) for v in run.root)
    check_finite("full-information root value", (v0_root, v1_root))

    boundary0 = boundary1 = None
    if keep_boundaries:
        boundary0, boundary1 = run.thresholds.T.copy()

    return FullInfoResult(
        v0_root=v0_root,
        v1_root=v1_root,
        boundary0=boundary0,
        boundary1=boundary1,
        params=params,
        lattice=lattice,
        q=q,
        p=p,
        node_steps=run.node_steps,
    )


def price_full_roots(runs: list[ModelParams], n_steps: int) -> list[tuple[float, float] | ValueError]:
    """The (v0, v1) roots of full-information runs on one lattice, in one sweep.

    The runs must share sigma, maturity, spot (the lattice), strike and r;
    mu0, mu1, lam and the growth convention may differ, since each run's move
    probabilities are built from its own params.  Each run's roots are bit
    for bit those of ``price_full``: a sweep's values do not depend on its
    window, so the wider window the runs share changes none of them.  A run that ``price_full``
    rejects (inadmissible probabilities, a root that is not finite) gets the
    error ``price_full`` raises in place of its roots, and the other runs are
    priced as if it were not there.
    """
    if len({(p.sigma, p.maturity, p.spot, p.strike, p.r) for p in runs}) > 1:
        raise ValueError("the runs of a group must share sigma, maturity, spot, strike and r")
    if not runs:
        return []
    lattice = build_lattice(runs[0], n_steps)
    outcomes: list = []
    for params in runs:
        try:
            q = transition_matrix(params.lam, lattice.h)
            outcomes.append((q, regime_return_probs(params, lattice)))
        except ValueError as exc:
            outcomes.append(exc)
    priced = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, ValueError)]
    if priced:
        qs, ps = zip(*(outcomes[i] for i in priced))
        root = _sweep_runs(lattice, runs[0].strike, qs, ps, keep_boundaries=False).root
        for c, i in enumerate(priced):
            outcomes[i] = float(root[2 * c]), float(root[2 * c + 1])
            if not np.all(np.isfinite(outcomes[i])):
                # A run's rows can differ from price_full's only where node
                # prices overflow: the shared window may sweep nodes that the
                # run's own window takes as exercised, and then the run's root
                # is not finite.  Price such a run on its own.
                try:
                    full = price_full(runs[i], n_steps, keep_boundaries=False)
                    outcomes[i] = full.v0_root, full.v1_root
                except NonFiniteResultError as exc:
                    outcomes[i] = exc
    return outcomes


def price_european_reference(
    params: ModelParams,
    n_steps: int,
    regime: int | None = None,
    y0: float | None = None,
) -> float:
    """Discounted expectation of the terminal payoff on the same lattice.

    Start either from a known regime or from a belief y0 (a y0 start is the
    regime mixture: the terminal payoff law is linear in the prior).  Serves
    as the no-early-exercise reference and as an American lower bound.
    """
    if (regime is None) == (y0 is None):
        raise ValueError("specify exactly one of regime or y0")
    if regime not in (None, 0, 1):
        raise ValueError(f"regime must be 0 or 1, got {regime}")
    if y0 is not None:
        check_beliefs([y0])
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)
    disc = lattice.disc

    v0 = np.maximum(lattice.level_prices(n_steps) - params.strike, 0.0)
    v1 = v0.copy()
    for _ in range(n_steps):
        up1 = p.p_up1 * v1[1:] + p.p_dw1 * v1[:-1]
        v0 = disc * (q.q00 * (p.p_up0 * v0[1:] + p.p_dw0 * v0[:-1]) + q.q01 * up1)
        v1 = disc * up1
    if regime is not None:
        value = float(v0[0]) if regime == 0 else float(v1[0])
    else:
        value = float((1.0 - y0) * v0[0] + y0 * v1[0])
    check_finite("European reference value", value)
    return value

