"""Full-information pricer: the insider observes the drift regime directly.

Backward induction runs jointly over two value trees, one per regime, coupled
through the switching chain.  Exercise boundaries are read off slice by slice
as the smallest in-the-money node price where stopping beats continuing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf

import numpy as np

from .lattice import (
    Lattice,
    QMatrix,
    RegimeReturnProbs,
    build_lattice,
    check_finite,
    regime_return_probs,
    transition_matrix,
)
from .model import ModelParams
from .sweep import backward_sweep

# A node counts as exercised when intrinsic >= continuation - TIE_TOL*max(1, intrinsic),
# so boundary extraction is deterministic under floating-point ties.
EXERCISE_TIE_TOL = 1e-12


def first_exercise_prices(
    prices: np.ndarray, strike: float, intrinsic: np.ndarray, continuation: np.ndarray
) -> np.ndarray | float:
    """Smallest in-the-money node price where intrinsic >= continuation.

    ``prices`` ascend over n_nodes >= 1 nodes.  ``continuation`` may be
    (n_nodes,) for a single slice or (m, n_nodes) for m independent slices;
    returns a float or an (m,) array, +inf where no node exercises.
    """
    exercised = intrinsic >= continuation - EXERCISE_TIE_TOL * np.maximum(1.0, intrinsic)
    if prices[0] <= strike:  # the sweep passes in-the-money nodes only
        exercised &= prices > strike
    if continuation.ndim == 1:
        first = int(np.argmax(exercised))
        return float(prices[first]) if exercised[first] else inf
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

    def root(self, regime: int) -> float:
        return self.v0_root if regime == 0 else self.v1_root

    def boundary(self, regime: int) -> np.ndarray:
        b = self.boundary0 if regime == 0 else self.boundary1
        if b is None:
            raise ValueError("boundaries were not retained for this run")
        return b


def price_full(
    params: ModelParams,
    n_steps: int,
    literal_exponent: bool = False,
    keep_boundaries: bool = True,
) -> FullInfoResult:
    """Value the option under full information on an N-step lattice.

    v(k, x, i) = max{(x-K)+, disc * sum_j q_ij [p_up,j v(k+1, x*up, j)
                                               + p_dw,j v(k+1, x*dw, j)]},
    terminal value (x-K)+, both regime trees swept together as the two layers
    of one active-window sweep (see ``sweep``).
    """
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice, literal_exponent)
    disc = exp(-params.r * lattice.h)

    up_probs = np.array([[p.p_up0], [p.p_up1]])
    dw_probs = np.array([[p.p_dw0], [p.p_dw1]])
    mix = np.array([[q.q00], [q.q01]])
    work = np.empty((4, n_steps + 1))  # w <= N + 1; only the pages of the columns used are touched

    def continuation(children: np.ndarray, out: np.ndarray, layers: tuple[int, int]) -> None:
        # The regime rows of ``layers``, the same operations as
        #   up1 = p_up1 * v1[1:] + p_dw1 * v1[:-1]
        #   cont0 = disc * (q00 * (p_up0 * v0[1:] + p_dw0 * v0[:-1]) + q01 * up1)
        #   cont1 = disc * up1
        # Both sums at once on stacked (2, w) arrays, also when only one
        # regime row is asked for.
        w = out.shape[1]
        tmp, sums = work[:2, :w], out if layers == (0, 2) else work[2:, :w]
        np.multiply(up_probs, children[:, 1:], out=sums)
        np.multiply(dw_probs, children[:, :-1], out=tmp)
        sums += tmp
        if layers[0] == 0:
            np.multiply(mix, sums, out=tmp)
            np.add(tmp[0], tmp[1], out=out[0])
        else:
            out[0] = sums[1]
        out *= disc

    run = backward_sweep(
        lattice,
        params.strike,
        disc,
        np.array([q.q00 * p.p_up0 + q.q01 * p.p_up1, p.p_up1]),
        np.array([q.q00 * p.p_dw0 + q.q01 * p.p_dw1, p.p_dw1]),
        continuation,
        thresholds=first_exercise_prices if keep_boundaries else None,
    )
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


def price_european_reference(
    params: ModelParams,
    n_steps: int,
    regime: int | None = None,
    y0: float | None = None,
    literal_exponent: bool = False,
) -> float:
    """Discounted expectation of the terminal payoff on the same lattice.

    Start either from a known regime or from a belief y0 (a y0 start is the
    regime mixture: the terminal payoff law is linear in the prior).  Serves
    as the no-early-exercise reference and as an American lower bound.
    """
    if (regime is None) == (y0 is None):
        raise ValueError("specify exactly one of regime or y0")
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice, literal_exponent)
    disc = exp(-params.r * lattice.h)

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

