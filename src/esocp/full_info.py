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

    ``continuation`` may be (n_nodes,) for a single slice or (m, n_nodes) for
    m independent slices; returns a float or an (m,) array, +inf where no node
    exercises.
    """
    exercised = (prices > strike) & (intrinsic >= continuation - EXERCISE_TIE_TOL * np.maximum(1.0, intrinsic))
    if continuation.ndim == 1:
        return float(prices[np.argmax(exercised)]) if exercised.any() else inf
    first = np.argmax(exercised, axis=1)
    return np.where(exercised.any(axis=1), prices[first], inf)


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

    def continuation(children: np.ndarray) -> np.ndarray:
        v0, v1 = children
        up1 = p.p_up1 * v1[1:] + p.p_dw1 * v1[:-1]
        cont = np.empty((2, v0.size - 1))
        cont[0] = disc * (q.q00 * (p.p_up0 * v0[1:] + p.p_dw0 * v0[:-1]) + q.q01 * up1)
        cont[1] = disc * up1
        return cont

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

