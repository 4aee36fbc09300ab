"""Partial-information pricer: the outsider filters the regime from prices.

The filtered probability does not recombine on the stock tree (an up-down
path and a down-up path end at the same price but different beliefs), so the
exact state space grows like 2^k.  The workhorse here carries L belief layers
per stock node and linearly interpolates continuation values at the Bayes
posteriors, in the spirit of the average-price grids used for Asian options.
An exact enumeration of the non-recombining tree is kept for small N as the
oracle the grid scheme is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .filtering import FilterGrid, build_grid, predict_return_prob, update_belief
from .full_info import first_exercise_prices
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

# Exact enumeration doubles its state space every step.
MAX_EXACT_STEPS = 22


@dataclass(frozen=True)
class PartialInfoResult:
    root: float  # value at the root, interpolated at the requested y0
    y0: float
    root_layers: np.ndarray  # (L,) root values per belief grid point
    params: ModelParams
    lattice: Lattice
    q: QMatrix
    p: RegimeReturnProbs
    grid: FilterGrid
    surface: np.ndarray | None = None  # (N+1, L) exercise thresholds, +inf allowed
    slice_step: int | None = None  # step whose value slice was retained
    slice_values: np.ndarray | None = None  # (L, slice_step+1) values at that step
    slice_continuation: np.ndarray | None = None  # (L, slice_step+1) continuations
    node_steps: int = 0  # layer-node updates the sweep performed

    def root_at(self, y0) -> float | np.ndarray:
        """Root value at initial beliefs in [0, 1], interpolated on the grid."""
        y = np.asarray(y0, dtype=float)
        if not np.all((0.0 <= y) & (y <= 1.0)):
            raise ValueError(f"y0 must lie in [0, 1], got {y0}")
        out = self.grid.interpolate(self.root_layers, y)
        return float(out) if np.ndim(out) == 0 else out


def price_partial(
    params: ModelParams,
    n_steps: int,
    n_belief: int,
    y0: float | None = None,
    literal_exponent: bool = False,
    keep_surface: bool = False,
    keep_slice_at: int | None = None,
) -> PartialInfoResult:
    """Value the option under partial information on an N-step lattice.

    Backward sweep over slices U[l, j] of belief-layered node values:

        U(k, x, l) = max{(x-K)+, disc * (p_up,l * Uup + p_dw,l * Udw)},

    where Uup/Udw interpolate the next slice at the Bayes posteriors of grid
    belief l after an up/down move, and the terminal slice is (x-K)+ for all
    layers.  The root is interpolated at y0 across the layer values at (0,0).
    Only nodes whose value is not known exactly are swept (see ``sweep``);
    the step ``keep_slice_at`` is swept at full width and retained.
    """
    if y0 is None:
        y0 = params.y0
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must lie in [0, 1], got {y0}")
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice, literal_exponent)
    grid = build_grid(n_belief, q, p)
    disc = exp(-params.r * lattice.h)

    p_up = np.asarray(predict_return_prob(grid.points, q, p, "up"))
    p_dw = np.asarray(predict_return_prob(grid.points, q, p, "dw"))
    pu, pd = p_up[:, None], p_dw[:, None]
    wu, wd = grid.w_up[:, None], grid.w_dw[:, None]
    wu_lo, wd_lo = 1.0 - wu, 1.0 - wd

    if keep_slice_at is not None and not 0 <= keep_slice_at < n_steps:
        raise ValueError(f"keep_slice_at must lie in [0, {n_steps}), got {keep_slice_at}")

    def continuation(children: np.ndarray) -> np.ndarray:
        # One row per belief layer, one column per stock node.  In place, the
        # same operations as disc * (pu * (Uup interpolated) + pd * (Udw interpolated)).
        up_next, dw_next = children[:, 1:], children[:, :-1]
        cont = up_next[grid.up_lo]
        cont *= wu_lo
        hi = up_next[grid.up_hi]
        hi *= wu
        cont += hi
        cont *= pu
        dw = dw_next[grid.dw_lo]
        dw *= wd_lo
        hi = dw_next[grid.dw_hi]
        hi *= wd
        dw += hi
        dw *= pd
        cont += dw
        cont *= disc
        return cont

    run = backward_sweep(
        lattice,
        params.strike,
        disc,
        p_up,
        p_dw,
        continuation,
        thresholds=first_exercise_prices if keep_surface else None,
        keep_slice_at=keep_slice_at,
    )
    root_layers = run.root
    check_finite("partial-information root value", root_layers)
    root = float(grid.interpolate(root_layers, y0))
    return PartialInfoResult(
        root=root,
        y0=y0,
        root_layers=root_layers,
        params=params,
        lattice=lattice,
        q=q,
        p=p,
        grid=grid,
        surface=run.thresholds,
        slice_step=keep_slice_at,
        slice_values=run.slice_values,
        slice_continuation=run.slice_continuation,
        node_steps=run.node_steps,
    )


def price_partial_exact(
    params: ModelParams,
    n_steps: int,
    y0: float | None = None,
    literal_exponent: bool = False,
) -> float:
    """Exact dynamic programming on the full non-recombining belief tree.

    No belief grid and no interpolation anywhere: every move sequence carries
    its own filtered probability.  State count is 2^N, so N is capped.
    """
    if n_steps > MAX_EXACT_STEPS:
        raise ValueError(
            f"exact enumeration needs 2^N states; n_steps={n_steps} exceeds the "
            f"cap of {MAX_EXACT_STEPS}"
        )
    if y0 is None:
        y0 = params.y0
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must lie in [0, 1], got {y0}")
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice, literal_exponent)
    disc = exp(-params.r * lattice.h)
    strike = params.strike

    # Forward pass: per level, the belief and up-move count of every path,
    # ordered so state s at level k has children 2s (up) and 2s+1 (down).
    beliefs = [np.array([y0])]
    up_counts = [np.zeros(1, dtype=np.int64)]
    for k in range(n_steps):
        y = beliefs[k]
        nxt = np.empty(2 * y.size)
        nxt[0::2] = update_belief(y, "up", q, p)
        nxt[1::2] = update_belief(y, "dw", q, p)
        beliefs.append(nxt)
        j = up_counts[k]
        jn = np.empty(2 * j.size, dtype=np.int64)
        jn[0::2] = j + 1
        jn[1::2] = j
        up_counts.append(jn)

    def intrinsic_at(level: int) -> np.ndarray:
        prices = lattice.spot * lattice.up ** (2.0 * up_counts[level] - level)
        return np.maximum(prices - strike, 0.0)

    value = intrinsic_at(n_steps)
    for k in range(n_steps - 1, -1, -1):
        pu = np.asarray(predict_return_prob(beliefs[k], q, p, "up"))
        cont = disc * (pu * value[0::2] + (1.0 - pu) * value[1::2])
        value = np.maximum(intrinsic_at(k), cont)
    return float(value[0])

