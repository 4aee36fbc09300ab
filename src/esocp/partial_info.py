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
from .model import ModelParams, check_beliefs
from .sweep import backward_sweep

# Exact enumeration doubles its state space every step.
MAX_EXACT_STEPS = 22

# The continuation works on blocks of whole layer rows, as many as fit in
# about this many (layer, node) entries, so one block's temporaries stay in a
# core's L2 cache.
ROW_BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class PartialInfoResult:
    root_layers: np.ndarray  # (L,) root values per belief grid point
    params: ModelParams
    lattice: Lattice
    q: QMatrix
    p: RegimeReturnProbs
    grid: FilterGrid
    surface: np.ndarray | None = None  # (N+1, L) exercise thresholds, +inf allowed
    slice_values: np.ndarray | None = None  # (L, k+1) values at the step k = keep_slice_at
    node_steps: int = 0  # layer-node updates the sweep performed

    def root_at(self, y0) -> float | np.ndarray:
        """Root value at initial beliefs in [0, 1], interpolated on the grid."""
        y = np.asarray(y0, dtype=float)
        check_beliefs(y.ravel())
        out = self.grid.interpolate(self.root_layers, y)
        return float(out) if np.ndim(out) == 0 else out


def price_partial(
    params: ModelParams,
    n_steps: int,
    n_belief: int,
    keep_surface: bool = False,
    keep_slice_at: int | None = None,
) -> PartialInfoResult:
    """Value the option under partial information on an N-step lattice.

    Backward sweep over slices U[l, j] of belief-layered node values:

        U(k, x, l) = max{(x-K)+, disc * (p_up,l * Uup + p_dw,l * Udw)},

    where Uup/Udw interpolate the next slice at the Bayes posteriors of grid
    belief l after an up/down move, and the terminal slice is (x-K)+ for all
    layers.  The result keeps the L layer values at (0,0), which ``root_at``
    interpolates at any initial belief.  Only nodes whose value is not known
    exactly are swept (see ``sweep``); the values of step ``keep_slice_at`` at
    every node are read off its window and retained.
    """
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)
    grid = build_grid(n_belief, q, p)
    disc = lattice.disc

    p_up = np.asarray(predict_return_prob(grid.points, q, p, True))
    p_dw = np.asarray(predict_return_prob(grid.points, q, p, False))
    pu, pd = p_up[:, None], p_dw[:, None]
    wu, wd = grid.w_up[:, None], grid.w_dw[:, None]
    wu_lo, wd_lo = 1.0 - wu, 1.0 - wd

    if keep_slice_at is not None and not 0 <= keep_slice_at < n_steps:
        raise ValueError(f"keep_slice_at must lie in [0, {n_steps}), got {keep_slice_at}")

    def continuation(children: np.ndarray, out: np.ndarray, layers: tuple[int, int]) -> None:
        # One row per belief layer, one column per stock node, in blocks of
        # whole rows.  In place, the same operations as
        # disc * (pu * (Uup interpolated) + pd * (Udw interpolated)).
        up_next, dw_next = children[:, 1:], children[:, :-1]
        r0, r1 = layers
        step = max(ROW_BLOCK_ELEMENTS // out.shape[1], 1)
        for b0 in range(r0, r1, step):
            b = slice(b0, min(b0 + step, r1))
            cont = up_next[grid.up_lo[b]]
            cont *= wu_lo[b]
            hi = up_next[grid.up_hi[b]]
            hi *= wu[b]
            cont += hi
            cont *= pu[b]
            dw = dw_next[grid.dw_lo[b]]
            dw *= wd_lo[b]
            hi = dw_next[grid.dw_hi[b]]
            hi *= wd[b]
            dw += hi
            dw *= pd[b]
            cont += dw
            np.multiply(cont, disc, out=out[b0 - r0 : b.stop - r0])

    # Allocate and free one 1 MiB chunk.  glibc's dynamic rule then raises its
    # mmap threshold to 1 MiB (trim threshold 2 MiB), above the continuation's
    # block temporaries: they are reused from the heap instead of being
    # mapped and unmapped, page faults and all, on every step (the split
    # helper inherits the thresholds).  The sweep's windows live in an
    # anonymous mapping, so without this nothing large is ever freed.  Other
    # allocators ignore it.
    np.empty(131_072)
    run = backward_sweep(
        lattice,
        params.strike,
        p_up,
        p_dw,
        continuation,
        by_layers=True,
        thresholds=first_exercise_prices if keep_surface else None,
        keep_slice_at=keep_slice_at,
    )
    check_finite("partial-information root value", run.root)
    return PartialInfoResult(
        root_layers=run.root,
        params=params,
        lattice=lattice,
        q=q,
        p=p,
        grid=grid,
        surface=run.thresholds,
        slice_values=run.slice_values,
        node_steps=run.node_steps,
    )


def price_partial_exact(params: ModelParams, n_steps: int) -> float:
    """Exact dynamic programming on the full non-recombining belief tree.

    No belief grid and no interpolation anywhere: every move sequence carries
    its own filtered probability, starting from ``params.y0``.  State count
    is 2^N, so N is capped.
    """
    if n_steps > MAX_EXACT_STEPS:
        raise ValueError(
            f"exact enumeration needs 2^N states; n_steps={n_steps} exceeds the "
            f"cap of {MAX_EXACT_STEPS}"
        )
    y0 = params.y0
    check_beliefs([y0])
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)

    # Forward pass: per level, the belief and up-move count of every path,
    # ordered so state s at level k has children 2s (up) and 2s+1 (down).
    beliefs = [np.array([y0])]
    up_counts = [np.zeros(1, dtype=np.int64)]
    for k in range(n_steps):
        y = beliefs[k]
        nxt = np.empty(2 * y.size)
        nxt[0::2] = update_belief(y, True, q, p)
        nxt[1::2] = update_belief(y, False, q, p)
        beliefs.append(nxt)
        j = up_counts[k]
        jn = np.empty(2 * j.size, dtype=np.int64)
        jn[0::2] = j + 1
        jn[1::2] = j
        up_counts.append(jn)

    def intrinsic_at(level: int) -> np.ndarray:
        return np.maximum(lattice.level_prices(level)[up_counts[level]] - params.strike, 0.0)

    value = intrinsic_at(n_steps)
    for k in range(n_steps - 1, -1, -1):
        pu = np.asarray(predict_return_prob(beliefs[k], q, p, True))
        cont = lattice.disc * (pu * value[0::2] + (1.0 - pu) * value[1::2])
        value = np.maximum(intrinsic_at(k), cont)
    return float(value[0])

