"""Exact active-window backward induction shared by both lattice pricers.

Both pricers carry L value layers per stock node (the two regime trees for the
insider, the belief grid for the outsider) and step back from maturity with

    U(k, j) = max{(S(k, j) - K)+, cont(k, j)}.

Most nodes of the triangle hold a value that is known without sweeping it.
At step k the sweep keeps explicit values only on a window [lo, hi) of nodes:

* below lo the value is exactly 0 in every layer.  At maturity these are the
  nodes priced at or below K; earlier, the nodes both of whose children are
  already there.  The sweep also drops the bottom run of computed nodes whose
  values are exactly 0 in every layer (far out of the money they underflow)
  after each step, so the next step's window starts one node below;
* from hi up the value is exactly the intrinsic S - K in every layer.  A node
  gets there in one of two ways.  Either the sweep computed it and found
  U == S - K in every layer (the top run of such nodes is dropped from the
  window after each step), or both of its children already sit there and the
  one-step test below shows that intrinsic beats continuation by a margin far
  above floating-point error.

Every swept node sees the same child values and runs the same floating-point
operations as a full-width sweep, so values, continuations, roots and
exercise thresholds are bit-identical to sweeping every node.
"""

from __future__ import annotations

from collections.abc import Callable, Container
from dataclasses import dataclass
from math import inf

import numpy as np

from .lattice import Lattice

# One-step test: with both children exercised in every layer, node price S
# counts as exercised when S - K - cont(S) >= SURE_EXERCISE_MARGIN * S in exact
# arithmetic.  The rounding error of the swept continuation is below 30 ulps
# of up*S, so a margin of 1e-9 leaves the float comparison no room to flip.
SURE_EXERCISE_MARGIN = 1e-9

# Continuations are computed over column blocks of about this many (layer,
# node) entries, so the temporaries of one block stay in a core's L2 cache.
BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class SweepResult:
    root: np.ndarray  # (L,) values at node (0, 0)
    thresholds: np.ndarray | None  # (N+1, L) first exercised price per step, +inf allowed
    slices: dict[int, tuple[np.ndarray, np.ndarray]]  # step -> full-width (values, continuation)
    node_steps: int  # layer-node updates performed


def _sure_exercise_index(
    lattice: Lattice, ladder: np.ndarray, strike: float, disc: float, p_up: np.ndarray, p_dw: np.ndarray, itm: int
) -> int:
    """Smallest ladder index at which a node with both children exercised in
    every layer is itself exercised in every layer (ladder.size if none).

    With children S*up - K and S*dw - K (the down child in the money, so the
    node's index is at least itm + 1), layer l continues at
    disc*(p_up*(S*up - K) + p_dw*(S*dw - K)), so S - K - cont =
    S*(1 - disc*g_l) - K*(1 - disc*m_l) with g_l = p_up*up + p_dw*dw and
    m_l = p_up + p_dw: linear and increasing in S whenever the test can pass
    at all, so one price threshold (searched in the ascending ladder) covers
    every step.
    """
    slope = 1.0 - disc * (p_up * lattice.up + p_dw * lattice.dw) - SURE_EXERCISE_MARGIN
    if np.any(slope <= 0.0):
        return ladder.size
    price = float(np.max(strike * (1.0 - disc * (p_up + p_dw)) / slope))
    return max(itm + 1, int(np.searchsorted(ladder, price)))


def _exercised_from(values: np.ndarray, intrinsic: np.ndarray, chunk: int = 16) -> int:
    """Start of the top run of columns where values == intrinsic in every layer."""
    top = values.shape[1]
    while top > 0:
        start = max(top - chunk, 0)
        kept = np.flatnonzero(~np.all(values[:, start:top] == intrinsic[start:top], axis=0))
        if kept.size:
            return start + int(kept[-1]) + 1
        top = start
    return 0


def _zeros_below(values: np.ndarray, chunk: int = 16) -> int:
    """Length of the bottom run of columns that are exactly 0 in every layer."""
    width = values.shape[1]
    if width == 0 or values[:, 0].any():
        return 0
    for start in range(0, width, chunk):
        nonzero = np.flatnonzero(values[:, start : start + chunk].any(axis=0))
        if nonzero.size:
            return start + int(nonzero[0])
    return width


def backward_sweep(
    lattice: Lattice,
    strike: float,
    disc: float,
    p_up: np.ndarray,
    p_dw: np.ndarray,
    continuation: Callable[[np.ndarray], np.ndarray],
    thresholds: Callable | None = None,
    full_width: Container[int] = (),
) -> SweepResult:
    """Backward induction over an N-step lattice with L value layers.

    ``continuation`` maps the (L, w+1) child values of w adjacent nodes to
    their (L, w) continuation values.  ``p_up``/``p_dw`` are the (L,) weights
    it puts on the up and down child when both hold the same value in every
    layer.  ``thresholds`` (``first_exercise_prices`` or None) extracts the
    first exercised price per layer and step.  Steps in ``full_width`` are
    swept over every node; their values and continuations are returned.
    """
    n = lattice.n_steps
    n_layers = p_up.size
    block = max(BLOCK_ELEMENTS // n_layers, 16)
    ladder = lattice.price_ladder()  # node (k, j) sits at index n - k + 2j
    payoff = np.maximum(ladder - strike, 0.0)
    above = ladder > strike
    itm = int(np.argmax(above)) if above.any() else ladder.size  # prices below index itm are <= K
    cut = _sure_exercise_index(lattice, ladder, strike, disc, p_up, p_dw, itm)

    surface = None
    if thresholds is not None:
        surface = np.full((n + 1, n_layers), inf)
        surface[n] = strike
    slices = {}
    node_steps = 0

    # Terminal step: nodes with index 2j < itm are dead, all others intrinsic.
    lo = hi = min((itm + 1) // 2, n + 1)
    values = np.empty((n_layers, 0))
    for k in range(n - 1, -1, -1):
        base = n - k  # ladder index of node (k, 0)
        # Both children of the nodes below lo - 1 are exactly 0 in every layer.
        new_lo = min(max(lo - 1, 0), k + 1)
        new_hi = min(max(hi, (cut - base + 1) // 2, new_lo), k + 1)
        if k in full_width:
            new_lo, new_hi = 0, k + 1
        width = new_hi - new_lo

        first = np.full(n_layers, inf)
        if width:
            # Child values at step k+1 for nodes new_lo..new_hi: zeros, window, intrinsic.
            children = np.empty((n_layers, width + 1))
            a = min(max(lo - new_lo, 0), width + 1)
            b = min(max(hi - new_lo, a), width + 1)
            children[:, :a] = 0.0
            children[:, a:b] = values[:, new_lo + a - lo : new_lo + b - lo]
            children[:, b:] = payoff[base - 1 + 2 * (new_lo + b) : base + 2 * new_hi : 2]
            prices = ladder[base + 2 * new_lo : base + 2 * new_hi : 2]
            intrinsic = payoff[base + 2 * new_lo : base + 2 * new_hi : 2]
            cont = np.empty((n_layers, width))
            updated = np.empty((n_layers, width))
            for s in range(0, width, block):
                cont[:, s : s + block] = continuation(children[:, s : s + block + 1])
                np.maximum(intrinsic[s : s + block], cont[:, s : s + block], out=updated[:, s : s + block])
            node_steps += n_layers * width
            # Window columns from itm_col on are in the money; none below can exercise.
            itm_col = min(max((itm - base + 1) // 2 - new_lo, 0), width)
            if surface is not None and itm_col < width:
                first = thresholds(prices[itm_col:], strike, intrinsic[itm_col:], cont[:, itm_col:])
            if k in full_width:
                slices[k] = (updated, cont)
            kept = _exercised_from(updated, intrinsic)
            dead = _zeros_below(updated[:, :kept])
            values = updated[:, dead:kept]
            bottom, top = new_lo + dead, new_lo + kept
        else:
            bottom = top = new_lo
            values = np.empty((n_layers, 0))
        if surface is not None:
            # Nodes from new_hi up are exercised, so new_hi is the first one
            # unless the window exercises earlier.
            surface[k] = first if new_hi > k else np.where(np.isinf(first), ladder[base + 2 * new_hi], first)
        lo, hi = bottom, top

    if lo > 0:
        root = np.zeros(n_layers)
    elif hi == 0:
        root = np.full(n_layers, payoff[n])
    else:
        root = values[:, 0].copy()
    return SweepResult(root=root, thresholds=surface, slices=slices, node_steps=node_steps)
