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
operations as a full-width sweep, so values, roots and exercise thresholds
are bit-identical to sweeping every node.  The root and a retained step's
values at every node are read off the window by that rule: 0 below lo, the
window's values, intrinsic from hi up.

Step k's window is a compact (L, w + 2) view into a buffer the sweep
allocates once: a zero column, the w swept nodes, then the payoff of the node
above them.  Step k - 1 reads its children in place, as a column slice of
it: below lo the zero column or trimmed columns that are 0 in every layer,
from hi up trimmed columns equal to intrinsic or the payoff column (one is
enough: the window's top never rises as k falls).  The continuation writes
straight into the window's rows, so no step copies its children or its
continuations (arrays allocated and freed every step made the allocator hand
pages back to the system and fault them in again).  At maturity, and at a
step that swept no node, the values are the payoffs broadcast over the
layers.  Node prices are the lattice's parity ladders (``Lattice.prices``)
and the payoffs are kept the same way, so a step's intrinsic values are
contiguous slices.

A step updates a range of layers over the whole window in one call: the
pricer's continuation works through those rows in blocks of whole rows.
Where a window can hold many (layer, node) entries and the caller's
continuation serves any range of layers (the outsider's does; the insider's
computes both regime rows of a run together, so its sweep always runs in one
process), two processes share each step: the caller sweeps layers [0, L//2)
and a helper forked for the sweep layers [L//2, L), each writing its own
layers' rows of one window in shared memory.  Each extracts the thresholds of
its own layers, so the step's threshold row is the disjoint union of the two.
The layers of a step are independent, so the split changes no bit either.

The whole sweep, in both processes, runs with numpy's ufunc buffer at
UFUNC_BUFFER elements, far below numpy's default of 8,192; the caller's size
comes back when the sweep returns or raises.  A per-layer weight column
broadcast over a block of window rows, or a product written into a strided
view of the child rows, is not one flat loop: where the buffer is longer
than a window row, numpy copies the operands through it, and where a row
fills the buffer it runs over the operands in place.  The buffer is set once
per sweep: setting it per step costs microseconds on each of up to tens of
thousands of steps, and the replay's long rows run slower with a small one.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from math import inf

import numpy as np

from . import _workers
from .lattice import Lattice

# One-step test: with both children exercised in every layer, node price S
# counts as exercised when S - K - cont(S) >= SURE_EXERCISE_MARGIN * S in exact
# arithmetic.  The rounding error of the swept continuation is below 30 ulps
# of up*S, so a margin of 1e-9 leaves the float comparison no room to flip.
SURE_EXERCISE_MARGIN = 1e-9

# A sweep is split across two processes when L times its widest possible
# window exceeds this many entries (and _workers.can_fork() allows it).  On a
# 2-core KVM guest the split ran 1.08x as fast as one process at 27,000
# entries (N=500, L=101), 1.18x at 53,000 (N=1000, L=101) and 1.6x at 132,000
# (N=1000, L=251); below about 50,000 the gain drowns in the host's noise.
SPLIT_MIN_ENTRIES = 50_000

# A process waiting for the other one's half of a step reads its socket
# without blocking for up to SPIN_S seconds before it blocks: waking a blocked
# process took milliseconds on that guest, and with a 0.26 ms spin the
# production split was no faster than one process.  Between tries it yields
# its CPU, which the other half may be waiting for: with both processes on one
# CPU a spin that kept the CPU stalled every step for a scheduler slice
# (10.2-11.4 s against 2.9-3.4 s for N=2500, L=250).
SPIN_S = 0.025

# numpy's ufunc buffer during a sweep, in elements (numpy 1.24 takes only
# multiples of 16).  On that guest with numpy 2.4.6, `x *= col` over a
# (36, 900) block took 0.75 ns an entry with the default 8,192 and 0.38 with
# 256, and a (36, 1) column times a strided child view 1.42 against 0.39; a
# contiguous multiply took the same with either.  In 10 interleaved rounds on
# one CPU, buffers of 8,192 / 256 / 128 gave medians of 2.91 / 2.36 / 2.27 s
# for price_partial at N=2500, L=250, 5.15 / 5.01 / 4.56 s for table1 at
# N=500, L=101 and 1.18 / 1.17 / 1.25 s for the 100-year insider at N=25,000;
# 128 beat 256 in only 4, 6 and 4 of the rounds.
UFUNC_BUFFER = 256


@dataclass(frozen=True)
class SweepResult:
    root: np.ndarray  # (L,) values at node (0, 0)
    thresholds: np.ndarray | None  # (N+1, L) first exercised price per step, +inf allowed
    slice_values: np.ndarray | None  # (L, k+1) values at step keep_slice_at
    node_steps: int  # layer-node updates performed


def _ladder_index(prices: tuple[np.ndarray, np.ndarray], value: float, side: str) -> int:
    """``np.searchsorted`` over the ladder held as its parity ladders: the first
    index whose price is >= value (side "left") or > value ("right"), else 2N + 1."""
    even, odd = (int(np.searchsorted(ladder, value, side)) for ladder in prices)
    return min(2 * even, 2 * odd + 1)


def _sure_exercise_index(lattice: Lattice, strike: float, p_up, p_dw, itm: int) -> int:
    """Smallest ladder index at which a node with both children exercised in
    every layer is itself exercised in every layer (2N + 1 if none).

    With children S*up - K and S*dw - K (the down child in the money, so the
    node's index is at least itm + 1), layer l continues at
    disc*(p_up*(S*up - K) + p_dw*(S*dw - K)), so S - K - cont =
    S*(1 - disc*g_l) - K*(1 - disc*m_l) with g_l = p_up*up + p_dw*dw and
    m_l = p_up + p_dw: linear and increasing in S whenever the test can pass
    at all, so one price threshold (searched in the ascending ladder) covers
    every step.
    """
    disc = lattice.disc
    slope = 1.0 - disc * (p_up * lattice.up + p_dw * lattice.dw) - SURE_EXERCISE_MARGIN
    if np.any(slope <= 0.0):
        return 2 * lattice.n_steps + 1
    price = float(np.max(strike * (1.0 - disc * (p_up + p_dw)) / slope))
    return max(itm + 1, _ladder_index(lattice.prices, price, "left"))


def _exercised_from(values: np.ndarray, intrinsic: np.ndarray) -> int:
    """Start of the top run of columns where values == intrinsic in every layer."""
    # This trim and _zeros_below test one column at a time: no measured step
    # drops more than one at either edge.  Layer 0 (the high-drift regime, or
    # belief 0) exercises last, so its entry alone tells a kept column.
    for top in range(values.shape[1], 0, -1):
        x = intrinsic[top - 1]
        if values[0, top - 1] != x or (values[:, top - 1] != x).any():
            return top
    return 0


def _zeros_below(values: np.ndarray) -> int:
    """Length of the bottom run of columns that are exactly 0 in every layer."""
    for col in range(values.shape[1]):
        if np.count_nonzero(values[:, col]):
            return col
    return values.shape[1]


def _compact(buffer: np.ndarray, start: int, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) view of buffer from index start on."""
    return buffer[start : start + rows * cols].reshape(rows, cols)


def _rung(ladders: tuple[np.ndarray, np.ndarray], index: int, count: int) -> np.ndarray:
    """Ladder entries index, index + 2, ... (count of them): a contiguous slice
    of the parity ladder that holds them."""
    start = index // 2
    return ladders[index % 2][start : start + count]


class _Sweep:
    """One backward induction: the lattice's geometry and the update of a layer range."""

    def __init__(self, lattice, strike, p_up, p_dw, continuation, thresholds, keep_slice_at):
        self.n = lattice.n_steps
        self.n_layers = p_up.size
        self.prices = lattice.prices  # node (k, j) sits at ladder index n - k + 2j
        self.itm = _ladder_index(self.prices, strike, "right")  # prices below ladder index itm are <= K
        self.cut = _sure_exercise_index(lattice, strike, p_up, p_dw, self.itm)
        self.payoff = tuple(np.maximum(prices - strike, 0.0) for prices in self.prices)
        self.strike = strike
        self.continuation = continuation
        self.thresholds = thresholds
        self.keep = keep_slice_at
        # The first exercise prices of layers that have none, and the values of
        # an empty window; shared by every step, so never written to.
        self.no_exercise = np.full(self.n_layers, inf)
        self.no_exercise.flags.writeable = False
        self.no_values = np.empty((self.n_layers, 0))

    def widest(self) -> int:
        """Nodes in the widest window of any step: the window's top starts at
        (itm + 1) // 2 and only the one-step test, at most cut // 2, raises it."""
        return min(self.n + 1, max(self.itm + 1, self.cut) // 2)

    def update(self, k, new_lo, children, layers, intrinsic, window) -> np.ndarray:
        """Sweep layers [r0, r1) = ``layers`` of step k's ``window``, whose
        w swept nodes from new_lo on pay ``intrinsic``, from ``children``,
        the (L, w + 1) values of nodes new_lo to new_lo + w at step k + 1.

        Writes the window's rows [r0, r1): 0, the w new values, and the
        payoff of node new_lo + w unless it is past the top.  Returns the
        first exercised price of each of these layers (+inf where none, or
        without ``thresholds``).
        """
        r0, r1 = layers
        width = intrinsic.size
        base = self.n - k  # ladder index of node (k, 0)
        rows = window[r0:r1]
        out = rows[:, 1 : width + 1]
        self.continuation(children, out, layers)
        first = self.no_exercise[r0:r1]
        # Columns from itm_col on are in the money; none below can exercise.
        itm_col = min(max((self.itm - base + 1) // 2 - new_lo, 0), width)
        if self.thresholds is not None and itm_col < width:
            prices = _rung(self.prices, base + 2 * (new_lo + itm_col), width - itm_col)
            first = self.thresholds(prices, self.strike, intrinsic[itm_col:], out[:, itm_col:])
        np.maximum(intrinsic, out, out=out)
        rows[:, 0] = 0.0
        rows[:, width + 1 :] = _rung(self.payoff, base + 2 * (new_lo + width), window.shape[1] - width - 1)
        return first

    def slice_at(self, k: int, lo: int, hi: int, values: np.ndarray) -> np.ndarray:
        """Step k's values at every node, from its window [lo, hi): 0 below
        lo, ``values`` on the window, intrinsic from hi up."""
        out = np.zeros((self.n_layers, k + 1))
        out[:, lo:hi] = values
        out[:, hi:] = _rung(self.payoff, self.n - k + 2 * hi, k + 1 - hi)
        return out

    def run(self, layers: tuple[int, int], link: _Link | None = None) -> SweepResult:
        """Sweep every step over layers [r0, r1) = ``layers``, meeting the
        other process of a split sweep through ``link`` once per step.  The
        helper's sweep (whose layers do not start at 0) keeps no thresholds
        and no retained slice."""
        n, n_layers = self.n, self.n_layers
        caller = layers[0] == 0
        surface = None
        if self.thresholds is not None and caller:
            surface = np.full((n + 1, n_layers), inf)
            surface[n] = self.strike
        slice_values = None
        node_steps = 0
        # Step k writes window k % 2 and reads step k + 1's from the other.
        windows = np.empty(2 * n_layers * (n + 1)) if link is None else link.windows

        # Terminal step: nodes with index 2j < itm are dead, all others intrinsic.
        lo = hi = min((self.itm + 1) // 2, n + 1)
        values = self.no_values
        # Step k + 1's values and the node of their column 0: at maturity the
        # payoffs, 0 below lo.
        window, origin = np.broadcast_to(self.payoff[0], (n_layers, n + 1)), 0
        for k in range(n - 1, -1, -1):
            base = n - k
            # Both children of the nodes below lo - 1 are exactly 0 in every layer.
            new_lo = min(max(lo - 1, 0), k + 1)
            new_hi = min(max(hi, (self.cut - base + 1) // 2, new_lo), k + 1)
            width = new_hi - new_lo

            if width:
                children = window[:, new_lo - origin : new_hi - origin + 1]
                # Nodes new_lo - 1 to new_hi, or to k where new_hi is past the top.
                window = _compact(windows, (k % 2) * n_layers * (n + 1), n_layers, min(new_hi, k) + 2 - new_lo)
                origin = new_lo - 1
                intrinsic = _rung(self.payoff, base + 2 * new_lo, width)
                first = self.update(k, new_lo, children, layers, intrinsic, window)
                if link is not None:
                    first = link.exchange(k, layers, first)
                node_steps += n_layers * width
                out = window[:, 1 : width + 1]
                kept = _exercised_from(out, intrinsic)
                dead = _zeros_below(out[:, :kept])
                values = out[:, dead:kept]
                lo, hi = new_lo + dead, new_lo + kept
            else:
                first, values = self.no_exercise, self.no_values
                lo = hi = new_lo
                window, origin = np.broadcast_to(_rung(self.payoff, base, k + 1), (n_layers, k + 1)), 0
            if surface is not None:
                # Nodes from new_hi up are exercised, so new_hi is the first one
                # unless the window exercises earlier.
                surface[k] = first
                if new_hi <= k:
                    surface[k, np.isinf(first)] = _rung(self.prices, base + 2 * new_hi, 1)
            if k == self.keep and caller:
                slice_values = self.slice_at(k, lo, hi, values)

        return SweepResult(
            root=self.slice_at(0, lo, hi, values)[:, 0],
            thresholds=surface,
            slice_values=slice_values,
            node_steps=node_steps,
        )


class _Link:
    """What the two processes of a split sweep share.

    One anonymous shared mapping holds two windows of values (step k writes
    window k % 2, reading step k + 1's from the other) and two rows of first
    exercise prices (also by parity; each process fills its own layers'
    entries).  Each window is stored compactly from the start of its area,
    so only L times the widest window is ever touched.  Each process writes
    only its own layers' rows of a window, edge columns included, and only
    before it posts the step.  A socket pair carries the posts, one byte per
    step each way, and orders the memory writes of the two processes.  Each
    keeps one end, so end of file on it means the other process is gone.
    The helper is a ``_workers.Child``.
    """

    def __init__(self, n_layers: int, capacity: int):
        import mmap
        import socket

        self.capacity = n_layers * capacity
        size = 2 * self.capacity + 2 * n_layers
        self.shared = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
        self.windows = self.shared[: 2 * self.capacity]
        self.rows = self.shared[2 * self.capacity :].reshape(2, n_layers)
        self.end, self.helper_end = socket.socketpair()  # this process's end, the helper's
        self.helper = None  # the caller's _workers.Child; None in the helper, forked before it is set

    def help(self, sweep: _Sweep, layers: tuple[int, int]) -> None:
        """The helper's sweep of ``layers``, on its own end of the socket pair."""
        self.end.close()
        self.end = self.helper_end
        sweep.run(layers, self)

    def exchange(self, k: int, layers: tuple[int, int], first: np.ndarray) -> np.ndarray:
        """Write this process's layers' first exercise prices of step k into
        row k % 2, post, and wait for the other process's post.  Returns the
        row: the step's first exercise prices of every layer."""
        row = self.rows[k % 2]
        row[layers[0] : layers[1]] = first
        try:
            self.end.send(b"\0")
            if self._posted():
                return row
        except ConnectionError:  # EPIPE, or ECONNRESET where the other closed with a post unread
            pass
        if self.helper is None:
            raise ChildProcessError("the process that forked this sweep helper is gone")
        self.helper.join()  # raises the helper's error, or how it died
        raise ChildProcessError("the sweep's helper process died mid-sweep")

    def _posted(self) -> bool:
        """Take the other process's post: read without blocking for up to
        SPIN_S seconds, then block.  False at end of file."""
        import socket  # imported by __init__; at the top it would cost every caller's start-up

        flags, deadline = socket.MSG_DONTWAIT, time.perf_counter() + SPIN_S
        while True:
            try:
                return bool(self.end.recv(1, flags))
            except BlockingIOError:
                os.sched_yield()
                if time.perf_counter() >= deadline:
                    flags = 0


def _split(sweep: _Sweep) -> SweepResult:
    """Sweep the low half of the layers here and the high half in a forked
    helper, killed once this sweep ends (by its last exchange or an error)."""
    link = _Link(sweep.n_layers, sweep.n + 1)
    half = sweep.n_layers // 2
    with link.end, link.helper_end:  # both closed here, also when the fork fails
        link.helper = _workers.Child(link.help, sweep, (half, sweep.n_layers))
        try:
            link.helper_end.close()  # only the helper holds it now: its exit is end of file here
            return sweep.run((0, half), link)
        finally:
            link.helper.kill()


def backward_sweep(
    lattice: Lattice,
    strike: float,
    p_up: np.ndarray,
    p_dw: np.ndarray,
    continuation: Callable[[np.ndarray, np.ndarray, tuple[int, int]], None],
    by_layers: bool = False,
    thresholds: Callable | None = None,
    keep_slice_at: int | None = None,
) -> SweepResult:
    """Backward induction over an N-step lattice with L value layers.

    ``continuation(children, out, (r0, r1))`` writes the (r1 - r0, w)
    continuation values of layers [r0, r1) at the w nodes of a step's window
    into ``out``, from the (L, w+1) child values ``children``.  Both are
    strided views: ``out`` of the rows of the step's window, ``children`` of
    the last step's window (or of the payoffs).
    ``p_up``/``p_dw`` are the (L,) weights the continuation puts on the up and
    down child when both hold the same value in every layer.
    ``thresholds`` (``first_exercise_prices`` or None) extracts the
    first exercised price per layer and step.  The values of step
    ``keep_slice_at`` at every node are returned, read off its window.
    A sweep whose continuation serves any range of layers (``by_layers``)
    and has more than SPLIT_MIN_ENTRIES entries in its widest window is
    shared with a forked helper process where ``_workers.can_fork()``.  The
    insider's continuation computes every regime row at once, so its sweep
    always runs in this process.
    """
    # Overflow runs silently: a non-finite value it leaves reaches the root,
    # where the pricers' check_finite raises.  A nan is neither 0 nor any
    # intrinsic value, so no trim drops its column, and the next window always
    # sweeps a node's lower parent, whose continuation is then nan as well
    # (0 * inf is nan, too).  An inf does the same, unless it is the intrinsic
    # value of a price beyond the float range, which parents read from the
    # ladder just as they read any exercised node.
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy >= 2 would restore the buffer size with the error state; 1.24
        # does not.
        callers = np.setbufsize(UFUNC_BUFFER)
        try:
            sweep = _Sweep(lattice, strike, p_up, p_dw, continuation, thresholds, keep_slice_at)
            wide = sweep.n_layers * sweep.widest() > SPLIT_MIN_ENTRIES
            if wide and by_layers and _workers.can_fork():
                return _split(sweep)
            return sweep.run((0, sweep.n_layers))
        finally:
            np.setbufsize(callers)
