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

Each step's window values, child values and continuations are compact views
into buffers the sweep allocates once and reuses: arrays allocated and freed
every step made the allocator hand pages back to the system and fault them
in again.

Where a window can hold many (layer, node) entries, two processes share each
step: the caller sweeps the low half of the window and a helper forked for
the sweep the high half, both writing one window in shared memory.  The
columns of a step are independent, so the split changes no bit either.
"""

from __future__ import annotations

import os
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

# Continuations are computed over column blocks of about this many (layer,
# node) entries, so the temporaries of one block stay in a core's L2 cache.
BLOCK_ELEMENTS = 32768

# A sweep is split across two processes when L times its widest possible
# window exceeds this many entries (and _workers.can_fork() allows it).  On a
# 2-core KVM guest the split ran 1.08x as fast as one process at 27,000
# entries (N=500, L=101), 1.18x at 53,000 (N=1000, L=101) and 1.6x at 132,000
# (N=1000, L=251); below about 50,000 the gain drowns in the host's noise.
SPLIT_MIN_ENTRIES = 50_000

# A process waiting for the other one's half of a step polls its semaphore
# this many times (about 25 ms) before it blocks: waking a blocked process
# took milliseconds on that guest, and with 2,000 tries the production split
# was no faster than one process.  A blocked wait checks every POLL_S seconds
# that the other process is still alive.
SPIN_TRIES = 200_000
POLL_S = 0.05


@dataclass(frozen=True)
class SweepResult:
    root: np.ndarray  # (L,) values at node (0, 0)
    thresholds: np.ndarray | None  # (N+1, L) first exercised price per step, +inf allowed
    slice_values: np.ndarray | None  # (L, k+1) values at step keep_slice_at
    slice_continuation: np.ndarray | None  # (L, k+1) continuations at that step
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


def _compact(buffer: np.ndarray, start: int, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) view of buffer from index start on."""
    return buffer[start : start + rows * cols].reshape(rows, cols)


class _Sweep:
    """One backward induction: the lattice's geometry and the update of a column range."""

    def __init__(self, lattice, strike, disc, p_up, p_dw, continuation, thresholds, keep_slice_at):
        self.n = lattice.n_steps
        self.n_layers = p_up.size
        self.block = max(BLOCK_ELEMENTS // self.n_layers, 16)
        self.ladder = lattice.price_ladder()  # node (k, j) sits at index n - k + 2j
        self.payoff = np.maximum(self.ladder - strike, 0.0)
        above = self.ladder > strike
        self.itm = int(np.argmax(above)) if above.any() else self.ladder.size  # prices below index itm are <= K
        self.cut = _sure_exercise_index(lattice, self.ladder, strike, disc, p_up, p_dw, self.itm)
        self.strike = strike
        self.continuation = continuation
        self.thresholds = thresholds
        self.keep = keep_slice_at

    def widest(self) -> int:
        """Nodes in the widest window of any step but keep_slice_at: the window's
        top starts at (itm + 1) // 2 and only the one-step test, at most cut // 2,
        raises it."""
        return min(self.n + 1, max(self.itm + 1, self.cut) // 2)

    def columns(self, k, new_lo, lo, hi, values, s0, s1, out, cont, scratch) -> np.ndarray:
        """Sweep columns [s0, s1) of step k's window, which starts at node new_lo.

        Child values come from ``values``, the window [lo, hi) of step k + 1.
        New values go to out[:, s0:s1], continuations to cont[:, s0:s1] (to
        ``scratch`` if cont is None; scratch also holds the child values).
        Returns the first exercised price per layer among these columns (+inf
        where none, or without ``thresholds``).
        """
        n_layers = self.n_layers
        width = s1 - s0
        if not width:
            return np.full(n_layers, inf)
        base = self.n - k  # ladder index of node (k, 0)
        start, stop = new_lo + s0, new_lo + s1
        # Child values at step k+1 for nodes start..stop: zeros, window, intrinsic.
        children = _compact(scratch, 0, n_layers, width + 1)
        a = min(max(lo - start, 0), width + 1)
        b = min(max(hi - start, a), width + 1)
        children[:, :a] = 0.0
        children[:, a:b] = values[:, start + a - lo : start + b - lo]
        children[:, b:] = self.payoff[base - 1 + 2 * (start + b) : base + 2 * stop : 2]
        intrinsic = self.payoff[base + 2 * start : base + 2 * stop : 2]
        cont = _compact(scratch, n_layers * (self.n + 2), n_layers, width) if cont is None else cont[:, s0:s1]
        updated = out[:, s0:s1]
        block = self.block
        for s in range(0, width, block):
            cont[:, s : s + block] = self.continuation(children[:, s : s + block + 1])
            np.maximum(intrinsic[s : s + block], cont[:, s : s + block], out=updated[:, s : s + block])
        # Columns from itm_col on are in the money; none below can exercise.
        itm_col = min(max((self.itm - base + 1) // 2 - start, 0), width)
        if self.thresholds is not None and itm_col < width:
            prices = self.ladder[base + 2 * (start + itm_col) : base + 2 * stop : 2]
            return self.thresholds(prices, self.strike, intrinsic[itm_col:], cont[:, itm_col:])
        return np.full(n_layers, inf)

    def run(self, half: int | None = None, link: _Link | None = None) -> SweepResult:
        """Sweep every step, over whole windows (half None) or over the low
        (half 0) or high (half 1) half of each, meeting the other half's
        process through ``link`` once per step.  Thresholds and the retained
        slice are only collected where half is not 1."""
        n, n_layers, ladder, payoff = self.n, self.n_layers, self.ladder, self.payoff
        surface = None
        if self.thresholds is not None and half != 1:
            surface = np.full((n + 1, n_layers), inf)
            surface[n] = self.strike
        slice_values = slice_continuation = None
        node_steps = 0
        # Step k writes window k % 2 and reads step k + 1's from the other.
        windows = np.empty(2 * n_layers * (n + 1)) if link is None else link.windows
        scratch = np.empty(n_layers * (2 * n + 3))

        # Terminal step: nodes with index 2j < itm are dead, all others intrinsic.
        lo = hi = min((self.itm + 1) // 2, n + 1)
        values = np.empty((n_layers, 0))
        for k in range(n - 1, -1, -1):
            base = n - k
            # Both children of the nodes below lo - 1 are exactly 0 in every layer.
            new_lo = min(max(lo - 1, 0), k + 1)
            new_hi = min(max(hi, (self.cut - base + 1) // 2, new_lo), k + 1)
            if k == self.keep:
                new_lo, new_hi = 0, k + 1
            width = new_hi - new_lo

            if width:
                retained = k == self.keep
                out = _compact(windows, (k % 2) * n_layers * (n + 1), n_layers, width)
                cont = None
                if retained:
                    cont = np.empty((n_layers, width)) if link is None else link.continuation(width)
                s0, s1 = (0, width) if half is None else (0, width // 2) if half == 0 else (width // 2, width)
                first = self.columns(k, new_lo, lo, hi, values, s0, s1, out, cont, scratch)
                if link is not None:
                    first = link.exchange(k, half, first)
                node_steps += n_layers * width
                if retained and half != 1:
                    slice_values, slice_continuation = out.copy(), cont if link is None else cont.copy()
                kept = _exercised_from(out, payoff[base + 2 * new_lo : base + 2 * new_hi : 2])
                dead = _zeros_below(out[:, :kept])
                values = out[:, dead:kept]
                bottom, top = new_lo + dead, new_lo + kept
            else:
                first = np.full(n_layers, inf)
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
        return SweepResult(
            root=root,
            thresholds=surface,
            slice_values=slice_values,
            slice_continuation=slice_continuation,
            node_steps=node_steps,
        )


class _Link:
    """What the two processes of a split sweep share.

    One anonymous shared mapping holds two windows of values (step k writes
    window k % 2, reading step k + 1's from the other), two rows of the
    helper's first exercise prices (also by parity), the continuation of the
    retained step and a failure flag.  Each window is stored compactly from
    the start of its area, so only L times the widest window is ever touched.
    Two semaphores say that the low (0) or high (1) half of a step is done;
    they also order the memory writes of the two processes.
    """

    def __init__(self, n_layers: int, capacity: int, keep_width: int):
        import mmap
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.n_layers = n_layers
        self.capacity = n_layers * capacity
        size = 2 * self.capacity + 2 * n_layers + n_layers * keep_width + 1
        self.shared = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
        self.windows = self.shared[: 2 * self.capacity]
        self.rows = self.shared[2 * self.capacity : 2 * self.capacity + 2 * n_layers].reshape(2, n_layers)
        self.done = (ctx.Semaphore(0), ctx.Semaphore(0))
        self.error_r, self.error_w = os.pipe()
        self.parent = os.getpid()
        self.helper = None  # pid until reaped

    def continuation(self, width: int) -> np.ndarray:
        return _compact(self.shared, 2 * self.capacity + 2 * self.n_layers, self.n_layers, width)

    def exchange(self, k: int, half: int, first: np.ndarray) -> np.ndarray:
        """Wait until both halves of step k are swept.  The parent gets the
        step's first exercise prices: the low half's where finite, else the
        high half's."""
        if half == 1:
            self.rows[k % 2] = first
        self.done[half].release()
        self._wait(half)
        if half == 1:
            return first
        self._raise_if_failed()
        return np.where(np.isfinite(first), first, self.rows[k % 2])

    def _wait(self, half: int) -> None:
        """Take the other process's post: poll, then block, checking every
        POLL_S seconds that the other process is still there."""
        semaphore = self.done[1 - half]
        for _ in range(SPIN_TRIES):
            if semaphore.acquire(False):
                return
        while not semaphore.acquire(timeout=POLL_S):
            if half == 1 and os.getppid() != self.parent:
                raise ChildProcessError("the process that forked this sweep helper is gone")
            if half == 0 and os.waitpid(self.helper, os.WNOHANG)[0]:
                self.helper = None
                if semaphore.acquire(False):  # posted just before it exited
                    return
                raise ChildProcessError("the sweep's helper process died mid-sweep")

    def fail(self, exc: BaseException) -> None:
        """In the helper: flag the failure, wake the parent and send it the error."""
        import pickle

        try:
            data = pickle.dumps(exc)
            pickle.loads(data)
        except Exception:
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        self.shared[-1] = 1.0
        self.done[1].release()
        with os.fdopen(self.error_w, "wb") as pipe:
            pipe.write(data)

    def _raise_if_failed(self) -> None:
        if self.shared[-1]:
            import pickle

            with os.fdopen(os.dup(self.error_r), "rb") as pipe:
                raise pickle.loads(pipe.read())

    def close(self) -> None:
        """In the parent: kill and reap the helper.  Once the parent's sweep
        has ended, by its last exchange or by an error, the helper has nothing
        left to give it."""
        os.close(self.error_r)
        if self.helper is not None:
            import signal

            os.kill(self.helper, signal.SIGKILL)
            os.waitpid(self.helper, 0)
            self.helper = None


def _split(sweep: _Sweep) -> SweepResult:
    """Run the sweep over the low halves here and the high halves in a forked helper."""
    keep_width = 0 if sweep.keep is None else sweep.keep + 1
    link = _Link(sweep.n_layers, sweep.n + 1, keep_width)
    pid = os.fork()
    if pid == 0:
        # The helper never returns into the caller's stack: whatever happens,
        # it reports to the parent and exits.
        status = 1
        try:
            os.close(link.error_r)
            sweep.run(1, link)
            status = 0
        except BaseException as exc:
            link.fail(exc)
        finally:
            os._exit(status)
    link.helper = pid
    os.close(link.error_w)
    try:
        return sweep.run(0, link)
    finally:
        link.close()


def backward_sweep(
    lattice: Lattice,
    strike: float,
    disc: float,
    p_up: np.ndarray,
    p_dw: np.ndarray,
    continuation: Callable[[np.ndarray], np.ndarray],
    thresholds: Callable | None = None,
    keep_slice_at: int | None = None,
) -> SweepResult:
    """Backward induction over an N-step lattice with L value layers.

    ``continuation`` maps the (L, w+1) child values of w adjacent nodes to
    their (L, w) continuation values.  ``p_up``/``p_dw`` are the (L,) weights
    it puts on the up and down child when both hold the same value in every
    layer.  ``thresholds`` (``first_exercise_prices`` or None) extracts the
    first exercised price per layer and step.  Step ``keep_slice_at`` is
    swept over every node; its values and continuations are returned.
    Sweeps with more than SPLIT_MIN_ENTRIES entries in their widest window
    are shared with a forked helper process where ``_workers.can_fork()``.
    """
    sweep = _Sweep(lattice, strike, disc, p_up, p_dw, continuation, thresholds, keep_slice_at)
    if sweep.n_layers * sweep.widest() > SPLIT_MIN_ENTRIES and _workers.can_fork():
        return _split(sweep)
    return sweep.run()
