"""Independent oracles the package is tested against.

Deliberately plain implementations: a single-regime CRR pricer written from
scratch (no package imports), an Euler scheme for the likelihood-ratio SDE,
the full-width backward sweeps of both lattice pricers, a path-at-a-time
Monte Carlo replay on a materialised block of uniforms, the value of the
grid's exercise policy on the exact belief tree, and the outsider's exact
value without a switch (lambda = 0), from the parameters alone.  The full-width sweeps take their lattice, chain and
belief grid from the package but update every node of every step, so they
check the active-window sweeps bit for bit; the path-at-a-time replay checks
the vectorised replay engine the same way on identical uniforms.
"""

from __future__ import annotations

from math import exp, floor, inf, isfinite, log, nan, sqrt

import numpy as np

from esocp.filtering import _EXACT_HIT_TOL, build_grid, predict_return_prob, update_belief
from esocp.full_info import first_exercise_prices
from esocp.lattice import build_lattice, regime_return_probs, transition_matrix
from esocp.simulate import BLOCK, surface_threshold


def crr_american_call(
    spot: float, strike: float, r: float, mu: float, sigma: float, maturity: float, n: int
) -> float:
    """American call on a plain CRR tree, drifted at mu under the pricing measure."""
    h = maturity / n
    u = exp(sigma * sqrt(h))
    d = 1.0 / u
    p = (exp(mu * h) - d) / (u - d)
    disc = exp(-r * h)
    values = np.maximum(spot * u ** (2.0 * np.arange(n + 1) - n) - strike, 0.0)
    for k in range(n - 1, -1, -1):
        prices = spot * u ** (2.0 * np.arange(k + 1) - k)
        cont = disc * (p * values[1:] + (1.0 - p) * values[:-1])
        values = np.maximum(prices - strike, cont)
    return float(values[0])


def crr_european_call(
    spot: float, strike: float, r: float, mu: float, sigma: float, maturity: float, n: int
) -> float:
    h = maturity / n
    u = exp(sigma * sqrt(h))
    d = 1.0 / u
    p = (exp(mu * h) - d) / (u - d)
    disc = exp(-r * h)
    values = np.maximum(spot * u ** (2.0 * np.arange(n + 1) - n) - strike, 0.0)
    for _ in range(n):
        values = disc * (p * values[1:] + (1.0 - p) * values[:-1])
    return float(values[0])


def euler_likelihood_ratio(
    eta: float, lam: float, phi0: float, increments: np.ndarray, dt: float
) -> np.ndarray:
    """Euler-Maruyama path of  d(phi) = lam*(1+phi) dt - eta*phi dW*."""
    path = np.empty(len(increments) + 1)
    path[0] = phi0
    phi = phi0
    for i, dw in enumerate(increments):
        phi = phi + lam * (1.0 + phi) * dt - eta * phi * dw
        path[i + 1] = phi
    return path


def full_width_price_full(params, n_steps: int) -> dict:
    """Insider sweep over every node: roots, boundaries and value slices."""
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)
    disc = exp(-params.r * lattice.h)
    strike = params.strike

    v0 = np.maximum(lattice.level_prices(n_steps) - strike, 0.0)
    v1 = v0.copy()
    boundary0 = np.full(n_steps + 1, inf)
    boundary1 = np.full(n_steps + 1, inf)
    boundary0[n_steps] = boundary1[n_steps] = strike
    slices0, slices1 = [v0], [v1]
    for k in range(n_steps - 1, -1, -1):
        prices = lattice.level_prices(k)
        intrinsic = np.maximum(prices - strike, 0.0)
        cont1 = disc * (p.p_up1 * v1[1:] + p.p_dw1 * v1[:-1])
        cont0 = disc * (
            q.q00 * (p.p_up0 * v0[1:] + p.p_dw0 * v0[:-1])
            + q.q01 * (p.p_up1 * v1[1:] + p.p_dw1 * v1[:-1])
        )
        boundary0[k], boundary1[k] = first_exercise_prices(
            prices, strike, intrinsic, np.vstack((cont0, cont1))
        )
        v0 = np.maximum(intrinsic, cont0)
        v1 = np.maximum(intrinsic, cont1)
        slices0.insert(0, v0)
        slices1.insert(0, v1)
    return dict(
        v0_root=float(v0[0]), v1_root=float(v1[0]), boundary0=boundary0, boundary1=boundary1,
        slices0=slices0, slices1=slices1,
    )


def full_width_price_partial(params, n_steps: int, n_belief: int, keep_slice_at: int) -> dict:
    """Outsider sweep over every node: root layers, surface and one slice."""
    lattice = build_lattice(params, n_steps)
    q = transition_matrix(params.lam, lattice.h)
    p = regime_return_probs(params, lattice)
    grid = build_grid(n_belief, q, p)
    disc = exp(-params.r * lattice.h)
    strike = params.strike

    p_up = np.asarray(predict_return_prob(grid.points, q, p, True))[:, None]
    p_dw = np.asarray(predict_return_prob(grid.points, q, p, False))[:, None]
    wu = grid.w_up[:, None]
    wd = grid.w_dw[:, None]
    surface = np.full((n_steps + 1, n_belief), inf)
    surface[n_steps, :] = strike
    U = np.broadcast_to(
        np.maximum(lattice.level_prices(n_steps) - strike, 0.0), (n_belief, n_steps + 1)
    ).copy()
    for k in range(n_steps - 1, -1, -1):
        up_interp = U[grid.up_lo] * (1.0 - wu) + U[grid.up_hi] * wu
        dw_interp = U[grid.dw_lo] * (1.0 - wd) + U[grid.dw_hi] * wd
        cont = disc * (p_up * up_interp[:, 1:] + p_dw * dw_interp[:, :-1])
        prices = lattice.level_prices(k)
        intrinsic = np.maximum(prices - strike, 0.0)
        surface[k, :] = first_exercise_prices(prices, strike, intrinsic, cont)
        U = np.maximum(intrinsic, cont)
        if k == keep_slice_at:
            slice_values = U.copy()
            slice_continuation = cont
    return dict(
        root_layers=U[:, 0].copy(), surface=surface,
        slice_values=slice_values, slice_continuation=slice_continuation,
    )


def grid_threshold(surface_row: np.ndarray, n_grid: int, y: float) -> float:
    """Threshold at one belief: bracket y on the equidistant grid (snapping
    exact hits), read the layer where both sides agree, otherwise interpolate
    linearly, never across an infinite layer."""
    pos = y * (n_grid - 1)
    nearest = float(round(pos))  # half to even, like np.rint
    if abs(pos - nearest) <= _EXACT_HIT_TOL:
        return float(surface_row[min(max(int(nearest), 0), n_grid - 1)])
    lo = min(max(floor(pos), 0), n_grid - 1)
    hi = min(lo + 1, n_grid - 1)
    w = min(max(pos - lo, 0.0), 1.0)
    s_lo, s_hi = float(surface_row[lo]), float(surface_row[hi])
    if w == 0.0 or s_lo == s_hi:
        return s_lo
    if isfinite(s_lo) and isfinite(s_hi):
        return s_lo * (1.0 - w) + s_hi * w
    return inf


def block_uniforms(master_seed: int, block: int, n_steps: int) -> np.ndarray:
    """The (N + 2, BLOCK) step-major uniforms of one block of paths, drawn in one
    call: the whole stream that ``simulate.block_rows`` reads a slab at a time."""
    return np.random.default_rng((master_seed, block)).random((n_steps + 2, BLOCK))


def path_at_a_time_replay(full, partial, uniforms: np.ndarray, belief_starts) -> dict:
    """Replay both policies path by path on a step-major (N + 2, M) uniform matrix.

    Column i is path i: row 0 decides the initial regime, row 1 the switch
    step, row k + 2 the move over step k (drawn with the probability of the
    regime at the end of the step).  Stock spot*up**(2j - k), beliefs by the
    scalar Bayes update, then each threshold is scanned until the first
    crossing.  Returns per agent (exercise steps, exercise prices, payoffs).
    """
    params, lattice, q, p = full.params, full.lattice, full.q, full.p
    n = lattice.n_steps
    m = uniforms.shape[1]
    b = (full.boundary(0), full.boundary(1))
    disc = np.exp(-params.r * lattice.h * np.arange(n + 1))
    agents = ["insider"] + [f"outsider(y0={y0:g})" for y0 in belief_starts]
    out = {a: (np.full(m, -1, dtype=np.int64), np.full(m, nan), np.zeros(m)) for a in agents}

    def record(agent, i, step, stock):
        steps, prices, payoffs = out[agent]
        if step is not None:
            steps[i], prices[i] = step, stock[step]
            payoffs[i] = disc[step] * max(stock[step] - params.strike, 0.0)

    for i in range(m):
        u = uniforms[:, i]
        if u[0] < params.y0:
            switch = 0
        elif params.lam == 0.0 or q.q00 >= 1.0:
            switch = n + 1
        else:
            switch = floor(log(u[1]) / log(q.q00)) + 1
        regime = (np.arange(n + 1) >= switch).astype(int)
        ups = np.array([u[k + 2] < (p.p_up1 if regime[k + 1] else p.p_up0) for k in range(n)])
        j = np.concatenate(([0], np.cumsum(ups)))
        stock = lattice.spot * lattice.up ** (2.0 * j - np.arange(n + 1))

        step = next((k for k in range(n + 1) if stock[k] >= b[regime[k]][k]), None)
        record("insider", i, step, stock)
        for agent, y0 in zip(agents[1:], belief_starts):
            y, step = y0, None
            for k in range(n + 1):
                if stock[k] >= grid_threshold(partial.surface[k], partial.grid.n_points, y):
                    step = k
                    break
                if k < n:
                    y = update_belief(y, ups[k], q, p)
            record(agent, i, step, stock)
    return out


def tree_policy_value(partial) -> float:
    """Value of the grid's own exercise policy on the exact 2^N belief tree.

    Every move sequence carries its exact filtered belief from
    ``partial.params.y0``.  A node exercises when its stock spot*up**(2j - k)
    is at or above ``surface_threshold(surface[k], partial, y)`` at its belief
    y, as the replay does, and the two branches of a node are weighted by the
    exact ``predict_return_prob``.  A stopping rule on the tree that
    ``price_partial_exact`` solves, so never above it.
    """
    params, lattice, q, p = partial.params, partial.lattice, partial.q, partial.p
    n = lattice.n_steps
    # state s at level k has children 2s (up) and 2s + 1 (down) at level k + 1
    beliefs, ups = [np.array([params.y0])], [np.zeros(1, dtype=np.int64)]
    for k in range(n):
        y = beliefs[k]
        beliefs.append(np.column_stack((update_belief(y, True, q, p), update_belief(y, False, q, p))).ravel())
        ups.append(np.column_stack((ups[k] + 1, ups[k])).ravel())
    disc = exp(-params.r * lattice.h)
    value = np.zeros(2 ** (n + 1))  # nothing after maturity
    for k in range(n, -1, -1):
        pu = np.asarray(predict_return_prob(beliefs[k], q, p, True))
        cont = disc * (pu * value[0::2] + (1.0 - pu) * value[1::2]) if k < n else 0.0
        stock = lattice.spot * lattice.up ** (2.0 * ups[k] - k)
        stop = stock >= surface_threshold(partial.surface[k], partial, beliefs[k])
        value = np.where(stop, np.maximum(stock - params.strike, 0.0), cont)
    return float(value[0])


def no_switch_outsider_value(params, n: int) -> float:
    """The outsider's exact value on the N-step lattice when lambda = 0.

    The regime never switches, so the belief after j up moves in k steps is a
    closed form: its log-odds are log(y0 / (1 - y0)) + j log(p_up1 / p_up0)
    + (k - j) log(p_dw1 / p_dw0).  The value then recombines on the stock
    lattice, and one backward induction over the k + 1 nodes of each step is
    exact: O(N^2) work, no belief grid, and nothing from the package's
    filtering, pricing or sweep code.
    """
    if params.lam != 0.0:
        raise ValueError(f"the closed-form posterior needs lambda = 0, got {params.lam}")
    h = params.maturity / n
    up = exp(params.sigma * sqrt(h))
    step = sqrt(h) if params.literal_exponent else h  # the growth exponent mu * step
    p0, p1 = ((exp(mu * step) - 1.0 / up) / (up - 1.0 / up) for mu in (params.mu0, params.mu1))
    disc = exp(-params.r * h)
    with np.errstate(divide="ignore"):  # y0 = 0 or 1: log-odds -inf or +inf
        prior = np.log(params.y0) - np.log1p(-params.y0)
    values = np.maximum(params.spot * up ** (2.0 * np.arange(n + 1) - n) - params.strike, 0.0)
    for k in range(n - 1, -1, -1):
        j = np.arange(k + 1)
        log_odds = prior + j * log(p1 / p0) + (k - j) * log((1.0 - p1) / (1.0 - p0))
        with np.errstate(over="ignore"):
            y = 1.0 / (1.0 + np.exp(-log_odds))
        p_up = p0 * (1.0 - y) + p1 * y
        cont = disc * (p_up * values[1:] + (1.0 - p_up) * values[:-1])
        values = np.maximum(params.spot * up ** (2.0 * j - k) - params.strike, cont)
    return float(values[0])
