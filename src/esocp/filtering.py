"""Belief filtering for the hidden drift regime.

Discrete side: the two-step filter on the binomial tree (predict the next
return, then update the regime probability by Bayes' rule) plus the
equidistant belief grid used by the partial-information pricer.

Continuous side: a quadrature evaluation of the likelihood-ratio
representation
    Phi_t = exp(lam*t) * Lam_t * (phi0 + lam * int_0^t exp(-lam*s)/Lam_s ds),
with Lam the stochastic exponential of -eta*W*.  It exists to cross-check
the discrete filter's continuous-time limit, not to price anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import QMatrix, RegimeReturnProbs
from .model import ModelParams, derived

# A belief that lands within this fraction of a grid cell of a grid point is
# snapped to it (bracket collapses, weight 0) when the grid is read.
_EXACT_HIT_TOL = 1e-9


def predict_return_prob(y, q: QMatrix, p: RegimeReturnProbs, up: bool):
    """Probability of an up move (up=True) or a down move over the next step,
    at belief y.

    Accepts a scalar or ndarray belief; returns the same shape.
    """
    p0, p1 = (p.p_up0, p.p_up1) if up else (p.p_dw0, p.p_dw1)
    y = np.asarray(y)
    out = p0 * (q.q00 * (1.0 - y)) + p1 * (q.q01 * (1.0 - y) + y)
    return out if out.ndim else float(out)


def update_belief(y, up: bool, q: QMatrix, p: RegimeReturnProbs):
    """Posterior regime-1 probability after observing an up move (up=True) or
    a down move.

    Bayes update with the one-step-ahead prior; y = 1 is a fixed point.
    Accepts a scalar or ndarray belief; returns the same shape.
    """
    p0, p1 = (p.p_up0, p.p_up1) if up else (p.p_dw0, p.p_dw1)
    y = np.asarray(y)
    favour = p1 * (q.q01 * (1.0 - y) + y)
    denom = p0 * (q.q00 * (1.0 - y)) + favour
    if np.any(denom <= 0.0):
        raise ValueError("predicted move probability vanished; inputs are inadmissible")
    out = favour / denom
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FilterGrid:
    """Equidistant belief grid with the brackets of its posteriors precomputed.

    For each grid belief and each move, ``*_lo``/``*_hi`` hold the indices of
    the grid points that bracket its Bayes posterior (equal on an exact hit)
    and ``w_*`` the linear interpolation weight toward the hi point.  Built
    once per pricing run.
    """

    points: np.ndarray  # (L,) beliefs, 0 = points[0] < ... < points[-1] = 1
    up_lo: np.ndarray
    up_hi: np.ndarray
    w_up: np.ndarray
    dw_lo: np.ndarray
    dw_hi: np.ndarray
    w_dw: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.size

    def locate(self, y):
        """Bracket arbitrary beliefs on the grid: returns (lo, hi, weight)."""
        return _bracket(np.asarray(y, dtype=float), self.n_points)

    def interpolate(self, layer_values: np.ndarray, y):
        """Linear interpolation of per-layer values at arbitrary beliefs."""
        lo, hi, w = self.locate(y)
        return layer_values[lo] * (1.0 - w) + layer_values[hi] * w


def _bracket(
    y: np.ndarray, n_points: int, tol: float = _EXACT_HIT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = y * (n_points - 1)
    nearest = np.rint(pos)
    exact = np.abs(pos - nearest) <= tol
    lo = np.where(exact, nearest, np.floor(pos))
    lo = np.clip(lo, 0, n_points - 1).astype(np.int64)
    hi = np.where(exact, lo, np.minimum(lo + 1, n_points - 1))
    w = np.clip(np.where(exact, 0.0, pos - lo), 0.0, 1.0)
    return lo, hi, w


def build_grid(n_points: int, q: QMatrix, p: RegimeReturnProbs) -> FilterGrid:
    if n_points < 2:
        raise ValueError(f"belief grid needs at least 2 points, got {n_points}")
    points = np.linspace(0.0, 1.0, n_points)
    # The posterior targets collapse only on an exact hit (y = 1 always, y = 0
    # without switching).  Snapping a posterior that is merely close, such as
    # 1.4e-10 at a switching intensity of 1e-9, would drop the switch and
    # could lift the grid value above the insider's.
    up_lo, up_hi, w_up = _bracket(update_belief(points, True, q, p), n_points, tol=0.0)
    dw_lo, dw_hi, w_dw = _bracket(update_belief(points, False, q, p), n_points, tol=0.0)
    return FilterGrid(
        points=points,
        up_lo=up_lo,
        up_hi=up_hi,
        w_up=w_up,
        dw_lo=dw_lo,
        dw_hi=dw_hi,
        w_dw=w_dw,
    )


@dataclass(frozen=True)
class LikelihoodRatioPath:
    times: np.ndarray
    phi: np.ndarray  # likelihood ratio y/(1-y) along the path; >= 0


def likelihood_ratio_quadrature(
    params: ModelParams, increments: np.ndarray, dt: float
) -> LikelihoodRatioPath:
    """Likelihood ratio along a driving path, via its closed-form representation.

    ``increments`` drive W* (the de-drifted Brownian motion under the measure
    that decouples the ratio from the stock).  The time integral is evaluated
    with the trapezoidal rule on the simulation grid, matching the order of an
    Euler benchmark.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if params.y0 >= 1.0:
        raise ValueError("y0 = 1 gives an infinite initial likelihood ratio")
    eta = derived(params).eta
    lam = params.lam
    phi0 = params.y0 / (1.0 - params.y0)

    n = len(increments)
    times = dt * np.arange(n + 1)
    wstar = np.concatenate(([0.0], np.cumsum(increments)))
    log_lam_exp = -eta * wstar - 0.5 * eta * eta * times
    lam_exp = np.exp(log_lam_exp)  # stochastic exponential of -eta*W*

    integrand = np.exp(-lam * times) / lam_exp
    integral = np.empty(n + 1)
    integral[0] = 0.0
    np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]), out=integral[1:])

    phi = np.exp(lam * times) * lam_exp * (phi0 + lam * integral)
    return LikelihoodRatioPath(times=times, phi=phi)
