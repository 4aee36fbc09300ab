"""Closed-form infinite-horizon solution under full information.

State 1 is a standard perpetual American call with an effective yield r - mu1;
state 0 couples to it through the switching intensity, giving a three-branch
value function whose upper threshold solves a one-dimensional root equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .model import ModelParams, derived

_MAX_DOUBLINGS = 60
_BISECT_REL_TOL = 1e-12


class DegenerateParameterError(ValueError):
    """A parameter combination at which the closed-form constants are singular."""


class BracketError(RuntimeError):
    """The upper-threshold root equation never changed sign while doubling."""


@dataclass(frozen=True)
class NoFiniteBoundary:
    """Typed outcome for mu1 >= r: the exercise thresholds are infinite."""

    reason: str


@dataclass(frozen=True)
class PerpetualSolution:
    params: ModelParams
    gamma: float  # positive root of the state-1 quadratic; > 1
    beta: float  # positive exponent of the state-0 homogeneous solutions
    delta: float  # -delta is the negative exponent; delta = beta + 2*nu0/sigma
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    x1: float  # state-1 exercise threshold, K*gamma/(gamma - 1)
    x0: float  # state-0 exercise threshold, root of the matching equation

    def v1(self, x):
        """State-1 perpetual value: (x1-K)*(x/x1)^gamma below x1, x-K above."""
        x = np.asarray(x, dtype=float)
        k = self.params.strike
        below = (self.x1 - k) * (np.minimum(x, self.x1) / self.x1) ** self.gamma
        out = np.where(x < self.x1, below, x - k)
        return float(out) if out.ndim == 0 else out

    def v0(self, x):
        """State-0 perpetual value, three branches split at x1 and x0."""
        x = np.asarray(x, dtype=float)
        k = self.params.strike
        # Each branch is evaluated only on its own interval (at its nearest end
        # elsewhere), so a value np.where discards cannot overflow or be nan.
        xl = np.minimum(x, self.x1)
        low = self.E * (self.x1 - k) * (xl / self.x1) ** self.gamma + self.F * (xl / self.x1) ** self.beta
        xm = np.clip(x, self.x1, self.x0)
        ratio = self.x1 / xm
        mid = self.A * xm + self.B + self.C * (xm / self.x0) ** self.beta + self.D * ratio**self.delta
        out = np.where(x < self.x1, low, np.where(x < self.x0, mid, x - k))
        return float(out) if out.ndim == 0 else out

    def threshold_equation(self, x) -> float | np.ndarray:
        """Residual of the x0 matching equation at a candidate threshold."""
        k = self.params.strike
        return _threshold_residual(x, self.A, self.B, self.D, self.beta, self.delta, k, self.x1)


def solve_perpetual(params: ModelParams) -> PerpetualSolution | NoFiniteBoundary:
    """Solve the perpetual problem; returns NoFiniteBoundary when mu1 >= r.

    The excluded equalities mu0 = r + lambda, mu1 = r and lambda =
    sigma*eta*gamma are genuinely singular for the constants and raise rather
    than being nudged away.
    """
    mu0, mu1, sigma, lam, r, k = (
        params.mu0,
        params.mu1,
        params.sigma,
        params.lam,
        params.r,
        params.strike,
    )
    if mu1 >= r:
        return NoFiniteBoundary(
            reason=f"mu1={mu1} >= r={r}: holding dominates, no finite exercise boundary"
        )
    if mu0 == r + lam:
        raise DegenerateParameterError(f"mu0 == r + lambda (= {r + lam}): constant A is singular")

    d = derived(params)
    gamma = (sqrt(d.nu1 * d.nu1 + 2.0 * r) - d.nu1) / sigma
    beta = (sqrt(d.nu0 * d.nu0 + 2.0 * (r + lam)) - d.nu0) / sigma
    delta = beta + 2.0 * d.nu0 / sigma

    if lam == sigma * d.eta * gamma:
        raise DegenerateParameterError(
            f"lambda == sigma*eta*gamma (= {lam}): constant E is singular"
        )

    # Affine particular solution of the middle-branch ODE:
    #   mu0*x*v' + s^2/2*x^2*v'' - (r+lam)*v = -lam*(x - K)
    # fixes A = lam/(r+lam-mu0) and B = -lam*K/(r+lam).
    A = lam / (r + lam - mu0)
    B = 0.0 if lam == 0.0 else -lam * k / (r + lam)
    E = 0.0 if lam == 0.0 else lam / (lam - sigma * d.eta * gamma)
    x1 = k * gamma / (gamma - 1.0)
    D = (E * (x1 - k) * (beta - gamma) + A * x1 - beta * (A * x1 + B)) / (beta + delta)

    x0 = _solve_threshold(A, B, D, beta, delta, k, x1)
    C = ((1.0 - A) * (1.0 + delta) * x0 - delta * (k + B)) / (beta + delta)
    F = A * x1 + B + C * (x1 / x0) ** beta + D - E * (x1 - k)

    return PerpetualSolution(
        params=params,
        gamma=gamma,
        beta=beta,
        delta=delta,
        A=A,
        B=B,
        C=C,
        D=D,
        E=E,
        F=F,
        x1=x1,
        x0=x0,
    )


def _threshold_residual(x, A: float, B: float, D: float, beta: float, delta: float, k: float, x1: float):
    """Residual of the x0 matching equation; its root above x1 is x0."""
    return (A - 1.0) * (beta - 1.0) * x + (beta + delta) * D * (x1 / x) ** delta + beta * (k + B)


def _solve_threshold(
    A: float, B: float, D: float, beta: float, delta: float, k: float, x1: float
) -> float:
    def g(x: float) -> float:
        return _threshold_residual(x, A, B, D, beta, delta, k, x1)

    lo, f_lo = x1, g(x1)
    if f_lo == 0.0:
        return lo
    hi = lo
    for _ in range(_MAX_DOUBLINGS):
        hi = 2.0 * hi
        f_hi = g(hi)
        if f_hi == 0.0:
            return hi
        if (f_lo > 0.0) != (f_hi > 0.0):
            break
        lo, f_lo = hi, f_hi
    else:
        raise BracketError(
            f"no sign change in the threshold equation after {_MAX_DOUBLINGS} doublings from x1={x1:.6g}"
        )

    while hi - lo > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def verify_odes(sol: PerpetualSolution, xs) -> float:
    """Max absolute ODE residual of the closed forms at the sample points.

    Every x must lie strictly inside (0, x0); the state-1 residual is only
    evaluated where x < x1 (its continuation region).  Derivatives are
    analytic, so residuals measure only the algebra of the constants.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any((xs <= 0.0) | (xs >= sol.x0)):
        raise ValueError("sample points must lie strictly inside (0, x0)")
    p = sol.params
    k = p.strike
    mu0, mu1, sigma, lam, r = p.mu0, p.mu1, p.sigma, p.lam, p.r
    half_s2 = 0.5 * sigma * sigma
    g, b, dl = sol.gamma, sol.beta, sol.delta
    worst = 0.0

    low = xs[xs < sol.x1]
    if low.size:
        # State 1: a*x^gamma solves mu1*x*v' + s^2/2*x^2*v'' - r*v = 0.
        a = (sol.x1 - k) / sol.x1**g
        v1 = a * low**g
        res1 = mu1 * g * v1 + half_s2 * g * (g - 1.0) * v1 - r * v1
        worst = max(worst, float(np.max(np.abs(res1))))
        # State 0, lower branch: couples to the state-1 power solution.
        a1 = sol.E * (sol.x1 - k) / sol.x1**g
        a2 = sol.F / sol.x1**b
        t_g = a1 * low**g
        t_b = a2 * low**b
        v0 = t_g + t_b
        xv0p = g * t_g + b * t_b
        x2v0pp = g * (g - 1.0) * t_g + b * (b - 1.0) * t_b
        res0 = mu0 * xv0p + half_s2 * x2v0pp - r * v0 - lam * (v0 - v1)
        worst = max(worst, float(np.max(np.abs(res0))))

    mid = xs[xs >= sol.x1]
    if mid.size:
        # State 0, middle branch: v1 has already pasted onto x - K.
        c = sol.C / sol.x0**b
        d = sol.D * sol.x1**dl
        t_b = c * mid**b
        t_d = d * mid**-dl
        v0 = sol.A * mid + sol.B + t_b + t_d
        xv0p = sol.A * mid + b * t_b - dl * t_d
        x2v0pp = b * (b - 1.0) * t_b + dl * (dl + 1.0) * t_d
        res0 = mu0 * xv0p + half_s2 * x2v0pp - r * v0 - lam * (v0 - (mid - k))
        worst = max(worst, float(np.max(np.abs(res0))))

    return worst
