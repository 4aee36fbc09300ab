"""CRR stock lattice and the regime-switching transition structure.

The stock moves on a recombining binomial tree with up factor exp(sigma*sqrt(h))
and reciprocal down factor.  The drift regime follows a two-state chain with a
single absorbing switch; the move probability within a step is conditioned on
the regime prevailing at the *end* of that step.  ``build_lattice`` makes the
one discretisation (step, discount factor, node prices) every engine reads;
the per-step growth factor behind the move probabilities is the model input
``ModelParams.literal_exponent``, read only by ``regime_return_probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, sqrt

import numpy as np

from .model import ModelParams


class AdmissibilityError(ValueError):
    """Raised when a regime's one-step return probability leaves (0, 1)."""


class NonFiniteResultError(ValueError):
    """Raised when a pricer's root value is not finite (e.g. node prices overflowed)."""


def check_finite(label: str, values) -> None:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteResultError(
            f"{label} is not finite; node prices beyond the float range "
            "(large sigma*sqrt(maturity*N)) are the usual cause"
        )


@dataclass(frozen=True)
class Lattice:
    n_steps: int  # N >= 1
    h: float  # step length, maturity / n_steps (years)
    up: float  # exp(sigma*sqrt(h))
    dw: float  # 1/up
    spot: float
    disc: float  # one-step discount factor exp(-r*h)
    # The ladder spot*up**m, m = -N..N, as its even and odd entries, read-only;
    # node (k, j) is entry N - k + 2j.  Prices beyond the float range are inf,
    # and the roots of a sweep that reads them fail their finiteness check.
    prices: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    def level_prices(self, k: int) -> np.ndarray:
        """All node prices at step k, ascending in j (a read-only view)."""
        start = self.n_steps - k
        return self.prices[start % 2][start // 2 : start // 2 + k + 1]


@dataclass(frozen=True)
class QMatrix:
    """One-step regime transition probabilities from the high-drift state 0.

    State 1 is absorbing (q10 = 0, q11 = 1), so only row 0 is stored.
    """

    q00: float
    q01: float


@dataclass(frozen=True)
class RegimeReturnProbs:
    """Up/down move probabilities conditional on the prevailing regime."""

    p_up0: float
    p_dw0: float
    p_up1: float
    p_dw1: float


def build_lattice(params: ModelParams, n_steps: int) -> Lattice:
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    h = params.maturity / n_steps
    up = exp(params.sigma * sqrt(h))
    with np.errstate(over="ignore"):
        prices = tuple(params.spot * up ** np.arange(m, n_steps + 1, 2, dtype=float) for m in (-n_steps, 1 - n_steps))
    for ladder in prices:
        ladder.flags.writeable = False
    return Lattice(n_steps, h, up, 1.0 / up, params.spot, exp(-h * params.r), prices)


def transition_matrix(lam: float, h: float) -> QMatrix:
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if h <= 0.0:
        raise ValueError(f"step length must be positive, got {h}")
    q00 = exp(-lam * h)
    return QMatrix(q00=q00, q01=1.0 - q00)


def regime_return_probs(params: ModelParams, lattice: Lattice) -> RegimeReturnProbs:
    """Per-regime move probabilities on the lattice.

    By default the one-step growth factor is exp(mu_i*h), which matches the
    one-step expected simple return of the continuous dynamics exactly.  With
    ``params.literal_exponent`` the growth factor is exp(mu_i*sqrt(h))
    instead.
    """
    literal = params.literal_exponent
    probs = []
    for regime, mu in ((0, params.mu0), (1, params.mu1)):
        grow = exp(mu * sqrt(lattice.h)) if literal else exp(mu * lattice.h)
        p = (grow - lattice.dw) / (lattice.up - lattice.dw)
        if not 0.0 < p < 1.0:
            # Default exponent mu*h:  |mu|*h < sigma*sqrt(h)  <=>  h < (sigma/|mu|)^2.
            # Literal exponent mu*sqrt(h): admissible iff |mu| < sigma, for every h.
            if mu == 0.0 or (literal and abs(mu) < params.sigma):
                h_max = inf
            else:
                h_max = 0.0 if literal else (params.sigma / abs(mu)) ** 2
            raise AdmissibilityError(
                f"up-probability {p:.6g} for regime {regime} (mu={mu}) lies outside "
                f"(0, 1) at h={lattice.h:.6g}; largest admissible h is {h_max:.6g}"
            )
        probs.append(p)
    return RegimeReturnProbs(
        p_up0=probs[0],
        p_dw0=1.0 - probs[0],
        p_up1=probs[1],
        p_dw1=1.0 - probs[1],
    )
