"""Market/contract constants and derived quantities shared by every engine.

The model: a lognormal stock whose drift drops from ``mu0`` to ``mu1 < mu0``
at an unobserved exponential change point with intensity ``lam``.  An American
call (strike ``strike``, maturity ``maturity``) on that stock is valued under
the physical measure, with no trading in the underlying.  The lattice's
per-step growth convention (see ``lattice.regime_return_probs``) is a model
input like the others, so params under the two conventions compare unequal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path


class ParameterError(ValueError):
    """Raised when model constants violate the model's standing assumptions."""


@dataclass(frozen=True)
class ModelParams:
    mu0: float  # drift before the change point (per year, cc)
    mu1: float  # drift after the change point (per year, cc)
    sigma: float  # volatility (per sqrt-year)
    lam: float  # change-point intensity (per year)
    r: float  # discount rate (per year, cc)
    strike: float  # option strike
    maturity: float  # option maturity (years)
    spot: float  # initial stock price
    y0: float = 0.0  # prior probability that the low-drift regime is already active
    literal_exponent: bool = False  # lattice growth factor exp(mu*sqrt(h)), not exp(mu*h)


@dataclass(frozen=True)
class DerivedConstants:
    eta: float  # drift gap in volatility units, (mu0 - mu1)/sigma
    nu0: float  # mu0/sigma - sigma/2
    nu1: float  # mu1/sigma - sigma/2
    kappa: float  # lam + eta*nu0 - eta^2/2


def derived(params: ModelParams) -> DerivedConstants:
    eta = (params.mu0 - params.mu1) / params.sigma
    nu0 = params.mu0 / params.sigma - 0.5 * params.sigma
    nu1 = params.mu1 / params.sigma - 0.5 * params.sigma
    kappa = params.lam + eta * nu0 - 0.5 * eta * eta
    return DerivedConstants(eta=eta, nu0=nu0, nu1=nu1, kappa=kappa)


def validate(params: ModelParams) -> ModelParams:
    """Check the standing assumptions; return the params unchanged if they hold.

    The pricing engines themselves only require admissible lattice
    probabilities, so deliberately degenerate inputs (e.g. mu0 == mu1 for a
    no-switch sanity run) can still be priced by bypassing this check.  The
    CLI always validates.
    """
    for name in PARAM_KEYS.values():
        value = getattr(params, name)
        if not isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if params.mu0 <= params.mu1:
        raise ParameterError(
            f"mu0 must exceed mu1 (drift falls at the change point); "
            f"got mu0={params.mu0}, mu1={params.mu1}"
        )
    if params.sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {params.sigma}")
    if params.maturity <= 0.0:
        raise ParameterError(f"maturity must be positive, got {params.maturity}")
    if params.spot <= 0.0:
        raise ParameterError(f"spot must be positive, got {params.spot}")
    if params.strike < 0.0:
        raise ParameterError(f"strike must be non-negative, got {params.strike}")
    if params.lam < 0.0:
        raise ParameterError(f"lambda must be non-negative, got {params.lam}")
    if not 0.0 <= params.y0 < 1.0:
        raise ParameterError(f"y0 must lie in [0, 1), got {params.y0}")
    return params


# Keys accepted in parameter files, mapped to ModelParams field names.
PARAM_KEYS = {
    "mu0": "mu0",
    "mu1": "mu1",
    "sigma": "sigma",
    "lambda": "lam",
    "r": "r",
    "strike": "strike",
    "maturity": "maturity",
    "spot": "spot",
    "y0": "y0",
}


def parse_rate(text: str) -> float:
    """Parse a numeric value, treating a trailing '%' as division by 100."""
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


def load_params(path: str | Path) -> ModelParams:
    """Load params from flat key=value text (one key per line, '#' comments)."""
    values: dict[str, float] = {}
    given_on: dict[str, int] = {}  # key -> the line that gave it
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ParameterError(
                f"{path}:{lineno}: unknown key {key!r} (expected one of "
                f"{', '.join(sorted(PARAM_KEYS))})"
            )
        if key in given_on:
            raise ParameterError(f"{path}:{lineno}: repeated key {key!r} (first given on line {given_on[key]})")
        given_on[key] = lineno
        try:
            values[PARAM_KEYS[key]] = parse_rate(text)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {text.strip()!r}") from exc
    missing = [k for k, f in PARAM_KEYS.items() if f not in values and f != "y0"]
    if missing:
        raise ParameterError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    return ModelParams(**values)
