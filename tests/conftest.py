import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from esocp import ModelParams, price_full, price_partial

# Base case of the numerical study: at-the-money ten-year grant.
BASE = ModelParams(
    mu0=0.02,
    mu1=-0.02,
    sigma=0.30,
    lam=0.10,
    r=0.025,
    strike=100.0,
    maturity=10.0,
    spot=100.0,
    y0=0.0,
)

PRODUCTION_N = 2500
PRODUCTION_L = 250


def one_cpu(monkeypatch):
    """Make the worker pools see a single usable CPU (so they run in-process)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture(scope="session")
def full_base():
    """Full-information run at production resolution (shared: it is slow)."""
    return price_full(BASE, PRODUCTION_N, keep_boundaries=False)


@pytest.fixture(scope="session")
def partial_base():
    """Partial-information run at production resolution, with the surface and
    the mid-horizon value slice retained for the smooth-pasting check."""
    return price_partial(
        BASE,
        PRODUCTION_N,
        PRODUCTION_L,
        keep_surface=True,
        keep_slice_at=PRODUCTION_N // 2,
    )
