import warnings
from dataclasses import replace

import numpy as np
import pytest

from esocp import NoFiniteBoundary, solve_perpetual, verify_odes
from esocp.model import derived
from esocp.perpetual import BracketError, DegenerateParameterError

from conftest import BASE


@pytest.fixture(scope="module")
def sol():
    out = solve_perpetual(BASE)
    assert not isinstance(out, NoFiniteBoundary)
    return out


def _positive_quadratic_root(a: float, b: float, c: float) -> float:
    roots = np.roots([a, b, c])
    roots = roots[np.isreal(roots)].real
    return float(roots[roots > 0].max())


def test_gamma_solves_its_quadratic(sol):
    residual = 0.5 * BASE.sigma**2 * sol.gamma**2 + (BASE.mu1 - 0.5 * BASE.sigma**2) * sol.gamma - BASE.r
    assert abs(residual) < 1e-12
    oracle = _positive_quadratic_root(0.5 * BASE.sigma**2, BASE.mu1 - 0.5 * BASE.sigma**2, -BASE.r)
    assert sol.gamma == pytest.approx(oracle, rel=1e-12)
    assert sol.gamma > 1.0


def test_beta_delta_solve_state0_quadratic(sol):
    # beta and -delta are the two roots of the homogeneous state-0 equation
    a, b, c = 0.5 * BASE.sigma**2, BASE.mu0 - 0.5 * BASE.sigma**2, -(BASE.r + BASE.lam)
    for exponent in (sol.beta, -sol.delta):
        assert abs(a * exponent**2 + b * exponent + c) < 1e-12


def test_switched_threshold_value(sol):
    oracle_gamma = _positive_quadratic_root(
        0.5 * BASE.sigma**2, BASE.mu1 - 0.5 * BASE.sigma**2, -BASE.r
    )
    assert sol.x1 == pytest.approx(100.0 * oracle_gamma / (oracle_gamma - 1.0), rel=1e-12)
    assert sol.x0 > sol.x1


def test_threshold_equation_residual(sol):
    assert abs(sol.threshold_equation(sol.x0)) < 1e-10 * sol.x0


def test_matching_and_pasting_conditions(sol):
    k = BASE.strike
    ratio_d = (sol.x1 / sol.x0) ** sol.delta
    ratio_b = (sol.x1 / sol.x0) ** sol.beta
    conditions = [
        (sol.C, (1 - sol.A) * sol.x0 - (k + sol.B) - sol.D * ratio_d),
        (sol.beta * sol.C, (1 - sol.A) * sol.x0 + sol.delta * sol.D * ratio_d),
        (sol.E * (sol.x1 - k) + sol.F, sol.A * sol.x1 + sol.B + sol.C * ratio_b + sol.D),
        (
            sol.E * (sol.x1 - k) * sol.gamma + sol.beta * sol.F,
            sol.A * sol.x1 + sol.beta * sol.C * ratio_b - sol.delta * sol.D,
        ),
    ]
    for lhs, rhs in conditions:
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_switched_value_function(sol):
    k = BASE.strike
    assert sol.v1(0.0) == 0.0
    assert sol.v1(sol.x1) == pytest.approx(sol.x1 - k, rel=1e-12)
    assert sol.v1(sol.x1 * 1.5) == sol.x1 * 1.5 - k
    # smooth pasting holds algebraically: gamma*(x1-K)/x1 = 1
    assert sol.gamma * (sol.x1 - k) / sol.x1 == pytest.approx(1.0, rel=1e-12)
    # value is C1 only, so the step must be small enough that the second
    # derivative kink does not pollute the central difference
    step = 1e-7 * sol.x1
    deriv = (sol.v1(sol.x1 + step) - sol.v1(sol.x1 - step)) / (2 * step)
    assert deriv == pytest.approx(1.0, abs=1e-6)
    # interior value by direct evaluation of the power solution
    assert sol.v1(100.0) == pytest.approx((sol.x1 - k) * (100.0 / sol.x1) ** sol.gamma, rel=1e-12)


def test_fresh_value_function_continuity(sol):
    k = BASE.strike
    assert sol.v0(0.0) == 0.0
    low = sol.E * (sol.x1 - k) + sol.F  # lower branch at x1
    mid_at_x1 = sol.A * sol.x1 + sol.B + sol.C * (sol.x1 / sol.x0) ** sol.beta + sol.D
    assert abs(low - mid_at_x1) <= 1e-9 * max(1.0, abs(low))
    mid_at_x0 = sol.A * sol.x0 + sol.B + sol.C + sol.D * (sol.x1 / sol.x0) ** sol.delta
    assert abs(mid_at_x0 - (sol.x0 - k)) <= 1e-9 * max(1.0, sol.x0)
    step = 1e-5 * sol.x0
    deriv = (sol.v0(sol.x0 - step) - sol.v0(sol.x0 - 3 * step)) / (2 * step)
    assert deriv == pytest.approx(1.0, abs=1e-4)


def test_fresh_dominates_switched(sol):
    xs = np.linspace(0.0, 4.0 * sol.x0, 1000)
    assert np.all(sol.v0(xs) >= sol.v1(xs) - 1e-9)
    assert np.all(np.diff(sol.v0(xs)) >= -1e-9)
    assert np.all(sol.v0(xs) >= np.maximum(xs - BASE.strike, 0.0) - 1e-9)


def test_ode_residuals_vanish(sol):
    xs_low = np.linspace(1.0, sol.x1 * 0.999, 100)
    xs_mid = np.linspace(sol.x1 * 1.001, sol.x0 * 0.999, 100)
    scale = max(1.0, float(np.max(np.abs(sol.v0(xs_mid)))))
    assert verify_odes(sol, xs_low) < 1e-8 * scale
    assert verify_odes(sol, xs_mid) < 1e-8 * scale


def test_ode_residual_rejects_stopped_region(sol):
    with pytest.raises(ValueError):
        verify_odes(sol, [sol.x0 * 1.01])
    with pytest.raises(ValueError):
        verify_odes(sol, [0.0])


def test_no_finite_boundary_outcome():
    out = solve_perpetual(replace(BASE, mu0=0.08, mu1=0.05))
    assert isinstance(out, NoFiniteBoundary)
    assert "mu1" in out.reason
    # mu1 == r is the boundary case of the same regime
    assert isinstance(solve_perpetual(replace(BASE, mu1=BASE.r)), NoFiniteBoundary)


def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameterError, match="lambda"):
        solve_perpetual(replace(BASE, mu0=BASE.r + BASE.lam))
    # construct lambda == sigma*eta*gamma exactly
    probe = solve_perpetual(BASE)
    eta = derived(BASE).eta
    lam_singular = BASE.sigma * eta * probe.gamma
    bad = replace(BASE, lam=lam_singular)
    eta_bad = derived(bad).eta
    assert eta_bad == eta  # eta does not depend on lambda
    with pytest.raises(DegenerateParameterError, match="sigma\\*eta\\*gamma"):
        solve_perpetual(bad)


def test_no_switch_limit_is_classical_perpetual_call():
    # lam = 0 collapses to the one-regime perpetual call with drift mu0
    p = replace(BASE, lam=0.0, mu0=0.01, mu1=-0.05)
    out = solve_perpetual(p)
    beta = _positive_quadratic_root(0.5 * p.sigma**2, p.mu0 - 0.5 * p.sigma**2, -p.r)
    x_star = 100.0 * beta / (beta - 1.0)
    assert out.x0 == pytest.approx(x_star, rel=1e-10)
    xs = np.linspace(1.0, x_star * 0.99, 50)
    classical = (x_star - 100.0) * (xs / x_star) ** beta
    assert np.max(np.abs(out.v0(xs) - classical)) < 1e-8


@pytest.mark.parametrize("lam", [BASE.lam, 0.0])
def test_values_at_the_ends_raise_no_warning(lam):
    # the branches np.where discards at x = 0 and at x = 1e200 warn of nothing
    out = solve_perpetual(replace(BASE, lam=lam))
    xs = np.array([0.0, 0.5 * out.x1, out.x1, out.x0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert out.v0(0.0) == 0.0
        assert out.v1(1e200) == 1e200 - 100.0
        v0, v1 = out.v0(xs), out.v1(xs)
    assert v0[0] == v1[0] == 0.0 and np.all(np.isfinite(v0)) and np.all(np.isfinite(v1))


def test_threshold_bracket_failure_is_reported():
    # strongly growing fresh regime: state-0 exercise never pays, the
    # threshold equation keeps one sign while the bracket doubles
    p = replace(BASE, mu0=0.30, mu1=-0.02)
    with pytest.raises(BracketError):
        solve_perpetual(p)
