import pytest

from esocp import ModelParams, ParameterError, derived, load_params, validate
from esocp.model import parse_rate

from conftest import BASE


def test_base_parameters_accepted():
    assert validate(BASE) is BASE


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu0=0.02, mu1=0.02),  # drift must strictly fall
        dict(sigma=0.0),
        dict(sigma=-0.1),
        dict(maturity=0.0),
        dict(spot=0.0),
        dict(strike=-1.0),
        dict(lam=-0.01),
        dict(y0=1.0),
        dict(y0=-0.1),
        dict(mu0=float("nan")),
    ],
)
def test_validate_rejects(kwargs):
    from dataclasses import replace

    with pytest.raises(ParameterError):
        validate(replace(BASE, **kwargs))


def test_derived_constants():
    d = derived(BASE)
    assert d.eta == pytest.approx(0.04 / 0.30, rel=1e-15)
    assert d.nu0 == pytest.approx(0.02 / 0.30 - 0.15, rel=1e-15)
    assert d.nu1 == pytest.approx(-0.02 / 0.30 - 0.15, rel=1e-15)


def test_eta_is_one_when_drift_gap_equals_sigma():
    p = ModelParams(mu0=0.25, mu1=-0.05, sigma=0.30, lam=0.1, r=0.025,
                    strike=100.0, maturity=10.0, spot=100.0)
    assert derived(p).eta == pytest.approx(1.0, abs=1e-15)


def test_parse_rate_percent():
    assert parse_rate("2.5%") == pytest.approx(0.025)
    assert parse_rate(" -2% ") == pytest.approx(-0.02)
    assert parse_rate("0.3") == 0.3


def test_load_params_roundtrip(tmp_path):
    f = tmp_path / "params.txt"
    f.write_text(
        "# base case\n"
        "mu0 = 2%\n"
        "mu1 = -2%\n"
        "sigma = 30%\n"
        "lambda = 10%\n"
        "r = 0.025\n"
        "strike = 100\n"
        "maturity = 10\n"
        "spot = 100  # at the money\n"
        "y0 = 0\n"
    )
    p = load_params(f)
    assert p == BASE


def test_load_params_errors(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("mu0=2%\nbogus=1\n")
    with pytest.raises(ParameterError, match="unknown key"):
        load_params(f)
    f.write_text("mu0=2%\n")
    with pytest.raises(ParameterError, match="missing keys"):
        load_params(f)
    f.write_text("mu0=banana\n")
    with pytest.raises(ParameterError, match="bad value"):
        load_params(f)
    f.write_text("mu0=2%\nmu1 -2%\n")
    with pytest.raises(ParameterError, match=r"bad\.txt:2: expected key=value, got 'mu1 -2%'"):
        load_params(f)
    # a repeated key would silently override the earlier line
    f.write_text("mu0=2%\n# later\n mu0 = 8%\n")
    with pytest.raises(ParameterError, match=r"bad\.txt:3: repeated key 'mu0' \(first given on line 1\)"):
        load_params(f)


def test_load_params_y0_optional(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text(
        "mu0=2%\nmu1=-2%\nsigma=30%\nlambda=10%\nr=2.5%\n"
        "strike=100\nmaturity=10\nspot=100\n"
    )
    assert load_params(f).y0 == 0.0


def test_derived_matches_recomputation():
    d = derived(BASE)
    assert d.eta == (BASE.mu0 - BASE.mu1) / BASE.sigma
    assert d.nu0 == BASE.mu0 / BASE.sigma - 0.5 * BASE.sigma
