"""Pump-power model, coupling fit, linear regression, golden-section search."""

import math

import numpy as np
import pytest

from sqzkit._optim import golden_section_min
from sqzkit.errors import DegenerateInputError, InvalidArgumentError
from sqzkit.fitting import (
    FitResult,
    PowerSweepPoint,
    SqueezeParams,
    fit_eta_p,
    piecewise_model,
    r_from_power,
    synthetic_sweep,
)

PARAMS = SqueezeParams(
    gain_per_watt_cm2=0.24,
    length_cm=2.5,
    waveguide_efficiency=0.53,
    pump_coupling=None,
    pump_power_watts=0.7008,
)
T_B, T_C = 0.3097, 0.2576
ETA_P_TRUE = 0.49019


def test_r_from_power_anchor():
    # sqrt(0.24 * 2.5^2 * (0.7008/0.53) * 0.49019)
    r = r_from_power(PARAMS, pump_coupling=ETA_P_TRUE)
    assert r == pytest.approx(0.986027, abs=1e-5)


def test_r_scales_with_sqrt_power():
    r1 = r_from_power(PARAMS, pump_power_watts=0.2, pump_coupling=0.5)
    r2 = r_from_power(PARAMS, pump_power_watts=0.8, pump_coupling=0.5)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    assert r_from_power(PARAMS, pump_power_watts=0.0, pump_coupling=0.5) == 0.0


def test_r_from_power_needs_coupling():
    with pytest.raises(InvalidArgumentError):
        r_from_power(PARAMS)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            r_from_power(PARAMS, pump_power_watts=bad, pump_coupling=0.5)
        with pytest.raises(InvalidArgumentError):
            r_from_power(PARAMS, pump_power_watts=0.5, pump_coupling=bad)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        SqueezeParams(0.0, 2.5, 0.53, None, 0.7)
    with pytest.raises(InvalidArgumentError):
        SqueezeParams(0.24, 2.5, 1.5, None, 0.7)
    with pytest.raises(InvalidArgumentError):
        SqueezeParams(0.24, 2.5, 0.53, 0.0, 0.7)
    for bad in (math.nan, math.inf, -math.inf):
        for args in [(bad, 2.5, 0.53, None, 0.7), (0.24, bad, 0.53, None, 0.7), (0.24, 2.5, 0.53, None, bad)]:
            with pytest.raises(InvalidArgumentError):
                SqueezeParams(*args)


def test_piecewise_model_branch_signs():
    lo = piecewise_model(-0.7, 0.5, T_B, T_C, PARAMS)
    hi = piecewise_model(0.7, 0.5, T_B, T_C, PARAMS)
    assert lo < 0 < hi
    # both branches meet at zero power: no squeezing either way
    assert piecewise_model(0.0, 0.5, T_B, T_C, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_fit_recovers_noiseless_coupling():
    powers = np.linspace(0.05, 0.7008, 12)
    points = synthetic_sweep(ETA_P_TRUE, T_B, T_C, PARAMS, powers)
    result = fit_eta_p(points, T_B, T_C, PARAMS)
    assert isinstance(result, FitResult)
    assert abs(result.parameter - ETA_P_TRUE) < 1e-6
    assert result.r_squared > 1.0 - 1e-9
    assert max(abs(x) for x in result.residuals) < 1e-6


def test_fit_with_noise_stays_close():
    rng = np.random.default_rng(5)
    powers = np.linspace(0.05, 0.7008, 12)
    points = synthetic_sweep(ETA_P_TRUE, T_B, T_C, PARAMS, powers, noise_db=0.05, rng=rng)
    result = fit_eta_p(points, T_B, T_C, PARAMS)
    assert abs(result.parameter - ETA_P_TRUE) / ETA_P_TRUE < 0.02
    assert result.r_squared > 0.999


def test_fit_single_branch_data():
    powers = np.linspace(0.1, 0.7, 8)
    points = [p for p in synthetic_sweep(ETA_P_TRUE, T_B, T_C, PARAMS, powers)
              if p.branch == "squeezed"]
    result = fit_eta_p(points, T_B, T_C, PARAMS)
    assert abs(result.parameter - ETA_P_TRUE) < 1e-5


def test_fit_degenerate_inputs():
    with pytest.raises(InvalidArgumentError):
        fit_eta_p([], T_B, T_C, PARAMS)
    zeros = [PowerSweepPoint(0.0, 0.0, "squeezed"), PowerSweepPoint(0.0, 0.0, "antisqueezed")]
    with pytest.raises(DegenerateInputError):
        fit_eta_p(zeros, T_B, T_C, PARAMS)


def test_sweep_point_validation():
    with pytest.raises(InvalidArgumentError):
        PowerSweepPoint(-0.1, 0.0, "squeezed")
    with pytest.raises(InvalidArgumentError):
        PowerSweepPoint(0.1, 0.0, "sideways")
    for bad in (math.nan, math.inf, -math.inf):
        for args in [(bad, 0.0, "squeezed"), (0.1, bad, "antisqueezed")]:
            with pytest.raises(InvalidArgumentError):
                PowerSweepPoint(*args)


def test_golden_section_quadratic():
    argmin = golden_section_min(lambda u: (u - 0.3217) ** 2, 0.0, 1.0, tol=1e-10)
    assert argmin == pytest.approx(0.3217, abs=1e-9)


def test_golden_section_bad_bracket():
    with pytest.raises(InvalidArgumentError):
        golden_section_min(lambda u: u, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        golden_section_min(lambda u: u, 0.0, 1.0, tol=0.0)
