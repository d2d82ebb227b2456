"""Calibration fit: pump-power squeezing model.

The squeezing parameter produced by a single-pass nonlinear waveguide scales
as the square root of coupled pump power:

    r = sqrt(a * L^2 * (P / eta_w) * eta_p)

with a the normalized gain (1/(W cm^2)), L the interaction length (cm),
eta_w the tap-to-waveguide calibration ratio, eta_p the pump coupling into
the waveguide, and P the pump power at the monitoring tap (W).  The coupling
eta_p is not directly measurable; `fit_eta_p` recovers it from a power sweep
of measured squeezing/anti-squeezing levels using the lossy two-mode model.
The model itself is plain `math`, so `expect` on a pump-sourced scenario
loads no numpy; the fit and `synthetic_sweep` import it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._optim import golden_section_min
from .errors import DegenerateInputError, InvalidArgumentError
from .tmsv import analytic_squeezing

BRANCHES = ("squeezed", "antisqueezed")


@dataclass(frozen=True)
class SqueezeParams:
    """Waveguide-source constants for the r-vs-power model."""

    gain_per_watt_cm2: float  # a
    length_cm: float  # L
    waveguide_efficiency: float  # eta_w: tap power -> waveguide-input power
    pump_coupling: float | None  # eta_p: fraction coupled into the mode
    pump_power_watts: float  # P at the tap

    def __post_init__(self):
        if not (0 < self.gain_per_watt_cm2 < math.inf and 0 < self.length_cm < math.inf):
            raise InvalidArgumentError("gain and length must be positive and finite")
        if not 0.0 < self.waveguide_efficiency <= 1.0:
            raise InvalidArgumentError("waveguide_efficiency must be in (0, 1]")
        if self.pump_coupling is not None and not 0.0 < self.pump_coupling <= 1.0:
            raise InvalidArgumentError("pump_coupling must be in (0, 1]")
        if not 0 <= self.pump_power_watts < math.inf:
            raise InvalidArgumentError("pump power must be non-negative and finite")


@dataclass(frozen=True)
class PowerSweepPoint:
    """One measured point of a pump-power sweep."""

    pump_power_watts: float
    level_db: float
    branch: str

    def __post_init__(self):
        if not 0 <= self.pump_power_watts < math.inf:
            raise InvalidArgumentError("pump power must be non-negative and finite")
        if not math.isfinite(self.level_db):
            raise InvalidArgumentError("level must be finite")
        if self.branch not in BRANCHES:
            raise InvalidArgumentError(f"branch must be one of {BRANCHES}")


@dataclass(frozen=True)
class FitResult:
    parameter: float
    r_squared: float
    residuals: tuple


def r_from_power(
    params: SqueezeParams,
    pump_power_watts: float | None = None,
    pump_coupling: float | None = None,
) -> float:
    """Squeezing parameter at a given tap power (defaults from `params`)."""
    p = params.pump_power_watts if pump_power_watts is None else pump_power_watts
    eta_p = params.pump_coupling if pump_coupling is None else pump_coupling
    if eta_p is None:
        raise InvalidArgumentError("pump_coupling unset: pass one or put it in params")
    if not 0.0 < eta_p <= 1.0:
        raise InvalidArgumentError(f"pump_coupling must be in (0, 1], got {eta_p}")
    if not 0 <= p < math.inf:
        raise InvalidArgumentError(f"pump power must be non-negative and finite, got {p}")
    return math.sqrt(
        params.gain_per_watt_cm2
        * params.length_cm**2
        * (p / params.waveguide_efficiency)
        * eta_p
    )


def piecewise_model(
    p_signed: float, eta_p: float, t_b: float, t_c: float, params: SqueezeParams
) -> float:
    """Predicted level (dB) at signed pump power.

    Sign encodes the branch: p <= 0 means the squeezed level at power |p|,
    p > 0 the anti-squeezed level.  Both branches share eta_p, so a joint
    fit over mixed data pins it down from either side.
    """
    sq, anti = analytic_squeezing(r_from_power(params, abs(p_signed), eta_p), t_b, t_c)
    return sq if p_signed <= 0 else anti


def fit_eta_p(points, t_b: float, t_c: float, params: SqueezeParams) -> FitResult:
    """Least-squares pump coupling from a power sweep (golden-section search).

    Points on the squeezed branch enter with negative signed power; the cost
    is the sum of squared dB residuals against `piecewise_model`, minimized
    over eta_p in (0, 1].
    """
    import numpy as np

    points = list(points)
    if not points:
        raise InvalidArgumentError("need at least one sweep point")
    signed = np.array(
        [(-pt.pump_power_watts if pt.branch == "squeezed" else pt.pump_power_watts) for pt in points]
    )
    levels = np.array([pt.level_db for pt in points])
    if np.all(signed == 0.0):
        raise DegenerateInputError("all sweep points at zero pump power")

    def cost(eta_p: float) -> float:
        pred = np.array([piecewise_model(p, eta_p, t_b, t_c, params) for p in signed])
        return float(np.sum((levels - pred) ** 2))

    eta_p = golden_section_min(cost, 1e-6, 1.0, tol=1e-9)
    pred = np.array([piecewise_model(p, eta_p, t_b, t_c, params) for p in signed])
    resid = levels - pred
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((levels - levels.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else -math.inf
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(float(eta_p), r2, tuple(float(x) for x in resid))


def synthetic_sweep(
    eta_p: float,
    t_b: float,
    t_c: float,
    params: SqueezeParams,
    powers_watts,
    noise_db: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[PowerSweepPoint]:
    """Noisy sweep data from the model itself (test/demo helper)."""
    import numpy as np

    rng = rng or np.random.default_rng(0)
    out = []
    for p in powers_watts:
        sq, anti = analytic_squeezing(r_from_power(params, p, eta_p), t_b, t_c)
        out.append(PowerSweepPoint(p, sq + rng.normal(0, noise_db) if noise_db else sq, "squeezed"))
        out.append(
            PowerSweepPoint(p, anti + rng.normal(0, noise_db) if noise_db else anti, "antisqueezed")
        )
    return out
