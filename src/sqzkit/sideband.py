"""RF sideband generation math for phase-modulated light.

A phase modulator driven at frequency f with modulation depth theta puts a
fraction J_n(theta)^2 of the optical power into the n-th sideband at offset
n*f.  This module evaluates J_n through `scipy.special.jv` and derives from
it the sideband power fractions, the modulation depth maximizing a chosen
sideband order, the RF drive power that depth requires, and two spectrum
quality metrics (THD, SFDR) from a measured peak list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

from ._optim import golden_section_min
from .errors import InvalidArgumentError

PEAK_KINDS = ("fundamental", "harmonic", "spur")


@dataclass(frozen=True)
class SidebandDrive:
    """RF drive for a phase modulator: depth theta, half-wave voltage, load."""

    theta: float
    v_pi: float
    load_ohms: float = 50.0

    def __post_init__(self):
        if not 0 <= self.theta < math.inf:
            raise InvalidArgumentError("modulation depth must be non-negative and finite")
        if not (0 < self.v_pi < math.inf and 0 < self.load_ohms < math.inf):
            raise InvalidArgumentError("v_pi and load must be positive and finite")


@dataclass(frozen=True)
class SpectralPeak:
    """One line in a measured RF spectrum."""

    freq_hz: float
    power_dbm: float
    kind: str

    def __post_init__(self):
        if not 0 <= self.freq_hz < math.inf:
            raise InvalidArgumentError("frequency must be non-negative and finite")
        if not math.isfinite(self.power_dbm):
            raise InvalidArgumentError("power must be finite")
        if self.kind not in PEAK_KINDS:
            raise InvalidArgumentError(f"peak kind must be one of {PEAK_KINDS}")


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind, integer order, as a Python float."""
    return float(special.jv(int(n), float(x)))


def sideband_powers(theta: float, n_max: int) -> list[float]:
    """Fractional optical power in sidebands 0..n_max: [J_n(theta)^2]."""
    if n_max < 0:
        raise InvalidArgumentError("n_max must be non-negative")
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"modulation depth must be finite, got {theta}")
    return [bessel_j(n, theta) ** 2 for n in range(n_max + 1)]


def optimal_theta(order: int) -> float:
    """Modulation depth maximizing power in the given sideband order.

    The bracket (0, n + 1.8*n^(1/3)] holds the first maximum of |J_n|, at
    n + 0.81*n^(1/3) asymptotically, and ends before J_n's first zero, so
    |J_n| is unimodal on it and the golden-section search is exact.
    """
    if order < 1:
        raise InvalidArgumentError("order must be >= 1")
    hi = order + 1.8 * order ** (1.0 / 3.0)
    return golden_section_min(lambda th: -bessel_j(order, th) ** 2, 1e-3, hi, tol=1e-9)


def rf_power_required(drive: SidebandDrive) -> float:
    """Sine drive power (dBm) to reach the depth: V_peak = theta*V_pi/pi."""
    v_peak = drive.theta * drive.v_pi / math.pi
    if v_peak == 0.0:
        return -math.inf
    p_watts = v_peak**2 / (2.0 * drive.load_ohms)
    return 10.0 * math.log10(p_watts) + 30.0


def _fundamental(peaks: list[SpectralPeak]) -> SpectralPeak:
    fund = [p for p in peaks if p.kind == "fundamental"]
    if len(fund) != 1:
        raise InvalidArgumentError(f"need exactly one fundamental peak, got {len(fund)}")
    return fund[0]


def thd(peaks) -> float:
    """Total harmonic distortion in dBc (harmonics only; spurs ignored).

    Returns -inf when the spectrum has no harmonic peaks at all.
    """
    peaks = list(peaks)
    fund = _fundamental(peaks)
    harm = [p for p in peaks if p.kind == "harmonic"]
    if not harm:
        return -math.inf
    total_mw = sum(10.0 ** (p.power_dbm / 10.0) for p in harm)
    return 10.0 * math.log10(total_mw) - fund.power_dbm


def sfdr(peaks) -> float:
    """Spurious-free dynamic range in dBc: fundamental minus worst other peak.

    Harmonics and spurs both count; +inf when the fundamental is alone, since
    with no spur the range is unbounded.
    """
    peaks = list(peaks)
    fund = _fundamental(peaks)
    others = [p.power_dbm for p in peaks if p.kind != "fundamental"]
    if not others:
        return math.inf
    return fund.power_dbm - max(others)
