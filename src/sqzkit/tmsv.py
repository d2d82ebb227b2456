"""Closed forms for a lossy two-mode squeezed vacuum (TMSV).

The one home of the lossy-TMSV covariance: the quadrature moments of a
two-mode squeezed vacuum whose arms pass through losses t_b and t_c, the
joint-quadrature variances built from them, and their dB values.  The
budget, the pump-coupling fit and the trace synthesizer all read the state
from here, and `gaussian` re-exports these functions next to the explicit
symplectic chain that the tests check them against.

Vacuum variance is 1 (the hbar=2 convention).  Plain floats and the
`math` module only, so a prediction never imports numpy.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError


def variance_to_db(variance: float) -> float:
    """Variance ratio (vacuum = 1) expressed in dB."""
    if variance <= 0:
        raise InvalidArgumentError("variance must be positive")
    return 10.0 * math.log10(variance)


def lossy_tmsv_moments(r: float, t_b: float, t_c: float) -> tuple[float, float, float]:
    """Quadrature moments (v_b, v_c, cross) of a lossy two-mode squeezed vacuum.

    Each arm keeps a fraction t_i of the thermal variance cosh(2r) and gains
    1 - t_i of vacuum, v_i = t_i cosh(2r) + 1 - t_i; the two arms correlate
    with amplitude cross = sqrt(t_b t_c) sinh(2r).  Vacuum units, unchecked.
    """
    ch = math.cosh(2.0 * r)
    cross = math.sqrt(t_b * t_c) * math.sinh(2.0 * r)
    return t_b * ch + (1.0 - t_b), t_c * ch + (1.0 - t_c), cross


def analytic_joint_variances(r: float, t_b: float, t_c: float) -> tuple[float, float]:
    """Closed-form (v_minus, v_plus) of a lossy two-mode squeezed vacuum.

    v_pm = (v_b + v_c)/2 -+ cross from :func:`lossy_tmsv_moments`, vacuum
    units.  Equal to joint_variances(lossy_tmsv_state(...)) without the matrix
    products.
    """
    for name, t in (("t_b", t_b), ("t_c", t_c)):
        if not 0.0 <= t <= 1.0:
            raise InvalidArgumentError(f"{name} must be in [0, 1], got {t}")
    # v_i is linear in t_i, so the mean arm variance is the one at the mean t
    mean_t = 0.5 * (t_b + t_c)
    base = lossy_tmsv_moments(r, mean_t, mean_t)[0]
    cross = lossy_tmsv_moments(r, t_b, t_c)[2]
    return base - cross, base + cross


def analytic_squeezing(r: float, t_b: float, t_c: float) -> tuple[float, float]:
    """(squeezing_db, antisqueezing_db) of a lossy two-mode squeezed vacuum.

    dB of the minus/plus joint-quadrature variances relative to vacuum.  For
    r > 0 the first value is negative (squeezed); negative r swaps the roles.
    """
    v_minus, v_plus = analytic_joint_variances(r, t_b, t_c)
    return variance_to_db(v_minus), variance_to_db(v_plus)
