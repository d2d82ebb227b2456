"""Bessel evaluation, modulation-depth search, drive power, THD/SFDR.

Bessel J_n is an integer-order wrapper over scipy.special.jv, so the
comparison with scipy.special only checks the wrapper; the classic identities
(three-term recurrence, even-order normalization, reflection) are the real
checks of the values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sqzkit.errors import InvalidArgumentError
from sqzkit.sideband import (
    SidebandDrive,
    SpectralPeak,
    bessel_j,
    optimal_theta,
    rf_power_required,
    sfdr,
    sideband_powers,
    thd,
)


def test_bessel_against_scipy_grid():
    xs = np.concatenate([np.linspace(-30, 30, 241), [-11.9, 11.9, -12.1, 12.1]])
    for n in range(0, 11):
        for x in xs:
            assert bessel_j(n, float(x)) == pytest.approx(
                float(special.jv(n, x)), abs=1e-12, rel=1e-9
            )


def test_bessel_negative_order_reflection():
    for n in (1, 2, 5):
        for x in (0.5, 3.0, 17.0):
            want = (-1.0) ** n * bessel_j(n, x)
            assert bessel_j(-n, x) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), x=st.floats(0.05, 25.0))
def test_bessel_three_term_recurrence(n, x):
    lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
    rhs = (2.0 * n / x) * bessel_j(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.0, 25.0))
def test_bessel_even_order_normalization(x):
    total = bessel_j(0, x) + 2.0 * sum(bessel_j(2 * k, x) for k in range(1, 40))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sideband_powers_sum_to_unity():
    theta = 5.31
    powers = sideband_powers(theta, 40)
    total = powers[0] + 2.0 * sum(powers[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidArgumentError):
        sideband_powers(1.0, -1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            sideband_powers(bad, 2)


def test_fourth_sideband_anchor():
    # at the depth used for 4th-order conversion, J_4 carries ~16% of power
    assert bessel_j(4, 5.31) == pytest.approx(0.3995, abs=5e-4)
    assert sideband_powers(5.31, 4)[4] == pytest.approx(0.1596, abs=5e-4)


def test_optimal_theta_first_order():
    # frozen from the first maximum of |J_1| (scipy jnp_zeros oracle)
    assert optimal_theta(1) == pytest.approx(1.84118378, abs=1e-6)


def test_optimal_theta_fourth_order():
    theta = optimal_theta(4)
    assert theta == pytest.approx(5.317553, abs=1e-5)
    # it is a genuine local maximum of the power fraction
    p0 = bessel_j(4, theta) ** 2
    assert p0 > bessel_j(4, theta + 1e-3) ** 2
    assert p0 > bessel_j(4, theta - 1e-3) ** 2


def test_optimal_theta_matches_scipy_extremum():
    for order in (1, 2, 3, 4, 6):
        want = float(special.jnp_zeros(order, 1)[0])
        assert optimal_theta(order) == pytest.approx(want, abs=1e-6)


def test_optimal_theta_rejects_order_below_one():
    with pytest.raises(InvalidArgumentError):
        optimal_theta(0)


def test_rf_power_anchor():
    drive = SidebandDrive(theta=5.31, v_pi=5.65, load_ohms=50.0)
    assert rf_power_required(drive) == pytest.approx(29.5995, abs=1e-3)
    assert rf_power_required(SidebandDrive(0.0, 5.65)) == -math.inf


def test_rf_power_hand_computation():
    # V_peak = theta * V_pi / pi; P = V^2 / (2R); dBm = 10 log10(P) + 30
    drive = SidebandDrive(theta=math.pi, v_pi=2.0, load_ohms=50.0)
    want = 10.0 * math.log10(4.0 / 100.0) + 30.0
    assert rf_power_required(drive) == pytest.approx(want, abs=1e-12)


def test_drive_validation():
    with pytest.raises(InvalidArgumentError):
        SidebandDrive(theta=-1.0, v_pi=5.65)
    with pytest.raises(InvalidArgumentError):
        SidebandDrive(theta=1.0, v_pi=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for args in [(bad, 5.65, 50.0), (1.0, bad, 50.0), (1.0, 5.65, bad)]:
            with pytest.raises(InvalidArgumentError):
                SidebandDrive(*args)


def peaks(*rows):
    return [SpectralPeak(f, p, k) for f, p, k in rows]


def test_thd_single_harmonic_reduction():
    # with one harmonic, THD is simply its dBc level
    p = peaks((10e6, 2.0, "fundamental"), (20e6, -33.0, "harmonic"))
    assert thd(p) == pytest.approx(-35.0, abs=1e-12)


def test_thd_multiple_harmonics():
    p = peaks(
        (10e6, 0.0, "fundamental"),
        (20e6, -40.0, "harmonic"),
        (30e6, -50.0, "harmonic"),
        (25e6, -20.0, "spur"),  # spurs do not enter THD
    )
    want = 10.0 * math.log10(10**-4 + 10**-5)
    assert thd(p) == pytest.approx(want, abs=1e-12)


def test_thd_no_harmonics():
    assert thd(peaks((10e6, 0.0, "fundamental"))) == -math.inf


def test_sfdr():
    p = peaks(
        (10e6, 1.0, "fundamental"),
        (20e6, -42.0, "harmonic"),
        (17e6, -38.5, "spur"),
    )
    assert sfdr(p) == pytest.approx(39.5, abs=1e-12)
    assert sfdr(peaks((10e6, 1.0, "fundamental"))) == math.inf


def test_fundamental_count_enforced():
    with pytest.raises(InvalidArgumentError):
        thd(peaks((1e6, 0.0, "harmonic")))
    with pytest.raises(InvalidArgumentError):
        sfdr(peaks((1e6, 0.0, "fundamental"), (2e6, -3.0, "fundamental")))


def test_peak_validation():
    with pytest.raises(InvalidArgumentError):
        SpectralPeak(-1.0, 0.0, "spur")
    with pytest.raises(InvalidArgumentError):
        SpectralPeak(1e6, 0.0, "wibble")
    for bad in (math.nan, math.inf, -math.inf):
        for args in [(bad, 0.0, "spur"), (1e6, bad, "spur")]:
            with pytest.raises(InvalidArgumentError):
                SpectralPeak(*args)
