"""Raw-voltage post-processing chain, stage by stage."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzkit import cli, pipeline, synth
from sqzkit.errors import DegenerateInputError, DimensionMismatchError, InvalidArgumentError
from sqzkit.pipeline import (
    QUADRATURE_VACUUM_VARIANCE,
    ShotNoiseStats,
    align,
    analysis_report,
    average4,
    delay_search,
    dip_fwhm,
    discard_average4,
    discard_trigger_region,
    normalize,
    raw_to_quadratures,
    rolling_variance,
    shot_noise_stats,
    squeezing_report,
    variance_vs_delay,
)


def correlated_pair(n, var1, var2, cov, seed=0):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    x1 = math.sqrt(var1) * g1
    x2 = (cov / math.sqrt(var1)) * g1 + math.sqrt(var2 - cov**2 / var1) * g2
    return x1, x2


# --------------------------------------------------------------- averaging


def test_average4_basic():
    out = average4(np.array([1.0, 2, 3, 4, 5, 6, 7, 8]))
    assert np.array_equal(out, [2.5, 6.5])


def test_average4_drops_remainder():
    out = average4(np.arange(11, dtype=float))
    assert out.size == 2
    assert np.array_equal(out, [1.5, 5.5])


def test_average4_too_short():
    with pytest.raises(InvalidArgumentError):
        average4(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_average4_is_bit_identical_to_the_reshaped_mean(extra):
    rng = np.random.default_rng(40 + extra)
    n = 4 * 25_001 + extra
    frozen = rng.standard_normal(n) + 1e9
    frozen.setflags(write=False)
    for v in (rng.standard_normal(n), frozen, (0.05 * rng.standard_normal(n)).astype(np.float32)):
        want = np.asarray(v, dtype=np.float64)[: n - extra].reshape(-1, 4).mean(axis=1)
        assert np.array_equal(average4(v), want)


def test_discard_trigger_region_center_cut():
    v = np.arange(1.0, 11.0)
    out = discard_trigger_region(v, 0.2)
    assert np.array_equal(out, [1, 2, 3, 4, 7, 8, 9, 10])


def test_discard_trigger_region_zero_fraction():
    v = np.arange(6.0)
    assert np.array_equal(discard_trigger_region(v, 0.0), v)


def test_discard_trigger_region_validation():
    with pytest.raises(InvalidArgumentError):
        discard_trigger_region(np.arange(4.0), 1.0)
    with pytest.raises(InvalidArgumentError):
        discard_trigger_region(np.arange(4.0), -0.1)
    with pytest.raises(InvalidArgumentError):
        discard_trigger_region(np.arange(2.0), 0.9)  # rounds to the whole trace


def test_discard_then_average_matches_averaging_the_concatenation():
    # discard_average4, and so shot_noise_stats and raw_to_quadratures,
    # average the samples either side of the cut without joining them; the
    # cut may fall inside a group
    rng = np.random.default_rng(17)
    cut_offsets = set()
    for n in [*range(5, 70), 4 * 25_001 + 3]:
        v = rng.standard_normal(n) + 1e3  # the offset makes the order of the sums show
        for fraction in (0.0, 0.05, 0.1, 0.25, 0.5, 0.8):
            kept = discard_trigger_region(v, fraction)
            if kept.size < 8:  # shot-noise stats need two averaged points
                continue
            cut_offsets.add(kept.size // 2 % 4)  # the head keeps kept.size // 2 samples
            want = average4(kept)
            assert np.array_equal(discard_average4(v, fraction), want), (n, fraction)
            sn = shot_noise_stats(v, fraction)
            assert sn == ShotNoiseStats.from_samples(want), (n, fraction)
            got = raw_to_quadratures(v, sn, fraction=fraction).q
            assert np.array_equal(got, normalize(want, sn).q), (n, fraction)
    assert cut_offsets == {0, 1, 2, 3}


# ------------------------------------------------------------ normalization


def test_shot_noise_self_normalization_is_exact():
    # normalizing a trace by its own post-averaging stats must give mean 0
    # and variance exactly 1/2 (up to float rounding)
    rng = np.random.default_rng(11)
    raw = 0.05 * rng.standard_normal(40_000) + 0.003
    sn = shot_noise_stats(raw)
    q = raw_to_quadratures(raw, sn, sample_rate=5e8)
    assert abs(float(np.mean(q.q))) < 1e-12
    assert float(np.var(q.q, ddof=1)) == pytest.approx(QUADRATURE_VACUUM_VARIANCE, abs=1e-9)
    assert q.quadrature_rate == pytest.approx(1.25e8)


def test_normalize_scales_third_party_trace():
    sn = ShotNoiseStats(mean=1.0, variance=4.0, n_samples=100)
    q = normalize(np.array([1.0, 3.0, -1.0]), sn, quadrature_rate=10.0)
    # scale = sqrt(0.5/4); values (0, 2, -2) scaled
    s = math.sqrt(0.125)
    assert np.allclose(q.q, [0.0, 2 * s, -2 * s], atol=1e-15)


def test_shot_noise_stats_validation():
    with pytest.raises(InvalidArgumentError):
        ShotNoiseStats(0.0, 0.0, 10)
    with pytest.raises(InvalidArgumentError):
        ShotNoiseStats.from_samples(np.array([1.0]))


def test_rolling_variance_wrapper():
    x = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    values = rolling_variance(x, 3)
    expected = [np.var(x[i : i + 3], ddof=1) for i in range(3)]
    assert isinstance(values, np.ndarray)
    assert np.allclose(values, expected, atol=1e-12)


# -------------------------------------------------------------- delay search


def test_delay_search_recovers_known_shift():
    rng = np.random.default_rng(12)
    n = 6000
    common = rng.standard_normal(n + 40)
    for true_delay in (-9, -1, 0, 2, 13):
        a = common[20 : 20 + n] + 0.05 * rng.standard_normal(n)
        b = common[20 - true_delay : 20 - true_delay + n] + 0.05 * rng.standard_normal(n)
        d, obj = delay_search(a, b, max_delay=15, window=50)
        assert d == true_delay
        assert 0.0 < obj <= 1.0


def test_delay_search_constant_trace_rejected():
    with pytest.raises(DegenerateInputError):
        delay_search(np.ones(500), np.random.default_rng(0).standard_normal(500), 5, 20)


def test_delay_search_validation():
    x = np.random.default_rng(1).standard_normal(100)
    with pytest.raises(DimensionMismatchError):
        delay_search(x, x[:-1], 5, 10)
    with pytest.raises(InvalidArgumentError):
        delay_search(x, x, 60, 50)  # no windows left
    with pytest.raises(InvalidArgumentError):
        delay_search(x, x, -1, 10)


def test_align_index_arithmetic():
    a = np.arange(20.0)
    b = np.arange(100.0, 120.0)
    a2, b2 = align(a, b, delay=3, max_delay=5)
    assert np.array_equal(a2, np.arange(5.0, 15.0))
    assert np.array_equal(b2, np.arange(108.0, 118.0))
    a3, b3 = align(a, b, delay=-5, max_delay=5)
    assert np.array_equal(b3, np.arange(100.0, 110.0))
    with pytest.raises(InvalidArgumentError):
        align(a, b, delay=6, max_delay=5)
    with pytest.raises(InvalidArgumentError):
        align(a[:8], b[:8], delay=0, max_delay=4)


# ---------------------------------------------------------- squeezing report


def test_squeezing_report_recovers_joint_variances():
    # correlated pair with known sum/difference variances, vacuum reference
    n = 400_000
    v1 = v2 = 1.4
    cov = 0.9  # var(sum)/2 = 2.3/..  -> in quadrature units: scale by 1/2
    x1, x2 = correlated_pair(n, v1, v2, cov, seed=21)
    q1, q2 = math.sqrt(0.5) * x1, math.sqrt(0.5) * x2  # vacuum-normalized units
    rng = np.random.default_rng(22)
    s1 = math.sqrt(0.5) * rng.standard_normal(n)
    s2 = math.sqrt(0.5) * rng.standard_normal(n)
    report = squeezing_report(q1, q2, s1, s2, window=None)
    want_min = 10 * math.log10((v1 + v2 - 2 * cov) / 2.0)
    want_max = 10 * math.log10((v1 + v2 + 2 * cov) / 2.0)
    assert report["squeezing_db"] == pytest.approx(want_min, abs=0.05)
    assert report["antisqueezing_db"] == pytest.approx(want_max, abs=0.05)
    assert report["error_db"] == 0.0
    assert set(report) == {"squeezing_db", "antisqueezing_db", "error_db"}


def test_squeezing_report_windowed_error_bar():
    rng = np.random.default_rng(23)
    n = 30_000
    q1, q2 = rng.standard_normal(n), rng.standard_normal(n)
    s1, s2 = rng.standard_normal(n), rng.standard_normal(n)
    report = squeezing_report(q1, q2, s1, s2, window=2000)
    # pure vacuum in, so extrema straddle 0 dB and the error bar is positive
    assert report["squeezing_db"] < 0.0 < report["antisqueezing_db"]
    assert report["error_db"] > 0.0


def test_squeezing_report_checks_a_window_longer_than_the_reference():
    rng = np.random.default_rng(24)
    q = rng.standard_normal(100)
    s = rng.standard_normal(50)
    with pytest.raises(InvalidArgumentError):
        squeezing_report(q, q, s, s, window=80)


@pytest.mark.parametrize("window", [10_000, None])
def test_squeezing_report_memory_stays_below_seven_traces(window):
    # numpy reports its buffers to tracemalloc; a full-length window must not
    # cost whole-trace scratch beyond the rolling variance's own
    n = 475_000
    q1, q2 = correlated_pair(n, 1.0, 1.0, 0.5, seed=25)
    rng = np.random.default_rng(26)
    s1, s2 = rng.standard_normal(n), rng.standard_normal(n)
    tracemalloc.start()
    try:
        squeezing_report(q1, q2, s1, s2, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * n, peak / (8 * n)


def test_squeezing_report_length_mismatch():
    x = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(DimensionMismatchError):
        squeezing_report(x, x[:-1], x, x)


# ------------------------------------------------------- variance vs delay


def test_variance_vs_delay_oracle():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    rows = variance_vs_delay(a, b, window=64, at_index=100, delays=[-2, 0, 5])
    for d, vp, vm in rows:
        wa = a[100:164]
        wb = b[100 + d : 164 + d]
        assert vp == pytest.approx(np.var(wa + wb, ddof=1), rel=1e-12)
        assert vm == pytest.approx(np.var(wa - wb, ddof=1), rel=1e-12)


def test_variance_vs_delay_bounds_checked():
    a = np.zeros(100)
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 60, [0])
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 10, [-11])
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 10, [])


def test_dip_fwhm_triangle_is_exact():
    # V-shaped dip of half-width 6 at half level -> FWHM exactly 6
    d = np.arange(-20.0, 21.0)
    v = np.maximum(1.0 - np.abs(d) / 6.0, 0.0) * -1.0 + 1.0  # dip from 1 down to 0 at d=0
    assert dip_fwhm(d, v) == pytest.approx(6.0, abs=1e-12)


def test_dip_fwhm_gaussian():
    d = np.linspace(-30, 30, 121)
    sigma = 4.0
    v = 1.0 - 0.8 * np.exp(-0.5 * (d / sigma) ** 2)
    want = 2.0 * sigma * math.sqrt(2.0 * math.log(2.0))
    assert dip_fwhm(d, v) == pytest.approx(want, rel=0.02)


def test_dip_fwhm_rejects_unresolved():
    d = np.arange(-10.0, 11.0)
    with pytest.raises(DegenerateInputError):
        dip_fwhm(d, np.ones_like(d))
    with pytest.raises(InvalidArgumentError):
        dip_fwhm([0, 1, 2], [1, 0, 1])  # too few points
    with pytest.raises(InvalidArgumentError):
        dip_fwhm([0, 1, 1, 2, 3], [1, 0, 0, 1, 1])  # non-increasing axis


# ------------------------------------------------------------ full analysis


def test_analysis_report_on_synthetic_correlated_pair():
    n = 60_000
    ch, sh = math.cosh(2 * 0.9), math.sinh(2 * 0.9)
    x1, x2 = correlated_pair(n, ch, ch, -sh * 0.99, seed=41)
    q1, q2 = math.sqrt(0.5) * x1, math.sqrt(0.5) * x2
    rng = np.random.default_rng(42)
    s1, s2 = math.sqrt(0.5) * rng.standard_normal(n), math.sqrt(0.5) * rng.standard_normal(n)
    report = analysis_report(q1, q2, s1, s2, window=None, max_delay=4)
    assert report["optimal_delay"] == 0
    want_sq = 10 * math.log10(ch - sh * 0.99)
    assert report["squeezing_db"] == pytest.approx(want_sq, abs=0.1)
    # white (uncorrelated-in-time) input has a delta correlation: no dip width
    # is resolvable beyond one sample, but the report must still be complete
    assert set(report) >= {"squeezing_db", "antisqueezing_db", "error_db",
                           "optimal_delay", "fwhm_samples", "fwhm_ns"}


@functools.lru_cache(maxsize=1)
def _reference_raw_traces():
    """Signal and shot-noise raw samples of a short `reference` run with a
    3-sample relative delay."""
    cfg = dataclasses.replace(
        cli.scenario_synth_config(cli.load_scenario("reference"), seed=5, duration=2e-4),
        relative_delay_samples=4 * 3,
    )
    traces = (*synth.synthesize_pair(cfg), *synth.synthesize_shot_noise(cfg))
    return tuple(t.samples for t in traces), cfg.sample_rate


def _chain_report(transform):
    raw, rate = _reference_raw_traces()
    sig1, sig2, ref1, ref2 = (transform(v) for v in raw)
    stats = [shot_noise_stats(v) for v in (ref1, ref2)]
    q = [raw_to_quadratures(v, sn, rate).q for v, sn in zip((sig1, sig2, ref1, ref2), stats * 2)]
    return analysis_report(*q, window=2000, max_delay=8)


def _assert_same_report(got):
    want = _chain_report(lambda v: v)
    assert got["optimal_delay"] == want["optimal_delay"] == 3
    for key in ("squeezing_db", "antisqueezing_db", "error_db"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-9)


@settings(max_examples=5, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_chain_is_invariant_to_scaling_the_raw_traces(c):
    _assert_same_report(_chain_report(lambda v: c * v))


@settings(max_examples=5, deadline=None)
@given(offset=st.floats(-10.0, 10.0))
def test_chain_is_invariant_to_a_dc_offset_on_the_raw_traces(offset):
    _assert_same_report(_chain_report(lambda v: v + offset))
