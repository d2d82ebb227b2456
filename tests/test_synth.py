"""Synthetic trace generator: determinism, statistics, band shape, plumbing."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sig

from sqzkit import _kernels, cli, synth
from sqzkit.errors import InvalidArgumentError
from sqzkit.gaussian import lossy_tmsv_moments
from sqzkit.synth import (
    FILTER_TAPS,
    PhaseModel,
    SynthConfig,
    synthesize_pair,
    synthesize_shot_noise,
)

SMALL = dict(sample_rate=5e8, duration=5e-5, rng_seed=9)


def small_config(**kw):
    base = dict(r=0.9, t_b=0.31, t_c=0.26, **SMALL)
    base.update(kw)
    return SynthConfig(**base)


def test_same_seed_same_traces():
    a1, a2 = synthesize_pair(small_config())
    b1, b2 = synthesize_pair(small_config())
    assert np.array_equal(a1.samples, b1.samples)
    assert np.array_equal(a2.samples, b2.samples)


def test_different_seed_different_traces():
    a1, _ = synthesize_pair(small_config())
    b1, _ = synthesize_pair(small_config(rng_seed=10))
    assert not np.array_equal(a1.samples, b1.samples)


def test_shot_noise_family_is_independent_of_signal():
    sig1, _ = synthesize_pair(small_config())
    ref1, _ = synthesize_shot_noise(small_config())
    assert sig1.samples.shape == ref1.samples.shape
    assert not np.array_equal(sig1.samples, ref1.samples)
    # and the reference really is vacuum-scale: no squeezing correlations
    r1, r2 = synthesize_shot_noise(small_config())
    c = np.corrcoef(r1.samples, r2.samples)[0, 1]
    assert abs(c) < 0.05


def test_trigger_pulse_placement():
    cfg = small_config()
    tr, _ = synthesize_pair(cfg)
    n = cfg.n_samples
    width = round(synth.TRIGGER_WIDTH_S * cfg.sample_rate)
    assert width == 10
    assert np.all(tr.monitor[n // 2 : n // 2 + width] == synth.TRIGGER_VOLTS)
    assert np.count_nonzero(tr.monitor) == width
    assert np.all(tr.samples != 0)  # signal channel carries no pulse


def test_shot_noise_variance_scale():
    # filtered unit-variance shot noise + white electronics at -15 dB,
    # all times the configured RMS voltage
    cfg = small_config(duration=4e-4, electronics_noise_db=15.0)
    tr, _ = synthesize_shot_noise(cfg)
    want = cfg.shot_noise_volts_rms**2 * (1.0 + 10 ** -1.5)
    assert float(tr.samples.var(ddof=1)) == pytest.approx(want, rel=0.03)


def test_no_electronics_noise_option():
    cfg = small_config(electronics_noise_db=None, duration=4e-4)
    tr, _ = synthesize_shot_noise(cfg)
    want = cfg.shot_noise_volts_rms**2
    assert float(tr.samples.var(ddof=1)) == pytest.approx(want, rel=0.03)


def test_relative_delay_shifts_channel_two_without_wrap():
    # strongly anti-correlated white channels, so any pairing shows in corr
    for d in (1000, -1000):
        cfg = small_config(
            r=1.5, t_b=1.0, t_c=1.0, detector_band=None, electronics_noise_db=None,
            relative_delay_samples=d,
        )
        a, b = synthesize_pair(cfg)
        n = a.samples.size
        lagged = np.roll(a.samples, d)  # channel 1 at i - d, wrapping at the ends
        head = slice(0, d) if d > 0 else slice(n + d, n)  # where a roll would wrap
        body = slice(d, n) if d > 0 else slice(0, n + d)
        assert abs(np.corrcoef(b.samples[head], lagged[head])[0, 1]) < 0.2
        assert np.corrcoef(b.samples[body], lagged[body])[0, 1] < -0.9


def test_band_limiting_shapes_the_spectrum():
    cfg = small_config(duration=2e-4)
    tr, _ = synthesize_shot_noise(cfg)
    f, psd = sig.welch(tr.samples, fs=cfg.sample_rate, nperseg=8192)
    inband = psd[(f > 1e6) & (f < 1e7)].mean()
    low = psd[(f > 0) & (f < 1e5)].mean()
    high = psd[f > 5e7].mean()
    # out-of-band is electronics noise only: ~15 dB below the in-band level,
    # spread over the full Nyquist range rather than the 15-MHz band
    assert inband / low > 10.0
    assert inband / high > 10.0


def test_unfiltered_config_is_white():
    cfg = small_config(detector_band=None, duration=2e-4)
    tr, _ = synthesize_shot_noise(cfg)
    f, psd = sig.welch(tr.samples, fs=cfg.sample_rate, nperseg=4096)
    assert psd[(f > 1e8)].mean() == pytest.approx(psd[(f > 0) & (f < 1e7)].mean(), rel=0.2)


def test_correlation_sign_follows_phase_sum():
    # theta_b + theta_c = 0 -> positive cross-covariance: difference squeezed
    cfg = small_config(
        duration=4e-4,
        phase_b=PhaseModel(offset=0.0),
        phase_c=PhaseModel(offset=0.0),
        electronics_noise_db=None,
    )
    a, b = synthesize_pair(cfg)
    v_diff = np.var(a.samples - b.samples, ddof=1)
    v_sum = np.var(a.samples + b.samples, ddof=1)
    assert v_diff < v_sum
    # and at pi the roles flip
    cfg2 = small_config(
        duration=4e-4,
        phase_b=PhaseModel(offset=math.pi / 2),
        phase_c=PhaseModel(offset=math.pi / 2),
        electronics_noise_db=None,
    )
    a2, b2 = synthesize_pair(cfg2)
    assert np.var(a2.samples + b2.samples, ddof=1) < np.var(a2.samples - b2.samples, ddof=1)


def test_phase_models():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 0.01, 2001)
    const = PhaseModel(offset=1.0).angles(t, rng)
    assert np.all(const == 1.0)

    tri = PhaseModel(kind="triangle_sweep", frequency=125.0, amplitude=2.0, offset=0.5)
    ang = tri.angles(t, rng)
    assert ang.min() >= 0.5 - 2.0 - 1e-9
    assert ang.max() <= 0.5 + 2.0 + 1e-9
    assert ang.max() - ang.min() > 3.0  # actually sweeps

    sin = PhaseModel(kind="drift_sinusoid", frequency=100.0, amplitude=0.3, offset=2.0)
    ang = sin.angles(t, rng)
    assert ang[0] == pytest.approx(2.0)  # sine starts at zero phase
    assert ang.max() == pytest.approx(2.3, abs=1e-3)

    jit = PhaseModel(offset=1.0, transient_jitter_rms=0.01).angles(t, rng)
    assert np.std(jit) == pytest.approx(0.01, rel=0.2)

    bursty = PhaseModel(kind="noise_injected", frequency=2000.0, amplitude=0.5, offset=0.0)
    ang = bursty.angles(t, np.random.default_rng(3))
    assert np.any(ang != 0.0)  # some bursts landed
    assert np.abs(ang).max() <= 0.5 + 1e-9 or np.median(ang) == 0.0


def test_triangle_sweep_matches_scipy_sawtooth():
    t = np.linspace(-0.02, 0.03, 40001)  # several periods on both sides of t = 0
    tri = PhaseModel(kind="triangle_sweep", frequency=125.0, amplitude=1.0)
    want = sig.sawtooth(2.0 * math.pi * 125.0 * t, width=0.5)
    np.testing.assert_allclose(tri.angles(t, None), want, rtol=0, atol=1e-12)


def _scipy_bandpass_taps(low_hz, high_hz, fs):
    sos = sig.butter(2, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    _, resp = sig.sosfreqz(sos, worN=freqs, fs=fs)
    gain = np.abs(resp)
    gain[0] = gain[-1] = 0.0
    taps = sig.firwin2(FILTER_TAPS, freqs, gain, fs=fs)
    return taps / math.sqrt(np.sum(taps * taps))


@pytest.mark.parametrize(
    "band, fs",
    [((2.5e5, 1.5e7), 5e8), ((1e6, 4e7), 2.5e8), ((5e3, 2e5), 1e6), ((1e5, 4.9e8), 1e9)],
)
def test_bandpass_taps_match_scipy_design(band, fs):
    taps = synth._bandpass_taps(band[0], band[1], fs)
    want = _scipy_bandpass_taps(band[0], band[1], fs)
    assert taps.shape == (FILTER_TAPS,)
    assert np.max(np.abs(taps - want)) <= 1e-12 * np.max(np.abs(want))


_STEP = synth.BLOCK - FILTER_TAPS + 1  # outputs per overlap-save block


@pytest.mark.parametrize(
    "n_out",
    [10_037, _STEP, _STEP + 1, 2 * _STEP + 777],
    ids=["shorter-than-a-block", "one-step", "one-step-plus-one", "several-blocks"],
)
def test_fft_filter_matches_direct_convolution(n_out):
    cfg = small_config()
    x = np.random.default_rng(4).standard_normal(n_out + FILTER_TAPS - 1)
    want = np.convolve(x, synth._bandpass_taps(*cfg.detector_band, cfg.sample_rate), "valid")
    spectrum = synth._filter_spectrum(*cfg.detector_band, cfg.sample_rate)
    buf, work = np.empty(synth.BLOCK), np.empty(synth.BLOCK // 2 + 1, dtype=complex)
    got = synth._filter_valid(x, spectrum, buf, work)
    assert got.shape == want.shape == (n_out,)
    assert np.shares_memory(got, x)  # filtered in place
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _whole_array_mixing(cfg):
    """Both channels' samples with no band and no electronics noise, mixed
    over the whole grid at once in the order `synth` mixes each chunk."""
    seed, n = cfg.rng_seed, cfg.n_samples
    g1 = synth._rng(seed, synth._FAMILY_SIGNAL, synth._STREAM_G1).standard_normal(n)
    g2 = synth._rng(seed, synth._FAMILY_SIGNAL, synth._STREAM_G2).standard_normal(n)
    v1, v2, cross = lossy_tmsv_moments(cfg.r, cfg.t_b, cfg.t_c)
    t = np.arange(n) / cfg.sample_rate
    theta = cfg.phase_b.angles(t, synth._rng(seed, synth._FAMILY_SIGNAL, synth._STREAM_PHASE_B))
    theta = theta + cfg.phase_c.angles(t, synth._rng(seed, synth._FAMILY_SIGNAL, synth._STREAM_PHASE_C))
    cov = np.cos(theta) * cross
    sd1 = math.sqrt(v1)
    x2 = np.sqrt(np.maximum(v2 - cov * cov / v1, 0.0)) * g2 + cov / sd1 * g1
    return g1 * sd1 * cfg.shot_noise_volts_rms, x2 * cfg.shot_noise_volts_rms


@pytest.mark.parametrize("n", [1000, synth._CHUNK, 2 * synth._CHUNK + 4321])
@pytest.mark.parametrize(
    "phase_b",
    [
        PhaseModel(offset=0.4),
        PhaseModel(kind="drift_sinusoid", frequency=1e5, amplitude=0.6, offset=0.2),
        PhaseModel(kind="triangle_sweep", frequency=1e5, amplitude=2.0, offset=0.1),
        PhaseModel(kind="noise_injected", frequency=2e4, amplitude=0.5, offset=0.3),
        PhaseModel(offset=0.4, transient_jitter_rms=0.05),
    ],
    ids=["constant", "drift_sinusoid", "triangle_sweep", "noise_injected", "jittered"],
)
def test_chunked_two_thread_mixing_is_the_whole_array_mixing(phase_b, n):
    cfg = small_config(
        duration=n / SMALL["sample_rate"], detector_band=None, electronics_noise_db=None,
        phase_b=phase_b, phase_c=PhaseModel(kind="drift_sinusoid", frequency=3e4, amplitude=0.3),
    )
    assert cfg.n_samples == n
    got = _samples(synthesize_pair(cfg))
    want = _whole_array_mixing(cfg)
    assert all(np.array_equal(u, v) for u, v in zip(got, want))


@pytest.mark.parametrize("kind", ["constant", "noise_injected"])
def test_phases_are_not_drawn_without_a_cross_term(kind):
    # shot noise and an r = 0 pair have cross == 0: channel 2 is its own
    # noise, so a phase model that draws (jitter, noise injection) changes
    # no sample
    jittered = PhaseModel(kind=kind, frequency=2e4, amplitude=0.5, offset=0.4, transient_jitter_rms=0.05)
    for fn, r in ((synthesize_shot_noise, 0.9), (synthesize_pair, 0.0)):
        plain = _samples(fn(small_config(r=r)))
        got = _samples(fn(small_config(r=r, phase_b=jittered, phase_c=jittered)))
        assert all(np.array_equal(u, v) for u, v in zip(got, plain)), (fn.__name__, kind)


def test_phase_model_validation():
    with pytest.raises(InvalidArgumentError):
        PhaseModel(kind="square_wave")
    with pytest.raises(InvalidArgumentError):
        PhaseModel(frequency=-1.0)
    with pytest.raises(InvalidArgumentError):
        PhaseModel(amplitude=math.inf)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        small_config(r=-0.1)
    with pytest.raises(InvalidArgumentError):
        small_config(t_b=1.2)
    with pytest.raises(InvalidArgumentError):
        small_config(detector_band=(1e7, 1e6))
    with pytest.raises(InvalidArgumentError):
        small_config(detector_band=(1e6, 3e8))  # beyond Nyquist
    with pytest.raises(InvalidArgumentError):
        small_config(rng_seed=-1)
    with pytest.raises(InvalidArgumentError):
        small_config(duration=1e-9)
    with pytest.raises(InvalidArgumentError):
        small_config(electronics_noise_db=0.0)
    with pytest.raises(InvalidArgumentError):
        small_config(detector_band=(1e6,))
    with pytest.raises(InvalidArgumentError):
        small_config(relative_delay_samples=1.5)
    for kw in (
        dict(sample_rate=math.inf, detector_band=None),
        dict(duration=math.inf),
        dict(sample_rate=1e200, duration=1e200, detector_band=None),  # n_samples overflows
        dict(shot_noise_volts_rms=math.nan),
        dict(electronics_noise_db=math.inf),
    ):
        with pytest.raises(InvalidArgumentError):
            small_config(**kw)
    with pytest.raises(InvalidArgumentError):
        PhaseModel(frequency=math.nan)


def test_config_dict_round_trip():
    # t_b = t_c = 1 is what an empty budget without electronics noise gives
    cfg = small_config(
        t_b=1.0,
        t_c=1.0,
        phase_c=PhaseModel(kind="triangle_sweep", frequency=125.0, amplitude=3.0, offset=0.1),
        relative_delay_samples=-4,
        electronics_noise_db=None,
    )
    synthesis = json.loads(json.dumps(dataclasses.asdict(cfg)))
    r = synthesis.pop("r")
    del synthesis["t_b"], synthesis["t_c"], synthesis["electronics_noise_db"]
    doc = {"name": "round trip", "source": {"r": r}, "budget": {}, "synthesis": synthesis}
    assert cli.scenario_synth_config(doc) == cfg


def _samples(traces):
    return [t.samples for t in traces]


@pytest.mark.parametrize("delay", [0, 12, -36])
@pytest.mark.parametrize("scenario", ["reference", "spools5km", "deployed"])
def test_two_threads_change_no_bit(scenario, delay, monkeypatch):
    base = cli.scenario_synth_config(cli.load_scenario(scenario))
    variants = [
        dict(),
        dict(detector_band=None),
        dict(electronics_noise_db=None),
    ]
    for kw in variants:
        cfg = dataclasses.replace(base, duration=2e-5, relative_delay_samples=delay, rng_seed=3, **kw)
        for fn in (synthesize_pair, synthesize_shot_noise):
            threaded = _samples(fn(cfg))
            again = _samples(fn(cfg))
            with monkeypatch.context() as m:
                m.setattr(_kernels, "run_both", lambda first, second: (first(), second()))
                alone = _samples(fn(cfg))
            for got in (again, alone):
                assert all(np.array_equal(u, v) for u, v in zip(threaded, got)), (kw, fn.__name__)
            assert all(u.shape == (cfg.n_samples,) for u in threaded)


def test_electronics_noise_chunks_match_one_normal_draw():
    x = np.linspace(-1.0, 1.0, 2 * synth._CHUNK + 17)
    want = x + synth._rng(5, 0, 2).normal(0.0, 0.2, x.size)
    got = x.copy()
    synth._add_scaled_normals(got, synth._rng(5, 0, 2), 0.2, np.empty(synth._CHUNK))
    assert np.array_equal(got, want)


def test_synthesis_peak_memory_stays_below_four_traces():
    # Both channels are filtered in place in their extended-grid buffers,
    # with block-sized filter scratch and chunk-sized mixing scratch; the
    # traced peak is about 3.2 extended-grid traces on this input (the
    # two channels and the monitor).
    cfg = cli.scenario_synth_config(cli.load_scenario("reference"))
    n_ext = cfg.n_samples + FILTER_TAPS - 1
    synth._filter_spectrum.cache_clear()
    tracemalloc.start()
    try:
        traces = synthesize_pair(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traces[0].samples.shape == (cfg.n_samples,)
    assert peak < 4 * 8 * n_ext, peak / (8 * n_ext)
