"""Synthetic trace generator: determinism, statistics, band shape, plumbing."""

import dataclasses
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
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
    # The clearance is defined in the analysed quadrature: after the 4-sample
    # average, the white electronics noise lies 15 dB below the band-limited
    # unit shot noise, all times the configured RMS voltage.  The average
    # keeps g_band of the shot noise's variance, from the taps'
    # autocorrelation, and 1/4 of the white noise's.
    cfg = small_config(duration=4e-4, electronics_noise_db=15.0)
    taps = synth._bandpass_taps(*cfg.detector_band, cfg.sample_rate)
    r = [float(taps[: taps.size - k] @ taps[k:]) for k in range(4)]
    g_band = (4 * r[0] + 2 * (3 * r[1] + 2 * r[2] + r[3])) / 16
    assert g_band == pytest.approx(0.9662, abs=5e-5)
    assert synth._averaged_gain(*cfg.detector_band, cfg.sample_rate) == pytest.approx(g_band, rel=1e-12)

    def averaged(config):
        tr, _ = synthesize_shot_noise(config)
        return tr.samples.reshape(-1, 4).mean(axis=1) / cfg.shot_noise_volts_rms

    noisy = averaged(cfg)
    want = g_band * (1.0 + 10 ** -1.5)
    assert float(noisy.var(ddof=1)) == pytest.approx(want, rel=0.03)
    # same seed, same shot-noise draws: the difference is the electronics noise
    electronics = noisy - averaged(dataclasses.replace(cfg, electronics_noise_db=None))
    assert float(electronics.var(ddof=1)) == pytest.approx(g_band * 10 ** -1.5, rel=0.03)


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


@pytest.mark.parametrize(
    "phase",
    [
        PhaseModel(offset=0.4),
        PhaseModel(kind="drift_sinusoid", frequency=1e5, amplitude=0.6, offset=0.2),
        PhaseModel(kind="triangle_sweep", frequency=1e5, amplitude=2.0, offset=0.1),
        PhaseModel(kind="noise_injected", frequency=2e4, amplitude=0.5, offset=0.3),
        PhaseModel(kind="drift_sinusoid", frequency=1e5, amplitude=0.6, transient_jitter_rms=0.05),
    ],
    ids=["constant", "drift_sinusoid", "triangle_sweep", "noise_injected", "jittered"],
)
def test_angles_into_out_are_the_angles(phase):
    # `out`, a separate buffer or the time grid itself, holds the same bits
    # as a fresh array, and the stream is left where a fresh array leaves it
    t = np.arange(-8192, 200_000) / 5e8
    rng = np.random.default_rng(5)
    want = phase.angles(t, rng)
    assert phase.kind == "constant" or np.any(want != phase.offset)  # bursts, jitter or a sweep landed
    after = rng.random()
    grid = t.copy()
    for times, out in ((t, np.full(t.size, np.nan)), (grid, grid)):
        rng = np.random.default_rng(5)
        assert phase.angles(times, rng, out=out) is out
        assert np.array_equal(out, want)
        assert rng.random() == after
    assert phase.angles(t[:0], np.random.default_rng(5), out=np.empty(0)).size == 0


def _scipy_bandpass_taps(low_hz, high_hz, fs):
    sos = sig.butter(2, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    _, resp = sig.sosfreqz(sos, worN=freqs, fs=fs)
    gain = np.abs(resp)
    gain[0] = gain[-1] = 0.0
    taps = sig.firwin2(FILTER_TAPS, freqs, gain, fs=fs)
    return taps / math.sqrt(np.sum(taps * taps))


_BANDS = [((2.5e5, 1.5e7), 5e8), ((1e6, 4e7), 2.5e8), ((5e3, 2e5), 1e6), ((1e5, 4.9e8), 1e9)]


@pytest.mark.parametrize("band, fs", _BANDS)
def test_bandpass_taps_match_scipy_design(band, fs):
    taps = synth._bandpass_taps(band[0], band[1], fs)
    want = _scipy_bandpass_taps(band[0], band[1], fs)
    assert taps.shape == (FILTER_TAPS,)
    assert np.max(np.abs(taps - want)) <= 1e-12 * np.max(np.abs(want))


def _one_expression_taps(low_hz, high_hz, fs):
    """The taps design with its phase ramp, band response and their product
    in temporaries of their own, and the taps a view of the whole irfft."""
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    gain = np.zeros_like(freqs)
    warp = 2.0 * fs * np.tan(math.pi * freqs[1:-1] / fs)
    w_lo, w_hi = (2.0 * fs * math.tan(math.pi * f / fs) for f in (low_hz, high_hz))
    prototype = (warp * warp - w_lo * w_hi) / ((w_hi - w_lo) * warp)
    gain[1:-1] = 1.0 / np.sqrt(1.0 + prototype**4)
    grid = np.linspace(0.0, fs / 2.0, 1 + 2 ** math.ceil(math.log2(FILTER_TAPS)))
    shift = np.exp(-(FILTER_TAPS - 1) / 2.0 * 1j * math.pi * grid / (fs / 2.0))
    taps = np.fft.irfft(np.interp(grid, freqs, gain) * shift)[:FILTER_TAPS]
    taps *= np.hamming(FILTER_TAPS)
    taps /= math.sqrt(float(np.sum(taps * taps)))
    return taps


@pytest.mark.parametrize("band, fs", _BANDS)
def test_cached_taps_own_their_data_and_keep_their_bits(band, fs):
    # a view would keep the whole 65 536-point irfft alive in the cache
    taps = synth._bandpass_taps(band[0], band[1], fs)
    assert taps.base is None
    assert taps.nbytes == 8 * FILTER_TAPS
    want = _one_expression_taps(band[0], band[1], fs)
    assert taps.tobytes() == want.tobytes()
    spectrum = synth._filter_spectrum(band[0], band[1], fs)
    assert spectrum.tobytes() == np.fft.rfft(want, synth.BLOCK).tobytes()


def test_one_seed_gives_one_trace_at_any_blas_thread_count():
    # A BLAS dot product rounds by how many threads it splits the sum over;
    # g_band, which scales the electronics noise, is summed without one.
    probe = (
        "import hashlib\n"
        "import numpy as np\n"
        "from sqzkit import cli, synth\n"
        "cfg = cli.scenario_synth_config(cli.load_scenario('deployed'), seed=3, duration=2e-4)\n"
        "pair = synth.synthesize_shot_noise(cfg)\n"
        "samples = np.concatenate([trace.samples for trace in pair])\n"
        "print(hashlib.sha256(samples.astype(np.float64).tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1], digests


_STEP = synth.BLOCK - FILTER_TAPS + 1  # outputs per overlap-save block


@pytest.mark.parametrize(
    "n_out",
    [10_037, _STEP, _STEP + 1, 2 * _STEP + 777],
    ids=["shorter-than-a-block", "one-step", "one-step-plus-one", "several-blocks"],
)
def test_fft_filter_matches_direct_convolution(n_out):
    # shot noise has unit-variance channels (sd1 == 1.0), so with no
    # electronics noise channel 1 is its filtered normals times the volts
    cfg = small_config(duration=n_out / SMALL["sample_rate"], electronics_noise_db=None)
    assert cfg.n_samples == n_out
    x = synth._rng(cfg.rng_seed, synth._FAMILY_SHOT, synth._STREAM_G1).standard_normal(
        n_out + FILTER_TAPS - 1
    )
    want = np.convolve(x, synth._bandpass_taps(*cfg.detector_band, cfg.sample_rate), "valid")
    want *= cfg.shot_noise_volts_rms
    got = synthesize_shot_noise(cfg)[0].samples
    assert got.shape == want.shape == (n_out,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# phase_c of the whole-grid oracles: a drift, and the kinds the bundled
# scenarios use (`deployed` and `spools5km` hold both phases constant;
# `reference` sweeps phase_c with a triangle and holds phase_b)
_PHASES_C = {
    "drift_sinusoid": PhaseModel(kind="drift_sinusoid", frequency=3e4, amplitude=0.3),
    "constant": PhaseModel(offset=1.2),
    "triangle_sweep": PhaseModel(kind="triangle_sweep", frequency=1e5, amplitude=3.0, offset=1.5),
}


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


@pytest.mark.parametrize("n", [1000, synth.BLOCK, 2 * synth.BLOCK + 4321])
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
    for name, phase_c in _PHASES_C.items():
        cfg = small_config(
            duration=n / SMALL["sample_rate"], detector_band=None, electronics_noise_db=None,
            phase_b=phase_b, phase_c=phase_c,
        )
        assert cfg.n_samples == n
        got = _samples(synthesize_pair(cfg))
        want = _whole_array_mixing(cfg)
        assert all(np.array_equal(u, v) for u, v in zip(got, want)), name


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
    # each channel on the other thread: the blocks of channel 1's normals
    # then pass from the second thread to the first
    base = cli.scenario_synth_config(cli.load_scenario(scenario))
    variants = [
        dict(),
        dict(detector_band=None),
        dict(electronics_noise_db=None),
    ]
    for kw in variants:
        cfg = dataclasses.replace(base, duration=2e-4, relative_delay_samples=delay, rng_seed=3, **kw)
        for fn in (synthesize_pair, synthesize_shot_noise):
            threaded = _samples(fn(cfg))
            again = _samples(fn(cfg))
            with monkeypatch.context() as m:
                run_both = _kernels.run_both
                m.setattr(
                    _kernels, "run_both", lambda first, second, stop: run_both(second, first, stop)[::-1]
                )
                swapped = _samples(fn(cfg))
            for got in (again, swapped):
                assert all(np.array_equal(u, v) for u, v in zip(threaded, got)), (kw, fn.__name__)
            assert all(u.shape == (cfg.n_samples,) for u in threaded)


def _whole_grid(config, family):
    """Both channels' volts as synthesis made them before it streamed: each
    step over the whole extended grid at once, in the order of operations
    of `synth._synthesize`."""
    n, fs, delay, band, seed = (
        config.n_samples, config.sample_rate, config.relative_delay_samples,
        config.detector_band, config.rng_seed,
    )
    pad = FILTER_TAPS - 1 if band is not None else 0
    n_ext = n + abs(delay) + pad
    g1 = synth._rng(seed, family, synth._STREAM_G1).standard_normal(n_ext)
    g2 = synth._rng(seed, family, synth._STREAM_G2).standard_normal(n_ext)
    v1, v2, cross = lossy_tmsv_moments(config.r, config.t_b, config.t_c)
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    if cross == 0.0:
        x2 = g2 * sd2
    else:
        t = (np.arange(n_ext) - pad // 2) / fs
        theta = config.phase_b.angles(t, synth._rng(seed, family, synth._STREAM_PHASE_B))
        theta += config.phase_c.angles(t, synth._rng(seed, family, synth._STREAM_PHASE_C))
        cov = np.cos(theta) * cross
        x2 = g2 * np.sqrt(np.maximum(v2 - cov * cov / v1, 0.0)) + cov / sd1 * g1
    x1 = g1 * sd1
    out = []
    channels = ((x1, max(delay, 0), synth._STREAM_ELEC1), (x2, max(-delay, 0), synth._STREAM_ELEC2))
    for x, start, stream in channels:
        if band is not None:  # overlap-save, in the FFT blocks synthesis uses
            spectrum = synth._filter_spectrum(band[0], band[1], fs)
            valid = np.empty(x.size - pad)
            for j in range(0, valid.size, _STEP):
                k = min(_STEP, valid.size - j)
                block = np.fft.irfft(np.fft.rfft(x[j : j + synth.BLOCK], synth.BLOCK) * spectrum, synth.BLOCK)
                valid[j : j + k] = block[pad : pad + k]
            x = valid
        x = x[start : start + n]
        if config.electronics_noise_db is not None:
            sigma = 10.0 ** (-config.electronics_noise_db / 20.0)
            if band is not None:  # the clearance holds after the 4-sample average
                sigma *= math.sqrt(synth._averaged_gain(band[0], band[1], fs) * 4)
            x = x + synth._rng(seed, family, stream).standard_normal(n) * sigma
        out.append(x * config.shot_noise_volts_rms)
    return out


@pytest.mark.parametrize(
    "n", [10_037, _STEP, 2 * _STEP + 777], ids=["below-one-block", "one-step", "ragged-tail"]
)
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
def test_streamed_synthesis_is_the_whole_grid_synthesis(phase_b, n):
    # every sample of the block-streamed pair is the whole-grid one, bit for
    # bit; "one-step" is one block's outputs at delay 0 with the band
    cases = [
        (-7, dict()),
        (0, dict()),
        (12, dict()),
        (12, dict(detector_band=None)),
        (-7, dict(electronics_noise_db=None)),
        (0, dict(detector_band=None, electronics_noise_db=None)),
    ]
    for (delay, kw), (name, phase_c) in itertools.product(cases, _PHASES_C.items()):
        cfg = small_config(
            duration=n / SMALL["sample_rate"], relative_delay_samples=delay, phase_b=phase_b,
            phase_c=phase_c, **kw,
        )
        assert cfg.n_samples == n
        draws = [(synthesize_pair, synth._FAMILY_SIGNAL, cfg)]
        if phase_b.kind == "constant" and not phase_b.transient_jitter_rms and name == "constant":
            blocked = dataclasses.replace(cfg, r=0.0, relative_delay_samples=0)
            draws.append((synthesize_shot_noise, synth._FAMILY_SHOT, blocked))
        for fn, family, want_cfg in draws:
            got = _samples(fn(cfg))
            want = _whole_grid(want_cfg, family)
            assert all(np.array_equal(u, v) for u, v in zip(got, want)), (delay, kw, name, fn.__name__)


def test_concurrent_pairs_under_a_short_switch_interval():
    # four callers, each pair on two threads, eight threads on fewer cores:
    # a block lost, or mixed with the wrong slot, would change a sample
    cfg = small_config(duration=3e-4, relative_delay_samples=5)
    want = _samples(synthesize_pair(cfg))
    results = []

    def client():
        for _ in range(3):
            results.append(_samples(synthesize_pair(cfg)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert len(results) == 12
    assert all(np.array_equal(u, v) for got in results for u, v in zip(got, want))


def test_electronics_noise_chunks_match_one_normal_draw():
    # drawn a block at a time, the electronics noise is the one draw
    # normal(0, sigma, n) over the whole trace
    cfg = small_config(duration=(2 * synth.BLOCK + 17) / SMALL["sample_rate"], detector_band=None)
    n, sigma = cfg.n_samples, 10.0 ** (-cfg.electronics_noise_db / 20.0)
    x = synth._rng(cfg.rng_seed, synth._FAMILY_SHOT, synth._STREAM_G1).standard_normal(n)
    noise = synth._rng(cfg.rng_seed, synth._FAMILY_SHOT, synth._STREAM_ELEC1).normal(0.0, sigma, n)
    want = (x + noise) * cfg.shot_noise_volts_rms
    assert np.array_equal(synthesize_shot_noise(cfg)[0].samples, want)


def test_synthesis_peak_memory_stays_below_three_and_a_half_traces():
    # The two channels' n-sample outputs, the filter's design and block-sized
    # scratch: about 2.4 extended-grid traces on this input.
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
    assert peak < 3.5 * 8 * n_ext, peak / (8 * n_ext)


def test_synthesis_builds_no_monitor():
    # With the filter's caches warm, a pair is its two n-sample outputs and
    # block-sized scratch: about 2.3 extended-grid traces on this input.  An
    # n-sample monitor built per call brought it to 3.0.
    cfg = cli.scenario_synth_config(cli.load_scenario("reference"))
    n_ext = cfg.n_samples + FILTER_TAPS - 1
    synthesize_pair(cfg)  # fills the filter's caches
    tracemalloc.start()
    try:
        synthesize_pair(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n_ext, peak / (8 * n_ext)


def test_monitor_is_shared_and_read_only():
    cfg = small_config()
    signal_trace, _ = synthesize_pair(cfg)
    shot_trace, _ = synthesize_shot_noise(cfg)
    assert signal_trace.monitor is shot_trace.monitor
    assert not signal_trace.monitor.flags.writeable
    assert signal_trace.monitor.shape == (cfg.n_samples,)


@pytest.mark.parametrize("scenario", ["reference", "deployed", "spools5km"])
def test_mixing_allocates_nothing_per_block(scenario):
    # Channel 2's mixing fills buffers the calling thread allocates once:
    # the two slots of two blocks and the block's sample offsets; its cov
    # block is its spent spectrum.  Steady phases (deployed, spools5km) take
    # one pair of factors for every block, so their slots hold only the two
    # terms.  Per-block temporaries, several block buffers on each thread,
    # would show in the peak.  The shot noise does
    # not mix: each channel holds its filter's input, which the inverse FFT
    # overwrites, the input it carries to the next block and the spectrum,
    # which takes the electronics noise, and nothing more; an output or a
    # noise buffer of their own would add a block each.
    cfg = dataclasses.replace(cli.scenario_synth_config(cli.load_scenario(scenario)), duration=1e-3)
    block = 8 * synth.BLOCK  # bytes of one block buffer
    carry = 8 * (FILTER_TAPS - 1)

    def peak(stream):
        stream(cfg, lambda b: None, lambda b: None)  # fills the filter's caches
        tracemalloc.start()
        try:
            stream(cfg, lambda b: None, lambda b: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shot = peak(synth.stream_shot_noise)
    assert shot < 2 * (2 * block + carry) + 64 * 1024, shot / 2**20  # 2.27 MiB
    mixing = peak(synth.stream_pair) - shot
    if scenario == "reference":  # a swept phase: four slot arrays and iota, 2.5 MiB
        assert mixing < 6 * block, mixing / block
    else:  # two terms, 1.0 MiB
        assert mixing < 2.5 * block, mixing / block


def test_steady_phases_are_evaluated_once_whatever_the_blocks(monkeypatch):
    # both phases constant, without jitter: one pair of factors, computed
    # from one evaluation of each phase, serves every block
    calls = []
    angles = synth.PhaseModel.angles

    def counted(self, t, rng, out=None):
        calls.append(t.size)
        return angles(self, t, rng, out=out)

    monkeypatch.setattr(synth.PhaseModel, "angles", counted)
    scenario = cli.load_scenario("deployed")
    for duration in (2e-4, 1e-3):  # 2 and 11 blocks
        calls.clear()
        cfg = cli.scenario_synth_config(scenario, duration=duration)
        synth.stream_pair(cfg, lambda b: None, lambda b: None)
        assert calls == [1, 1], (duration, calls)


@pytest.mark.parametrize("stream", [synth.stream_pair, synth.stream_shot_noise])
def test_no_sink_runs_on_the_calling_thread(stream):
    cfg = small_config(duration=3e-4, relative_delay_samples=5)
    ran = {1: set(), 2: set()}

    def sink_for(k):
        return lambda volts: ran[k].add(threading.get_ident())

    stream(cfg, sink_for(1), sink_for(2))
    assert ran[1] and ran[2]
    assert threading.get_ident() not in ran[1] | ran[2]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
def test_an_interrupt_stops_synthesis_within_a_block():
    # Ctrl-C 0.1 s into a shot-noise pair of 100 M samples a channel, which
    # takes seconds: each channel looks at the stop flag at the top of every
    # block, so the interrupt is re-raised about one block later, and both
    # channel threads have ended by then.
    assert threading.current_thread() is threading.main_thread()
    cfg = cli.scenario_synth_config(cli.load_scenario("deployed"), duration=0.2)
    synth._filter_spectrum(*cfg.detector_band, cfg.sample_rate)  # design the filter first
    threads = threading.active_count()
    blocks = []
    ctrl_c = threading.Timer(0.1, signal.pthread_kill, (threading.get_ident(), signal.SIGINT))
    start = time.perf_counter()
    ctrl_c.start()
    with pytest.raises(KeyboardInterrupt):
        synth.stream_shot_noise(cfg, blocks.append, lambda volts: None)
    elapsed = time.perf_counter() - start
    ctrl_c.join(timeout=60)
    assert elapsed < 1.0, elapsed
    assert 0 < len(blocks) < cfg.n_samples // _STEP
    assert threading.active_count() == threads


def test_the_calling_thread_takes_few_page_faults():
    # numpy's FFT takes its scratch from malloc on every call; a channel on
    # the calling thread would fault it in again on every block (about
    # 18 000 minor faults here), a channel on a thread of its own does not.
    # A fresh process, as `simulate` runs it: a heap that other tests left
    # behind can hide the faults.
    if not hasattr(pytest.importorskip("resource"), "RUSAGE_THREAD"):
        pytest.skip("no per-thread rusage")
    probe = (
        "import resource\n"
        "from sqzkit import cli, synth\n"
        "cfg = cli.scenario_synth_config(cli.load_scenario('deployed'), duration=4e-3)\n"
        "sinks = (lambda volts: None, lambda volts: None)\n"
        "synth.stream_shot_noise(cfg, *sinks)\n"  # fills the filter's caches
        "before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt\n"
        "synth.stream_shot_noise(cfg, *sinks)\n"
        "print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    faults = int(out.stdout)
    assert faults < 2_000, faults
