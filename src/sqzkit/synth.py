"""Synthetic dual-detector homodyne traces for a lossy two-mode squeezed state.

Generates what a two-channel oscilloscope would record: band-limited
correlated noise on two balanced detectors, white electronics noise,
a trigger pulse on a monitor channel, and an optional sample offset between
the channels.  Per-sample statistics follow the Gaussian model in
`tmsv.lossy_tmsv_moments`; the detection band is imposed with a
linear-phase FIR filter so the two channels stay sample-aligned.

Everything is reproducible: one integer seed, expanded through named
counter-based streams, so individual noise sources can be regenerated
independently of each other.

A draw runs in three steps, each split over the two threads of
`_kernels.run_both`: the two channels' normal draws; the Cholesky mixing of
channel 2 (and the phase angles it needs), by halves of the grid, 65 536
samples at a time; then each channel's band filter and electronics noise.
The filter is overlap-save convolution (Stockham, AFIPS SJCC 1966) in
fixed `BLOCK`-point FFTs that fit in cache, done in place in the channel's
own buffer.  Phase models that draw from a random stream get their angles
for the whole grid on the calling thread first, so the draw order, and so
every sample, does not depend on the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .settings import PHASE_KINDS, PhaseModel, SynthConfig  # re-exported
from .tmsv import lossy_tmsv_moments

#: Length of the linear-phase band-pass FIR (odd => integer group delay).
FILTER_TAPS = 16385

#: FFT length of one overlap-save block of the band filter; each block
#: yields BLOCK - FILTER_TAPS + 1 output samples.
BLOCK = 65_536

# Stream numbering for the counter-based RNG: families separate statistically
# independent trace draws, streams separate noise sources within one draw.
_FAMILY_SIGNAL = 0
_FAMILY_SHOT = 1
_STREAM_G1 = 0
_STREAM_G2 = 1
_STREAM_ELEC1 = 2
_STREAM_ELEC2 = 3
_STREAM_PHASE_B = 4
_STREAM_PHASE_C = 5

#: Channel mixing runs, and electronics noise is drawn, this many samples
#: at a time.
_CHUNK = 65_536

#: Width and height of the monitor channel's trigger pulse, which starts at
#: the middle sample of every acquisition.
TRIGGER_WIDTH_S = 2e-8
TRIGGER_VOLTS = 2.0


def _rng(seed: int, family: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, family, stream))))


@dataclass(frozen=True)
class RawTrace:
    """One synthesized scope channel plus its trigger monitor."""

    samples: np.ndarray
    sample_rate: float
    monitor: np.ndarray
    meta: dict

    def __post_init__(self):
        for name in ("samples", "monitor"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@lru_cache(maxsize=8)
def _bandpass_taps(low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    """Linear-phase FIR matching a 2nd-order Butterworth band-pass magnitude.

    The magnitude of the bilinear-transform Butterworth design (prewarped
    band edges) is sampled on a dense grid in closed form and turned into
    taps by frequency sampling with a Hamming window, as firwin2 does; taps
    are normalized to unit noise power gain (sum h^2 = 1) so white
    unit-variance input keeps unit variance.
    """
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    gain = np.zeros_like(freqs)  # both ends stay zero: DC and Nyquist are blocked
    warp = 2.0 * fs * np.tan(math.pi * freqs[1:-1] / fs)
    w_lo, w_hi = (2.0 * fs * math.tan(math.pi * f / fs) for f in (low_hz, high_hz))
    prototype = (warp * warp - w_lo * w_hi) / ((w_hi - w_lo) * warp)
    gain[1:-1] = 1.0 / np.sqrt(1.0 + prototype**4)

    nfreqs = 1 + 2 ** math.ceil(math.log2(FILTER_TAPS))
    grid = np.linspace(0.0, fs / 2.0, nfreqs)
    shift = np.exp(-(FILTER_TAPS - 1) / 2.0 * 1j * math.pi * grid / (fs / 2.0))
    taps = np.fft.irfft(np.interp(grid, freqs, gain) * shift)[:FILTER_TAPS]
    taps *= np.hamming(FILTER_TAPS)
    taps /= math.sqrt(float(np.sum(taps * taps)))
    taps.setflags(write=False)
    return taps


@lru_cache(maxsize=4)
def _filter_spectrum(low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    spectrum = np.fft.rfft(_bandpass_taps(low_hz, high_hz, fs), BLOCK)
    spectrum.setflags(write=False)
    return spectrum


def _filter_valid(x: np.ndarray, spectrum: np.ndarray, buf: np.ndarray, work: np.ndarray) -> np.ndarray:
    """'valid' part of the convolution of x with the band-pass taps,
    filtered in place by overlap-save; returns the output, x[:x.size -
    FILTER_TAPS + 1].

    `spectrum` is `_filter_spectrum`; `buf` (BLOCK floats) and `work`
    (BLOCK // 2 + 1 complex) are scratch.  Each block transforms
    x[j : j + BLOCK], zero-padded past the end of x; its circular outputs
    [FILTER_TAPS - 1, BLOCK) never wrap, so they are the linear outputs
    j onwards.  Output j reads only x[j : j + FILTER_TAPS], so writing it
    into x[j] leaves every input a later block reads untouched.
    """
    step = BLOCK - FILTER_TAPS + 1
    n_out = x.size - FILTER_TAPS + 1
    for j in range(0, n_out, step):
        k = min(step, n_out - j)
        np.fft.rfft(x[j : j + BLOCK], BLOCK, out=work)
        work *= spectrum
        np.fft.irfft(work, BLOCK, out=buf)
        x[j : j + k] = buf[FILTER_TAPS - 1 : FILTER_TAPS - 1 + k]
    return x[:n_out]


def _add_scaled_normals(x: np.ndarray, rng: np.random.Generator, sigma: float, chunk: np.ndarray) -> None:
    """x += sigma * standard normals, drawn one `chunk` at a time; the same
    samples as ``x + rng.normal(0, sigma, x.size)``."""
    for i in range(0, x.size, chunk.size):
        part = chunk[: x.size - i]
        rng.standard_normal(out=part)
        part *= sigma
        x[i : i + part.size] += part


def _draws(phase: PhaseModel) -> bool:
    """Whether `phase.angles` draws from its random stream."""
    return phase.kind == "noise_injected" or phase.transient_jitter_rms > 0


def _synthesize(config: SynthConfig, family: int) -> tuple[RawTrace, RawTrace]:
    n = config.n_samples
    fs = config.sample_rate
    delay = config.relative_delay_samples
    band = config.detector_band
    # Extended grid so 'valid' convolution lands on exactly n + |delay|
    # samples, from which each channel takes its own n-sample window.
    pad = FILTER_TAPS - 1 if band is not None else 0
    n_ext = n + abs(delay) + pad

    # Each channel lives in one n_ext-sample buffer from its draw to its
    # volts, and is filtered in place.  The channels are independent streams,
    # so their draws, and later their filters and electronics noise, run on
    # two threads; the mixing in between splits the grid in two halves.
    # Every buffer is allocated here, on the calling thread (see `_kernels`).
    x1, x2 = np.empty(n_ext), np.empty(n_ext)
    seed = config.rng_seed
    _kernels.run_both(
        lambda: _rng(seed, family, _STREAM_G1).standard_normal(out=x1),
        lambda: _rng(seed, family, _STREAM_G2).standard_normal(out=x2),
    )

    v1, v2, cross = lossy_tmsv_moments(config.r, config.t_b, config.t_c)
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    phase_b, phase_c = config.phase_b, config.phase_c
    theta = None
    if cross != 0.0 and (_draws(phase_b) or _draws(phase_c)):
        # A phase that draws from its stream takes its angles here, over the
        # whole grid, so its draws come in one order whatever the split.
        t = (np.arange(n_ext) - pad // 2) / fs
        theta = phase_b.angles(t, _rng(seed, family, _STREAM_PHASE_B))
        theta += phase_c.angles(t, _rng(seed, family, _STREAM_PHASE_C))
        del t

    def mix(lo, hi, resid):
        for i in range(lo, hi, _CHUNK):
            j = min(i + _CHUNK, hi)
            g1, g2 = x1[i:j], x2[i:j]
            if cross == 0.0:
                # Uncorrelated quadratures (r = 0, or no light on one arm):
                # the mixing below reduces to exactly this at cov == 0.
                g2 *= sd2
            else:
                if theta is None:
                    t = (np.arange(i, j) - pad // 2) / fs
                    cov = phase_b.angles(t, None)
                    cov += phase_c.angles(t, None)
                else:
                    cov = theta[i:j]
                # Per-sample 2x2 covariance of the two detector quadratures:
                # the cross term swings with cos(theta_b + theta_c), so
                # sweeping either phase moves the joint variance between the
                # squeezed and anti-squeezed values.  Cholesky mixing of the
                # two unit-variance streams gives that covariance:
                # x2 = (cov / sd1) * g1 + sqrt(max(v2 - cov^2 / v1, 0)) * g2.
                np.cos(cov, out=cov)
                cov *= cross
                r = np.multiply(cov, cov, out=resid[: j - i])
                r /= v1
                np.subtract(v2, r, out=r)
                np.maximum(r, 0.0, out=r)
                g2 *= np.sqrt(r, out=r)
                cov /= sd1
                cov *= g1
                g2 += cov
            g1 *= sd1

    if band is not None:
        spectrum = _filter_spectrum(band[0], band[1], fs)
    sigma_e = None
    if config.electronics_noise_db is not None:
        sigma_e = 10.0 ** (-config.electronics_noise_db / 20.0)

    def finish(x, start, stream, chunk, buf, work):
        if band is not None:
            x = _filter_valid(x, spectrum, buf, work)
        # Channel 2 lags channel 1 by `delay` samples: x2[i] pairs with x1[i - delay].
        x = x[start : start + n]
        # Electronics noise is white and unfiltered: it originates after the
        # detection band, at -clearance dB relative to shot noise (variance 1).
        if sigma_e is not None:
            _add_scaled_normals(x, _rng(seed, family, stream), sigma_e, chunk)
        x *= config.shot_noise_volts_rms
        return x

    def scratch():
        """One thread's scratch: a chunk, and the filter's block buffers."""
        chunk = np.empty(min(_CHUNK, n_ext))
        if band is None:
            return chunk, None, None
        return chunk, np.empty(BLOCK), np.empty(BLOCK // 2 + 1, dtype=complex)

    scratch1, scratch2 = scratch(), scratch()
    half = n_ext // 2
    _kernels.run_both(lambda: mix(0, half, scratch1[0]), lambda: mix(half, n_ext, scratch2[0]))
    del theta
    volts1, volts2 = _kernels.run_both(
        lambda: finish(x1, max(delay, 0), _STREAM_ELEC1, *scratch1),
        lambda: finish(x2, max(-delay, 0), _STREAM_ELEC2, *scratch2),
    )

    monitor = np.zeros(n)
    monitor[n // 2 : n // 2 + max(1, round(TRIGGER_WIDTH_S * fs))] = TRIGGER_VOLTS

    meta = {
        "r": config.r,
        "t_b": config.t_b,
        "t_c": config.t_c,
        "sample_rate_hz": fs,
        "duration_s": config.duration,
        "electronics_noise_db": config.electronics_noise_db,
        "relative_delay_samples": delay,
        "shot_noise_volts_rms": config.shot_noise_volts_rms,
        "rng_seed": seed,
        "rng_family": family,
    }
    tr1 = RawTrace(volts1, fs, monitor, {**meta, "channel": 1})
    tr2 = RawTrace(volts2, fs, monitor, {**meta, "channel": 2})
    return tr1, tr2


def synthesize_pair(config: SynthConfig) -> tuple[RawTrace, RawTrace]:
    """Correlated signal traces for both detectors."""
    return _synthesize(config, _FAMILY_SIGNAL)


def synthesize_shot_noise(config: SynthConfig) -> tuple[RawTrace, RawTrace]:
    """Reference traces with the signal beam blocked (r=0, full loss).

    Drawn from an independent stream family, as a separate acquisition
    would be; the detection band, electronics noise, trigger pulse, and
    voltage scale all match the signal configuration.
    """
    blocked = replace(config, r=0.0, relative_delay_samples=0)
    return _synthesize(blocked, _FAMILY_SHOT)
