"""Synthetic dual-detector homodyne traces for a lossy two-mode squeezed state.

Generates what a two-channel oscilloscope would record: band-limited
correlated noise on two balanced detectors, white electronics noise,
a trigger pulse on a monitor channel, and an optional sample offset between
the channels.  Per-sample statistics follow the Gaussian model in
`gaussian.lossy_tmsv_moments`; the detection band is imposed with a
linear-phase FIR filter so the two channels stay sample-aligned.

Everything is reproducible: one integer seed, expanded through named
counter-based streams, so individual noise sources can be regenerated
independently of each other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy import signal as _sig

from .errors import InvalidArgumentError
from .gaussian import lossy_tmsv_moments

PHASE_KINDS = ("constant", "drift_sinusoid", "triangle_sweep", "noise_injected")

#: Length of the linear-phase band-pass FIR (odd => integer group delay).
FILTER_TAPS = 16385

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


def _rng(seed: int, family: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, family, stream))))


@dataclass(frozen=True)
class PhaseModel:
    """Time dependence of one local-oscillator phase (radians).

    kind:
      constant        -- offset (+ optional white jitter)
      drift_sinusoid  -- offset + amplitude*sin(2*pi*frequency*t)
      triangle_sweep  -- offset + amplitude*triangle(frequency*t), the
                         symmetric ramp a piezo sweep produces
      noise_injected  -- offset + sparse clamped random-walk bursts
                         (rate=frequency bursts/s, amplitude sets the clamp)
    """

    kind: str = "constant"
    frequency: float = 0.0
    amplitude: float = 0.0
    offset: float = 0.0
    transient_jitter_rms: float = 0.0

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise InvalidArgumentError(f"unknown phase kind {self.kind!r}; expected one of {PHASE_KINDS}")
        if self.frequency < 0 or self.transient_jitter_rms < 0:
            raise InvalidArgumentError("frequency and jitter must be non-negative")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.offset)):
            raise InvalidArgumentError("amplitude and offset must be finite")

    def angles(self, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            out = np.full(t.shape, self.offset)
        elif self.kind == "drift_sinusoid":
            out = self.offset + self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)
        elif self.kind == "triangle_sweep":
            out = self.offset + self.amplitude * _sig.sawtooth(
                2.0 * math.pi * self.frequency * t, width=0.5
            )
        else:  # noise_injected: Poisson bursts of a clamped random walk
            out = np.full(t.shape, self.offset)
            if t.size and self.frequency > 0:
                span = float(t[-1] - t[0]) if t.size > 1 else 0.0
                dt = span / (t.size - 1) if t.size > 1 else 0.0
                n_bursts = rng.poisson(self.frequency * span)
                for _ in range(n_bursts):
                    i0 = int(rng.integers(0, t.size))
                    length = max(1, int(rng.exponential(50e-6) / dt)) if dt > 0 else 1
                    i1 = min(t.size, i0 + length)
                    walk = np.cumsum(rng.normal(0.0, 0.05 * max(self.amplitude, 1e-12), i1 - i0))
                    np.clip(walk, -abs(self.amplitude), abs(self.amplitude), out=walk)
                    out[i0:i1] += walk
        if self.transient_jitter_rms > 0 and self.kind != "noise_injected":
            out = out + rng.normal(0.0, self.transient_jitter_rms, t.shape)
        return out


@dataclass(frozen=True)
class TriggerSpec:
    """Monitor-channel trigger pulse marking the scope acquisition center."""

    width_s: float = 2e-8
    amplitude_v: float = 2.0
    position: str = "center"

    def __post_init__(self):
        if self.width_s <= 0 or self.amplitude_v <= 0:
            raise InvalidArgumentError("trigger width and amplitude must be positive")
        if self.position != "center":
            raise InvalidArgumentError("only a centered trigger is supported")


@dataclass(frozen=True)
class SynthConfig:
    """Everything needed to synthesize one dual-detector acquisition.

    r                       squeezing parameter of the source
    t_b, t_c                optical power transmittance to each detector
    sample_rate             scope rate in samples/s
    duration                acquisition length in seconds
    detector_band           (low, high) detection band in Hz, or None for
                            no band-limiting
    electronics_noise_db    shot-noise-to-electronics clearance in dB
                            (None disables electronics noise)
    phase_b, phase_c        local-oscillator phase models for each detector
    relative_delay_samples  channel-2 lag in raw scope samples (cable skew)
    shot_noise_volts_rms    RMS volts of pure shot noise on either detector
    rng_seed                non-negative integer master seed
    """

    r: float
    t_b: float = 1.0
    t_c: float = 1.0
    sample_rate: float = 5e8
    duration: float = 4e-3
    detector_band: tuple[float, float] | None = (2.5e5, 1.5e7)
    electronics_noise_db: float | None = 15.0
    phase_b: PhaseModel = field(default_factory=lambda: PhaseModel(offset=math.pi / 2))
    phase_c: PhaseModel = field(default_factory=lambda: PhaseModel(offset=math.pi / 2))
    relative_delay_samples: int = 0
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    shot_noise_volts_rms: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if self.r < 0:
            raise InvalidArgumentError("r must be non-negative")
        for name, t in (("t_b", self.t_b), ("t_c", self.t_c)):
            if not 0.0 <= t <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1]")
        if self.sample_rate <= 0 or self.duration <= 0:
            raise InvalidArgumentError("sample_rate and duration must be positive")
        if self.detector_band is not None:
            band = tuple(float(f) for f in self.detector_band)
            if len(band) != 2:
                raise InvalidArgumentError("detector_band must be [low, high]")
            object.__setattr__(self, "detector_band", band)
            lo, hi = band
            if not 0.0 < lo < hi < self.sample_rate / 2.0:
                raise InvalidArgumentError("detector band must satisfy 0 < low < high < Nyquist")
        if self.electronics_noise_db is not None and self.electronics_noise_db <= 0:
            raise InvalidArgumentError("electronics clearance must be positive (dB)")
        if self.shot_noise_volts_rms <= 0:
            raise InvalidArgumentError("shot_noise_volts_rms must be positive")
        for name in ("relative_delay_samples", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidArgumentError(f"{name} must be an integer")
        if self.rng_seed < 0:
            raise InvalidArgumentError("rng_seed must be non-negative")
        if self.n_samples < 8:
            raise InvalidArgumentError("duration too short for the sample rate")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate * self.duration))


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

    The magnitude response is sampled from the IIR prototype on a dense grid
    and handed to firwin2; taps are normalized to unit noise power gain
    (sum h^2 = 1) so white unit-variance input keeps unit variance.
    """
    sos = _sig.butter(2, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    _, resp = _sig.sosfreqz(sos, worN=freqs, fs=fs)
    gain = np.abs(resp)
    gain[0] = 0.0
    gain[-1] = 0.0
    taps = _sig.firwin2(FILTER_TAPS, freqs, gain, fs=fs)
    taps /= math.sqrt(float(np.sum(taps * taps)))
    return taps


def _synthesize(config: SynthConfig, family: int) -> tuple[RawTrace, RawTrace]:
    n = config.n_samples
    fs = config.sample_rate
    delay = config.relative_delay_samples
    taps = None
    if config.detector_band is not None:
        taps = _bandpass_taps(config.detector_band[0], config.detector_band[1], fs)
    pad = (taps.size - 1) if taps is not None else 0
    n_ext = n + abs(delay) + pad

    # Extended time grid so 'valid' convolution lands on exactly n + |delay|
    # samples, from which each channel takes its own n-sample window.
    t = (np.arange(n_ext) - pad // 2) / fs
    seed = config.rng_seed
    theta = config.phase_b.angles(t, _rng(seed, family, _STREAM_PHASE_B)) + config.phase_c.angles(
        t, _rng(seed, family, _STREAM_PHASE_C)
    )
    # Per-sample 2x2 covariance of the two detector quadratures: the cross
    # term swings with cos(theta_b + theta_c), so sweeping either phase moves
    # the joint variance between the squeezed and anti-squeezed values.
    v1, v2, cross = lossy_tmsv_moments(config.r, config.t_b, config.t_c)
    cov = cross * np.cos(theta)

    # Cholesky mixing of two unit-variance streams into the target 2x2 cov.
    g1 = _rng(seed, family, _STREAM_G1).standard_normal(n_ext)
    g2 = _rng(seed, family, _STREAM_G2).standard_normal(n_ext)
    sd1 = math.sqrt(v1)
    x1 = sd1 * g1
    resid = np.maximum(v2 - cov * cov / v1, 0.0)
    x2 = (cov / sd1) * g1 + np.sqrt(resid) * g2

    if taps is not None:
        x1 = _sig.fftconvolve(x1, taps, mode="valid")
        x2 = _sig.fftconvolve(x2, taps, mode="valid")

    # Channel 2 lags channel 1 by `delay` samples: x2[i] pairs with x1[i - delay].
    if delay > 0:
        x1, x2 = x1[delay:], x2[:n]
    elif delay < 0:
        x1, x2 = x1[:n], x2[-delay:]

    # Electronics noise is white and unfiltered: it originates after the
    # detection band, at -clearance dB relative to shot noise (variance 1).
    if config.electronics_noise_db is not None:
        sigma_e = 10.0 ** (-config.electronics_noise_db / 20.0)
        x1 = x1 + _rng(seed, family, _STREAM_ELEC1).normal(0.0, sigma_e, n)
        x2 = x2 + _rng(seed, family, _STREAM_ELEC2).normal(0.0, sigma_e, n)

    volts1 = config.shot_noise_volts_rms * x1
    volts2 = config.shot_noise_volts_rms * x2

    monitor = np.zeros(n)
    width = max(1, int(round(config.trigger.width_s * fs)))
    i0 = n // 2
    monitor[i0 : min(n, i0 + width)] = config.trigger.amplitude_v

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
    would be; the detection band, electronics noise, trigger, and voltage
    scale all match the signal configuration.
    """
    blocked = replace(config, r=0.0, relative_delay_samples=0)
    return _synthesize(blocked, _FAMILY_SHOT)
