"""Settings a scenario file carries into synthesis and analysis.

The dataclasses here check their own values when built: a scenario's
``synthesis`` section becomes a :class:`SynthConfig` with a
:class:`PhaseModel` for each local oscillator, and `cli.load_scenario`
builds one to validate that section.  `synth` re-exports them.

Nothing here imports numpy at import time, so loading and checking a
scenario, as ``sqzkit expect`` does, never loads it.  Only
:meth:`PhaseModel.angles`, which evaluates a phase on a numpy time grid,
imports numpy, when it is called.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InvalidArgumentError

if TYPE_CHECKING:
    import numpy as np

PHASE_KINDS = ("constant", "drift_sinusoid", "triangle_sweep", "noise_injected")

#: Fraction of raw samples discarded around the trigger by default.
DISCARD_FRACTION = 0.05
#: Raw samples the analysis averages into one voltage point; synthesis sets
#: its electronics noise relative to the shot noise of that average.
RAW_PER_QUADRATURE = 4


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
        if not (0 <= self.frequency < math.inf and 0 <= self.transient_jitter_rms < math.inf):
            raise InvalidArgumentError("frequency and jitter must be finite and non-negative")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.offset)):
            raise InvalidArgumentError("amplitude and offset must be finite")

    def angles(self, t: np.ndarray, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        """The phase at times `t` (seconds), written into `out` (a new array
        if None; it may be `t` itself) and returned.  `rng` is read only by
        `noise_injected` and by jitter."""
        import numpy as np

        if out is None:
            out = np.empty(t.shape)
        # read before `out`, which may be `t`, is written
        span = float(t[-1] - t[0]) if t.size > 1 else 0.0
        if self.kind == "drift_sinusoid":
            # offset + amplitude * sin(2 pi f t), one operation at a time
            np.multiply(t, 2.0 * math.pi * self.frequency, out=out)
            np.sin(out, out=out)
            out *= self.amplitude
            out += self.offset
        elif self.kind == "triangle_sweep":
            # symmetric triangle of period 1/frequency: -1 at t = 0, +1 half-way;
            # offset + amplitude * (1 - 2 |cycle - 1|), cycle = mod(2 pi f t, 2 pi) / pi
            np.multiply(t, 2.0 * math.pi * self.frequency, out=out)
            np.mod(out, 2.0 * math.pi, out=out)
            out /= math.pi
            out -= 1.0
            np.abs(out, out=out)
            out *= 2.0
            np.subtract(1.0, out, out=out)
            out *= self.amplitude
            out += self.offset
        else:
            out.fill(self.offset)
        if self.kind == "noise_injected":  # Poisson bursts of a clamped random walk
            if t.size and self.frequency > 0:
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
            out += rng.normal(0.0, self.transient_jitter_rms, t.shape)
        return out


@dataclass(frozen=True)
class SynthConfig:
    """Everything needed to synthesize one dual-detector acquisition.

    r                       squeezing parameter of the source
    t_b, t_c                optical power transmittance to each detector
    sample_rate             scope rate in samples/s
    duration                acquisition length in seconds
    detector_band           (low, high) detection band in Hz, or None for
                            no band-limiting
    electronics_noise_db    shot-noise-to-electronics clearance in dB, in the
                            analysed (4-sample averaged) quadrature (None
                            disables electronics noise)
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
    shot_noise_volts_rms: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise InvalidArgumentError("r must be finite and non-negative")
        for name, t in (("t_b", self.t_b), ("t_c", self.t_c)):
            if not 0.0 <= t <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1]")
        if not (self.sample_rate > 0 and self.duration > 0 and self.sample_rate * self.duration < math.inf):
            raise InvalidArgumentError("sample_rate and duration must be positive, with a finite product")
        if self.detector_band is not None:
            band = tuple(float(f) for f in self.detector_band)
            if len(band) != 2:
                raise InvalidArgumentError("detector_band must be [low, high]")
            object.__setattr__(self, "detector_band", band)
            lo, hi = band
            if not 0.0 < lo < hi < self.sample_rate / 2.0:
                raise InvalidArgumentError("detector band must satisfy 0 < low < high < Nyquist")
        if self.electronics_noise_db is not None and not 0 < self.electronics_noise_db < math.inf:
            raise InvalidArgumentError("electronics clearance must be positive and finite (dB)")
        if not 0 < self.shot_noise_volts_rms < math.inf:
            raise InvalidArgumentError("shot_noise_volts_rms must be positive and finite")
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
