"""Synthetic dual-detector homodyne traces for a lossy two-mode squeezed state.

Generates what a two-channel oscilloscope would record: band-limited
correlated noise on two balanced detectors, white electronics noise,
a trigger pulse on a monitor channel, and an optional sample offset between
the channels.  Per-sample statistics follow the Gaussian model in
`tmsv.lossy_tmsv_moments`; the detection band is imposed with a
linear-phase FIR filter so the two channels stay sample-aligned.  The
monitor is derived from a trace's length and rate alone: it is built once,
when `RawTrace.monitor` is first read, and shared, read-only.

Everything is reproducible: one integer seed, expanded through named
counter-based streams, so individual noise sources can be regenerated
independently of each other.  No step calls BLAS: g_band, which scales the
electronics noise, is a numpy sum, so the traces do not depend on the BLAS
thread count either.

A pair is made one overlap-save block of the band filter at a time
(Stockham, AFIPS SJCC 1966), so its working memory does not grow with the
trace.  Each channel runs on its own thread of `_kernels.run_both`, in
three buffers the calling thread allocated: the filter's input, which the
inverse FFT overwrites with its output, the FILTER_TAPS - 1 input samples
it carries over to the next block, and the spectrum.  Per block, a channel
puts back the carried samples, draws the BLOCK - FILTER_TAPS + 1 new normals
of its stream after them, filters the block with one BLOCK-point FFT, draws
the electronics noise of the outputs that fall in its n-sample window into
the spent spectrum, adds it, scales the outputs to volts and hands them to
its sink.  Each channel looks at a stop flag at the top of every block, so
a failure or an interrupt ends both within a block.  Channel 2 is mixed
with channel 1's normals, which channel 1's thread passes on in two slots,
block k in slot k % 2, with two semaphores to order them; each thread
computes the mixing factors of every other block, channel 2 its cov in its
spectrum before the forward FFT, so the mixing allocates nothing per
block.  Steady phases (constant, without jitter) are mixed with one pair
of factors, computed once on the calling thread, so a slot holds only
channel 1's share of the mixed block.  Phase models that draw from a
random stream take their angles over the whole grid on the calling thread
first, so their draw order does not depend on the blocks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .settings import RAW_PER_QUADRATURE
from .settings import PHASE_KINDS, PhaseModel, SynthConfig  # re-exported
from .tmsv import lossy_tmsv_moments

#: Length of the linear-phase band-pass FIR (odd => integer group delay).
FILTER_TAPS = 16385

#: FFT length of one overlap-save block of the band filter; each block
#: yields BLOCK - FILTER_TAPS + 1 output samples.  With no band, a block is
#: BLOCK new samples.
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

#: Width and height of the monitor channel's trigger pulse, which starts at
#: the middle sample of every acquisition.
TRIGGER_WIDTH_S = 2e-8
TRIGGER_VOLTS = 2.0


def _rng(seed: int, family: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, family, stream))))


@dataclass(frozen=True)
class RawTrace:
    """One synthesized scope channel.

    Its trigger monitor is derived from the trace's length and rate: built
    once, when `monitor` is first read, and shared, read-only, by every
    trace of that length and rate."""

    samples: np.ndarray
    sample_rate: float
    meta: dict

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def monitor(self) -> np.ndarray:
        """The monitor channel: TRIGGER_VOLTS over the trigger pulse, which
        starts at the middle sample, and 0 elsewhere."""
        return _monitor(self.samples.size, self.sample_rate)


@lru_cache(maxsize=1)
def _monitor(n: int, fs: float) -> np.ndarray:
    monitor = np.zeros(n)
    monitor[n // 2 : n // 2 + max(1, round(TRIGGER_WIDTH_S * fs))] = TRIGGER_VOLTS
    monitor.setflags(write=False)
    return monitor


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
    # The delay's phase ramp times the band response, built in one buffer
    # with the ufuncs of np.exp(c * grid / (fs / 2)) * interp, in their order.
    # The copy owns its taps, so the cache keeps no 65 536-point irfft alive.
    shift = -(FILTER_TAPS - 1) / 2.0 * 1j * math.pi * grid
    shift /= fs / 2.0
    np.exp(shift, out=shift)
    shift *= np.interp(grid, freqs, gain)
    taps = np.fft.irfft(shift)[:FILTER_TAPS].copy()
    del shift, grid
    taps *= np.hamming(FILTER_TAPS)
    taps /= math.sqrt(float(np.sum(taps * taps)))
    taps.setflags(write=False)
    return taps


@lru_cache(maxsize=4)
def _filter_spectrum(low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    spectrum = np.fft.rfft(_bandpass_taps(low_hz, high_hz, fs), BLOCK)
    spectrum.setflags(write=False)
    return spectrum


@lru_cache(maxsize=8)
def _averaged_gain(low_hz: float, high_hz: float, fs: float) -> float:
    """g_band: the share of band-limited unit shot noise's variance that the
    analysis's mean of RAW_PER_QUADRATURE (m) samples keeps,
    sum over |k| < m of (m - |k|) r_h(k) / m^2, with r_h the autocorrelation
    of the taps.  White noise keeps g_white = 1/m of its variance.

    Each r_h(k) is numpy's own pairwise sum, never a BLAS dot product, whose
    rounding depends on how many threads the BLAS library splits it over."""
    h, m = _bandpass_taps(low_hz, high_hz, fs), RAW_PER_QUADRATURE
    r = [float(np.add.reduce(h[: h.size - k] * h[k:])) for k in range(m)]
    return (m * r[0] + 2.0 * sum((m - k) * r[k] for k in range(1, m))) / (m * m)


def _draws(phase: PhaseModel) -> bool:
    """Whether `phase.angles` draws from its random stream."""
    return phase.kind == "noise_injected" or phase.transient_jitter_rms > 0


def _steady(phase: PhaseModel) -> bool:
    """Whether `phase.angles` is the offset at every time, drawing nothing."""
    return phase.kind == "constant" and phase.transient_jitter_rms == 0


def _synthesize(config: SynthConfig, family: int, sink1, sink2) -> tuple[dict, dict]:
    """Hand each channel's n volts to its sink, as `stream_pair` describes;
    returns the two channels' meta."""
    n = config.n_samples
    fs = config.sample_rate
    delay = config.relative_delay_samples
    band = config.detector_band
    seed = config.rng_seed
    # The extended grid: its 'valid' convolution is n + |delay| samples, from
    # which each channel takes its own n-sample window.  Block j (a multiple
    # of `step`) filters grid samples [j, j + BLOCK) into outputs [j, j + step).
    pad = FILTER_TAPS - 1 if band is not None else 0
    step = BLOCK - pad
    n_out = n + abs(delay)
    size = min(BLOCK, n_out + pad)

    v1, v2, cross = lossy_tmsv_moments(config.r, config.t_b, config.t_c)
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    phase_b, phase_c = config.phase_b, config.phase_c
    theta = None
    if cross != 0.0 and (_draws(phase_b) or _draws(phase_c)):
        # A phase that draws from its stream takes its angles here, over the
        # whole grid, so its draws come in one order whatever the blocks.
        t = (np.arange(n_out + pad) - pad // 2) / fs
        theta = phase_b.angles(t, _rng(seed, family, _STREAM_PHASE_B))
        theta += phase_c.angles(t, _rng(seed, family, _STREAM_PHASE_C), out=t)
        del t
    spectrum = _filter_spectrum(band[0], band[1], fs) if band is not None else None
    sigma_e = None
    if config.electronics_noise_db is not None:
        # The clearance holds where it is measured, in the analysed quadrature
        # (Appel et al., Phys. Rev. A 75, 035802 (2007)): the analysis's
        # average keeps g_band of the shot noise's variance but 1/m of the
        # white noise's, so the raw noise is sqrt(g_band * m) times larger.
        sigma_e = 10.0 ** (-config.electronics_noise_db / 20.0)
        if band is not None:
            sigma_e *= math.sqrt(_averaged_gain(band[0], band[1], fs) * RAW_PER_QUADRATURE)

    # Per-sample 2x2 covariance of the two detector quadratures: the cross
    # term swings with cos(theta_b + theta_c), so sweeping either phase moves
    # the joint variance between the squeezed and anti-squeezed values.
    # Cholesky mixing of the two unit-variance streams gives that covariance:
    # x2 = sqrt(max(v2 - cov^2 / v1, 0)) * g2 + (cov / sd1) * g1.  Channel 1
    # passes g1 on in one of two slots, with the two factors of every other
    # block computed; channel 2 computes those of the rest, and applies them.
    # Steady phases give every sample the same two factors: they are computed
    # once, here, and channel 1 passes on (cov / sd1) * g1 alone.
    mixing = cross != 0.0
    steady = mixing and _steady(phase_b) and _steady(phase_c)

    # Every buffer the mixing fills is allocated here, on the calling thread
    # (see `_kernels`).  iota holds a block's sample offsets 0, 1, ... as
    # floats: plus the block's first grid index, over fs, they are its times,
    # exactly as (np.arange(lo, hi) - pad // 2) / fs.  Steady factors take
    # one sample's.
    iota = np.arange(1 if steady else size, dtype=float) if mixing and theta is None else None

    def factors(root, cov, lo, hi):
        """root = sqrt(max(v2 - cov^2 / v1, 0)), and cov / sd1, with
        cov = cross * cos(theta_b + theta_c) over grid samples [lo, hi);
        for steady phases, over sample 0 alone, whose two factors are every
        sample's."""
        if theta is None:
            t = root  # the time grid, until root is computed
            np.add(iota[: hi - lo], lo - pad // 2, out=t)
            t /= fs
            phase_b.angles(t, None, out=cov)
            cov += phase_c.angles(t, None, out=t)
            np.cos(cov, out=cov)
        else:
            np.cos(theta[lo:hi], out=cov)
        cov *= cross
        np.multiply(cov, cov, out=root)
        root /= v1
        np.subtract(v2, root, out=root)
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        cov /= sd1

    # Block k passes through slots[k % 2], a (root, term) pair: channel 1
    # waits on `free` before it fills a slot and releases `full`, channel 2
    # waits on `full` before it mixes and releases `free` (Dijkstra's bounded
    # buffer, EWD 123).  Channel 2 computes its cov in its spare buffer.
    # Steady phases share one 1-element root, and c = cov / sd1, between the
    # slots, and broadcast them over every block.
    if steady:
        root, c = np.empty(1), np.empty(1)
        factors(root, c, 0, 1)
    slots = [(root if steady else np.empty(size), np.empty(size)) for _ in range(2 if mixing else 0)]
    free, full = threading.Semaphore(len(slots)), threading.Semaphore(0)
    failed = False

    def mix1(g, lo, hi, spare):
        if mixing:
            free.acquire()
            if failed:
                return False
            k = lo // step % 2
            root, term = (a[: hi - lo] for a in slots[k])
            if steady:
                np.multiply(g, c, out=term)  # a product commutes exactly
            elif k == 0:
                factors(root, term, lo, hi)
                term *= g  # (cov / sd1) * g1: a product commutes exactly
            else:
                term[:] = g
            full.release()
        g *= sd1
        return True

    def mix2(g, lo, hi, spare):
        if not mixing:
            # Uncorrelated quadratures (r = 0, or no light on one arm): the
            # mixing reduces to exactly this at cov == 0.
            g *= sd2
            return True
        full.acquire()
        if failed:
            return False
        k = lo // step % 2
        root, term = (a[: hi - lo] for a in slots[k])
        if k == 1 and not steady:
            cov = spare[: hi - lo]
            factors(root, cov, lo, hi)
            term *= cov  # g1 * (cov / sd1)
        g *= root
        g += term
        free.release()
        return True

    def channel(stream, elec_stream, start, mix, sink, x, carry, work, spare):
        rng = _rng(seed, family, stream)
        elec = _rng(seed, family, elec_stream) if sigma_e is not None else None
        for j in range(0, n_out, step):
            if failed:  # the partner failed, or the caller was interrupted
                return
            k = min(step, n_out - j)
            lo = 0 if j == 0 else pad  # new samples start after the carried ones
            x[:lo] = carry[:lo]
            if not mix(rng.standard_normal(out=x[lo : pad + k]), j + lo, j + pad + k, spare):
                return
            if spectrum is None:
                out = x[:k]
            else:
                # circular outputs [pad, BLOCK) of x[: pad + k], zero-padded, never
                # wrap: they are the linear outputs j onwards
                np.fft.rfft(x[: pad + k], BLOCK, out=work)
                carry[:] = x[step:]  # the next block's first samples
                work *= spectrum
                np.fft.irfft(work, BLOCK, out=x)
                out = x[pad : pad + k]
            # Channel 2 lags channel 1 by `delay` samples: output i of channel 2
            # pairs with output i - delay of channel 1.
            a, b = max(j, start), min(j + k, start + n)
            if a < b:
                out = out[a - j : b - j]
                # Electronics noise is white and unfiltered: it originates after
                # the detection band, at sigma_e relative to shot noise
                # (variance 1).
                if elec is not None:
                    e = elec.standard_normal(out=spare[: b - a])
                    e *= sigma_e
                    out += e
                out *= config.shot_noise_volts_rms
                sink(out)

    def stop():
        # wakes a channel parked in its wait, which then sees the flag and stops
        nonlocal failed
        failed = True
        free.release()
        full.release()

    # Every buffer is allocated here, on the calling thread (see `_kernels`):
    # x, carry, the spectrum and a spare for a block of electronics noise or
    # of cov.  The inverse FFT writes all BLOCK points of x, and the spent
    # spectrum's BLOCK + 2 floats are the spare; with no band there is no
    # spectrum, and the spare is a buffer of its own.
    def buffers():
        if spectrum is None:
            return np.empty(size), np.empty(0), None, np.empty(size)
        work = np.empty(BLOCK // 2 + 1, dtype=complex)
        return np.empty(BLOCK), np.empty(pad), work, work.view(float)

    buffers1, buffers2 = buffers(), buffers()
    _kernels.run_both(
        lambda: channel(_STREAM_G1, _STREAM_ELEC1, max(delay, 0), mix1, sink1, *buffers1),
        lambda: channel(_STREAM_G2, _STREAM_ELEC2, max(-delay, 0), mix2, sink2, *buffers2),
        stop=stop,
    )
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
    return {**meta, "channel": 1}, {**meta, "channel": 2}


def _collect(config: SynthConfig, family: int) -> tuple[RawTrace, RawTrace]:
    n, fs = config.n_samples, config.sample_rate
    volts1, volts2 = np.empty(n), np.empty(n)

    def into(out):
        filled = 0

        def sink(block):
            nonlocal filled
            out[filled : filled + block.size] = block
            filled += block.size

        return sink

    meta1, meta2 = _synthesize(config, family, into(volts1), into(volts2))
    return RawTrace(volts1, fs, meta1), RawTrace(volts2, fs, meta2)


def _shot_noise_config(config: SynthConfig) -> SynthConfig:
    return replace(config, r=0.0, relative_delay_samples=0)


def synthesize_pair(config: SynthConfig) -> tuple[RawTrace, RawTrace]:
    """Correlated signal traces for both detectors."""
    return _collect(config, _FAMILY_SIGNAL)


def synthesize_shot_noise(config: SynthConfig) -> tuple[RawTrace, RawTrace]:
    """Reference traces with the signal beam blocked (r=0, full loss).

    Drawn from an independent stream family, as a separate acquisition
    would be; the detection band, electronics noise, trigger pulse, and
    voltage scale all match the signal configuration.
    """
    return _collect(_shot_noise_config(config), _FAMILY_SHOT)


def stream_pair(config: SynthConfig, sink1, sink2) -> tuple[dict, dict]:
    """The volts of `synthesize_pair`, handed to ``sink1(block)`` (detector 1)
    and ``sink2(block)`` (detector 2) in order, a block at a time, each on a
    thread of its own, never the calling thread; returns the two traces'
    meta.

    A block is a view of a buffer the next block overwrites, so a sink
    copies or writes it before it returns.  An exception raised by a sink
    stops both channels and is re-raised here.
    """
    return _synthesize(config, _FAMILY_SIGNAL, sink1, sink2)


def stream_shot_noise(config: SynthConfig, sink1, sink2) -> tuple[dict, dict]:
    """The volts of `synthesize_shot_noise`, handed to sinks as by `stream_pair`."""
    return _synthesize(_shot_noise_config(config), _FAMILY_SHOT, sink1, sink2)
