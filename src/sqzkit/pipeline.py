"""Post-processing chain from raw detector voltages to squeezing numbers.

The measurement convention this implements:

1. discard the central block of raw samples around the trigger pulse,
2. average every 4 oscilloscope samples into voltage points (steps 1 and
   2 are one pass over the raw trace, `discard_average4`),
3. normalize against shot-noise statistics taken through the *identical*
   path, so that vacuum has mean 0 and variance 1/2,
4. form the joint combinations q1+q2 and q1-q2, align any relative delay
   between the two detectors by trying every candidate delay, each scored
   over the same non-overlapping windows of q1, and
5. report squeezing/anti-squeezing as rolling-variance extrema relative to
   the identically-combined shot-noise reference.

`quadratures` is steps 1-3 for the four raw traces of one measurement, two
signal then two shot noise, read one at a time and a chunk at a time;
`analysis_report` is steps 4 and 5 on its output.  ``sqzkit analyze`` is
these two calls.  The other functions take plain float arrays (volts or
quadrature units); reading trace files lives in `traceio`.  Unbiased (n-1)
variance is used everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import rolling_variance
from .errors import DegenerateInputError, DimensionMismatchError, InvalidArgumentError
from .errors import ScenarioFormatError
from .settings import DISCARD_FRACTION, RAW_PER_QUADRATURE  # re-exported

#: Vacuum variance of normalized quadrature values produced by `normalize`.
QUADRATURE_VACUUM_VARIANCE = 0.5
#: Rolling window (quadrature samples) used when a command needs one and the
#: caller didn't choose: matches the usual visual-analysis window.
DEFAULT_WINDOW = 10_000
#: `analysis_report` scans the coherence dip over delays of -DIP_DELAY_SPAN
#: to +DIP_DELAY_SPAN quadrature samples.
DIP_DELAY_SPAN = 25


def default_window(n_points: int) -> int:
    """Rolling window for `n_points` aligned points when the caller chose none:
    `DEFAULT_WINDOW`, cut to a quarter of the points, and never below 2."""
    return max(2, min(DEFAULT_WINDOW, n_points // 4))


def _as_1d(x, name="trace") -> np.ndarray:
    a = np.asarray(getattr(x, "q", x), dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional")
    return a


@dataclass(frozen=True)
class ShotNoiseStats:
    """Mean/variance of a shot-noise trace after the averaging path."""

    mean: float
    variance: float
    n_samples: int

    def __post_init__(self):
        if not self.variance > 0:
            raise InvalidArgumentError("shot-noise variance must be positive")

    @classmethod
    def from_samples(cls, v) -> "ShotNoiseStats":
        v = _as_1d(v, "shot-noise samples")
        if v.size < 2:
            raise InvalidArgumentError("need at least 2 samples for shot-noise stats")
        return cls(float(v.mean()), float(v.var(ddof=1)), v.size)


@dataclass(frozen=True)
class QuadratureTrace:
    """Normalized quadrature series (vacuum variance 1/2)."""

    q: np.ndarray
    quadrature_rate: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return self.q.size


def _sum4(v: np.ndarray, out: np.ndarray) -> None:
    """out[k] = v[4k] + v[4k+1] + v[4k+2] + v[4k+3], added left to right, the
    order `reshape(-1, 4).mean(axis=1)` takes, without its reduction loop;
    v holds exactly 4 * out.size samples."""
    np.add(v[0::4], v[1::4], out=out)
    out += v[2::4]
    out += v[3::4]


def _discarded(n: int, fraction: float) -> tuple[int, int]:
    """(start, cut): the central `fraction` of n samples is [start, start + cut)."""
    if not 0.0 <= fraction < 1.0:
        raise InvalidArgumentError("fraction must be in [0, 1)")
    cut = int(round(n * fraction))
    if cut >= n:
        raise InvalidArgumentError("discard region covers the whole trace")
    return (n - cut) // 2, cut


def discard_average4(raw_samples, fraction: float, n_samples: int | None = None) -> np.ndarray:
    """The mean of every 4 consecutive samples (a trailing remainder dropped)
    of `raw_samples` with its central `fraction` dropped, without copying
    the kept samples into one array first: the one reduction a raw trace
    goes through.  `shot_noise_stats` and `raw_to_quadratures` are this
    followed by `ShotNoiseStats.from_samples` and `normalize`, and
    `quadratures` does all three for a measurement's four traces.

    `raw_samples` is one array; or, with `n_samples`, an iterable of 1-D
    arrays that hold the trace's n_samples samples in order, each reduced
    as it arrives, so a caller reading a trace a chunk at a time never
    holds it whole.  The layout is checked before the first chunk is taken.

    Groups of 4 that lie in one chunk, on one side of the cut, are summed
    by `_sum4`; a group that straddles a chunk boundary or the cut is summed
    on its own, in the same order, so each mean is that of
    ``reshape(-1, 4).mean(axis=1)`` over the kept samples, bit for bit.
    """
    if n_samples is None:
        raw_samples = [_as_1d(raw_samples)]
        n_samples = raw_samples[0].size
    start, cut = _discarded(n_samples, fraction)
    n = (n_samples - cut) // RAW_PER_QUADRATURE
    if n == 0:
        raise InvalidArgumentError("trace too short to average")
    out = np.empty(n)
    k, group, at = 0, [], 0  # groups done, the samples of the open group, samples taken
    for chunk in raw_samples:
        chunk = _as_1d(chunk, "chunk")
        if at + chunk.size > n_samples:
            raise InvalidArgumentError(f"the chunks hold more than {n_samples} samples")
        # the kept samples of the chunk: those before the cut, then those after it
        for part in (chunk[: max(start - at, 0)], chunk[max(start + cut - at, 0) :]):
            if group:
                need = RAW_PER_QUADRATURE - len(group)
                group += part[:need].tolist()
                if len(group) < RAW_PER_QUADRATURE:
                    continue
                out[k] = ((group[0] + group[1]) + group[2]) + group[3]
                k += 1
                part = part[need:]
            whole = part.size // RAW_PER_QUADRATURE
            _sum4(part[: RAW_PER_QUADRATURE * whole], out[k : k + whole])
            k += whole
            group = part[RAW_PER_QUADRATURE * whole :].tolist()
        at += chunk.size
    if at < n_samples:
        raise InvalidArgumentError(f"the chunks hold {at} samples, not {n_samples}")
    out /= RAW_PER_QUADRATURE
    return out


def normalize(
    v_avg, sn: ShotNoiseStats, quadrature_rate: float = 1.25e8, out: np.ndarray | None = None
) -> QuadratureTrace:
    """Shot-noise-normalize averaged voltages to quadrature values.

    q[k] = (V_avg[k] - mean) * sqrt((1/2) / variance): a pure shot-noise
    input reproduces vacuum statistics (mean 0, variance 1/2) by construction.
    ``sn`` must come from a shot-noise trace pushed through the same
    discard+average path (see `shot_noise_stats`).  ``out`` (which may be
    v_avg itself) receives q instead of a new array.
    """
    v = _as_1d(v_avg, "averaged trace")
    scale = math.sqrt(QUADRATURE_VACUUM_VARIANCE / sn.variance)
    q = np.subtract(v, sn.mean, out=out)
    q *= scale
    return QuadratureTrace(q, quadrature_rate)


def shot_noise_stats(raw_samples, fraction: float = DISCARD_FRACTION) -> ShotNoiseStats:
    """Stats of a raw shot-noise trace after discard + averaging."""
    return ShotNoiseStats.from_samples(discard_average4(raw_samples, fraction))


def raw_to_quadratures(
    raw_samples,
    sn: ShotNoiseStats,
    sample_rate: float = 5e8,
    fraction: float = DISCARD_FRACTION,
) -> QuadratureTrace:
    """Full raw-voltage -> quadrature conversion for one detector trace."""
    return normalize(discard_average4(raw_samples, fraction), sn, sample_rate / RAW_PER_QUADRATURE)


def quadratures(traces, *, fraction: float, names=None) -> list[QuadratureTrace]:
    """The four raw traces of one measurement, signal 1, signal 2, shot
    noise 1 and shot noise 2, as calibrated quadratures in that order.

    `traces` yields each as ``(chunks, n_samples, sample_rate)``, with the
    chunks as `discard_average4` takes them (``[volts]`` for an array), and
    is advanced only once the trace before is reduced.  Each trace is
    checked against the first one's rate and its partner's length; each
    shot-noise trace calibrates its detector, and the four averages are
    normalized in place.

    A fault in trace k raises ScenarioFormatError naming ``names[k]``.  Of
    one trace's faults, what its chunks raise comes first (such as a
    non-finite sample), then its rate, its length, and last what stops its
    reduction, so a trace that cannot be reduced is still read to the end.
    """
    names = list(names or ("signal 1", "signal 2", "shot noise 1", "shot noise 2"))
    averaged, stats = [], []
    for k, (name, (chunks, n, trace_rate)) in enumerate(zip(names, traces)):
        fault = None
        try:
            reduced = discard_average4(chunks, fraction, n)
        except InvalidArgumentError as exc:  # empty, or too short
            fault = exc
            for _ in chunks:
                pass
        if k == 0:
            rate = trace_rate
        elif trace_rate != rate:
            raise ScenarioFormatError(
                f"{name}: sample rate {trace_rate:g} Hz differs from {rate:g} Hz of {names[0]}"
            )
        if k % 2 == 0:
            first_size = n
        elif n != first_size:
            raise ScenarioFormatError(f"{name}: {n} samples, but {names[k - 1]} has {first_size}")
        if fault is None and k >= 2:
            try:
                stats.append(ShotNoiseStats.from_samples(reduced))
            except InvalidArgumentError as exc:  # constant shot noise
                fault = exc
        if fault is not None:
            raise ScenarioFormatError(f"{name}: {fault}") from fault
        averaged.append(reduced)
    if len(averaged) != 4:
        raise InvalidArgumentError(f"need four traces, got {len(averaged)}")
    return [normalize(v, sn, rate / RAW_PER_QUADRATURE, out=v) for v, sn in zip(averaged, stats * 2)]


def _delay_candidates(max_delay: int):
    yield 0
    for k in range(1, max_delay + 1):
        yield -k
        yield k


def _window_deviations(x: np.ndarray, edges: np.ndarray, window: int) -> np.ndarray:
    """Sum of squared deviations from the mean of x over x[edges[j, k] :
    edges[j, k + 1]], each of `window` samples, for every row j and window k.

    The window sums and sums of squares are read at `edges` from one prefix
    sum each of x and x**2, built one after the other in one buffer."""
    prefix = np.zeros(x.size + 1)
    np.cumsum(x, out=prefix[1:])
    sums = np.diff(prefix[edges], axis=1)
    np.square(x, out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    dev = np.diff(prefix[edges], axis=1)
    dev -= sums * sums / window
    return dev


def _delay_objectives(a: np.ndarray, b: np.ndarray, max_delay: int, window: int):
    """[(delay, objective)] for every candidate delay, in `_delay_candidates` order.

    The objective is the mean, over the T = (len(a) - 2 * max_delay) // window
    windows that tile a[max_delay : max_delay + T * window] without overlap,
    of |V+ - V-| / (V+ + V-): the normalized contrast between the unbiased
    variances of a+b and a-b over one window of a and the window of b that
    starts d samples later.  Expanding both variances gives the closed form
    2|cov(a, b_d)| / (var a + var b_d), which is what is computed, each term
    as a sum over the window (the factor 1 / (window - 1) cancels).  One
    anchor per trace, its sample at max_delay, is subtracted first, so a
    large offset costs no precision.  a's windows are centred once, so they
    sum to zero and a candidate's covariances are one row-wise dot product
    with b's windows as they lie; b's window variances come from
    `_window_deviations`.  Windows where var a + var b_d is not positive
    contribute zero.
    """
    start, n_tiles = max_delay, (a.size - 2 * max_delay) // window
    stop = start + n_tiles * window
    delays = list(_delay_candidates(max_delay))
    b = b - b[start]
    # edges[j]: where candidate j's windows of b start, then where its last one ends
    edges = np.add.outer([start + d for d in delays], np.arange(n_tiles + 1) * window)
    totals = _window_deviations(b, edges, window)  # var b_d, then var a + var b_d
    tiles_a = (a[start:stop] - a[start]).reshape(n_tiles, window)
    tiles_a -= tiles_a.mean(axis=1, keepdims=True)
    totals += np.einsum("ij,ij->i", tiles_a, tiles_a)
    covs = np.empty_like(totals)
    for j, d in enumerate(delays):
        tiles_b = b[start + d : stop + d].reshape(n_tiles, window)
        np.einsum("ij,ij->i", tiles_a, tiles_b, out=covs[j])
    np.abs(covs, out=covs)
    contrast = np.divide(covs, totals, out=np.zeros_like(covs), where=totals > 0.0)
    return list(zip(delays, (2.0 * contrast.sum(axis=1) / n_tiles).tolist()))


def delay_search(q1, q2, max_delay: int, window: int) -> tuple[int, float]:
    """Find the relative delay (in quadrature samples) between two detectors.

    For every candidate delay d in [-max_delay, +max_delay], q2 is shifted by
    d and scored by the mean visibility |V+ - V-| / (V+ + V-) of the variances
    of q1+q2 and q1-q2 over non-overlapping windows of `window` samples, the
    same windows of q1 for every candidate (see `_delay_objectives`).  Returns
    (best delay, its objective); ties break toward smaller |d|, then the
    negative one.  Runs on the calling thread.
    """
    a, b = _as_1d(q1, "q1"), _as_1d(q2, "q2")
    if a.size != b.size:
        raise DimensionMismatchError(f"trace lengths differ ({a.size} vs {b.size})")
    max_delay = int(max_delay)
    if max_delay < 0:
        raise InvalidArgumentError("max_delay must be >= 0")
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if a.size and (np.ptp(a) == 0.0 or np.ptp(b) == 0.0):
        raise DegenerateInputError("constant trace carries no delay information")
    if a.size - window + 1 <= 2 * max_delay:
        raise InvalidArgumentError(
            f"traces too short for window {window} with max_delay {max_delay}"
        )
    best_d, best_obj = 0, -1.0
    for d, obj in _delay_objectives(a, b, max_delay, int(window)):
        if obj > best_obj:
            best_d, best_obj = d, obj
    return best_d, best_obj


def align(q1, q2, delay: int, max_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply a found delay, trimming `max_delay` points off both ends.

    The trim is delay-independent so every candidate in [-max_delay,
    +max_delay] maps onto the same index set; output length is
    len(q) - 2*max_delay for any accepted delay.  Returns read-only views
    of the inputs, not copies.
    """
    a, b = _as_1d(q1, "q1"), _as_1d(q2, "q2")
    if a.size != b.size:
        raise DimensionMismatchError(f"trace lengths differ ({a.size} vs {b.size})")
    if abs(delay) > max_delay:
        raise InvalidArgumentError(f"|delay| {abs(delay)} exceeds max_delay {max_delay}")
    if a.size <= 2 * max_delay:
        raise InvalidArgumentError("trace shorter than the alignment trim")
    lo, hi = max_delay, a.size - max_delay
    a, b = a[lo:hi], b[lo + delay : hi + delay]
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def squeezing_report(q1, q2, sn1, sn2, window: int | None = None) -> dict:
    """Squeezing/anti-squeezing in dB relative to the shot-noise reference.

    The two joint combinations q1+q2 and q1-q2 are each referenced to the
    global variance of the identically-combined shot-noise traces; squeezing
    is the minimum of both rolling-variance ratio series, anti-squeezing the
    maximum.  ``window=None`` uses one full-length window (global variance):
    the right choice for constant-phase data, where windowed minima are
    biased low.  The error bar is 10*log10(1 + sd/ref) where sd is the
    standard deviation of the shot-noise rolling series (averaged over the
    two combinations); a single window has no spread, giving 0.0.
    """
    a, b = _as_1d(q1, "q1"), _as_1d(q2, "q2")
    ra, rb = _as_1d(sn1, "sn1"), _as_1d(sn2, "sn2")
    if a.size != b.size or ra.size != rb.size:
        raise DimensionMismatchError("combination partners must have equal lengths")
    if min(a.size, ra.size) < 2:
        raise InvalidArgumentError("traces too short")

    min_ratio, max_ratio, spreads = math.inf, -math.inf, []
    for combine in (np.add, np.subtract):
        ref_series = combine(ra, rb)
        ref = float(ref_series.var(ddof=1))
        if ref <= 0.0:
            raise DegenerateInputError("shot-noise reference variance is zero")
        w_ref = window if window is not None else ref_series.size
        if w_ref == ref_series.size:
            ref_series = None  # one window has no spread; drop it before sig is made
        sig = combine(a, b)
        ratios = rolling_variance(sig, window if window is not None else sig.size)
        del sig
        ratios /= ref
        min_ratio = min(min_ratio, float(ratios.min()))
        max_ratio = max(max_ratio, float(ratios.max()))
        spread = 0.0 if ref_series is None else float(rolling_variance(ref_series, w_ref).std(ddof=1))
        spreads.append(spread / ref)

    if min_ratio <= 0.0:
        raise DegenerateInputError("window variance collapsed to zero")
    return {
        "squeezing_db": 10.0 * math.log10(min_ratio),
        "antisqueezing_db": 10.0 * math.log10(max_ratio),
        "error_db": 10.0 * math.log10(1.0 + 0.5 * (spreads[0] + spreads[1])),
    }


def variance_vs_delay(q1, q2, window: int, at_index: int, delays) -> list[tuple[int, float, float]]:
    """Single-window variances of both combinations versus relative delay.

    Returns (delay, V(q1+q2), V(q1-q2)) for each delay, with the q1 window
    fixed at [at_index, at_index+window) and the q2 window shifted by the
    delay.  The squeezed combination dips over the delays where the two
    detectors stay correlated; `dip_fwhm` measures that width.
    """
    a, b = _as_1d(q1, "q1"), _as_1d(q2, "q2")
    delays = [int(d) for d in delays]
    if not delays:
        raise InvalidArgumentError("need at least one delay")
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if not 0 <= at_index <= a.size - window:
        raise InvalidArgumentError(f"window at {at_index} falls outside the first trace")
    if at_index + min(delays) < 0 or at_index + max(delays) + window > b.size:
        raise InvalidArgumentError("some delays push the window outside the second trace")
    wa = a[at_index : at_index + window]
    out = []
    for d in delays:
        wb = b[at_index + d : at_index + d + window]
        out.append((d, float((wa + wb).var(ddof=1)), float((wa - wb).var(ddof=1))))
    return out


def dip_fwhm(delays, values) -> float:
    """Full width at half maximum of a dip, in units of the delay axis.

    The baseline is the median of the outer quarter of points (far delays);
    the half level is midway between baseline and minimum, and the two
    crossings are located by linear interpolation.  Raises if either flank
    never recovers to the half level (dip not resolved).  For a peak, pass
    negated values.
    """
    d = np.asarray(delays, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if d.size != v.size or d.size < 5:
        raise InvalidArgumentError("need at least 5 (delay, value) points")
    if np.any(np.diff(d) <= 0):
        raise InvalidArgumentError("delays must be strictly increasing")
    i_min = int(np.argmin(v))
    dist = np.abs(d - d[i_min])
    far = dist >= np.quantile(dist, 0.75)
    baseline = float(np.median(v[far]))
    half = 0.5 * (baseline + v[i_min])
    if not v[i_min] < half < baseline:
        raise DegenerateInputError("dip not resolved against the baseline")

    def crossing(side: int) -> float:
        i = i_min
        while 0 <= i + side < d.size and v[i + side] < half:
            i += side
        if not 0 <= i + side < d.size:
            raise DegenerateInputError("dip flank never recovers to half level")
        frac = (half - v[i]) / (v[i + side] - v[i])
        return d[i] + frac * (d[i + side] - d[i])

    return crossing(+1) - crossing(-1)


def analysis_report(
    q1,
    q2,
    sn1,
    sn2,
    window: int | None = None,
    max_delay: int = 25,
    quadrature_rate: float = 1.25e8,
) -> dict:
    """Delay search + alignment + squeezing report + coherence-dip width.

    The end-to-end analysis behind the CLI: returns a dict with keys
    optimal_delay, squeezing_db, antisqueezing_db, error_db, fwhm_samples
    (the last in quadrature samples; None when no dip is resolvable, e.g.
    vacuum input) plus fwhm_ns for convenience.
    """
    a, b = _as_1d(q1, "q1"), _as_1d(q2, "q2")
    search_window = window or default_window(a.size - 2 * max_delay)
    delay, _ = delay_search(a, b, max_delay, search_window)
    a1, b1 = align(a, b, delay, max_delay)
    report = squeezing_report(a1, b1, sn1, sn2, window)

    # Coherence dip: single-window variance scan around the trace midpoint.
    fwhm = None
    # w_dip leaves 2 * DIP_DELAY_SPAN samples for the scan's delays, so it always fits
    w_dip = min(window or 30_000, a1.size - 2 * DIP_DELAY_SPAN)
    if w_dip >= 2:
        at = (a1.size - w_dip) // 2
        delays = range(-DIP_DELAY_SPAN, DIP_DELAY_SPAN + 1)
        scan = variance_vs_delay(a1, b1, w_dip, at, delays)
        d_axis = [row[0] for row in scan]
        v_plus = np.array([row[1] for row in scan])
        v_minus = np.array([row[2] for row in scan])
        dip = v_plus if v_plus.min() <= v_minus.min() else v_minus
        try:
            fwhm = dip_fwhm(d_axis, dip)
        except DegenerateInputError:
            fwhm = None

    report.update(
        {
            "optimal_delay": int(delay),
            "fwhm_samples": fwhm,
            "fwhm_ns": None if fwhm is None else fwhm / quadrature_rate * 1e9,
        }
    )
    return report
