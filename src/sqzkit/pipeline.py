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

`analyze_traces` runs all five steps on the four raw traces of one
measurement, signal 1, signal 2, shot noise 1 and shot noise 2; ``sqzkit
analyze`` is that call.  It reads the traces in passes, a chunk at a time,
and keeps running sums, tile moments and two short windows, never a series
as long as a trace, so its memory does not grow with the duration:

- *Pass 1* reads each trace in turn, with every check, and reduces each
  chunk (steps 1 and 2) as it arrives; a shot-noise trace also keeps the
  running sums that calibrate its detector (step 3).  Where one chunk's
  averages are all of the trace's, as for a CSV file or an array, the
  trace is in memory anyway, so they are kept and normalized in place.
  Any other trace, such as a float32 file, keeps only its length and is
  read again in each later pass.
- *Pass 2* (`delay_search`) reads the signal pair in lockstep into the
  per-tile moments of the delay objective (step 4).
- *Pass 3* (`squeezing_report`) reads the aligned signal pair, then the
  shot-noise pair, as sums and differences into running sums: each
  reference variance; the extrema of each combination's rolling variances
  (`RollingVariance`), of which a full-length window has one; and, for a
  rolling window, the sums of the reference's, for the error bar (step 5).
  Its read of the aligned pair fills the two windows the coherence-dip
  scan needs.
- With a series file, one more pass streams the four rolling-variance
  series into it.

The other public functions take plain float arrays (volts or quadrature
units), reading an array in place, or the series pass 1 makes; reading
trace files lives in `traceio`.  Every statistic is made of running sums,
which `_kernels.prefix_sums` alone adds, in order and less an anchor, so a
file, an array and any chunking give the same bits.  Unbiased (n-1)
variance is used everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._atomic import check_writable
from ._kernels import _RUN, RollingVariance, check_int, prefix_sums
from ._kernels import rolling_variance  # re-exported
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
#: The squeezing report and the series file take each series this many
#: values at a time, and the delay search its tiles in groups of about as
#: many samples.
_STEP = 16_384


def default_window(n_points: int) -> int:
    """Rolling window for `n_points` aligned points when the caller chose none:
    `DEFAULT_WINDOW`, cut to a quarter of the points, and never below 2."""
    return max(2, min(DEFAULT_WINDOW, n_points // 4))


def _as_1d(x, name="trace") -> np.ndarray:
    a = np.asarray(getattr(x, "q", x), dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional")
    return a


class _Series:
    """A quadrature series that the analysis reads from its start, as often
    as it needs: `pieces()` yields its values anew, in order, each time.

    A series held in memory (`of`) yields its array, read in place.  A slice
    is read through its series, and a `capture` is a buffer filled as the
    next read goes by.
    """

    def __init__(self, n: int, read):
        self.n, self._read, self._captures = n, read, []

    @classmethod
    def of(cls, q: np.ndarray) -> "_Series":
        return cls(q.size, lambda: [q])

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, span: slice) -> "_Series":
        lo, hi, _ = span.indices(self.n)
        hi = max(lo, hi)
        return _Series(hi - lo, lambda: _restrict(self.pieces(), lo, hi))

    def capture(self, lo: int, hi: int) -> np.ndarray:
        """The values [lo, hi), once the next read has gone by."""
        buf = np.empty(hi - lo)
        self._captures.append((lo, buf))
        return buf

    def pieces(self):
        at, captures, self._captures = 0, self._captures, []
        for piece in self._read():
            for lo, buf in captures:
                a, b = max(lo, at), min(lo + buf.size, at + piece.size)
                if a < b:
                    buf[a - lo : b - lo] = piece[a - at : b - at]
            at += piece.size
            yield piece


def _restrict(pieces, lo: int, hi: int):
    """The values [lo, hi) of a series whose `pieces` are given."""
    at = 0
    for piece in pieces:
        a, b = max(lo - at, 0), min(hi - at, piece.size)
        if a < b:
            yield piece[a:b]
        at += piece.size
        if at >= hi:
            return


def _series(x, name: str) -> _Series:
    return x if isinstance(x, _Series) else _Series.of(_as_1d(x, name))


class _Reader:
    """Takes a series from its start, any number of values at a time: a view
    where they lie in one piece, else a copy.  What it returns is read-only
    to the caller, which may hold a view of an input array."""

    def __init__(self, series: _Series):
        self._pieces = series.pieces()
        self._piece, self._at = np.empty(0), 0

    def take(self, k: int) -> np.ndarray:
        parts = []
        while True:
            part = self._piece[self._at : self._at + k]
            self._at += part.size
            k -= part.size
            if part.size:
                parts.append(part)
            if not k:
                break
            self._piece, self._at = next(self._pieces), 0
        return parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0)])


def _sums_and_differences(x: _Series, y: _Series):
    """x + y and x - y of two series of one length, `_STEP` values at a time."""
    rx, ry = _Reader(x), _Reader(y)
    for i in range(0, len(x), _STEP):
        a, b = (r.take(min(_STEP, len(x) - i)) for r in (rx, ry))
        yield a + b, a - b


class _Sums:
    """The sums P of d = x - x0 and Q of d * d over a series taken a piece
    at a time, x0 its first value, added by `prefix_sums`, `_RUN` values at
    a time.  The mean is x0 + P / n and the unbiased variance
    (Q - P * P / n) / (n - 1), which is `rolling_variance` of a window as
    long as the series, bit for bit, however the series is cut into pieces."""

    def __init__(self):
        self.n, self.anchor, self.sums = 0, 0.0, np.zeros(2)

    def add(self, x: np.ndarray) -> None:
        if x.size and not self.n:
            self.anchor = float(x[0])
        for i in range(0, x.size, _RUN):  # bounded scratch
            part = x[i : i + _RUN]
            prefix_sums(part, self.anchor, self.sums, np.empty((2, part.size + 1)))
        self.n += x.size

    def mean(self) -> float:
        return self.anchor + float(self.sums[0]) / self.n

    def var(self) -> float:
        p, q = self.sums.tolist()
        return (q - p * p / self.n) / (self.n - 1)


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
        sums = _Sums()
        sums.add(_as_1d(v, "shot-noise samples"))
        return cls._of(sums)

    @classmethod
    def _of(cls, sums: _Sums) -> "ShotNoiseStats":
        """The stats of the averages whose `_Sums` a read gathered."""
        if sums.n < 2:
            raise InvalidArgumentError("need at least 2 samples for shot-noise stats")
        return cls(sums.mean(), sums.var(), sums.n)


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


def _check_settings(window=None, max_delay=0, fraction=0.0) -> None:
    """InvalidArgumentError unless `window` is None or an integer >= 2,
    `max_delay` an integer >= 0 and `fraction` a real number (not a bool)
    in [0, 1)."""
    if window is not None:
        check_int(window, "window", 2)
    check_int(max_delay, "max_delay", 0)
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real):
        raise InvalidArgumentError(f"fraction must be a real number, got {fraction!r}")
    if not 0.0 <= fraction < 1.0:
        raise InvalidArgumentError("fraction must be in [0, 1)")


def _layout(n_samples: int, fraction: float) -> tuple[int, int, int]:
    """(averages, start, cut) of a trace of n_samples raw samples, whose
    central `fraction` is [start, start + cut)."""
    _check_settings(fraction=fraction)
    cut = int(round(n_samples * fraction))
    if cut >= n_samples:
        raise InvalidArgumentError("discard region covers the whole trace")
    n = (n_samples - cut) // RAW_PER_QUADRATURE
    if n == 0:
        raise InvalidArgumentError("trace too short to average")
    return n, (n_samples - cut) // 2, cut


def _average_pieces(raw_samples, n_samples: int, layout):
    """Yield, for each chunk of `raw_samples` (1-D arrays holding the
    trace's n_samples samples in order), a new array of the averages it
    completes.

    Groups of 4 that lie in one chunk, on one side of the cut, are summed
    by `_sum4`; a group that straddles a chunk boundary or the cut is summed
    on its own, in the same order, so each mean is that of
    ``reshape(-1, 4).mean(axis=1)`` over the kept samples, bit for bit.
    """
    _, start, cut = layout

    def groups(at):  # the groups the kept samples among the first `at` complete
        return (min(at, start) + max(at - start - cut, 0)) // RAW_PER_QUADRATURE

    group, at = [], 0  # the samples of the open group, samples taken
    for chunk in raw_samples:
        chunk = _as_1d(chunk, "chunk")
        if at + chunk.size > n_samples:
            raise InvalidArgumentError(f"the chunks hold more than {n_samples} samples")
        k0, k1 = groups(at), groups(at + chunk.size)
        piece = np.empty(k1 - k0)
        k = 0
        # the kept samples of the chunk: those before the cut, then those after it
        for part in (chunk[: max(start - at, 0)], chunk[max(start + cut - at, 0) :]):
            if group:
                need = RAW_PER_QUADRATURE - len(group)
                group += part[:need].tolist()
                if len(group) < RAW_PER_QUADRATURE:
                    continue
                piece[k] = ((group[0] + group[1]) + group[2]) + group[3]
                k += 1
                part = part[need:]
            whole = part.size // RAW_PER_QUADRATURE
            _sum4(part[: RAW_PER_QUADRATURE * whole], piece[k : k + whole])
            k += whole
            group = part[RAW_PER_QUADRATURE * whole :].tolist()
        at += chunk.size
        piece /= RAW_PER_QUADRATURE
        yield piece
    if at < n_samples:
        raise InvalidArgumentError(f"the chunks hold {at} samples, not {n_samples}")


def discard_average4(raw_samples, fraction: float) -> np.ndarray:
    """The mean of every 4 consecutive samples (a trailing remainder dropped)
    of the array `raw_samples` with its central `fraction` dropped, without
    copying the kept samples into one array first: the one reduction a raw
    trace goes through.  `shot_noise_stats` and `raw_to_quadratures` are
    this followed by `ShotNoiseStats.from_samples` and `normalize`, and
    `analyze_traces` does all three for a measurement's four traces, each
    chunk of a trace reduced as it arrives (`_average_pieces`)."""
    raw = _as_1d(raw_samples)
    (averages,) = _average_pieces([raw], raw.size, _layout(raw.size, fraction))
    return averages


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
    v = discard_average4(raw_samples, fraction)
    return normalize(v, sn, sample_rate / RAW_PER_QUADRATURE, out=v)


def _delay_candidates(max_delay: int):
    yield 0
    for k in range(1, max_delay + 1):
        yield -k
        yield k


def _tile_groups(n_tiles: int, window: int) -> list[int]:
    """Where the delay search's groups of tiles start, then n_tiles: about
    `_STEP` samples a group, and never one tile alone unless there is only
    one, since numpy's row-wise sum of products can round a lone row's sum
    differently."""
    rows = max(2, _STEP // window)
    bounds = [*range(0, n_tiles, rows), n_tiles]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def _delay_objectives(a, b, max_delay: int, window: int):
    """[(delay, objective)] for every candidate delay, in `_delay_candidates`
    order, from one read of q1 and q2 (arrays or series of one length).

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
    with b's windows as they lie; b's window variances come from its prefix
    sums and those of its squares, read where the windows start and end.
    Windows where var a + var b_d is not positive contribute zero.

    The two series are read in lockstep, a group of tiles at a time
    (`_tile_groups`), and each group's contrasts are added to the running
    totals, so what is held does not grow with the trace.  Of b, a group
    keeps for the next the 2 * max_delay samples they share, and the prefix
    sums there: the sums carry their running totals from one stretch to the
    next, so they are those of one cumulative sum.  Reading both to the end
    gives their ranges: a constant trace raises DegenerateInputError, then
    traces too short for one window with every delay raise
    InvalidArgumentError.
    """
    a, b = _series(a, "q1"), _series(b, "q2")
    n = len(a)
    fits = n - window + 1 > 2 * max_delay
    n_tiles = (n - 2 * max_delay) // window if fits else 0
    delays = list(_delay_candidates(max_delay))
    # where each candidate's first window of b starts in a group's span of b
    offsets = [max_delay + d for d in delays]
    totals = np.zeros(len(delays))  # each candidate's contrasts, summed
    ranges = [[math.inf, -math.inf], [math.inf, -math.inf]]

    def seen(k, x):
        if x.size:
            ranges[k] = [min(ranges[k][0], float(x.min())), max(ranges[k][1], float(x.max()))]

    ra, rb = _Reader(a), _Reader(b)
    a_at, b_at = min(max_delay, n), 0  # the values taken of each
    seen(0, ra.take(a_at))
    shared = np.empty(0)  # b - b0 over the span this group shares with the last
    prefix = np.zeros((2, 1))  # b's two prefix sums from where the shared span starts
    carry = np.zeros(2)  # their last column
    bounds = _tile_groups(n_tiles, window)
    for g0, g1 in zip(bounds, bounds[1:]):
        tiles_a = ra.take((g1 - g0) * window)
        # b up to where this group's last window can end
        fresh = rb.take(g1 * window + 2 * max_delay - b_at)
        seen(0, tiles_a)
        seen(1, fresh)
        if g0 == 0:
            a0, b0 = tiles_a[0], fresh[max_delay]
        fresh = fresh - b0
        run = np.empty((2, fresh.size + 1))
        prefix_sums(fresh, 0.0, carry, run)
        prefix = np.concatenate([prefix, run[:, 1:]], axis=1)
        # b - b0 over [g0 * window, g1 * window + 2 * max_delay)
        span = np.concatenate([shared, fresh])
        a_at, b_at = a_at + tiles_a.size, b_at + fresh.size

        tiles = (tiles_a - a0).reshape(-1, window)
        tiles -= tiles.mean(axis=1, keepdims=True)
        edges = np.add.outer(offsets, np.arange(tiles.shape[0] + 1) * window)
        sums = np.diff(prefix[0, edges], axis=1)
        var_sums = np.diff(prefix[1, edges], axis=1)  # var b_d, then var a + var b_d
        var_sums -= sums * sums / window
        var_sums += np.einsum("ij,ij->i", tiles, tiles)
        covs = np.empty_like(var_sums)
        for j, offset in enumerate(offsets):
            tiles_b = span[offset : offset + tiles.size].reshape(-1, window)
            np.einsum("ij,ij->i", tiles, tiles_b, out=covs[j])
        np.abs(covs, out=covs)
        contrast = np.divide(covs, var_sums, out=np.zeros_like(covs), where=var_sums > 0.0)
        totals += contrast.sum(axis=1)
        shared = span[span.size - 2 * max_delay :].copy()
        prefix = prefix[:, prefix.shape[1] - 2 * max_delay - 1 :].copy()
    for reader, k, left in ((ra, 0, n - a_at), (rb, 1, n - b_at)):
        for i in range(0, left, _STEP):
            seen(k, reader.take(min(_STEP, left - i)))

    if n and (ranges[0][0] == ranges[0][1] or ranges[1][0] == ranges[1][1]):
        raise DegenerateInputError("constant trace carries no delay information")
    if not fits:
        raise InvalidArgumentError(f"traces too short for window {window} with max_delay {max_delay}")
    return list(zip(delays, (2.0 * totals / n_tiles).tolist()))


def delay_search(q1, q2, max_delay: int, window: int) -> tuple[int, float]:
    """Find the relative delay (in quadrature samples) between two detectors.

    For every candidate delay d in [-max_delay, +max_delay], q2 is shifted by
    d and scored by the mean visibility |V+ - V-| / (V+ + V-) of the variances
    of q1+q2 and q1-q2 over non-overlapping windows of `window` samples, the
    same windows of q1 for every candidate (see `_delay_objectives`).  Returns
    (best delay, its objective); ties break toward smaller |d|, then the
    negative one.  Runs on the calling thread, in one read of both traces.
    """
    a, b = _series(q1, "q1"), _series(q2, "q2")
    if len(a) != len(b):
        raise DimensionMismatchError(f"trace lengths differ ({len(a)} vs {len(b)})")
    max_delay, window = check_int(max_delay, "max_delay", 0), check_int(window, "window", 2)
    best_d, best_obj = 0, -1.0
    for d, obj in _delay_objectives(a, b, max_delay, window):
        if obj > best_obj:
            best_d, best_obj = d, obj
    return best_d, best_obj


def align(q1, q2, delay: int, max_delay: int):
    """Apply a found delay, trimming `max_delay` points off both ends.

    The trim is delay-independent so every candidate in [-max_delay,
    +max_delay] maps onto the same index set; output length is
    len(q) - 2*max_delay for any accepted delay.  Returns read-only views
    of input arrays, not copies; of the series `analyze_traces` reads, the
    same spans of them.
    """
    a, b = (x if isinstance(x, _Series) else _as_1d(x, name) for x, name in ((q1, "q1"), (q2, "q2")))
    if len(a) != len(b):
        raise DimensionMismatchError(f"trace lengths differ ({len(a)} vs {len(b)})")
    delay, max_delay = check_int(delay, "delay"), check_int(max_delay, "max_delay")
    if abs(delay) > max_delay:
        raise InvalidArgumentError(f"|delay| {abs(delay)} exceeds max_delay {max_delay}")
    if len(a) <= 2 * max_delay:
        raise InvalidArgumentError("trace shorter than the alignment trim")
    lo, hi = max_delay, len(a) - max_delay
    a, b = a[lo:hi], b[lo + delay : hi + delay]
    for x in (a, b):
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
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

    Each rolling series (`RollingVariance`), a full-length window included,
    checks its window before either pair is read.  The signal pair is read
    once, then the shot-noise pair, as sums and differences `_STEP` values
    at a time (`_sums_and_differences`); each reference variance is kept as
    running sums (`_Sums`), each rolling series as its extrema or its sums.
    """
    a, b = _series(q1, "q1"), _series(q2, "q2")
    ra, rb = _series(sn1, "sn1"), _series(sn2, "sn2")
    n, n_ref = len(a), len(ra)
    if n != len(b) or n_ref != len(rb):
        raise DimensionMismatchError("combination partners must have equal lengths")
    if min(n, n_ref) < 2:
        raise InvalidArgumentError("traces too short")

    w_sig, w_ref = (n, n_ref) if window is None else (window, window)
    signal = [RollingVariance(n, w_sig) for _ in range(2)]
    spread = None if w_ref == n_ref else [RollingVariance(n_ref, w_ref) for _ in range(2)]
    refs, spread_sums = [_Sums(), _Sums()], [_Sums(), _Sums()]
    lows, highs = [math.inf, math.inf], [-math.inf, -math.inf]
    for pair in _sums_and_differences(a, b):
        for c, combined in enumerate(pair):
            for v in signal[c].add(combined):
                lows[c], highs[c] = min(lows[c], float(v.min())), max(highs[c], float(v.max()))
    for pair in _sums_and_differences(ra, rb):
        for c, combined in enumerate(pair):
            refs[c].add(combined)
            for v in spread[c].add(combined) if spread else []:
                spread_sums[c].add(v)

    min_ratio, max_ratio, spreads = math.inf, -math.inf, []
    for c in (0, 1):
        ref = refs[c].var()
        if ref <= 0.0:
            raise DegenerateInputError("shot-noise reference variance is zero")
        min_ratio = min(min_ratio, lows[c] / ref)
        max_ratio = max(max_ratio, highs[c] / ref)
        spreads.append(0.0 if spread is None else math.sqrt(max(spread_sums[c].var(), 0.0)) / ref)

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
    delays = [check_int(d, "delay") for d in delays]
    if not delays:
        raise InvalidArgumentError("need at least one delay")
    window, at_index = check_int(window, "window", 2), check_int(at_index, "at_index")
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


def _quantile(x, q: float) -> float:
    """np.quantile(x, q), by numpy's default 'linear' method and in its
    arithmetic, bit for bit.  np.quantile and np.median import numpy.ma,
    which costs `analyze` 12-18 ms and 1.3 MiB."""
    s = np.sort(x)
    if np.isnan(s[-1]):  # a NaN sorts last, and makes the quantile NaN
        return math.nan
    v = (s.size - 1) * q
    i = math.floor(v)
    if i >= s.size - 1:
        return float(s[-1])
    a, b, t = s[i], s[i + 1], v - i
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _median(x) -> float:
    """np.median(x), bit for bit, without numpy.ma (see `_quantile`)."""
    s = np.sort(x)
    if s.size == 0 or np.isnan(s[-1]):
        return math.nan
    m = s.size // 2
    return float(s[m] if s.size % 2 else np.mean(s[m - 1 : m + 1]))


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
    far = dist >= _quantile(dist, 0.75)
    baseline = _median(v[far])
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
    vacuum input) plus fwhm_ns for convenience.  The four inputs are
    arrays, read in place, or the series `analyze_traces` reads; `window`
    and `max_delay` are checked before any of them is read.
    """
    _check_settings(window, max_delay)
    a, b = _series(q1, "q1"), _series(q2, "q2")
    search_window = window or default_window(len(a) - 2 * max_delay)
    delay, _ = delay_search(a, b, max_delay, search_window)
    a1, b1 = align(a, b, delay, max_delay)
    # Coherence dip: a single-window variance scan around the midpoint of the
    # aligned pair, over two windows that the squeezing report's read of the
    # pair fills.  w_dip leaves 2 * DIP_DELAY_SPAN samples for the scan's
    # delays, so it always fits.
    w_dip = min(window or 30_000, len(a1) - 2 * DIP_DELAY_SPAN)
    if w_dip >= 2:
        at = (len(a1) - w_dip) // 2 - DIP_DELAY_SPAN
        dip_a, dip_b = (x.capture(at, at + w_dip + 2 * DIP_DELAY_SPAN) for x in (a1, b1))
    report = squeezing_report(a1, b1, sn1, sn2, window)

    fwhm = None
    if w_dip >= 2:
        delays = range(-DIP_DELAY_SPAN, DIP_DELAY_SPAN + 1)
        scan = variance_vs_delay(dip_a, dip_b, w_dip, DIP_DELAY_SPAN, delays)
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


def _calibrated(traces, fraction: float, names) -> tuple[list[_Series], float]:
    """Pass 1 of `analyze_traces`: the four traces as normalized series, and
    their quadrature rate.  Each trace is read to its end, with its checks,
    before the next is taken from `traces`."""
    if len(names) != 4:
        raise InvalidArgumentError(f"need four names, got {len(names)}")
    traces, taken, stats = iter(traces), [], []
    for k, (name, trace) in enumerate(zip(names, traces)):
        read = trace if callable(trace) else _in_memory(*trace)
        chunks, n, trace_rate = read()
        # A trace whose averages all come from one chunk is in memory whole,
        # so they are kept; any other is read again for each later pass.
        sums, fault, averages = _Sums(), None, None
        try:
            layout = _layout(n, fraction)
            for piece in _average_pieces(chunks, n, layout):
                if piece.size == layout[0]:
                    averages = piece
                if k >= 2:
                    sums.add(piece)
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
                stats.append(ShotNoiseStats._of(sums))
            except InvalidArgumentError as exc:  # constant shot noise
                fault = exc
        if fault is not None:
            raise ScenarioFormatError(f"{name}: {fault}") from fault
        taken.append((name, read, n, layout, averages))
    if len(taken) != 4:
        raise InvalidArgumentError(f"need four traces, got {len(taken)}")
    if next(traces, None) is not None:
        raise InvalidArgumentError("need four traces, got more")
    series = []
    for (name, read, n, layout, averages), sn in zip(taken, stats * 2):
        if averages is not None:
            series.append(_Series.of(normalize(averages, sn, out=averages).q))
        else:
            series.append(_Series(layout[0], _rereader(name, read, n, layout, sn)))
    return series, rate / RAW_PER_QUADRATURE


def _in_memory(volts, sample_rate):
    return lambda: ([volts], np.size(volts), sample_rate)


def _rereader(name, read, n, layout, sn):
    """The normalized averages of a trace, read again."""

    def pieces():
        chunks, n_again, _ = read()
        if n_again != n:
            raise ScenarioFormatError(f"{name}: {n_again} samples, {n} when first read")
        for v in _average_pieces(chunks, n, layout):
            yield normalize(v, sn, out=v).q

    return pieces


def _write_series(path, series, window, max_delay: int, delay: int, quadrature_rate: float) -> None:
    """The rolling variances of both combinations of the aligned signal pair,
    and of the shot-noise pair trimmed as the signal, written as CSV
    (`traceio.write_analysis_csv`) as the two pairs are read side by side."""
    from . import traceio

    a, b = align(series[0], series[1], delay, max_delay)
    s1, s2 = (s[max_delay : len(series[2]) - max_delay] for s in series[2:])
    w = window or default_window(len(a))
    rolls = [RollingVariance(len(a), w) for _ in range(4)]

    def blocks():
        rows = 0
        for signal, shot_noise in zip(_sums_and_differences(a, b), _sums_and_differences(s1, s2)):
            done = [roll.add(c) for roll, c in zip(rolls, (*signal, *shot_noise))]
            for columns in zip(*done):  # the four complete their values together
                time_ms = np.arange(rows, rows + columns[0].size) / quadrature_rate * 1e3
                rows += columns[0].size
                yield (time_ms, *columns)

    traceio.write_analysis_csv(path, blocks())


def analyze_traces(
    traces,
    *,
    fraction: float,
    window: int | None = None,
    max_delay: int = 25,
    names=None,
    series_out=None,
) -> dict:
    """The report of one measurement from its four raw traces: signal 1,
    signal 2, shot noise 1 and shot noise 2, in that order.

    Each trace is ``(volts, sample_rate)`` for one held in memory, or a
    callable that reads it anew each time it is called and returns
    ``(chunks, n_samples, sample_rate)``, the chunks 1-D arrays that hold
    the trace's samples in order (`traceio.trace_reader` makes one for a
    file).  `traces` is advanced only once the trace before is read to its
    end, and once more after the fourth, to check that it holds no fifth.
    Each trace is checked against the first one's rate and its partner's
    length, each shot-noise trace calibrates its detector, and
    `analysis_report` runs on the four normalized series; the passes are in
    the module docstring.

    Returns `analysis_report`'s dict, then ``window``, ``max_delay``,
    ``n_quadrature_samples`` (of signal 1) and ``quadrature_rate_hz``.  With
    `series_out`, a path, the rolling variances of both combinations and of
    the shot-noise reference are also written there as CSV, over `window`
    samples, or `default_window` of the aligned span for a full window.

    A bad setting, checked before any trace is opened, or `traces` or
    `names` not of four items raises InvalidArgumentError.  A `series_out`
    that cannot be written (`_atomic.check_writable`) raises OSError naming
    it, also before any trace is opened.  A fault in
    trace k raises ScenarioFormatError naming ``names[k]``.  Of one trace's
    faults, what its chunks raise comes first (such as a non-finite sample),
    then its rate, its length, and last what stops its reduction, so a trace
    that cannot be reduced is still read to the end.
    """
    _check_settings(window, max_delay, fraction)
    if series_out is not None:
        check_writable(series_out)
    names = list(names or ("signal 1", "signal 2", "shot noise 1", "shot noise 2"))
    series, rate = _calibrated(traces, fraction, names)
    if series_out is not None and len(series[2]) != len(series[0]):
        raise ScenarioFormatError(
            f"{names[2]}: {len(series[2])} quadrature samples, but {names[0]} has {len(series[0])};"
            " a series file needs one length"
        )
    report = analysis_report(*series, window=window, max_delay=max_delay, quadrature_rate=rate)
    if series_out is not None:
        _write_series(series_out, series, window, max_delay, report["optimal_delay"], rate)
    return {
        **report,
        "window": window,
        "max_delay": max_delay,
        "n_quadrature_samples": len(series[0]),
        "quadrature_rate_hz": rate,
    }
