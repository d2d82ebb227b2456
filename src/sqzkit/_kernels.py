"""Rolling-statistics kernel, and `run_both`, which runs half of it on a
second thread.

The kernel has two entry points: `shifted_covariances`, the covariances of
the sliding windows of one trace with those of a second trace at each of a
set of shifts, for the delay search; and `rolling_variance`, the variance
of the sliding windows of one trace.  Both are vectorized numpy over
prefix sums of anchor-subtracted values, restarted every `RENORM_INTERVAL`
output points so rounding error cannot accumulate over long traces.
Subtracting an anchor (a trace value at the start of each renormalization
block) is the shifted-data method of Chan, Golub & LeVeque, Am. Stat. 37
(1983); it also makes a constant input produce exactly zero variance.  An
anchor a few samples (a shift) away from the block start keeps that property,
so one anchor and one prefix sum per trace and block serve a whole set of
shifts of the second trace, and the second trace's window sums are taken once
per block over every shift, each shift reading a slice of them.  A variance
is the diagonal of that loop: the trace's own differences, prefix sum and
window sums stand in for the second trace's, its differences are squared in
place, and each block is written straight into the output, so it builds one
set of block sums where a covariance builds two.

`run_both` runs two callables at once, one on a thread it starts and joins
before it returns.  numpy's random generators, its FFT and its array loops
release the interpreter lock, so the two independent detector channels, or
two halves of a set of shifts, use two cores.  Large buffers are allocated
on the calling thread and the second thread only fills them (``out=``): a
buffer freed on that thread would stay cached in its malloc arena and raise
the process's peak memory.  The thread drops its task before `join`
returns, so what a task reaches is freed on the calling thread as well.

The public functions validate their arguments; the block loop runs
unchecked.
"""

import threading

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError

RENORM_INTERVAL = 100_000


def run_both(first, second):
    """``(first(), second())``, with `first` run on a new thread.

    The thread has been joined when this returns or raises, and an exception
    raised by `first` is re-raised here.
    """
    outcome = []

    def task():
        try:
            outcome.append((first(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=task, name="sqzkit-run-both")
    thread.start()
    try:
        mine = second()
    finally:
        thread.join()
    theirs, exc = outcome.pop()
    if exc is not None:
        raise exc
    return theirs, mine


def _as_f64(x) -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError("expected a 1-D sample array")
    return a


def _check_window(window, n: int) -> int:
    window = int(window)
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if window > n:
        raise InvalidArgumentError(f"window {window} exceeds trace length {n}")
    return window


class _Lane:
    """Per-thread scratch of the block loop, sized for one block."""

    def __init__(self, block: int, window: int):
        self.prod = np.empty(block + window - 1)
        self.sxy = np.zeros(block + window)
        self.cov = np.empty(block)
        self.spare = np.empty(block)


def shifted_covariances(x, y, window: int, shifts, reduce) -> None:
    """Covariance of x[i : i+window] with y[i+s : i+s+window], for every
    output point i in [0, len(x) - window] and every shift s in `shifts`.

    Results go out one renormalization block at a time: for each block
    starting at output point i0 and each shift index j, ``reduce(j, i0, cov,
    spare)`` gets the block's covariances for ``shifts[j]`` in `cov`, and
    `spare`, a buffer of the same length.  Both are scratch that `reduce`
    may overwrite and that the next call reuses.  Each block anchors x at
    x[i0] and y at y[i0 + shifts[0]] and builds one prefix sum and the
    window sums of each, y's over every shift at once; every shift then
    costs one product and one cumulative sum.  With more than one shift,
    the shifts are split in two halves and the first half is reduced on a
    second thread, so `reduce` is called from two threads at once, never
    for the same j.
    """
    x, y = _as_f64(x), _as_f64(y)
    window = _check_window(window, x.size)
    shifts = [int(s) for s in shifts]
    if not shifts or min(shifts) < 0:
        raise InvalidArgumentError("shifts must be a non-empty set of integers >= 0")
    s_hi = max(shifts)
    if y.size < x.size + s_hi:
        raise DimensionMismatchError(
            f"y has {y.size} samples; shift {s_hi} of {x.size} needs {x.size + s_hi}"
        )
    _block_loop(x, window, y, shifts, reduce)


def _block_loop(x, window: int, y=None, shifts=None, reduce=None, out=None) -> None:
    """`shifted_covariances` on checked arguments or, with `y` None, the
    variance of every window of x, written block by block into `out`.

    The variance takes the covariance path with x in the place of y: x's
    differences, prefix sum and window sums serve for both, and the
    differences are squared in place once their prefix sum is taken."""
    m = x.size - window + 1
    block = min(RENORM_INTERVAL, m)
    denom = window - 1.0
    dx = np.empty(block + window - 1)
    sx = np.zeros(dx.size + 1)
    sums_x = np.empty(block)
    if y is not None:
        s_lo = min(shifts)
        span = max(shifts) - s_lo
        dy = np.empty(block + window - 1 + span)
        sy = np.zeros(dy.size + 1)
        sums_y = np.empty(block + span)
        half = (len(shifts) + 1) // 2
        lanes = [
            (indices, _Lane(block, window))
            for indices in (range(half), range(half, len(shifts)))
            if indices
        ]

    def reduce_lane(indices, lane, i0, k):
        nx = k + window - 1
        prod, sxy, cov, spare = lane.prod[:nx], lane.sxy, lane.cov[:k], lane.spare[:k]
        for j in indices:
            o = shifts[j] - s_lo
            np.multiply(dx[:nx], dy[o : o + nx], out=prod)
            np.cumsum(prod, out=sxy[1 : nx + 1])
            # (sum xy - sum x * sum y / window) / (window - 1)
            np.subtract(sxy[window : window + k], sxy[:k], out=cov)
            np.multiply(sums_x[:k], sums_y[o : o + k], out=spare)
            spare /= window
            cov -= spare
            cov /= denom
            reduce(j, i0, cov, spare)

    for i0 in range(0, m, RENORM_INTERVAL):
        k = min(RENORM_INTERVAL, m - i0)
        nx = k + window - 1
        np.subtract(x[i0 : i0 + nx], x[i0], out=dx[:nx])
        np.cumsum(dx[:nx], out=sx[1 : nx + 1])
        np.subtract(sx[window : window + k], sx[:k], out=sums_x[:k])
        if y is None:
            # the covariance arithmetic of `reduce_lane`, x's sums standing in for y's
            squares, cov, sq_sums = dx[:nx], out[i0 : i0 + k], sums_x[:k]
            squares *= squares
            np.cumsum(squares, out=sx[1 : nx + 1])
            np.subtract(sx[window : window + k], sx[:k], out=cov)
            sq_sums *= sq_sums
            sq_sums /= window
            cov -= sq_sums
            cov /= denom
            continue
        ny, ky = nx + span, k + span
        np.subtract(y[i0 + s_lo : i0 + s_lo + ny], y[i0 + shifts[0]], out=dy[:ny])
        np.cumsum(dy[:ny], out=sy[1 : ny + 1])
        np.subtract(sy[window : window + ky], sy[:ky], out=sums_y[:ky])
        if len(lanes) == 1:
            reduce_lane(*lanes[0], i0, k)
        else:
            run_both(lambda: reduce_lane(*lanes[0], i0, k), lambda: reduce_lane(*lanes[1], i0, k))


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    x = _as_f64(x)
    out = np.empty(x.size - _check_window(window, x.size) + 1)
    _block_loop(x, window, out=out)
    return np.maximum(out, 0.0, out=out)
