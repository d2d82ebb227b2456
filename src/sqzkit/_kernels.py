"""Rolling-variance kernel, and `run_both`, which synthesis uses to run its
two detector channels on two threads.

`rolling_variance` is the variance of the sliding windows of one trace:
vectorized numpy over prefix sums of anchor-subtracted values, restarted
every `RENORM_INTERVAL` output points so rounding error cannot accumulate
over long traces.  Subtracting an anchor (the trace value at the start of
each renormalization block) is the shifted-data method of Chan, Golub &
LeVeque, Am. Stat. 37 (1983); it also makes a constant input produce
exactly zero variance.  Each block takes one prefix sum of the differences
and one of their squares, `_RUN` samples at a time, and keeps them only
where its windows start and end, so a window as long as the trace costs no
scratch of its length.

`run_both` runs two callables at once, one on a thread it starts and joins
before it returns.  numpy's random generators, its FFT and its array loops
release the interpreter lock, so the two independent detector channels use
two cores.  Large buffers are allocated on the calling thread and the
second thread only fills them (``out=``): a buffer freed on that thread
would stay cached in its malloc arena and raise the process's peak memory.
The thread drops its task before `join` returns, so what a task reaches is
freed on the calling thread as well.
"""

import threading

import numpy as np

from .errors import InvalidArgumentError

RENORM_INTERVAL = 100_000
#: `rolling_variance` adds its prefix sums this many samples at a time.
_RUN = 65_536


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


def check_window(n: int, window) -> int:
    """`window` as an int, if `rolling_variance` takes it for n samples."""
    window = int(window)
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if window > n:
        raise InvalidArgumentError(f"window {window} exceeds trace length {n}")
    return window


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("expected a 1-D sample array")
    window = check_window(x.size, window)
    m = x.size - window + 1
    out = np.empty(m)
    k_max = min(RENORM_INTERVAL, m)
    ends = np.empty((2, 2, k_max))
    run = np.empty((2, min(k_max + window - 1, _RUN) + 1))
    for i0 in range(0, m, RENORM_INTERVAL):
        k = min(RENORM_INTERVAL, m - i0)
        (lo, hi), (lo_sq, hi_sq) = _prefix_ends(x[i0 : i0 + k + window - 1], window, ends[:, :, :k], run)
        # (sum of squares - sum * sum / window) / (window - 1)
        var = out[i0 : i0 + k]
        np.subtract(hi_sq, lo_sq, out=var)
        s = np.subtract(hi, lo, out=lo)
        s *= s
        s /= window
        var -= s
        var /= window - 1.0
    return np.maximum(out, 0.0, out=out)


def _prefix_ends(x, window, ends, run):
    """The prefix sums P of d = x - x[0] (P[i] = d[0] + ... + d[i - 1], added
    in order) and Q of d * d where the k = ends.shape[2] windows start and
    end: ends[0] = (P[:k], P[window : window + k]) and ends[1] the same of Q.

    The sums run `_RUN` samples at a time through `run`, whose first column
    carries each running total into the next stretch, so the additions are
    those of one cumsum, and the scratch does not grow with the window.
    """
    k = ends.shape[2]
    run[:, 0] = 0.0
    for j0 in range(0, x.size, run.shape[1] - 1):
        j1 = min(j0 + run.shape[1] - 1, x.size)
        part = run[:, : j1 - j0 + 1]  # P[j0 : j1 + 1] and Q[j0 : j1 + 1]
        np.subtract(x[j0:j1], x[0], out=part[0, 1:])
        np.multiply(part[0, 1:], part[0, 1:], out=part[1, 1:])
        np.cumsum(part, axis=1, out=part)
        for side, lo in enumerate((0, window)):
            a, b = max(lo, j0), min(lo + k, j1 + 1)
            if a < b:
                ends[:, side, a - lo : b - lo] = part[:, a - j0 : b - j0]
        run[:, 0] = part[:, -1]
    return ends
