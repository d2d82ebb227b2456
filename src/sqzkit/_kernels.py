"""Rolling-variance kernel, and `run_both`, which synthesis uses to run half
of its work on a second thread.

`rolling_variance` is the variance of the sliding windows of one trace:
vectorized numpy over prefix sums of anchor-subtracted values, restarted
every `RENORM_INTERVAL` output points so rounding error cannot accumulate
over long traces.  Subtracting an anchor (the trace value at the start of
each renormalization block) is the shifted-data method of Chan, Golub &
LeVeque, Am. Stat. 37 (1983); it also makes a constant input produce
exactly zero variance.  Each block takes one prefix sum of the differences
and one of their squares, both in one buffer, and is written straight into
the output.

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


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("expected a 1-D sample array")
    window = int(window)
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if window > x.size:
        raise InvalidArgumentError(f"window {window} exceeds trace length {x.size}")
    m = x.size - window + 1
    out = np.empty(m)
    block = min(RENORM_INTERVAL, m)
    diffs = np.empty(block + window - 1)
    prefix = np.zeros(diffs.size + 1)
    sums = np.empty(block)
    for i0 in range(0, m, RENORM_INTERVAL):
        k = min(RENORM_INTERVAL, m - i0)
        nx = k + window - 1
        d, s, var = diffs[:nx], sums[:k], out[i0 : i0 + k]
        np.subtract(x[i0 : i0 + nx], x[i0], out=d)
        np.cumsum(d, out=prefix[1 : nx + 1])
        np.subtract(prefix[window : window + k], prefix[:k], out=s)
        # (sum of squares - sum * sum / window) / (window - 1)
        d *= d
        np.cumsum(d, out=prefix[1 : nx + 1])
        np.subtract(prefix[window : window + k], prefix[:k], out=var)
        s *= s
        s /= window
        var -= s
        var /= window - 1.0
    return np.maximum(out, 0.0, out=out)
