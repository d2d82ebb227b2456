"""Rolling-variance kernel, and `run_both`, which synthesis uses to run its
two detector channels on two threads.

`rolling_variance` is the variance of the sliding windows of one trace:
vectorized numpy over prefix sums of anchor-subtracted values, restarted
every `RENORM_INTERVAL` output points so rounding error cannot accumulate
over long traces.  Subtracting an anchor (the trace value at the start of
each renormalization block) is the shifted-data method of Chan, Golub &
LeVeque, Am. Stat. 37 (1983); it also makes a constant input produce
exactly zero variance.  `RollingVariance` takes a trace a piece at a time
and each block's prefix sums, P of the differences and Q of their squares,
`_RUN` samples at a time; it keeps them only where windows start that have
not yet ended, and holds no samples.  `rolling_variance` feeds it once.

`run_both` runs two callables at once, one on a thread it starts and joins
before it returns.  numpy's random generators, its FFT and its array loops
release the interpreter lock, so the two independent detector channels use
two cores.  Large buffers are allocated on the calling thread and the
second thread only fills them (``out=``): a buffer freed on that thread
would stay cached in its malloc arena and raise the process's peak memory.
The thread drops its task before `join` returns, so what a task reaches is
freed on the calling thread as well.
"""

import collections
import threading

import numpy as np

from .errors import InvalidArgumentError

RENORM_INTERVAL = 100_000
#: `RollingVariance` adds its prefix sums this many samples at a time.
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
    x = np.asarray(x, dtype=np.float64)
    (out,) = RollingVariance(x.size, window).add(x)
    return out


class RollingVariance:
    """`rolling_variance` of a series of n values fed a piece at a time:
    `add` returns, in order, the variances its piece completes.  Where a
    window starts, its block's P waits in a copy and Q in the slot its
    variance will take, until the window ends."""

    def __init__(self, n: int, window: int):
        self.window = check_window(n, window)
        self.m = n - self.window + 1  # variances
        self.taken = self.started = self.ended = 0  # samples; windows begun, ended
        # [first window, past its last, anchor, carried P and Q] of each block
        # whose samples are not all read: two, over window - 1 samples, if
        # the window is shorter than a block
        self.blocks = []
        self.lows = collections.deque()  # [P, Q] at the starts of windows begun, not ended
        self.slots = collections.deque()  # [first window, slots] of variances not returned

    def add(self, x) -> list[np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        p0, p1, w, step = self.taken, self.taken + x.size, self.window, RENORM_INTERVAL
        if x.ndim != 1 or p1 > self.m + w - 1:
            raise InvalidArgumentError(f"expected a 1-D piece of the {self.m + w - p0 - 1} samples left")
        self.taken = p1
        if min(p1, self.m) > self.started:
            self.slots.append([self.started, np.empty(min(p1, self.m) - self.started)])
        for i0 in range(-(-p0 // step) * step, min(p1, self.m), step):
            self.blocks.append([i0, min(i0 + step, self.m), float(x[i0 - p0]), np.zeros(2)])
        run = np.empty((2, min(x.size, _RUN) + 1))
        for i0, last, anchor, carry in self.blocks:
            for j0 in range(max(p0, i0), min(p1, last + w - 1), _RUN):
                j1 = min(j0 + _RUN, p1, last + w - 1)
                part = run[:, : j1 - j0 + 1]  # P and Q from sample j0 to sample j1
                part[:, 0] = carry  # so the additions are those of one cumsum
                np.subtract(x[j0 - p0 : j1 - p0], anchor, out=part[0, 1:])
                np.multiply(part[0, 1:], part[0, 1:], out=part[1, 1:])
                np.cumsum(part, axis=1, out=part)
                carry[:] = part[:, -1]
                a, b = self.started, min(last, j1)  # the windows that start here
                if a < b:
                    o, slots = self.slots[-1]
                    slots[a - o : b - o] = part[1, a - j0 : b - j0]
                    self.lows.append([part[0, a - j0 : b - j0].copy(), slots[a - o : b - o]])
                    self.started = b
                b = min(last, j1 - w + 1)  # the windows that end here
                while self.ended < b:
                    lo, lo_sq = self.lows.popleft()
                    k, hi = min(lo.size, b - self.ended), self.ended + w - j0
                    if k < lo.size:
                        self.lows.appendleft([lo[k:], lo_sq[k:]])
                    # (sum of squares - sum * sum / window) / (window - 1)
                    s, var = lo[:k], lo_sq[:k]
                    np.subtract(part[1, hi : hi + k], var, out=var)
                    np.subtract(part[0, hi : hi + k], s, out=s)
                    s *= s
                    s /= w
                    var -= s
                    var /= w - 1.0
                    np.maximum(var, 0.0, out=var)
                    self.ended += k
        self.blocks = [block for block in self.blocks if block[1] + w - 1 > p1]
        done = []
        while self.slots and self.slots[0][0] < self.ended:
            o, slots = self.slots.popleft()
            done.append(slots[: self.ended - o])
            if self.ended - o < slots.size:
                self.slots.appendleft([self.ended, slots[self.ended - o :]])
        return done
