"""Running sums, the rolling-variance kernel, and `run_both`, which
synthesis uses to run its two detector channels on two threads.

`prefix_sums` is the one place the analysis adds a series up: P of its
values less an anchor and Q of their squares, carried from one run of
values to the next as one cumulative sum, whatever the runs.  Subtracting
an anchor is the shifted-data method of Chan, Golub & LeVeque, Am. Stat. 37
(1983); it also makes a constant input give exactly zero variance.
`rolling_variance` is the variance of the sliding windows of one trace,
from prefix sums restarted, each at its own anchor, every `RENORM_INTERVAL`
output points, so rounding error cannot accumulate over long traces.
`RollingVariance` takes a trace a piece at a time and each block's prefix
sums `_RUN` samples at a time; it keeps them only where windows start that
have not yet ended, and holds no samples.  `rolling_variance` feeds it once.

`run_both` runs two callables at once, each on a thread it starts, and joins
both before it returns.  numpy's random generators, its FFT and its array
loops release the interpreter lock, so the two independent detector
channels use two cores.  The calling thread runs neither, because of page
faults: numpy's FFT takes about 1 MiB of scratch from malloc on every
call, and on the calling thread each block faults it in again (about
18 000 minor faults per 2 M-sample channel), while on a thread of its own
it stays mapped.  Large buffers are allocated on the calling thread and the
two threads only fill them (``out=``): a buffer freed on a thread would
stay cached in its malloc arena and raise the process's peak memory.  Each
thread drops its task before `join` returns, so what a task reaches is
freed on the calling thread as well.
"""

import collections
import threading

import numpy as np

from .errors import InvalidArgumentError

RENORM_INTERVAL = 100_000
#: `RollingVariance` adds its prefix sums this many samples at a time.
_RUN = 65_536


def run_both(first, second, stop=None):
    """``(first(), second())``, each run on a new thread.

    Both threads have been joined when this returns or raises.  An
    exception raised by `first`, or else by `second`, is re-raised here; an
    interrupt that reaches the calling thread while it waits is re-raised
    once both have ended.  `stop()`, if given, tells the halves to end
    early: a half that raises calls it on its own thread, and after the
    first interrupt, or a thread that cannot be started, the calling thread
    calls it, again only if an interrupt cut that call short.
    """
    outcomes = [None, None]
    ended = threading.Semaphore(0)  # released by each task as it ends

    def task(i, fn):
        try:
            outcomes[i] = fn(), None
        except BaseException as exc:
            outcomes[i] = None, exc
            if stop is not None:
                stop()
        finally:
            ended.release()

    threads = [
        threading.Thread(target=task, args=(i, fn), name=f"sqzkit-run-both-{i + 1}")
        for i, fn in enumerate((first, second))
    ]
    started, interrupt = 0, None
    try:
        for thread in threads:
            thread.start()
            started += 1
    except BaseException as exc:  # an interrupt, or no thread to be had
        interrupt = exc
    # The tasks are waited for on `ended`, not in `join`: on Python 3.11 a
    # join that an interrupt cuts short can mark a thread that still runs as
    # stopped (the bpo-45274 handling in `threading`), and a later join or
    # `is_alive` then no longer waits for it.  The loop tests the outcomes,
    # so a release that an interrupt kept it from counting is not lost.
    stopped = stop is None
    while None in outcomes[:started]:
        try:
            if interrupt is not None and not stopped:
                stop()
                stopped = True
            ended.acquire()
        except BaseException as exc:  # an interrupt: the tasks still run
            interrupt = exc
    for thread in threads[:started]:
        thread.join()  # its task has ended: the thread is exiting
    if interrupt is not None:
        raise interrupt
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return outcomes[0][0], outcomes[1][0]


def check_int(value, name: str, least: int | None = None) -> int:
    """`value` as an int, if it is an integer (a Python or numpy one, not a
    bool) of at least `least`; else InvalidArgumentError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidArgumentError(f"{name} must be >= {least}")
    return int(value)


def prefix_sums(x, anchor: float, carry: np.ndarray, out: np.ndarray) -> None:
    """The running sums P of x - anchor and Q of their squares, after those
    in `carry`, into the x.size + 1 columns of `out`: out[:, 0] is `carry`,
    which is left holding the last column, for the next run to continue."""
    out[:, 0] = carry
    np.subtract(x, anchor, out=out[0, 1:])
    np.multiply(out[0, 1:], out[0, 1:], out=out[1, 1:])
    np.cumsum(out, axis=1, out=out)
    carry[:] = out[:, -1]


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    (out,) = RollingVariance(np.size(x), window).add(x)
    return out


class RollingVariance:
    """`rolling_variance` of a series of n values fed a piece at a time:
    `add` returns, in order, the variances its piece completes.  Where a
    window starts, its block's P waits in a copy and Q in the slot its
    variance will take, until the window ends."""

    def __init__(self, n: int, window: int):
        self.window = check_int(window, "window", 2)
        if self.window > n:
            raise InvalidArgumentError(f"window {self.window} exceeds trace length {n}")
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
                prefix_sums(x[j0 - p0 : j1 - p0], anchor, carry, part)
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
