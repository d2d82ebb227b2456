"""Rolling-statistics kernels: rolling variance and the delay-visibility scan.

Both are vectorized numpy over sliding sums of anchor-subtracted values,
restarted every `RENORM_INTERVAL` output points so rounding error cannot
accumulate over long traces.  Subtracting the anchor (the trace value at the
start of each renormalization block) is the shifted-data method of Chan,
Golub & LeVeque, Am. Stat. 37 (1983); it also makes a constant input produce
exactly zero variance.

The public functions validate their arguments; the block loops below them
run unchecked.
"""

import numpy as np

from .errors import InvalidArgumentError

RENORM_INTERVAL = 100_000


def _as_f64(x) -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError("expected a 1-D sample array")
    return a


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    x = _as_f64(x)
    window = int(window)
    if window < 2:
        raise InvalidArgumentError("window must be >= 2")
    if window > x.size:
        raise InvalidArgumentError(f"window {window} exceeds trace length {x.size}")
    m = x.size - window + 1
    out = np.empty(m)
    denom = window - 1.0
    for i0 in range(0, m, RENORM_INTERVAL):
        i1 = min(i0 + RENORM_INTERVAL, m)
        y = x[i0 : i1 + window - 1] - x[i0]
        s = np.concatenate(([0.0], np.cumsum(y)))
        q = np.concatenate(([0.0], np.cumsum(y * y)))
        sums = s[window:] - s[: i1 - i0]
        sqs = q[window:] - q[: i1 - i0]
        out[i0:i1] = np.maximum(sqs - sums * sums / window, 0.0) / denom
    return out


def delay_visibility_mean(a, b, delay: int, window: int, start: int, stop: int) -> float:
    """Mean normalized contrast between the variances of a+b and a-b.

    For each window index i in [start, stop), pairs a[i : i+window] with
    b[i+delay : i+delay+window], computes the unbiased variances V+ and V- of
    the sum and difference, and averages |V+ - V-| / (V+ + V-) over i.
    Windows where V+ + V- is not positive contribute zero.
    """
    a, b = _as_f64(a), _as_f64(b)
    delay, w, start, stop = int(delay), int(window), int(start), int(stop)
    if w < 2:
        raise InvalidArgumentError("window must be >= 2")
    if not 0 <= start < stop:
        raise InvalidArgumentError(f"empty window range [{start}, {stop})")
    if stop - 1 + w > a.size:
        raise InvalidArgumentError("window range runs past the end of the first trace")
    if start + delay < 0 or stop - 1 + delay + w > b.size:
        raise InvalidArgumentError(f"delay {delay} pushes windows outside the second trace")
    acc = 0.0
    denom = w - 1.0
    for i0 in range(start, stop, RENORM_INTERVAL):
        i1 = min(i0 + RENORM_INTERVAL, stop)
        span = i1 - i0 + w - 1
        ya = a[i0 : i0 + span] - a[i0]
        yb = b[i0 + delay : i0 + delay + span] - b[i0 + delay]
        s1 = np.concatenate(([0.0], np.cumsum(ya)))
        s2 = np.concatenate(([0.0], np.cumsum(yb)))
        q1 = np.concatenate(([0.0], np.cumsum(ya * ya)))
        q2 = np.concatenate(([0.0], np.cumsum(yb * yb)))
        cc = np.concatenate(([0.0], np.cumsum(ya * yb)))
        k = i1 - i0
        sa = s1[w:] - s1[:k]
        sb = s2[w:] - s2[:k]
        qa = q1[w:] - q1[:k]
        qb = q2[w:] - q2[:k]
        cab = cc[w:] - cc[:k]
        v_plus = (qa + qb + 2.0 * cab - (sa + sb) ** 2 / w) / denom
        v_minus = (qa + qb - 2.0 * cab - (sa - sb) ** 2 / w) / denom
        tot = v_plus + v_minus
        vis = np.zeros(k)
        ok = tot > 0.0
        vis[ok] = np.abs(v_plus[ok] - v_minus[ok]) / tot[ok]
        acc += float(vis.sum())
    return acc / (stop - start)
