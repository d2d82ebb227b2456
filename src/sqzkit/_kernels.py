"""Rolling-statistics kernel: covariance (and so variance) of sliding windows.

Vectorized numpy over sliding sums of anchor-subtracted values, restarted
every `RENORM_INTERVAL` output points so rounding error cannot accumulate
over long traces.  Subtracting the anchor (the trace value at the start of
each renormalization block) is the shifted-data method of Chan, Golub &
LeVeque, Am. Stat. 37 (1983); it also makes a constant input produce exactly
zero variance.

The public functions validate their arguments; the block loop runs
unchecked.
"""

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError

RENORM_INTERVAL = 100_000


def _as_f64(x) -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError("expected a 1-D sample array")
    return a


def rolling_covariance(x, y, window: int) -> np.ndarray:
    """Unbiased covariance of every pair of aligned length-`window` slices,
    x[i : i+window] with y[i : i+window]."""
    x, y = _as_f64(x), _as_f64(y)
    if x.size != y.size:
        raise DimensionMismatchError(f"trace lengths differ ({x.size} vs {y.size})")
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
        k = i1 - i0
        dx = x[i0 : i1 + window - 1] - x[i0]
        dy = y[i0 : i1 + window - 1] - y[i0]
        sx = np.concatenate(([0.0], np.cumsum(dx)))
        sy = np.concatenate(([0.0], np.cumsum(dy)))
        sxy = np.concatenate(([0.0], np.cumsum(dx * dy)))
        sums_x = sx[window:] - sx[:k]
        sums_y = sy[window:] - sy[:k]
        out[i0:i1] = (sxy[window:] - sxy[:k] - sums_x * sums_y / window) / denom
    return out


def rolling_variance(x, window: int) -> np.ndarray:
    """Unbiased variance of every length-`window` slice of `x`."""
    out = rolling_covariance(x, x, window)
    return np.maximum(out, 0.0, out=out)
