"""Streaming kernels vs direct per-window recomputation.

The numpy kernels are checked against brute-force oracles that recompute
every window from scratch, including windows past the internal
renormalization boundary.
"""

import numpy as np
import pytest

from sqzkit._kernels import RENORM_INTERVAL, delay_visibility_mean, rolling_variance
from sqzkit.errors import InvalidArgumentError


def direct_rolling_variance(x, window):
    sw = np.lib.stride_tricks.sliding_window_view(x, window)
    return sw.var(axis=1, ddof=1)


def direct_visibility_mean(a, b, delay, window, start, stop):
    acc = 0.0
    for i in range(start, stop):
        wa = a[i : i + window]
        wb = b[i + delay : i + delay + window]
        vp = np.var(wa + wb, ddof=1)
        vm = np.var(wa - wb, ddof=1)
        tot = vp + vm
        acc += abs(vp - vm) / tot if tot > 0 else 0.0
    return acc / (stop - start)


def direct_visibility_mean_vectorized(a, b, delay, window, start, stop):
    """Same oracle, every window recomputed at once through sliding views."""
    n = stop - start
    wa = np.lib.stride_tricks.sliding_window_view(a[start : stop + window - 1], window)
    wb = np.lib.stride_tricks.sliding_window_view(
        b[start + delay : stop + delay + window - 1], window
    )
    assert wa.shape == wb.shape == (n, window)
    vp = (wa + wb).var(axis=1, ddof=1)
    vm = (wa - wb).var(axis=1, ddof=1)
    tot = vp + vm
    vis = np.zeros(n)
    ok = tot > 0
    vis[ok] = np.abs(vp[ok] - vm[ok]) / tot[ok]
    return float(vis.sum()) / n


def test_rolling_variance_matches_direct():
    rng = np.random.default_rng(1)
    for n, w in [(10, 2), (50, 7), (200, 200), (1000, 31), (4096, 512)]:
        x = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-5, 5)
        got = rolling_variance(x, w)
        want = direct_rolling_variance(x, w)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_rolling_variance_constant_input_is_exactly_zero():
    x = np.full(5000, 3.7182)
    out = rolling_variance(x, 64)
    assert np.all(out == 0.0)


def test_rolling_variance_large_offset():
    # anchored sums keep catastrophic cancellation in check at big DC offsets
    rng = np.random.default_rng(2)
    x = 1e9 + rng.standard_normal(5000)
    got = rolling_variance(x, 100)
    want = direct_rolling_variance(x, 100)
    np.testing.assert_allclose(got, want, rtol=1e-7)


def test_rolling_variance_across_renorm_boundary():
    # more than RENORM_INTERVAL outputs: the restart must be seamless
    rng = np.random.default_rng(3)
    n = 100_123
    x = rng.standard_normal(n) + 3.0
    w = 5
    got = rolling_variance(x, w)
    want = direct_rolling_variance(x, w)
    assert got.size == n - w + 1
    # tiny windows can have near-zero variances where the ~1e-12 absolute
    # drift of 1e5 incremental updates dominates the relative error
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)


def test_delay_visibility_matches_direct():
    rng = np.random.default_rng(4)
    n, w = 400, 16
    base = rng.standard_normal(n + 50)
    a = base[25 : 25 + n] + 0.1 * rng.standard_normal(n)
    for delay in (-7, -1, 0, 1, 3, 10):
        b = base[25 - delay if delay < 0 else 25 - delay : 25 - delay + n]
        b = b[:n] + 0.1 * rng.standard_normal(n)
        start, stop = 10, n - w - 10 + 1
        got = delay_visibility_mean(a, b, delay, w, start, stop)
        want = direct_visibility_mean(a, b, delay, w, start, stop)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_delay_visibility_across_renorm_boundary():
    rng = np.random.default_rng(5)
    n = 100_080
    a = rng.standard_normal(n)
    b = 0.8 * a + 0.2 * rng.standard_normal(n)
    w = 8
    start, stop = 2, n - w - 2 + 1
    assert stop - start > RENORM_INTERVAL
    got = delay_visibility_mean(a, b, 1, w, start, stop)
    want = direct_visibility_mean_vectorized(a, b, 1, w, start, stop)
    assert got == pytest.approx(want, rel=1e-10)


def test_wrapper_validation():
    x = np.zeros(10)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 1)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 11)
    a = np.zeros(50)
    with pytest.raises(InvalidArgumentError):
        delay_visibility_mean(a, a, -3, 8, 2, 40)  # start+delay < 0
    with pytest.raises(InvalidArgumentError):
        delay_visibility_mean(a, a, 10, 8, 0, 40)  # runs off the end of b
    with pytest.raises(InvalidArgumentError):
        delay_visibility_mean(a, a, 0, 8, 30, 10)  # empty index range


def test_wrapper_accepts_readonly_and_nonfloat_input():
    x = np.arange(100, dtype=np.int32)
    out = rolling_variance(x, 4)
    frozen = np.arange(100, dtype=np.float64)
    frozen.setflags(write=False)
    out2 = rolling_variance(frozen, 4)
    np.testing.assert_allclose(out, out2, atol=1e-12)
    assert delay_visibility_mean(frozen, frozen, 0, 4, 0, 50) == pytest.approx(1.0)
