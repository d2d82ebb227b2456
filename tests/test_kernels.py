"""Streaming kernels vs direct per-window recomputation.

The rolling kernels and the delay-search objectives built on them are
checked against brute-force oracles that recompute every window from
scratch, including windows past the internal renormalization boundary.
"""

import numpy as np
import pytest

from sqzkit._kernels import RENORM_INTERVAL, rolling_covariance, rolling_variance
from sqzkit.errors import DimensionMismatchError, InvalidArgumentError
from sqzkit.pipeline import _delay_objectives, delay_search


def direct_rolling_variance(x, window):
    sw = np.lib.stride_tricks.sliding_window_view(x, window)
    return sw.var(axis=1, ddof=1)


def direct_rolling_covariance(x, y, window):
    wx = np.lib.stride_tricks.sliding_window_view(x, window)
    wy = np.lib.stride_tricks.sliding_window_view(y, window)
    return np.array([np.cov(u, v)[0, 1] for u, v in zip(wx, wy)])


def delay_objective(a, b, delay, window, max_delay):
    """`_delay_objectives` entry for one delay; its windows start at
    max_delay and stop at len(a) - window - max_delay + 1."""
    return dict(_delay_objectives(a, b, max_delay, window))[delay]


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


def test_rolling_covariance_matches_direct():
    rng = np.random.default_rng(6)
    for n, w, slope in [(10, 2, 0.5), (50, 7, -1.3), (200, 200, 0.9), (1000, 31, -0.2), (2048, 512, 2.0)]:
        x = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-5, 5)
        y = slope * x + rng.standard_normal(n) + rng.uniform(-5, 5)
        got = rolling_covariance(x, y, w)
        want = direct_rolling_covariance(x, y, w)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_rolling_covariance_large_offset():
    rng = np.random.default_rng(8)
    x = 1e9 + rng.standard_normal(5000)
    y = -1e9 + 0.5 * (x - 1e9) + rng.standard_normal(5000)
    got = rolling_covariance(x, y, 100)
    want = direct_rolling_covariance(x, y, 100)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


def test_rolling_covariance_across_renorm_boundary():
    rng = np.random.default_rng(9)
    n = 100_123
    x = rng.standard_normal(n) + 3.0
    y = 0.7 * x + rng.standard_normal(n) - 1.0
    w = 5
    got = rolling_covariance(x, y, w)
    assert got.size == n - w + 1 > RENORM_INTERVAL
    wx = np.lib.stride_tricks.sliding_window_view(x, w)
    wy = np.lib.stride_tricks.sliding_window_view(y, w)
    # np.cov's arithmetic, vectorized over all windows; spot-checked below
    want = ((wx - wx.mean(axis=1, keepdims=True)) * (wy - wy.mean(axis=1, keepdims=True))).sum(
        axis=1
    ) / (w - 1)
    for i in (0, RENORM_INTERVAL - 1, RENORM_INTERVAL, got.size - 1):
        assert want[i] == pytest.approx(np.cov(wx[i], wy[i])[0, 1], rel=1e-12, abs=1e-14)
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
        got = delay_objective(a, b, delay, w, max_delay=10)
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
    got = delay_objective(a, b, 1, w, max_delay=2)
    want = direct_visibility_mean_vectorized(a, b, 1, w, start, stop)
    assert got == pytest.approx(want, rel=1e-10)


def test_delay_objectives_follow_candidate_order():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(300)
    b = np.roll(a, 2) + 0.3 * rng.standard_normal(300)
    delays = [d for d, _ in _delay_objectives(a, b, 3, 20)]
    assert delays == [0, -1, 1, -2, 2, -3, 3]


def test_wrapper_validation():
    x = np.zeros(10)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 1)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 11)
    with pytest.raises(InvalidArgumentError):
        rolling_covariance(x, x, 1)
    with pytest.raises(InvalidArgumentError):
        rolling_covariance(x, x, 11)
    with pytest.raises(DimensionMismatchError):
        rolling_covariance(x, np.zeros(11), 4)
    with pytest.raises(InvalidArgumentError):
        rolling_covariance(np.zeros((2, 5)), np.zeros((2, 5)), 2)


def test_wrapper_accepts_readonly_and_nonfloat_input():
    x = np.arange(100, dtype=np.int32)
    out = rolling_variance(x, 4)
    frozen = np.arange(100, dtype=np.float64)
    frozen.setflags(write=False)
    out2 = rolling_variance(frozen, 4)
    np.testing.assert_allclose(out, out2, atol=1e-12)
    y = (np.arange(100) % 7).astype(np.int64)
    want = direct_rolling_covariance(frozen, y.astype(np.float64), 4)
    np.testing.assert_allclose(rolling_covariance(x, y, 4), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rolling_covariance(frozen, y, 4), want, rtol=1e-12, atol=1e-12)
    assert delay_search(frozen, frozen, 0, 4) == (0, pytest.approx(1.0))
