"""Streaming kernels vs direct per-window recomputation.

The rolling kernels and the delay-search objectives built on them are
checked against brute-force oracles that recompute every window from
scratch, including windows past the internal renormalization boundary.
"""

import multiprocessing
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from sqzkit import _kernels
from sqzkit._kernels import (
    RENORM_INTERVAL,
    rolling_variance,
    run_both,
    shifted_covariances,
)
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


def blockwise_rolling_variance(x, window):
    """Reference rolling variance: a single-shift block loop with one
    anchor, three prefix sums and a concatenation per block.  The kernel
    must reproduce it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    m = x.size - window + 1
    out = np.empty(m)
    for i0 in range(0, m, RENORM_INTERVAL):
        i1 = min(i0 + RENORM_INTERVAL, m)
        k = i1 - i0
        dx = x[i0 : i1 + window - 1] - x[i0]
        dy = x[i0 : i1 + window - 1] - x[i0]
        sx = np.concatenate(([0.0], np.cumsum(dx)))
        sy = np.concatenate(([0.0], np.cumsum(dy)))
        sxy = np.concatenate(([0.0], np.cumsum(dx * dy)))
        sums_x = sx[window:] - sx[:k]
        sums_y = sy[window:] - sy[:k]
        out[i0:i1] = (sxy[window:] - sxy[:k] - sums_x * sums_y / window) / (window - 1.0)
    return np.maximum(out, 0.0)


def collect_shifted(x, y, window, shifts):
    """`shifted_covariances` gathered into one array per shift."""
    m = x.size - window + 1
    out = np.full((len(shifts), m), np.nan)

    def store(j, i0, cov, spare):
        out[j, i0 : i0 + cov.size] = cov
        spare[:] = np.nan  # scratch: the kernel must not read it back

    shifted_covariances(x, y, window, shifts, store)
    return out


def sequential(first, second):
    return first(), second()


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
        got = collect_shifted(x, y, w, [0])[0]
        want = direct_rolling_covariance(x, y, w)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_rolling_covariance_large_offset():
    rng = np.random.default_rng(8)
    x = 1e9 + rng.standard_normal(5000)
    y = -1e9 + 0.5 * (x - 1e9) + rng.standard_normal(5000)
    got = collect_shifted(x, y, 100, [0])[0]
    want = direct_rolling_covariance(x, y, 100)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


def test_rolling_covariance_across_renorm_boundary():
    rng = np.random.default_rng(9)
    n = 100_123
    x = rng.standard_normal(n) + 3.0
    y = 0.7 * x + rng.standard_normal(n) - 1.0
    w = 5
    got = collect_shifted(x, y, w, [0])[0]
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


def test_delay_objectives_score_zero_denominators_as_zero():
    # a constant stretch at the head of both traces, longer than window +
    # 2 * max_delay, gives windows whose var a + var b_d is exactly 0
    rng = np.random.default_rng(14)
    n, w, max_delay = 3000, 40, 6
    base = rng.standard_normal(n + 10)
    a = base[5 : 5 + n] + 0.3 * rng.standard_normal(n)
    b = base[3 : 3 + n] + 0.3 * rng.standard_normal(n)
    a[:200], b[:200] = 1.5, -0.5
    start, stop = max_delay, n - w - max_delay + 1
    var_a, var_b = rolling_variance(a, w), rolling_variance(b, w)
    got = dict(_delay_objectives(a, b, max_delay, w))
    for d in range(-max_delay, max_delay + 1):
        assert np.any(var_a[start:stop] + var_b[start + d : stop + d] == 0.0), d
        want = direct_visibility_mean(a, b, d, w, start, stop)
        assert got[d] == pytest.approx(want, rel=1e-9), d


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
        collect_shifted(x, x, 1, [0])
    with pytest.raises(InvalidArgumentError):
        collect_shifted(x, x, 11, [0])
    with pytest.raises(DimensionMismatchError):
        collect_shifted(x, np.zeros(9), 4, [0])
    with pytest.raises(InvalidArgumentError):
        collect_shifted(np.zeros((2, 5)), np.zeros((2, 5)), 2, [0])


def test_wrapper_accepts_readonly_and_nonfloat_input():
    x = np.arange(100, dtype=np.int32)
    out = rolling_variance(x, 4)
    frozen = np.arange(100, dtype=np.float64)
    frozen.setflags(write=False)
    out2 = rolling_variance(frozen, 4)
    np.testing.assert_allclose(out, out2, atol=1e-12)
    y = (np.arange(100) % 7).astype(np.int64)
    want = direct_rolling_covariance(frozen, y.astype(np.float64), 4)
    np.testing.assert_allclose(collect_shifted(x, y, 4, [0])[0], want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(collect_shifted(frozen, y, 4, [0])[0], want, rtol=1e-12, atol=1e-12)
    assert delay_search(frozen, frozen, 0, 4) == (0, pytest.approx(1.0))


def test_rolling_variance_is_bit_identical_to_the_blockwise_loop():
    rng = np.random.default_rng(1)
    inputs = [
        (rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-5, 5), w)
        for n, w in [(10, 2), (50, 7), (200, 200), (1000, 31), (4096, 512)]
    ]
    inputs.append((np.full(5000, 3.7182), 64))
    inputs.append((1e9 + np.random.default_rng(2).standard_normal(5000), 100))
    inputs.append((np.random.default_rng(3).standard_normal(100_123) + 3.0, 5))
    for x, w in inputs:
        assert np.array_equal(rolling_variance(x, w), blockwise_rolling_variance(x, w))


SHIFTS = [12, 11, 13, 10, 14, 0, 24, 3, 9]


def shifted_inputs(n, offset):
    """x, and a y covering every shift in SHIFTS, correlated best at shift 9."""
    rng = np.random.default_rng(11)
    y = offset + rng.standard_normal(n + max(SHIFTS))
    x = 0.6 * y[9 : 9 + n] + 0.8 * rng.standard_normal(n) - 0.5 * offset
    return x, y


@pytest.mark.parametrize("offset", [0.0, 1e9, -1e9])
def test_shifted_covariances_match_rolling_covariance_per_shift(offset):
    n, window = 3000, 50
    x, y = shifted_inputs(n, offset)
    got = collect_shifted(x, y, window, SHIFTS)
    assert got.shape == (len(SHIFTS), n - window + 1)
    for j, s in enumerate(SHIFTS):
        want = collect_shifted(x, y[s : s + n], window, [0])[0]
        # covariances cross zero, so the tolerance is relative to the series' scale
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[j] - want)) <= 1e-12 * scale, s


def test_shifted_covariances_across_renorm_boundary():
    # Over a 1e5-point block the prefix sums' rounding reaches ~2e-12 of the
    # covariance scale for the single-shift kernel too, so both are held to
    # the direct per-window arithmetic instead of to each other.
    n, window = RENORM_INTERVAL + 321, 7
    x, y = shifted_inputs(n, 0.0)
    got = collect_shifted(x, y, window, SHIFTS)
    assert got.shape[1] > RENORM_INTERVAL
    wx = np.lib.stride_tricks.sliding_window_view(x, window)
    for j, s in enumerate(SHIFTS):
        ys = y[s : s + n]
        wy = np.lib.stride_tricks.sliding_window_view(ys, window)
        direct = ((wx - wx.mean(axis=1, keepdims=True)) * (wy - wy.mean(axis=1, keepdims=True))).sum(
            axis=1
        ) / (window - 1)
        bound = 1e-11 * np.max(np.abs(direct))
        assert np.max(np.abs(collect_shifted(x, ys, window, [0])[0] - direct)) <= bound, s
        assert np.max(np.abs(got[j] - direct)) <= bound, s


def test_shifted_covariances_validation():
    x = np.zeros(10)
    with pytest.raises(InvalidArgumentError):
        shifted_covariances(x, np.zeros(12), 4, [], lambda *a: None)
    with pytest.raises(InvalidArgumentError):
        shifted_covariances(x, np.zeros(12), 4, [0, -1], lambda *a: None)
    with pytest.raises(DimensionMismatchError):
        shifted_covariances(x, np.zeros(12), 4, [0, 3], lambda *a: None)
    with pytest.raises(InvalidArgumentError):
        shifted_covariances(x, np.zeros(12), 11, [0], lambda *a: None)


def test_delay_objectives_do_not_depend_on_the_worker(monkeypatch):
    rng = np.random.default_rng(12)
    n = RENORM_INTERVAL + 20_000
    base = rng.standard_normal(n + 10)
    a = base[5 : 5 + n] + 0.3 * rng.standard_normal(n)
    b = base[2 : 2 + n] + 0.3 * rng.standard_normal(n)
    threaded = list(_delay_objectives(a, b, 6, 500))
    monkeypatch.setattr(_kernels, "run_both", sequential)
    alone = list(_delay_objectives(a, b, 6, 500))
    assert threaded == alone
    assert max(alone, key=lambda pair: pair[1])[0] == 3


def test_run_both_runs_first_on_another_thread():
    here = threading.get_ident()
    first, second = run_both(threading.get_ident, threading.get_ident)
    assert second == here != first


def test_run_both_reraises_the_worker_exception_and_recovers():
    ran = []

    def second():
        ran.append(True)
        return 2

    with pytest.raises(ZeroDivisionError):
        run_both(lambda: 1 / 0, second)
    assert ran == [True]  # the calling thread's half still ran
    with pytest.raises(KeyError):
        run_both(lambda: 1, lambda: {}["missing"])
    assert run_both(lambda: 1, second) == (1, 2)


def test_run_both_nested_and_concurrent_calls_finish():
    # a call from inside the second thread's half, or from several threads
    # at once, starts a thread of its own, so none waits on another
    assert run_both(lambda: run_both(lambda: 1, lambda: 2), lambda: 3) == ((1, 2), 3)

    errors, results = [], {}

    def client(k):
        try:
            for i in range(200):
                got = run_both(lambda: (k, i, "first"), lambda: (k, i, "second"))
                assert got == ((k, i, "first"), (k, i, "second"))
            results[k] = True
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == list(range(6))


def _reader(buf):
    return lambda: float(buf[0])


def test_idle_worker_keeps_nothing_of_its_last_task():
    # a thread that held on to its task would free the task's buffers at a
    # moment set by thread scheduling, not when the caller drops them
    buf = np.zeros(1000)
    gone = weakref.ref(buf)
    assert run_both(_reader(buf), _reader(buf)) == (0.0, 0.0)
    del buf
    assert gone() is None


def _run_both_in_child():
    sys.exit(0 if run_both(lambda: 1, lambda: 2) == (1, 2) else 1)


def test_run_both_works_in_a_forked_child():
    run_both(lambda: 1, lambda: 2)  # the fork comes after a call has run
    child = multiprocessing.get_context("fork").Process(target=_run_both_in_child)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0


def test_delay_search_memory_stays_below_sixteen_traces():
    # numpy reports its buffers to tracemalloc from every thread; a
    # (shifts x n) array alone would be 51 traces here
    rng = np.random.default_rng(13)
    n = 475_000
    a = rng.standard_normal(n)
    b = 0.6 * np.roll(a, 3) + 0.8 * rng.standard_normal(n)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        found = delay_search(a, b, 25, 10_000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found[0] == 3
    assert peak < 16 * 8 * n, (peak / (8 * n), elapsed)
