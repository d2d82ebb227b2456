"""Streaming kernels vs direct per-window recomputation.

The rolling variance and the delay-search objectives are checked against
brute-force oracles that recompute every window from scratch, including
windows past the rolling variance's renormalization boundary.
"""

import multiprocessing
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from sqzkit._kernels import RENORM_INTERVAL, rolling_variance, run_both
from sqzkit.errors import InvalidArgumentError
from sqzkit.pipeline import _delay_objectives, delay_search


def direct_rolling_variance(x, window):
    sw = np.lib.stride_tricks.sliding_window_view(x, window)
    return sw.var(axis=1, ddof=1)


def delay_objective(a, b, delay, window, max_delay):
    """`_delay_objectives` entry for one delay; its windows tile a from
    max_delay on."""
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


def tile_count(a, window, max_delay):
    """Windows that tile a[max_delay : len(a) - max_delay], a ragged tail dropped."""
    return (a.size - 2 * max_delay) // window


def direct_visibility_mean(a, b, delay, window, max_delay):
    acc = 0.0
    n = tile_count(a, window, max_delay)
    for k in range(n):
        i = max_delay + k * window
        wa = a[i : i + window]
        wb = b[i + delay : i + delay + window]
        vp = np.var(wa + wb, ddof=1)
        vm = np.var(wa - wb, ddof=1)
        tot = vp + vm
        acc += abs(vp - vm) / tot if tot > 0 else 0.0
    return acc / n


def direct_visibility_mean_vectorized(a, b, delay, window, max_delay):
    """Same oracle, every tile recomputed at once through reshaped views."""
    n = tile_count(a, window, max_delay)
    start, stop = max_delay, max_delay + n * window
    wa = a[start:stop].reshape(n, window)
    wb = b[start + delay : stop + delay].reshape(n, window)
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
        assert (n - 20) % w != 0  # a ragged tail the tiles leave out
        got = delay_objective(a, b, delay, w, max_delay=10)
        want = direct_visibility_mean(a, b, delay, w, max_delay=10)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_delay_visibility_across_renorm_boundary():
    rng = np.random.default_rng(5)
    n = 100_080
    a = rng.standard_normal(n)
    b = 0.8 * a + 0.2 * rng.standard_normal(n)
    w = 8
    # the search's prefix sums run unrestarted over more samples than a
    # rolling-variance block holds
    assert tile_count(a, w, 2) * w > RENORM_INTERVAL
    got = delay_objective(a, b, 1, w, max_delay=2)
    want = direct_visibility_mean_vectorized(a, b, 1, w, max_delay=2)
    assert got == pytest.approx(want, rel=1e-10)


def test_delay_objectives_score_zero_denominators_as_zero():
    # a constant stretch at the head of both traces, longer than window +
    # 2 * max_delay, gives tiles whose var a + var b_d is exactly 0
    rng = np.random.default_rng(14)
    n, w, max_delay = 3000, 40, 6
    base = rng.standard_normal(n + 10)
    a = base[5 : 5 + n] + 0.3 * rng.standard_normal(n)
    b = base[3 : 3 + n] + 0.3 * rng.standard_normal(n)
    a[:200], b[:200] = 1.5, -0.5
    got = dict(_delay_objectives(a, b, max_delay, w))
    for d in range(-max_delay, max_delay + 1):
        wa, wb = a[max_delay : max_delay + w], b[max_delay + d : max_delay + d + w]
        assert np.var(wa + wb, ddof=1) + np.var(wa - wb, ddof=1) == 0.0, d
        want = direct_visibility_mean(a, b, d, w, max_delay)
        assert got[d] == pytest.approx(want, rel=1e-9), d


def test_delay_objectives_follow_candidate_order():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(300)
    b = np.roll(a, 2) + 0.3 * rng.standard_normal(300)
    delays = [d for d, _ in _delay_objectives(a, b, 3, 20)]
    assert delays == [0, -1, 1, -2, 2, -3, 3]


@pytest.mark.parametrize("offset", [0.0, 1e9, -1e9])
@pytest.mark.parametrize(
    "n, window, max_delay",
    [(3006, 50, 3), (3000, 64, 5), (74, 64, 5)],
    ids=["whole-tiles", "ragged-tail", "one-tile"],
)
def test_delay_objectives_survive_large_offsets(n, window, max_delay, offset):
    # one tile (n = 2 * max_delay + window) is the shortest input delay_search takes
    rng = np.random.default_rng(15)
    base = rng.standard_normal(n + max_delay)
    x = base[max_delay : max_delay + n] + 0.5 * rng.standard_normal(n)
    y = base[max_delay - 2 : max_delay - 2 + n] + 0.5 * rng.standard_normal(n)  # y[i + 2] ~ x[i]
    a, b = x + offset, y - offset
    # the offset-free data the shifted traces hold: at 1e9 a sample keeps
    # only 1.2e-7 of resolution, and (x + offset) - offset is exact
    want = _delay_objectives(a - offset, b + offset, max_delay, window)
    got = _delay_objectives(a, b, max_delay, window)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (d, g), (_, w) in zip(got, want):
        assert g == pytest.approx(w, rel=1e-7), d
    assert delay_search(a, b, max_delay, window)[0] == 2


def test_delay_search_starts_no_thread(monkeypatch):
    def no_thread(*args):
        raise AssertionError("the delay search started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rng = np.random.default_rng(16)
    a = rng.standard_normal(RENORM_INTERVAL + 20_000)
    b = 0.6 * np.roll(a, 3) + 0.8 * rng.standard_normal(a.size)
    assert delay_search(a, b, 8, 500)[0] == 3


def test_wrapper_validation():
    x = np.zeros(10)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 1)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(x, 11)
    with pytest.raises(InvalidArgumentError):
        rolling_variance(np.zeros((2, 5)), 2)


def test_wrapper_accepts_readonly_and_nonfloat_input():
    x = np.arange(100, dtype=np.int32)
    out = rolling_variance(x, 4)
    frozen = np.arange(100, dtype=np.float64)
    frozen.setflags(write=False)
    out2 = rolling_variance(frozen, 4)
    np.testing.assert_allclose(out, out2, atol=1e-12)
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
    # windows longer than the prefix sums' runs, one of them the whole trace
    inputs += [(rng.standard_normal(n) + 2.0, w) for n, w in [(150_001, 150_001), (240_000, 70_000)]]
    for x, w in inputs:
        assert np.array_equal(rolling_variance(x, w), blockwise_rolling_variance(x, w))


@pytest.mark.parametrize("window", [1_000_000, 600_000, 50])
def test_rolling_variance_scratch_does_not_grow_with_the_window(window):
    # the prefix sums are kept only where the windows start and end: a
    # window as long as the trace costs no scratch of its length (two
    # trace-length buffers, 16 MB here, before)
    x = np.random.default_rng(21).standard_normal(1_000_000)
    tracemalloc.start()
    try:
        rolling_variance(x, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = 8 * (x.size - window + 1)
    assert peak - out < 8 * 8 * RENORM_INTERVAL, (peak - out) / (8 * RENORM_INTERVAL)


def test_run_both_runs_each_half_on_a_thread_of_its_own():
    # both halves wait for each other, so both threads are alive at once and
    # their idents are distinct; neither is the calling thread
    here, threads = threading.get_ident(), threading.active_count()
    meet = threading.Barrier(2)

    def half():
        meet.wait(timeout=60)
        return threading.get_ident()

    first, second = run_both(half, half)
    assert len({here, first, second}) == 3
    assert threading.active_count() == threads  # both joined


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
def test_run_both_waits_for_both_halves_after_an_interrupt():
    # a Ctrl-C that lands while the calling thread waits is re-raised only
    # once both halves have ended, so neither outlives the call; the first
    # half ends last, so a wait that the interrupt cut short would show
    assert threading.current_thread() is threading.main_thread()
    ended = []

    def half(seconds):
        time.sleep(seconds)
        ended.append(seconds)

    ctrl_c = threading.Timer(0.1, signal.pthread_kill, (threading.get_ident(), signal.SIGINT))
    ctrl_c.start()
    with pytest.raises(KeyboardInterrupt):
        run_both(lambda: half(0.5), lambda: half(0.2))
    ctrl_c.join(timeout=60)
    assert ended == [0.2, 0.5]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
def test_run_both_calls_stop_after_an_interrupt_until_a_call_completes():
    # the halves wait for `stop`; the first Ctrl-C calls it, a second one
    # cuts that call short, so it is called again, and the halves end as
    # soon as a call completes, with neither outliving run_both
    assert threading.current_thread() is threading.main_thread()
    here, calls, stopped = threading.get_ident(), [], threading.Event()

    def stop():
        calls.append(threading.get_ident())
        time.sleep(0.5)  # the second Ctrl-C lands in the first call
        stopped.set()

    ctrl_c = [
        threading.Timer(delay, signal.pthread_kill, (here, signal.SIGINT)) for delay in (0.1, 0.3)
    ]
    for timer in ctrl_c:
        timer.start()
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_both(lambda: stopped.wait(timeout=60), lambda: stopped.wait(timeout=60), stop)
    for timer in ctrl_c:
        timer.join(timeout=60)
    assert calls == [here, here]
    assert threading.active_count() == threads - len(ctrl_c)


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


def test_delay_search_memory_stays_below_three_traces():
    # a (candidates x n) array alone would be 51 traces here; the tiled
    # search reads both traces a group of tiles at a time and keeps running
    # sums, so it peaks at about 2.0 MB, 0.53 traces here, at any length
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
    assert peak < 0.75 * 8 * n, (peak / (8 * n), elapsed)
