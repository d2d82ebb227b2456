"""Raw-voltage post-processing chain, stage by stage."""

import dataclasses
import functools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracefiles
from sqzkit import cli, pipeline, synth, traceio
from sqzkit._kernels import _RUN, RENORM_INTERVAL, RollingVariance
from sqzkit.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidArgumentError,
    ScenarioFormatError,
)
from sqzkit.pipeline import (
    QUADRATURE_VACUUM_VARIANCE,
    ShotNoiseStats,
    align,
    analysis_report,
    analyze_traces,
    delay_search,
    dip_fwhm,
    discard_average4,
    normalize,
    raw_to_quadratures,
    rolling_variance,
    shot_noise_stats,
    squeezing_report,
    variance_vs_delay,
)


def correlated_pair(n, var1, var2, cov, seed=0):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    x1 = math.sqrt(var1) * g1
    x2 = (cov / math.sqrt(var1)) * g1 + math.sqrt(var2 - cov**2 / var1) * g2
    return x1, x2


# --------------------------------------------------------------- averaging


def _average4(v):
    """Mean of every 4 consecutive samples, a trailing remainder dropped: the
    oracle `discard_average4` is held to."""
    v = np.asarray(v, dtype=np.float64)
    return v[: v.size // 4 * 4].reshape(-1, 4).mean(axis=1)


def _discard_trigger_region(v, fraction):
    """v without its central round(v.size * fraction) samples; the head
    keeps half of what is left, rounded down."""
    cut = int(round(v.size * fraction))
    start = (v.size - cut) // 2
    return np.concatenate([v[:start], v[start + cut :]])


def test_average4_basic():
    out = discard_average4(np.array([1.0, 2, 3, 4, 5, 6, 7, 8]), 0.0)
    assert np.array_equal(out, [2.5, 6.5])


def test_average4_drops_remainder():
    out = discard_average4(np.arange(11, dtype=float), 0.0)
    assert out.size == 2
    assert np.array_equal(out, [1.5, 5.5])


def test_average4_too_short():
    with pytest.raises(InvalidArgumentError, match="too short"):
        discard_average4(np.array([1.0, 2.0, 3.0]), 0.0)


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_average4_is_bit_identical_to_the_reshaped_mean(extra):
    rng = np.random.default_rng(40 + extra)
    n = 4 * 25_001 + extra
    frozen = rng.standard_normal(n) + 1e9
    frozen.setflags(write=False)
    for v in (rng.standard_normal(n), frozen, (0.05 * rng.standard_normal(n)).astype(np.float32)):
        want = np.asarray(v, dtype=np.float64)[: n - extra].reshape(-1, 4).mean(axis=1)
        assert np.array_equal(discard_average4(v, 0.0), want)


def test_discard_trigger_region_center_cut():
    v = np.arange(1.0, 11.0)  # keeps 1, 2, 3, 4 and 7, 8, 9, 10
    assert np.array_equal(discard_average4(v, 0.2), [2.5, 8.5])


def test_discard_trigger_region_zero_fraction():
    v = np.arange(8.0)
    assert np.array_equal(discard_average4(v, 0.0), _average4(v))


def test_discard_trigger_region_validation():
    with pytest.raises(InvalidArgumentError):
        discard_average4(np.arange(4.0), 1.0)
    with pytest.raises(InvalidArgumentError):
        discard_average4(np.arange(4.0), -0.1)
    with pytest.raises(InvalidArgumentError):
        discard_average4(np.arange(2.0), 0.9)  # rounds to the whole trace


def test_discard_then_average_matches_averaging_the_concatenation():
    # discard_average4, and so shot_noise_stats and raw_to_quadratures,
    # average the samples either side of the cut without joining them; the
    # cut may fall inside a group
    rng = np.random.default_rng(17)
    cut_offsets = set()
    for n in [*range(5, 70), 4 * 25_001 + 3]:
        v = rng.standard_normal(n) + 1e3  # the offset makes the order of the sums show
        for fraction in (0.0, 0.05, 0.1, 0.25, 0.5, 0.8):
            kept = _discard_trigger_region(v, fraction)
            if kept.size < 8:  # shot-noise stats need two averaged points
                continue
            cut_offsets.add(kept.size // 2 % 4)  # the head keeps kept.size // 2 samples
            want = _average4(kept)
            assert np.array_equal(discard_average4(v, fraction), want), (n, fraction)
            sn = shot_noise_stats(v, fraction)
            assert sn == ShotNoiseStats.from_samples(want), (n, fraction)
            got = raw_to_quadratures(v, sn, fraction=fraction).q
            assert np.array_equal(got, normalize(want, sn).q), (n, fraction)
    assert cut_offsets == {0, 1, 2, 3}


@pytest.mark.parametrize("fraction", [0.0, 0.05, 0.3])
def test_discard_average4_of_chunks_is_that_of_the_array(fraction):
    # a trace read in chunks of any sizes, down to single samples, so that
    # groups straddle chunk boundaries and the cut at every offset
    def average_pieces(chunks, fraction, n_samples):  # what `_average_pieces` yields, joined
        layout = pipeline._layout(n_samples, fraction)
        return np.concatenate(list(pipeline._average_pieces(chunks, n_samples, layout)))

    v = np.random.default_rng(18).standard_normal(10_003) + 1e3
    want = discard_average4(v, fraction)
    for seed in range(4):
        cuts = np.flatnonzero(np.random.default_rng(seed).random(v.size - 1) < 0.3) + 1
        got = average_pieces(iter(np.split(v, cuts)), fraction, v.size)
        assert np.array_equal(got, want), seed
    assert np.array_equal(average_pieces([v[:5000], v[5000:]], fraction, v.size), want)
    for chunks in ([v[:-1]], [v, v[:1]]):  # one sample short, one too many
        with pytest.raises(InvalidArgumentError, match="chunks hold"):
            average_pieces(chunks, fraction, v.size)


def _four_traces(seed=20, n=10_003):
    """Two correlated signal traces and two shot-noise traces of n raw
    samples each, with an offset, so the order of the sums shows."""
    rng = np.random.default_rng(seed)
    x1, x2 = correlated_pair(n, 3.0, 2.0, -2.0, seed=seed)
    return [x1 + 1e3, x2 - 5.0, rng.standard_normal(n) + 1e3, 2 * rng.standard_normal(n) - 5.0]


def _analyze(traces, **kwargs):
    return analyze_traces(traces, fraction=0.05, window=200, max_delay=3, **kwargs)


def test_analyze_traces_of_chunks_is_that_of_whole_arrays():
    raw = _four_traces()
    whole = _analyze([(v, 5e8) for v in raw])
    # the chain, one step at a time
    stats = [ShotNoiseStats.from_samples(discard_average4(v, 0.05)) for v in raw[2:]]
    q = [normalize(discard_average4(v, 0.05), sn).q for v, sn in zip(raw, stats * 2)]
    want = analysis_report(*q, window=200, max_delay=3, quadrature_rate=1.25e8)
    assert whole == {
        **want, "window": 200, "max_delay": 3, "n_quadrature_samples": q[0].size,
        "quadrature_rate_hz": 1.25e8,
    }
    rng = np.random.default_rng(21)
    uneven = [np.split(v, np.sort(rng.integers(0, v.size, 40))) for v in raw]  # empty chunks too
    assert _analyze([lambda c=c, v=v: (iter(c), v.size, 5e8) for c, v in zip(uneven, raw)]) == whole


def test_analyze_traces_reads_each_trace_to_the_end_before_it_takes_the_next():
    raw, events = _four_traces(), []

    def reader(k, v):
        def read():
            events.append(("open", k))

            def chunks():
                yield from np.array_split(v, 3)
                events.append(("read", k))

            return chunks(), v.size, 5e8

        return read

    def traces():
        for k, v in enumerate(raw):
            events.append(("take", k))
            yield reader(k, v)

    _analyze(traces())
    assert events[:12] == [(event, k) for k in range(4) for event in ("take", "open", "read")]
    # a trace read in chunks is read again by each pass that needs it: the
    # delay search and the squeezing report each read the signal pair, the
    # squeezing report the shot-noise pair
    opens = [k for event, k in events if event == "open"]
    assert [opens.count(k) for k in range(4)] == [3, 3, 2, 2]


def _counting_readers(raw, opens, chunk=None):
    """Readers of the traces `raw` that note in `opens` each trace they open,
    and yield it in chunks of `chunk` samples (one, if None)."""

    def reader(k, v):
        def read():
            opens.append(k)
            return iter(np.split(v, range(chunk, v.size, chunk)) if chunk else [v]), v.size, 5e8

        return read

    return [reader(k, v) for k, v in enumerate(raw)]


def test_analyze_traces_checks_the_windows_before_the_squeezing_report_reads():
    # shot-noise traces shorter than the window: the squeezing report raises
    # before it reads either pair, so only pass 1 and the delay search open
    # the traces
    rng, opens = np.random.default_rng(27), []
    raw = [rng.standard_normal(n) for n in (40_000, 40_000, 8_000, 8_000)]
    with pytest.raises(InvalidArgumentError, match="window 2000 exceeds trace length"):
        analyze_traces(_counting_readers(raw, opens, 4096), fraction=0.05, window=2000, max_delay=5)
    assert [opens.count(k) for k in range(4)] == [2, 2, 1, 1]


@pytest.mark.parametrize(
    "setting, says",
    [
        ({"fraction": 1.5}, "fraction must be in"),
        ({"fraction": "0.05"}, "fraction must be a real number, got '0.05'"),
        ({"fraction": None}, "fraction must be a real number, got None"),
        ({"fraction": False}, "fraction must be a real number, got False"),
        ({"window": 2000.5}, "window must be an integer"),
        ({"window": 0}, "window must be >= 2"),
        ({"window": True}, "window must be an integer"),
        ({"max_delay": 3.5}, "max_delay must be an integer"),
        ({"max_delay": -1}, "max_delay must be >= 0"),
    ],
    ids=[
        "fraction", "fraction-str", "fraction-none", "fraction-bool", "window-float", "window-0",
        "window-bool", "max_delay-float", "max_delay-negative",
    ],
)
def test_a_bad_setting_opens_no_trace(setting, says):
    opens = []
    settings = {"fraction": 0.05, "window": 200, "max_delay": 3, **setting}
    with pytest.raises(InvalidArgumentError, match=says):
        analyze_traces(_counting_readers(_four_traces(), opens), **settings)
    assert opens == []
    if "fraction" in setting:  # nor does the one reduction of an array
        with pytest.raises(InvalidArgumentError, match=says):
            discard_average4(np.zeros(100), setting["fraction"])
    else:  # nor does the report of four series

        def unreadable():
            raise AssertionError("a series was read")

        q = pipeline._Series(5000, unreadable)
        with pytest.raises(InvalidArgumentError, match=says):
            analysis_report(q, q, q, q, window=settings["window"], max_delay=settings["max_delay"])


@pytest.mark.parametrize("where", ["missing/s.csv", "file/s.csv", "."])
def test_a_series_file_that_cannot_be_written_opens_no_trace(tmp_path, monkeypatch, where):
    # a missing directory, a file in its place, or a directory as the path:
    # the error names the path as given, before any trace is opened
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    opens = []
    with pytest.raises(OSError, match=f": {re.escape(repr(where))}$"):
        _analyze(_counting_readers(_four_traces(), opens), series_out=where)
    assert opens == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("split", [lambda v: [v], lambda v: [v, v[:0]]], ids=["one-chunk", "then-empty"])
def test_analyze_traces_keeps_a_trace_that_one_chunk_completes(split):
    # pass 1 keeps the averages of a trace that one chunk completes, an empty
    # chunk after it or not, so no later pass opens it again
    raw, opens = _four_traces(), []

    def reader(k, v):
        def read():
            opens.append(k)
            return iter(split(v)), v.size, 5e8

        return read

    assert _analyze([reader(k, v) for k, v in enumerate(raw)]) == _analyze([(v, 5e8) for v in raw])
    assert [opens.count(k) for k in range(4)] == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "k, fault, says",
    [
        (0, lambda v: v[:3], "trace too short to average"),
        (1, lambda v: v[:-4], "samples, but signal 1 has"),
        (2, lambda v: np.full(v.size, 2.0), "shot-noise variance must be positive"),
        (3, lambda v: v[:-1], "samples, but shot noise 1 has"),
    ],
    ids=["too-short", "signal-length", "constant-shot-noise", "shot-noise-length"],
)
def test_analyze_traces_names_the_faulty_trace(k, fault, says):
    raw = _four_traces()
    raw[k] = fault(raw[k])
    for names in (None, ["a.f32", "b.f32", "c.f32", "d.f32"]):
        with pytest.raises(ScenarioFormatError) as exc:
            _analyze([(v, 5e8) for v in raw], names=names)
        name = (names or ["signal 1", "signal 2", "shot noise 1", "shot noise 2"])[k]
        assert str(exc.value).startswith(f"{name}: "), str(exc.value)
        if names is None:
            assert says in str(exc.value)
    rates = [5e8, 5e8, 2.5e8, 5e8]
    with pytest.raises(ScenarioFormatError, match="^shot noise 1: sample rate 2.5e"):
        _analyze([(v, r) for v, r in zip(_four_traces(), rates)])


@pytest.mark.parametrize(
    "n_traces, names, says",
    [
        (3, None, "need four traces, got 3"),
        (5, None, "need four traces, got more"),
        (4, ["a.f32", "b.f32", "c.f32"], "need four names, got 3"),
    ],
    ids=["three-traces", "five-traces", "three-names"],
)
def test_analyze_traces_takes_four_traces_and_four_names(n_traces, names, says):
    raw = _four_traces()
    traces = [(v, 5e8) for v in (raw + raw)[:n_traces]]
    with pytest.raises(InvalidArgumentError, match=says):
        _analyze(traces, names=names)


@pytest.mark.parametrize("window", [None, 2000])
def test_files_arrays_and_uneven_chunks_give_one_report_and_series(tmp_path, window):
    # float32 files are read again in each pass, arrays are kept, and
    # chunks cut anew at random on every read are read again too
    raw, rate = _reference_raw_traces()
    raw = [v.astype(np.float32).astype(np.float64) for v in raw]
    paths = [tmp_path / f"{k}.f32" for k in range(4)]
    for path, v in zip(paths, raw):
        tracefiles.write(path, "f32", v, rate)
    rng = np.random.default_rng(22)

    def uneven(v):
        return lambda: (iter(np.split(v, np.sort(rng.integers(0, v.size, 60)))), v.size, rate)

    sources = {
        "files": [traceio.trace_reader(path) for path in paths],
        "arrays": [(v, rate) for v in raw],
        "chunks": [uneven(v) for v in raw],
    }
    reports, series = [], []
    for how, traces in sources.items():
        out = tmp_path / f"{how}.csv"
        report = analyze_traces(traces, fraction=0.05, window=window, max_delay=8, series_out=out)
        reports.append(report)
        series.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert series[0] == series[1] == series[2]
    assert reports[0]["optimal_delay"] == 3 and reports[0]["window"] == window


@pytest.mark.parametrize("n, window", [(250_003, 2000), (230_001, 150_000), (5_000, 5_000), (7, 2)])
def test_rolling_fed_in_pieces_is_rolling_variance(n, window):
    # blocks that span the pieces, windows longer than a block, one window
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1e3
    pieces = np.split(x, np.sort(rng.integers(0, n, 30)))
    got, state = [], 0
    tracemalloc.start()
    try:
        roll = RollingVariance(n, window)
        for piece in pieces:
            got += roll.add(piece)
            # what the kernel holds between pieces, past the values it returned
            state = max(state, tracemalloc.get_traced_memory()[0] - sum(v.nbytes for v in got))
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.concatenate(got), rolling_variance(x, window))
    # the prefix values of the starts still waiting for their end, in at
    # most two live blocks, and one run of the prefix sums
    assert state < 4 * 8 * min(window, RENORM_INTERVAL) + 2 * 8 * _RUN, state


def test_sums_fed_in_pieces_are_one_full_window():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(300_001) * 0.1 + 1e4
    for cuts in ([], np.sort(rng.integers(0, x.size, 25))):
        sums = pipeline._Sums()
        for piece in np.split(x, cuts):
            sums.add(piece)
        assert max(sums.var(), 0.0) == rolling_variance(x, x.size)[0]
        assert sums.mean() == pytest.approx(x.mean(), rel=1e-15)


def test_delay_objectives_do_not_depend_on_the_pieces():
    rng = np.random.default_rng(24)
    a = rng.standard_normal(53_117) + 7.0
    b = 0.6 * np.roll(a, -4) + 0.8 * rng.standard_normal(a.size)

    def pieced(x):
        return pipeline._Series(x.size, lambda: np.split(x, np.sort(rng.integers(0, x.size, 20))))

    for window, max_delay in ((10_000, 25), (1_000, 6), (700, 400)):
        want = pipeline._delay_objectives(a, b, max_delay, window)
        assert pipeline._delay_objectives(pieced(a), pieced(b), max_delay, window) == want
        assert max(want, key=lambda row: row[1])[0] == -4  # b[i] = a[i + 4] + noise


def test_normalize_writes_into_out():
    v = np.random.default_rng(19).standard_normal(101) + 3.0
    sn = ShotNoiseStats.from_samples(v[:50])
    want = normalize(v, sn).q
    out = v.copy()
    got = normalize(out, sn, out=out).q
    assert np.shares_memory(got, out) and np.array_equal(got, want)


# ------------------------------------------------------------ normalization


def test_shot_noise_self_normalization_is_exact():
    # normalizing a trace by its own post-averaging stats must give mean 0
    # and variance exactly 1/2 (up to float rounding)
    rng = np.random.default_rng(11)
    raw = 0.05 * rng.standard_normal(40_000) + 0.003
    sn = shot_noise_stats(raw)
    q = raw_to_quadratures(raw, sn, sample_rate=5e8)
    assert abs(float(np.mean(q.q))) < 1e-12
    assert float(np.var(q.q, ddof=1)) == pytest.approx(QUADRATURE_VACUUM_VARIANCE, abs=1e-9)
    assert q.quadrature_rate == pytest.approx(1.25e8)


def test_raw_to_quadratures_normalizes_its_averages_in_place():
    # the averages become the quadratures where they lie, so the call holds
    # one n/4 array, not a second one for the normalized copy
    raw = np.random.default_rng(24).standard_normal(400_000) + 0.3
    sn = shot_noise_stats(raw)
    want = normalize(discard_average4(raw, pipeline.DISCARD_FRACTION), sn, 1.25e8).q
    tracemalloc.start()
    try:
        q = raw_to_quadratures(raw, sn, sample_rate=5e8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.q, want)
    assert peak - q.q.nbytes < q.q.nbytes, peak / q.q.nbytes


def test_normalize_scales_third_party_trace():
    sn = ShotNoiseStats(mean=1.0, variance=4.0, n_samples=100)
    q = normalize(np.array([1.0, 3.0, -1.0]), sn, quadrature_rate=10.0)
    # scale = sqrt(0.5/4); values (0, 2, -2) scaled
    s = math.sqrt(0.125)
    assert np.allclose(q.q, [0.0, 2 * s, -2 * s], atol=1e-15)


def test_shot_noise_stats_validation():
    with pytest.raises(InvalidArgumentError):
        ShotNoiseStats(0.0, 0.0, 10)
    with pytest.raises(InvalidArgumentError):
        ShotNoiseStats.from_samples(np.array([1.0]))


def test_rolling_variance_wrapper():
    x = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    values = rolling_variance(x, 3)
    expected = [np.var(x[i : i + 3], ddof=1) for i in range(3)]
    assert isinstance(values, np.ndarray)
    assert np.allclose(values, expected, atol=1e-12)


# -------------------------------------------------------------- delay search


def test_delay_search_recovers_known_shift():
    rng = np.random.default_rng(12)
    n = 6000
    common = rng.standard_normal(n + 40)
    for true_delay in (-9, -1, 0, 2, 13):
        a = common[20 : 20 + n] + 0.05 * rng.standard_normal(n)
        b = common[20 - true_delay : 20 - true_delay + n] + 0.05 * rng.standard_normal(n)
        d, obj = delay_search(a, b, max_delay=15, window=50)
        assert d == true_delay
        assert 0.0 < obj <= 1.0


def test_delay_search_constant_trace_rejected():
    with pytest.raises(DegenerateInputError):
        delay_search(np.ones(500), np.random.default_rng(0).standard_normal(500), 5, 20)


def test_delay_search_validation():
    x = np.random.default_rng(1).standard_normal(100)
    with pytest.raises(DimensionMismatchError):
        delay_search(x, x[:-1], 5, 10)
    with pytest.raises(InvalidArgumentError):
        delay_search(x, x, 60, 50)  # no windows left
    with pytest.raises(InvalidArgumentError):
        delay_search(x, x, -1, 10)
    for max_delay, window in ((5.5, 10), (5, 10.5), (5, True), (np.float64(5), 10)):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            delay_search(x, x, max_delay, window)
    assert delay_search(x, x, np.int64(5), np.int32(10))[0] == 0  # numpy integers are integers


def test_align_index_arithmetic():
    a = np.arange(20.0)
    b = np.arange(100.0, 120.0)
    a2, b2 = align(a, b, delay=3, max_delay=5)
    assert np.array_equal(a2, np.arange(5.0, 15.0))
    assert np.array_equal(b2, np.arange(108.0, 118.0))
    a3, b3 = align(a, b, delay=-5, max_delay=5)
    assert np.array_equal(b3, np.arange(100.0, 110.0))
    # read-only views of the inputs, not copies
    assert np.shares_memory(a2, a) and np.shares_memory(b2, b)
    assert not (a2.flags.writeable or b2.flags.writeable) and a.flags.writeable
    with pytest.raises(InvalidArgumentError):
        align(a, b, delay=6, max_delay=5)
    with pytest.raises(InvalidArgumentError):
        align(a[:8], b[:8], delay=0, max_delay=4)
    for delay, max_delay in ((1, 3.5), (1.0, 3)):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            align(a, b, delay=delay, max_delay=max_delay)


# ---------------------------------------------------------- squeezing report


def test_squeezing_report_recovers_joint_variances():
    # correlated pair with known sum/difference variances, vacuum reference
    n = 400_000
    v1 = v2 = 1.4
    cov = 0.9  # var(sum)/2 = 2.3/..  -> in quadrature units: scale by 1/2
    x1, x2 = correlated_pair(n, v1, v2, cov, seed=21)
    q1, q2 = math.sqrt(0.5) * x1, math.sqrt(0.5) * x2  # vacuum-normalized units
    rng = np.random.default_rng(22)
    s1 = math.sqrt(0.5) * rng.standard_normal(n)
    s2 = math.sqrt(0.5) * rng.standard_normal(n)
    report = squeezing_report(q1, q2, s1, s2, window=None)
    want_min = 10 * math.log10((v1 + v2 - 2 * cov) / 2.0)
    want_max = 10 * math.log10((v1 + v2 + 2 * cov) / 2.0)
    assert report["squeezing_db"] == pytest.approx(want_min, abs=0.05)
    assert report["antisqueezing_db"] == pytest.approx(want_max, abs=0.05)
    assert report["error_db"] == 0.0
    assert set(report) == {"squeezing_db", "antisqueezing_db", "error_db"}


def test_squeezing_report_windowed_error_bar():
    rng = np.random.default_rng(23)
    n = 30_000
    q1, q2 = rng.standard_normal(n), rng.standard_normal(n)
    s1, s2 = rng.standard_normal(n), rng.standard_normal(n)
    report = squeezing_report(q1, q2, s1, s2, window=2000)
    # pure vacuum in, so extrema straddle 0 dB and the error bar is positive
    assert report["squeezing_db"] < 0.0 < report["antisqueezing_db"]
    assert report["error_db"] > 0.0


def test_squeezing_report_checks_a_window_longer_than_the_reference():
    rng = np.random.default_rng(24)
    q = rng.standard_normal(100)
    s = rng.standard_normal(50)
    with pytest.raises(InvalidArgumentError):
        squeezing_report(q, q, s, s, window=80)


@pytest.mark.parametrize(
    "window, says", [(2000, "window 2000 exceeds trace length 1500"), (0, "window must be >= 2")]
)
def test_squeezing_report_checks_its_windows_before_it_reads(window, says):
    def unreadable():
        raise AssertionError("a pair was read")

    q, s = pipeline._Series(5000, unreadable), pipeline._Series(1500, unreadable)
    with pytest.raises(InvalidArgumentError, match=says):
        squeezing_report(q, q, s, s, window=window)


@pytest.mark.parametrize("window", [10_000, None])
def test_squeezing_report_memory_stays_below_seven_traces(window):
    # numpy reports its buffers to tracemalloc; a full-length window must not
    # cost whole-trace scratch beyond the rolling variance's own
    n = 475_000
    q1, q2 = correlated_pair(n, 1.0, 1.0, 0.5, seed=25)
    rng = np.random.default_rng(26)
    s1, s2 = rng.standard_normal(n), rng.standard_normal(n)
    tracemalloc.start()
    try:
        squeezing_report(q1, q2, s1, s2, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * n, peak / (8 * n)


def test_squeezing_report_length_mismatch():
    x = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(DimensionMismatchError):
        squeezing_report(x, x[:-1], x, x)


# ------------------------------------------------------- variance vs delay


def test_variance_vs_delay_oracle():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    rows = variance_vs_delay(a, b, window=64, at_index=100, delays=[-2, 0, 5])
    for d, vp, vm in rows:
        wa = a[100:164]
        wb = b[100 + d : 164 + d]
        assert vp == pytest.approx(np.var(wa + wb, ddof=1), rel=1e-12)
        assert vm == pytest.approx(np.var(wa - wb, ddof=1), rel=1e-12)


def test_variance_vs_delay_bounds_checked():
    a = np.zeros(100)
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 60, [0])
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 10, [-11])
    with pytest.raises(InvalidArgumentError):
        variance_vs_delay(a, a, 50, 10, [])
    for window, at_index, delays in ((50.5, 10, [0]), (50, 10.5, [0]), (50, 10, [0.5])):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            variance_vs_delay(a, a, window, at_index, delays)


def test_dip_fwhm_triangle_is_exact():
    # V-shaped dip of half-width 6 at half level -> FWHM exactly 6
    d = np.arange(-20.0, 21.0)
    v = np.maximum(1.0 - np.abs(d) / 6.0, 0.0) * -1.0 + 1.0  # dip from 1 down to 0 at d=0
    assert dip_fwhm(d, v) == pytest.approx(6.0, abs=1e-12)


def test_dip_fwhm_gaussian():
    d = np.linspace(-30, 30, 121)
    sigma = 4.0
    v = 1.0 - 0.8 * np.exp(-0.5 * (d / sigma) ** 2)
    want = 2.0 * sigma * math.sqrt(2.0 * math.log(2.0))
    assert dip_fwhm(d, v) == pytest.approx(want, rel=0.02)


#: Finite floats, with -0.0 made 0.0: np.sort and np.partition may order
#: the two either way.  dip_fwhm's distances and variances hold no -0.0.
_finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_finite, min_size=1, max_size=60))
def test_dip_baseline_helpers_match_numpy_bit_for_bit(x):
    # dip_fwhm's own quantile and median spare `analyze` the import of
    # numpy.ma that np.quantile and np.median make
    x = np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.float64(pipeline._quantile(x, 0.75)).tobytes() == np.quantile(x, 0.75).tobytes()
        assert np.float64(pipeline._median(x)).tobytes() == np.median(x).tobytes()


def test_dip_fwhm_rejects_unresolved():
    d = np.arange(-10.0, 11.0)
    with pytest.raises(DegenerateInputError):
        dip_fwhm(d, np.ones_like(d))
    with pytest.raises(InvalidArgumentError):
        dip_fwhm([0, 1, 2], [1, 0, 1])  # too few points
    with pytest.raises(InvalidArgumentError):
        dip_fwhm([0, 1, 1, 2, 3], [1, 0, 0, 1, 1])  # non-increasing axis


# ------------------------------------------------------------ full analysis


def test_analysis_report_on_synthetic_correlated_pair():
    n = 60_000
    ch, sh = math.cosh(2 * 0.9), math.sinh(2 * 0.9)
    x1, x2 = correlated_pair(n, ch, ch, -sh * 0.99, seed=41)
    q1, q2 = math.sqrt(0.5) * x1, math.sqrt(0.5) * x2
    rng = np.random.default_rng(42)
    s1, s2 = math.sqrt(0.5) * rng.standard_normal(n), math.sqrt(0.5) * rng.standard_normal(n)
    report = analysis_report(q1, q2, s1, s2, window=None, max_delay=4)
    assert report["optimal_delay"] == 0
    want_sq = 10 * math.log10(ch - sh * 0.99)
    assert report["squeezing_db"] == pytest.approx(want_sq, abs=0.1)
    # white (uncorrelated-in-time) input has a delta correlation: no dip width
    # is resolvable beyond one sample, but the report must still be complete
    assert set(report) >= {"squeezing_db", "antisqueezing_db", "error_db",
                           "optimal_delay", "fwhm_samples", "fwhm_ns"}


@functools.lru_cache(maxsize=1)
def _reference_raw_traces():
    """Signal and shot-noise raw samples of a short `reference` run with a
    3-sample relative delay."""
    cfg = dataclasses.replace(
        cli.scenario_synth_config(cli.load_scenario("reference"), seed=5, duration=2e-4),
        relative_delay_samples=4 * 3,
    )
    traces = (*synth.synthesize_pair(cfg), *synth.synthesize_shot_noise(cfg))
    return tuple(t.samples for t in traces), cfg.sample_rate


def _chain_report(transform):
    raw, rate = _reference_raw_traces()
    sig1, sig2, ref1, ref2 = (transform(v) for v in raw)
    stats = [shot_noise_stats(v) for v in (ref1, ref2)]
    q = [raw_to_quadratures(v, sn, rate).q for v, sn in zip((sig1, sig2, ref1, ref2), stats * 2)]
    return analysis_report(*q, window=2000, max_delay=8)


def _assert_same_report(got):
    want = _chain_report(lambda v: v)
    assert got["optimal_delay"] == want["optimal_delay"] == 3
    for key in ("squeezing_db", "antisqueezing_db", "error_db"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-9)


@settings(max_examples=5, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_chain_is_invariant_to_scaling_the_raw_traces(c):
    _assert_same_report(_chain_report(lambda v: c * v))


@settings(max_examples=5, deadline=None)
@given(offset=st.floats(-10.0, 10.0))
def test_chain_is_invariant_to_a_dc_offset_on_the_raw_traces(offset):
    _assert_same_report(_chain_report(lambda v: v + offset))


def test_readme_python_api_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    squeezing, antisqueezing, error = map(float, out.splitlines()[-1].split())
    assert squeezing < 0 < antisqueezing and 0 < error < 1, out
