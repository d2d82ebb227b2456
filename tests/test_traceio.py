"""Trace/CSV file formats: round trips, sidecars, malformed-input errors."""

import dataclasses
import json
import math
import re
import threading
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzkit import _kernels, cli, synth, traceio
from sqzkit.errors import ScenarioFormatError


@pytest.fixture
def trace():
    return 0.05 * np.random.default_rng(0).standard_normal(500)


def test_csv_round_trip(tmp_path, trace):
    p = tmp_path / "t.csv"
    traceio.write_trace_csv(p, trace, 5e8, meta={"channel": 1})
    v, rate = traceio.read_trace(p)
    np.testing.assert_allclose(v, trace, rtol=1e-8)
    assert rate == 5e8
    sidecar = json.loads((tmp_path / "t.csv.json").read_text())
    assert sidecar["format"] == "csv"
    assert sidecar["n_samples"] == 500
    assert sidecar["channels"] == ["volts"]
    assert sidecar["meta"]["channel"] == 1


def test_binary_round_trip(tmp_path, trace):
    p = tmp_path / "t.f32"
    traceio.write_trace_binary(p, trace, 2.5e8)
    v, rate = traceio.read_trace(p)
    np.testing.assert_allclose(v, trace, atol=1e-8)  # float32 storage
    assert rate == 2.5e8
    assert p.stat().st_size == 500 * 4
    # a sidecar with no channels list describes one channel
    sidecar = json.loads((tmp_path / "t.f32.json").read_text())
    del sidecar["channels"]
    (tmp_path / "t.f32.json").write_text(json.dumps(sidecar))
    assert np.array_equal(traceio.read_trace(p)[0], v)


def test_read_trace_dispatch(tmp_path, trace):
    traceio.write_trace_csv(tmp_path / "a.csv", trace, 1e6)
    traceio.write_trace_binary(tmp_path / "b.f32", trace, 1e6)
    for name in ("a.csv", "b.f32"):
        v, rate = traceio.read_trace(tmp_path / name)
        assert v.size == 500
        assert rate == 1e6


def test_read_trace_reads_the_sidecar_once(tmp_path, trace, monkeypatch):
    traceio.write_trace_csv(tmp_path / "a.csv", trace, 1e6)
    traceio.write_trace_binary(tmp_path / "b.f32", trace, 1e6)
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    for name in ("a.csv", "b.f32"):
        traceio.read_trace(tmp_path / name)
    assert reads == ["a.csv.json", "b.f32.json"]


def test_missing_sidecar_defaults_rate(tmp_path, trace):
    p = tmp_path / "t.f32"
    traceio.write_trace_binary(p, trace, 1e6)
    (tmp_path / "t.f32.json").unlink()
    v, rate = traceio.read_trace(p)
    assert v.size == 500
    assert rate == traceio.DEFAULT_SAMPLE_RATE


@pytest.mark.parametrize(
    "name, columns, with_sidecar",
    [
        ("t.csv", ("index", "volts", "monitor_volts"), True),
        ("t.csv", ("index", "volts", "monitor_volts"), False),
        ("t.f32", ("volts", "monitor_volts"), True),
        ("t.csv", ("index", "volts"), True),
        ("t.csv", ("index", "volts"), False),
        ("t.csv", ("volts",), True),
        ("t.csv", ("volts",), False),
    ],
    ids=["csv", "csv-no-sidecar", "f32", "index-volts", "index-volts-no-sidecar", "volts", "volts-no-sidecar"],
)
def test_two_channel_files_of_older_versions_read_back_their_volts(tmp_path, trace, name, columns, with_sidecar):
    # the layouts each version wrote: an index, the volts, then a trigger monitor
    fields = {"index": range(trace.size), "volts": trace, "monitor_volts": np.zeros(trace.size)}
    fields["monitor_volts"][250:260] = 2.0
    p = tmp_path / name
    if p.suffix == ".csv":
        row_format = ",".join("%d" if c == "index" else "%.9g" for c in columns) + "\n"
        rows = "".join(row_format % row for row in zip(*(fields[c] for c in columns)))
        p.write_text(",".join(columns) + "\n" + rows)
        want = np.array([float(f"{v:.9g}") for v in trace])
    else:
        p.write_bytes(b"".join(fields[c].astype("<f4").tobytes() for c in columns))
        want = trace.astype("<f4").astype(np.float64)
    if with_sidecar:
        sidecar = {
            "format": p.suffix[1:],
            "sample_rate_hz": 2.5e8,
            "n_samples": trace.size,
            "channels": [c for c in columns if c != "index"],
            "meta": {},
        }
        (tmp_path / f"{name}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    volts, rate = traceio.read_trace(p)
    assert np.array_equal(volts, want)
    assert rate == (2.5e8 if with_sidecar else traceio.DEFAULT_SAMPLE_RATE)


def test_a_csv_with_no_volts_column_fails_naming_the_file(tmp_path, trace):
    # an analysis series handed over as a trace: its second column is not volts
    p = tmp_path / "t.csv"
    traceio.write_analysis_csv(p, *[trace] * 5)
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(str(p))}: .*no volts column"):
        traceio.read_trace(p)


def test_corrupt_sidecar_raises(tmp_path, trace):
    p = tmp_path / "t.f32"
    traceio.write_trace_binary(p, trace, 1e6)
    (tmp_path / "t.f32.json").write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        traceio.read_trace(p)


def test_truncated_binary_raises(tmp_path, trace):
    p = tmp_path / "t.f32"
    traceio.write_trace_binary(p, trace, 1e6)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ScenarioFormatError):
        traceio.read_trace(p)


def test_unreadable_csv_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("index,volts,monitor_volts\n0,abc,def\n")
    with pytest.raises(ScenarioFormatError):
        traceio.read_trace(p)


def test_no_leftover_temp_files(tmp_path, trace):
    traceio.write_trace_binary(tmp_path / "t.f32", trace, 1e6)
    traceio.write_trace_csv(tmp_path / "t.csv", trace, 1e6)
    names = sorted(q.name for q in tmp_path.iterdir())
    assert names == ["t.csv", "t.csv.json", "t.f32", "t.f32.json"]


def test_analysis_csv(tmp_path):
    t = np.linspace(0, 1, 5)
    cols = [t, t + 1, t + 2, t + 3, t + 4]
    p = tmp_path / "series.csv"
    traceio.write_analysis_csv(p, *cols)
    lines = p.read_text().splitlines()
    assert lines[0] == "time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus"
    assert len(lines) == 6
    with pytest.raises(ScenarioFormatError):
        traceio.write_analysis_csv(p, t, t, t, t, t[:-1])


def _row_by_row(values):
    """A trace of `values` and a five-column series of its rolls, each as
    `write_trace_csv` and `write_analysis_csv` must write it."""
    cols = [np.roll(values, k) for k in range(5)]
    header = "time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus\n"
    series = "".join(",".join(f"{c[i]:.9g}" for c in cols) + "\n" for i in range(values.size))
    return "volts\n" + "".join(f"{v:.9g}\n" for v in values), cols, header + series


def test_csv_writers_match_a_row_by_row_rendering(tmp_path, monkeypatch):
    values = np.array([0.1, -0.0, 2.0, 1e-300, -1.5e300, 123456789.0, np.inf, -np.inf, np.nan])
    trace_text, cols, series_text = _row_by_row(values)
    # 1, 2, 3, 5 and 9 chunks
    for chunk_rows in (traceio._CHUNK_ROWS, 5, 4, 2, 1):
        with monkeypatch.context() as m:
            m.setattr(traceio, "_CHUNK_ROWS", chunk_rows)
            traceio.write_trace_csv(tmp_path / "t.csv", values, 1e6)
            assert (tmp_path / "t.csv").read_text() == trace_text
            traceio.write_analysis_csv(tmp_path / "s.csv", *cols)
            assert (tmp_path / "s.csv").read_text() == series_text


def test_csv_writers_start_no_thread(tmp_path, monkeypatch):
    values = 0.05 * np.random.default_rng(4).standard_normal(40)
    values[[3, 17, 29]] = np.nan, np.inf, -np.inf
    trace_text, cols, series_text = _row_by_row(values)

    def no_thread(*args):
        raise AssertionError("a CSV write started a thread")

    monkeypatch.setattr(_kernels, "run_both", no_thread)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 8)  # five chunks
    traceio.write_trace_csv(tmp_path / "t.csv", values, 1e6)
    assert (tmp_path / "t.csv").read_text() == trace_text
    traceio.write_analysis_csv(tmp_path / "s.csv", *cols)
    assert (tmp_path / "s.csv").read_text() == series_text


def _numpy_rows(*columns):
    """Each row as numpy renders it, or None where it leaves the row to the
    %-format."""
    n = len(columns[0])
    lane = traceio._CsvLane(n, len(columns))
    misses = lane.fill(columns, 0, n)
    lines = lane.block[:, :n].T
    return [None if miss else bytes(line).replace(b"\0", b"").decode() for line, miss in zip(lines, misses)]


def _near_a_tie(v: float) -> bool:
    """Whether |v|, scaled to nine integer digits, lies within 2e-6 of a
    half: the only finite values in [1e-14, 1e9) numpy may leave."""
    d = abs(Decimal(v))
    t = d.scaleb(8 - d.adjusted())
    return abs(t - math.floor(t) - Decimal("0.5")) < Decimal("2e-6")


def _may_leave(v: float) -> bool:
    return not (v == 0.0 or 1e-14 <= abs(v) < 1e9) or _near_a_tie(v)


_carries_and_edges = [9.9999999995, 99999.99995, 999999999.6, 1e-5, 1e-4, 1e8, 1e9]
_near_ties = st.builds(
    lambda k, j, sign: sign * (k + 0.5) * 10.0**j,
    st.integers(10**8, 10**9 - 1),
    st.integers(-22, 0),
    st.sampled_from([1.0, -1.0]),
)
_powers_of_ten = st.builds(
    lambda k, toward: math.nextafter(10.0**k, toward * math.inf) if toward else 10.0**k,
    st.integers(-16, 10),
    st.sampled_from([-1, 0, 1]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(), st.floats(-1e9, 1e9), st.floats(-1e-4, 1e-4), _near_ties, _powers_of_ten),
        min_size=1,
        max_size=40,
    )
)
@example(_carries_and_edges + [-v for v in _carries_and_edges] + [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])
def test_numpy_rendering_is_percent_g(values):
    x = np.array(values, dtype=np.float64)
    for v, got in zip(values, _numpy_rows(x)):
        if got is None:
            assert _may_leave(v), v
        else:
            assert got == "%.9g\n" % v, v
    rendered = b"".join(traceio._csv_table("", x, x[::-1].copy())).decode()
    assert rendered == "".join("%.9g,%.9g\n" % pair for pair in zip(values, values[::-1]))


def test_a_synthesized_trace_takes_the_numpy_path(tmp_path, monkeypatch):
    cfg = cli.scenario_synth_config(cli.load_scenario("deployed"))
    cfg = dataclasses.replace(cfg, duration=4e-5, rng_seed=5)
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 4096)
    for trace in synth.synthesize_pair(cfg) + synth.synthesize_shot_noise(cfg):
        volts = trace.samples
        rows = _numpy_rows(volts)
        assert sum(row is None for row in rows) <= 0.001 * volts.size
        traceio.write_trace_csv(tmp_path / "t.csv", volts, trace.sample_rate)
        want = "".join(f"{v:.9g}\n" for v in volts)
        assert (tmp_path / "t.csv").read_text() == "volts\n" + want


def test_binary_writer_writes_volts(tmp_path, monkeypatch):
    volts = np.linspace(-1.0, 1.0, 11) / 3.0
    want = volts.astype("<f4").tobytes()
    for chunk_rows in (traceio._CHUNK_ROWS, 4):
        monkeypatch.setattr(traceio, "_CHUNK_ROWS", chunk_rows)
        traceio.write_trace_binary(tmp_path / "t.f32", volts, 1e6)
        assert (tmp_path / "t.f32").read_bytes() == want
        assert (tmp_path / "t.f32").stat().st_size == 4 * volts.size


def test_sweep_csv(tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text(
        "p_w_watts,level_db,branch\n"
        "0.1,-0.5,squeezed\n"
        "0.1,1.5,antisqueezed\n"
    )
    points = traceio.read_sweep_csv(p)
    assert len(points) == 2
    assert points[0].pump_power_watts == 0.1
    assert points[0].branch == "squeezed"


def test_sweep_csv_bad_rows(tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text("p_w_watts,level_db,branch\n0.1,-0.5,squeezed\n0.2,oops,squeezed\n")
    with pytest.raises(ScenarioFormatError, match=":3:"):
        traceio.read_sweep_csv(p)
    p.write_text("power,level\n1,2\n")
    with pytest.raises(ScenarioFormatError, match="columns"):
        traceio.read_sweep_csv(p)
    p.write_text("p_w_watts,level_db,branch\n")
    with pytest.raises(ScenarioFormatError, match="no data"):
        traceio.read_sweep_csv(p)
    for row in ("0.1,-3.0", "0.1,-0.5,squeezed,9"):
        p.write_text(f"p_w_watts,level_db,branch\n{row}\n")
        with pytest.raises(ScenarioFormatError, match=":2: bad sweep row"):
            traceio.read_sweep_csv(p)


def test_peaks_csv(tmp_path):
    p = tmp_path / "peaks.csv"
    p.write_text(
        "freq_hz,power_dbm,kind\n"
        "10e6,0.0,fundamental\n"
        "20e6,-40.0,harmonic\n"
        "15e6,-35.0,spur\n"
    )
    peaks = traceio.read_peaks_csv(p)
    assert [pk.kind for pk in peaks] == ["fundamental", "harmonic", "spur"]


def test_peaks_csv_bad_kind(tmp_path):
    p = tmp_path / "peaks.csv"
    p.write_text("freq_hz,power_dbm,kind\n10e6,0.0,sideways\n")
    with pytest.raises(ScenarioFormatError, match=":2:"):
        traceio.read_peaks_csv(p)
    for row in ("10e6,0.0", "10e6,0.0,fundamental,9"):
        p.write_text(f"freq_hz,power_dbm,kind\n{row}\n")
        with pytest.raises(ScenarioFormatError, match=":2: bad peak row"):
            traceio.read_peaks_csv(p)
