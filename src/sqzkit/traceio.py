"""File formats for traces, analysis series, and tabular inputs.

A trace file holds one channel, the detector volts, as CSV (header
``volts``, one ``%.9g`` row per sample) or as little-endian float32.  A JSON
sidecar (``<file>.json``) records what neither payload says itself: an
object with ``format`` ("csv" or "f32"), ``sample_rate_hz`` (finite, > 0),
``n_samples`` (an integer >= 0, matching the payload) and ``channels``.
Files of older versions start each CSV row with an ``index`` column, and
may carry a second channel, ``monitor_volts``: a last CSV column, or a
float32 block after the volts.  The CSV reader takes the column its header
names ``volts``; the float32 reader takes the first block, by the sidecar's
``channels``, which must be ``["volts"]`` (the default) or
``["volts", "monitor_volts"]``.  A sample that is not finite fails the
read.  `read_trace_chunks` reads a float32 payload a chunk at a time, so a
caller can reduce each chunk as it arrives; a CSV is read whole.
`trace_reader` reads a trace anew each time it is called, once it has
checked that the file is the one it read first.

All writes are atomic (temp file + rename) so a crashed run never leaves a
half-written file behind.  `write_traces` takes each trace a run of samples
at a time, from a producer such as the synthesizer, and writes several
traces and their sidecars as one: all of them appear, or none does.

CSV rows of ``%.9g`` fields are rendered by numpy, one chunk of rows at a
time on the thread that hands them to the writer, into the bytes
%-formatting gives: `_render_g` fills a block of character slots, NUL
where a row has no character, which is transposed into lines before the
NULs are deleted, and a row holding a value it does not render exactly is
%-formatted on its own.  Every render
array is a temporary of one chunk, about 170 bytes a row, gone before the
next chunk is rendered.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from ._atomic import atomic_files, atomic_write
from .errors import InvalidArgumentError, ScenarioFormatError

_BINARY_DTYPE = "<f4"
DEFAULT_SAMPLE_RATE = 5e8
#: The channel lists a sidecar may give: this version's, and the older one
#: with a trigger monitor after the volts.
_CHANNELS = (["volts"], ["volts", "monitor_volts"])
#: Trace and series writes are rendered and written this many rows at a time.
#: A CSV chunk's render temporaries take about 170 bytes a trace row; shorter
#: chunks call numpy more often, longer ones leave the cache.
_CHUNK_ROWS = 8_192
#: Float32 traces are read this many values at a time.
_READ_ROWS = 65_536


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _sidecar_text(fmt: str, sample_rate: float, n: int, meta: dict | None) -> bytes:
    sidecar = {
        "format": fmt,
        "sample_rate_hz": sample_rate,
        "n_samples": n,
        "channels": ["volts"],
        "meta": meta or {},
    }
    return (json.dumps(sidecar, indent=2) + "\n").encode("utf-8")


def _read_sidecar(path: Path) -> dict | None:
    """The trace's sidecar with its required fields checked; None if it has none."""
    sp = _sidecar_path(path)
    if not sp.exists():
        return None
    try:
        sidecar = json.loads(sp.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioFormatError(f"{sp}: unreadable trace sidecar: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ScenarioFormatError(f"{sp}: trace sidecar must be a JSON object")
    rate, n = sidecar.get("sample_rate_hz"), sidecar.get("n_samples")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 < rate < math.inf:
        raise ScenarioFormatError(f"{sp}: sample_rate_hz must be a finite number > 0, got {rate!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ScenarioFormatError(f"{sp}: n_samples must be an integer >= 0, got {n!r}")
    if sidecar.get("format") not in ("csv", "f32"):
        raise ScenarioFormatError(
            f"{sp}: format must be 'csv' or 'f32', got {sidecar.get('format')!r}"
        )
    if sidecar.setdefault("channels", ["volts"]) not in _CHANNELS:
        raise ScenarioFormatError(
            f"{sp}: channels must be one of {_CHANNELS}, got {sidecar['channels']!r}"
        )
    return sidecar


#: Powers of ten, 10**k at index k + 1 for k in [-1, 23]; exact for k in [0, 22].
_POW10 = np.array([10.0**k for k in range(-1, 24)])
#: Characters as uint8 scalars, so that arithmetic with them stays in uint8.
_ZERO, _POINT, _MINUS, _COMMA, _NEWLINE = np.frombuffer(b"0.-,\n", np.uint8)
#: Character slots of one ``%.9g`` field: a sign; the "0." and up to three
#: zeros that start a fixed-layout value below 1; nine digits, each followed
#: by a slot for the point; "e", the exponent's sign and two digits.
_G_SLOTS = 27
_G_DIGITS, _G_POINTS = slice(6, 23, 2), slice(7, 22, 2)


def _slot_table(texts) -> np.ndarray:
    """Column i holds ``texts[i]`` padded with NUL: a lookup table of slots."""
    width = max(map(len, texts))
    return np.array([list(t.ljust(width, b"\0")) for t in texts], np.uint8).T


# %g's layout by decimal exponent X, at column X + 14 of each table: fixed
# for -4 <= X < 9, else scientific.  X lies in [-14, 9]; 9 only by a carry.
_G_X = range(-14, 10)
#: What starts the digits: "0." and -X - 1 zeros for a fixed value below 1.
_G_PREFIX = _slot_table([b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in _G_X])
#: The exponent of a scientific-layout value.
_G_EXPONENT = _slot_table([b"" if -4 <= x < 9 else b"e%+03d" % x for x in _G_X])
#: The digit the point follows: X in fixed layout, 0 in scientific, and -1
#: for a fixed value below 1, whose point is in the prefix.
_G_AFTER = np.array([x if 0 <= x < 9 else -1 if -4 <= x < 0 else 0 for x in _G_X], np.int8)
_DIGIT_INDEX = np.arange(9, dtype=np.int8)[:, None]


def _render_g(x) -> tuple[np.ndarray, np.ndarray]:
    """``%.9g`` of the float64 values `x`: a (`_G_SLOTS`, x.size) uint8
    block of character slots, NUL where a value has no character, and the
    mask of the values numpy cannot render exactly, whose slots are left to
    the %-format: non-finite values, |x| >= 1e9, 0 < |x| < 1e-14, and values
    whose scaled mantissa lies within 1e-6 of a rounding tie."""
    a = np.abs(x)
    zero = a == 0.0
    bad = ~((zero | (a >= 1e-14)) & (a < 1e9))  # True for nan
    a[bad | zero] = 1.0
    # e = floor(log10 |x|), so that s = |x| * 10**(8 - e) lies in [1e8, 1e9).
    # 10**(8 - e) is exact and the product correctly rounded, so rint(s)
    # is the correctly rounded nine-digit mantissa unless s is near a tie.
    # Where log10 rounds across an integer, |x| is within a few ulps of a
    # power of ten, and s rounds to 1e8 (e is right for the rounded value)
    # or to 1e9, the carry below.
    e = np.floor(np.log10(a))
    s = _POW10[(9.0 - e).astype(np.intp)] * a  # 10**(8 - e) sits at index 9 - e
    m = np.rint(s)
    bad |= np.abs(s - m) > 0.5 - 1e-6
    carry = m == 1e9  # rounding carried into a tenth digit
    m[carry] = 1e8
    e += carry
    m[zero] = 0.0  # a zero has e = 0, from |x| = 1
    column = (e + 14).astype(np.intp)

    slots = np.empty((_G_SLOTS, x.size), np.uint8)
    slots[0] = np.signbit(x) * _MINUS
    slots[1:6] = np.take(_G_PREFIX, column, axis=1)
    slots[23:27] = np.take(_G_EXPONENT, column, axis=1)
    digits = slots[_G_DIGITS]
    q = m.astype(np.uint32)
    for j in range(8, -1, -1):  # digit j of m, most significant first
        tenth = q // 10
        digits[j] = q - 10 * tenth + _ZERO
        q = tenth
    # %g drops the zeros that end the fraction: the digits after `last`,
    # the later of the point's digit and the last digit that is not zero
    after = _G_AFTER[column]
    last = np.maximum(after, np.max(_DIGIT_INDEX * (digits != _ZERO), axis=0))
    digits *= _DIGIT_INDEX <= last
    # the point follows digit `after` when a digit follows it
    slots[_G_POINTS] = (_DIGIT_INDEX[:8] == np.where(after < last, after, -1)) * _POINT
    return slots, bad


def _csv_lines(*columns):
    """One line per row of the float64 `columns`, their ``%.9g`` fields
    comma-separated, as ASCII chunks of `_CHUNK_ROWS` rows.

    numpy renders each chunk into the same bytes as that %-format; a row
    holding a value its renderer does not take is %-formatted instead.
    """
    row_format = ",".join(["%.9g"] * len(columns)) + "\n"
    n = len(columns[0])
    for i in range(0, n, _CHUNK_ROWS):
        k = min(_CHUNK_ROWS, n - i)
        # each field's slots and its separator: a comma, or the newline
        block = np.empty((len(columns), _G_SLOTS + 1, k), np.uint8)
        block[:, _G_SLOTS] = _COMMA
        block[-1, _G_SLOTS] = _NEWLINE
        bad = np.zeros(k, bool)
        for field, column in zip(block, columns):
            field[:_G_SLOTS], field_bad = _render_g(column[i : i + k])
            bad |= field_bad
        lines = block.reshape(-1, k)
        # a %.9g field is at most 16 characters ("-1.23456789e-308") and has
        # 28 slots with its separator, so a row left to the %-format fits
        for r in np.flatnonzero(bad).tolist():
            row = row_format % tuple(column[i + r] for column in columns)
            lines[:, r] = np.frombuffer(row.encode("ascii").ljust(len(lines), b"\0"), np.uint8)
        yield lines.T.tobytes().translate(None, b"\0")


def _f32_chunks(volts):
    """`volts` as little-endian float32 bytes, `_CHUNK_ROWS` values at a time."""
    for i in range(0, volts.size, _CHUNK_ROWS):
        yield volts[i : i + _CHUNK_ROWS].astype(_BINARY_DTYPE)


def write_traces(paths, fmt: str, sample_rate: float, produce) -> None:
    """Write a trace file in format `fmt` ("csv" or "f32"), and its sidecar,
    at each of `paths`, from ``produce(sinks)``.

    `produce` hands each trace's volts, in order and in runs of any length,
    to ``sinks[k](volts)`` for the trace at ``paths[k]``, and returns the
    traces' meta dicts.  A sink may be called on any thread, but one
    thread at a time.  Every file appears when `produce` returns; if it
    raises, none does.  A format or rate that `read_trace_chunks` would
    reject raises InvalidArgumentError before any file is opened.
    """
    if fmt not in ("csv", "f32"):
        raise InvalidArgumentError(f"trace format must be 'csv' or 'f32', got {fmt!r}")
    if not 0 < sample_rate < math.inf:
        raise InvalidArgumentError(f"sample rate must be a finite number > 0, got {sample_rate!r}")
    paths = [Path(path) for path in paths]
    encode = _csv_lines if fmt == "csv" else _f32_chunks
    counts = [0] * len(paths)

    def sink_for(k, fh):
        def sink(volts):
            for chunk in encode(volts):
                fh.write(chunk)
            counts[k] += len(volts)

        return sink

    with atomic_files([*paths, *map(_sidecar_path, paths)]) as files:
        traces, sidecars = files[: len(paths)], files[len(paths) :]
        if fmt == "csv":
            for fh in traces:
                fh.write(b"volts\n")
        metas = produce([sink_for(k, fh) for k, fh in enumerate(traces)])
        for fh, n, meta in zip(sidecars, counts, metas):
            fh.write(_sidecar_text(fmt, sample_rate, n, meta))


def _read_csv(path: Path, sidecar: dict | None) -> np.ndarray:
    """The column named ``volts`` of a trace CSV, whichever others it has."""
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
        if "volts" not in header:
            raise ScenarioFormatError(f"{path}: trace CSV header {header!r} has no volts column")
        # loadtxt reads a path faster than an open text file
        column = header.index("volts")
        volts = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(column,), ndmin=1)
    except (OSError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: not a readable trace CSV: {exc}") from exc
    if sidecar and volts.size != sidecar["n_samples"]:
        raise ScenarioFormatError(
            f"{path}: {volts.size} rows, but {_sidecar_path(path)} says "
            f"n_samples = {sidecar['n_samples']}"
        )
    return volts


def _binary_length(path: Path, sidecar: dict | None) -> int:
    """n, for a float32 file that must hold n values per channel."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: not a readable float32 trace: {exc}") from exc
    n, channels = (sidecar["n_samples"], len(sidecar["channels"])) if sidecar else (size // 4, 1)
    if size != 4 * channels * n:
        raise ScenarioFormatError(
            f"{path}: {size} bytes, not the {channels} x {n} float32 values of "
            f"{_sidecar_path(path) if sidecar else 'a trace with no sidecar'}"
        )
    return n


def _binary_chunks(path: Path, n: int):
    """The first n float32 values of the file, as float64 chunks."""
    try:
        with open(path, "rb") as fh:
            for i in range(0, n, _READ_ROWS):
                count = min(_READ_ROWS, n - i)
                chunk = np.fromfile(fh, dtype=_BINARY_DTYPE, count=count)
                if chunk.size != count:
                    raise ScenarioFormatError(f"{path}: the file ended after {i + chunk.size} values")
                yield chunk.astype(np.float64)
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: not a readable float32 trace: {exc}") from exc


def _finite(path: Path, chunks):
    """`chunks`, each checked for a sample that is not finite."""
    at = 0
    for chunk in chunks:
        finite = np.isfinite(chunk)
        if not finite.all():
            raise ScenarioFormatError(f"{path}: sample {at + int(finite.argmin())} is not finite")
        at += chunk.size
        yield chunk


def read_trace_chunks(path):
    """(chunks, n_samples, sample_rate) of a CSV or float32 trace, by the
    sidecar's format field, else the file extension.  With no sidecar the
    rate is 500 MS/s and the file holds one channel.

    The sidecar, and the payload's size or the whole CSV, are checked here.
    `chunks` yields the n_samples volts in order as float64 arrays: a CSV
    as one, a float32 payload `_READ_ROWS` values at a time, read as they
    are asked for.  A sample that is not finite fails that chunk's read.
    """
    path = Path(path)
    sidecar = _read_sidecar(path)
    fmt = sidecar["format"] if sidecar else ("csv" if path.suffix.lower() == ".csv" else "f32")
    rate = float(sidecar["sample_rate_hz"]) if sidecar else DEFAULT_SAMPLE_RATE
    if fmt == "csv":
        volts = _read_csv(path, sidecar)
        return _finite(path, [volts]), volts.size, rate
    n = _binary_length(path, sidecar)
    return _finite(path, _binary_chunks(path, n)), n, rate


def trace_reader(path):
    """A callable that reads the trace at `path` with `read_trace_chunks`
    each time it is called, for a caller that reads a trace more than once.
    From the second call on, it first checks that the payload is still the
    file the first call read, by its inode, size and modification time, and
    raises ScenarioFormatError naming it if not, so a trace rewritten
    between reads cannot mix into one result."""
    path = Path(path)
    first = []

    def mark():
        try:
            st = path.stat()
        except OSError as exc:
            raise ScenarioFormatError(f"{path}: cannot read the trace again: {exc}") from exc
        return st.st_ino, st.st_size, st.st_mtime_ns

    def read():
        if first and mark() != first[0]:
            raise ScenarioFormatError(f"{path}: the trace changed after it was first read")
        trace = read_trace_chunks(path)
        if not first:
            first.append(mark())
        return trace

    return read


def write_analysis_csv(path, blocks) -> None:
    """Rolling-variance series export: one row per window position.

    `blocks` yields the rows in order, a run at a time, as the columns
    (time_ms, V_plus, V_minus, V_SN_plus, V_SN_minus) of one length each;
    each run is rendered as it arrives."""

    def chunks():
        yield b"time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus\n"
        for block in blocks:
            cols = [np.asarray(c, dtype=np.float64) for c in block]
            if any(c.size != cols[0].size for c in cols):
                raise ScenarioFormatError("analysis columns must share one length")
            yield from _csv_lines(*cols)

    atomic_write(path, chunks())


def _read_rows(path, what: str, row_name: str, columns, make) -> list:
    """``make(*fields)`` for each data row of the CSV `path`, with the fields
    of `columns` in that order; errors name the file, and the row."""
    path = Path(path)
    items = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
                raise ScenarioFormatError(f"{path}: {what} CSV needs columns {', '.join(columns)}")
            for k, row in enumerate(reader, start=2):
                try:
                    fields = [row[c] for c in columns]
                    if None in fields:  # a short row
                        raise ValueError(f"no {columns[fields.index(None)]} field")
                    if None in row:  # a long row: DictReader keeps the extra fields under None
                        raise ValueError(f"{len(row[None])} field(s) past the header")
                    items.append(make(*fields))
                except ValueError as exc:
                    raise ScenarioFormatError(f"{path}:{k}: bad {row_name} row: {exc}") from exc
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: cannot read {what} CSV: {exc}") from exc
    if not items:
        raise ScenarioFormatError(f"{path}: {what} CSV has no data rows")
    return items


def read_sweep_csv(path):
    """Pump-power sweep rows: columns p_w_watts, level_db, branch."""
    from .fitting import PowerSweepPoint

    return _read_rows(
        path, "sweep", "sweep", ("p_w_watts", "level_db", "branch"),
        lambda power, level, branch: PowerSweepPoint(float(power), float(level), branch.strip()),
    )


def read_peaks_csv(path):
    """Spectrum peak rows: columns freq_hz, power_dbm, kind."""
    from .sideband import SpectralPeak

    return _read_rows(
        path, "peaks", "peak", ("freq_hz", "power_dbm", "kind"),
        lambda freq, power, kind: SpectralPeak(float(freq), float(power), kind.strip()),
    )
