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
read.  All writes are atomic (temp file + rename) so a crashed run never
leaves a half-written file behind.

CSV rows of ``%.9g`` fields are rendered by numpy, one chunk of rows at a
time on the calling thread, into the bytes %-formatting gives.  Each field
fills 27 character slots in a (slots x rows) uint8 block, NUL where a row
has no character; the block is transposed into lines and the NULs are
deleted.  A value x gets e = floor(log10 |x|) and the mantissa
rint(|x| * 10**(8 - e)).  For |x| in [1e-14, 1e9) the power of ten is
exact and the product correctly rounded, so that is the correctly rounded
nine-digit mantissa unless the product lies within 1e-6 of a tie.  %g's
layout follows: fixed for -4 <= e < 9, else scientific, trailing zeros
dropped.  A row holding a value numpy does not render this way (not
finite, outside that range and not zero, or near a tie) is %-formatted on
its own into its line, padded with NUL, before the NULs are deleted.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from ._atomic import atomic_write, atomic_write_text
from .errors import ScenarioFormatError

_BINARY_DTYPE = "<f4"
DEFAULT_SAMPLE_RATE = 5e8
#: The channel lists a sidecar may give: this version's, and the older one
#: with a trigger monitor after the volts.
_CHANNELS = (["volts"], ["volts", "monitor_volts"])
#: Trace and series writes are rendered and written this many rows at a time.
#: The CSV render scratch holds 150 bytes per trace row (2.5 MB here);
#: longer chunks render faster but raise the peak memory of simulate.
_CHUNK_ROWS = 16_384


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _write_sidecar(path: Path, fmt: str, sample_rate: float, n: int, meta: dict | None) -> None:
    sidecar = {
        "format": fmt,
        "sample_rate_hz": sample_rate,
        "n_samples": n,
        "channels": ["volts"],
        "meta": meta or {},
    }
    atomic_write_text(_sidecar_path(path), json.dumps(sidecar, indent=2) + "\n")


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
_ZERO, _POINT, _MINUS = b"0.-"
_COMMA, _NEWLINE = b",\n"
#: Character slots of one ``%.9g`` field: a sign; the "0." and up to three
#: zeros that start a fixed-layout value below 1; nine digits, each followed
#: by a slot for the point; "e", the exponent's sign and two digits.
_G_SLOTS = 27
_G_DIGITS, _G_POINTS = slice(6, 23, 2), slice(7, 22, 2)


def _slot_table(texts) -> np.ndarray:
    """Column i holds ``texts[i]`` padded with NUL: a lookup table of slots."""
    width = max(map(len, texts))
    return np.array([list(t.ljust(width, b"\0")) for t in texts], np.uint8).T


#: Column -X: what starts a fixed-layout value with decimal exponent X < 0.
_G_PREFIX = _slot_table([b"", b"0.", b"0.0", b"0.00", b"0.000"])
#: Column X + 15: the exponent of a scientific-layout value; column 0 blank.
_G_EXPONENT = _slot_table([b""] + [b"e%+03d" % x for x in range(-14, 10)])
_DIGIT_INDEX = np.arange(9)[:, None]
_POW10_INT = (10 ** np.arange(9, dtype=np.uint32))[:, None]


class _CsvLane:
    """The scratch of `_csv_table`, for chunks of up to `rows` rows of
    `width` columns: a block with one row per character slot (NUL
    where a row of the CSV has no character), that block transposed into
    lines, and the numeric buffers of the field renderer."""

    def __init__(self, rows: int, width: int):
        self.rows = rows
        self.row_format = ",".join(["%.9g"] * width) + "\n"
        self.block = np.empty((width * (_G_SLOTS + 1), rows), np.uint8)
        self.block[_G_SLOTS :: _G_SLOTS + 1] = _COMMA
        self.block[-1] = _NEWLINE
        self.text = bytearray(self.block.size)
        self.lines = np.frombuffer(self.text, np.uint8).reshape(rows, -1)
        self.f = np.empty((3, rows))
        self.index = np.empty(rows, np.intp)
        self.q = np.empty((10, rows), np.uint32)
        self.i8 = np.empty((2, rows), np.int8)
        self.b = np.empty((3, rows), bool)
        self.bb = np.empty((2, 8, rows), bool)
        self.bad = np.empty(rows, bool)

    def render(self, columns, i: int) -> bytearray:
        """Rows i, i+1, ... of `columns`, at most `rows` of them, as text."""
        k = min(self.rows, len(columns[0]) - i)
        misses = np.flatnonzero(self.fill(columns, i, k))
        np.copyto(self.lines[:k], self.block[:, :k].T)
        self.lines[k:] = 0  # the rows past k are NUL throughout
        # a %.9g field is at most 16 characters ("-1.23456789e-308") and has
        # 28 slots with its separator, so a row left to the %-format fits its line
        width = self.lines.shape[1]
        for r in misses.tolist():
            row = self.row_format % tuple(c[i + r] for c in columns)
            self.text[r * width : (r + 1) * width] = row.encode("ascii").ljust(width, b"\0")
        return self.text.translate(None, b"\0")

    def fill(self, columns, i: int, k: int) -> np.ndarray:
        """Render rows i to i + k - 1 of `columns` into the first k columns
        of the block; returns the mask of the rows left to the %-format."""
        bad = self.bad[:k]
        bad.fill(False)
        for j, column in enumerate(columns):
            start = j * (_G_SLOTS + 1)
            self._render_g(column[i : i + k], self.block[start : start + _G_SLOTS, :k], bad)
        return bad

    def _digits(self, slots) -> None:
        """The decimal digits of ``q[0]`` into the n rows of `slots`, most
        significant first, leaving ``q[t] = q[0] // 10**t`` for t <= n."""
        n, k = slots.shape
        q, digits = self.q[: n + 1, :k], slots[::-1]  # digits[t]: that of 10**t
        for t in range(1, n + 1):
            np.floor_divide(q[t - 1], 10, out=q[t])
        # q[t] - 10 * q[t + 1], in uint8 arithmetic: exact modulo 256
        np.multiply(q[1:], 10, out=digits, casting="unsafe")
        np.subtract(q[:-1], digits, out=digits, casting="unsafe")
        digits += _ZERO

    def _render_g(self, x, slots, bad) -> None:
        """``%.9g`` of the float64 values `x` into the `_G_SLOTS` rows of
        `slots`.  Rows the numpy path cannot render exactly are or-ed into
        `bad`: non-finite values, |x| >= 1e9, 0 < |x| < 1e-14, and values
        whose scaled mantissa lies within 1e-6 of a rounding tie."""
        k = x.size
        a, e, s = self.f[:, :k]
        index = self.index[:k]
        X, after = self.i8[:, :k]
        b, c, zero = self.b[:, :k]

        np.signbit(x, out=b)
        np.multiply(b, _MINUS, out=slots[0], casting="unsafe")
        np.abs(x, out=a)
        np.equal(a, 0.0, out=zero)
        np.greater_equal(a, 1e-14, out=b)
        b |= zero
        np.less(a, 1e9, out=c)  # False for nan
        b &= c
        np.logical_not(b, out=c)
        bad |= c
        c |= zero
        np.copyto(a, 1.0, where=c)
        # e = floor(log10 |x|), so that s = |x| * 10**(8 - e) lies in [1e8, 1e9).
        # 10**(8 - e) is exact and the product correctly rounded, so rint(s)
        # is the correctly rounded nine-digit mantissa unless s is near a tie.
        # Where log10 rounds across an integer, |x| is within a few ulps of a
        # power of ten, and s rounds to 1e8 (e is right for the rounded value)
        # or to 1e9, the carry below.
        np.log10(a, out=e)
        np.floor(e, out=e)
        np.subtract(9.0, e, out=s)  # the index of 10**(8 - e) in _POW10
        np.copyto(index, s, casting="unsafe")
        np.take(_POW10, index, out=s)
        s *= a
        np.rint(s, out=a)
        np.subtract(s, a, out=s)
        np.abs(s, out=s)
        np.greater(s, 0.5 - 1e-6, out=b)
        bad |= b
        np.equal(a, 1e9, out=b)  # rounding carried into a tenth digit
        np.copyto(a, 1e8, where=b)
        e += b
        np.logical_or(zero, bad, out=c)
        np.copyto(a, 0.0, where=c)
        np.copyto(e, 0.0, where=c)
        np.copyto(X, e, casting="unsafe")
        np.copyto(self.q[0, :k], a, casting="unsafe")
        digits = slots[_G_DIGITS]
        self._digits(digits)

        # %g's rule: fixed layout for -4 <= X < 9 (b), else scientific (c)
        np.greater_equal(X, -4, out=b)
        np.less(X, 9, out=c)
        b &= c
        np.logical_not(b, out=c)
        # the digit the point follows: X in fixed layout, 0 in scientific,
        # and -1 for a fixed value below 1, which begins "0." and -X - 1 zeros
        np.maximum(X, -1, out=after)
        np.copyto(after, 0, where=c)
        np.equal(after, -1, out=zero)
        np.negative(X, out=index, casting="unsafe")
        index *= zero
        np.take(_G_PREFIX, index, axis=1, out=slots[1:6], mode="clip")
        # drop digit j > after when it and every digit after it are zero,
        # that is when the mantissa q[0] is divisible by 10**(9 - j)
        q = self.q[:, :k]
        divisible, dropped = self.bb[:, :, :k]
        q[1:9] *= _POW10_INT[1:]
        np.equal(q[1:9], q[0], out=divisible)  # row t - 1: divisible by 10**t
        np.greater(_DIGIT_INDEX[1:], after, out=dropped)
        dropped &= divisible[::-1]
        np.copyto(digits[1:], 0, where=dropped)
        # the point follows digit j when j == after and digit j + 1 stays
        point = divisible
        np.equal(_DIGIT_INDEX[:8], after, out=point)
        np.greater(point, dropped, out=point)
        np.multiply(point, _POINT, out=slots[_G_POINTS], casting="unsafe")
        np.add(X, 15, out=index, casting="unsafe")
        index *= c
        np.take(_G_EXPONENT, index, axis=1, out=slots[23:27], mode="clip")


def _csv_table(header: str, *columns):
    """Header, then one line per row of the float64 `columns`, their
    ``%.9g`` fields comma-separated, as ASCII chunks of `_CHUNK_ROWS` rows.

    numpy renders each chunk into the same bytes as that %-format; a row
    holding a value its renderer does not take is %-formatted instead.
    """
    yield header.encode("ascii")
    n = len(columns[0])
    lane = _CsvLane(min(n, _CHUNK_ROWS), len(columns))
    for i in range(0, n, _CHUNK_ROWS):
        yield lane.render(columns, i)


def write_trace_csv(path, volts, sample_rate: float, meta: dict | None = None) -> None:
    volts = np.asarray(volts, dtype=np.float64)
    atomic_write(path, _csv_table("volts\n", volts))
    _write_sidecar(Path(path), "csv", sample_rate, volts.size, meta)


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


def write_trace_binary(path, volts, sample_rate: float, meta: dict | None = None) -> None:
    volts = np.ravel(volts)
    chunks = (
        volts[i : i + _CHUNK_ROWS].astype(_BINARY_DTYPE) for i in range(0, volts.size, _CHUNK_ROWS)
    )
    atomic_write(path, chunks)
    _write_sidecar(Path(path), "f32", sample_rate, volts.size, meta)


def _read_binary(path: Path, sidecar: dict | None) -> np.ndarray:
    """The first n float32 values of a file that must hold n per channel."""
    try:
        size = path.stat().st_size
        n, channels = (sidecar["n_samples"], len(sidecar["channels"])) if sidecar else (size // 4, 1)
        if size != 4 * channels * n:
            raise ScenarioFormatError(
                f"{path}: {size} bytes, not the {channels} x {n} float32 values of "
                f"{_sidecar_path(path) if sidecar else 'a trace with no sidecar'}"
            )
        volts = np.fromfile(path, dtype=_BINARY_DTYPE, count=n)
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: not a readable float32 trace: {exc}") from exc
    return volts.astype(np.float64)


def read_trace(path) -> tuple[np.ndarray, float]:
    """(volts, sample_rate) of a CSV or float32 trace, by the sidecar's
    format field, else the file extension.  With no sidecar the rate is
    500 MS/s and the file holds one channel."""
    path = Path(path)
    sidecar = _read_sidecar(path)
    fmt = sidecar["format"] if sidecar else ("csv" if path.suffix.lower() == ".csv" else "f32")
    volts = (_read_csv if fmt == "csv" else _read_binary)(path, sidecar)
    finite = np.isfinite(volts)
    if not finite.all():
        raise ScenarioFormatError(f"{path}: sample {int(finite.argmin())} is not finite")
    return volts, float(sidecar["sample_rate_hz"]) if sidecar else DEFAULT_SAMPLE_RATE


def write_analysis_csv(path, time_ms, v_plus, v_minus, v_sn_plus, v_sn_minus) -> None:
    """Rolling-variance series export: one row per window position."""
    cols = [np.asarray(c, dtype=np.float64) for c in (time_ms, v_plus, v_minus, v_sn_plus, v_sn_minus)]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ScenarioFormatError("analysis columns must share one length")
    atomic_write(path, _csv_table("time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus\n", *cols))


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
