"""File formats for traces, analysis series, and tabular inputs.

Trace files come in two flavors:

* CSV: header ``index,volts,monitor_volts``, one row per sample.
* Binary: little-endian float32, all volts then all monitor samples.

Both carry a JSON sidecar (``<file>.json``) recording the sample rate and
channel layout, since neither payload is self-describing.  A sidecar must be
an object with ``format`` ("csv" or "f32"), ``sample_rate_hz`` (finite, > 0)
and ``n_samples`` (an integer >= 0, matching the payload).  All writes are
atomic (temp file + rename) so a crashed run never leaves a half-written
file behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ScenarioFormatError

_BINARY_DTYPE = "<f4"
DEFAULT_SAMPLE_RATE = 5e8
#: Trace and series writes are rendered and written this many rows at a time.
_CHUNK_ROWS = 65_536


def _atomic_write(path: Path, chunks) -> None:
    """Write the bytes-like `chunks` one after another to a temp file, then
    rename it over `path`."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(Path(path), [text.encode("utf-8")])


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _write_sidecar(path: Path, fmt: str, sample_rate: float, n: int, meta: dict | None) -> None:
    sidecar = {
        "format": fmt,
        "sample_rate_hz": sample_rate,
        "n_samples": n,
        "channels": ["volts", "monitor_volts"],
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
    return sidecar


def _csv_table(header: str, row_format: str, *columns):
    """Header, then one ``row_format`` line per row, as ASCII chunks of
    `_CHUNK_ROWS` rows; each chunk is rendered by a single %-format over the
    row-major interleaving of its slice of ``columns``."""
    yield header.encode("ascii")
    n = len(columns[0])
    table = np.empty((min(n, _CHUNK_ROWS), len(columns)), dtype=object)
    for i in range(0, n, _CHUNK_ROWS):
        rows = table[: min(_CHUNK_ROWS, n - i)]
        for k, column in enumerate(columns):
            rows[:, k] = column[i : i + rows.shape[0]]
        yield ((row_format * rows.shape[0]) % tuple(rows.ravel())).encode("ascii")


def write_trace_csv(path, volts, monitor, sample_rate: float, meta: dict | None = None) -> None:
    volts = np.asarray(volts, dtype=np.float64)
    monitor = np.asarray(monitor, dtype=np.float64)
    rows = _csv_table(
        "index,volts,monitor_volts\n", "%d,%.9g,%.9g\n", range(volts.size), volts, monitor
    )
    _atomic_write(Path(path), rows)
    _write_sidecar(Path(path), "csv", sample_rate, volts.size, meta)


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Returns (volts, monitor, sample_rate); rate falls back to 500 MS/s."""
    path = Path(path)
    sidecar = _read_sidecar(path)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    except (OSError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: not a readable trace CSV: {exc}") from exc
    if sidecar is None:
        return data[:, 0].copy(), data[:, 1].copy(), DEFAULT_SAMPLE_RATE
    if data.shape[0] != sidecar["n_samples"]:
        raise ScenarioFormatError(
            f"{path}: {data.shape[0]} rows, but {_sidecar_path(path)} says "
            f"n_samples = {sidecar['n_samples']}"
        )
    return data[:, 0].copy(), data[:, 1].copy(), float(sidecar["sample_rate_hz"])


def write_trace_binary(path, volts, monitor, sample_rate: float, meta: dict | None = None) -> None:
    volts, monitor = np.ravel(volts), np.ravel(monitor)
    chunks = (
        column[i : i + _CHUNK_ROWS].astype(_BINARY_DTYPE)
        for column in (volts, monitor)
        for i in range(0, column.size, _CHUNK_ROWS)
    )
    _atomic_write(Path(path), chunks)
    _write_sidecar(Path(path), "f32", sample_rate, volts.size, meta)


def read_trace_binary(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Reads the float32 pair format; the sidecar supplies the sample count."""
    path = Path(path)
    sidecar = _read_sidecar(path)
    raw = np.fromfile(path, dtype=_BINARY_DTYPE)
    if sidecar is not None:
        n = sidecar["n_samples"]
        if raw.size != 2 * n:
            raise ScenarioFormatError(
                f"{path}: expected {2 * n} float32 values per {_sidecar_path(path)}, "
                f"found {raw.size}"
            )
        rate = float(sidecar["sample_rate_hz"])
    else:
        if raw.size % 2:
            raise ScenarioFormatError(f"{path}: odd float32 count with no sidecar")
        n = raw.size // 2
        rate = DEFAULT_SAMPLE_RATE
    return raw[:n].astype(np.float64), raw[n:].astype(np.float64), rate


def read_trace(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Dispatch on the sidecar's format field, else the file extension."""
    path = Path(path)
    sidecar = _read_sidecar(path)
    fmt = sidecar["format"] if sidecar else ("csv" if path.suffix.lower() == ".csv" else "f32")
    if fmt == "csv":
        return read_trace_csv(path)
    return read_trace_binary(path)


def write_analysis_csv(path, time_ms, v_plus, v_minus, v_sn_plus, v_sn_minus) -> None:
    """Rolling-variance series export: one row per window position."""
    cols = [np.asarray(c, dtype=np.float64) for c in (time_ms, v_plus, v_minus, v_sn_plus, v_sn_minus)]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ScenarioFormatError("analysis columns must share one length")
    rows = _csv_table(
        "time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus\n", "%.9g,%.9g,%.9g,%.9g,%.9g\n", *cols
    )
    _atomic_write(Path(path), rows)


def read_sweep_csv(path):
    """Pump-power sweep rows: columns p_w_watts, level_db, branch."""
    from .fitting import PowerSweepPoint

    path = Path(path)
    points = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"p_w_watts", "level_db", "branch"} <= set(
                reader.fieldnames
            ):
                raise ScenarioFormatError(
                    f"{path}: sweep CSV needs columns p_w_watts, level_db, branch"
                )
            for k, row in enumerate(reader, start=2):
                try:
                    points.append(
                        PowerSweepPoint(
                            float(row["p_w_watts"]), float(row["level_db"]), row["branch"].strip()
                        )
                    )
                except (TypeError, ValueError, KeyError) as exc:
                    raise ScenarioFormatError(f"{path}:{k}: bad sweep row: {exc}") from exc
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: cannot read sweep CSV: {exc}") from exc
    if not points:
        raise ScenarioFormatError(f"{path}: sweep CSV has no data rows")
    return points


def read_peaks_csv(path):
    """Spectrum peak rows: columns freq_hz, power_dbm, kind."""
    from .sideband import SpectralPeak

    path = Path(path)
    peaks = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"freq_hz", "power_dbm", "kind"} <= set(
                reader.fieldnames
            ):
                raise ScenarioFormatError(f"{path}: peaks CSV needs columns freq_hz, power_dbm, kind")
            for k, row in enumerate(reader, start=2):
                try:
                    peaks.append(
                        SpectralPeak(float(row["freq_hz"]), float(row["power_dbm"]), row["kind"].strip())
                    )
                except (TypeError, ValueError, KeyError) as exc:
                    raise ScenarioFormatError(f"{path}:{k}: bad peak row: {exc}") from exc
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: cannot read peaks CSV: {exc}") from exc
    if not peaks:
        raise ScenarioFormatError(f"{path}: peaks CSV has no data rows")
    return peaks
