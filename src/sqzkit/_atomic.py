"""Atomic file writes: the bytes go to a temp file in the target's
directory, which is then renamed over the target, so a crashed run never
leaves a half-written file behind.

Plain Python, so `sqzkit expect --out` writes its report without loading
numpy; `traceio` writes every trace and series through here.
"""

import os
import tempfile
from pathlib import Path


def atomic_write(path, chunks) -> None:
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
    atomic_write(path, [text.encode("utf-8")])
