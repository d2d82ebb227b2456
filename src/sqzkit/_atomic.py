"""Atomic file writes: the bytes go to a temp file in the target's
directory, which is then renamed over the target, so a crashed run never
leaves a half-written file behind.

Plain Python, so `sqzkit expect --out` writes its report without loading
numpy; `traceio` writes every trace and series through here.
"""

import errno
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def check_writable(path) -> None:
    """OSError naming `path`, as given, unless a file can be written there:
    its directory exists and may be written, and `path` is no directory.
    A command that checks this before its work fails at once, naming the
    user's path rather than the temp file the write would have opened."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


@contextmanager
def atomic_files(paths):
    """Binary files, one per path, open on temp files in their targets'
    directories.  When the block ends they are closed and renamed over their
    paths, in order.  If the block raises, or a close or rename fails, every
    temp file and every path already renamed is removed, so that all of the
    paths are written or none is."""
    paths = [Path(path) for path in paths]
    tmps, files, renamed = [], [], []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
            tmps.append(tmp)
            files.append(os.fdopen(fd, "wb"))
        yield files
        for fh in files:
            fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for fh in files:
            try:
                fh.close()
            except OSError:
                pass
        for name in tmps[len(renamed) :] + renamed:
            try:
                os.unlink(name)
            except OSError:
                pass
        raise


def atomic_write(path, chunks) -> None:
    """Write the bytes-like `chunks` one after another to a temp file, then
    rename it over `path`."""
    with atomic_files([path]) as (fh,):
        for chunk in chunks:
            fh.write(chunk)


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])
