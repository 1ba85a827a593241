"""Atomic file replacement for every artifact the package writes."""

import contextlib
import os

from .errors import DatasetIOError


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Yield a file handle whose contents replace `path` only once the block
    finishes: it writes a temporary file in the same directory, then
    `os.replace`s it over `path`. On any error the temporary file is removed,
    `path` keeps its previous contents and DatasetIOError is raised.

    No fsync: this protects against a crashing process, not a crashing
    machine.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except Exception as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
