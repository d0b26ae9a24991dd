"""The one atomic-write helper every durable artifact routes through.

Crash consistency across the repo rests on a single discipline: write to
a uniquely named temp file *in the destination directory* (same
filesystem, so the rename cannot degrade to a copy), optionally
``fsync``, then ``os.replace`` onto the final name. The temp file is
created with mode ``0o666`` less the process umask, so an artifact gets
the permissions a plain ``open`` would give it (``tempfile.mkstemp``
would force ``0o600`` and lock out other users sharing a cache or
policy store). A reader — another worker sharing the cache directory,
or a process restarting after ``kill -9`` — only ever observes either
the previous complete file or the new complete file, never a torn
write. Concurrent writers race benignly:
last-replace-wins, and every byte sequence they could install is a
complete document.

Before this module, the result cache, the leaderboard policy store
and the serving checkpointer each hand-rolled the pattern. Centralizing
it makes the discipline checkable: the determinism-contract linter
(:mod:`repro.lint`, rule ``ATOM001``) flags ``mkstemp``/``os.replace``/
bare ``open(..., "w")`` in modules that write into managed state
directories and points here instead.

The one deliberate exception is :func:`append_text`, for append-only
logs (the serving journal) whose readers drop a torn final line: an
append costs what it writes, where an atomic replace rewrites the whole
file.

``atomic_write_json`` defaults to ``sort_keys=True``: canonical JSON
artifacts must not depend on dict construction order, so byte-identity
comparisons (workers 1/2/4, cold/warm cache, served vs batch) stay
meaningful as code is refactored.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = [
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "append_text",
]


def _create_temp(directory: str):
    """Create and open a new, uniquely named temp file in ``directory``.

    ``O_EXCL`` makes the name this call's alone; mode ``0o666`` lets the
    kernel apply the umask. Returns ``(fd, path)``.
    """
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_writer(
    path: os.PathLike,
    mode: str = "w",
    encoding: Optional[str] = None,
    fsync: bool = False,
    make_parents: bool = True,
) -> Iterator[Any]:
    """Open a temp file that atomically replaces ``path`` on clean exit.

    ``mode`` must be a write mode (``"w"`` or ``"wb"``). On any
    exception the temp file is removed and ``path`` is left untouched.
    ``fsync=True`` flushes file contents to disk before the rename —
    required for checkpoints that must survive power loss, skipped for
    caches where a lost entry only costs a recompute.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_writer mode must be 'w' or 'wb', got {mode!r}")
    if encoding is None and mode == "w":
        encoding = "utf-8"
    target = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(target))
    if make_parents:
        os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: os.PathLike, data: bytes,
                       fsync: bool = False) -> None:
    """Atomically install ``data`` as the contents of ``path``."""
    with atomic_writer(path, "wb", fsync=fsync) as handle:
        handle.write(data)


def atomic_write_text(path: os.PathLike, text: str, fsync: bool = False,
                      encoding: str = "utf-8") -> None:
    """Atomically install ``text`` as the contents of ``path``."""
    with atomic_writer(path, "w", encoding=encoding, fsync=fsync) as handle:
        handle.write(text)


def atomic_write_json(
    path: os.PathLike,
    payload: Any,
    *,
    sort_keys: bool = True,
    indent: Optional[int] = None,
    default=None,
    fsync: bool = False,
) -> None:
    """Atomically write ``payload`` as JSON (canonical key order).

    ``sort_keys`` defaults to True so the emitted bytes are independent
    of dict construction order — the property every byte-identity
    invariant in the harness and serving layers leans on. Pass
    ``sort_keys=False`` only for files whose byte layout is pinned by an
    existing on-disk format.
    """
    text = json.dumps(payload, sort_keys=sort_keys, indent=indent,
                      default=default)
    atomic_write_text(path, text, fsync=fsync)


def append_text(path: os.PathLike, text: str) -> None:
    """Append ``text`` to ``path`` (created if missing) and fsync.

    Not atomic: a crash mid-append can leave a partial tail, so callers
    terminate every record with a newline and their readers discard a
    final line that lacks one. Durable once it returns.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
