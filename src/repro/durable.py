"""Crash-safe file writes: the one durable-write discipline.

Every artifact that must survive a kill at any byte goes through one of
two primitives:

* :func:`atomic_write_json` — whole-document state (DSE checkpoint,
  stream checkpoint, serve drain snapshot).  The document is written to
  ``<path>.tmp``, fsynced, ``os.replace``d over ``path``, and the
  directory entry is fsynced: a crash at any instant leaves either the
  old or the new document, never a torn one, and a stray ``.tmp`` is
  simply overwritten by the next save.
* :class:`AppendLog` — JSON-lines logs (DSE cache, stream sink, QoR
  dataset).  Each record is one ``os.write`` of one complete line on an
  ``O_APPEND`` descriptor under a shared ``flock``, so concurrent
  appenders never interleave; :meth:`AppendLog.sync` fsyncs.

**Torn-tail policy.**  A crash mid-append leaves a final line without
its newline.  Opening the log takes an exclusive ``flock`` (which waits
out any append in flight, so a live writer's record is never mistaken
for a tear) and repairs the tail: a tail that parses as JSON lost only
its terminator and gets it back; one that does not never fully landed
and is truncated away.  Either way every complete line before the tear
is kept, and the next append starts on a fresh line.  What a *complete*
line that fails to parse means is the caller's business — the data
differs per log, the write discipline does not.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import weakref
from pathlib import Path

LOGGER = logging.getLogger("repro.durable")


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path: os.PathLike | str, payload: dict) -> None:
    """Write ``payload`` so a crash leaves either the old or new file."""
    path = Path(path)
    data = json.dumps(payload, separators=(",", ":")).encode()
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class AppendLog:
    """An append-only JSON-lines file with the torn-tail policy above.

    ``torn_bytes`` is the length of the unparsable tail the open
    truncated (0 when there was none).  The descriptor stays open for
    appends until :meth:`close`, or until the log is garbage-collected.
    """

    def __init__(self, path: os.PathLike | str):
        self.path = Path(path)
        created = not self.path.exists()
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                     0o644)
        self._fd = fd
        self._finalizer = weakref.finalize(self, os.close, fd)
        if created:
            _fsync_dir(self.path.parent)
        self.torn_bytes = 0
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            self._repair_tail()
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def _repair_tail(self) -> None:
        raw = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        if not raw or raw.endswith(b"\n"):
            return
        cut = raw.rfind(b"\n") + 1
        try:
            json.loads(raw[cut:])
        except (ValueError, UnicodeDecodeError):
            self.torn_bytes = len(raw) - cut
            LOGGER.warning("%s: truncating torn final line (%d bytes)",
                           self.path.name, self.torn_bytes)
            os.ftruncate(self._fd, cut)
        else:
            os.write(self._fd, b"\n")
        os.fsync(self._fd)

    def lines(self) -> list[bytes]:
        """Every complete line in the file, in order."""
        raw = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        return raw[:raw.rfind(b"\n") + 1].splitlines()

    def append(self, line: bytes) -> None:
        """Write one record (``line`` without its newline) in one write."""
        data = line + b"\n"
        fcntl.flock(self._fd, fcntl.LOCK_SH)
        try:
            os.write(self._fd, data)
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def sync(self) -> None:
        """Make every appended record durable."""
        os.fsync(self._fd)

    def close(self) -> None:
        self._finalizer()
