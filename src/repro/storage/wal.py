"""The append-only write-ahead log: framed records, fsync-on-commit, group commit.

Every durable database (``Database(durable_path=...)``) routes its mutations
through a :class:`WriteAheadLog` *before* applying them in memory, so a crash
at any moment loses at most the transactions that were never acknowledged.
The log is a single append-only file:

.. code-block:: text

    +----------+----------------------------+----------------------------+---
    | RPRWAL01 | <len:u32le> <crc:u32le>    | <len:u32le> <crc:u32le>    |
    | (magic)  | <payload: len bytes>       | <payload: len bytes>       | ...
    +----------+----------------------------+----------------------------+---

Each frame carries one JSON record (compact, sorted keys).  The CRC32 covers
the payload; a frame whose length field runs past the end of the file, whose
CRC does not match, or whose payload fails to decode marks the *torn tail* —
everything from there on is the debris of a crash mid-write and is discarded
by recovery instead of crashing it (see :mod:`repro.storage.recovery`).

Record kinds (the ``op`` field):

* ``begin`` / ``commit`` / ``abort`` — explicit transaction boundaries,
  carrying a ``txn`` id.  DML records between a ``begin`` and its ``commit``
  share the id; a transaction whose ``commit`` never made it to disk is
  discarded wholesale on replay (atomicity).  A transaction's frames are
  buffered by the :class:`~repro.storage.durable.DurabilityManager` and reach
  the log in one write at commit, so a rolled-back transaction normally
  leaves nothing; ``abort`` is written only after a *spill* (a transaction
  larger than the buffer, whose early records are already in the log).
* ``insert`` / ``update`` / ``delete`` — DML.  Records with ``txn: null``
  are *autocommitted*: the record is its own transaction and commit point.
* ``create_table`` / ``drop_table`` — DDL, always autonomous (applied
  immediately on replay, mirroring the live engine where a rollback does not
  undo DDL) and fsynced immediately.
* ``analyze`` — an ANALYZE marker, so recovery can rebuild the planner
  statistics the live database had collected.
* ``checkpoint`` — informational marker written right before a checkpoint
  switches the log to a fresh epoch file.

**Commit protocol.**  ``append`` buffers into the OS (``write`` + ``flush``,
never ``fsync``); ``commit`` appends the commit record — together with the
transaction's buffered frames, in the same write — and then forces the log
to disk.  With ``group_commit_window > 0`` the fsync is *deferred*: commit
records accumulate until either ``group_commit_max`` commits are pending or
the window (seconds) has elapsed since the first pending one, and a single
fsync then covers the whole batch — the classic group-commit amortization,
measured by the E17 benchmark.  Within the window a commit is acknowledged
before it is durable; that is the documented tradeoff of enabling the window.

**Failure containment.**  If a write or fsync raises (a full disk, or an
injected fault from :mod:`repro.storage.faults`), the log truncates itself
back to the last known-good offset (best effort), marks itself *broken*, and
every later append raises :class:`WALError` — the in-memory database refused
the mutation too (records are written before memory is touched), so memory
and disk stay consistent until the database is reopened.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "FRAME_HEADER",
    "MAGIC",
    "OP_ABORT",
    "OP_ANALYZE",
    "OP_BEGIN",
    "OP_CHECKPOINT",
    "OP_COMMIT",
    "OP_CREATE_TABLE",
    "OP_DELETE",
    "OP_DROP_TABLE",
    "OP_INSERT",
    "OP_UPDATE",
    "WALError",
    "WriteAheadLog",
    "encode_record",
    "frame_record",
    "read_frames",
]

#: the 8-byte file header identifying (and versioning) the log format
MAGIC = b"RPRWAL01"

#: per-frame header: payload length and payload CRC32, both little-endian u32
FRAME_HEADER = struct.Struct("<II")

#: a frame longer than this is treated as corruption, not as a real record
MAX_FRAME_BYTES = 1 << 28

# -- record kinds ---------------------------------------------------------------------

OP_BEGIN = "begin"
OP_COMMIT = "commit"
OP_ABORT = "abort"
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_CREATE_TABLE = "create_table"
OP_DROP_TABLE = "drop_table"
OP_ANALYZE = "analyze"
OP_CHECKPOINT = "checkpoint"


class WALError(ReproError):
    """The write-ahead log could not honor a request (broken log, bad state).

    ``last_good_offset`` — when known — is the byte length of the intact log
    prefix at the moment the failure was contained: everything before it
    survives a reopen, everything after it is the torn tail recovery discards.
    """

    def __init__(self, message: str, last_good_offset: Optional[int] = None):
        super().__init__(message)
        self.last_good_offset = last_good_offset


def encode_record(record: Dict[str, object]) -> bytes:
    """The canonical payload bytes of one record (compact JSON, sorted keys)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def frame_record(record: Dict[str, object]) -> bytes:
    """A full frame (header + payload) for one record."""
    payload = encode_record(record)
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(data: bytes) -> Tuple[List[Dict[str, object]], int, Optional[Tuple[int, str]]]:
    """Decode every intact frame of a raw log image.

    Returns ``(records, valid_length, torn)``: the decoded records, the byte
    offset up to which the image is intact (the torn tail starts there), and
    ``None`` or ``(offset, reason)`` describing the first corruption found.
    A missing or damaged magic header yields no records and ``valid_length``
    0, so the file is rebuilt from scratch on the next open.
    """
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        torn = (0, "missing or damaged file header") if data else None
        return [], 0, torn
    records: List[Dict[str, object]] = []
    position = len(MAGIC)
    total = len(data)
    while position < total:
        if position + FRAME_HEADER.size > total:
            return records, position, (position, "short frame header")
        length, crc = FRAME_HEADER.unpack_from(data, position)
        if length > MAX_FRAME_BYTES:
            return records, position, (position, "implausible frame length {}".format(length))
        start = position + FRAME_HEADER.size
        end = start + length
        if end > total:
            return records, position, (position, "short frame payload")
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, position, (position, "payload CRC mismatch")
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, position, (position, "payload is not valid JSON")
        if not isinstance(record, dict):
            return records, position, (position, "payload is not a record object")
        records.append(record)
        position = end
    return records, position, None


class WriteAheadLog:
    """One append-only log file with the commit protocol described above.

    Parameters
    ----------
    path:
        The log file.  Created (with the magic header) when missing or empty.
    group_commit_window:
        Seconds a commit's fsync may be deferred while waiting for companions;
        ``0`` (the default) fsyncs every commit individually.
    group_commit_max:
        Pending-commit count that forces the deferred fsync early.
    fsync:
        ``False`` turns the physical fsync into a flush-only no-op (for tests
        and benchmarks that measure everything but the disk).
    file_factory:
        ``callable(path, mode) -> file object``; the hook the fault-injection
        harness uses to wrap the file (see :mod:`repro.storage.faults`).
    registry:
        An optional :class:`~repro.obs.metrics.MetricsRegistry`; when present
        the log maintains the ``wal.records`` / ``wal.commits`` /
        ``wal.fsyncs`` / ``wal.bytes`` counters.
    """

    def __init__(self, path: str, group_commit_window: float = 0.0,
                 group_commit_max: int = 64, fsync: bool = True,
                 file_factory: Optional[Callable] = None,
                 registry=None):
        self.path = path
        self.group_commit_window = float(group_commit_window)
        self.group_commit_max = max(1, int(group_commit_max))
        self._fsync_enabled = fsync
        self._factory = file_factory or (lambda p, mode: open(p, mode))
        self._registry = registry
        self._broken: Optional[str] = None
        self._last_good_offset: Optional[int] = None
        self._closed = False
        existing = os.path.getsize(path) if os.path.exists(path) else 0
        self._file = self._factory(path, "ab")
        if existing < len(MAGIC):
            if existing:
                self._truncate_to(0)
            self._file.write(MAGIC)
            self._file.flush()
            existing = len(MAGIC)
        #: logical length of the intact log in bytes (header included)
        self.size = existing
        #: commit records appended but not yet covered by an fsync
        self.pending_commits = 0
        self._window_started: Optional[float] = None
        # plain counters, mirrored into the registry when one is attached
        self.records_written = 0
        self.commits = 0
        self.fsyncs = 0

    # -- bookkeeping -------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(name).add(amount)

    def _truncate_to(self, offset: int) -> None:
        self._file.flush()
        self._file.truncate(offset)
        self._file.seek(0, os.SEEK_END)

    def _fail(self, exc: BaseException, last_good: int) -> None:
        """Contain a write/fsync failure: roll the file back, mark broken."""
        self._broken = "{}: {}".format(type(exc).__name__, exc)
        self._last_good_offset = last_good
        try:
            self._truncate_to(last_good)
        except OSError:
            pass  # best effort — the torn tail is discarded by recovery anyway
        self.size = last_good

    def require_healthy(self) -> None:
        """Raise :class:`WALError` when the log is closed or broken."""
        if self._closed:
            raise WALError(
                "write-ahead log {!r} is closed".format(self.path))
        if self._broken is not None:
            raise WALError(
                "write-ahead log {!r} failed earlier ({}); intact through "
                "byte offset {} — reopen the database to recover".format(
                    self.path, self._broken, self._last_good_offset),
                last_good_offset=self._last_good_offset)

    # -- the append/commit protocol ------------------------------------------------------

    def append(self, record: Dict[str, object]) -> int:
        """Frame and write one record (flushed to the OS, not fsynced).

        Returns the byte offset the record starts at.  Raises
        :class:`WALError` when the log is broken; an I/O failure during the
        write breaks the log and re-raises.
        """
        return self.append_frames(frame_record(record), 1)

    def append_frames(self, frames, records: int) -> int:
        """Write ``records`` already framed records (bytes-like) in one
        ``write`` + ``flush``.

        All or nothing: a failure part-way truncates the file back to where
        the call started before the log is marked broken.
        """
        self.require_healthy()
        offset = self.size
        try:
            self._file.write(frames)
            self._file.flush()
        except OSError as exc:
            self._fail(exc, offset)
            raise
        self.size = offset + len(frames)
        self.records_written += records
        self._count("wal.records", records)
        self._count("wal.bytes", len(frames))
        return offset

    def commit(self, record: Dict[str, object], buffered=b"",
               buffered_records: int = 0) -> bool:
        """Append a commit-point record and make it durable (or schedule it).

        ``buffered`` holds the already framed records of the transaction the
        record commits; they go out in the same write, ahead of it.  Returns
        ``True`` when the commit was fsynced before returning, ``False`` when
        the group-commit window deferred the fsync.
        """
        self.append_frames(buffered + frame_record(record), buffered_records + 1)
        self.commits += 1
        self._count("wal.commits")
        self.pending_commits += 1
        if self._window_started is None:
            self._window_started = time.monotonic()
        if (self.group_commit_window <= 0.0
                or self.pending_commits >= self.group_commit_max
                or time.monotonic() - self._window_started >= self.group_commit_window):
            self.sync()
            return True
        return False

    def sync(self) -> None:
        """Force everything appended so far to disk (one fsync, all pending)."""
        self.require_healthy()
        last_good = self.size
        try:
            self._file.flush()
            if self._fsync_enabled:
                fsync = getattr(self._file, "fsync", None)
                if fsync is not None:
                    fsync()
                else:
                    os.fsync(self._file.fileno())
        except OSError as exc:
            # Roll back to the last offset *before* the unsynced batch is not
            # possible (batch boundaries are gone); drop the whole file tail
            # written since the last successful fsync would need tracking —
            # instead contain the failure: the log is broken, the torn tail is
            # whatever the OS managed to persist, and recovery discards any
            # incomplete suffix.
            self._fail(exc, last_good)
            raise
        self.fsyncs += 1
        self._count("wal.fsyncs")
        self.pending_commits = 0
        self._window_started = None

    def flush(self) -> None:
        """Alias of :meth:`sync` — drain any deferred group-commit batch."""
        if self.pending_commits or self._window_started is not None:
            self.sync()

    @property
    def broken(self) -> bool:
        """True once a write/fsync failure has poisoned the log."""
        return self._broken is not None

    def close(self) -> None:
        """Drain pending commits (when healthy) and close the file.

        Idempotent: a second ``close()`` is a no-op."""
        if self._closed:
            return
        try:
            if self._broken is None:
                self.flush()
        finally:
            self._closed = True
            try:
                self._file.close()
            except OSError:
                pass

    def __repr__(self) -> str:
        return "WriteAheadLog({!r}, size={}, commits={}, fsyncs={}{})".format(
            self.path, self.size, self.commits, self.fsyncs,
            ", BROKEN" if self._broken else "")
