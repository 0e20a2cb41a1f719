"""The durability manager: glue between a ``Database`` and its WAL directory.

``Database(durable_path=...)`` owns one :class:`DurabilityManager`.  The
manager keeps a directory with at most two kinds of files::

    <durable_path>/
        snapshot.json      # the latest checkpoint (atomic rename target)
        wal.000003         # the current epoch's write-ahead log

On open it performs **recovery**: load the checkpoint snapshot if one exists,
replay the committed prefix of the current epoch's log on top of it
(discarding any torn tail and truncating the file back to the intact prefix),
re-validate every invariant, and only then open the log for appending.  At
runtime it journals every mutation *before* the table applies it
(write-ahead; an open ``Database.transaction()`` buffers its framed records
and writes them in one piece at commit), fsyncs at commit points (optionally
deferred by the group-commit window), and rewrites the snapshot + switches the
log epoch on :meth:`checkpoint`.

All activity is counted through the database's
:class:`~repro.obs.metrics.MetricsRegistry` (``wal.*``, ``recovery.*``,
``checkpoint.*``) and traced through its tracer (``recovery`` — with one child
span per phase, whose durations are also on the recovery report — and
``checkpoint`` spans, ``wal-torn-tail`` events), so durable databases are
observable with the same machinery as everything else.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Optional

from repro.storage.checkpoint import (
    SNAPSHOT_FILENAME,
    load_checkpoint,
    wal_filename,
    write_checkpoint,
)
from repro.storage.recovery import (
    RecoveryError,
    RecoveryReport,
    read_wal,
    replay_records,
    verify_database,
)
from repro.storage.wal import (
    MAGIC,
    OP_ABORT,
    OP_ANALYZE,
    OP_BEGIN,
    OP_CHECKPOINT,
    OP_COMMIT,
    OP_CREATE_TABLE,
    OP_DELETE,
    OP_DROP_TABLE,
    OP_INSERT,
    OP_UPDATE,
    WALError,
    WriteAheadLog,
    frame_record,
)

__all__ = ["DurabilityManager", "TXN_BUFFER_BYTES"]

#: framed records an open transaction may hold back before they are appended
#: to the log as uncommitted records (bounds memory, not transaction size)
TXN_BUFFER_BYTES = 64 * 1024


class DurabilityManager:
    """Write-ahead logging, recovery and checkpointing for one database."""

    def __init__(self, database, directory: str,
                 group_commit_window: float = 0.0,
                 group_commit_max: int = 64,
                 checkpoint_every_bytes: Optional[int] = None,
                 fsync: bool = True,
                 file_factory=None):
        self.database = database
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.group_commit_window = group_commit_window
        self.group_commit_max = group_commit_max
        self.checkpoint_every_bytes = checkpoint_every_bytes
        self.fsync = fsync
        self.file_factory = file_factory
        self.epoch = 0
        self.wal: Optional[WriteAheadLog] = None
        self.recovery_report: Optional[RecoveryReport] = None
        self.checkpoints_written = 0
        self._next_txn_id = 0
        self._open_txn: Optional[int] = None
        #: the open transaction's framed records not yet written to the log
        self._txn_frames = bytearray()
        self._txn_records = 0
        #: True once the open transaction has records in the log (a spill)
        self._txn_spilled = False

    # -- paths ----------------------------------------------------------------------

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_FILENAME)

    def wal_path(self, epoch: int) -> str:
        return os.path.join(self.directory, wal_filename(epoch))

    # -- open / recovery --------------------------------------------------------------

    def open(self) -> RecoveryReport:
        """Recover the on-disk state into the database and start appending."""
        database = self.database
        report = RecoveryReport()
        with database.tracer.span("recovery", directory=self.directory):
            with database._suspend_journal():
                with self._phase(report, "load_snapshot") as span:
                    snapshot = load_checkpoint(self.snapshot_path)
                    if snapshot is not None:
                        from repro.engine.serialization import populate_database_from_dict

                        data, self.epoch = snapshot
                        populate_database_from_dict(database, data)
                        report.checkpoint_loaded = True
                    span.set(rows=self._stored_rows())
                report.wal_epoch = self.epoch
                path = self.wal_path(self.epoch)
                with self._phase(report, "read_wal") as span:
                    records, valid_length, torn = read_wal(path)
                    span.set(records=len(records), bytes=valid_length)
                if torn is not None:
                    report.torn_offset, report.torn_reason = torn
                    database.tracer.event("wal-torn-tail", offset=torn[0],
                                          reason=torn[1])
                report.valid_bytes = valid_length
                with self._phase(report, "replay") as span:
                    replay_records(database, records, report)
                    span.set(records=len(records),
                             operations=report.operations_applied)
                with self._phase(report, "verify") as span:
                    problems = verify_database(database)
                    span.set(rows=self._stored_rows(), problems=len(problems))
                if problems:
                    raise RecoveryError(
                        "recovered database is inconsistent: {}".format(
                            "; ".join(problems)))
            self._truncate_torn_tail(path, valid_length)
            self.wal = WriteAheadLog(
                path, group_commit_window=self.group_commit_window,
                group_commit_max=self.group_commit_max, fsync=self.fsync,
                file_factory=self.file_factory,
                registry=database.metrics_registry)
            self._next_txn_id = max(
                [r["txn"] for r in records if isinstance(r.get("txn"), int)] or [0])
            self._clean_stale_files()
        registry = database.metrics_registry
        registry.counter("recovery.runs").add()
        registry.counter("recovery.records_replayed").add(report.records_read)
        registry.counter("recovery.transactions_applied").add(
            report.transactions_applied)
        registry.counter("recovery.transactions_discarded").add(
            report.transactions_discarded)
        if report.torn_reason is not None:
            registry.counter("recovery.torn_tails").add()
        self.recovery_report = report
        return report

    @contextmanager
    def _phase(self, report: RecoveryReport, phase: str):
        """One phase of recovery: a child span of ``recovery`` (the caller sets
        its row or record count), its duration on the report."""
        started = perf_counter()
        try:
            with self.database.tracer.span(
                    "recovery." + phase.replace("_", "-")) as span:
                yield span
        finally:
            report.phase_seconds[phase] = perf_counter() - started

    def _stored_rows(self) -> int:
        database = self.database
        return sum(len(database.table(name)) for name in database.tables())

    @staticmethod
    def _truncate_torn_tail(path: str, valid_length: int) -> None:
        """Cut the log back to its intact prefix before appending resumes."""
        if not os.path.exists(path):
            return
        size = os.path.getsize(path)
        target = valid_length if valid_length >= len(MAGIC) else 0
        if size > target:
            with open(path, "r+b") as handle:
                handle.truncate(target)

    def _clean_stale_files(self) -> None:
        """Drop WAL files of other epochs and orphaned temp files (crash debris)."""
        current = wal_filename(self.epoch)
        for filename in os.listdir(self.directory):
            stale_wal = filename.startswith("wal.") and filename != current
            stale_tmp = filename.endswith(".tmp")
            if stale_wal or stale_tmp:
                try:
                    os.remove(os.path.join(self.directory, filename))
                except OSError:
                    pass

    # -- journaling (called by Database / Table hooks) -----------------------------------

    def log_mutation(self, table_name: str, kind: str, old, new) -> None:
        """Journal one DML statement *before* it is applied in memory.

        Outside a transaction the record is autocommitted — it is its own
        commit point and is fsynced under the commit protocol.  Inside one its
        frame is *buffered* for :meth:`commit` to write (a broken or closed
        log still refuses the mutation here); past :data:`TXN_BUFFER_BYTES`
        the buffer goes to the log as uncommitted records (a *spill*).
        """
        record: Dict[str, object] = {"op": kind, "table": table_name,
                                     "txn": self._open_txn}
        if kind == OP_UPDATE:
            record["old"] = old.as_dict()
            record["new"] = new.as_dict()
        elif kind == OP_INSERT:
            record["values"] = new.as_dict()
        elif kind == OP_DELETE:
            record["values"] = old.as_dict()
        else:
            raise WALError("unknown mutation kind {!r}".format(kind))
        if self._open_txn is None:
            self.wal.commit(record)
            return
        self.wal.require_healthy()
        self._txn_frames += frame_record(record)
        self._txn_records += 1
        if len(self._txn_frames) > TXN_BUFFER_BYTES:
            frames, records = self._txn_frames, self._txn_records
            self._txn_frames, self._txn_records = bytearray(), 0
            self._txn_spilled = True
            self.wal.append_frames(frames, records)

    def log_create_table(self, definition) -> None:
        from repro.engine.serialization import table_definition_to_dict

        self.wal.append({"op": OP_CREATE_TABLE,
                         "table": table_definition_to_dict(definition)})
        self.wal.sync()  # DDL is durable immediately, even inside a window

    def log_drop_table(self, name: str) -> None:
        self.wal.append({"op": OP_DROP_TABLE, "table": name})
        self.wal.sync()

    def log_analyze(self, name: Optional[str], sample_size: Optional[int]) -> None:
        self.wal.append({"op": OP_ANALYZE, "table": name,
                         "sample_size": sample_size})
        self.wal.sync()

    # -- transactions ------------------------------------------------------------------

    def begin(self) -> int:
        if self._open_txn is not None:
            raise WALError("a transaction is already open on the write-ahead log")
        self._next_txn_id += 1
        self._open_txn = self._next_txn_id
        # The ``begin`` record leads the buffer; a transaction that adds
        # nothing to it (read-only) never writes it.
        self._txn_frames = bytearray(frame_record({"op": OP_BEGIN, "txn": self._open_txn}))
        self._txn_records = 1
        self._txn_spilled = False
        return self._open_txn

    def commit(self) -> None:
        """Write the buffered frames and the ``commit`` record in one piece
        (nothing, if nothing was journaled).  The caller checkpoints afterwards:
        a failed commit must stay distinguishable from a failed checkpoint."""
        txn, self._open_txn = self._open_txn, None
        if txn is not None and (self._txn_records > 1 or self._txn_spilled):
            self.wal.commit({"op": OP_COMMIT, "txn": txn},
                            self._txn_frames, self._txn_records)

    def abort(self) -> None:
        """Drop the open transaction; one that spilled gets an ``abort`` record,
        best effort — replay discards a transaction without a commit anyway."""
        txn, self._open_txn = self._open_txn, None
        if txn is not None and self._txn_spilled:
            try:
                self.wal.append({"op": OP_ABORT, "txn": txn})
            except (WALError, OSError):
                pass

    @property
    def in_transaction(self) -> bool:
        return self._open_txn is not None

    # -- checkpointing -----------------------------------------------------------------

    def checkpoint(self) -> str:
        """Snapshot the database atomically and switch to a fresh WAL epoch."""
        if self._open_txn is not None:
            raise WALError("cannot checkpoint while a transaction is open")
        database = self.database
        with database.tracer.span("checkpoint", epoch=self.epoch + 1):
            new_epoch = self.epoch + 1
            self.wal.append({"op": OP_CHECKPOINT, "epoch": new_epoch})
            self.wal.sync()
            path = write_checkpoint(database, self.snapshot_path, new_epoch)
            old_wal = self.wal
            self.wal = WriteAheadLog(
                self.wal_path(new_epoch),
                group_commit_window=self.group_commit_window,
                group_commit_max=self.group_commit_max, fsync=self.fsync,
                file_factory=self.file_factory,
                registry=database.metrics_registry)
            self.epoch = new_epoch
            old_wal.close()
            self._clean_stale_files()
        self.checkpoints_written += 1
        database.metrics_registry.counter("checkpoint.count").add()
        return path

    def maybe_checkpoint(self) -> bool:
        """Auto-checkpoint once the log crossed the configured size threshold."""
        if (self.checkpoint_every_bytes is None or self.wal is None
                or self._open_txn is not None or self.wal.broken
                or self.wal.size < self.checkpoint_every_bytes):
            return False
        self.checkpoint()
        return True

    # -- lifecycle / introspection ---------------------------------------------------------

    def close(self) -> None:
        """Abort any open transaction and close the write-ahead log.

        Idempotent — the WAL's own close guard makes a second call a no-op.
        An open transaction is aborted (see :meth:`abort`) so a database
        closed mid-transaction leaves no transaction dangling.  The ``wal``
        attribute stays readable for post-mortem inspection (path, size,
        counters); appending to it raises :class:`WALError`.
        """
        if self.wal is None:
            return
        try:
            self.abort()
        finally:
            self.wal.close()

    def as_dict(self) -> Dict[str, object]:
        """The durability section of ``Database.metrics()``."""
        wal = self.wal
        return {
            "directory": self.directory,
            "wal_epoch": self.epoch,
            "wal_bytes": wal.size if wal is not None else 0,
            "wal_records": wal.records_written if wal is not None else 0,
            "commits": wal.commits if wal is not None else 0,
            "fsyncs": wal.fsyncs if wal is not None else 0,
            "group_commit_window": self.group_commit_window,
            "checkpoints_written": self.checkpoints_written,
            "last_recovery": (self.recovery_report.as_dict()
                              if self.recovery_report is not None else None),
        }

    def __repr__(self) -> str:
        return "DurabilityManager({!r}, epoch={}, txn={})".format(
            self.directory, self.epoch, self._open_txn)
