"""Crash recovery: load the checkpoint snapshot and replay the committed
prefix of a write-ahead log.

Recovery runs when a durable database opens (see
:class:`~repro.storage.durable.DurabilityManager`) and must deliver three
guarantees, each exercised mechanically by the fault-injection harness in
:mod:`repro.storage.faults`:

* **atomicity** — only transactions whose commit record survived are applied;
  a transaction truncated anywhere before its commit point vanishes entirely,
  so the recovered state always equals the state at some transaction boundary
  of the original history;
* **torn-tail tolerance** — a crash mid-write leaves a short or corrupt frame
  at the end of the log; recovery *detects and discards* it (and truncates the
  file back to the intact prefix) instead of crashing;
* **invariant preservation** — recovery is an ordinary load with one apply
  loop: the snapshot's records (:mod:`repro.storage.checkpoint`) and the
  log's committed work (:func:`replay_records`) create tables by
  :func:`_apply_ddl` and enter rows by the tables' own DML
  (:func:`_apply_operations`), so the checker each table builds from its
  definition admits every row once (scheme, domains, keys, dependencies) and
  files it in its indexes.  A refused row, or shape counts that do not add up
  to the table's size (:func:`miscounted_shapes`), raises
  :class:`RecoveryError`.  :func:`verify_database` audits any database.

Replay is idempotent with respect to the checkpoint snapshot it starts from:
the checkpoint switches the log to a fresh epoch file (see
:mod:`repro.storage.checkpoint`), so an epoch's log only ever contains work
that is *not* in the snapshot, and recovering twice — including a crash during
recovery, which only truncates debris — reaches the same state.
"""

from __future__ import annotations

import os
from itertools import chain, groupby
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.constraints import ConstraintChecker
from repro.engine.serialization import restore_statistics, table_definition_from_dict
from repro.errors import ReproError
from repro.model.tuples import FlexTuple
from repro.storage.wal import (
    OP_ABORT,
    OP_ANALYZE,
    OP_BEGIN,
    OP_CHECKPOINT,
    OP_COMMIT,
    OP_CREATE_TABLE,
    OP_DELETE,
    OP_DROP_TABLE,
    OP_INSERT,
    OP_ROWS,
    OP_STATISTICS,
    OP_UPDATE,
    read_frames,
)

__all__ = ["RecoveryError", "RecoveryReport", "miscounted_shapes", "read_wal",
           "replay_records", "verify_database"]


class RecoveryError(ReproError):
    """Recovery could not reach a consistent state (an invariant is broken)."""


class RecoveryReport:
    """What one recovery pass found and did — exposed via ``Database.metrics()``."""

    def __init__(self):
        self.checkpoint_loaded = False
        self.wal_epoch = 0
        self.records_read = 0
        self.valid_bytes = 0
        self.torn_offset: Optional[int] = None
        self.torn_reason: Optional[str] = None
        self.transactions_applied = 0
        self.transactions_discarded = 0
        self.operations_applied = 0
        self.ddl_applied = 0
        self.analyze_replayed = 0
        #: seconds spent loading the snapshot, reading the log, replaying it and
        #: verifying the result
        self.phase_seconds: Dict[str, float] = {}

    def as_dict(self) -> Dict[str, object]:
        return {
            "checkpoint_loaded": self.checkpoint_loaded,
            "wal_epoch": self.wal_epoch,
            "records_read": self.records_read,
            "valid_bytes": self.valid_bytes,
            "torn_offset": self.torn_offset,
            "torn_reason": self.torn_reason,
            "transactions_applied": self.transactions_applied,
            "transactions_discarded": self.transactions_discarded,
            "operations_applied": self.operations_applied,
            "ddl_applied": self.ddl_applied,
            "analyze_replayed": self.analyze_replayed,
            "phase_seconds": dict(self.phase_seconds),
        }

    def __repr__(self) -> str:
        return ("RecoveryReport(records={}, applied_txns={}, discarded_txns={}, "
                "torn={!r})".format(self.records_read, self.transactions_applied,
                                    self.transactions_discarded, self.torn_reason))


def read_wal(path: str) -> Tuple[List[Dict[str, object]], int, Optional[Tuple[int, str]]]:
    """Read a log file from disk; a missing file is an empty log.

    Returns ``(records, valid_length, torn)`` exactly like
    :func:`~repro.storage.wal.read_frames`.
    """
    if not os.path.exists(path):
        return [], 0, None
    with open(path, "rb") as handle:
        data = handle.read()
    return read_frames(data)


_DML = (OP_INSERT, OP_UPDATE, OP_DELETE)


def _apply_operations(database, records: Iterable[Dict[str, object]]) -> None:
    """Apply DML and snapshot ``rows`` records through the tables' own DML, in
    order: a run of one table's inserts, or of its ``rows`` records, is one
    :meth:`Table.insert_many`, a run of its updates or of its deletes one
    :meth:`Table.apply` of the logged ``(old, new)`` changes.  A row the table
    refuses — an update or a delete of a row it does not hold among them —
    raises :class:`RecoveryError`; for an insert run, on this error path only,
    the stored rows and the run are checked again, so it names every refused
    row of the run, in order."""
    for (name, op), run in groupby(records, key=lambda r: (r["table"], r["op"])):
        table, rows = database.table(name), None
        try:
            if op in (OP_INSERT, OP_ROWS):
                rows = [r["values"] for r in run] if op == OP_INSERT else [
                    values for r in run for values in r["values"]]
                table.insert_many(rows)
            else:
                table.apply((FlexTuple(r["values"]), None) if op == OP_DELETE
                            else (FlexTuple(r["old"]), FlexTuple(r["new"])) for r in run)
        except ReproError as exc:
            # the stored rows hold the run's admitted prefix: once is enough
            problems = [] if rows is None else _recheck(
                table, dict.fromkeys(chain(table, map(FlexTuple, rows))))[1]
            raise RecoveryError("recovered database is inconsistent: " + "; ".join(
                problems or ["table {!r}: {}".format(name, exc)])) from exc


def _apply_ddl(database, record: Dict[str, object], report: RecoveryReport) -> None:
    """Apply one autonomous record: DDL, an ANALYZE marker or a snapshot's
    statistics."""
    op = record["op"]
    if op == OP_CREATE_TABLE:
        database.create_table(**table_definition_from_dict(
            record["table"], path="wal.create_table"))
        report.ddl_applied += 1
    elif op == OP_DROP_TABLE:
        if record["table"] in database.catalog:
            database.drop_table(record["table"])
        report.ddl_applied += 1
    elif op == OP_STATISTICS:
        restore_statistics(database, record["table"], record["statistics"],
                           "statistics of table {!r}".format(record["table"]))
    elif op == OP_ANALYZE:
        try:
            database.analyze(record.get("table"),
                             sample_size=record.get("sample_size"))
            report.analyze_replayed += 1
        except ReproError:
            # The analyzed table may have been dropped later in the log; a
            # marker that no longer applies is harmless.
            pass


def replay_records(database, records: List[Dict[str, object]],
                   report: Optional[RecoveryReport] = None) -> RecoveryReport:
    """Replay the committed work of decoded records into a database, through
    the tables' own DML; a row a table refuses raises :class:`RecoveryError`.

    DML tagged with a ``txn`` id is buffered until that transaction's commit
    record; an ``abort`` — or simply never seeing the commit (the crash ate
    it) — discards the buffer.  Autocommitted DML (``txn: null``) and DDL /
    ANALYZE markers apply as met, mirroring the live engine where DDL is not
    undone by a rollback; consecutive autocommitted records form runs as a
    transaction's do (:func:`_apply_operations`).  Replay journals nothing as
    long as the database's durability manager has not opened its log, which
    it opens once recovery is done.
    """
    if report is None:
        report = RecoveryReport()
    report.records_read += len(records)
    open_txn: Optional[int] = None
    buffer: List[Dict[str, object]] = []
    for autocommitted, run in groupby(
            records, key=lambda r: r.get("op") in _DML and r.get("txn") is None):
        if autocommitted:
            run = list(run)
            _apply_operations(database, run)
            report.operations_applied += len(run)
            report.transactions_applied += len(run)
            continue
        for record in run:
            op = record.get("op")
            if op == OP_BEGIN:
                if open_txn is not None and buffer:
                    report.transactions_discarded += 1
                open_txn, buffer = record.get("txn"), []
            elif op == OP_COMMIT:
                if record.get("txn") == open_txn and open_txn is not None:
                    _apply_operations(database, buffer)
                    report.operations_applied += len(buffer)
                    report.transactions_applied += 1
                open_txn, buffer = None, []
            elif op == OP_ABORT:
                if open_txn is not None:
                    report.transactions_discarded += 1
                open_txn, buffer = None, []
            elif op in _DML:
                if record["txn"] == open_txn:
                    buffer.append(record)
                else:
                    # A stray record of a transaction we never saw begin —
                    # debris from a log bug; safer to drop than to guess.
                    report.transactions_discarded += 1
            elif op in (OP_CREATE_TABLE, OP_DROP_TABLE, OP_ANALYZE):
                _apply_ddl(database, record, report)
            elif op == OP_CHECKPOINT:
                pass  # informational marker only
            else:
                raise RecoveryError("unknown WAL record op {!r}".format(op))
    if open_txn is not None and buffer:
        report.transactions_discarded += 1
    return report


def _recheck(table, tuples: Iterable[FlexTuple]) -> Tuple[ConstraintChecker, List[str]]:
    """Run ``tuples`` through a checker built from the table's definition —
    never the live one — registering each tuple that passes before the next is
    checked.  Returns the checker, whose indexes then hold every tuple (the
    refused ones are filed once all are checked), and the refusals."""
    fresh = ConstraintChecker(table.definition, table.checker.enforce)
    check, register = fresh.check_insert, fresh.register_tuple
    problems: List[str] = []
    refused: List[FlexTuple] = []
    for tup in tuples:
        try:
            check(tup)
        except ReproError as exc:
            problems.append("table {!r}: {}".format(table.name, exc))
            refused.append(tup)
        else:
            register(tup)
    for tup in refused:
        register(tup)
    return fresh, problems


def verify_database(database) -> List[str]:
    """Re-validate every invariant of a recovered database.

    Returns a list of human-readable problems (empty when consistent):

    * every stored tuple re-passes scheme admission, domain conformance, key
      uniqueness and the declared attribute/functional dependencies (as the
      table's own checker enforces them, so a database opened with
      ``enforce_constraints=False`` is not failed for constraints it never
      enforced).  The tuples are taken as stored; only when one is refused are
      they checked again in ``repr`` order, for a report that does not depend
      on set order — which of two conflicting tuples is named does;
    * every maintained hash index files exactly the stored tuples defined on
      its attributes, each under its key: its buckets equal those of the index
      the independent checker has just rebuilt;
    * every table's shape counts — what the planner's row, presence and
      type-guard counts are read from — equal those of the independent
      checker, and add up to the table's size.
    """
    problems: List[str] = []
    for name in database.tables():
        table = database.table(name)
        fresh, refusals = _recheck(table, table)
        if refusals:
            fresh, refusals = _recheck(table, sorted(table, key=repr))
        problems.extend(refusals)
        for index in table.checker.indexes():
            expected = fresh.index_on(index.attributes)
            if index.same_buckets(expected):
                continue
            held, wanted = ({tup for _key, bucket in each.groups() for tup in bucket}
                            for each in (index, expected))
            if held != wanted:
                problems.append(
                    "table {!r}: index on {} holds {} tuples, expected {}".format(
                        name, index.attributes, len(held), len(wanted)))
            else:
                problems.append(
                    "table {!r}: index on {} holds the expected {} tuples, but not "
                    "under the expected keys".format(name, index.attributes, len(held)))
        counts, expected = table.checker.shape_counts(), fresh.shape_counts()
        if counts != expected:
            problems.append("table {!r}: shape counts {} != recounted {}".format(
                name, *(sorted((sorted(shape), count) for shape, count in each.items())
                        for each in (counts, expected))))
        problems.extend(miscounted_shapes(database, [name]))
    return problems


def miscounted_shapes(database, names: Iterable[str]) -> List[str]:
    """The tables of ``names`` whose shape counts do not add up to their size —
    the check recovery's ``verify`` phase runs on every table."""
    problems: List[str] = []
    for name in names:
        table = database.table(name)
        counted = sum(table.checker.shape_counts().values())
        if counted != len(table):
            problems.append("table {!r}: shape counts sum to {} != stored {}".format(
                name, counted, len(table)))
    return problems
