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
* **invariant preservation** — recovery is an ordinary load: the snapshot's
  rows enter each table by one :meth:`Table.insert_many` (:func:`load_snapshot`)
  and the log's committed work by the tables' own DML (:func:`replay_records`),
  so the checker each table builds from its definition admits every row once
  (scheme, domains, keys, dependencies) and files it in its indexes.  A
  refused row, or a statistics row count that disagrees with its table
  (:func:`miscounted_statistics`), raises :class:`RecoveryError`.
  :func:`verify_database` audits any database against its definitions.

Replay is idempotent with respect to the checkpoint snapshot it starts from:
the checkpoint switches the log to a fresh epoch file (see
:mod:`repro.storage.checkpoint`), so an epoch's log only ever contains work
that is *not* in the snapshot, and recovering twice — including a crash during
recovery, which only truncates debris — reaches the same state.
"""

from __future__ import annotations

import os
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.constraints import ConstraintChecker
from repro.engine.serialization import (
    SerializationError,
    populate_database_from_dict,
    table_definition_from_dict,
)
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
    OP_UPDATE,
    read_frames,
)

__all__ = ["RecoveryError", "RecoveryReport", "load_snapshot", "miscounted_statistics",
           "read_wal", "replay_records", "verify_database"]


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


def load_snapshot(database, document: Dict[str, object]) -> None:
    """Load a checkpoint's database document into the (empty) database in
    recovery: :func:`~repro.engine.serialization.populate_database_from_dict`,
    each table's rows one :meth:`Table.insert_many`.

    A row a table refuses raises :class:`RecoveryError` naming every row of
    that table's document that a checker built from its definition refuses,
    in document order; a malformed document raises the
    :class:`~repro.engine.serialization.SerializationError` the load does.
    """
    try:
        populate_database_from_dict(database, document)
    except SerializationError:
        raise
    except ReproError as exc:
        # the loaded tables are the document's first ones, the last of them the
        # one that refused; the report is built on this error path only
        problems: List[str] = []
        for entry in document["tables"][:len(database.tables())]:
            rows = (FlexTuple(values) for values in entry.get("tuples", ())
                    if isinstance(values, dict))
            problems += _recheck(database.table(entry["name"]), dict.fromkeys(rows))[1]
        if not problems:
            raise
        raise RecoveryError(
            "recovered database is inconsistent: " + "; ".join(problems)) from exc


_DML = (OP_INSERT, OP_UPDATE, OP_DELETE)


def _apply_operations(database, records: Iterable[Dict[str, object]]) -> None:
    """Apply replayed DML records through the tables' own DML, in log order: a
    run of consecutive inserts into one table is one :meth:`Table.insert_many`,
    a delete a :meth:`Table.delete`, an update a delete of the old image and an
    insert of the new one.  A row the table refuses raises :class:`RecoveryError`."""
    for (name, op), run in groupby(records, key=lambda r: (r["table"], r["op"])):
        table = database.table(name)
        try:
            if op == OP_INSERT:
                table.insert_many(record["values"] for record in run)
            elif op == OP_DELETE:
                for record in run:
                    table.delete(record["values"])
            else:  # OP_UPDATE, the only other DML op the dispatcher hands on
                for record in run:
                    table.delete(record["old"])
                    table.insert(record["new"])
        except ReproError as exc:
            raise RecoveryError("recovered database is inconsistent: table {!r}: {}".format(
                name, exc)) from exc


def _apply_ddl(database, record: Dict[str, object], report: RecoveryReport) -> None:
    op = record["op"]
    if op == OP_CREATE_TABLE:
        spec = table_definition_from_dict(record["table"], path="wal.create_table")
        database.create_table(
            spec["name"], spec["scheme"], domains=spec["domains"], key=spec["key"],
            dependencies=spec["dependencies"], indexes=spec["indexes"],
        )
        report.ddl_applied += 1
    elif op == OP_DROP_TABLE:
        if record["table"] in database.catalog:
            database.drop_table(record["table"])
        report.ddl_applied += 1
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
    * the incrementally maintained statistics row counts agree with the
      tables.
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
        problems.extend(miscounted_statistics(database, [name]))
    return problems


def miscounted_statistics(database, names: Iterable[str]) -> List[str]:
    """The tables of ``names`` whose statistics row count is not their size —
    the check recovery's ``verify`` phase runs on every table."""
    problems: List[str] = []
    for name in names:
        statistics = database.statistics.peek(name)
        if statistics is not None and statistics.row_count != len(database.table(name)):
            problems.append(
                "table {!r}: statistics row_count {} != stored {}".format(
                    name, statistics.row_count, len(database.table(name))))
    return problems
