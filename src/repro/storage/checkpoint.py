"""Checkpoints: atomic whole-database snapshots that bound recovery cost.

A checkpoint is a file of write-ahead-log frames (``MAGIC``, then one
:func:`~repro.storage.wal.frame_record` per record), written *atomically*
(temp file, fsync, ``os.replace``, directory fsync) next to the log::

    checkpoint {format: 2, epoch: 3}       the WAL epoch after the snapshot
    create_table {table: {...}}            per table, the log's own record,
    rows {table, values: [{...}, ...]}     its rows in store order, at most
    ...                                    ROWS_PER_PIECE value dicts a record,
    statistics {table, statistics: {...}}  and its statistics, if analyzed
    end {tables: 2, rows: 6000}            the counts of all of the above

:func:`load_checkpoint` applies the records through recovery's own apply
loop (:mod:`repro.storage.recovery`).  A snapshot is never truncated, as a
log tail is: a torn or damaged frame, a missing ``end`` record or counts
that differ refuse it.  A format-1 snapshot, one JSON document
(``{"checkpoint_format":1,"database":{...},"wal_epoch":3}``), is converted to
the same records.

The epoch is how WAL truncation stays crash-safe without ever rewriting the
snapshot: each epoch is its own log file (``wal.000003``), the snapshot
points at the epoch whose log begins empty at checkpoint time, and older
epoch files are deleted only after the switch (and after a directory fsync
has made the rename and the new epoch's file durable).  Every crash window is
covered:

* crash **before** the snapshot rename — the old snapshot plus the old epoch's
  log recover exactly as if no checkpoint had been attempted;
* crash **after** the rename but before the new epoch file exists — the new
  snapshot is complete and its epoch's missing log is simply an empty log;
* crash **after** the new log exists but before old epochs are deleted — the
  stale files are ignored (the snapshot names the only epoch that counts) and
  removed on the next open.

Replaying an epoch's log on top of its snapshot is therefore trivially
idempotent: the log only ever contains work performed *after* the snapshot.
"""

from __future__ import annotations

import os
from itertools import groupby, islice
from typing import Dict, List, Optional

from repro.engine.serialization import (
    FORMAT_VERSION,
    SerializationError,
    atomic_write,
    decode_json,
    table_definition_to_dict,
)
from repro.storage import wal
from repro.storage.recovery import RecoveryReport, _apply_ddl, _apply_operations
from repro.storage.wal import (
    FRAME_HEADER,
    MAGIC,
    OP_CHECKPOINT,
    OP_CREATE_TABLE,
    OP_END,
    OP_ROWS,
    OP_STATISTICS,
    frame_record,
    read_frames,
)

__all__ = ["CHECKPOINT_FORMAT", "ROWS_PER_PIECE", "SNAPSHOT_FILENAME",
           "create_table_record", "load_checkpoint", "wal_filename",
           "write_checkpoint"]

#: bumped when the checkpoint's records change incompatibly (format 1 is read)
CHECKPOINT_FORMAT = 2

#: the snapshot's filename inside a durable database directory
SNAPSHOT_FILENAME = "snapshot.json"

#: stored rows per ``rows`` record (fewer when they would not fit in one frame)
ROWS_PER_PIECE = 1024


def wal_filename(epoch: int) -> str:
    """The log filename of one WAL epoch (``wal.000000``, ``wal.000001``, ...)."""
    return "wal.{:06d}".format(epoch)


def create_table_record(definition) -> Dict[str, object]:
    """The ``create_table`` record of a table definition, in the log and in a
    snapshot alike."""
    return {"op": OP_CREATE_TABLE, "table": table_definition_to_dict(definition)}


def write_checkpoint(database, path: str, wal_epoch: int) -> str:
    """Atomically write the database's snapshot records, framed, a chunk of
    rows at a time; returns the path.  A record that would not fit in one
    frame is split (``rows``) or refused before the rename (anything else)."""
    def write(handle):
        handle.write(MAGIC)
        _write_record(handle, {"op": OP_CHECKPOINT, "format": CHECKPOINT_FORMAT,
                               "epoch": wal_epoch})
        names, rows = database.tables(), 0
        for name in names:
            _write_record(handle, create_table_record(database.catalog.definition(name)))
            stored = iter(database.table(name))
            chunk = [row._values for row in islice(stored, ROWS_PER_PIECE)]  # not copied
            while chunk:
                _write_record(handle, {"op": OP_ROWS, "table": name, "values": chunk})
                rows += len(chunk)
                chunk = [row._values for row in islice(stored, ROWS_PER_PIECE)]
            statistics = database.statistics.get(name)
            if statistics is not None:
                _write_record(handle, {"op": OP_STATISTICS, "table": name,
                                       "statistics": statistics.to_dict()})
        _write_record(handle, {"op": OP_END, "tables": len(names), "rows": rows})

    return atomic_write(path, write)


def _write_record(handle, record: Dict[str, object]) -> None:
    """Write one record's frame; a ``rows`` record too long for one frame
    (``wal.MAX_FRAME_BYTES``) is written as halves, each split again while too
    long, and a single row or any other record that long raises."""
    frame = frame_record(record)
    values = record["values"] if record["op"] == OP_ROWS else ()
    if len(frame) - FRAME_HEADER.size <= wal.MAX_FRAME_BYTES:
        handle.write(frame)
    elif len(values) > 1:
        for piece in (values[:len(values) // 2], values[len(values) // 2:]):
            _write_record(handle, dict(record, values=piece))
    else:
        what = ("one row of table {!r}".format(record["table"]) if values
                else "a {!r} record".format(record["op"]))
        raise SerializationError("checkpoint: {} encodes to {} bytes, more than a frame "
                                 "holds ({})".format(what, len(frame) - FRAME_HEADER.size,
                                                     wal.MAX_FRAME_BYTES))


def load_checkpoint(database, path: str) -> Optional[int]:
    """Load the snapshot at ``path`` into the (empty) database in recovery,
    through recovery's apply loop; returns the WAL epoch it names, ``None``
    when no snapshot exists yet.

    A torn, damaged or malformed snapshot raises
    :class:`~repro.engine.serialization.SerializationError` naming the file
    and byte offset; a row a table refuses raises
    :class:`~repro.storage.recovery.RecoveryError` naming every refused row
    of that table's run."""
    if not os.path.exists(path):
        return None
    # the scratch report takes _apply_ddl's counts: the recovery report's are the log's
    records, scratch = _snapshot_records(path), RecoveryReport()
    for rows, run in groupby(records[1:-1], key=lambda record: record["op"] == OP_ROWS):
        if rows:
            _apply_operations(database, run)
        else:
            for record in run:
                _apply_ddl(database, record, scratch)
    return records[0]["epoch"]


def _snapshot_records(path: str) -> List[Dict[str, object]]:
    """The snapshot's records, header to ``end``, checked for their shape and
    counted against the ``end`` record."""
    def refuse(problem):
        return SerializationError("checkpoint {!r}: {}".format(path, problem))

    with open(path, "rb") as handle:
        data = handle.read()
    if data[:1] == b"{":
        records, size = _format1_records(path, data, refuse), len(data)
    else:
        records, size, torn = read_frames(data)
        if torn is not None:
            raise refuse("{1} at byte offset {0}".format(*torn))
    header = records[0] if records else {}
    if (header.get("op"), header.get("format")) != (OP_CHECKPOINT, CHECKPOINT_FORMAT) or (
            type(header.get("epoch")) is not int or header["epoch"] < 0):
        raise refuse("no format-{} header record at byte offset {}: {!r}".format(
            CHECKPOINT_FORMAT, min(size, len(MAGIC)), header))
    if records[-1].get("op") != OP_END:
        raise refuse("no end record at byte offset {}".format(size))
    tables = rows = 0
    for record in records[1:-1]:
        op, values = record.get("op"), record.get("values")
        if op == OP_ROWS and isinstance(values, list) and all(
                isinstance(row, dict) for row in values):
            rows += len(values)
        elif op == OP_CREATE_TABLE:
            tables += 1
        elif op != OP_STATISTICS:
            raise refuse("a malformed {!r} record".format(op))
    end = records[-1]
    if (end.get("tables"), end.get("rows")) != (tables, rows):
        raise refuse("the end record counts {!r} tables and {!r} rows, the records "
                     "{} and {}".format(end.get("tables"), end.get("rows"), tables, rows))
    return records


def _format1_records(path: str, data: bytes, refuse) -> List[Dict[str, object]]:
    """A format-1 snapshot, its envelope checked, as the same records."""
    payload = decode_json(data, "checkpoint {!r}".format(path))
    fmt = payload.get("checkpoint_format") if isinstance(payload, dict) else None
    if fmt != 1:
        raise refuse("unsupported checkpoint_format {!r} (this build reads formats 1 "
                     "and {})".format(fmt, CHECKPOINT_FORMAT))
    epoch = payload.get("wal_epoch")
    if type(epoch) is not int or epoch < 0:
        raise refuse("wal_epoch must be a non-negative integer, got {!r}".format(epoch))
    document = payload.get("database")
    tables = document.get("tables", []) if isinstance(document, dict) else None
    if (not isinstance(tables, list) or document.get("format_version") != FORMAT_VERSION
            or not all(isinstance(entry, dict) for entry in tables)):
        raise refuse("missing or malformed 'database' section")
    records, rows = [{"op": OP_CHECKPOINT, "format": CHECKPOINT_FORMAT, "epoch": epoch}], 0
    for entry in map(dict, tables):
        values, statistics = entry.pop("tuples", []), entry.pop("statistics", None)
        records += [{"op": OP_CREATE_TABLE, "table": entry},
                    {"op": OP_ROWS, "table": entry.get("name"), "values": values}]
        rows += len(values) if isinstance(values, list) else 0
        if statistics is not None:
            records.append({"op": OP_STATISTICS, "table": entry.get("name"),
                            "statistics": statistics})
    return records + [{"op": OP_END, "tables": len(tables), "rows": rows}]
