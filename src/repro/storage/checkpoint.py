"""Checkpoints: atomic whole-database snapshots that bound recovery cost.

A checkpoint is the :func:`~repro.engine.serialization.database_to_dict`
document wrapped in a small envelope (:func:`checkpoint_payload`, the one
definition of the file's contents) and written *atomically* (temp file,
fsync, ``os.replace``, directory fsync) next to the write-ahead log.  The
envelope names the WAL **epoch** that starts after the snapshot::

    {"checkpoint_format":1,"database":{...},"wal_epoch":3}

The file is compact, key-sorted JSON, streamed through the C encoder a piece
at a time (:func:`~repro.engine.serialization.database_json_pieces`): the
stored rows are encoded in chunks, never copied into a document first.

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

import json
import os
from typing import Dict, Optional, Tuple

from repro.engine.serialization import (
    SerializationError,
    atomic_write,
    database_json_pieces,
    database_to_dict,
    load_json_file,
)

__all__ = ["CHECKPOINT_FORMAT", "SNAPSHOT_FILENAME", "checkpoint_payload",
           "load_checkpoint", "wal_filename", "write_checkpoint"]

#: bumped when the checkpoint envelope changes incompatibly
CHECKPOINT_FORMAT = 1

#: the snapshot's filename inside a durable database directory
SNAPSHOT_FILENAME = "snapshot.json"


def wal_filename(epoch: int) -> str:
    """The log filename of one WAL epoch (``wal.000000``, ``wal.000001``, ...)."""
    return "wal.{:06d}".format(epoch)


def _envelope(wal_epoch: int, database_document) -> Dict[str, object]:
    return {
        "checkpoint_format": CHECKPOINT_FORMAT,
        "wal_epoch": wal_epoch,
        "database": database_document,
    }


def checkpoint_payload(database, wal_epoch: int) -> Dict[str, object]:
    """The envelope written by a checkpoint: format, epoch, full snapshot."""
    return _envelope(wal_epoch, database_to_dict(database, include_data=True))


def write_checkpoint(database, path: str, wal_epoch: int) -> str:
    """Atomically write :func:`checkpoint_payload`'s document as compact,
    key-sorted JSON, streamed; returns the path."""
    # the envelope's only null is the placeholder of the database section
    head, _, tail = json.dumps(_envelope(wal_epoch, None), sort_keys=True,
                               separators=(",", ":")).partition("null")

    def write(handle):
        handle.write(head)
        handle.writelines(database_json_pieces(database))
        handle.write(tail)

    return atomic_write(path, write)


def load_checkpoint(path: str) -> Optional[Tuple[Dict[str, object], int]]:
    """Read a checkpoint envelope; ``None`` when no snapshot exists yet.

    Returns ``(database_dict, wal_epoch)``.  A snapshot with an unknown
    envelope format or a malformed shape raises
    :class:`~repro.engine.serialization.SerializationError` naming the
    problem — never a raw ``KeyError``.
    """
    if not os.path.exists(path):
        return None
    payload = load_json_file(path)
    if not isinstance(payload, dict):
        raise SerializationError(
            "checkpoint {!r}: expected an object at the top level".format(path))
    fmt = payload.get("checkpoint_format")
    if fmt != CHECKPOINT_FORMAT:
        raise SerializationError(
            "checkpoint {!r}: unsupported checkpoint_format {!r} "
            "(this build reads format {})".format(path, fmt, CHECKPOINT_FORMAT))
    epoch = payload.get("wal_epoch")
    if not isinstance(epoch, int) or epoch < 0:
        raise SerializationError(
            "checkpoint {!r}: wal_epoch must be a non-negative integer, "
            "got {!r}".format(path, epoch))
    database = payload.get("database")
    if not isinstance(database, dict):
        raise SerializationError(
            "checkpoint {!r}: missing or malformed 'database' section".format(path))
    return database, epoch
