"""Durable storage: write-ahead logging, crash recovery, checkpoints, faults.

The paper's engine kept every byte in process memory; this package gives it a
durability story (ROADMAP item 2).  ``Database(durable_path=...)`` routes all
DML, DDL and ANALYZE activity through an append-only, CRC-framed write-ahead
log (:mod:`repro.storage.wal`), recovers to a consistent transaction boundary
on every open — tolerating arbitrarily torn or bit-flipped log tails
(:mod:`repro.storage.recovery`) — and bounds recovery cost with atomic
checkpoint snapshots that switch the log to a fresh epoch
(:mod:`repro.storage.checkpoint`), written as the log's own framed records
and applied by the same loop.  The whole protocol is exercised
mechanically by the fault-injection harness (:mod:`repro.storage.faults`),
which kills a recorded workload at every WAL byte offset and asserts
atomicity and invariant preservation after recovery.
"""

from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    SNAPSHOT_FILENAME,
    load_checkpoint,
    wal_filename,
    write_checkpoint,
)
from repro.storage.durable import DurabilityManager
from repro.storage.faults import (
    CrashConsistencyError,
    FaultPlan,
    FaultyFile,
    WorkloadRecording,
    canonical_state,
    crash_at_every_offset,
    faulty_file_factory,
    record_workload,
)
from repro.storage.recovery import (
    RecoveryError,
    RecoveryReport,
    read_wal,
    replay_records,
    verify_database,
)
from repro.storage.wal import WALError, WriteAheadLog, read_frames

__all__ = [
    "CHECKPOINT_FORMAT",
    "SNAPSHOT_FILENAME",
    "CrashConsistencyError",
    "DurabilityManager",
    "FaultPlan",
    "FaultyFile",
    "RecoveryError",
    "RecoveryReport",
    "WALError",
    "WorkloadRecording",
    "WriteAheadLog",
    "canonical_state",
    "crash_at_every_offset",
    "faulty_file_factory",
    "load_checkpoint",
    "read_frames",
    "read_wal",
    "record_workload",
    "replay_records",
    "verify_database",
    "wal_filename",
    "write_checkpoint",
]
