"""Fault injection: torn writes, failing fsyncs, bit flips — and the crash harness.

Two layers live here.  :class:`FaultPlan` / :class:`FaultyFile` wrap the WAL's
file object (via the ``wal_file_factory`` hook on ``Database``) and inject
byte-granular failures:

* **torn writes** — a write that persists only its first *n* bytes and then
  raises, as a dying disk or a power cut mid-``write`` would;
* **failing calls** — ``IOError`` from ``write`` or ``fsync`` (always, or at
  the *n*-th call);
* **bit flips** — XOR masks applied to chosen absolute file offsets as the
  bytes pass through, which the CRC framing must catch at recovery time.

On top sits the property-style **crash harness**: :func:`record_workload`
runs a workload of durable units (single autocommitted statements, DDL, or
whole transactions) against a real durable database, remembering the WAL byte
offset and the canonical database state at every unit boundary; then
:func:`crash_at_every_offset` truncates the recorded log at *every byte
offset* (simulating a kill at that exact point), recovers, and asserts the
two properties the write-ahead protocol promises:

* **atomicity** — the recovered state equals the state at the last unit
  boundary at or before the truncation point, never anything in between;
* **invariants** — constraints, attribute dependencies, secondary indexes and
  shape counts all re-validate
  (:func:`~repro.storage.recovery.verify_database`).
"""

from __future__ import annotations

import os
import shutil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.storage.recovery import verify_database

__all__ = ["CrashConsistencyError", "FaultPlan", "FaultyFile",
           "WorkloadRecording", "canonical_state", "crash_at_every_offset",
           "faulty_file_factory", "record_workload"]


class CrashConsistencyError(AssertionError):
    """The crash harness found a recovered state that breaks a property."""


# -- the injectable file wrapper -----------------------------------------------------


class FaultPlan:
    """Declarative description of the failures a :class:`FaultyFile` injects.

    Parameters
    ----------
    fail_after_bytes:
        Cumulative written-byte budget: the write that would cross it persists
        only the bytes up to the budget and then raises (a torn write).
    fail_fsync_at:
        1-based index of the fsync call that raises.
    always_fail_writes / always_fail_fsync:
        Unconditional failure switches.
    bit_flips:
        ``{absolute file offset: xor mask}`` applied to bytes as they are
        written through the wrapper.
    """

    def __init__(self, fail_after_bytes: Optional[int] = None,
                 fail_fsync_at: Optional[int] = None,
                 always_fail_writes: bool = False,
                 always_fail_fsync: bool = False,
                 bit_flips: Optional[Dict[int, int]] = None):
        self.fail_after_bytes = fail_after_bytes
        self.fail_fsync_at = fail_fsync_at
        self.always_fail_writes = always_fail_writes
        self.always_fail_fsync = always_fail_fsync
        self.bit_flips = dict(bit_flips or {})

    def __repr__(self) -> str:
        return ("FaultPlan(fail_after_bytes={}, fail_fsync_at={}, "
                "always_fail_writes={}, always_fail_fsync={}, bit_flips={})"
                .format(self.fail_after_bytes, self.fail_fsync_at,
                        self.always_fail_writes, self.always_fail_fsync,
                        sorted(self.bit_flips)))


class FaultyFile:
    """A file wrapper executing a :class:`FaultPlan` on the way through."""

    def __init__(self, inner, plan: FaultPlan):
        self._inner = inner
        self._plan = plan
        self._position = inner.tell()
        self._written = 0
        self._fsync_calls = 0

    def _flip(self, data: bytes) -> bytes:
        flips = self._plan.bit_flips
        if not flips:
            return data
        start = self._position
        mutated = bytearray(data)
        for offset, mask in flips.items():
            if start <= offset < start + len(mutated):
                mutated[offset - start] ^= mask
        return bytes(mutated)

    def write(self, data: bytes) -> int:
        if self._plan.always_fail_writes:
            raise IOError("injected write failure")
        budget = self._plan.fail_after_bytes
        if budget is not None and self._written + len(data) > budget:
            allowed = max(0, budget - self._written)
            if allowed:
                self._inner.write(self._flip(data[:allowed]))
                self._inner.flush()
                self._position += allowed
                self._written += allowed
            raise IOError("injected torn write after {} bytes".format(budget))
        self._inner.write(self._flip(data))
        self._position += len(data)
        self._written += len(data)
        return len(data)

    def fsync(self) -> None:
        self._fsync_calls += 1
        if (self._plan.always_fail_fsync
                or self._plan.fail_fsync_at == self._fsync_calls):
            raise IOError("injected fsync failure (call #{})".format(self._fsync_calls))
        self._inner.flush()
        os.fsync(self._inner.fileno())

    # -- plain passthroughs ----------------------------------------------------------

    def flush(self) -> None:
        self._inner.flush()

    def fileno(self) -> int:
        return self._inner.fileno()

    def truncate(self, size: Optional[int] = None) -> int:
        result = self._inner.truncate(size)
        if size is not None:
            self._position = size
        return result

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        position = self._inner.seek(offset, whence)
        self._position = position
        return position

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def __repr__(self) -> str:
        return "FaultyFile({!r}, {!r})".format(self._inner, self._plan)


def faulty_file_factory(plan: FaultPlan) -> Callable:
    """A ``wal_file_factory`` for ``Database`` that wraps the log in ``plan``."""

    def factory(path: str, mode: str):
        return FaultyFile(open(path, mode), plan)

    return factory


# -- the crash harness ----------------------------------------------------------------


def canonical_state(database) -> Dict[str, Tuple]:
    """A comparable snapshot of the database's *logical* contents.

    Table names mapped to their tuples as sorted ``(attribute, value)`` item
    tuples, ordered canonically — two databases with equal canonical states
    hold exactly the same data.  Statistics are deliberately excluded (a
    replayed ANALYZE may sample differently); the harness checks their row
    counts through :func:`~repro.storage.recovery.verify_database` instead.
    """
    state = {}
    for name in database.tables():
        rows = [tuple(sorted(tup.as_dict().items())) for tup in database.table(name)]
        state[name] = tuple(sorted(rows, key=repr))
    return state


class WorkloadRecording:
    """A recorded workload: the raw WAL image plus every unit boundary."""

    def __init__(self, wal_bytes: bytes,
                 boundaries: List[Tuple[int, Dict[str, Tuple]]]):
        #: the complete, uncorrupted log image the workload produced
        self.wal_bytes = wal_bytes
        #: ``(wal byte offset, canonical state)`` after each durable unit,
        #: including the initial empty state at the file-header boundary
        self.boundaries = boundaries

    def expected_state_at(self, offset: int) -> Tuple[int, Dict[str, Tuple]]:
        """The boundary a log truncated at ``offset`` must recover to."""
        chosen = self.boundaries[0]
        for boundary in self.boundaries:
            if boundary[0] <= offset:
                chosen = boundary
            else:
                break
        return chosen

    def __repr__(self) -> str:
        return "WorkloadRecording({} bytes, {} boundaries)".format(
            len(self.wal_bytes), len(self.boundaries))


def record_workload(directory: str, units: Sequence[Callable],
                    **database_kwargs) -> WorkloadRecording:
    """Run a workload of durable units and record every boundary.

    Each element of ``units`` is a callable receiving the database and must
    perform exactly **one** durable unit — a single autocommitted statement,
    one DDL call, or one ``with db.transaction():`` block (committed or
    rolled back).  Recording boundaries at unit granularity is what lets the
    harness assert *exact* recovered states rather than set membership.
    """
    from repro.engine.database import Database

    database = Database(durable_path=directory, **database_kwargs)
    wal = database.durability.wal
    boundaries = [(wal.size, canonical_state(database))]
    for unit in units:
        unit(database)
        database.durability.wal.flush()
        boundaries.append((database.durability.wal.size, canonical_state(database)))
    database.close()
    with open(database.durability.wal.path, "rb") as handle:
        wal_bytes = handle.read()
    return WorkloadRecording(wal_bytes, boundaries)


def crash_at_every_offset(recording: WorkloadRecording, scratch_directory: str,
                          stride: int = 1,
                          **database_kwargs) -> Dict[str, int]:
    """Truncate the recorded log at every byte offset, recover, and assert.

    ``stride`` thins the sweep for expensive workloads (the final offset is
    always included); the returned summary counts what was exercised.  Raises
    :class:`CrashConsistencyError` on the first violated property.
    """
    from repro.engine.database import Database
    from repro.storage.checkpoint import wal_filename

    wal_bytes = recording.wal_bytes
    offsets = list(range(0, len(wal_bytes), max(1, stride)))
    if not offsets or offsets[-1] != len(wal_bytes):
        offsets.append(len(wal_bytes))
    summary = {"offsets_tested": 0, "transactions_discarded": 0,
               "torn_tails_seen": 0}
    for offset in offsets:
        crash_dir = os.path.join(scratch_directory, "crash-{:08d}".format(offset))
        os.makedirs(crash_dir, exist_ok=True)
        with open(os.path.join(crash_dir, wal_filename(0)), "wb") as handle:
            handle.write(wal_bytes[:offset])
        database = Database(durable_path=crash_dir, **database_kwargs)
        try:
            report = database.durability.recovery_report
            expected_offset, expected = recording.expected_state_at(offset)
            recovered = canonical_state(database)
            if recovered != expected:
                raise CrashConsistencyError(
                    "truncation at offset {}: recovered state is not the "
                    "transaction-boundary prefix at offset {} (recovered "
                    "tables {}, expected {})".format(
                        offset, expected_offset,
                        {n: len(v) for n, v in recovered.items()},
                        {n: len(v) for n, v in expected.items()}))
            problems = verify_database(database)
            if problems:
                raise CrashConsistencyError(
                    "truncation at offset {}: recovered database violates "
                    "invariants: {}".format(offset, "; ".join(problems)))
            summary["offsets_tested"] += 1
            summary["transactions_discarded"] += report.transactions_discarded
            if report.torn_reason is not None:
                summary["torn_tails_seen"] += 1
        finally:
            database.close()
            shutil.rmtree(crash_dir, ignore_errors=True)
    return summary
