"""Spill-to-disk machinery: CRC-framed temp segments plus the three
budget-respecting algorithms built on them.

Segments reuse the WAL's framing discipline (``storage/wal.py``): a magic
header, then ``<length, crc32>``-framed pickled chunks, verified on read —
a torn or corrupted spill file raises ``SpillError`` instead of silently
feeding a query wrong data.  Everything spilled is plain picklable data
(value dicts, group keys, accumulator state lists); ``FlexTuple``\\ s are
decomposed into ``(values, hash)`` pairs before writing and rebuilt with
``FlexTuple.from_parts`` on the way back.

Three consumers, mirroring the classic algorithms:

* :class:`ExternalSorter` — sorted in-memory runs flushed when the budget
  trips, k-way merged on read (external merge sort).
* :class:`SpillingAggregator` — hash aggregation that hash-partitions its
  ``group → state`` dict to disk when over budget and merges per partition
  at finalize time via ``AggregateAccumulator.merge_states``
  (partition-and-merge; peak memory ≈ budget + one partition).
* :class:`GracePartitioner` — the shared partition writer the grace hash
  join uses for both its build and probe sides.
"""

import os
import pickle
import shutil
import tempfile
import zlib
from typing import Callable, Iterator, List, Optional, Sequence

from repro.algebra.analytic import (
    AggregateAccumulator,
    CompiledOrder,
    group_key,
    group_values,
)
from repro.errors import SpillError
from repro.exec.context import sampled_size
from repro.storage.wal import FRAME_HEADER, MAX_FRAME_BYTES

__all__ = [
    "ExternalSorter",
    "GracePartitioner",
    "SpillManager",
    "SpillSegment",
    "SpillingAggregator",
]

#: magic header of every spill segment (framing sibling of the WAL's RPRWAL01)
SPILL_MAGIC = b"RPRSPL01"

#: records buffered per pickled frame — bounds both frame size and the
#: per-chunk memory a reader holds
CHUNK_RECORDS = 512

#: fan-out of the partition-and-merge paths (aggregate and grace join)
SPILL_PARTITIONS = 16


class SpillSegment:
    """One CRC-framed temp file of pickled record chunks.

    Write-once (``append``/``extend`` then ``finish``), then iterable any
    number of times; iteration holds one chunk in memory at a time.
    """

    __slots__ = ("path", "records", "bytes", "_file", "_buffer", "_manager")

    def __init__(self, path: str, manager: "SpillManager | None" = None):
        self.path = path
        self.records = 0
        self.bytes = len(SPILL_MAGIC)
        self._file = open(path, "wb")
        self._file.write(SPILL_MAGIC)
        self._buffer: List[object] = []
        self._manager = manager

    def append(self, record) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= CHUNK_RECORDS:
            self._flush_chunk()

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        payload = pickle.dumps(self._buffer, protocol=pickle.HIGHEST_PROTOCOL)
        frame = FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
        self._file.write(frame)
        self._file.write(payload)
        self.records += len(self._buffer)
        self.bytes += len(frame) + len(payload)
        del self._buffer[:]

    def finish(self) -> None:
        """Flush the tail chunk and close the file for writing."""
        if self._file is None:
            return
        if self._buffer:
            self._flush_chunk()
        self._file.close()
        self._file = None
        if self._manager is not None:
            self._manager._count("spill.records", self.records)
            self._manager._count("spill.bytes", self.bytes)

    def discard(self) -> None:
        """Close (if still writing) and delete the backing file."""
        if self._file is not None:
            self._file.close()
            self._file = None
        try:
            os.remove(self.path)
        except OSError:
            pass

    def __iter__(self) -> Iterator:
        if self._file is not None:
            raise SpillError(
                "spill segment {!r} read before finish()".format(self.path))
        with open(self.path, "rb") as handle:
            magic = handle.read(len(SPILL_MAGIC))
            if magic != SPILL_MAGIC:
                raise SpillError(
                    "spill segment {!r} has a bad magic header".format(self.path))
            while True:
                header = handle.read(FRAME_HEADER.size)
                if not header:
                    return
                if len(header) < FRAME_HEADER.size:
                    raise SpillError(
                        "torn frame header in spill segment {!r}".format(self.path))
                length, crc = FRAME_HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise SpillError(
                        "oversized frame ({} bytes) in spill segment {!r}".format(
                            length, self.path))
                payload = handle.read(length)
                if len(payload) < length:
                    raise SpillError(
                        "torn frame payload in spill segment {!r}".format(self.path))
                if zlib.crc32(payload) != crc:
                    raise SpillError(
                        "CRC mismatch in spill segment {!r}".format(self.path))
                for record in pickle.loads(payload):
                    yield record


class SpillManager:
    """Owns one query's spill directory: segment creation, counters, cleanup.

    The directory is created lazily under ``base_directory`` (or the system
    temp dir) on the first spill, so budgeted queries that never spill touch
    no disk.  ``cleanup()`` removes everything — the governor calls it in a
    ``finally`` so cancelled and failed queries leak no temp files either.
    """

    def __init__(self, base_directory: Optional[str] = None, registry=None):
        self.base_directory = base_directory
        self.registry = registry
        self.directory: Optional[str] = None
        self.segments: List[SpillSegment] = []
        #: operator-level spill events (one flush of in-memory state to disk)
        self.spill_events = 0

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).add(amount)

    def create_segment(self, label: str) -> SpillSegment:
        if self.directory is None:
            self.directory = tempfile.mkdtemp(
                prefix="repro-spill-", dir=self.base_directory)
        path = os.path.join(
            self.directory, "{:04d}-{}.seg".format(len(self.segments), label))
        segment = SpillSegment(path, manager=self)
        self.segments.append(segment)
        self._count("spill.segments")
        return segment

    def note_spill(self) -> None:
        """Account one operator-level flush of state to disk.  Records and
        bytes are counted per segment when it finishes."""
        self.spill_events += 1
        self._count("spill.events")

    @property
    def spilled(self) -> bool:
        return self.spill_events > 0

    def cleanup(self) -> None:
        for segment in self.segments:
            segment.discard()
        del self.segments[:]
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


class ExternalSorter:
    """External merge sort under a byte budget.

    ``extend`` records (picklable, leading with the row's value dict — the
    engines pass ``(values, hash)`` pairs), call ``maybe_spill`` at batch
    boundaries; when the sampled size of the held run crosses the budget the
    run is sorted and flushed as one segment.  ``merged()`` then k-way merges
    the on-disk runs with the in-memory remainder, holding one chunk per run.
    Runs are sorted and merged by the same :class:`CompiledOrder` the
    in-memory sort uses — a total order, canonical tie-break included — so
    the merged output is the in-memory one however many runs the budget
    produced.
    """

    def __init__(self, manager: SpillManager, order: CompiledOrder,
                 budget: int, note: Callable[[int], None],
                 label: str = "sort"):
        self._manager = manager
        self._order = order
        self._budget = budget
        self._note = note  # feeds the operator's peak_bytes accounting
        self._label = label
        self._items: List[tuple] = []
        self._runs: List[SpillSegment] = []
        self._since_check = 0

    @property
    def runs(self) -> int:
        return len(self._runs)

    def extend(self, items) -> None:
        held = self._items
        append = held.append
        for item in items:
            append(item)
            self._since_check += 1
            # Batch sizes are adaptive and can reach the whole input, so the
            # budget is re-checked every CHUNK_RECORDS items regardless of
            # how the caller batches — held state stays near the budget.
            if self._since_check >= CHUNK_RECORDS:
                self.maybe_spill()
                held = self._items
                append = held.append

    def maybe_spill(self) -> None:
        self._since_check = 0
        size = sampled_size(self._items)
        self._note(size)
        if size > self._budget and self._items:
            self._spill_run()

    def _sorted_items(self) -> List[tuple]:
        items = self._items
        return [items[position] for position in
                self._order.argsort([item[0] for item in items])]

    def _spill_run(self) -> None:
        segment = self._manager.create_segment(self._label)
        segment.extend(self._sorted_items())
        segment.finish()
        self._runs.append(segment)
        self._manager.note_spill()
        self._items = []

    def merged(self) -> Iterator:
        self._items = self._sorted_items()
        if not self._runs:
            return iter(self._items)
        return self._order.merge(self._runs + [self._items])


class SpillingAggregator:
    """Hash aggregation with partition-and-merge spilling.

    Feed value dicts through ``add`` and call ``maybe_spill`` at batch
    boundaries.  While under budget this is exactly the in-memory hash
    aggregate (one ``group key → accumulator states`` dict).  The first time
    the budget trips, ``SPILL_PARTITIONS`` segments are opened and the dict
    is flushed as ``(key, states)`` pairs routed by ``hash(key)``; the dict
    then refills and flushes again as needed.  ``results()`` finalizes
    partition by partition: same-key state pairs from different flushes are
    combined with ``AggregateAccumulator.merge_states``, so peak memory is
    one partition's merged groups (~1/16 of the total) plus the budget-bound
    live dict.
    """

    def __init__(self, manager: SpillManager,
                 accumulator: AggregateAccumulator,
                 group_names: Sequence[str], budget: int,
                 note: Callable[[int], None],
                 partitions: int = SPILL_PARTITIONS):
        self._manager = manager
        self._accumulator = accumulator
        self._names = tuple(group_names)
        self._budget = budget
        self._note = note
        self._partitions_count = partitions
        self._groups = {}
        self._partitions: Optional[List[SpillSegment]] = None
        self._since_check = 0

    @property
    def spilled(self) -> bool:
        return self._partitions is not None

    def add(self, values) -> None:
        key = group_key(values, self._names)
        states = self._groups.get(key)
        if states is None:
            states = self._groups[key] = self._accumulator.new_state()
        self._accumulator.update(states, values)
        self._since_check += 1
        # re-check every CHUNK_RECORDS rows so a whole-input batch cannot
        # grow the group dict far past the budget between caller checks
        if self._since_check >= CHUNK_RECORDS:
            self.maybe_spill()

    def maybe_spill(self) -> None:
        self._since_check = 0
        size = sampled_size(self._groups)
        self._note(size)
        if size > self._budget and self._groups:
            self._flush()

    def _flush(self) -> None:
        if self._partitions is None:
            self._partitions = [
                self._manager.create_segment("agg-p{:02d}".format(index))
                for index in range(self._partitions_count)]
        modulus = self._partitions_count
        for key, states in self._groups.items():
            self._partitions[hash(key) % modulus].append((key, states))
        self._manager.note_spill()
        self._groups = {}

    def results(self) -> Iterator:
        """Yield each group's output value dict (non-empty ones only)."""
        accumulator, names = self._accumulator, self._names
        if self._partitions is None:
            groups = self._groups
            if not groups and not names:
                out = accumulator.empty_result()
                if out:
                    yield out
                return
            for key, states in groups.items():
                out = group_values(key, names)
                out.update(accumulator.finalize(states))
                if out:
                    yield out
            return
        if self._groups:
            self._flush()  # push the live remainder so partitions are complete
        for segment in self._partitions:
            segment.finish()
        for segment in self._partitions:
            merged = {}
            for key, states in segment:
                held = merged.get(key)
                if held is None:
                    merged[key] = states
                else:
                    accumulator.merge_states(held, states)
            if merged:
                self._note(sampled_size(merged))
            for key, states in merged.items():
                out = group_values(key, names)
                out.update(accumulator.finalize(states))
                if out:
                    yield out


class GracePartitioner:
    """Hash-partitioned ``(key, payload)`` writer for the grace hash join.

    Both join sides are routed by ``hash(key) % partitions`` so matching keys
    meet in the same partition; merged output tuples carry the join key, so
    per-partition duplicate elimination is globally correct.
    """

    def __init__(self, manager: SpillManager, label: str,
                 partitions: int = SPILL_PARTITIONS):
        self.partitions = partitions
        self._segments = [
            manager.create_segment("{}-p{:02d}".format(label, index))
            for index in range(partitions)]
        self._manager = manager
        self._records = 0

    def add(self, key, payload) -> None:
        self._segments[hash(key) % self.partitions].append((key, payload))
        self._records += 1

    def finish(self) -> None:
        for segment in self._segments:
            segment.finish()
        self._manager.note_spill()

    def segment(self, index: int) -> SpillSegment:
        return self._segments[index]
