"""Spill-to-disk storage: CRC-framed temp segments and the partition writer.

Segments reuse the WAL's framing discipline (``storage/wal.py``): a magic
header, then ``<length, crc32>``-framed pickled chunks, verified on read —
a torn or corrupted spill file raises ``SpillError`` instead of silently
feeding a query wrong data.  Everything spilled is plain picklable data
(value dicts, join and group keys, aggregate state lists); ``FlexTuple``\\ s
are decomposed into ``(values, hash)`` pairs before writing and rebuilt with
``FlexTuple.from_parts`` on the way back.

The algorithms live in their operators (:mod:`repro.exec.operators`):
spilling is a state the one in-memory algorithm enters when its budget
check trips, not a second algorithm.  The sort writes sorted runs to
segments and k-way merges them; the hash join and the hash aggregate route
``(key, payload)`` records through one :class:`GracePartitioner` and finish
partition by partition.
"""

import os
import pickle
import shutil
import tempfile
import zlib
from typing import Iterable, Iterator, List, Optional

from repro.errors import SpillError
from repro.exec.context import CHUNK_RECORDS
from repro.model.batches import MISSING
from repro.storage.wal import FRAME_HEADER, MAX_FRAME_BYTES

__all__ = [
    "GracePartitioner",
    "SpillManager",
    "SpillSegment",
]

#: magic header of every spill segment (framing sibling of the WAL's RPRWAL01)
SPILL_MAGIC = b"RPRSPL01"

#: fan-out of the partitioned paths (aggregate and grace join)
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


def _route_hash(key) -> int:
    """A hash of ``key`` that agrees with ``==`` and, for the values below,
    follows no hash seed and no address.

    Numbers hash by ``hash`` (an int, a float and a bool that are equal hash
    alike, and no seed moves them), a NaN, whose ``hash`` is its address
    since CPython 3.10, by a constant, a ``str`` by the CRC-32 of its UTF-8
    bytes, ``None`` and ``MISSING`` (a group key's absent attribute) by a
    constant (their ``hash`` is an address; ``None``'s before CPython 3.12)
    and a tuple by combining its items'.  Any other value falls back to
    ``hash``, which may follow the seed (``bytes``, a ``frozenset``) or an
    address.
    """
    if key is None or key is MISSING:
        return 0
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, tuple):
        combined = len(key)
        for item in key:
            combined = (combined * 1000003 ^ _route_hash(item)) & 0xFFFFFFFFFFFFFFFF
        return combined
    if key != key:
        return 1
    return hash(key)


class GracePartitioner:
    """Hash-partitioned ``(key, payload)`` writer: the grace hash join's
    build and probe sides, the hash aggregate's ``(group key, states)``.

    Records are routed by ``_route_hash(key) % partitions``, so equal keys
    meet in one partition: a join's matching rows, an aggregate's partial
    states of one group.  Merged join rows carry their join key, so
    per-partition duplicate elimination is globally correct.  The route
    follows no hash seed, so what a spill of such values writes repeats
    from process to process.
    """

    def __init__(self, manager: SpillManager, label: str,
                 partitions: int = SPILL_PARTITIONS):
        self.partitions = partitions
        self._segments = [
            manager.create_segment("{}-p{:02d}".format(label, index))
            for index in range(partitions)]

    def extend(self, records: Iterable[tuple]) -> None:
        segments, partitions = self._segments, self.partitions
        for record in records:
            segments[_route_hash(record[0]) % partitions].append(record)

    def finish(self) -> None:
        for segment in self._segments:
            segment.finish()

    def segment(self, index: int) -> SpillSegment:
        return self._segments[index]
