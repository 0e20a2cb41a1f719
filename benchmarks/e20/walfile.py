"""A counting file wrapper for the write-ahead log, and the crash copy built on it.

``Database(wal_file_factory=WalCounters().factory)`` routes every WAL epoch
file through a :class:`CountingFile`, which counts what reaches the device
layer (write calls, bytes, fsyncs) and remembers, per path, how many bytes the
last successful fsync covered.  Killing a process leaves the operating system's
cache intact, so a durability test has to discard the unflushed bytes itself:
:func:`crash_copy` copies a data directory with every log cut back to that
fsynced length.
"""

import os
import shutil


class WalCounters:
    """Totals over every log file one database opened, in any epoch."""

    def __init__(self):
        self.write_calls = 0
        self.bytes_written = 0
        self.fsyncs = 0
        #: absolute path -> byte length covered by the last successful fsync
        self.synced_length = {}

    def factory(self, path, mode):
        return CountingFile(open(path, mode), os.path.abspath(path), self)

    def snapshot(self):
        return (self.write_calls, self.bytes_written, self.fsyncs)

    def per_commit(self, since, commits, user_bytes):
        """The device-level per-layer counts since a :meth:`snapshot`."""
        write_calls, bytes_written, fsyncs = (
            now - then for now, then in zip(self.snapshot(), since))
        return {
            "storage.fsyncs_per_commit": fsyncs / commits if commits else 0,
            "storage.write_calls_per_commit": write_calls / commits if commits else 0,
            "storage.wal_bytes_per_user_byte":
                bytes_written / user_bytes if user_bytes else 0,
        }


class CountingFile:
    """The file interface ``WriteAheadLog`` uses, counted on the way through."""

    def __init__(self, inner, path, counters):
        self._inner = inner
        self._path = path
        self._counters = counters
        # A file found on open was written by an earlier, cleanly closed or
        # recovered log; recovery already cut it back to its intact prefix.
        counters.synced_length.setdefault(path, inner.tell())

    def write(self, data):
        counters = self._counters
        counters.write_calls += 1
        counters.bytes_written += len(data)
        return self._inner.write(data)

    def fsync(self):
        inner = self._inner
        inner.flush()
        os.fsync(inner.fileno())
        counters = self._counters
        counters.fsyncs += 1
        counters.synced_length[self._path] = inner.tell()

    def flush(self):
        self._inner.flush()

    def fileno(self):
        return self._inner.fileno()

    def truncate(self, size=None):
        result = self._inner.truncate(size)
        known = self._counters.synced_length
        if size is not None and known.get(self._path, 0) > size:
            known[self._path] = size
        return result

    def seek(self, offset, whence=os.SEEK_SET):
        return self._inner.seek(offset, whence)

    def tell(self):
        return self._inner.tell()

    def close(self):
        self._inner.close()

    @property
    def closed(self):
        return self._inner.closed


def crash_copy(directory, target, counters):
    """Copy ``directory`` to ``target`` as a power cut would have left it:
    every write-ahead log keeps only the prefix its last fsync covered.
    Snapshots are written with their own fsync + rename and are kept whole."""
    shutil.copytree(directory, target)
    for filename in os.listdir(target):
        if not filename.startswith("wal."):
            continue
        source = os.path.abspath(os.path.join(directory, filename))
        durable = counters.synced_length.get(source, 0)
        with open(os.path.join(target, filename), "r+b") as handle:
            handle.truncate(durable)
    return target
