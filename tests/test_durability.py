"""Tests for the durability subsystem: WAL, recovery, checkpoints, faults.

The crash harness tests (``TestCrashHarness``) are the property-style core:
they kill a recorded workload at every WAL byte offset and assert that
recovery always lands exactly on a transaction boundary with every invariant
intact.  CI runs them on every push.
"""

import gc
import json
import math
import os
import re
import stat
import struct
import tempfile
import weakref
import zlib
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Database, dump_database
from repro.engine.database import REMOVE
from repro.engine.serialization import ROWS_PER_PIECE, database_to_dict
from repro.core.dependencies import FunctionalDependency
from repro.engine.constraints import ConstraintChecker
from repro.errors import CatalogError, KeyViolation, ReproError
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.storage import (
    CrashConsistencyError,
    FaultPlan,
    RecoveryError,
    WALError,
    WriteAheadLog,
    canonical_state,
    crash_at_every_offset,
    faulty_file_factory,
    read_frames,
    record_workload,
    replay_records,
    verify_database,
    wal_filename,
)
from repro.storage.checkpoint import (
    SNAPSHOT_FILENAME,
    checkpoint_payload,
    write_checkpoint,
)
from repro.storage.durable import DurabilityManager
from repro.storage.wal import MAGIC, frame_record
from repro.workloads.employees import employee_definition, generate_employees


def _employee(emp_id, jobtype="secretary"):
    base = {"emp_id": emp_id, "name": "e{}".format(emp_id), "salary": 3000.0,
            "jobtype": jobtype}
    if jobtype == "secretary":
        base.update(typing_speed=70, foreign_languages="english")
    elif jobtype == "salesman":
        base.update(products="dbms", sales_commission=0.1)
    return base


def _create_employees(database):
    definition = employee_definition()
    return database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies)


def _simple_scheme():
    return FlexibleScheme(1, 2, ["k", "v"])


# -- WAL framing ----------------------------------------------------------------------

#: attribute values a logged tuple may hold: NULL, NaN, ±inf, non-ASCII text
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), "naïve", "日本語", "\u2028"]),
    st.text(max_size=8))
#: a tuple's values; a NULL attribute sits next to absent ones
_ROWS = st.dictionaries(st.sampled_from(["k", "v", "w", "ä", "x_1"]), _VALUES, min_size=1)
#: a record as the log writes it: nested objects and lists (DDL) included
_RECORDS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(_VALUES, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=12),
    max_size=5)


class TestFraming:
    def test_round_trip(self):
        records = [{"op": "insert", "table": "t", "values": {"k": i}, "txn": None}
                   for i in range(5)]
        image = MAGIC + b"".join(frame_record(r) for r in records)
        decoded, valid, torn = read_frames(image)
        assert decoded == records
        assert valid == len(image)
        assert torn is None

    def test_empty_image(self):
        assert read_frames(b"") == ([], 0, None)

    def test_magic_only(self):
        assert read_frames(MAGIC) == ([], len(MAGIC), None)

    def test_damaged_magic(self):
        records, valid, torn = read_frames(b"NOTALOG!" + frame_record({"op": "begin"}))
        assert records == [] and valid == 0
        assert "header" in torn[1]

    def test_short_frame_header(self):
        image = MAGIC + frame_record({"op": "begin", "txn": 1})
        records, valid, torn = read_frames(image + b"\x05")
        assert len(records) == 1
        assert valid == len(image)
        assert torn == (len(image), "short frame header")

    def test_short_payload(self):
        whole = frame_record({"op": "commit", "txn": 1})
        image = MAGIC + whole[:-3]
        records, valid, torn = read_frames(image)
        assert records == [] and valid == len(MAGIC)
        assert "short frame payload" in torn[1]

    def test_crc_mismatch(self):
        image = bytearray(MAGIC + frame_record({"op": "begin", "txn": 1}))
        image[-2] ^= 0xFF
        records, valid, torn = read_frames(bytes(image))
        assert records == [] and valid == len(MAGIC)
        assert "CRC" in torn[1]

    def test_implausible_length(self):
        image = MAGIC + struct.pack("<II", 1 << 30, 0)
        _records, valid, torn = read_frames(image)
        assert valid == len(MAGIC)
        assert "implausible" in torn[1]

    def test_non_object_payload_is_torn(self):
        payload = b"[1,2,3]"
        import zlib
        image = MAGIC + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        records, _valid, torn = read_frames(image)
        assert records == []
        assert "record object" in torn[1]

    @given(record=_RECORDS)
    def test_a_frame_is_the_key_sorted_compact_json_of_its_record(self, record):
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        assert frame_record(record) == struct.pack(
            "<II", len(payload), zlib.crc32(payload)) + payload

    @given(old=_ROWS, new=_ROWS)
    def test_a_logged_mutation_frames_its_images_as_dicts(self, old, new):
        """The log encodes a tuple's stored values as they are, no copy: the
        bytes are those of the record with ``as_dict()`` images."""
        old, new = FlexTuple(old), FlexTuple(new)
        expected = [{"op": "insert", "table": "t", "txn": None, "values": new.as_dict()},
                    {"op": "update", "table": "t", "txn": None,
                     "old": old.as_dict(), "new": new.as_dict()},
                    {"op": "delete", "table": "t", "txn": None, "values": old.as_dict()}]
        with tempfile.TemporaryDirectory() as path:
            database = Database(durable_path=path, wal_fsync=False)
            database.durability.log_mutation("t", "insert", None, new)
            database.durability.log_mutation("t", "update", old, new)
            database.durability.log_mutation("t", "delete", old, None)
            database.close()
            with open(os.path.join(path, wal_filename(0)), "rb") as handle:
                image = handle.read()
        assert image == MAGIC + b"".join(frame_record(r) for r in expected)

    def test_everything_before_the_tear_is_kept(self):
        good = [{"op": "insert", "table": "t", "values": {"k": i}, "txn": None}
                for i in range(3)]
        image = MAGIC + b"".join(frame_record(r) for r in good)
        records, valid, torn = read_frames(image + frame_record({"op": "x"})[:7])
        assert records == good
        assert valid == len(image)
        assert torn is not None


class TestWriteAheadLog:
    def test_creates_file_with_magic(self, tmp_path):
        path = str(tmp_path / "wal")
        log = WriteAheadLog(path)
        log.close()
        with open(path, "rb") as handle:
            assert handle.read() == MAGIC

    def test_append_and_reread(self, tmp_path):
        path = str(tmp_path / "wal")
        log = WriteAheadLog(path)
        log.append({"op": "begin", "txn": 1})
        log.commit({"op": "commit", "txn": 1})
        log.close()
        with open(path, "rb") as handle:
            records, _valid, torn = read_frames(handle.read())
        assert [r["op"] for r in records] == ["begin", "commit"]
        assert torn is None

    def test_group_commit_defers_fsync(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal"), group_commit_window=60.0,
                            group_commit_max=4)
        synced = [log.commit({"op": "commit", "txn": i}) for i in range(1, 5)]
        # the fourth commit fills the batch and forces the single fsync
        assert synced == [False, False, False, True]
        assert log.fsyncs == 1 and log.commits == 4
        log.close()

    def test_flush_drains_pending_batch(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal"), group_commit_window=60.0,
                            group_commit_max=100)
        assert log.commit({"op": "commit", "txn": 1}) is False
        log.flush()
        assert log.pending_commits == 0 and log.fsyncs == 1
        log.close()

    def test_broken_log_refuses_appends(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal"),
                            file_factory=faulty_file_factory(
                                FaultPlan(always_fail_fsync=True)))
        with pytest.raises(IOError):
            log.commit({"op": "commit", "txn": 1})
        assert log.broken
        with pytest.raises(WALError):
            log.append({"op": "begin", "txn": 2})


# -- durable databases ------------------------------------------------------------------


class TestDurableDatabase:
    def test_round_trip_dml_and_ddl(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert("employees", _employee(1))
        database.insert("employees", _employee(2))
        database.table("employees").update(_employee(1), salary=4000.0)
        database.table("employees").delete(_employee(2))
        database.close()

        recovered = Database(durable_path=path)
        assert canonical_state(recovered) == {
            "employees": canonical_state(database)["employees"]}
        assert verify_database(recovered) == []
        recovered.close()

    def test_committed_transaction_survives(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        with database.transaction():
            database.insert("employees", _employee(1))
            database.insert("employees", _employee(2))
        database.close()
        recovered = Database(durable_path=path)
        assert len(recovered.table("employees")) == 2
        assert recovered.durability.recovery_report.transactions_applied == 1
        recovered.close()

    def test_aborted_transaction_leaves_no_trace(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert("employees", _employee(1))
        with pytest.raises(KeyViolation):
            with database.transaction():
                database.insert("employees", _employee(2))
                database.insert("employees", {**_employee(3), "emp_id": 1})
        assert len(database.table("employees")) == 1
        database.close()
        recovered = Database(durable_path=path)
        assert len(recovered.table("employees")) == 1
        # ... and the log really has no trace of it: the create and the
        # autocommitted insert are all recovery reads, nothing to discard
        report = recovered.durability.recovery_report
        assert report.records_read == 2
        assert report.transactions_discarded == 0
        recovered.close()

    def test_read_only_transaction_writes_nothing(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        size = database.durability.wal.size
        with database.transaction():
            assert len(database.table("employees")) == 0
        assert database.durability.wal.size == size  # lazy BEGIN: no records
        database.close()

    def test_drop_table_replays(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.create_table("scratch", _simple_scheme())
        database.insert("scratch", {"k": 1})
        database.drop_table("scratch")
        database.close()
        recovered = Database(durable_path=path)
        assert recovered.tables() == ["employees"]
        recovered.close()

    def test_analyze_replays_statistics(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert_many("employees", [_employee(i) for i in range(10)])
        database.analyze("employees")
        database.close()
        recovered = Database(durable_path=path)
        statistics = recovered.stats("employees")
        assert statistics is not None and statistics.row_count == 10
        recovered.close()

    def test_metrics_expose_durability_section(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"))
        section = database.metrics()["durability"]
        assert section["wal_epoch"] == 0
        assert section["last_recovery"]["records_read"] == 0
        database.close()

    def test_recovery_says_where_its_time_went(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert_many("employees", [_employee(i) for i in range(8)])
        database.checkpoint()
        with database.transaction():
            database.insert_many("employees", [_employee(i) for i in range(8, 11)])
        database.close()
        # the phases are on every report ...
        recovered = Database(durable_path=path)
        phases = recovered.metrics()["durability"]["last_recovery"]["phase_seconds"]
        assert list(phases) == ["load_snapshot", "read_wal", "replay", "verify"]
        assert all(seconds > 0 for seconds in phases.values())
        recovered.close()
        # ... and are child spans of ``recovery`` for a tracer that listens by
        # then (``Database(...)`` recovers before anyone can attach a sink)
        traced = Database()
        sink = traced.tracer.attach()
        traced.durability = DurabilityManager(traced, path)
        traced.durability.open()
        traced.close()
        (recovery,) = sink.named("recovery")
        children = [span for span in sink.spans() if span["parent"] == recovery["id"]]
        assert [(span["name"], span["attributes"]) for span in children] == [
            ("recovery.load-snapshot", {"rows": 8}),
            ("recovery.read-wal", {"records": 5, "bytes": recovered.durability.wal.size}),
            ("recovery.replay", {"records": 5, "operations": 3}),
            ("recovery.verify", {"rows": 11, "problems": 0}),
        ]

    def test_checkpoint_requires_durable_database(self):
        with pytest.raises(Exception):
            Database().checkpoint()

    def test_checkpoint_switches_epoch_and_bounds_replay(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert_many("employees", [_employee(i) for i in range(5)])
        database.checkpoint()
        assert database.durability.epoch == 1
        database.insert("employees", _employee(100))
        database.close()
        assert os.path.exists(os.path.join(path, wal_filename(1)))
        assert not os.path.exists(os.path.join(path, wal_filename(0)))
        recovered = Database(durable_path=path)
        report = recovered.durability.recovery_report
        assert report.checkpoint_loaded and report.wal_epoch == 1
        # only the post-checkpoint insert is replayed from the log
        assert report.operations_applied == 1
        assert len(recovered.table("employees")) == 6
        recovered.close()

    def test_auto_checkpoint_fires_on_threshold(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"),
                            checkpoint_every_bytes=512)
        database.create_table("t", _simple_scheme(), key=["k"])
        for i in range(50):
            database.insert("t", {"k": i, "v": i})
        assert database.durability.epoch > 0
        database.close()

    def test_no_auto_checkpoint_inside_transaction(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"),
                            checkpoint_every_bytes=64)
        database.create_table("t", _simple_scheme(), key=["k"])
        epoch_before = database.durability.epoch
        with database.transaction():
            for i in range(50):
                database.insert("t", {"k": i, "v": i})
            assert database.durability.epoch == epoch_before
        # the deferred checkpoint fires at commit
        assert database.durability.epoch > epoch_before
        database.close()

    def test_group_commit_amortizes_fsyncs(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"),
                            group_commit_window=60.0, group_commit_max=10)
        database.create_table("t", _simple_scheme(), key=["k"])
        for i in range(20):
            database.insert("t", {"k": i})
        wal = database.durability.wal
        assert wal.commits == 20
        assert wal.fsyncs < wal.commits / 2  # amortization actually happened
        database.close()


# -- recovery edge cases ------------------------------------------------------------------


class TestRecoveryEdgeCases:
    def test_empty_wal_file(self, tmp_path):
        path = str(tmp_path / "db")
        os.makedirs(path)
        open(os.path.join(path, wal_filename(0)), "wb").close()
        database = Database(durable_path=path)
        assert database.tables() == []
        database.close()

    def test_only_a_torn_begin(self, tmp_path):
        path = str(tmp_path / "db")
        os.makedirs(path)
        frame = frame_record({"op": "begin", "txn": 1})
        with open(os.path.join(path, wal_filename(0)), "wb") as handle:
            handle.write(MAGIC + frame[: len(frame) // 2])
        database = Database(durable_path=path)
        report = database.durability.recovery_report
        assert report.torn_reason is not None
        assert report.transactions_applied == 0
        # the torn tail was truncated away; the log is clean again
        assert database.durability.wal.size == len(MAGIC)
        database.close()

    def test_ddl_and_dml_in_one_transaction(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.create_table("t", _simple_scheme(), key=["k"])
                database.insert("t", {"k": 1})
                raise RuntimeError("boom")
        # live semantics: DDL survives the rollback, DML does not
        assert database.tables() == ["t"]
        assert len(database.table("t")) == 0
        database.close()
        recovered = Database(durable_path=path)
        assert recovered.tables() == ["t"]
        assert len(recovered.table("t")) == 0
        assert verify_database(recovered) == []
        recovered.close()

    def test_crash_after_snapshot_before_new_epoch_log(self, tmp_path):
        # Crash window two of the checkpoint protocol: the snapshot points at
        # epoch 1, but the crash hit before wal.000001 was created.
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        database.checkpoint()
        database.close()
        os.remove(os.path.join(path, wal_filename(1)))
        recovered = Database(durable_path=path)
        assert len(recovered.table("t")) == 1
        assert recovered.durability.epoch == 1
        recovered.close()

    def test_crash_before_stale_epoch_deleted(self, tmp_path):
        # Crash window three: the new epoch is live but the old epoch's file
        # survived; it must be ignored (and cleaned), never replayed on top.
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        database.checkpoint()
        database.close()
        stale = os.path.join(path, wal_filename(0))
        with open(stale, "wb") as handle:
            handle.write(MAGIC + frame_record(
                {"op": "insert", "table": "t", "values": {"k": 99}, "txn": None}))
        recovered = Database(durable_path=path)
        assert len(recovered.table("t")) == 1  # the stale epoch was not replayed
        assert not os.path.exists(stale)
        recovered.close()

    def test_double_recovery_is_idempotent(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        _create_employees(database)
        database.insert_many("employees", [_employee(i) for i in range(5)])
        with pytest.raises(KeyViolation):
            with database.transaction():
                database.insert("employees", _employee(50))
                database.insert("employees", {**_employee(51), "emp_id": 0})
        database.close()

        first = Database(durable_path=path)
        state = canonical_state(first)
        first.close()
        second = Database(durable_path=path)
        assert canonical_state(second) == state
        assert verify_database(second) == []
        second.close()

    def test_bit_flip_is_caught_by_crc(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        for i in range(5):
            database.insert("t", {"k": i})
        database.close()
        wal_path = os.path.join(path, wal_filename(0))
        with open(wal_path, "rb") as handle:
            image = bytearray(handle.read())
        image[len(image) // 2] ^= 0x10
        with open(wal_path, "wb") as handle:
            handle.write(bytes(image))
        recovered = Database(durable_path=path)
        report = recovered.durability.recovery_report
        assert report.torn_reason == "payload CRC mismatch"
        # the intact prefix was recovered and re-validates
        assert verify_database(recovered) == []
        recovered.close()

    def test_stray_txn_records_are_discarded(self, tmp_path):
        database = Database()
        database.create_table("t", _simple_scheme(), key=["k"])
        report = replay_records(database, [
            {"op": "insert", "table": "t", "values": {"k": 1}, "txn": 42},
        ])
        assert len(database.table("t")) == 0
        assert report.transactions_discarded == 1

    def test_a_transaction_replays_in_log_order_run_by_run(self, tmp_path):
        """Consecutive inserts into one table go through ``insert_many`` as one
        statement; another table or another kind of record ends the run."""
        database = Database()
        statements = []
        for name in ("t", "u"):
            database.create_table(name, _simple_scheme(), key=["k"])
            database.table(name)._on_mutation = (
                lambda kind, rows, _name=name: statements.append((_name, kind, rows)))

        def dml(op, table, **images):
            return dict({"op": op, "table": table, "txn": 1}, **images)

        report = replay_records(database, [
            {"op": "begin", "txn": 1},
            dml("insert", "t", values={"k": 1, "v": 1}),
            dml("insert", "t", values={"k": 2}),
            dml("insert", "t", values={"k": 1, "v": 1}),   # logged twice: absorbed
            dml("insert", "u", values={"k": 1}),
            dml("insert", "t", values={"k": 3}),
            dml("update", "t", old={"k": 3}, new={"k": 3, "v": 3}),
            dml("delete", "t", values={"k": 2}),
            dml("insert", "t", values={"k": 2, "v": 2}),   # the key is free again
            dml("insert", "t", values={"k": 4}),
            {"op": "commit", "txn": 1},
        ])
        assert (report.operations_applied, report.transactions_applied) == (9, 1)
        assert {(t["k"], t.get("v")) for t in database.table("t")} == {
            (1, 1), (2, 2), (3, 3), (4, None)}
        assert len(database.table("u")) == 1
        assert statements == [
            ("t", "insert", 2), ("u", "insert", 1), ("t", "insert", 3),
            ("t", "delete", 2), ("t", "insert", 3),   # the update: delete + insert
            ("t", "delete", 2), ("t", "insert", 4)]
        assert verify_database(database) == []

    def test_consecutive_autocommitted_statements_replay_as_runs(self):
        """Consecutive autocommitted records form runs as a transaction's do:
        consecutive inserts into one table are one ``insert_many``, and any
        other record (here an ANALYZE marker) ends the run."""
        database = Database()
        statements = []
        for name in ("t", "u"):
            database.create_table(name, _simple_scheme(), key=["k"])
            database.table(name)._on_mutation = (
                lambda kind, rows, _name=name: statements.append((_name, kind, rows)))

        def dml(op, table, **images):
            return dict({"op": op, "table": table, "txn": None}, **images)

        report = replay_records(database, [
            dml("insert", "t", values={"k": 1}),
            dml("insert", "t", values={"k": 2}),
            dml("insert", "u", values={"k": 1}),
            dml("update", "t", old={"k": 2}, new={"k": 2, "v": 2}),
            dml("insert", "t", values={"k": 3}),
            dml("insert", "t", values={"k": 4}),
            {"op": "analyze", "table": "u", "sample_size": None},
            dml("insert", "u", values={"k": 2}),
        ])
        assert (report.operations_applied, report.transactions_applied) == (7, 7)
        assert statements == [
            ("t", "insert", 2), ("u", "insert", 1),
            ("t", "delete", 1), ("t", "insert", 2),   # the update: delete + insert
            ("t", "insert", 4), ("u", "insert", 2)]

    def test_unknown_record_op_is_an_error(self, tmp_path):
        database = Database()
        with pytest.raises(RecoveryError):
            replay_records(database, [{"op": "mystery"}])

    def test_corrupt_snapshot_raises_with_path(self, tmp_path):
        from repro.engine.serialization import SerializationError

        path = str(tmp_path / "db")
        os.makedirs(path)
        with open(os.path.join(path, SNAPSHOT_FILENAME), "w") as handle:
            json.dump({"checkpoint_format": 99}, handle)
        with pytest.raises(SerializationError, match="checkpoint_format"):
            Database(durable_path=path)


# -- admission: each recovered row is checked once --------------------------------------


def _honest_directory(path):
    """A checkpointed database of two tables — employees, and rooms with the
    FD ``dept → floor`` and an index on ``dept`` — and one logged tail row."""
    database = Database(durable_path=path, wal_fsync=False)
    _create_employees(database).insert_many(_employee(i) for i in range(1, 6))
    rooms = database.create_table(
        "rooms", FlexibleScheme(3, 3, ["room", "dept", "floor"]), key=["room"],
        dependencies=[FunctionalDependency(["dept"], ["floor"])], indexes=[["dept"]])
    rooms.insert_many({"room": i, "dept": "d{}".format(i % 2), "floor": i % 2}
                      for i in range(1, 5))
    database.checkpoint()
    database.insert("employees", _employee(6, "salesman"))
    database.close()


def _edit_snapshot(path, table, rows):
    snapshot = os.path.join(path, SNAPSHOT_FILENAME)
    with open(snapshot) as handle:
        payload = json.load(handle)
    for entry in payload["database"]["tables"]:
        if entry["name"] == table:
            entry["tuples"].extend(rows)
    with open(snapshot, "w") as handle:
        json.dump(payload, handle)


def _log_tail(path, op, table, **images):
    """Append one autocommitted DML record to the log tail."""
    with open(os.path.join(path, wal_filename(1)), "ab") as handle:
        handle.write(frame_record(dict({"op": op, "table": table, "txn": None}, **images)))


def _directory_image(path):
    image = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            image[name] = handle.read()
    return image


#: a hand edit per constraint kind, and what the refusal says of the row
_HAND_EDITS = {
    "duplicate key": (
        lambda path: _edit_snapshot(path, "employees", [dict(_employee(2), name="twin")]),
        "key value (2,) already present"),
    "domain": (
        lambda path: _edit_snapshot(path, "employees", [dict(_employee(900), salary="lots")]),
        "value 'lots' of attribute 'salary' violates its domain"),
    "explicit AD": (
        lambda path: _edit_snapshot(path, "employees", [dict(_employee(901), jobtype="salesman")]),
        "tuple {!r} violates".format(FlexTuple(dict(_employee(901), jobtype="salesman")))),
    "FD": (
        lambda path: _edit_snapshot(path, "rooms", [{"room": 9, "dept": "d1", "floor": 7}]),
        "tuple {!r} conflicts with stored tuple".format(
            FlexTuple({"room": 9, "dept": "d1", "floor": 7}))),
    "tail key collides with the snapshot": (
        lambda path: _log_tail(path, "insert", "employees",
                               values=dict(_employee(3), name="twin")),
        "key value (3,) already present"),
    "tail update breaks the explicit AD": (
        lambda path: _log_tail(path, "update", "employees", old=_employee(1),
                               new=dict(_employee(1), jobtype="salesman")),
        "tuple {!r} violates".format(FlexTuple(dict(_employee(1), jobtype="salesman")))),
    "tail insert out of its domain": (
        lambda path: _log_tail(path, "insert", "employees",
                               values=dict(_employee(902), salary="plenty")),
        "value 'plenty' of attribute 'salary' violates its domain"),
}


class TestAdmitOnce:
    @pytest.mark.parametrize("edit", sorted(_HAND_EDITS))
    def test_admit_refuses_a_hand_edit_and_leaves_the_directory_alone(self, tmp_path, edit):
        path = str(tmp_path / "db")
        _honest_directory(path)
        Database(durable_path=path).close()  # the honest directory reopens
        corrupt, names_the_row = _HAND_EDITS[edit]
        corrupt(path)
        before = _directory_image(path)
        messages = []
        for _attempt in range(2):
            with pytest.raises(RecoveryError) as caught:
                Database(durable_path=path)
            messages.append(str(caught.value))
            assert _directory_image(path) == before
        assert messages[0] == messages[1]
        assert names_the_row in messages[0]
        assert len(re.findall(r"table '\w+': ", messages[0])) == 1  # that row only

    def test_admit_checks_each_stored_row_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db")
        _honest_directory(path)
        database = Database(durable_path=path, wal_fsync=False)
        employees = database.table("employees")
        employees.update(_employee(2), salary=4000.0)
        employees.delete(_employee(4))
        database.table("rooms").insert({"room": 5, "dept": "d1", "floor": 1})
        database.close()
        # every admission by any checker: a row's own, or its chunk's
        admitted = []
        check_insert, admit_chunk = ConstraintChecker.check_insert, ConstraintChecker.admit_chunk

        def counting_check(checker, tup, ignore=None):
            check_insert(checker, tup, ignore)
            admitted.append(tup)

        def counting_chunk(checker, rows, shapes):
            count, plans = admit_chunk(checker, rows, shapes)
            admitted.extend(rows[:count])
            return count, plans

        monkeypatch.setattr(ConstraintChecker, "check_insert", counting_check)
        monkeypatch.setattr(ConstraintChecker, "admit_chunk", counting_chunk)
        reopened = Database(durable_path=path)
        stored = [tup for name in reopened.tables() for tup in reopened.table(name)]
        admissions = Counter(admitted)
        assert len(stored) == 5 + 5 and [admissions[tup] for tup in stored] == [1] * 10
        # the snapshot's rows are admitted as they load; the tail then removes
        # two of them (the update's old image and the deleted row)
        removed = {FlexTuple(_employee(2)), FlexTuple(_employee(4))}
        assert set(admissions) == set(stored) | removed
        assert sum(admissions.values()) == len(admissions) == 12
        reopened.close()

    @given(history=st.lists(st.tuples(
        st.sampled_from(["insert", "update", "delete", "checkpoint"]),
        st.integers(0, 7), st.integers(0, 3), st.integers(0, 2)), max_size=30))
    def test_admit_after_any_history_indexes_as_insert_many_does(self, history):
        with tempfile.TemporaryDirectory() as path:
            database = Database(durable_path=path, wal_fsync=False)
            database.create_table(
                "t", FlexibleScheme(2, 3, ["k", "v", "w"]), key=["k"],
                dependencies=[FunctionalDependency(["v"], ["w"])], indexes=[["v"]])
            table = database.table("t")
            for op, k, v, w in history:
                row = {"k": k, "v": v, "w": w} if w else {"k": k, "v": v}
                stored = [tup for tup in table if tup["k"] == k]
                try:
                    if op == "checkpoint":
                        database.checkpoint()
                    elif op == "insert":
                        table.insert(row)
                    elif stored and op == "update":
                        table.update(stored[0], v=v, w=w if w else REMOVE)
                    elif stored:
                        table.delete(stored[0])
                except KeyViolation:
                    pass
                except ReproError:  # the FD refused the row
                    pass
            rows = set(table)
            database.close()
            reopened = Database(durable_path=path)
            assert verify_database(reopened) == []
            recovered = reopened.table("t")
            assert set(recovered) == rows
            loaded = Database()
            loaded.create_table(
                "t", FlexibleScheme(2, 3, ["k", "v", "w"]), key=["k"],
                dependencies=[FunctionalDependency(["v"], ["w"])],
                indexes=[["v"]]).insert_many(recovered)
            for index in recovered.checker.indexes():
                assert index.same_buckets(
                    loaded.table("t").checker.index_on(index.attributes))
            reopened.close()


# -- fault injection ----------------------------------------------------------------------


class TestFaultInjection:
    def test_write_failure_breaks_log_and_memory_refuses(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        database.close()
        # reopen with a file that fails every write
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(FaultPlan(always_fail_writes=True)))
        with pytest.raises(IOError):
            database.insert("t", {"k": 2})
        assert len(database.table("t")) == 1  # memory refused the mutation too
        assert database.durability.wal.broken
        with pytest.raises(WALError):
            database.insert("t", {"k": 3})
        database.close()
        recovered = Database(durable_path=path)
        assert len(recovered.table("t")) == 1
        recovered.close()

    def test_torn_write_recovers_to_prefix(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        database.close()
        wal_size = os.path.getsize(os.path.join(path, wal_filename(0)))
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(
                FaultPlan(fail_after_bytes=20)))  # tear mid-frame
        with pytest.raises(IOError):
            database.insert("t", {"k": 2})
        database.close()
        recovered = Database(durable_path=path)
        assert len(recovered.table("t")) == 1
        assert verify_database(recovered) == []
        # recovery truncated the torn tail back off the file
        assert os.path.getsize(os.path.join(path, wal_filename(0))) == wal_size
        recovered.close()

    def test_fsync_failure_is_contained(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(FaultPlan(fail_fsync_at=3)))
        database.create_table("t", _simple_scheme(), key=["k"])  # fsync 1
        database.insert("t", {"k": 1})                           # fsync 2
        with pytest.raises(IOError):
            database.insert("t", {"k": 2})                       # fsync 3: boom
        assert database.durability.wal.broken
        database.close()
        recovered = Database(durable_path=path)
        # the flushed-but-unsynced record may or may not have survived; either
        # way the recovered state re-validates
        assert verify_database(recovered) == []
        assert len(recovered.table("t")) >= 1
        recovered.close()

    def test_failed_commit_fsync_rolls_memory_back(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(FaultPlan(fail_fsync_at=4)))
        table = _create_employees(database)                      # fsync 1
        table.insert(_employee(1))                               # fsync 2
        table.insert(_employee(2))                               # fsync 3
        acknowledged = canonical_state(database)
        with pytest.raises(IOError):
            with database.transaction():
                table.insert(_employee(3))
                table.update(_employee(1), salary=1.0)
                attempted = canonical_state(database)
            # the commit's fsync (4) failed: nothing of it was acknowledged
        assert canonical_state(database) == acknowledged         # reads serve none of it
        assert verify_database(database) == []
        assert database.durability.wal.broken and not database.durability.in_transaction
        with pytest.raises(WALError):
            table.insert(_employee(4))
        database.close()
        # on disk the commit is in doubt — written, maybe not synced — exactly
        # like an autocommitted statement whose fsync failed
        recovered = Database(durable_path=path)
        assert verify_database(recovered) == []
        assert canonical_state(recovered) in (acknowledged, attempted)
        recovered.close()

    def test_torn_commit_write_rolls_memory_back(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        table = _create_employees(database)
        table.insert(_employee(1))
        acknowledged = canonical_state(database)
        database.close()
        wal_size = os.path.getsize(os.path.join(path, wal_filename(0)))
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(
                FaultPlan(fail_after_bytes=150)))  # inside the second frame of three
        table = database.table("employees")
        with pytest.raises(IOError):
            with database.transaction():
                table.insert(_employee(2))
                table.delete(_employee(1))
        assert canonical_state(database) == acknowledged
        assert verify_database(database) == []
        assert database.durability.wal.broken
        database.close()
        # the coalesced write is all or nothing: the log is back at its length
        assert os.path.getsize(os.path.join(path, wal_filename(0))) == wal_size
        recovered = Database(durable_path=path)
        assert canonical_state(recovered) == acknowledged
        assert verify_database(recovered) == []
        recovered.close()

    def test_injected_bit_flip_detected_at_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(FaultPlan(bit_flips={40: 0x20})))
        database.create_table("t", _simple_scheme(), key=["k"])
        for i in range(5):
            database.insert("t", {"k": i})
        database.close()
        recovered = Database(durable_path=path)
        assert recovered.durability.recovery_report.torn_reason is not None
        assert verify_database(recovered) == []
        recovered.close()


# -- lifecycle ----------------------------------------------------------------------------


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"))
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        assert not database.closed
        database.close()
        assert database.closed
        database.close()  # second close is a no-op, not an error
        assert database.closed

    def test_close_without_durability_is_safe(self):
        database = Database()
        database.close()
        database.close()
        assert database.closed

    def test_closed_wal_refuses_appends(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "db"))
        database.create_table("t", _simple_scheme(), key=["k"])
        database.close()
        with pytest.raises(WALError, match="closed"):
            database.durability.wal.append({"op": "insert"})

    def test_close_with_open_transaction_aborts_it(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        transaction = database.transaction()
        transaction.__enter__()
        database.insert("t", {"k": 2})
        assert database.durability.in_transaction
        database.close()
        assert not database.durability.in_transaction
        recovered = Database(durable_path=path)
        # the uncommitted insert was aborted by close, not replayed
        assert sorted(t["k"] for t in recovered.table("t").tuples) == [1]
        assert verify_database(recovered) == []
        recovered.close()

    def test_wal_error_carries_last_good_offset(self, tmp_path):
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        database.close()
        intact = os.path.getsize(os.path.join(path, wal_filename(0)))
        database = Database(
            durable_path=path,
            wal_file_factory=faulty_file_factory(
                FaultPlan(fail_after_bytes=12)))
        with pytest.raises(IOError):
            database.insert("t", {"k": 2})
        with pytest.raises(WALError) as info:
            database.insert("t", {"k": 3})
        assert info.value.last_good_offset is not None
        assert info.value.last_good_offset <= intact
        assert str(info.value.last_good_offset) in str(info.value)
        database.close()
        # the surfaced offset is honest: reopening the same path recovers the
        # intact prefix and the database serves writes again
        recovered = Database(durable_path=path)
        assert sorted(t["k"] for t in recovered.table("t").tuples) == [1]
        recovered.insert("t", {"k": 9})
        assert len(recovered.table("t")) == 2
        recovered.close()


# -- the crash harness --------------------------------------------------------------------


def _harness_units():
    def ddl(database):
        _create_employees(database)

    def autocommit_insert(database):
        database.insert("employees", _employee(1))

    def committed_txn(database):
        with database.transaction():
            database.insert("employees", _employee(2))
            database.insert("employees", _employee(3, jobtype="salesman"))

    def aborted_txn(database):
        try:
            with database.transaction():
                database.insert("employees", _employee(4))
                raise RuntimeError("rolled back")
        except RuntimeError:
            pass

    def update(database):
        database.table("employees").update(_employee(1), salary=9000.0)

    def delete(database):
        database.table("employees").delete(_employee(2))

    def second_table(database):
        database.create_table("audit", _simple_scheme(), key=["k"])
        # still one durable unit: DDL is autonomous, the insert autocommits

    def audit_insert(database):
        database.insert("audit", {"k": 1, "v": 2})

    return [ddl, autocommit_insert, committed_txn, aborted_txn, update,
            delete, second_table, audit_insert]


def _transaction_units(marks):
    """Multi-row transactions: each commit is one coalesced write, one spills
    first, one has DDL inside (``marks`` collects the log size right after it)."""
    def ddl(database):
        database.create_table("t", _simple_scheme(), key=["k"])

    def small_txn(database):
        with database.transaction():
            database.insert("t", {"k": 1, "v": 1})
            database.table("t").update({"k": 1, "v": 1}, v=REMOVE)

    def spilling_txn(database):
        with database.transaction():
            for k in range(10, 15):
                database.insert("t", {"k": k, "v": k})
            database.table("t").delete({"k": 1})

    def spilled_then_aborted(database):
        try:
            with database.transaction():
                for k in range(30, 34):
                    database.insert("t", {"k": k, "v": k})
                raise RuntimeError("rolled back")
        except RuntimeError:
            pass

    def ddl_inside_txn(database):
        with database.transaction():
            database.insert("t", {"k": 50})                               # buffered
            database.create_table("audit", _simple_scheme(), key=["k"])   # written now
            marks.append(database.durability.wal.size)
            database.insert("audit", {"k": 1, "v": 2})
            database.table("t").delete({"k": 10, "v": 10})

    def autocommit(database):
        database.insert("audit", {"k": 2})

    return [ddl, small_txn, spilling_txn, spilled_then_aborted, ddl_inside_txn,
            autocommit]


class TestCrashHarness:
    def test_crash_at_every_offset_of_coalesced_commits(self, tmp_path, monkeypatch):
        # A small cap makes the fourth row spill, so the byte-exact sweep
        # crosses spilled frames, the single commit write and DDL ahead of its
        # transaction's DML.
        monkeypatch.setattr("repro.storage.durable.TXN_BUFFER_BYTES", 256)
        marks = []
        units = _transaction_units(marks)
        recording = record_workload(str(tmp_path / "record"), units)
        ops = [record["op"] for record in read_frames(recording.wal_bytes)[0]]
        assert ops == (
            ["create_table", "begin", "insert", "update", "commit"]
            + ["begin"] + ["insert"] * 5 + ["delete", "commit"]
            + ["begin"] + ["insert"] * 4 + ["abort"]      # only a spill leaves debris
            + ["create_table", "begin", "insert", "insert", "delete", "commit"]
            + ["insert"])
        # DDL inside a transaction is autonomous: from its frame on the table
        # exists (empty), whatever becomes of the DML around it.
        at = 1 + [unit.__name__ for unit in units].index("ddl_inside_txn")
        before = recording.boundaries[at - 1][1]
        recording.boundaries.insert(at, (marks[0], dict(before, audit=())))
        summary = crash_at_every_offset(recording, str(tmp_path / "scratch"))
        assert summary["offsets_tested"] == len(recording.wal_bytes) + 1
        assert summary["transactions_discarded"] > 0

    def test_crash_at_every_offset(self, tmp_path):
        recording = record_workload(str(tmp_path / "record"), _harness_units())
        summary = crash_at_every_offset(recording, str(tmp_path / "scratch"))
        assert summary["offsets_tested"] == len(recording.wal_bytes) + 1
        assert summary["torn_tails_seen"] > 0
        assert summary["transactions_discarded"] > 0

    def test_harness_catches_a_broken_protocol(self, tmp_path):
        # Sanity check that the harness has teeth: corrupt one boundary's
        # expected state and the sweep must fail.
        recording = record_workload(str(tmp_path / "record"), _harness_units()[:3])
        offset, state = recording.boundaries[-1]
        recording.boundaries[-1] = (offset, dict(state, employees=()))
        with pytest.raises(CrashConsistencyError):
            crash_at_every_offset(recording, str(tmp_path / "scratch"),
                                  stride=max(1, len(recording.wal_bytes) // 8))

    def test_expected_state_at_picks_last_boundary(self, tmp_path):
        recording = record_workload(str(tmp_path / "record"), _harness_units()[:2])
        offsets = [offset for offset, _state in recording.boundaries]
        assert recording.expected_state_at(0)[0] == offsets[0]
        assert recording.expected_state_at(offsets[-1] + 100)[0] == offsets[-1]
        mid = (offsets[-2] + offsets[-1]) // 2
        assert recording.expected_state_at(mid)[0] == offsets[-2]


# -- the streamed checkpoint ---------------------------------------------------------------


def _no_nan(document):
    """``document`` with every NaN replaced by a marker, so ``==`` can compare it."""
    if isinstance(document, dict):
        return {key: _no_nan(value) for key, value in document.items()}
    if isinstance(document, list):
        return [_no_nan(value) for value in document]
    if isinstance(document, float) and math.isnan(document):
        return "<NaN>"
    return document


def _fill_nothing(database):
    pass


def _fill_empty_table(database):
    database.create_table("t", _simple_scheme(), key=["k"])


def _fill_tables_with_statistics(database):
    table = _create_employees(database)
    with database.transaction():
        table.insert_many(generate_employees(40, seed=5))
    for name in ("pairs", "singles"):
        database.create_table(name, _simple_scheme(), key=["k"])
        with database.transaction():
            database.insert_many(name, [{"k": i, "v": i % 7} for i in range(25)])
    database.analyze()


def _fill_values(*values):
    def fill(database):
        database.create_table("t", _simple_scheme(), key=["k"])
        with database.transaction():
            database.insert_many("t", [{"k": i, "v": v} for i, v in enumerate(values)])
        database.analyze()
    return fill


def _fill_beyond_one_chunk(database):
    database.create_table("t", _simple_scheme(), key=["k"])
    with database.transaction():
        database.insert_many("t", [{"k": i, "v": "row {}".format(i)}
                                   for i in range(2 * ROWS_PER_PIECE + 1)])


SNAPSHOT_CASES = {
    "no tables": _fill_nothing,
    "an empty table": _fill_empty_table,
    "several tables with statistics": _fill_tables_with_statistics,
    "nan and infinities": _fill_values(float("nan"), float("inf"), float("-inf"), 1.5),
    "null mixed with numbers": _fill_values(None, 3, 2.5, None, -1, True),
    "non-ascii strings": _fill_values("Grüße", "日本語", "naïve ☃", ""),
    "a table beyond one chunk": _fill_beyond_one_chunk,
}


class TestStreamedCheckpoint:
    """The snapshot is :func:`checkpoint_payload`'s document, written compact
    and key-sorted a piece at a time; the load path reads it unchanged."""

    @pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
    @pytest.mark.parametrize("rows_per_piece", [2, ROWS_PER_PIECE])
    def test_checkpoint_snapshot_is_the_payload(self, tmp_path, monkeypatch,
                                                case, rows_per_piece):
        monkeypatch.setattr("repro.engine.serialization.ROWS_PER_PIECE",
                            rows_per_piece)
        path = str(tmp_path / "db")
        database = Database(durable_path=path)
        SNAPSHOT_CASES[case](database)
        database.checkpoint()
        payload = checkpoint_payload(database, database.durability.epoch)
        with open(os.path.join(path, SNAPSHOT_FILENAME)) as handle:
            text = handle.read()
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert _no_nan(json.loads(text)) == _no_nan(payload)
        before = _no_nan(database_to_dict(database))
        database.close()
        reopened = Database(durable_path=path)
        assert reopened.durability.recovery_report.checkpoint_loaded
        assert _no_nan(database_to_dict(reopened)) == before
        assert verify_database(reopened) == []
        reopened.close()

    def test_unserialisable_value_leaves_the_previous_checkpoint(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr("repro.engine.serialization.ROWS_PER_PIECE", 2)
        path = tmp_path / "snapshot.json"
        database = Database()
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert_many("t", [{"k": i, "v": i} for i in range(6)])
        write_checkpoint(database, str(path), 1)
        previous = path.read_bytes()
        database.insert("t", {"k": 6, "v": complex(1, 2)})  # in the fourth piece
        with pytest.raises(TypeError):
            write_checkpoint(database, str(path), 2)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_checkpoint_fsyncs_the_directory_before_old_epochs_go(self, tmp_path,
                                                                 monkeypatch):
        path = str(tmp_path / "db")
        events = []
        real_fsync, real_replace, real_remove = os.fsync, os.replace, os.remove

        def fsync(descriptor):
            if stat.S_ISDIR(os.fstat(descriptor).st_mode):
                events.append(("fsync-dir", sorted(
                    name for name in os.listdir(path) if name.startswith("wal."))))
            else:
                events.append(("fsync-file",))
            real_fsync(descriptor)

        def replace(source, target):
            events.append(("replace", os.path.basename(target)))
            real_replace(source, target)

        def remove(target):
            events.append(("remove", os.path.basename(target)))
            real_remove(target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "remove", remove)
        database = Database(durable_path=path)
        # the first epoch's file is created at open, then made durable
        assert ("fsync-dir", [wal_filename(0)]) in events
        database.create_table("t", _simple_scheme(), key=["k"])
        database.insert("t", {"k": 1})
        del events[:]
        database.checkpoint()
        database.close()
        replaced = events.index(("replace", SNAPSHOT_FILENAME))
        both = events.index(("fsync-dir", [wal_filename(0), wal_filename(1)]))
        removed = events.index(("remove", wal_filename(0)))
        # the snapshot is fsynced before its rename, the rename before the
        # directory sync, which covers the new epoch's file too; only then
        # does the old epoch go
        assert events[replaced - 1] == ("fsync-file",)
        assert events[replaced + 1][0] == "fsync-dir"
        assert replaced < both < removed

    def test_dump_database_fsyncs_the_directory_after_the_rename(self, tmp_path,
                                                                monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(descriptor):
            events.append("dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode)
                          else "file")
            real_fsync(descriptor)

        def replace(source, target):
            events.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        database = Database()
        _create_employees(database).insert_many(generate_employees(5, seed=2))
        dump_database(database, str(tmp_path / "db.json"))
        assert events == ["file", "replace", "dir"]


# -- reference counting frees a dropped database -------------------------------------------


def _exercise(database):
    """Every component that holds the database: an index, ANALYZE, cached
    plans, a committed and a rolled-back transaction, a dropped table, a
    checkpoint (durable only) and ``close()``; returns the kept table."""
    definition = employee_definition()
    table = database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies,
        indexes=[["jobtype"]])
    table.insert_many(generate_employees(30, seed=8))
    database.analyze()
    for emp_id in (3, 4):
        database.query("SELECT name FROM employees WHERE emp_id = {}".format(emp_id))
    database.query("SELECT name FROM employees WHERE jobtype = 'secretary'")
    with database.transaction():
        table.insert(_employee(1000))
    with pytest.raises(RuntimeError):
        with database.transaction():
            table.insert(_employee(1001))
            raise RuntimeError("roll back")
    database.create_table("dropped", _simple_scheme(), key=["k"]).insert({"k": 1})
    database.drop_table("dropped")
    if database.durability is not None:
        database.checkpoint()
    database.close()
    return table


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
def test_refcount_frees_a_dropped_database(tmp_path, durable):
    """No reference cycle runs through a database or its tables: with the
    cycle collector off, dropping the last reference frees both at once."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        database = Database(durable_path=str(tmp_path / "db") if durable else None)
        table = _exercise(database)
        database_ref, table_ref = weakref.ref(database), weakref.ref(table)
        del database
        assert database_ref() is None
        # the table the caller still holds stands alone: in memory it takes
        # writes, a durable one refuses what it can no longer journal
        rows = len(table)
        if durable:
            with pytest.raises(CatalogError, match="no longer exists"):
                table.insert(_employee(2000))
            assert len(table) == rows
        else:
            table.insert(_employee(2000))
            assert len(table) == rows + 1
        del table
        assert table_ref() is None
    finally:
        if was_enabled:
            gc.enable()
