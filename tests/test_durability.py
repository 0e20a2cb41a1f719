"""Tests for the durability subsystem: WAL, recovery, checkpoints, faults.

The crash harness tests (``TestCrashHarness``) are the property-style core:
they kill a recorded workload at every WAL byte offset and assert that
recovery always lands exactly on a transaction boundary with every invariant
intact.  CI runs them on every push.
"""

import json
import os
import struct

import pytest

from repro.engine import Database
from repro.engine.database import REMOVE
from repro.errors import KeyViolation
from repro.model.scheme import FlexibleScheme
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
from repro.storage.checkpoint import SNAPSHOT_FILENAME
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
