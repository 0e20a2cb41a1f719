"""Tests for table snapshots and database transactions.

Transactions roll back through an undo log; ``Table.snapshot()`` /
``Table.restore()`` are the oracle the rollback is compared against
(``TestRollbackAgainstTheOracle``; ``REPRO_SWEEP_EXAMPLES=<n>`` raises the
example count — the CI sweep).
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Table, TableDefinition
from repro.engine.database import REMOVE
from repro.errors import DependencyViolation, KeyViolation
from repro.model.attributes import AttributeSet
from repro.model.domains import EnumDomain
from repro.model.scheme import UnfoldedScheme
from repro.storage import read_wal, verify_database
from repro.storage.durable import TXN_BUFFER_BYTES
from repro.workloads.employees import employee_definition, generate_employees
from test_shape_plans import (
    _changes,
    _employees,
    _scramble,
    _unfolded,
    engine_refusal,
    served_counts,
)

#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (the CI sweep)
EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "150"))
#: a falsifying sequence lands next to the fuzz harness's shrunk trees
ARTIFACT = os.environ.get("REPRO_FUZZ_ARTIFACT", "fuzz-failure.txt")


@pytest.fixture
def database():
    database = Database()
    definition = employee_definition()
    table = database.create_table("employees", definition.scheme, domains=definition.domains,
                                  key=definition.key, dependencies=definition.dependencies)
    table.insert_many(generate_employees(10, seed=71))
    return database


def _valid_employee(emp_id):
    return {"emp_id": emp_id, "name": "new", "salary": 3000.0, "jobtype": "secretary",
            "typing_speed": 70, "foreign_languages": "english"}


def _invalid_employee(emp_id):
    return {"emp_id": emp_id, "name": "bad", "salary": 3000.0, "jobtype": "salesman",
            "typing_speed": 70, "foreign_languages": "english"}


class TestTableSnapshots:
    def test_snapshot_restore_round_trip(self, database):
        table = database.table("employees")
        before = table.snapshot()
        table.insert(_valid_employee(100))
        assert len(table) == 11
        table.restore(before)
        assert len(table) == 10

    def test_restore_rebuilds_indexes(self, database):
        table = database.table("employees")
        before = table.snapshot()
        table.insert(_valid_employee(100))
        table.restore(before)
        # key index no longer contains emp_id 100, so re-inserting must succeed
        table.insert(_valid_employee(100))
        # and duplicates are still detected after the rebuild
        with pytest.raises(KeyViolation):
            table.insert({**_valid_employee(100), "name": "other"})


class TestShapeCounts:
    """The counts the planner reads are the shape counts, equal to a recount
    of the stored tuples also where a write stores no new tuple."""

    def test_update_onto_a_stored_tuple_counts_it_once(self):
        database = Database()
        table = _create(database, _keyless()[0])
        table.insert_many([{"A": 0}, {"A": 1}, {"A": 0, "B": 1}])
        database.analyze("keyless")
        table.update({"A": 0, "B": 1}, B=REMOVE)    # merges onto {A: 0}
        assert served_counts(database, "keyless") == (2, {frozenset({"A"}): 2})
        table.update({"A": 0}, A=1)                 # and onto {A: 1}
        assert served_counts(database, "keyless") == (1, {frozenset({"A"}): 1})
        assert verify_database(database) == []

    def test_restore_refiles_and_recounts(self, database):
        database.analyze()
        table = database.table("employees")
        before = table.snapshot()
        secretary = next(t for t in table if t["jobtype"] == "secretary")
        table.update(secretary, jobtype="salesman", typing_speed=REMOVE,
                     foreign_languages=REMOVE, products="dbms", sales_commission=0.1)
        table.insert(_valid_employee(100))
        table.restore(before)
        assert served_counts(database, "employees")[0] == 10
        assert verify_database(database) == []


class TestTransactions:
    def test_commit_keeps_changes(self, database):
        with database.transaction():
            database.insert("employees", _valid_employee(200))
            database.insert("employees", _valid_employee(201))
        assert len(database.table("employees")) == 12

    def test_rollback_on_violation(self, database):
        with pytest.raises(DependencyViolation):
            with database.transaction():
                database.insert("employees", _valid_employee(300))
                database.insert("employees", _invalid_employee(301))
        assert len(database.table("employees")) == 10
        assert not any(t["emp_id"] == 300 for t in database.table("employees"))

    def test_rollback_on_any_exception(self, database):
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(400))
                raise RuntimeError("abort")
        assert len(database.table("employees")) == 10

    def test_rollback_covers_updates_and_deletes(self, database):
        table = database.table("employees")
        victim = next(iter(table))
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.delete(victim)
                raise RuntimeError("abort")
        assert victim in table

    def test_nested_use_is_sequential(self, database):
        with database.transaction():
            database.insert("employees", _valid_employee(500))
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(501))
                raise RuntimeError("abort")
        ids = {t["emp_id"] for t in database.table("employees")}
        assert 500 in ids and 501 not in ids

    def test_transaction_returns_database(self, database):
        with database.transaction() as handle:
            assert handle is database


class TestRollbackVersionRestore:
    """Rollback rewinds the feedback it churned; the statistics need no rewind
    (their counts are the shape counts the undo keeps, their version is a
    clock that never runs backwards)."""

    def test_statistics_version_restored(self, database):
        """Below the drift threshold a rolled-back transaction moves no
        version, and the served counts are the table's again."""
        database.table("employees").insert_many(
            generate_employees(40, seed=72, start_id=1_000))
        database.analyze()
        version = database.statistics_version
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(700))
                raise RuntimeError("abort")
        assert database.statistics_version == version
        assert database.stats("employees").row_count == len(database.table("employees"))

    def test_feedback_version_restored(self, database):
        feedback = database.cardinality_feedback
        feedback.record(("test", "fp"), database.statistics_version, 42)
        version = feedback.version
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(701))
                raise RuntimeError("abort")
        assert feedback.version == version

    def test_observations_from_inside_the_transaction_are_dropped(self, database):
        feedback = database.cardinality_feedback
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(702))
                version = database.statistics_version
                feedback.record(("txn", "fp"), version, 7)
                raise RuntimeError("abort")
        # it describes rows the rollback took away
        assert feedback.lookup(("txn", "fp"), version) is None

    def test_statistics_collected_inside_are_kept(self, database):
        """ANALYZE is not undone, like DDL and like the log, which journals it
        autonomously; its counts follow the rolled-back table."""
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(703))
                database.analyze("employees")
                version = database.statistics_version
                raise RuntimeError("abort")
        assert database.statistics_version >= version
        assert database.stats("employees").row_count == len(database.table("employees")) == 10

    def test_plans_cached_before_stay_valid(self, database):
        from repro.algebra.expressions import RelationRef

        # 50 rows: the rolled-back insert and its undo stay below the drift
        database.table("employees").insert_many(
            generate_employees(40, seed=72, start_id=1_000))
        database.analyze()
        database.execute(RelationRef("employees"))
        hits_before = database.physical_executor.cache_hits
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(704))
                raise RuntimeError("abort")
        database.execute(RelationRef("employees"))
        assert database.physical_executor.cache_hits == hits_before + 1

    def test_plans_cached_inside_are_evicted(self, database):
        """They were validated against feedback learned inside, which does
        not survive."""
        from repro.algebra.expressions import RelationRef

        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(705))
                database.cardinality_feedback.record(
                    ("txn", "fp"), database.statistics_version, 11)
                database.execute(RelationRef("employees"))
                cached_inside = len(database.physical_executor.cache)
                raise RuntimeError("abort")
        assert len(database.physical_executor.cache) < cached_inside

    def test_tables_created_inside_are_emptied_not_dropped(self, database):
        from repro.model.scheme import FlexibleScheme

        with pytest.raises(RuntimeError):
            with database.transaction():
                database.create_table("scratch", FlexibleScheme(1, 1, ["x"]))
                database.insert("scratch", {"x": 1})
                raise RuntimeError("abort")
        assert "scratch" in database.tables()       # DDL survives
        assert len(database.table("scratch")) == 0  # its DML does not


# -- the undo log against the snapshot oracle -------------------------------------------------


def _create(database, definition):
    return database.create_table(
        definition.name, definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies,
        indexes=definition.indexes)


class _SnapshotScope:
    """Rollback spelled with the oracle API: a copy of every table at entry,
    ``restore`` of the changed ones, then the feedback rewind — under the
    engine's rule that nothing the feedback store learns inside a rolled-back
    scope survives it."""

    def __init__(self, database):
        self.snapshots = {name: database.table(name).snapshot()
                          for name in database.tables()}
        self.feedback_version = database.cardinality_feedback.version
        self.feedback_mark = database.cardinality_feedback.begin()

    def rollback(self, database):
        for name, snapshot in self.snapshots.items():
            table = database.table(name)
            if table.snapshot() != snapshot:
                table.restore(snapshot)
        feedback = database.cardinality_feedback
        feedback.rollback(self.feedback_version, self.feedback_mark)
        feedback.end()


def _keyless():
    """No key and six possible tuples: an update often lands on a stored one
    and the two merge — undoing it must not take the other tuple along."""
    shapes = [["A"], ["A", "B"]]
    scheme = UnfoldedScheme(AttributeSet(names).as_frozenset() for names in shapes)
    bit = EnumDomain([0, 1])
    return (TableDefinition("keyless", scheme, domains={"A": bit, "B": bit}),
            lambda rng: {name: rng.randrange(2) for name in rng.choice(shapes)})


class _Side:
    """One database of the pair; both are fed the same steps."""

    #: "update" twice: it is the step with the most ways to go wrong
    KINDS = ("insert", "scramble", "update", "update", "delete", "reinsert", "noop",
             "analyze", "observe")

    def __init__(self, durable_path=None):
        self.database = Database(durable_path=durable_path, wal_fsync=False)
        self.cases = [case() for case in (_employees, _unfolded, _keyless)]
        for definition, _make_row in self.cases:
            _create(self.database, definition)
        # stored from the start, so that most updates of the table merge
        self.database.table("keyless").insert_many([{"A": 0}, {"A": 1}, {"A": 0, "B": 1}])
        self.deleted = [[] for _ in self.cases]

    def step(self, seed):
        """Run the step ``seed`` stands for — table, kind and values all come
        from it: hypothesis left to draw them favours a few simple steps —
        and return the engine's refusal (or ``None``)."""
        database = self.database
        rng = random.Random(seed)
        which, kind = rng.randrange(len(self.cases)), rng.choice(self.KINDS)
        definition, make_row = self.cases[which]
        table = database.table(definition.name)
        stored = sorted(table, key=repr)
        universe = list(definition.scheme.attributes.names)
        if kind == "analyze":
            database.analyze(definition.name)
            return None
        if kind == "observe":
            database.cardinality_feedback.record(
                ("rollback", seed), database.statistics_version, seed)
            return None
        if kind == "reinsert" and self.deleted[which]:
            return engine_refusal(table.insert, rng.choice(self.deleted[which]))
        if kind == "noop" and stored:
            return engine_refusal(table.insert, rng.choice(stored))
        if kind == "update" and stored:
            old = rng.choice(stored)
            return engine_refusal(
                table.update, old, **_changes(old, universe, make_row, rng))
        if kind == "delete" and stored:
            victim = rng.choice(stored)
            self.deleted[which].append(victim)
            assert table.delete(victim)
            return None
        row = make_row(rng)
        if kind != "insert":
            row = _scramble(row, universe, stored, rng)
        return engine_refusal(table.insert, row)


def _observable_state(database):
    """Everything a rollback must put back, in comparable form.  The
    statistics version is a clock, not state: it never runs backwards."""
    state = {"feedback_version": database.cardinality_feedback.version}
    for name in database.tables():
        table = database.table(name)
        state[name] = {
            "tuples": set(table),
            "indexes": {index.attributes: {key: set(bucket) for key, bucket in index.groups()}
                        for index in table.checker.indexes()},
            "shapes": set(table.checker.shapes()),
            "statistics": served_counts(database, name),
        }
    return state


def _record(steps, committed, aborted, problem):
    report = ("rollback differs from the snapshot oracle\n"
              "steps = {!r}\ncommitted = {}, aborted = {}\n{}\n".format(
                  steps, committed, aborted, problem))
    try:
        with open(ARTIFACT, "w") as handle:
            handle.write(report)
    except OSError:
        pass
    return report


_steps = st.lists(st.integers(0, 2**16), min_size=12, max_size=40, unique=True)


class TestRollbackAgainstTheOracle:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_feedback_learned_inside_a_rollback_does_not_survive_it(self, durable):
        """The sequence that found the rule: the transaction leaves ``keyless``
        as it found it and records an observation on it, which one side used
        to drop (it had *touched* the table) and the twin to keep (the contents
        did not *differ*) — a later delete then bumped one feedback version only."""
        self._aborted_sequence(
            durable, [6, 32, 64, 900, 1273, 0, 1, 2, 3, 4, 5, 7], (0, 5))

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(steps=_steps, cuts=st.tuples(st.integers(0, 40), st.integers(0, 40)))
    def test_aborted_sequence_equals_snapshot_restore(self, durable, steps, cuts):
        self._aborted_sequence(durable, steps, cuts)

    def _aborted_sequence(self, durable, steps, cuts):
        """Steps before ``committed`` run autocommitted, those up to ``aborted``
        inside a transaction that is then rolled back — by the undo log on one
        side, by snapshot/restore on the twin — and the rest afterwards, on
        whatever indexes and plans the rollback left behind.  A durable subject
        must also reopen to what its memory holds."""
        committed, aborted = sorted(cut % (len(steps) + 1) for cut in cuts)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "db")
            subject = _Side(path if durable else None)
            try:
                self._against_the_twin(subject, steps, committed, aborted)
            finally:
                subject.database.close()
            if durable:
                memory = {name: set(subject.database.table(name))
                          for name in subject.database.tables()}
                recovered = Database(durable_path=path)
                try:
                    reopened = {name: set(recovered.table(name)) for name in recovered.tables()}
                finally:
                    recovered.close()
                assert reopened == memory, _record(
                    steps, committed, aborted, "reopened {} != memory {}".format(reopened, memory))

    def _against_the_twin(self, subject, steps, committed, aborted):
        twin = _Side()

        def run(some):
            for step in some:
                ours, theirs = subject.step(step), twin.step(step)
                assert ours == theirs, _record(
                    steps, committed, aborted, "step {}: {} != {}".format(step, ours, theirs))

        def compare(when):
            ours = _observable_state(subject.database)
            theirs = _observable_state(twin.database)
            assert ours == theirs, _record(
                steps, committed, aborted, "{}: {} != {}".format(when, ours, theirs))
            problems = verify_database(subject.database)
            assert problems == [], _record(steps, committed, aborted, problems)

        run(steps[:committed])
        scope = _SnapshotScope(twin.database)
        with pytest.raises(RuntimeError, match="abort"):
            with subject.database.transaction():
                run(steps[committed:aborted])
                raise RuntimeError("abort")
        scope.rollback(twin.database)
        compare("after the rollback")
        run(steps[aborted:])
        compare("after the steps that followed it")

    def test_savepoints(self, database):
        table = database.table("employees")
        before = table.snapshot()
        with pytest.raises(RuntimeError, match="outer"):
            with database.transaction():
                table.insert(_valid_employee(800))
                with pytest.raises(RuntimeError, match="inner"):
                    with database.transaction():
                        table.insert(_valid_employee(801))
                        table.delete(table.insert(_valid_employee(802)))
                        raise RuntimeError("inner")
                # the inner rollback kept the outer scope's earlier change ...
                assert {t["emp_id"] for t in table} - {t["emp_id"] for t in before} == {800}
                with database.transaction():
                    table.insert(_valid_employee(803))  # a released savepoint
                raise RuntimeError("outer")
        # ... and the outer rollback undoes both, released savepoint included
        assert table.snapshot() == before
        assert database._undo is None
        assert verify_database(database) == []

    def test_no_table_is_copied_and_the_undo_log_counts_mutations(self, database, monkeypatch):
        def refuse(self):
            raise AssertionError("a transaction must not copy a table")

        table = database.table("employees")
        stored = sorted(table, key=repr)
        monkeypatch.setattr(Table, "snapshot", refuse)
        with database.transaction():
            table.insert(_valid_employee(900))                    # 1
            table.insert(stored[0])                               # stored: no-op
            table.update(stored[1], salary=1.0)                   # 2
            table.delete(stored[2])                               # 3
            with pytest.raises(DependencyViolation):
                table.insert(_invalid_employee(901))              # refused
            assert len(database._undo) == 3
        assert database._undo is None and len(table) == 10
        committed = set(table)
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert(_valid_employee(902))
                assert len(database._undo) == 1
                raise RuntimeError("abort")
        assert set(table) == committed and database._undo is None

    def test_ddl_inside_is_not_undone_and_old_rows_do_not_come_back(self, database):
        definition = employee_definition()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.drop_table("employees")
                table = database.create_table(
                    "employees", definition.scheme, domains=definition.domains,
                    key=definition.key, dependencies=definition.dependencies)
                table.insert(_valid_employee(1))
                raise RuntimeError("abort")
        # DDL survives, the transaction's DML does not — and the dropped
        # table's rows are not poured into the new definition
        assert database.table("employees") is table and len(table) == 0
        assert verify_database(database) == []


class TestDurableTransactions:
    def _open(self, tmp_path, **kwargs):
        database = Database(durable_path=str(tmp_path / "db"), **kwargs)
        if "employees" not in database.tables():
            _create(database, employee_definition())
        return database

    def _reopened(self, tmp_path):
        recovered = Database(durable_path=str(tmp_path / "db"))
        try:
            assert verify_database(recovered) == []
            return ({name: set(recovered.table(name)) for name in recovered.tables()},
                    recovered.durability.recovery_report)
        finally:
            recovered.close()

    def _frames(self, database):
        return [record["op"] for record in read_wal(database.durability.wal.path)[0]]

    def test_commit_is_one_write(self, tmp_path):
        writes = []

        class Counting:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(len(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        database = self._open(
            tmp_path, wal_file_factory=lambda path, mode: Counting(open(path, mode)))
        del writes[:]
        with database.transaction():
            database.table("employees").insert_many(generate_employees(20, seed=1))
            assert writes == []           # buffered, not written
        assert len(writes) == 1           # begin + 20 inserts + commit
        assert database.durability.wal.fsyncs == 2  # the create, the commit
        database.close()
        assert self._frames(database) == (
            ["create_table", "begin"] + ["insert"] * 20 + ["commit"])
        tables, report = self._reopened(tmp_path)
        assert tables == {"employees": set(database.table("employees"))}
        assert report.transactions_applied == 1

    def test_an_autocommit_is_one_write_one_flush_one_fsync(self, tmp_path):
        calls = []

        class Counting:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                calls.append("write")
                return self._inner.write(data)

            def flush(self):
                calls.append("flush")
                self._inner.flush()

            def fsync(self):
                calls.append("fsync")
                os.fsync(self._inner.fileno())

            def __getattr__(self, name):
                return getattr(self._inner, name)

        database = self._open(
            tmp_path, wal_file_factory=lambda path, mode: Counting(open(path, mode)))
        del calls[:]
        database.table("employees").insert(generate_employees(1, seed=4)[0])
        assert calls == ["write", "flush", "fsync"]
        database.close()
        tables, _report = self._reopened(tmp_path)
        assert len(tables["employees"]) == 1

    def test_larger_than_the_buffer_spills_commits_and_recovers(self, tmp_path):
        database = self._open(tmp_path)
        wal = database.durability.wal
        size = wal.size
        with database.transaction():
            database.table("employees").insert_many(generate_employees(1200, seed=2))
            spilled = wal.size - size
            assert spilled > TXN_BUFFER_BYTES   # uncommitted records in the log
        assert wal.size - size - spilled <= TXN_BUFFER_BYTES + 64  # the rest + commit
        database.close()
        assert "abort" not in self._frames(database)
        tables, report = self._reopened(tmp_path)
        assert tables == {"employees": set(database.table("employees"))}
        assert len(tables["employees"]) == 1200
        assert (report.transactions_applied, report.transactions_discarded) == (1, 0)

    def test_spilled_and_aborted_leaves_an_abort_record(self, tmp_path):
        database = self._open(tmp_path)
        table = database.table("employees")
        table.insert_many(generate_employees(5, seed=3))
        before = set(table)
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert_many(generate_employees(1200, seed=2, start_id=100))
                table.delete(sorted(before, key=repr)[0])
                raise RuntimeError("abort")
        assert set(table) == before and verify_database(database) == []
        database.close()
        assert self._frames(database)[-1] == "abort"
        tables, report = self._reopened(tmp_path)
        assert tables == {"employees": before}
        assert report.transactions_discarded == 1

    def test_checkpoint_after_a_spilled_rollback_sees_no_uncommitted_row(self, tmp_path):
        # The rollback's mutation hooks may trigger the size-based checkpoint:
        # it must not run while only some of the tables have been put back.
        database = self._open(tmp_path, checkpoint_every_bytes=TXN_BUFFER_BYTES)
        other = database.create_table("other", employee_definition().scheme, key=["emp_id"])
        with pytest.raises(RuntimeError):
            with database.transaction():
                for row in generate_employees(600, seed=4):
                    database.insert("employees", row)
                    other.insert(row)
                raise RuntimeError("abort")
        assert database.durability.epoch > 0          # the checkpoint did fire
        assert len(database.table("employees")) == len(other) == 0
        database.close()
        tables, _report = self._reopened(tmp_path)
        assert tables == {"employees": set(), "other": set()}

    def test_drop_and_recreate_inside_a_rolled_back_transaction(self, tmp_path):
        database = self._open(tmp_path)
        database.table("employees").insert_many(generate_employees(3, seed=5))
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.drop_table("employees")
                _create(database, employee_definition()).insert(_valid_employee(1))
                raise RuntimeError("abort")
        assert len(database.table("employees")) == 0
        database.close()
        tables, _report = self._reopened(tmp_path)
        assert tables == {"employees": set()}       # memory and log agree

    def test_update_onto_a_stored_tuple_of_a_keyless_table(self, tmp_path):
        database = self._open(tmp_path)
        table = _create(database, _keyless()[0])
        table.insert_many([{"A": 0}, {"A": 1}, {"A": 0, "B": 1}])
        database.analyze("keyless")             # row counts must follow the merges
        before = table.snapshot()
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.update({"A": 0}, A=1)     # the set collapses onto {A: 1} ...
                assert len(table) == 2
                raise RuntimeError("abort")
        assert table.snapshot() == before       # ... which the rollback leaves stored
        with database.transaction():
            table.update({"A": 0, "B": 1}, B=REMOVE)
        assert len(table) == 2 and verify_database(database) == []
        database.close()
        tables, _report = self._reopened(tmp_path)
        assert tables["keyless"] == set(table)

    def test_nested_begin_is_refused_and_the_outer_scope_rolls_back(self, tmp_path):
        from repro.storage import WALError

        database = self._open(tmp_path)
        with pytest.raises(WALError, match="already open"):
            with database.transaction():
                database.insert("employees", _valid_employee(1))
                with database.transaction():     # no savepoints on a durable log
                    pass
        assert len(database.table("employees")) == 0 and database._undo is None
        assert not database.durability.in_transaction
        database.close()

    def test_observability(self, tmp_path):
        database = self._open(tmp_path)
        sink = database.tracer.attach()
        with database.transaction():
            database.insert("employees", _valid_employee(1))
            database.insert("employees", _valid_employee(2))
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", _valid_employee(3))
                raise RuntimeError("abort")
        database.tracer.detach()
        spans = [span["attributes"] for span in sink.spans() if span["name"] == "transaction"]
        assert spans == [{"outcome": "commit", "changes": 2},
                         {"outcome": "rollback", "changes": 1, "error": "RuntimeError"}]
        counters = database.metrics()["metrics"]
        assert counters["transactions.committed"] == 1
        assert counters["transactions.rolled_back"] == 1
        database.close()
