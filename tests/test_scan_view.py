"""Tests for a table's scan view: full scans read columns pivoted once per
table version (``Table.scan_view``, ``model.batches.ScanView`` / ``ScanBatch``).

* ``test_queries_between_writes_equal_the_naive_evaluator`` interleaves full
  scans, filters, guards, aggregates, sorts and hash joins with every kind of
  write — insert, ``insert_many`` refused mid-chunk, update (type changes,
  merges onto a stored tuple), delete, rollback, savepoints, ``restore``, a
  durable reopen — and checks every answer against the naive evaluator
  (``REPRO_SWEEP_EXAMPLES=<n>`` raises the example count: the CI sweep; a
  falsifying sequence is written to ``fuzz-failure.txt``);
* a query paused across a write reads on from the rows it started with;
* a scan of an unchanged table pivots nothing, the first after a write pivots
  again (counted with a spy on the view);
* a batch's column is a slice: mutating it changes no later answer;
* a scan reads a table or a flexible relation by iterating it, never through
  the flexible relation's copying ``tuples`` property (counted with a spy on
  the property; a table has none), and so do the dependency checks, their
  inference and the decompositions.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    Aggregate,
    Comparison,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    Sort,
    TypeGuardNode,
)
from repro.algebra.evaluator import Evaluator
from repro.core.dependencies import AttributeDependency, FunctionalDependency
from repro.core.inference import discover_ads, discover_explicit_ad, discover_fds
from repro.engine import Database
from repro.exec import ExecutionContext, PhysicalExecutor
from repro.model.batches import MISSING, ScanBatch, ScanView, TupleBatch
from repro.er.decomposition import horizontal_decomposition, null_count, vertical_decomposition
from repro.model.relation import FlexibleRelation
from repro.workloads.employees import generate_employees
from test_shape_plans import VALUES, _changes, _employees, _scramble, _unfolded, engine_refusal
from test_transactions import _create, _keyless

#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (the CI sweep)
EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "40"))
#: a falsifying sequence lands next to the fuzz harness's shrunk trees
ARTIFACT = os.environ.get("REPRO_FUZZ_ARTIFACT", "fuzz-failure.txt")


def _queries(name, universe, rng):
    """One full-scan query of each kind over table ``name``, on attributes
    drawn from ``universe``: a plain scan, a filter, a guard, an aggregate, a
    sort and a hash join of the table with a projection of itself."""
    relation = RelationRef(name)
    first, second = rng.choice(universe), rng.choice(universe)
    return [
        relation,
        Selection(relation, Comparison(first, "!=", rng.choice(VALUES))),
        TypeGuardNode(relation, [first]),
        Aggregate(relation, group_by=(first,), specs=("count", ("count", second))),
        Sort(relation, (first, "-" + second)),
        NaturalJoin(Projection(relation, [first]), relation),
    ]


class _Abort(Exception):
    """Raised inside a transaction scope to roll it back."""


class _Subject:
    """One database whose every answer is checked against the naive evaluator."""

    #: an autonomous write half the time; the scopes, ``restore`` and reopen the rest
    KINDS = ("write", "write", "write", "write", "rollback", "savepoint", "restore", "reopen")

    def __init__(self, path=None):
        self.path = path
        self.cases = [case() for case in (_employees, _unfolded, _keyless)]
        self.database = self._open()
        for definition, _make_row in self.cases:
            _create(self.database, definition)
        # stored from the start, so that most updates of the table merge
        self.database.table("keyless").insert_many([{"A": 0}, {"A": 1}, {"A": 0, "B": 1}])
        self.answers = 0

    def _open(self):
        return Database(durable_path=self.path, wal_fsync=False)

    def close(self):
        self.database.close()

    def query(self, which, rng):
        """Run one random full-scan query on table ``which`` on both engines."""
        definition = self.cases[which][0]
        universe = list(definition.scheme.attributes.names)
        expression = rng.choice(_queries(definition.name, universe, rng))
        physical = self.database.execute(expression).tuples
        naive = self.database.execute(expression, executor="naive").tuples
        assert physical == naive, expression
        self.answers += 1

    def write(self, which, rng):
        """One autonomous write of table ``which``; refusals are allowed."""
        definition, make_row = self.cases[which]
        table = self.database.table(definition.name)
        stored = sorted(table, key=repr)
        universe = list(definition.scheme.attributes.names)
        kind = rng.choice(("insert", "insert_many", "update", "update", "delete"))
        if kind == "update" and stored:
            old = rng.choice(stored)
            engine_refusal(table.update, old, **_changes(old, universe, make_row, rng))
        elif kind == "delete" and stored:
            table.delete(rng.choice(stored))
        elif kind == "insert_many":
            rows = [make_row(rng) for _ in range(rng.randrange(1, 6))]
            # an attribute outside the scheme: refused, with rows before and after it
            rows.insert(rng.randrange(len(rows) + 1), {**make_row(rng), "zzz": 0})
            engine_refusal(table.insert_many, rows)
        else:
            row = make_row(rng)
            if rng.random() < 0.3:
                row = _scramble(row, universe, stored, rng)
            engine_refusal(table.insert, row)

    def step(self, seed):
        """Query a table, change it the way ``seed`` says, query it again —
        a view exists before every write, and every write is read."""
        rng = random.Random(seed)
        which, kind = rng.randrange(len(self.cases)), rng.choice(self.KINDS)
        database, name = self.database, self.cases[which][0].name
        self.query(which, rng)
        if kind == "rollback" or (kind == "savepoint" and self.path is not None):
            # savepoints are in-memory only: a durable subject rolls back the whole scope
            try:
                with database.transaction():
                    self.write(which, rng)
                    self.query(which, rng)
                    self.write(which, rng)
                    self.query(which, rng)
                    raise _Abort()
            except _Abort:
                pass
        elif kind == "savepoint":
            with database.transaction():
                self.write(which, rng)
                self.query(which, rng)
                try:
                    with database.transaction():
                        self.write(which, rng)
                        self.query(which, rng)
                        raise _Abort()
                except _Abort:
                    pass
                self.query(which, rng)
                self.write(which, rng)
        elif kind == "restore" and self.path is None:
            # restore journals nothing: on a durable subject it would fork memory from the log
            table = database.table(name)
            snapshot = table.snapshot()
            self.write(which, rng)
            self.query(which, rng)
            table.restore(snapshot)
        elif kind == "reopen" and self.path is not None:
            self.close()
            self.database = self._open()
        else:
            self.write(which, rng)
        self.query(which, rng)


def _record(steps, durable, problem):
    report = ("a physical answer differs from the naive evaluator's\n"
              "steps = {!r}\ndurable = {}\n{}\n".format(steps, durable, problem))
    try:
        with open(ARTIFACT, "w") as handle:
            handle.write(report)
    except OSError:
        pass
    return report


_steps = st.lists(st.integers(0, 2**16), min_size=6, max_size=24, unique=True)


class TestScanViewAgainstTheEvaluator:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(steps=_steps)
    def test_queries_between_writes_equal_the_naive_evaluator(self, durable, steps):
        with tempfile.TemporaryDirectory() as directory:
            subject = _Subject(os.path.join(directory, "db") if durable else None)
            try:
                for seed in steps:
                    subject.step(seed)
            except AssertionError as exc:
                raise AssertionError(_record(steps, durable, exc)) from None
            finally:
                subject.close()
            assert subject.answers >= 2 * len(steps)


# -- the writes, one invalidation site each --------------------------------------------------------


def _employees_database():
    """30 employees (ids 1–30) in an in-memory database."""
    definition, _make_row = _employees()
    database = Database()
    table = _create(database, definition)
    table.insert_many(generate_employees(30, seed=9))
    return database, table


def _fresh(emp_id):
    return {"emp_id": emp_id, "name": "new", "salary": 3000.0, "jobtype": "secretary",
            "typing_speed": 70, "foreign_languages": "english"}


def _insert(database, table, read):
    table.insert(_fresh(900))


def _insert_many(database, table, read):
    table.insert_many([_fresh(900), _fresh(901)])


def _update(database, table, read):
    (victim,) = [tup for tup in table if tup["emp_id"] == 3]
    table.update(victim, salary=1.5)


def _delete(database, table, read):
    (victim,) = [tup for tup in table if tup["emp_id"] == 3]
    table.delete(victim)


def _undo(database, table, read):
    """A rolled-back insert, with a view built between the insert and the undo."""
    try:
        with database.transaction():
            table.insert(_fresh(900))
            read()
            raise _Abort()
    except _Abort:
        pass


def _restore(database, table, read):
    """A restored snapshot, with a view built between the change and the restore."""
    snapshot = table.snapshot()
    table.insert(_fresh(900))
    read()
    table.restore(snapshot)


WRITES = {"insert": _insert, "insert_many": _insert_many, "update": _update,
          "delete": _delete, "undo": _undo, "restore": _restore}

EMPLOYEES = RelationRef("employees")
#: full scans that pivot columns: a projection, a filter, a guard, an aggregate
READS = (
    Projection(EMPLOYEES, ["emp_id", "salary"]),
    Selection(EMPLOYEES, Comparison("salary", ">=", 3000.0)),
    TypeGuardNode(EMPLOYEES, ["typing_speed"]),
    Aggregate(EMPLOYEES, group_by=("jobtype",), specs=("count", ("sum", "salary"))),
)


def _answers(database):
    return [database.execute(expression).tuples for expression in READS]


def _naive_answers(database):
    return [database.execute(expression, executor="naive").tuples for expression in READS]


class _PivotSpy:
    """Counts the columns views pivot and the views built, and any
    batch-by-batch pivot of a scan batch (there must be none)."""

    def __init__(self, monkeypatch):
        self.pivots = self.views = self.batch_pivots = 0
        spy = self
        view_init, view_column, batch_column = (
            ScanView.__init__, ScanView.column, TupleBatch.column)

        def init(view, rows):
            spy.views += 1
            view_init(view, rows)

        def column(view, name):
            spy.pivots += name not in view._columns
            return view_column(view, name)

        def pivot(batch, name):
            spy.batch_pivots += isinstance(batch, ScanBatch)
            return batch_column(batch, name)

        monkeypatch.setattr(ScanView, "__init__", init)
        monkeypatch.setattr(ScanView, "column", column)
        monkeypatch.setattr(TupleBatch, "column", pivot)

    def reset(self):
        counts = (self.views, self.pivots, self.batch_pivots)
        self.pivots = self.views = self.batch_pivots = 0
        return counts


class TestScanViewLifetime:
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_an_unchanged_table_pivots_nothing_and_a_write_pivots_again(
            self, monkeypatch, write):
        database, table = _employees_database()
        spy = _PivotSpy(monkeypatch)
        first = _answers(database)
        views, pivots, batch_pivots = spy.reset()
        assert views == 1 and pivots >= 4 and batch_pivots == 0
        assert _answers(database) == first
        assert spy.reset() == (0, 0, 0)
        WRITES[write](database, table, lambda: _answers(database))
        spy.reset()
        after = _answers(database)
        views, pivots, batch_pivots = spy.reset()
        assert views == 1 and pivots >= 4 and batch_pivots == 0, write
        assert after == _naive_answers(database)

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_query_paused_across_a_write_reads_the_rows_it_started_with(
            self, monkeypatch, write):
        """The scan fixes its rows at the first pull — before and after the
        view — so a write between two pulls changes neither that stream nor,
        after it, a fresh query's agreement with the evaluator."""
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: 8)
        database, table = _employees_database()
        started = list(table)
        plan = PhysicalExecutor(database).plan(Projection(EMPLOYEES, ["emp_id", "salary"]))
        stream = plan.root.run(ExecutionContext(database, batch_size=8))
        pulled = [next(stream)]
        WRITES[write](database, table, lambda: _answers(database))
        pulled.extend(stream)
        assert [len(batch) for batch in pulled] == [8, 8, 8, 6]
        assert [row.as_dict() for batch in pulled for row in batch] == [
            {"emp_id": tup["emp_id"], "salary": tup["salary"]} for tup in started]
        assert _answers(database) == _naive_answers(database)


class TestScanBatchColumns:
    def test_a_mutated_batch_column_changes_no_later_answer(self):
        database, _table = _employees_database()
        expected = _answers(database)
        plan = PhysicalExecutor(database).plan(EMPLOYEES)
        for batch in plan.root.run(ExecutionContext(database)):
            assert isinstance(batch, ScanBatch)
            for name in ("emp_id", "salary", "jobtype", "typing_speed"):
                column = batch.column(name)
                column[:] = [MISSING] * len(column)
            values = batch.values_list()
            values[:] = [{} for _ in values]
        assert _answers(database) == expected

    def test_a_scan_batch_slices_the_view(self):
        view = ScanView(list(_employees_database()[1]))
        batches = list(view.batches(8))
        assert [len(batch) for batch in batches] == [8, 8, 8, 6]
        for start, batch in zip(range(0, 30, 8), batches):
            assert batch.rows == view.rows[start:start + 8]
            assert batch.column("typing_speed") == [
                row.get("typing_speed", MISSING) for row in view.values[start:start + 8]]
            assert batch.column("typing_speed") is batch.column("typing_speed")
            assert batch.column("typing_speed") is not view.column("typing_speed")
            taken = batch.take([0, 2])
            assert type(taken) is TupleBatch and taken.rows == [batch.rows[0], batch.rows[2]]


class TestScansCopyNothing:
    def test_a_scan_never_evaluates_the_copying_tuples_property(self, monkeypatch):
        """A flexible relation's ``tuples`` copies every tuple (a table has no
        such property); a scan — physical or naive — iterates the relation
        instead.  A mapping to plain dicts is still wrapped into tuples."""
        database, table = _employees_database()
        sources = {
            "table": database,
            "relation": {"employees": FlexibleRelation(table.definition.scheme, list(table))},
            "dicts": {"employees": [tup.as_dict() for tup in table]},
        }
        copies = []
        copying = FlexibleRelation.tuples.fget
        monkeypatch.setattr(FlexibleRelation, "tuples", property(
            lambda self: copies.append(self) or copying(self)))
        scans = (EMPLOYEES,) + READS
        answers = {}
        for name, source in sources.items():
            answers[name] = [Evaluator(source).evaluate(scan).tuples for scan in scans]
            assert [PhysicalExecutor(source).execute(scan).tuples
                    for scan in scans] == answers[name], name
        assert answers["table"] == answers["relation"] == answers["dicts"]
        assert copies == []


    def test_dependencies_and_decompositions_never_evaluate_it(self, monkeypatch):
        """``holds_in``, the inference helpers and the decompositions iterate
        a table or a flexible relation; the answers equal those over a plain
        list of its tuples."""
        _, table = _employees_database()
        scheme = table.definition.scheme
        ead, key = table.definition.dependencies
        dependencies = (ead, key, AttributeDependency(["jobtype"], ["typing_speed"]),
                        FunctionalDependency(["jobtype"], ["salary"]))

        def answers(relation):
            horizontal = horizontal_decomposition(relation, ead)
            vertical = vertical_decomposition(relation, ead, ["emp_id"])
            return ([dependency.holds_in(relation) for dependency in dependencies],
                    discover_ads(relation, max_lhs=1), discover_fds(relation, max_lhs=1),
                    sorted(map(repr, discover_explicit_ad(relation, ["jobtype"]).variants)),
                    horizontal.fragments, horizontal.is_lossless(relation),
                    vertical.fragments, vertical.is_lossless(relation),
                    null_count(relation, scheme.attributes))

        expected = answers(list(table))
        copies = []
        copying = FlexibleRelation.tuples.fget
        monkeypatch.setattr(FlexibleRelation, "tuples", property(
            lambda self: copies.append(self) or copying(self)))
        assert answers(table) == expected
        assert answers(FlexibleRelation(scheme, list(table))) == expected
        assert copies == []
