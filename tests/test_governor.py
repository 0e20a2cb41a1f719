"""The resource governor: deadlines, cancellation, budgets, spill.

Three layers under test:

* the primitives — :class:`CancelToken`/:class:`Deadline` semantics, the
  CRC-framed spill segments, the drain/absorb split of
  :class:`~repro.exec.compiled.CompiledAggregates`;
* the spill state — for sort, hash aggregation and the hash join (the
  multiway restoration's stages among them), the budgeted execution at any
  budget must produce **exactly** the unbudgeted results, counters and sort
  stream across the workload's MISSING/NULL edge cases, and spill exactly
  when the budget is below the held state;
* the database integration — ``timeout=``/``cancel_token=``/
  ``memory_budget=`` on :meth:`Database.execute`, the termination taxonomy,
  and the observability contract: terminated queries count under their
  reason, never under ``queries.executed``, and leave a slow-query-log entry
  naming the reason (satellite: no double counting).
"""

import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro.algebra import (
    Aggregate,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    TypeGuardNode,
)
from repro.algebra.analytic import AggregateSpec
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.errors import (
    CatalogError,
    GovernorError,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    SpillError,
)
from repro.exec import PhysicalExecutor, PhysicalPlanner
from repro.exec.compiled import CompiledAggregates
from repro.exec.context import ExecutionContext
from repro.governor import (
    CancelToken,
    Deadline,
    QueryGovernor,
    SpillManager,
)
from repro.model.batches import LazyBatch, MISSING
from repro.model.tuples import FlexTuple
from repro.workloads.analytics import analytics_database


@pytest.fixture(scope="module")
def orders_database():
    return analytics_database(count=2500, seed=13)


# -- cancellation primitives -----------------------------------------------------------------


class TestCancelToken:
    def test_deadline_expires_with_injected_clock(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        now[0] = 5.1
        assert deadline.expired()
        token = CancelToken(deadline=deadline)
        with pytest.raises(QueryTimeout) as info:
            token.check()
        assert info.value.timeout == 5.0

    def test_cancel_carries_the_reason(self):
        token = CancelToken()
        token.check()  # not yet cancelled
        token.cancel("client disconnected")
        with pytest.raises(QueryCancelled, match="client disconnected"):
            token.check()

    def test_timeout_is_a_cancellation(self):
        # one unwind path: handlers for QueryCancelled also catch timeouts
        assert issubclass(QueryTimeout, QueryCancelled)
        assert issubclass(QueryCancelled, GovernorError)

    def test_chaos_hook_fires_after_n_checks(self):
        token = CancelToken(fire_after_checks=2)
        token.check()
        token.check()
        with pytest.raises(QueryCancelled, match="boundary 2"):
            token.check()
        assert token.checks == 3

    def test_checks_come_before_any_table_is_read(self):
        """No operator does setup work (here: reading its table) before the
        first cancellation and deadline check."""
        class CountingSource(dict):
            reads = 0

            def __getitem__(self, name):
                self.reads += 1
                return super().__getitem__(name)

        source = CountingSource(r={FlexTuple(a=i, b=i) for i in range(20)},
                                s={FlexTuple(a=i, c=i) for i in range(20)})
        plan = PhysicalPlanner(source).plan(
            NaturalJoin(RelationRef("r"), RelationRef("s"), on=["a"]))
        fired = CancelToken()
        fired.cancel()
        for governor, error in ((QueryGovernor(cancel_token=fired), QueryCancelled),
                                (QueryGovernor(timeout=0), QueryTimeout)):
            source.reads = 0
            with pytest.raises(error):
                plan.execute(source, governor=governor)
            assert source.reads == 0
        assert len(plan.execute(source).tuples) == 20
        assert source.reads == 2

    def test_counting_token_counts_boundaries(self, orders_database):
        token = CancelToken()
        orders_database.execute(RelationRef("orders"), cancel_token=token)
        assert token.checks > 0


# -- spill segments --------------------------------------------------------------------------


class TestSpillSegments:
    def test_route_hash_agrees_with_equality(self):
        from repro.governor.spill import _route_hash

        assert _route_hash(1) == _route_hash(1.0) == _route_hash(True)
        assert _route_hash((1, "r1", None)) == _route_hash((1.0, "r1", None))
        assert _route_hash((1, "r1")) != _route_hash(("r1", 1))
        assert _route_hash("r1") == zlib.crc32(b"r1")
        assert _route_hash(None) == 0
        # a NaN hashes by its address since CPython 3.10: it routes by a constant
        assert _route_hash(float("nan")) == _route_hash(float("nan"))
        assert _route_hash((1, float("nan"))) == _route_hash((1, float("nan")))
        assert _route_hash(("r1", MISSING)) == _route_hash(("r1", None))

    def test_round_trip_preserves_records_and_missing(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        segment = manager.create_segment("unit")
        records = [{"a": 1}, {"a": MISSING, "b": None}, (1, [2.5, "x"])]
        segment.extend(records)
        segment.finish()
        out = list(segment)
        assert out[0] == {"a": 1}
        assert out[1]["a"] is MISSING  # identity survives pickling
        assert out[2] == (1, [2.5, "x"])
        manager.cleanup()
        assert not os.listdir(str(tmp_path))

    def test_read_before_finish_is_an_error(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        segment = manager.create_segment("unit")
        segment.append({"a": 1})
        with pytest.raises(SpillError, match="before finish"):
            list(segment)
        manager.cleanup()

    def test_corrupted_payload_raises_spill_error(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        segment = manager.create_segment("unit")
        segment.extend({"a": i} for i in range(2000))
        segment.finish()
        with open(segment.path, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(SpillError):
            list(segment)
        manager.cleanup()

    def test_missing_pickle_identity(self):
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING


# -- partial aggregate states: drain and absorb ---------------------------------------------


class TestMergeStates:
    """Groups accumulated in slices, drained and absorbed by a fresh
    instance, finalize to what one uninterrupted accumulation gives."""

    SPECS = (AggregateSpec("count", None, "n"), AggregateSpec("count", "x", "nx"),
             AggregateSpec("sum", "x", "sx"), AggregateSpec("avg", "x", "ax"),
             AggregateSpec("min", "x", "mn"), AggregateSpec("max", "x", "mx"))

    def _split(self, rows, split, group_by=("g",)):
        """One-pass results, and the results of ``split``-row slices each
        drained into one record list and absorbed back."""
        whole = CompiledAggregates(group_by, self.SPECS)
        whole.update(LazyBatch(rows))
        sliced = CompiledAggregates(group_by, self.SPECS)
        records = []
        for start in range(0, len(rows), split):
            sliced.update(LazyBatch(rows[start:start + split]))
            records.extend(sliced.drain())
        assert not sliced.sizes and not sliced.key_to_gid  # drained empty
        merged = CompiledAggregates(group_by, self.SPECS)
        merged.absorb(pickle.loads(pickle.dumps(records)))  # as spilled
        key = lambda row: sorted(row.items(), key=repr)
        return sorted(whole.results(), key=key), sorted(merged.results(), key=key)

    @pytest.mark.parametrize("split", [1, 3, 5])
    def test_merged_slices_equal_one_pass(self, split):
        rows = [{"g": 1, "x": 1}, {"g": 1, "x": 2.5}, {"g": 2, "x": None}, {"g": 1},
                {"x": -3}, {"g": 2, "x": 0.5}, {"g": 1, "x": None}, {"g": 2, "x": 7},
                {"x": 4}, {"g": 1, "x": -1.25}]
        whole, merged = self._split(rows, split)
        assert merged == whole
        whole, merged = self._split(rows, split, group_by=())
        assert merged == whole

    def test_merging_absent_attribute_keeps_it_absent(self):
        whole, merged = self._split([{"g": 1}, {"g": 1}, {"g": 1, "y": 0}], 1)
        assert merged == whole == [{"g": 1, "n": 3, "nx": 0}]  # sum/avg/min/max absent


# -- spill parity through the executor -------------------------------------------------------


def spill_corpus():
    """(expression, must_spill) pairs: the small-state entries prove a
    budgeted-but-fitting query stays in memory with identical results."""
    orders = RelationRef("orders")
    return {
        "aggregate": (Aggregate(
            orders, group_by=("order_id",),
            specs=(("sum", "amount"), "count", ("avg", "amount"),
                   ("min", "amount"), ("max", "amount"))), True),
        "aggregate_sparse_groups": (Aggregate(
            orders, group_by=("region",),
            specs=(("sum", "amount"), ("count", "amount"))), False),
        "global_aggregate": (Aggregate(
            orders, specs=(("sum", "amount"), "count")), False),
        "sort": (Sort(Selection(orders, Comparison("amount", ">", 50)),
                      keys=("amount", "order_id")), True),
        "sort_by_region": (Sort(orders, keys=("region", "order_id")), True),
        "join": (NaturalJoin(
            orders,
            Rename(Projection(orders, ["order_id", "region"]),
                   {"region": "r2"}),
            on=["order_id"]), True),
        "join_skewed_key": (NaturalJoin(
            Projection(orders, ["region", "channel"]),
            Rename(Projection(orders, ["order_id", "region"]),
                   {"order_id": "oid2"}),
            on=["region"]), True),
        # the vertical restoration of orders along channel: a chain of two
        # probe-preserving hash joins whose master also holds (region,
        # channel) rows lacking order_id and phone orders with no partner
        "restoration": (MultiwayJoin(
            [OuterUnion(Projection(orders, ["order_id", "region", "channel"]),
                        Projection(orders, ["region", "channel"])),
             Projection(TypeGuardNode(orders, ["coupon"]), ["order_id", "coupon"]),
             Projection(TypeGuardNode(orders, ["store_id"]), ["order_id", "store_id"])],
            on=["order_id"]), True),
    }


def _root_stream(database, expression, governor=None):
    """The plan's result in the order its root emits it."""
    plan = PhysicalExecutor(database).plan(expression)
    ctx = ExecutionContext(database, batch_size=plan.batch_size, governor=governor,
                           params=plan.params)
    return [tup for batch in plan.root.run(ctx) for tup in batch]


class _HeldState(QueryGovernor):
    """A governor that never trips and records the largest spillable state
    a budget check saw: until its first trip, a budgeted run checks exactly
    these sizes, so it spills iff its budget is below ``held``."""

    held = 0

    def __init__(self):
        super().__init__(memory_budget=1 << 60)

    def over_budget(self, label, size):
        self.held = max(self.held, size)
        return super().over_budget(label, size)


class TestSpillParity:
    @pytest.mark.parametrize("name", sorted(spill_corpus()))
    def test_budgeted_equals_unbudgeted(self, orders_database, name):
        expression, must_spill = spill_corpus()[name]
        executor = PhysicalExecutor(orders_database)
        baseline = executor.execute(expression)
        governor = QueryGovernor(memory_budget=15_000)
        try:
            governed = executor.execute(expression, governor=governor)
            if must_spill:
                assert governor.spilled, (
                    "budget of 15000B over this workload must force a spill "
                    "({})".format(name))
            assert set(governed.tuples) == set(baseline.tuples)
            # ExecutionStats totals stay identical: spilling changes where
            # state lives, not what is counted
            assert governed.stats.as_dict() == baseline.stats.as_dict()
        finally:
            governor.finish()

    @pytest.mark.parametrize("budget", ["300B", "held/16", "held/2", "2*held"])
    @pytest.mark.parametrize("name", sorted(spill_corpus()))
    def test_budget_sweep(self, orders_database, tmp_path, name, budget):
        """From a few hundred bytes to above the held state: the same
        tuples, counters and stream, and a spill exactly below the held
        state a budget check sees."""
        expression, _ = spill_corpus()[name]
        executor = PhysicalExecutor(orders_database)
        baseline = executor.execute(expression)
        stream = _root_stream(orders_database, expression)
        recorder = _HeldState()
        executor.execute(expression, governor=recorder)
        held = recorder.held
        bytes_ = {"300B": 300, "held/16": held // 16, "held/2": held // 2,
                  "2*held": held * 2}[budget]
        governor = QueryGovernor(memory_budget=bytes_, spill_directory=str(tmp_path))
        try:
            governed = executor.execute(expression, governor=governor)
            assert governor.spilled == (bytes_ < held), (bytes_, held)
            assert set(governed.tuples) == set(baseline.tuples)
            assert governed.stats.as_dict() == baseline.stats.as_dict()
            streamed = _root_stream(orders_database, expression, governor)
            if isinstance(expression, Sort):
                assert streamed == stream
            else:  # partitions emit in their own order, each row once
                assert len(streamed) == len(stream) and set(streamed) == set(stream)
        finally:
            governor.finish()
        assert not os.listdir(str(tmp_path))

    def test_sort_order_survives_spilling(self, orders_database):
        expression = spill_corpus()["sort"][0]
        executor = PhysicalExecutor(orders_database)
        baseline = executor.execute(expression)
        governor = QueryGovernor(memory_budget=10_000)
        try:
            governed = executor.execute(expression, governor=governor)
            assert list(governed.tuples) == list(baseline.tuples)
        finally:
            governor.finish()

    def test_under_budget_query_never_touches_disk(self, orders_database,
                                                   tmp_path):
        expression = spill_corpus()["aggregate_sparse_groups"][0]
        executor = PhysicalExecutor(orders_database)
        governor = QueryGovernor(memory_budget=50_000_000,
                                 spill_directory=str(tmp_path))
        try:
            executor.execute(expression, governor=governor)
            assert not governor.spilled
            assert not os.listdir(str(tmp_path))
        finally:
            governor.finish()

    def test_spill_files_are_cleaned_up(self, orders_database, tmp_path):
        expression = spill_corpus()["aggregate"][0]
        executor = PhysicalExecutor(orders_database)
        governor = QueryGovernor(memory_budget=15_000,
                                 spill_directory=str(tmp_path))
        try:
            executor.execute(expression, governor=governor)
            assert governor.spilled
        finally:
            governor.finish()
        assert not os.listdir(str(tmp_path))

    def test_spilled_peak_is_bounded(self, orders_database):
        expression = spill_corpus()["aggregate"][0]
        executor = PhysicalExecutor(orders_database)
        baseline = executor.execute(expression)
        peak0 = max(s["peak_bytes"] for s in baseline.operator_report())
        governor = QueryGovernor(memory_budget=peak0 // 4)
        try:
            governed = executor.execute(expression, governor=governor)
            assert governor.spilled
        finally:
            governor.finish()
        peak1 = max(s["peak_bytes"] for s in governed.operator_report())
        assert peak1 < peak0 / 2
        assert set(governed.tuples) == set(baseline.tuples)


#: the parity corpus's budgeted spill cases and cancellation boundaries, as
#: one digest (run from the repository root)
SPILL_DIGEST_SCRIPT = """
import hashlib, shutil, sys, tempfile
sys.path.insert(0, "tools")
import parity
root = tempfile.mkdtemp(prefix="repro-seeds-")
try:
    entries = {name: parity.run_case(source, query, options, root)
               for name, source, query, options in parity.CASES
               if name.startswith("spill-budgeted/")}
    entries["cancel-boundaries"] = parity.cancel_boundaries(root)
finally:
    shutil.rmtree(root)
print(hashlib.sha256(parity._render(entries).encode("utf-8")).hexdigest())
"""


def test_spills_repeat_under_any_hash_seed():
    """A grace partition is chosen by a hash no seed moves: the spill
    corpus writes the same bytes and passes the same cancellation
    boundaries under two string-hash seeds (routed by ``hash``, the
    skewed-key join's ``spill.bytes`` and one boundary count moved)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", SPILL_DIGEST_SCRIPT], cwd=root,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


class TestFailFast:
    def test_spill_disabled_fails_fast(self, orders_database):
        expression = spill_corpus()["aggregate"][0]
        with pytest.raises(MemoryBudgetExceeded) as info:
            orders_database.execute(expression,
                                    memory_budget=10_000, spill=False)
        assert info.value.budget_bytes == 10_000
        assert info.value.held_bytes > 10_000
        assert "aggregate" in info.value.operator

    def test_non_spillable_operator_fails_fast_despite_spill(
            self, orders_database):
        # a data-dependent natural join (on=None) has no spill form: even
        # with spilling enabled, a blown budget must fail fast
        expression = NaturalJoin(
            RelationRef("orders"),
            Rename(Projection(RelationRef("orders"), ["order_id", "region"]),
                   {"region": "r2"}))
        with pytest.raises(MemoryBudgetExceeded):
            orders_database.execute(expression,
                                    memory_budget=10_000, spill=True)

    def test_product_fails_fast(self, orders_database):
        # the big side goes on the right: Product materializes its right
        # input, so 2500 distinct order ids must be held at once
        expression = Product(
            Projection(RelationRef("orders"), ["region"]),
            Rename(Projection(RelationRef("orders"), ["order_id"]),
                   {"order_id": "oid2"}))
        with pytest.raises(MemoryBudgetExceeded):
            orders_database.execute(expression, memory_budget=5_000)


# -- database integration --------------------------------------------------------------------


class TestDatabaseGovernance:
    def test_timeout_raises_and_is_observed(self, orders_database):
        registry = orders_database.metrics_registry
        executed = registry.counter("queries.executed").value
        timeouts = registry.counter("queries.timeout").value
        with pytest.raises(QueryTimeout):
            orders_database.execute(spill_corpus()["aggregate"][0],
                                    timeout=0.000001)
        assert registry.counter("queries.timeout").value == timeouts + 1
        assert registry.counter("queries.executed").value == executed
        entry = orders_database.slow_query_log.entries()[-1]
        assert entry.note == "terminated: timeout"

    def test_cancel_token_fires_and_is_observed(self, orders_database):
        registry = orders_database.metrics_registry
        executed = registry.counter("queries.executed").value
        cancelled = registry.counter("queries.cancelled").value
        token = CancelToken()
        token.cancel("user pressed ^C")
        with pytest.raises(QueryCancelled, match="user pressed"):
            orders_database.execute(RelationRef("orders"), cancel_token=token)
        assert registry.counter("queries.cancelled").value == cancelled + 1
        assert registry.counter("queries.executed").value == executed
        entry = orders_database.slow_query_log.entries()[-1]
        assert entry.note == "terminated: cancelled"
        # ... and leaves no governor state: the next, ungoverned query runs
        # to completion without one
        result = orders_database.execute(RelationRef("orders"))
        assert result.context.governor is None
        assert len(result.tuples) == 2500

    def test_memory_exceeded_is_observed(self, orders_database):
        registry = orders_database.metrics_registry
        before = registry.counter("queries.memory_exceeded").value
        with pytest.raises(MemoryBudgetExceeded):
            orders_database.execute(spill_corpus()["aggregate"][0],
                                    memory_budget=10_000, spill=False)
        assert registry.counter("queries.memory_exceeded").value == before + 1
        entry = orders_database.slow_query_log.entries()[-1]
        assert entry.note == "terminated: memory_exceeded"

    def test_each_termination_counts_exactly_once(self, orders_database):
        """Satellite: timeout/cancel entries never double-count."""
        registry = orders_database.metrics_registry
        log_total = orders_database.slow_query_log.total
        timeouts = registry.counter("queries.timeout").value
        cancelled = registry.counter("queries.cancelled").value
        with pytest.raises(QueryTimeout):
            orders_database.execute(spill_corpus()["aggregate"][0],
                                    timeout=0.000001)
        # a timeout is raised as a cancellation subclass but must be counted
        # only under queries.timeout, and exactly one log entry appears
        assert registry.counter("queries.timeout").value == timeouts + 1
        assert registry.counter("queries.cancelled").value == cancelled
        assert orders_database.slow_query_log.total == log_total + 1

    def test_spilling_query_succeeds_and_counts_as_executed(self):
        database = analytics_database(count=2500, seed=13)
        registry = database.metrics_registry
        executed = registry.counter("queries.executed").value
        result = database.execute(spill_corpus()["aggregate"][0],
                                  memory_budget=15_000)
        baseline = database.execute(spill_corpus()["aggregate"][0])
        assert set(result.tuples) == set(baseline.tuples)
        assert registry.counter("queries.executed").value == executed + 2
        assert registry.counter("spill.segments").value > 0
        assert registry.counter("spill.records").value > 0
        assert registry.counter("spill.events").value > 0

    def test_spill_counters_reach_prometheus_export(self):
        database = analytics_database(count=2500, seed=13)
        database.execute(spill_corpus()["aggregate"][0], memory_budget=15_000)
        text = database.prometheus_metrics()
        assert "repro_spill_segments_total" in text
        assert "repro_spill_records_total" in text

    def test_database_wide_defaults_apply(self):
        from repro.workloads.analytics import (
            generate_orders,
            orders_domains,
            orders_scheme,
        )

        database = Database(memory_budget=1, spill=False)
        database.create_table("t", orders_scheme(), domains=orders_domains(),
                              key=["order_id"])
        database.insert_many("t", generate_orders(50, seed=1))
        with pytest.raises(MemoryBudgetExceeded):
            database.execute(Sort(RelationRef("t"), keys=("order_id",)))
        # per-query override wins over the database default
        result = database.execute(Sort(RelationRef("t"), keys=("order_id",)),
                                  memory_budget=1 << 30)
        assert len(result.tuples) == 50
        # a deadline is only ever per query
        with pytest.raises(QueryTimeout):
            database.execute(Sort(RelationRef("t"), keys=("order_id",)),
                             memory_budget=1 << 30, timeout=0.000001)

    def test_naive_executor_rejects_governance(self, orders_database):
        with pytest.raises(CatalogError, match="naive evaluator"):
            orders_database.execute(RelationRef("orders"), executor="naive",
                                    timeout=1.0)
        with pytest.raises(CatalogError, match="naive evaluator"):
            orders_database.execute(RelationRef("orders"), executor="naive",
                                    memory_budget=1000)

    def test_ungoverned_execution_has_no_governor(self, orders_database):
        result = orders_database.execute(RelationRef("orders"))
        assert result.context.governor is None

    def test_admission_arguments_are_a_type_error(self, orders_database):
        """The admission front door is gone without a compatibility path."""
        with pytest.raises(TypeError):
            Database(admission=object())
        with pytest.raises(TypeError):
            orders_database.execute(RelationRef("orders"), query_class="batch")
        with pytest.raises(TypeError):
            orders_database.query("SELECT order_id FROM orders",
                                  query_class="batch")
