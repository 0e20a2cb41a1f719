"""Unit tests for the batch execution layer and sampling-based ANALYZE.

The differential safety net lives in ``tests/test_exec_parity.py``; this module
pins down the pieces in isolation: :class:`~repro.model.batches.TupleBatch`
edge cases, predicate/guard compilation semantics, operator counters,
plan-cache accounting, reservoir sampling with GEE scale-up, and the
auto-ANALYZE policy.
"""

import pytest

from repro.algebra import (
    Evaluator,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
)
from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    PresencePredicate,
    TruePredicate,
)
from repro.engine import Database, dumps_database, loads_database
from repro.errors import TupleError
from repro.exec import (
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    TARGET_BATCH_CELLS,
    CompiledGuard,
    CompiledPredicate,
    ExecutionContext,
    FilterOp,
    HashJoin,
    IndexLookupJoin,
    PhysicalPlanner,
    ProjectOp,
    Scan,
    adaptive_batch_size,
)
from repro.exec.planner import PhysicalPlan
from repro.model.batches import (
    LazyBatch,
    MISSING,
    TupleBatch,
    mask_indices,
    merge_values,
)
from repro.model.tuples import FlexTuple
from repro.optimizer.cost import CostModel
from repro.stats import estimate_ndv, reservoir_sample
from repro.workloads.employees import generate_employees
from repro.workloads.events import generate_events, skewed_join_database


def _tuples(*dicts):
    return [FlexTuple(d) for d in dicts]


VARIANTS = _tuples(
    {"id": 1, "kind": "a", "x": 10},
    {"id": 2, "kind": "b"},
    {"id": 3, "kind": "a", "x": 30, "y": "hi"},
    {"id": 4, "y": "lo"},
)


class TestTupleBatch:
    def test_empty_batch(self):
        batch = TupleBatch([])
        assert len(batch) == 0 and not batch
        assert batch.column("x") == []
        assert batch.presence_mask(["x"]) == 0 == batch.full_mask
        assert batch.take([]).rows == []

    def test_column_values_and_missing(self):
        batch = TupleBatch(list(VARIANTS))
        values = batch.column("x")
        assert values[0] == 10 and values[1] is MISSING
        assert values[2] == 30 and values[3] is MISSING

    def test_presence_masks(self):
        batch = TupleBatch(list(VARIANTS))
        assert batch.column_mask("kind") == 0b0111
        assert batch.presence_mask(["kind", "x"]) == 0b0101
        assert batch.presence_mask([]) == batch.full_mask
        assert batch.presence_mask(["nope"]) == 0

    def test_take_and_interop(self):
        batch = TupleBatch(list(VARIANTS))
        taken = batch.take([0, 2])
        assert [t["id"] for t in taken] == [1, 3]
        # Iteration and len are all a materializing operator needs.
        assert len(taken) == 2 and set(taken) == {VARIANTS[0], VARIANTS[2]}
        assert TupleBatch.of(taken) is taken
        assert TupleBatch.of([VARIANTS[0]]).rows == [VARIANTS[0]]

    def test_mask_indices(self):
        assert mask_indices(0) == []
        assert mask_indices(0b1011) == [0, 1, 3]


class TestCompiledPredicates:
    def batch(self):
        return TupleBatch(list(VARIANTS))

    def select(self, predicate):
        return CompiledPredicate(predicate).select(self.batch())

    def test_comparison_missing_is_false(self):
        assert self.select(Comparison("x", ">", 5)) == [0, 2]
        assert self.select(Comparison("x", ">", 20)) == [2]

    def test_mixed_type_column_typeerror_is_false(self):
        rows = _tuples({"id": 1, "v": 5}, {"id": 2, "v": "five"}, {"id": 3, "v": 7})
        compiled = CompiledPredicate(Comparison("v", ">=", 6))
        assert compiled.select(TupleBatch(rows)) == [2]

    def test_constant_folding(self):
        assert self.select(TruePredicate()) == [0, 1, 2, 3]
        assert self.select(FalsePredicate()) == []
        assert self.select(And(Comparison("x", ">", 5), FalsePredicate())) == []
        assert CompiledPredicate(TruePredicate())._passes == []

    def test_conjunction_narrows_sequentially(self):
        predicate = And(Comparison("kind", "=", "a"), Comparison("x", ">=", 30))
        assert self.select(predicate) == [2]

    def test_or_not_and_presence(self):
        assert self.select(Or(Comparison("kind", "=", "b"),
                              PresencePredicate(["y"]))) == [1, 2, 3]
        assert self.select(Not(Comparison("kind", "=", "a"))) == [1, 3]
        assert self.select(PresencePredicate(["kind", "x"])) == [0, 2]

    def test_in_and_attribute_comparison(self):
        assert self.select(Comparison("id", "in", [2, 4])) == [1, 3]
        rows = _tuples({"a": 1, "b": 2}, {"a": 3, "b": 3}, {"a": 5})
        compiled = CompiledPredicate(AttributeComparison("a", "=", "b"))
        assert compiled.select(TupleBatch(rows)) == [1]

    def test_unknown_predicate_subclass_falls_back_to_evaluate(self):
        class OddId(Predicate):
            def evaluate(self, tup):
                return tup.get("id", 0) % 2 == 1

            @property
            def attributes(self):
                from repro.model.attributes import AttributeSet
                return AttributeSet()

        assert self.select(OddId()) == [0, 2]

    def test_matches_interpreted_evaluation(self):
        predicates = [
            Comparison("x", "<=", 10), Comparison("kind", "!=", "a"),
            Or(Comparison("x", "=", 30), Not(PresencePredicate(["kind"]))),
            And(PresencePredicate(["kind"]), Comparison("id", "<", 4)),
        ]
        batch = self.batch()
        for predicate in predicates:
            expected = [i for i, tup in enumerate(VARIANTS) if predicate.evaluate(tup)]
            assert CompiledPredicate(predicate).select(batch) == expected

    def test_compiled_guard(self):
        batch = self.batch()
        assert CompiledGuard(["kind"]).select(batch) == [0, 1, 2]
        assert CompiledGuard(["kind", "y"]).select(batch) == [2]
        assert CompiledGuard(["kind"]).select(batch, [1, 3]) == [1]


@pytest.fixture
def source():
    employees = {FlexTuple(row) for row in generate_employees(90, seed=3)}
    assignments = {FlexTuple({"emp_id": i, "project": "p{}".format(i % 4)})
                   for i in range(1, 70)}
    return {"employees": employees, "assignments": assignments}


def _run(root, source, batch_size=64, use_indexes=True):
    return PhysicalPlan(root).execute(source, batch_size=batch_size,
                                      use_indexes=use_indexes)


class TestBatchOperators:
    def test_all_guard_filtered_batches_yield_nothing(self, source):
        result = _run(Scan("assignments", guard=["typing_speed"]), source)
        assert result.tuples == set()

    def test_variant_records_missing_join_attribute_are_partitioned_out(self, source):
        # typing_speed exists only on secretaries; everyone else must be skipped
        # as a guard check, not a join pair.
        root = HashJoin(Scan("employees"), Scan("employees"),
                             on=["emp_id", "typing_speed"])
        result = _run(root, source)
        naive = Evaluator(source).evaluate(
            NaturalJoin(RelationRef("employees"), RelationRef("employees"),
                        on=["emp_id", "typing_speed"]))
        assert result.tuples == naive.tuples
        assert result.stats.guard_checks == 180  # both sides fully checked

    def test_batch_hash_join_needs_static_attributes(self):
        with pytest.raises(Exception):
            HashJoin(Scan("a"), Scan("b"), on=None)

    def test_batch_project_deduplicates_and_drops_empty(self, source):
        result = _run(ProjectOp(Scan("employees"), ["jobtype"]), source)
        naive = Evaluator(source).evaluate(Projection(RelationRef("employees"),
                                                      ["jobtype"]))
        assert result.tuples == naive.tuples

    def test_batch_size_one(self, source):
        root = FilterOp(Scan("employees"), Comparison("jobtype", "=", "salesman"))
        small = _run(root, source, batch_size=1)
        big = _run(root, source, batch_size=4096)
        assert small.tuples == big.tuples

    def test_index_lookup_join_with_and_without_index(self):
        database = skewed_join_database(big=300, small=60, rare_every=30)
        root = IndexLookupJoin(
            Scan("events", predicate=Comparison("kind", "=", "audit")),
            "sessions", on=["event_id"])
        with_index = _run(root, database, use_indexes=True)
        degraded = _run(root, database, use_indexes=False)
        naive = Evaluator(database).evaluate(
            NaturalJoin(Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
                        RelationRef("sessions"), on=["event_id"]))
        assert with_index.tuples == degraded.tuples == naive.tuples
        # The maintained index never scans the inner relation.
        assert with_index.stats.tuples_scanned < degraded.stats.tuples_scanned


class TestModeExposure:
    def test_scan_pushdown_preserves_batch_class(self, source):
        plan = PhysicalPlanner(source=source).plan(
            TypeGuardNode(Selection(RelationRef("employees"),
                                    Comparison("jobtype", "=", "secretary")),
                          ["typing_speed"]))
        assert isinstance(plan.root, Scan)
        assert plan.root.predicate is not None and plan.root.guard is not None


class TestPlanCacheCounters:
    def test_hit_miss_properties_and_info(self, employee_database):
        # Fresh statistics keep the estimates accurate, so no cardinality
        # feedback is recorded and the cache key stays stable across runs.
        employee_database.analyze()
        executor = employee_database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 1.0))
        base_misses = executor.cache_misses
        employee_database.execute(query)
        employee_database.execute(query)
        assert executor.cache_misses == base_misses + 1
        assert executor.cache_hits >= 1
        info = executor.cache_info()
        assert info["hits"] == executor.cache_hits
        assert info["misses"] == executor.cache_misses
        assert info["size"] >= 1 and info["max_size"] >= info["size"]


class TestLazyBatches:
    """Lazy merged join output: tuples materialize only when a materializing
    operator (or the result set) touches them."""

    def join_plan(self, source):
        return PhysicalPlanner(source=source).plan(
            NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                        on=["emp_id"]))

    def test_join_emits_lazy_batches(self, source):
        plan = self.join_plan(source)
        batches = list(plan.root.run(
            ExecutionContext(source, batch_size=4096)))
        assert batches and all(isinstance(b, LazyBatch) for b in batches)
        assert not any(b.materialized for b in batches)
        # Column access answers from the merged value dicts, still lazily.
        assert MISSING not in batches[0].column("project")
        assert not batches[0].materialized
        # Iteration (what the result collector does) materializes.
        rows = list(batches[0])
        assert all(isinstance(row, FlexTuple) for row in rows)
        assert batches[0].materialized

    def test_filter_on_lazy_batch_narrows_without_materializing(self, source):
        batch = LazyBatch([{"emp_id": i, "project": "p{}".format(i % 4)}
                           for i in range(20)])
        compiled = CompiledPredicate(Comparison("project", "=", "p1"))
        narrowed = batch.take(compiled.select(batch))
        assert isinstance(narrowed, LazyBatch) and len(narrowed) == 5
        assert not batch.materialized and not narrowed.materialized

    def test_lazy_rows_equal_eager_construction(self):
        values = {"a": 1, "b": "x"}
        lazy = LazyBatch([dict(values)]).rows[0]
        assert lazy == FlexTuple(values)
        assert hash(lazy) == hash(FlexTuple(values))

    def test_merge_values_conflict_raises_eagerly(self):
        with pytest.raises(TupleError):
            merge_values({"a": 1, "b": 2}, {"a": 1, "b": 3})
        assert merge_values({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}
        # the right value is kept on agreement, exactly as FlexTuple.merge
        merged = merge_values({"a": 1, "c": 0}, {"a": 1.0, "b": 2})
        row_merged = FlexTuple({"a": 1, "c": 0}).merge(FlexTuple({"a": 1.0, "b": 2}))
        assert repr(merged["a"]) == repr(row_merged["a"]) == "1.0"


class TestAdaptiveBatchSizing:
    def test_heuristic_bounds(self):
        assert adaptive_batch_size(8.0) == TARGET_BATCH_CELLS // 8
        assert adaptive_batch_size(1.0) == MAX_BATCH_SIZE
        assert adaptive_batch_size(1000.0) == MIN_BATCH_SIZE

    def test_tiny_inputs_get_one_batch(self):
        # 300 rows would be split by the width-derived size of a wide tuple;
        # the heuristic widens to a single batch instead.
        assert adaptive_batch_size(64.0, base_rows=300) == 300
        assert adaptive_batch_size(64.0, base_rows=100_000) == TARGET_BATCH_CELLS // 64

    def test_width_estimate_prefers_statistics(self):
        database = skewed_join_database(big=400, small=40)
        model = CostModel(database)
        declared = model.estimate_width(RelationRef("events"))
        assert declared == 4.0  # the scheme universe
        database.analyze()
        observed = CostModel(database).estimate_width(RelationRef("events"))
        assert observed == pytest.approx(3.0)  # every variant carries 3 attrs

    def test_plan_carries_adaptive_size_and_override(self, source):
        expression = Selection(RelationRef("employees"),
                               Comparison("salary", ">", 0.0))
        plan = PhysicalPlanner(source=source).plan(expression)
        assert plan.batch_size is not None
        assert MIN_BATCH_SIZE <= plan.batch_size <= MAX_BATCH_SIZE
        pinned = PhysicalPlanner(source=source).plan(expression, batch_size=7)
        assert pinned.batch_size == 7

    def test_database_batch_size_passthrough(self, employee_database):
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 0.0))
        plan = employee_database.plan(query, batch_size=5)
        assert plan.batch_size == 5
        result = employee_database.execute(query, batch_size=5)
        adaptive = employee_database.execute(query)
        assert result.tuples == adaptive.tuples
        assert "batch_size=" in employee_database.explain(query)

    def test_plan_cache_keyed_on_batch_size(self, employee_database):
        """A plan built (and sized) for one batch size must not be reused for
        another — the PR 3 cache reused it regardless of the request."""
        employee_database.analyze()  # accurate estimates → no feedback re-plan
        executor = employee_database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 3.0))
        employee_database.execute(query)
        misses = executor.cache_misses
        employee_database.execute(query, batch_size=32)
        assert executor.cache_misses == misses + 1
        assert employee_database.plan(query, batch_size=32).batch_size == 32
        hits = executor.cache_hits
        employee_database.execute(query, batch_size=32)
        employee_database.execute(query)
        assert executor.cache_hits == hits + 2


class TestSamplingAnalyze:
    def events_database(self, big=5000):
        database = Database(enforce_constraints=False)
        from repro.workloads.events import events_scheme
        table = database.create_table("events", events_scheme(), key=["event_id"])
        table.insert_many(generate_events(big, rare_every=100))
        return database

    def test_reservoir_sample_counts_and_bounds(self):
        sample, total = reservoir_sample(range(1000), 64, seed=7)
        assert total == 1000 and len(sample) == 64
        assert set(sample) <= set(range(1000))
        again, _ = reservoir_sample(range(1000), 64, seed=7)
        assert sample == again  # deterministic under one seed

    def test_reservoir_smaller_input_is_exact(self):
        sample, total = reservoir_sample(range(10), 64)
        assert total == 10 and sample == list(range(10))

    def test_gee_estimator(self):
        # All-singleton sample: scale by sqrt(n/r).
        assert estimate_ndv(100, 100, 100, 400) == 200
        # No singletons: the sample already saw every heavy value.
        assert estimate_ndv(3, 0, 1000, 100000) == 3
        # Clamped into [d, n].
        assert estimate_ndv(10, 10, 10, 10) == 10

    def test_sampled_analyze_scales_to_true_cardinality(self):
        database = self.events_database()
        statistics = database.analyze("events", sample_size=1000)
        assert statistics.sampled and statistics.sample_rows == 1000
        assert statistics.row_count == 5000  # the sampling pass still counts exactly
        # The 1% audit tag frequency survives the scale-up approximately.
        audit_fraction = statistics.guard_selectivity(["clearance"])
        assert abs(audit_fraction - 0.01) < 0.02
        # kind has 3 heavy values -> GEE keeps the exact small NDV;
        # event_id is unique -> GEE scales well above the sample size.
        assert statistics.ndv("kind") == 3
        assert 1000 < statistics.ndv("event_id") <= 5000
        presence = statistics.attribute("payload").presence
        assert abs(presence - 0.99) < 0.03

    def test_one_shot_iterable_below_threshold_reads_once_and_exactly(self):
        from repro.stats import analyze_table
        rows = iter(_tuples({"a": 1}, {"a": 2, "b": 3}, {"a": 2}))
        statistics = analyze_table(rows, sample_size=100)
        assert not statistics.sampled
        assert statistics.row_count == 3
        assert statistics.ndv("a") == 2
        assert statistics.attribute("b").present_count == 1

    def test_tables_below_threshold_stay_exact(self):
        database = self.events_database(big=200)
        statistics = database.analyze("events", sample_size=1000)
        assert not statistics.sampled and statistics.sample_rows is None
        assert statistics.row_count == 200
        assert statistics.ndv("event_id") == 200

    def test_sampled_statistics_drive_the_planner(self):
        database = skewed_join_database(big=2000, small=200, rare_every=100)
        database.analyze(sample_size=500)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"])
        assert isinstance(database.plan(query, optimize=False).root, IndexLookupJoin)

    def test_sampled_flag_survives_serialization(self):
        database = self.events_database(big=2000)
        database.analyze(sample_size=500)
        loaded = loads_database(dumps_database(database))
        restored = loaded.stats("events")
        assert restored is not None and restored.sampled
        assert restored.row_count == 2000


class TestAutoAnalyze:
    def small_database(self, **kwargs):
        database = Database(enforce_constraints=False, **kwargs)
        from repro.workloads.events import events_scheme
        database.create_table("events", events_scheme(), key=["event_id"])
        database.insert_many("events", generate_events(50))
        return database

    def test_off_by_default(self):
        database = self.small_database()
        database.analyze("events")
        for event_id in range(51, 70):
            database.insert("events", {"event_id": event_id, "kind": "click",
                                       "payload": 1})
        assert not database.statistics.is_fresh("events")

    def test_re_analyze_after_ten_percent_mutations(self):
        database = self.small_database(auto_analyze=True)
        database.analyze("events")
        for event_id in range(51, 55):  # 4 mutations: below the 10% threshold
            database.insert("events", {"event_id": event_id, "kind": "click",
                                       "payload": 1})
        assert not database.statistics.is_fresh("events")
        database.insert("events", {"event_id": 55, "kind": "click", "payload": 1})
        assert database.statistics.is_fresh("events")  # 5th mutation re-analyzed
        assert database.stats("events").row_count == 55

    def test_never_analyzed_tables_are_left_alone(self):
        database = self.small_database(auto_analyze=True)
        for event_id in range(51, 80):
            database.insert("events", {"event_id": event_id, "kind": "view",
                                       "payload": 2})
        assert database.stats("events") is None

    def test_auto_analyze_reuses_sample_size(self):
        database = self.small_database(auto_analyze=True)
        database.insert_many("events", generate_events(3000)[50:])
        database.analyze("events", sample_size=400)
        for event_id in range(3001, 3301):  # exactly the 10% threshold
            database.insert("events", {"event_id": event_id, "kind": "click",
                                       "payload": 1})
        statistics = database.stats("events")
        assert database.statistics.is_fresh("events")
        assert statistics.sampled and statistics.sample_rows == 400
