"""PR 7: the actionable observability layer — feedback, watchdog, memory, export.

Covers the cardinality-feedback store's lifecycle (recording thresholds, LRU
bounds, stranding by the statistics version, non-persistence), the
feedback-driven re-planning arc on the aged-statistics star workload (including parity of
the corrected plan with the naive evaluator), the plan-regression watchdog, per-operator
memory accounting in ``explain_analyze``, and the Prometheus / JSON exporters
(round-trip parsed, families verified).
"""

import json
from itertools import count

import pytest

from repro.algebra.evaluator import ExecutionStats
from repro.algebra.expressions import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine import Table
from repro.engine.serialization import dumps_database, loads_database
from repro.exec import IndexLookupJoin, PhysicalPlanner
from repro.obs.explain import pair_nodes_with_stats
from repro.obs.export import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    json_snapshot,
    prometheus_text,
)
from repro.obs.feedback import (
    QERROR_THRESHOLD,
    CardinalityFeedback,
    attribute_carriers,
    expression_key,
    referenced_tables,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.profiler import CAPACITY, REGRESSION_FACTOR, PlanWatchdog
from repro.workloads.events import skewed_join_database
from repro.workloads.star import aged_star_database, star_join_database, star_join_query


@pytest.fixture()
def stale_star():
    """A small star database whose ``dim_rare`` statistics aged into a
    mis-estimate (:func:`~repro.workloads.star.aged_star_database`)."""
    return aged_star_database(fact_rows=1000)


def rare_selection():
    return Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare"))


class TestFingerprints:
    def test_referenced_tables_walks_the_tree(self):
        query = star_join_query()
        assert referenced_tables(query) == frozenset(
            {"fact", "dim_small", "dim_a", "dim_b", "dim_c", "dim_rare"})

    def test_expression_key_is_structural(self):
        assert expression_key(rare_selection()) == expression_key(rare_selection())
        other = Selection(RelationRef("dim_rare"),
                          Comparison("kind", "=", "common"))
        assert expression_key(rare_selection()) != expression_key(other)

    def test_attribute_carriers_filters_by_scheme(self, stale_star):
        tables = {"fact", "dim_small", "dim_rare"}
        assert attribute_carriers(stale_star, tables, "dr") == frozenset(
            {"fact", "dim_rare"})
        assert attribute_carriers(stale_star, tables, "ds") == frozenset(
            {"fact", "dim_small"})
        assert attribute_carriers(stale_star, {"nonexistent"}, "dr") == frozenset()


class TestCardinalityFeedbackStore:
    def test_record_and_lookup_bump_version_once(self):
        store = CardinalityFeedback()
        fingerprint = expression_key(rare_selection())
        assert store.record(fingerprint, 3, 50) is True
        version = store.version
        # An identical re-observation refreshes recency without churn.
        assert store.record(fingerprint, 3, 50) is False
        assert store.version == version
        assert store.lookup(fingerprint, 3) == 50
        # A different statistics version is a different regime: no answer.
        assert store.lookup(fingerprint, 4) is None

    def test_changed_observation_bumps_version(self):
        store = CardinalityFeedback()
        store.record(("select", "x"), 1, 10)
        version = store.version
        store.record(("select", "x"), 1, 99)
        assert store.version > version
        assert store.lookup(("select", "x"), 1) == 99

    def test_lru_eviction_is_bounded(self):
        store = CardinalityFeedback(capacity=3)
        for index in range(5):
            store.record(("select", index), 1, index)
        assert len(store._entries) == 3
        assert store.evictions == 2
        # The oldest entries fell out; the newest survive.
        assert store.lookup(("select", 0), 1) is None
        assert store.lookup(("select", 4), 1) == 4

    def test_edge_tolerance_absorbs_jitter(self):
        store = CardinalityFeedback()
        assert store.record_edge("dr", {"fact", "dim_rare"}, 1, 0.0010) is True
        version = store.version
        # Within 5% relative: recency refresh only.
        assert store.record_edge("dr", {"fact", "dim_rare"}, 1, 0.00102) is False
        assert store.version == version
        # A real shift re-records and re-plans.
        assert store.record_edge("dr", {"fact", "dim_rare"}, 1, 0.002) is True
        assert store.version > version
        assert store.lookup_edge("dr", {"fact", "dim_rare"}, 1) == 0.002

    def test_clear_empties_both_stores(self):
        store = CardinalityFeedback()
        store.record(("select", "a"), 1, 10)
        store.record_edge("x", {"t"}, 1, 0.5)
        store.clear()
        assert len(store) == 0

    def test_as_dict_shape(self):
        store = CardinalityFeedback()
        store.record(("select", "a"), 1, 10)
        snapshot = store.as_dict()
        assert snapshot["entries"] == 1 and snapshot["edges"] == 0
        assert set(snapshot) == {"entries", "edges", "capacity", "version",
                                 "hits", "misses", "evictions"}


class TestFeedbackLifecycle:
    def test_mis_estimate_records_accurate_does_not(self, stale_star):
        # The aged most-common value mis-prices σ(dim_rare) — recorded.
        stale_star.execute(star_join_query(), optimize=False)
        assert len(stale_star.cardinality_feedback) > 0

        fresh = star_join_database(fact_rows=600)
        fresh.analyze()
        fresh.execute(star_join_query(), optimize=False)
        # Fresh statistics estimate well (Q-error < threshold): no feedback,
        # no version churn, plan cache stays hot.
        assert QERROR_THRESHOLD == 2.0
        assert len(fresh.cardinality_feedback) == 0
        fresh.execute(star_join_query(), optimize=False)
        assert fresh.physical_executor.cache_hits >= 1

    def test_dml_on_observed_table_invalidates(self, stale_star):
        """Below the drift threshold DML keeps the observations; past it the
        statistics version moves and strands them."""
        stale_star.execute(star_join_query(), optimize=False)
        store = stale_star.cardinality_feedback
        fingerprint = expression_key(rare_selection())
        version = stale_star.statistics_version
        assert store.lookup(fingerprint, version) is not None
        rare = stale_star.table("dim_rare")
        rare.insert({"dr": 5001, "kind": "common"})
        assert stale_star.statistics_version == version
        assert store.lookup(fingerprint, stale_star.statistics_version) is not None
        # 0.1 of the 1000 rows at ANALYZE
        rare.insert_many({"dr": 5001 + i, "kind": "common"} for i in range(1, 101))
        assert stale_star.statistics_version > version
        assert store.lookup(fingerprint, stale_star.statistics_version) is None

    def test_analyze_strands_old_observations(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        store = stale_star.cardinality_feedback
        old_version = stale_star.statistics.version
        fingerprint = expression_key(rare_selection())
        assert store.lookup(fingerprint, old_version) is not None
        stale_star.analyze()
        # Keys embed the statistics version: the fresh regime starts clean.
        assert store.lookup(fingerprint, stale_star.statistics.version) is None

    def test_feedback_is_never_persisted(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        assert len(stale_star.cardinality_feedback) > 0
        text = dumps_database(stale_star)
        assert "feedback" not in json.loads(text)
        reloaded = loads_database(text)
        assert len(reloaded.cardinality_feedback) == 0

    def test_feedback_version_in_plan_cache_key(self, stale_star):
        """The version is *not* in the key any more: a plan depends on the
        feedback its costing read — hits and misses — and on nothing else."""
        executor = stale_star.physical_executor
        query = star_join_query()
        stale_star.execute(query, optimize=False)   # records corrections
        stale_star.execute(query, optimize=False)   # re-plans once: it priced them
        misses_after_replan = executor.cache_misses
        assert misses_after_replan == 2
        stale_star.execute(query, optimize=False)   # steady state: cache hit
        assert executor.cache_misses == misses_after_replan
        assert executor.cache_hits >= 1
        # feedback nobody priced — another query's node, an edge on an
        # attribute this query does not join on — evicts nothing
        store = stale_star.cardinality_feedback
        store.record(("select", "elsewhere"), stale_star.statistics_version, 7)
        store.record_edge("elsewhere", {"dim_a", "dim_b"},
                          stale_star.statistics_version, 0.5)
        stale_star.execute(query, optimize=False)
        assert executor.cache_misses == misses_after_replan
        # feedback on an edge the plan priced does
        store.record_edge("da", {"fact", "dim_a"},
                          stale_star.statistics_version, 0.25)
        stale_star.execute(query, optimize=False)
        assert executor.cache_misses == misses_after_replan + 1

    def test_first_observation_of_a_looked_up_key_replans(self, stale_star):
        """A miss is a dependency too: the plan was costed *without* the
        observation, so its first appearance must re-plan."""
        executor = stale_star.physical_executor
        query = rare_selection()
        stale_star.execute(query, optimize=False)   # aged 100% vs 2.5%: recorded
        (plan,) = executor.cache._plans.values()
        assert plan.feedback_reads and set(plan.feedback_reads.values()) == {None}
        assert len(stale_star.cardinality_feedback) == 1
        stale_star.execute(query, optimize=False)
        assert executor.cache_misses == 2
        stale_star.execute(query, optimize=False)
        assert executor.cache_misses == 2

    def test_zero_and_one_row_do_not_ping_pong(self):
        """0.05 rows estimated, 0 or 1 found: nothing to correct (the gauge
        still reports the raw, infinite Q-error)."""
        database = star_join_database(fact_rows=600)
        database.analyze()
        fact = Selection(RelationRef("fact"), Comparison("fact_id", "=", 10**6))
        for _ in range(3):
            assert database.execute(fact, optimize=False).tuples == set()
        assert len(database.cardinality_feedback) == 0
        assert database.cardinality_feedback.version == 0
        gauges = database.metrics()["metrics"]
        assert gauges["qerror.batch-scan"]["max"] > QERROR_THRESHOLD


class TestFeedbackCorrectsJoinOrder:
    def test_second_run_examines_far_fewer_pairs(self, stale_star):
        query = star_join_query()
        first = stale_star.execute(query, optimize=False)
        second = stale_star.execute(query, optimize=False)
        assert first.tuples == second.tuples
        assert (first.stats.join_pairs_considered
                >= 5 * second.stats.join_pairs_considered)

    def test_corrected_plan_parity_with_naive(self, stale_star):
        query = star_join_query()
        stale_star.execute(query, optimize=False)  # observe the bad order once
        corrected = stale_star.execute(query, optimize=False)
        naive = stale_star.execute(query, optimize=False, executor="naive")
        assert corrected.tuples == naive.tuples

    def test_plan_change_is_watched(self, stale_star):
        query = star_join_query()
        stale_star.execute(query, optimize=False)
        assert stale_star.plan_watchdog.as_dict()["plan_changes"] == 0
        stale_star.execute(query, optimize=False)
        changes = stale_star.plan_watchdog.plan_changes()
        assert len(changes) == 1
        before = changes[0]["before"]["operators"]
        after = changes[0]["after"]["operators"]
        assert before != after
        assert any("dim_rare" in operator for operator in after)


def _stats(scanned, pairs=0, rows=1):
    """The ``ExecutionStats`` of a run that read ``scanned`` rows, examined
    ``pairs`` join pairs and returned ``rows`` rows."""
    stats = ExecutionStats()
    stats.tuples_scanned, stats.join_pairs_considered = scanned, pairs
    stats.tuples_produced = rows
    return stats


class TestPlanWatchdog:
    def test_regression_needs_a_baseline_first(self):
        watchdog = PlanWatchdog()
        # the first run sets the baseline; more work on the same plan (the
        # data grew) is no verdict on the plan
        for scanned in (10, 100, 1000):
            change, regression = watchdog.observe("q1", ("plan-a",),
                                                  {"operators": ["a"]}, _stats(scanned))
            assert change is None and regression is None
        # a new plan that does 10× the last run's work is a regression
        change, regression = watchdog.observe("q1", ("plan-b",),
                                              {"operators": ["b"]}, _stats(10_000))
        assert change["baseline_work"] == 1000
        assert regression["work"] == 10_000 and regression["factor"] == 10.0
        assert regression["plan_change"] is change
        # the next run of that plan is judged against nothing: no second event
        assert watchdog.observe("q1", ("plan-b",), {"operators": ["b"]},
                                _stats(50_000)) == (None, None)
        assert watchdog.as_dict() == {"tracked_queries": 1, "plan_changes": 1,
                                      "regressions": 1}

    def test_plan_flip_is_attributed_as_suspect(self):
        watchdog = PlanWatchdog()
        watchdog.observe("q1", ("plan-a",), {"operators": ["a"]},
                         _stats(40, pairs=60, rows=10))       # work 10 a row
        change, regression = watchdog.observe(
            "q1", ("plan-b",), {"operators": ["b"]}, _stats(300, pairs=900, rows=40))
        assert change == {"event": "plan-change", "before": {"operators": ["a"]},
                          "after": {"operators": ["b"]}, "baseline_work": 10.0}
        assert regression == {"event": "plan-regression", "work": 30.0,
                              "baseline_work": 10.0, "factor": 3.0,
                              "plan_change": change}
        assert watchdog._baselines["q1"].work == 30.0

    def test_a_plan_change_that_saves_work_or_stays_within_the_factor_is_no_regression(self):
        watchdog = PlanWatchdog()
        watchdog.observe("q", ("a",), {}, _stats(1000))
        change, regression = watchdog.observe("q", ("b",), {}, _stats(10))
        assert change is not None and regression is None
        change, regression = watchdog.observe("q", ("c",), {},
                                              _stats(10 * REGRESSION_FACTOR))
        assert change is not None and regression is None
        # a run that returned nothing counts one row; one that scanned
        # nothing is no baseline to judge against
        watchdog.observe("q", ("c",), {}, _stats(0, rows=0))
        change, regression = watchdog.observe("q", ("d",), {}, _stats(500, rows=0))
        assert change["baseline_work"] == 0 and regression is None
        assert watchdog.regressions_seen == 0

    def test_capacity_bounds_tracked_queries(self):
        watchdog = PlanWatchdog()
        for index in range(CAPACITY + 2):
            watchdog.observe("q{}".format(index), ("p",), {}, _stats(1))
        assert watchdog.as_dict()["tracked_queries"] == CAPACITY
        assert "q0" not in watchdog._baselines and "q1" not in watchdog._baselines
        assert "q{}".format(CAPACITY + 1) in watchdog._baselines

    def test_capacity_bounds_the_event_lists(self):
        watchdog = PlanWatchdog()
        flips = CAPACITY + 5
        for index in range(flips + 1):   # the plan flips on every execution
            watchdog.observe("q", ("p", index), {"operators": [index]}, _stats(1))
        assert len(watchdog.plan_changes()) == CAPACITY
        assert watchdog.plan_changes_seen == flips
        assert watchdog.plan_changes()[-1]["after"] == {"operators": [flips]}
        watchdog.clear()
        assert watchdog.as_dict() == {"tracked_queries": 0, "plan_changes": 0,
                                      "regressions": 0}
        assert watchdog.plan_changes_seen == 0

    def test_a_clock_that_jumps_between_queries_is_no_regression(self, stale_star,
                                                                   monkeypatch):
        """The verdict reads the work, never the clock the database times
        queries with: each query here appears to take 16 times the last."""
        ticks = count()
        monkeypatch.setattr("repro.engine.database.perf_counter",
                            lambda: 4.0 ** next(ticks))
        sink = stale_star.tracer.attach()
        query = Selection(RelationRef("fact"), Comparison("dr", "=", 1))
        for _ in range(6):
            stale_star.execute(query)
        assert sink.named("plan-regression") == []
        assert stale_star.plan_watchdog.as_dict()["regressions"] == 0
        assert all(entry.note is None for entry in stale_star.slow_query_log.entries())
        (baseline,) = stale_star.plan_watchdog._baselines.values()
        assert baseline.executions == 6


class TestMemoryAccounting:
    def test_explain_analyze_shows_mem_on_stateful_operators(self, stale_star):
        rendered = str(stale_star.explain_analyze(star_join_query(),
                                                  optimize=False))
        join_lines = [line for line in rendered.splitlines()
                      if "join" in line or "actual_rows" in line]
        assert any("mem=" in line for line in join_lines)

    def test_memory_gauges_and_peak_histogram(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        metrics = stale_star.metrics()["metrics"]
        memory_gauges = {name: value for name, value in metrics.items()
                         if name.startswith("memory.")}
        assert memory_gauges
        assert all(value["max"] > 0 for value in memory_gauges.values())
        assert metrics["query.peak_bytes"]["count"] >= 1
        assert metrics["query.peak_bytes"]["max"] > 0


class TestExport:
    def test_prometheus_text_is_exact(self):
        """A fixed registry renders to exactly this exposition: a counter
        under its ``_total`` suffix, a histogram with cumulative buckets whose
        ``+Inf`` bucket equals ``_count``, and a max-gauge beside its
        observation counter (no gauge sample while nothing was observed)."""
        registry = MetricsRegistry()
        registry.counter("queries.executed").add(3)
        latency = registry.histogram("query.seconds", (0.5, 2.0))
        for seconds in (0.25, 1.0, 1.5, 9.0):
            latency.observe(seconds)
        peak = registry.max_gauge("memory.batch-sort")
        for size in (512, 2048, 1024):
            peak.observe(size)
        registry.max_gauge("memory.idle")
        assert prometheus_text(registry) == (
            "# TYPE repro_memory_batch_sort gauge\n"
            "repro_memory_batch_sort 2048.0\n"
            "# TYPE repro_memory_batch_sort_observations_total counter\n"
            "repro_memory_batch_sort_observations_total 3.0\n"
            "# TYPE repro_memory_idle_observations_total counter\n"
            "repro_memory_idle_observations_total 0.0\n"
            "# TYPE repro_queries_executed_total counter\n"
            "repro_queries_executed_total 3.0\n"
            "# TYPE repro_query_seconds histogram\n"
            'repro_query_seconds_bucket{le="0.5"} 1.0\n'
            'repro_query_seconds_bucket{le="2.0"} 3.0\n'
            'repro_query_seconds_bucket{le="+Inf"} 4.0\n'
            "repro_query_seconds_sum 11.75\n"
            "repro_query_seconds_count 4.0\n")

    def test_database_exposition_carries_the_engine_families(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        lines = stale_star.prometheus_metrics().splitlines()
        assert "# TYPE repro_queries_executed_total counter" in lines
        assert "# TYPE repro_query_seconds histogram" in lines
        assert any(line.startswith("# TYPE repro_qerror_") for line in lines)
        assert any(line.startswith("# TYPE repro_memory_") for line in lines)

    def test_json_snapshot_envelope(self):
        registry = MetricsRegistry()
        registry.counter("queries.executed").add(3)
        snapshot = json_snapshot(registry, extra={"plan_cache": {"hits": 1}})
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["metrics"]["queries.executed"] == 3
        assert snapshot["types"]["queries.executed"] == "Counter"
        assert snapshot["plan_cache"] == {"hits": 1}
        assert json.loads(json.dumps(json_snapshot(registry)))["metrics"]

    def test_database_metrics_snapshot_merges_engine_sections(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        snapshot = stale_star.metrics_snapshot()
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert "plan_cache" in snapshot and "feedback" in snapshot
        assert snapshot["feedback"]["entries"] >= 1


class TestRegistryHardening:
    def test_type_mismatch_raises_clearly(self):
        registry = MetricsRegistry()
        registry.counter("rows.scanned")
        with pytest.raises(TypeError, match="already registered as Counter"):
            registry.histogram("rows.scanned")
        registry.histogram("query.seconds")
        with pytest.raises(TypeError, match="already registered as Histogram"):
            registry.counter("query.seconds")
        # The original instruments survive the failed re-registration.
        assert isinstance(registry.counter("rows.scanned"), Counter)
        assert isinstance(registry.histogram("query.seconds"), Histogram)

    def test_histogram_sum_property(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.sum == 5.5
        assert histogram.as_dict()["sum"] == 5.5


class TestDatabaseControls:
    def test_reset_metrics_rebaselines_everything(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        stale_star.execute(star_join_query(), optimize=False)
        assert stale_star.metrics()["metrics"]
        assert len(stale_star.cardinality_feedback) > 0
        stale_star.reset_metrics()
        assert stale_star.metrics()["metrics"] == {}
        assert len(stale_star.cardinality_feedback) == 0
        assert len(stale_star.slow_query_log) == 0
        assert stale_star.plan_watchdog.as_dict()["tracked_queries"] == 0
        # The engine keeps working and re-observes from a clean slate.
        stale_star.execute(star_join_query(), optimize=False)
        assert stale_star.metrics()["metrics"]["queries.executed"] == 1


class TestJoinEdgeFeedback:
    """What an executed index-lookup join teaches the edge store: the inner
    side is read as the probed table's current size."""

    @staticmethod
    def _probed():
        database = skewed_join_database(big=1200, small=120, rare_every=100)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"])
        plan = PhysicalPlanner(source=database).plan(query)
        assert type(plan.root) is IndexLookupJoin
        result = plan.execute(database)
        stats_of = {id(node): op_stats
                    for node, op_stats in pair_nodes_with_stats(plan, result.context)}
        return database, plan.root, stats_of

    def test_an_index_lookup_join_records_its_edge(self):
        database, root, stats_of = self._probed()
        database._record_join_edges(root, stats_of[id(root)], stats_of, 0)
        carriers = attribute_carriers(database, {"events", "sessions"}, "event_id")
        observed = stats_of[id(root)].rows_out / float(
            stats_of[id(root.outer)].rows_out * len(database.table("events")))
        assert database.cardinality_feedback.lookup_edge(
            "event_id", carriers, 0) == observed

    def test_a_dropped_inner_table_records_nothing(self):
        database, root, stats_of = self._probed()
        database.drop_table("events")
        database._record_join_edges(root, stats_of[id(root)], stats_of, 0)
        assert database.cardinality_feedback.as_dict()["edges"] == 0

    def test_a_failing_inner_size_propagates(self, monkeypatch):
        database, root, stats_of = self._probed()

        def failing(table):
            raise RuntimeError("size unavailable")

        monkeypatch.setattr(Table, "__len__", failing)
        with pytest.raises(RuntimeError, match="size unavailable"):
            database._record_join_edges(root, stats_of[id(root)], stats_of, 0)
