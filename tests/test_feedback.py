"""PR 7: the actionable observability layer — feedback, watchdog, memory, export.

Covers the cardinality-feedback store's lifecycle (recording thresholds, LRU
bounds, DML/ANALYZE invalidation, non-persistence), the feedback-driven
re-planning arc on the stale-statistics star workload (including parity of
the corrected plan with the naive evaluator), the plan-regression watchdog, per-operator
memory accounting in ``explain_analyze``, and the Prometheus / JSON exporters
(round-trip parsed, families verified).
"""

import json

import pytest

from repro.algebra.expressions import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine.serialization import dumps_database, loads_database
from repro.obs.export import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    dumps_snapshot,
    json_snapshot,
    parse_prometheus_text,
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
from repro.obs.profiler import MIN_BASELINE_SAMPLES, PlanWatchdog
from repro.workloads.star import star_join_database, star_join_query


@pytest.fixture()
def stale_star():
    """An analyzed small star database whose ``dim_rare`` statistics are stale."""
    database = star_join_database(fact_rows=600)
    database.analyze()
    database.table("dim_rare").insert({"dr": 1001, "kind": "common"})
    return database


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
        assert store.record(fingerprint, 3, {"dim_rare"}, 50) is True
        version = store.version
        # An identical re-observation refreshes recency without churn.
        assert store.record(fingerprint, 3, {"dim_rare"}, 50) is False
        assert store.version == version
        assert store.lookup(fingerprint, 3) == 50
        # A different statistics version is a different regime: no answer.
        assert store.lookup(fingerprint, 4) is None

    def test_changed_observation_bumps_version(self):
        store = CardinalityFeedback()
        store.record(("select", "x"), 1, {"t"}, 10)
        version = store.version
        store.record(("select", "x"), 1, {"t"}, 99)
        assert store.version > version
        assert store.lookup(("select", "x"), 1) == 99

    def test_lru_eviction_is_bounded(self):
        store = CardinalityFeedback(capacity=3)
        for index in range(5):
            store.record(("select", index), 1, {"t{}".format(index)}, index)
        assert len(store._entries) == 3
        assert store.evictions == 2
        # The oldest entries fell out; the newest survive.
        assert store.lookup(("select", 0), 1) is None
        assert store.lookup(("select", 4), 1) == 4
        # Evicted entries released their table refcounts.
        assert "t0" not in store._table_counts and "t4" in store._table_counts

    def test_invalidate_table_drops_entries_and_edges(self):
        store = CardinalityFeedback()
        store.record(("select", "a"), 1, {"events", "sessions"}, 10)
        store.record(("select", "b"), 1, {"users"}, 20)
        store.record_edge("event_id", {"events", "sessions"}, 1, 0.001)
        version = store.version
        dropped = store.invalidate_table("events")
        assert dropped == 2
        assert store.version == version + 1
        assert store.invalidations == 2
        assert store.lookup(("select", "b"), 1) == 20
        assert store.lookup_edge("event_id", {"events", "sessions"}, 1) is None

    def test_invalidate_unknown_table_is_a_noop(self):
        store = CardinalityFeedback()
        store.record(("select", "a"), 1, {"events"}, 10)
        version = store.version
        assert store.invalidate_table("never_observed") == 0
        assert store.version == version

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
        store.record(("select", "a"), 1, {"t"}, 10)
        store.record_edge("x", {"t"}, 1, 0.5)
        store.clear()
        assert len(store) == 0
        assert store._table_counts == {}

    def test_as_dict_shape(self):
        store = CardinalityFeedback()
        store.record(("select", "a"), 1, {"t"}, 10)
        snapshot = store.as_dict()
        assert snapshot["entries"] == 1 and snapshot["edges"] == 0
        assert set(snapshot) == {"entries", "edges", "capacity", "version",
                                 "hits", "misses", "evictions", "invalidations"}


class TestFeedbackLifecycle:
    def test_mis_estimate_records_accurate_does_not(self, stale_star):
        # The stale default selectivity mis-prices σ(dim_rare) — recorded.
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
        stale_star.execute(star_join_query(), optimize=False)
        store = stale_star.cardinality_feedback
        assert len(store) > 0
        stale_star.table("dim_rare").insert({"dr": 1002, "kind": "common"})
        assert all("dim_rare" not in tables
                   for _rows, tables in store._entries.values())
        assert all("dim_rare" not in tables
                   for _sel, tables in store._edges.values())
        assert store.invalidations > 0

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
        store.record(("select", "elsewhere"), stale_star.statistics_version,
                     {"dim_a"}, 7)
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
        stale_star.execute(query, optimize=False)   # default 50% vs 5%: recorded
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


class TestPlanWatchdog:
    def test_regression_needs_a_baseline_first(self):
        watchdog = PlanWatchdog()
        for _ in range(MIN_BASELINE_SAMPLES):
            change, regression = watchdog.observe("q1", ("plan-a",),
                                                  {"operators": ["a"]}, 0.01)
            assert change is None and regression is None
        # Baseline established: a 10× latency spike is a regression.
        _change, regression = watchdog.observe("q1", ("plan-a",),
                                               {"operators": ["a"]}, 0.1)
        assert regression is not None
        assert regression["factor"] > 2.0
        assert regression["suspect_plan_change"] is None

    def test_plan_flip_is_attributed_as_suspect(self):
        watchdog = PlanWatchdog()
        for _ in range(MIN_BASELINE_SAMPLES):
            watchdog.observe("q1", ("plan-a",), {"operators": ["a"]}, 0.01)
        change, regression = watchdog.observe("q1", ("plan-b",),
                                              {"operators": ["b"]}, 0.1)
        assert change is not None
        assert change["before"] == {"operators": ["a"]}
        assert change["after"] == {"operators": ["b"]}
        assert regression is not None
        assert regression["suspect_plan_change"] is change

    def test_capacity_bounds_tracked_queries(self):
        watchdog = PlanWatchdog(capacity=2)
        for index in range(4):
            watchdog.observe("q{}".format(index), ("p",), {}, 0.01)
        assert watchdog.as_dict()["tracked_queries"] == 2
        assert watchdog.baseline("q0") is None
        assert watchdog.baseline("q3") is not None

    def test_capacity_bounds_the_event_lists(self):
        watchdog = PlanWatchdog(capacity=3)
        for index in range(10):     # the plan flips on every execution
            watchdog.observe("q", ("p", index), {"operators": [index]}, 0.01)
        watchdog.observe("q", ("p", 9), {"operators": [9]}, 10.0)
        assert len(watchdog.plan_changes()) == 3
        assert watchdog.plan_changes_seen == 9
        assert watchdog.plan_changes()[-1]["after"] == {"operators": [9]}
        assert len(watchdog.regressions()) == watchdog.regressions_seen == 1


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
    def test_prometheus_round_trip(self, stale_star):
        stale_star.execute(star_join_query(), optimize=False)
        text = stale_star.prometheus_metrics()
        families = parse_prometheus_text(text)
        assert families["repro_queries_executed_total"]["type"] == "counter"
        assert any(name.startswith("repro_qerror_") for name in families)
        assert any(name.startswith("repro_memory_") for name in families)
        latency = families["repro_query_seconds"]
        assert latency["type"] == "histogram"
        samples = {name: value for name, _labels, value in latency["samples"]
                   if not name.endswith("_bucket")}
        buckets = [(labels["le"], value)
                   for name, labels, value in latency["samples"]
                   if name.endswith("_bucket")]
        # Cumulative buckets: the +Inf bucket equals the count.
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == samples["repro_query_seconds_count"]
        assert samples["repro_query_seconds_sum"] > 0.0

    def test_parser_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_orphan_sample 1.0\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE broken\n")

    def test_json_snapshot_envelope(self):
        registry = MetricsRegistry()
        registry.counter("queries.executed").add(3)
        snapshot = json_snapshot(registry, extra={"plan_cache": {"hits": 1}})
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["metrics"]["queries.executed"] == 3
        assert snapshot["types"]["queries.executed"] == "Counter"
        assert snapshot["plan_cache"] == {"hits": 1}
        assert json.loads(dumps_snapshot(registry))["metrics"]

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
