"""Tests for the observability layer (PR 6): Q-error math, tracing spans and
events, metrics aggregation, the slow-query log, and EXPLAIN ANALYZE parity.

EXPLAIN ANALYZE must be *honest*: the annotated tree comes from a real
execution whose tuples and counters are identical to a plain ``execute`` of
the same expression, in both row and batch modes.  The Q-error edge cases pin
down the definition the adaptive layer (ROADMAP item 4) will rely on.
"""

import json
import math

import pytest

from repro.algebra import Aggregate, NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.model.scheme import FlexibleScheme
from repro.obs import (
    Counter,
    Histogram,
    JsonTraceSink,
    MaxGauge,
    MetricsRegistry,
    NOOP_SPAN,
    SlowQueryLog,
    Tracer,
    q_error,
)
from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS, MEMORY_BUCKETS
from repro.workloads.star import star_join_database, star_join_query


@pytest.fixture()
def star_database():
    return _star_database()


def _star_database():
    database = star_join_database(fact_rows=600, rare_rows=200, rare_every=20)
    database.analyze()
    return database


def small_query():
    return NaturalJoin(
        Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare")),
        RelationRef("fact"), on=["dr"])


# -- Q-error -------------------------------------------------------------------------------


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric_in_direction(self):
        assert q_error(10, 1000) == q_error(1000, 10) == 100.0

    def test_always_at_least_one(self):
        assert q_error(3.0, 4.0) == pytest.approx(4.0 / 3.0)
        assert q_error(4.0, 3.0) == pytest.approx(4.0 / 3.0)

    def test_no_estimate_is_none(self):
        assert q_error(None, 50) is None

    def test_both_zero_is_perfect(self):
        # Predicting an empty result that came out empty is a perfect estimate.
        assert q_error(0, 0) == 1.0

    def test_zero_actual_nonzero_estimate_is_inf(self):
        assert math.isinf(q_error(25, 0))

    def test_zero_estimate_nonzero_actual_is_inf(self):
        assert math.isinf(q_error(0, 25))

    def test_negative_estimate_degrades_to_inf(self):
        assert math.isinf(q_error(-1, 10))


# -- tracing -------------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_hands_out_the_noop_span(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.span("anything", attr=1) is NOOP_SPAN
        tracer.event("ignored")  # records nothing, raises nothing

    def test_spans_nest_and_carry_attributes(self):
        tracer = Tracer()
        sink = tracer.attach()
        with tracer.span("outer", depth=0):
            with tracer.span("inner") as inner:
                inner.set(rows=7)
        tracer.detach()
        spans = {record["name"]: record for record in sink.spans()}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["attributes"] == {"rows": 7}
        assert spans["outer"]["attributes"] == {"depth": 0}
        assert spans["inner"]["duration"] >= 0.0
        # children finish (and are recorded) before their parents
        assert sink.records[0]["name"] == "inner"

    def test_events_attach_to_the_open_span(self):
        tracer = Tracer()
        sink = tracer.attach()
        with tracer.span("work") as span:
            tracer.event("milestone", step=1)
        tracer.detach()
        (event,) = sink.events()
        assert event["span"] == span.span_id
        assert event["attributes"] == {"step": 1}

    def test_detach_disables_and_returns_the_sink(self):
        tracer = Tracer()
        sink = tracer.attach()
        assert tracer.detach() is sink
        assert not tracer.enabled
        with tracer.span("after"):
            pass
        assert len(sink.records) == 0

    def test_dump_writes_valid_json(self, tmp_path):
        tracer = Tracer()
        sink = tracer.attach()
        with tracer.span("s"):
            tracer.event("e")
        tracer.detach()
        path = sink.dump(str(tmp_path / "trace.json"))
        with open(path) as handle:
            records = json.load(handle)
        assert [r["type"] for r in records] == ["event", "span"]


class TestQueryLifecycleTrace:
    def test_query_trace_covers_the_lifecycle(self, star_database):
        sink = star_database.tracer.attach()
        star_database.execute(small_query(), optimize=True)
        star_database.tracer.detach()
        names = [record["name"] for record in sink.records]
        for expected in ("query.execute", "rewrite", "plan", "physical-plan",
                         "statistics-lookup", "plan-cache-miss", "execute"):
            assert expected in names, names
        # the planner span nests under the database's plan span
        spans = {r["name"]: r for r in sink.spans()}
        assert spans["physical-plan"]["parent"] == spans["plan"]["id"]
        assert spans["rewrite"]["parent"] == spans["query.execute"]["id"]

    def test_plan_cache_hit_and_miss_events(self, star_database):
        query = small_query()
        star_database.execute(query)  # populate the cache untraced
        sink = star_database.tracer.attach()
        star_database.execute(query)
        star_database.tracer.detach()
        names = [record["name"] for record in sink.events()]
        assert "plan-cache-hit" in names
        assert "plan-cache-miss" not in names

    def test_join_order_search_span(self, star_database):
        sink = star_database.tracer.attach()
        star_database.execute(star_join_query(), optimize=False)
        star_database.tracer.detach()
        (span,) = sink.named("join-order-search")
        assert span["attributes"]["relations"] == 6
        assert span["attributes"]["subsets_enumerated"] > 0

    def test_analyze_events(self):
        database = star_join_database(fact_rows=50, rare_rows=30, rare_every=10)
        database.analyze()
        sink = database.tracer.attach()
        database.analyze("fact", sample_size=20)
        for i in range(10_000, 10_030):
            database.insert("fact", {"fact_id": i, "ds": 1, "dr": 1,
                                     "da": 1, "db": 1, "dc": 1})
        database.tracer.detach()
        # one event per explicit ANALYZE; DML never re-analyzes
        (event,) = sink.named("analyze")
        assert event["attributes"] == {"table": "fact", "rows": 50, "sample_size": 20}


# -- metrics -------------------------------------------------------------------------------


class TestInstruments:
    def test_counter_and_max_gauge(self):
        counter, gauge = Counter(), MaxGauge()
        counter.add()
        counter.add(4)
        assert counter.as_dict() == 5
        gauge.observe(2.0)
        gauge.observe(None)
        gauge.observe(9.0)
        gauge.observe(3.0)
        assert gauge.as_dict() == {"max": 9.0, "observations": 3}

    def test_histogram_buckets_and_quantiles(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 3.0, 50.0, 1000.0):
            histogram.observe(value)
        snapshot = histogram.as_dict()
        assert snapshot["count"] == 5
        assert snapshot["min"] == 0.5 and snapshot["max"] == 1000.0
        assert snapshot["buckets"] == {"1.0": 1, "10.0": 2, "100.0": 1, "inf": 1}
        assert histogram.quantile(0.5) == 10.0
        # the overflow bucket reports the observed maximum
        assert histogram.quantile(0.99) == 1000.0
        assert Histogram(bounds=(1.0,)).quantile(0.5) is None

    @pytest.mark.parametrize("bounds", [LATENCY_BUCKETS, BATCH_SIZE_BUCKETS,
                                        MEMORY_BUCKETS])
    def test_histogram_buckets_equal_the_linear_scan(self, bounds):
        """Each value lands in the first bucket whose bound it does not
        exceed, the overflow bucket past the last bound — and NaN, which
        exceeds no bound and is below none, in the overflow bucket."""
        def linear(value):
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return len(bounds)

        values = ([bounds[0] / 2, math.inf, math.nan] + list(bounds)
                  + [math.nextafter(bound, math.inf) for bound in bounds])
        for value in values:
            histogram = Histogram(bounds)
            histogram.observe(value)
            expected = [0] * (len(bounds) + 1)
            expected[linear(value)] = 1
            assert histogram.bucket_counts == expected, value

    def test_registry_reuses_and_type_checks(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.max_gauge("a")
        registry.counter("a").add(2)
        assert registry.snapshot() == {"a": 2}


class TestDatabaseMetrics:
    def test_metrics_aggregate_across_repeated_queries(self, star_database):
        query = small_query()
        before = star_database.metrics()["metrics"]
        assert before.get("queries.executed", 0) == 0
        for _ in range(3):
            result = star_database.execute(query)
        snapshot = star_database.metrics()
        metrics = snapshot["metrics"]
        assert metrics["queries.executed"] == 3
        assert metrics["rows.produced"] == 3 * len(result.tuples)
        assert metrics["rows.scanned"] > 0
        assert metrics["query.seconds"]["count"] == 3
        assert metrics["plan.batch_size"]["count"] == 3
        # one plan miss, then two hits
        assert snapshot["plan_cache"]["hits"] >= 2
        assert snapshot["plan_cache"]["hit_rate"] == pytest.approx(
            snapshot["plan_cache"]["hits"]
            / (snapshot["plan_cache"]["hits"] + snapshot["plan_cache"]["misses"]))

    def test_a_held_instrument_never_goes_stale(self, star_database, tmp_path):
        """The query path holds its fixed instruments per registry: after a
        ``reset_metrics()`` in mid-stream every counter, histogram and
        ``qerror.*`` / ``memory.*`` gauge the stream feeds is registered
        again, and the registry reads as a fresh database's (wall clock
        aside) after the same queries.  So does the log's ``wal.*`` counters
        under a durable write stream."""
        def stream(database):
            for key in (3, 7, 11):
                database.query("SELECT ds_name FROM dim_small WHERE ds = {}".format(key))
            database.execute(small_query())
            database.execute(star_join_query(), optimize=True)
            database.execute(Aggregate(RelationRef("fact"), group_by=("ds",),
                                       specs=("count", ("sum", "da"))))

        def registry(database):
            metrics = dict(database.metrics()["metrics"])
            seconds = metrics.pop("query.seconds")
            assert seconds["count"] == 6
            return metrics

        stream(star_database)
        star_database.reset_metrics()
        assert star_database.metrics()["metrics"] == {}
        stream(star_database)
        fresh = _star_database()
        stream(fresh)
        again = registry(star_database)
        assert again == registry(fresh)
        assert {"queries.executed", "rows.scanned", "rows.joined", "rows.produced",
                "rows.aggregated", "plan.batch_size", "query.peak_bytes"} <= set(again)
        assert any(name.startswith("qerror.") for name in again)
        assert any(name.startswith("memory.") for name in again)

        database = Database(durable_path=str(tmp_path / "db"), wal_fsync=False)
        database.create_table("t", FlexibleScheme(1, 2, ["k", "v"]), key=["k"])

        def wal_counters():
            return {name: value for name, value in database.metrics()["metrics"].items()
                    if name.startswith("wal.")}

        size = database.durability.wal.size
        database.insert("t", {"k": 100, "v": "b"})
        frame = database.durability.wal.size - size
        for round_ in range(3):
            database.reset_metrics()
            assert wal_counters() == {}
            for k in range(2, 4):
                database.insert("t", {"k": 110 + 10 * round_ + k, "v": "b"})
            assert wal_counters() == {"wal.records": 2, "wal.bytes": 2 * frame,
                                      "wal.commits": 2, "wal.fsyncs": 2}
        database.close()

    def test_a_cached_plan_feeds_the_registry_generation_it_runs_in(self, star_database):
        """A plan resolves its instruments once per registry generation: run
        it, reset the registry, run it again from the cache — the second run
        feeds the new generation's instruments (and registers them again),
        not the ones the first run resolved."""
        query = small_query()
        star_database.execute(query)
        registry = star_database.metrics_registry
        first = {name: registry._instruments[name] for name in registry.names()
                 if name.startswith("qerror.")}
        assert first
        hits = star_database.physical_executor.cache_hits
        registry.reset()
        star_database.execute(query)
        assert star_database.physical_executor.cache_hits == hits + 1
        metrics = star_database.metrics()["metrics"]
        assert metrics["queries.executed"] == 1
        for name, gauge in first.items():
            assert gauge.as_dict() == metrics[name]
            assert registry._instruments[name] is not gauge

    def test_worst_q_error_per_node_kind(self, star_database):
        star_database.execute(small_query())
        metrics = star_database.metrics()["metrics"]
        qerror_keys = [key for key in metrics if key.startswith("qerror.")]
        assert qerror_keys
        for key in qerror_keys:
            assert metrics[key]["max"] >= 1.0

    def test_metrics_snapshot_is_json_serializable(self, star_database):
        star_database.execute(small_query())
        json.dumps(star_database.metrics())


# -- slow-query log ------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_behavior(self):
        log = SlowQueryLog(threshold=0.5, capacity=2)
        assert log.observe("q1", 0.4999, 10, []) is None
        assert len(log) == 0 and log.total == 0
        entry = log.observe("q2", 0.5, 10, [("scan", 1.0)])
        assert entry is not None and len(log) == 1 and log.total == 1

    def test_capacity_evicts_but_total_counts(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        for index in range(5):
            log.observe("q{}".format(index), 1.0, 1, [])
        assert len(log) == 2 and log.total == 5
        assert [entry.expression for entry in log.entries()] == ["q3", "q4"]

    def test_records_top_3_q_error_nodes_worst_first(self):
        log = SlowQueryLog(threshold=0.0)
        nodes = [("a", 2.0), ("b", None), ("c", 50.0), ("d", 7.0), ("e", 3.0)]
        entry = log.observe("q", 1.0, 1, nodes)
        assert entry.q_error_nodes == [("c", 50.0), ("d", 7.0), ("e", 3.0)]

    def test_database_slow_log_catches_slow_queries(self, star_database):
        star_database.slow_query_log.threshold = 0.0  # everything is "slow"
        star_database.execute(small_query())
        (entry,) = star_database.slow_query_log.entries()
        assert entry.rows > 0
        assert entry.q_error_nodes  # estimate quality travels with the entry
        assert star_database.metrics()["slow_queries"]["total"] == 1

    def test_fast_queries_stay_out_of_the_log(self, star_database):
        star_database.slow_query_log.threshold = 1e9
        star_database.execute(small_query())
        assert star_database.slow_query_log.entries() == []


# -- EXPLAIN ANALYZE -----------------------------------------------------------------------


class TestExplainAnalyze:
    def test_parity_with_execute(self, star_database):
        """The annotated tree executes to identical results and counters."""
        query = star_join_query()
        report = star_database.explain_analyze(query, optimize=False)
        plain = star_database.execute(query, optimize=False)
        assert report.result.tuples == plain.tuples
        assert report.result.stats.as_dict() == plain.stats.as_dict()

    def test_every_node_is_annotated(self, star_database):
        report = star_database.explain_analyze(small_query(), optimize=False)
        lines = str(report).splitlines()
        assert lines[0].startswith("batch_size=")
        annotated = [line for line in lines if "actual_rows=" in line]
        assert len(annotated) == len(report.plan.nodes)
        for line in annotated:
            assert "est_rows=" in line and "q=" in line
            assert "time=" in line and "batches=" in line

    def test_actual_rows_match_operator_stats(self, star_database):
        report = star_database.explain_analyze(small_query(), optimize=False)
        root_stats = report.result.context.operator_stats[0]
        assert root_stats.rows_out == len(report.result.tuples)
        assert "actual_rows={}".format(root_stats.rows_out) in str(report)

    def test_q_errors_exposed_per_node(self, star_database):
        report = star_database.explain_analyze(small_query(), optimize=False)
        assert len(report.q_errors) == len(report.plan.nodes)
        assert all(value is None or value >= 1.0
                   for _label, value in report.q_errors)
        assert report.worst_q_error() >= 1.0

    def test_stale_statistics_show_up_as_q_error(self, star_database):
        """Growing a table after ANALYZE mis-estimates — Q-error exposes it."""
        fresh = star_database.explain_analyze(small_query(), optimize=False)
        assert fresh.worst_q_error() < 2.0  # analyzed: estimates are close
        # ANALYZE, then grow dim_rare behind the statistics' back.
        star_database.analyze("dim_rare")
        for i in range(5_000, 5_400):
            star_database.insert("dim_rare", {"dr": i, "kind": "rare",
                                              "audit_level": i % 3})
        stale = star_database.explain_analyze(small_query(), optimize=False)
        assert stale.result.tuples == fresh.result.tuples  # results unchanged
        assert stale.worst_q_error() > fresh.worst_q_error()

    def test_explain_analyze_feeds_metrics(self, star_database):
        star_database.explain_analyze(small_query(), optimize=False)
        assert star_database.metrics()["metrics"]["queries.executed"] == 1

    def test_wall_seconds_collected_per_operator(self, star_database):
        report = star_database.explain_analyze(small_query(), optimize=False)
        stats = report.result.context.operator_stats
        assert sum(op.wall_seconds for op in stats) > 0.0
        # the root's inclusive time dominates any child's
        assert stats[0].wall_seconds == max(op.wall_seconds for op in stats)
