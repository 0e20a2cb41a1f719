"""Tests for the statistics subsystem: ANALYZE, estimation accuracy, invalidation,
persistence, and the statistics-informed physical planning decisions."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import Evaluator, MultiwayJoin, NaturalJoin, RelationRef, Selection, TypeGuardNode
from repro.algebra.predicates import And, Comparison, Not, Or, PresencePredicate, TruePredicate
from repro.engine import Database, Table, TableDefinition, loads_database, dumps_database
from repro.engine.database import REMOVE
from repro.exec import (
    HashJoin,
    IndexLookupJoin,
    PhysicalPlan,
    PhysicalPlanner,
    Scan,
)
from repro.model.attributes import attrset
from repro.model.domains import FloatDomain, IntDomain, StringDomain
from repro.model.relation import FlexibleRelation
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.optimizer.cost import DEFAULT_SELECTIVITY, CostModel
from repro.stats import (
    AttributeStatistics,
    EquiDepthHistogram,
    TableStatistics,
    analyze_table,
    build_histogram,
    estimate_ndv,
    reservoir_sample,
)
from repro.stats.histograms import DEFAULT_BUCKETS
from repro.stats.statistics import DEFAULT_MOST_COMMON, DEFAULT_SAMPLE_SEED
from repro.obs.metrics import q_error
from repro.workloads.analytics import analytics_database
from repro.workloads.employees import employee_definition, generate_employees
from repro.workloads.events import generate_events, skewed_join_database


# -- fixtures ------------------------------------------------------------------------------


@pytest.fixture
def analyzed_employees():
    """600 employees, analyzed; returns (database, list of tuple dicts)."""
    database = Database()
    definition = employee_definition()
    rows = generate_employees(600, seed=31)
    database.create_table("employees", definition.scheme, domains=definition.domains,
                          key=definition.key,
                          dependencies=definition.dependencies).insert_many(rows)
    database.analyze()
    return database, rows


def true_fraction(rows, predicate):
    from repro.model.tuples import FlexTuple

    matching = sum(1 for row in rows if predicate.evaluate(FlexTuple(row)))
    return matching / float(len(rows))


# -- histograms ----------------------------------------------------------------------------


class TestHistograms:
    def test_equi_depth_buckets_cover_all_values(self):
        histogram = build_histogram(list(range(1000)), max_buckets=16)
        assert histogram.total == 1000 and len(histogram) == 16

    @pytest.mark.parametrize("value,expected", [
        (250, 0.25), (499, 0.50), (750, 0.75), (900, 0.90),
    ])
    def test_cumulative_fraction_accuracy(self, value, expected):
        histogram = build_histogram(list(range(1000)), max_buckets=32)
        assert abs(histogram.fraction_leq(value) - expected) <= 0.05

    def test_skewed_values_get_dense_buckets(self):
        values = [1] * 900 + list(range(2, 102))
        histogram = build_histogram(values, max_buckets=10)
        assert abs((1.0 - histogram.fraction_leq(1)) - 0.1) <= 0.05

    def test_unsortable_population_yields_none(self):
        assert build_histogram([1, "a", None]) is None

    def test_round_trip(self):
        histogram = build_histogram([1.5, 2.5, 3.5, 9.0], max_buckets=2)
        clone = EquiDepthHistogram.from_dict(histogram.to_dict())
        assert clone.fraction_leq(3.0) == histogram.fraction_leq(3.0)


# -- ANALYZE -------------------------------------------------------------------------------


class TestAnalyze:
    def test_row_count_and_variant_frequencies(self, analyzed_employees):
        database, rows = analyzed_employees
        statistics = database.stats("employees")
        assert statistics.row_count == len(rows)
        counts = statistics.variant_counts
        assert sum(counts.values()) == len(rows)
        # Exactly the three jobtype variants of the running example occur.
        assert len(counts) == 3

    def test_tag_frequencies_match_true_guard_selectivity(self, analyzed_employees):
        database, rows = analyzed_employees
        statistics = database.stats("employees")
        for attributes in (["typing_speed"], ["products"], ["products", "sales_commission"],
                           ["typing_speed", "products"]):
            truth = true_fraction(rows, PresencePredicate(attributes))
            assert statistics.guard_selectivity(attributes) == pytest.approx(truth)

    def test_most_common_values_are_exact_for_small_domains(self, analyzed_employees):
        database, rows = analyzed_employees
        statistics = database.stats("employees")
        jobtype = statistics.attribute("jobtype")
        assert jobtype.mcv_complete
        truth = true_fraction(rows, Comparison("jobtype", "=", "secretary"))
        assert jobtype.equality_fraction("secretary") == pytest.approx(truth)

    def test_presence_and_ndv(self, analyzed_employees):
        database, rows = analyzed_employees
        statistics = database.stats("employees")
        assert statistics.guard_selectivity(["emp_id"]) == 1.0
        assert statistics.attribute("emp_id").ndv == len(rows)
        assert 0.0 < statistics.guard_selectivity(["typing_speed"]) < 1.0

    def test_selectivity_accuracy_on_workload(self, analyzed_employees):
        """Histogram / tag-frequency estimates track the true selectivity."""
        database, rows = analyzed_employees
        statistics = database.stats("employees")
        predicates = [
            Comparison("salary", ">", 5000.0),
            Comparison("salary", "<=", 3000.0),
            Comparison("jobtype", "=", "salesman"),
            And(Comparison("jobtype", "=", "secretary"), Comparison("salary", ">", 4000.0)),
            Or(Comparison("jobtype", "=", "secretary"), Comparison("jobtype", "=", "salesman")),
            Not(Comparison("jobtype", "=", "secretary")),
            Comparison("typing_speed", ">=", 80),
        ]
        for predicate in predicates:
            truth = true_fraction(rows, predicate)
            estimate = statistics.selectivity(predicate)
            assert abs(estimate - truth) <= 0.08, (predicate, truth, estimate)

    def test_range_selectivity_on_heavy_low_ndv_values(self):
        """The mass sitting exactly on a heavy value comes from the exact MCV
        counts, so < / >= stay accurate on skewed low-NDV attributes."""
        database = skewed_join_database(big=4000, small=0)
        database.analyze()
        statistics = database.stats("events")
        rows = [t.as_dict() for t in database.table("events")]
        for predicate in (Comparison("kind", ">=", "view"),
                          Comparison("kind", "<", "view"),
                          Comparison("kind", "<=", "click")):
            truth = true_fraction(rows, predicate)
            estimate = statistics.selectivity(predicate)
            assert abs(estimate - truth) <= 0.05, (predicate, truth, estimate)

    def test_and_with_nested_predicate_prices_presence_once(self):
        database = skewed_join_database(big=4000, small=0)
        database.analyze()
        statistics = database.stats("events")
        predicate = And(PresencePredicate(["clearance"]),
                        Or(Comparison("clearance", "=", "secret"),
                           Comparison("clearance", "=", "none")))
        rows = [t.as_dict() for t in database.table("events")]
        truth = true_fraction(rows, predicate)  # 0.01: every audit row qualifies
        assert statistics.selectivity(predicate) == pytest.approx(truth, abs=0.005)

    def test_unobserved_attribute_estimates_empty(self, analyzed_employees):
        database, _rows = analyzed_employees
        statistics = database.stats("employees")
        assert statistics.selectivity(Comparison("no_such_attribute", "=", 1)) == 0.0
        assert statistics.guard_selectivity(["no_such_attribute"]) == 0.0

    def test_analyze_plain_iterables(self):
        from repro.model.tuples import FlexTuple

        statistics = analyze_table([FlexTuple(a=1), FlexTuple(a=2, b=3)])
        assert statistics.row_count == 2
        assert statistics.guard_selectivity(["b"]) == 0.5

    def test_unhashable_comparison_constant_estimates_zero(self, analyzed_employees):
        """Stored values are hashable, so = [list] matches nothing — and must not crash."""
        database, _rows = analyzed_employees
        statistics = database.stats("employees")
        weird = Comparison("jobtype", "=", ["secretary"])
        assert statistics.selectivity(weird) == 0.0
        # The full execution path (plan-time estimation included) stays usable.
        assert len(database.execute(Selection(RelationRef("employees"), weird))) == 0


# -- invalidation --------------------------------------------------------------------------


def _recount(table):
    return dict(Counter(frozenset(tup._values) for tup in table))


class TestInvalidation:
    """DML keeps the statistics served, their counts the table's; cached plans
    are invalidated once the table drifted past 10% of its rows at ANALYZE."""

    def test_insert_invalidates_and_maintains_row_count(self, analyzed_employees):
        database, rows = analyzed_employees
        version = database.statistics_version
        database.insert("employees", generate_employees(1, seed=99, start_id=10_000)[0])
        assert database.statistics_version == version
        statistics = database.stats("employees")
        assert statistics.row_count == len(rows) + 1
        assert statistics.variant_counts == _recount(database.table("employees"))
        database.insert_many("employees", generate_employees(60, seed=98, start_id=10_001))
        assert database.statistics_version == version + 1
        assert database.stats("employees").row_count == len(rows) + 61

    def test_delete_invalidates_and_decrements(self, analyzed_employees):
        database, rows = analyzed_employees
        table = database.table("employees")
        version = database.statistics_version
        for victim in list(table)[:61]:
            table.delete(victim)
            assert database.stats("employees").row_count == len(table)
        assert database.statistics_version == version + 1
        assert database.stats("employees").row_count == len(rows) - 61

    def test_update_invalidates(self, analyzed_employees):
        """The paper's type change moves rows between shapes: the variant
        counts follow at once, the version once 61 rows changed."""
        database, _rows = analyzed_employees
        table = database.table("employees")
        version = database.statistics_version
        secretaries = [t for t in table if t["jobtype"] == "secretary"][:61]
        for victim in secretaries:
            table.update(victim, jobtype="salesman", typing_speed=REMOVE,
                         foreign_languages=REMOVE, products="dbms",
                         sales_commission=0.1)
            assert database.stats("employees").variant_counts == _recount(table)
        assert database.statistics_version == version + 1

    def test_rollback_restores_freshness_and_row_count(self, analyzed_employees):
        # A rolled-back transaction leaves the table exactly as analyzed, and
        # the served counts follow it there.
        database, rows = analyzed_employees
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", generate_employees(1, seed=8, start_id=50_000)[0])
                raise RuntimeError("boom")
        served = database.statistics.get("employees")
        assert served.row_count == len(rows)
        assert served.variant_counts == _recount(database.table("employees"))

    def test_rollback_restores_version_counter(self, analyzed_employees):
        # A rolled-back transaction below the drift threshold moves no
        # version, so plans cached before it stay valid afterwards.
        database, _rows = analyzed_employees
        version = database.statistics_version
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees", generate_employees(1, seed=9, start_id=60_000)[0])
                raise RuntimeError("boom")
        assert database.statistics_version == version

    def test_rollback_keeps_untouched_tables_fresh(self, analyzed_employees):
        database, _rows = analyzed_employees
        extra = database.create_table("extra", FlexibleScheme(1, 1, ["x"]),
                                      domains={"x": IntDomain()})
        extra.insert_many({"x": value} for value in range(4))
        database.analyze()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("extra", {"x": 99})
                raise RuntimeError("boom")
        assert database.stats("extra").row_count == 4
        assert database.stats("employees").row_count == 600

    def test_reanalyze_restores_freshness(self, analyzed_employees):
        database, _rows = analyzed_employees
        database.insert("employees", generate_employees(1, seed=5, start_id=20_000)[0])
        version = database.statistics_version
        assert database.analyze("employees").attribute("emp_id").ndv == 601
        assert database.statistics_version == version + 1

    def test_drop_table_invalidates(self, analyzed_employees):
        database, _rows = analyzed_employees
        database.drop_table("employees")
        assert database.stats("employees") is None

    def test_mutation_bumps_version_once_until_reanalyzed(self, analyzed_employees):
        """Once per drift of 60 rows (0.1 of 600), counted from the last bump."""
        database, _rows = analyzed_employees
        version = database.statistics_version
        rows = generate_employees(130, seed=1, start_id=30_000)
        for row in rows[:60]:
            database.insert("employees", row)
        assert database.statistics_version == version
        database.insert("employees", rows[60])
        bumped = database.statistics_version
        assert bumped == version + 1
        for row in rows[61:121]:
            database.insert("employees", row)
        assert database.statistics_version == bumped
        database.insert("employees", rows[121])
        assert database.statistics_version == bumped + 1


# -- persistence ---------------------------------------------------------------------------


class TestPersistence:
    def test_round_trip_keeps_statistics_fresh(self, analyzed_employees):
        database, _rows = analyzed_employees
        loaded = loads_database(dumps_database(database))
        original = database.stats("employees")
        restored = loaded.stats("employees")
        assert restored.row_count == original.row_count
        assert restored.variant_counts == original.variant_counts
        predicate = Comparison("salary", ">", 5000.0)
        assert restored.selectivity(predicate) == pytest.approx(original.selectivity(predicate))

    def test_statistics_after_dml_are_persisted(self, analyzed_employees):
        """With the counts at the time of writing, the distributions as aged."""
        database, rows = analyzed_employees
        database.insert("employees", generate_employees(1, seed=77, start_id=40_000)[0])
        document = json.loads(dumps_database(database))
        assert document["tables"][0]["statistics"]["row_count"] == len(rows) + 1
        loaded = loads_database(json.dumps(document))
        restored, original = loaded.stats("employees"), database.stats("employees")
        assert restored.variant_counts == original.variant_counts
        assert restored.attribute("emp_id").ndv == original.attribute("emp_id").ndv == len(rows)

    def test_secondary_indexes_round_trip(self):
        database = skewed_join_database(big=120, small=20)
        loaded = loads_database(dumps_database(database))
        index = loaded.table("events").index_for(["kind"])
        assert index is not None and index.attributes == loaded.catalog.definition(
            "events").indexes[0]


# -- the cost model ------------------------------------------------------------------------


class TestCostModel:
    def test_defaults_without_statistics(self, analyzed_employees):
        database, _rows = analyzed_employees
        database.statistics.invalidate()
        selected = CostModel(database).estimate(
            Selection(RelationRef("employees"), TruePredicate()))
        assert selected.cardinality == pytest.approx(600 * DEFAULT_SELECTIVITY)

    def test_selection_estimate_tracks_data(self, analyzed_employees):
        database, rows = analyzed_employees
        predicate = Comparison("jobtype", "=", "secretary")
        estimate = CostModel(database).estimate(Selection(RelationRef("employees"), predicate))
        truth = true_fraction(rows, predicate) * len(rows)
        assert estimate.cardinality == pytest.approx(truth, rel=0.01)

    def test_guard_estimate_uses_tag_frequencies(self, analyzed_employees):
        database, rows = analyzed_employees
        estimate = CostModel(database).estimate(
            TypeGuardNode(RelationRef("employees"), ["typing_speed"]))
        truth = true_fraction(rows, PresencePredicate(["typing_speed"])) * len(rows)
        assert estimate.cardinality == pytest.approx(truth)

    def test_join_estimate_uses_distinct_values(self):
        database = skewed_join_database(big=1200, small=120)
        database.analyze()
        join = NaturalJoin(RelationRef("events"), RelationRef("sessions"), on=["event_id"])
        estimate = CostModel(database).estimate(join)
        # Key-to-key join: at most one partner per session row.
        assert estimate.cardinality == pytest.approx(120, rel=0.05)

    def test_chain_estimate_prices_presence_once(self):
        """Guard + comparison on the same attribute must not double-count presence."""
        database = skewed_join_database(big=4000, small=0)
        database.analyze()
        guarded = Selection(TypeGuardNode(RelationRef("events"), ["clearance"]),
                            Comparison("clearance", "=", "secret"))
        estimate = CostModel(database).estimate(guarded)
        # All 40 audit rows carry clearance='secret'; pricing the 1% presence
        # twice would estimate 0.4 rows.
        assert estimate.cardinality == pytest.approx(40.0, abs=1.0)

    def test_estimate_carries_hard_upper_bound(self):
        database = skewed_join_database(big=400, small=0)
        database.analyze()
        selection = Selection(RelationRef("events"), Comparison("kind", "=", "audit"))
        estimate = CostModel(database).estimate(selection)
        assert estimate.cardinality == pytest.approx(4.0, abs=0.5)
        assert estimate.bound == 400

    def test_selection_through_guard_chain(self, analyzed_employees):
        database, rows = analyzed_employees
        expression = Selection(TypeGuardNode(RelationRef("employees"), ["typing_speed"]),
                               Comparison("jobtype", "=", "secretary"))
        estimate = CostModel(database).estimate(expression)
        truth = true_fraction(rows, Comparison("jobtype", "=", "secretary")) * len(rows)
        # Guard and selection both select (the same) secretaries: the estimate
        # composes the two fractions, so it may undershoot but not explode.
        assert 0 < estimate.cardinality <= truth + 1


# -- planner decisions ---------------------------------------------------------------------


class TestStatsInformedPlanner:
    def test_build_side_flips_when_stats_know_the_rare_tag(self):
        """Join-order change: the filtered big relation becomes the build side."""
        database = skewed_join_database(big=1200, small=120)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"),
        )
        default_plan = PhysicalPlanner(source=database).plan(query)
        assert isinstance(default_plan.root, HashJoin)
        # Default selectivities say σ(events) ≈ 600 rows > 120 sessions: sessions builds.
        assert isinstance(default_plan.root.right, Scan)
        assert default_plan.root.right.relation == "sessions"

        database.analyze()
        stats_plan = PhysicalPlanner(source=database).plan(query)
        assert isinstance(stats_plan.root, HashJoin)
        # The 1% tag leaves ~12 rows: the filtered events scan becomes the build side.
        assert stats_plan.root.right.relation == "events"

    def test_index_lookup_join_requires_statistics(self):
        # no index of events covers event_id: only statistics can flip the join
        database = skewed_join_database(big=1200, small=120, keyed_events=False)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"],
        )
        assert isinstance(PhysicalPlanner(source=database).plan(query).root, HashJoin)
        database.analyze()
        stats_root = PhysicalPlanner(source=database).plan(query).root
        assert isinstance(stats_root, IndexLookupJoin)
        assert stats_root.relation == "sessions"

    def test_acceptance_five_fold_fewer_pairs_and_tuples(self):
        """The acceptance gate, small scale: ≥5× fewer examined tuples+pairs."""
        database = skewed_join_database(big=1200, small=120, rare_every=100,
                                        keyed_events=False)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"],
        )
        default = database.execute(query, optimize=False)
        database.analyze()
        informed = database.execute(query, optimize=False)
        assert informed.tuples == default.tuples
        examined_default = (default.stats.tuples_scanned
                            + default.stats.join_pairs_considered)
        examined_informed = (informed.stats.tuples_scanned
                             + informed.stats.join_pairs_considered)
        assert examined_default >= 5 * examined_informed
        assert informed.stats.total_work * 5 <= default.stats.total_work

    def test_keyed_selective_side_is_probed_without_statistics(self):
        """Without statistics the default constants overestimate σ(events), but
        the 10× smaller sessions side probes events' key index through the
        selection: the tag predicate filters each partner, events is never
        scanned, and answer and join pairs are the hash join's."""
        database = skewed_join_database(big=1200, small=120, rare_every=100)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"],
        )
        plan = PhysicalPlanner(source=database).plan(query)
        assert isinstance(plan.root, IndexLookupJoin)
        assert plan.root.relation == "events"
        assert plan.root.label() == \
            "index-lookup-join[scan[events, σ[kind = 'audit']], on={event_id}]"
        assert plan.root.outer.label() == "scan[sessions]"
        probed = plan.execute(database)
        assert probed.tuples == Evaluator(database).evaluate(query).tuples
        hashed = PhysicalPlan(HashJoin(plan.root.outer, plan.root.inner,
                                       on=["event_id"])).execute(database)
        assert probed.tuples == hashed.tuples
        assert probed.stats.join_pairs_considered == hashed.stats.join_pairs_considered
        # 120 partners checked against the tag, none scanned from events
        assert probed.stats.predicate_evaluations == 120
        assert probed.stats.tuples_scanned == 120
        assert hashed.stats.tuples_scanned == 120 + 12

    def test_index_lookup_join_parity_with_naive_evaluator(self):
        database = skewed_join_database(big=300, small=40)
        database.analyze()
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"],
        )
        plan = PhysicalPlanner(source=database).plan(query)
        assert isinstance(plan.root, IndexLookupJoin)
        naive = Evaluator(database).evaluate(query)
        assert plan.execute(database).tuples == naive.tuples
        # Without an index (a plain mapping of the same relations) it must
        # still be correct.
        unindexed = {name: database.relation(name) for name in database.tables()}
        assert plan.execute(unindexed).tuples == naive.tuples

    def test_multiway_join_merges_smallest_fragment_first(self):
        for key in (None, ["emp_id"]):
            database = Database()
            scheme = FlexibleScheme(1, 2, ["emp_id", FlexibleScheme(0, 1, ["extra"])])
            for name, count in (("master", 50), ("bulk", 500), ("rare", 5)):
                table = database.create_table(name, scheme, key=key,
                                              domains={"emp_id": IntDomain(),
                                                       "extra": IntDomain()})
                table.insert_many({"emp_id": i} for i in range(1, count + 1))
            expression = MultiwayJoin(
                [RelationRef("master"), RelationRef("bulk"), RelationRef("rare")],
                on=["emp_id"])
            plan = PhysicalPlanner(source=database).plan(expression)
            # one probe-preserving hash join a fragment, the master deepest
            stages, node = [], plan.root
            while isinstance(node, HashJoin):
                assert node.keep_unmatched_probe
                stages.append(node)
                node = node.left
            assert node.label() == "scan[master]"   # the master must stay first
            assert [stage.right.label() for stage in reversed(stages)] == [
                "scan[rare]", "scan[bulk]"]
            # each stage is a multiway prefix: keyed under a declared key
            assert [stage.distinct_by for stage in stages] == [
                None if key is None else attrset(key)] * 2
            assert plan.explain().count("distinct-by=") == (0 if key is None else 2)
            naive = Evaluator(database).evaluate(expression)
            assert plan.execute(database).tuples == naive.tuples

    def test_explain_carries_estimates(self):
        database = skewed_join_database(big=120, small=20)
        database.analyze()
        rendered = database.plan(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit"))).explain()
        assert "est_rows=" in rendered and "est_cost=" in rendered

    def test_plan_cache_invalidated_by_analyze(self):
        database = skewed_join_database(big=120, small=20)
        executor = database.physical_executor
        query = Selection(RelationRef("events"), Comparison("kind", "=", "audit"))
        # The un-analyzed selectivity default mis-prices this selection, so the
        # first execution records a cardinality-feedback correction and the
        # second re-plans against it; from the third on the plan cache is hot.
        database.execute(query, optimize=False)
        database.execute(query, optimize=False)
        database.execute(query, optimize=False)
        assert executor.cache.hits >= 1
        misses = executor.cache.misses
        database.analyze()
        database.execute(query, optimize=False)
        assert executor.cache.misses > misses

    def test_grown_table_replans_cached_join_without_analyze(self):
        """A hash join cached while its build side was the smaller table must be
        re-planned once that table has grown substantially, even if ANALYZE
        never ran and no feedback was recorded: only the statistics version's
        power-of-two size bump tells the plan cache."""
        database = skewed_join_database(big=6, small=12)
        # data-dependent attributes: no index join can replace the hash join
        query = NaturalJoin(RelationRef("events"), RelationRef("sessions"))
        cached = database.plan(query, optimize=False)
        assert isinstance(cached.root, HashJoin)
        assert cached.root.right.relation == "events"
        database.table("events").insert_many(
            {"event_id": event_id, "kind": "view", "payload": event_id % 7}
            for event_id in range(7, 2001))
        replanned = database.plan(query, optimize=False)
        assert replanned.root.right.relation == "sessions"
        assert database.execute(query, optimize=False).tuples \
            == Evaluator(database).evaluate(query).tuples

    def test_low_ndv_index_is_priced_out_by_fan_out(self):
        """An index with huge buckets must not masquerade as a cheap lookup path."""
        database = skewed_join_database(big=400, small=0)
        tags = database.create_table("tags", FlexibleScheme(2, 2, ["kind", "label"]),
                                     domains={"kind": StringDomain(max_length=32),
                                              "label": StringDomain(max_length=32)})
        tags.insert_many({"kind": kind, "label": "L" + kind}
                         for kind in ("audit", "click", "view"))
        database.analyze()
        # Joining on 'kind': events has an index on it, but only 3 distinct
        # values over 400 rows — each probe would examine ~133 partners, so the
        # planner must keep the hash join despite the tiny outer side.
        query = NaturalJoin(RelationRef("tags"), RelationRef("events"), on=["kind"])
        plan = PhysicalPlanner(source=database).plan(query)
        assert isinstance(plan.root, HashJoin)

    def test_cost_model_prefers_fresh_statistics_dynamically(self):
        """The same planner object re-reads the statistics on every plan() call."""
        database = skewed_join_database(big=240, small=24, keyed_events=False)
        planner = PhysicalPlanner(source=database)
        query = NaturalJoin(
            Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
            RelationRef("sessions"), on=["event_id"],
        )
        assert isinstance(planner.plan(query).root, HashJoin)
        database.analyze()
        assert isinstance(planner.plan(query).root, IndexLookupJoin)
        database.insert("events", {"event_id": 100_000, "kind": "view", "payload": 1})
        assert isinstance(planner.plan(query).root, IndexLookupJoin)
        database.statistics.invalidate("events")
        assert isinstance(planner.plan(query).root, HashJoin)


# -- sampling ANALYZE and the auto-ANALYZE policy ----------------------------------------------


def _tuples(*dicts):
    return [FlexTuple(d) for d in dicts]


def _under_hash_seed(seed, *args):
    """``python *args`` run from the repository root under ``PYTHONHASHSEED=seed``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run([sys.executable] + list(args), cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)


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
        # the sample's presence, scaled; the served one is the shape counts'
        scaled = statistics.attribute("payload").present_count / 5000.0
        assert abs(scaled - 0.99) < 0.03
        exact = sum(1 for tup in database.table("events") if "payload" in tup._values)
        assert statistics.guard_selectivity(["payload"]) == exact / 5000.0

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

    def test_sampled_statistics_ignore_the_hash_seed(self):
        # The seeded sample walks an insertion-ordered table, so the statistics
        # drawn from it — and the plan above — are one answer under every seed.
        script = (
            "import json\n"
            "from repro.workloads.events import skewed_join_database\n"
            "database = skewed_join_database(big=2000, small=200, rare_every=100)\n"
            "database.analyze(sample_size=500)\n"
            "print(json.dumps(database.stats('events').to_dict(),"
            " sort_keys=True, default=repr))\n")
        first, second = (_under_hash_seed(seed, "-c", script).stdout
                         for seed in ("1", "15"))
        assert first == second and '"sampled": true' in first
        planner = _under_hash_seed(
            "15", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            __file__ + "::TestSamplingAnalyze::test_sampled_statistics_drive_the_planner")
        assert planner.returncode == 0, planner.stdout

    def test_sampled_flag_survives_serialization(self):
        database = self.events_database(big=2000)
        database.analyze(sample_size=500)
        loaded = loads_database(dumps_database(database))
        restored = loaded.stats("events")
        assert restored is not None and restored.sampled
        assert restored.row_count == 2000


class TestAutoAnalyze:
    """There is no automatic re-ANALYZE: DML ages the value distributions
    until the next explicit ANALYZE."""

    def small_database(self):
        database = Database(enforce_constraints=False)
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
        statistics = database.stats("events")
        assert statistics.row_count == 69 and statistics.attribute("event_id").ndv == 50

    def test_never_analyzed_tables_are_left_alone(self):
        database = self.small_database()
        for event_id in range(51, 80):
            database.insert("events", {"event_id": event_id, "kind": "view",
                                       "payload": 2})
        assert database.stats("events") is None


# -- statistics that survive DML ---------------------------------------------------------------


class TestStatisticsSurviveDML:
    """On the 100,000-order table, DML keeps the planner's estimates: the row,
    presence and guard counts are the shape counts, the value distributions
    age instead of vanishing."""

    QUERIES = (Selection(RelationRef("orders"), Comparison("region", "=", "r3")),
               TypeGuardNode(RelationRef("orders"), ["coupon"]))

    @staticmethod
    def _estimates(database):
        plans = [database.plan(query) for query in TestStatisticsSurviveDML.QUERIES]
        return [(plan.root.estimated_rows, plan.batch_size) for plan in plans]

    def test_delete_and_reinsert_leave_every_estimate(self):
        database = analytics_database()
        before = self._estimates(database)
        orders = database.table("orders")
        victim = next(iter(orders))
        orders.delete(victim)
        orders.insert(victim)
        assert self._estimates(database) == before

    def test_one_percent_churn_keeps_the_q_error_small(self):
        """1,000 online orders become store orders: the paper's type change."""
        database = analytics_database()
        orders = database.table("orders")
        online = [tup for tup in orders if tup["channel"] == "online"][:len(orders) // 100]
        for tup in online:
            orders.update(tup, channel="store", coupon=REMOVE, store_id=7)
        for query in self.QUERIES:
            estimated = database.plan(query).root.estimated_rows
            assert q_error(estimated, len(database.execute(query))) <= 1.5


# -- ANALYZE against its reference -------------------------------------------------------------


#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (CI's random-seed sweep);
#: the reference property runs once per case, a quarter of the examples each
#: in tier-1, the full count under REPRO_SWEEP_EXAMPLES
ANALYZE_EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "60"))
CASE_EXAMPLES = (ANALYZE_EXAMPLES if "REPRO_SWEEP_EXAMPLES" in os.environ
                 else max(ANALYZE_EXAMPLES // 4, 25))
#: a falsifying case lands next to the fuzz harness's shrunk trees
ARTIFACT = os.environ.get("REPRO_FUZZ_ARTIFACT", "fuzz-failure.txt")


def reference_analyze(table, max_buckets=DEFAULT_BUCKETS, most_common=DEFAULT_MOST_COMMON,
                      sample_size=None, seed=DEFAULT_SAMPLE_SEED):
    """ANALYZE row by row: each tuple's ``items()`` feed the per-attribute
    value lists and the variant counter.  The oracle of :func:`analyze_table`,
    which reads the same rows a column at a time."""
    name = getattr(table, "name", None) or "<anonymous>"
    sampled = False
    total_rows = None
    rows = table
    if sample_size is not None and sample_size > 0:
        sample, total = reservoir_sample(table, sample_size, seed=seed)
        rows = sample
        if total > sample_size:
            sampled = True
            total_rows = total

    values_by_attribute = {}
    variant_counts = Counter()
    row_count = 0
    for tup in rows:
        row_count += 1
        names = []
        for attribute, value in tup.items():
            names.append(attribute)
            values_by_attribute.setdefault(attribute, []).append(value)
        variant_counts[frozenset(names)] += 1

    if total_rows is None:
        total_rows = row_count
    scale = total_rows / float(row_count) if row_count else 1.0

    attributes = {}
    for attribute, values in values_by_attribute.items():
        counter = Counter(values)
        ndv = len(counter)
        top = dict(counter.most_common(most_common))
        try:
            min_value, max_value = min(values), max(values)
        except TypeError:
            min_value = max_value = None
        if sampled:
            singletons = sum(1 for count in counter.values() if count == 1)
            present = int(round(len(values) * scale))
            ndv = estimate_ndv(ndv, singletons, len(values), present)
            top = {value: max(1, int(round(count * scale)))
                   for value, count in top.items()}
            complete = False
        else:
            present = len(values)
            complete = len(counter) <= len(top)
        attributes[attribute] = AttributeStatistics(
            attribute, total_rows, present_count=present, ndv=ndv,
            min_value=min_value, max_value=max_value,
            histogram=build_histogram(values, max_buckets=max_buckets),
            most_common=top, mcv_complete=complete,
        )

    if sampled:
        variant_counts = Counter({combo: max(1, int(round(count * scale)))
                                  for combo, count in variant_counts.items()})
    statistics = TableStatistics(name, total_rows, attributes, variant_counts)
    statistics.sampled = sampled
    statistics.sample_rows = row_count if sampled else None
    return statistics


ANALYZE_NAMES = ("a", "B", "_c", "é")
ANALYZE_SCHEME = FlexibleScheme(0, len(ANALYZE_NAMES), list(ANALYZE_NAMES))
NAN = float("nan")

#: equal values of different types, NULLs, strings and NaN (one shared object
#: and fresh ones, each its own Counter key): a column mixing them is
#: unsortable, so its histogram and min/max are ``None``
_analyze_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, 2.5, None, NAN, "", "x", "é"]),
    st.builds(float, st.just("nan")),
)
_analyze_rows = st.lists(
    st.dictionaries(st.sampled_from(ANALYZE_NAMES), _analyze_values), max_size=40)


def _analyze_source(kind, rows):
    """The rows as a stored table, a flexible relation or a plain list."""
    if kind == "table":
        table = Table(TableDefinition("t", ANALYZE_SCHEME))
        table.insert_many(rows)
        return table
    if kind == "relation":
        return FlexibleRelation(ANALYZE_SCHEME, rows, name="r")
    return [FlexTuple(row) for row in rows]


def _analyze_mismatch(source, sample_size):
    """What differs between ANALYZE and its reference on ``source``, or ``None``."""
    got = analyze_table(source, sample_size=sample_size)
    want = reference_analyze(source, sample_size=sample_size)
    # repr tells 1, 1.0 and True apart, which == does not: the first value
    # seen must be the one each MCV list and min/max keep
    if repr(got.to_dict()) != repr(want.to_dict()) or got.to_dict() != want.to_dict():
        return "to_dict\n{!r}\n{!r}".format(got.to_dict(), want.to_dict())
    if list(got.attributes) != list(want.attributes):
        return "attribute order {} != {}".format(list(got.attributes), list(want.attributes))
    for name, stats in want.attributes.items():
        if repr(list(got.attributes[name].most_common)) != repr(list(stats.most_common)):
            return "most_common order of {}".format(name)
    return None


@pytest.mark.parametrize("kind", ["table", "relation", "list"])
@pytest.mark.parametrize("sample_size", [None, 3, 1000], ids=["exact", "small", "large"])
@settings(max_examples=CASE_EXAMPLES, deadline=None)
@given(rows=_analyze_rows)
@example(rows=[])
def test_analyze_matches_reference(kind, sample_size, rows):
    """Column-wise ANALYZE equals the row-by-row reference: the same
    statistics, attribute order and most-common-value order, over a table, a
    relation and a list, exact, sampled and below the sampling threshold."""
    problem = _analyze_mismatch(_analyze_source(kind, rows), sample_size)
    if problem is not None:
        report = ("ANALYZE differs from the row-by-row reference\n"
                  "kind = {}, sample_size = {}\nrows = {!r}\n{}\n".format(
                      kind, sample_size, rows, problem))
        try:
            with open(ARTIFACT, "w") as handle:
                handle.write(report)
        except OSError:
            pass
        pytest.fail(report)


@pytest.mark.parametrize("sample_size", [None, 500, 5000], ids=["exact", "small", "large"])
def test_analyze_matches_reference_on_the_employees(analyzed_employees, sample_size):
    database, _ = analyzed_employees
    assert _analyze_mismatch(database.table("employees"), sample_size) is None
