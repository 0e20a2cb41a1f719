"""E11 — statistics-informed planning vs. default-selectivity planning.

The skewed-variant workload: an ``events`` relation where one variant tag
(``kind = 'audit'``, carrying the ``clearance`` attribute) occurs in 1% of the
tuples, joined to a ``sessions`` relation 10× smaller.  ``events`` is loaded
without its key, so no index of the selective side covers the join attribute
and only statistics can make the planner probe ``sessions``.  Claims checked
(and reported as machine-readable ``BENCH_e11_*.json``):

* with fresh statistics (``Database.analyze()``), the physical planner knows the
  tag selection leaves ~40 rows and flips the join to an
  :class:`~repro.exec.operators.IndexLookupJoin` — the default-selectivity plan
  hash-joins after scanning the whole sessions relation.  The stats-informed
  plan examines **≥ 5× fewer tuples + join pairs** (the acceptance gate).
  A report row shows the same query where ``events`` keeps its key: there the
  default-selectivity plan already probes ``events``' key index through the
  tag selection;
* estimation accuracy: estimated rows per plan node track the true cardinalities
  on the skewed workload (tag selection within 1 row), where the default
  constants are off by >10×;
* statistics persist through serialization, so a dumped-and-reloaded database
  plans identically without re-running ANALYZE.
"""

import time

import pytest

from reporting import print_report
from repro.algebra import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine import dumps_database, loads_database
from repro.exec import HashJoin, IndexLookupJoin
from repro.workloads.events import skewed_join_database

BIG_SIDE = 4000
SMALL_SIDE = 400
RARE_EVERY = 100  # kind='audit' on every 100th event: a 1% variant tag


@pytest.fixture(scope="module")
def skewed_database():
    return skewed_join_database(big=BIG_SIDE, small=SMALL_SIDE, rare_every=RARE_EVERY,
                                keyed_events=False)


def skewed_join_query():
    return NaturalJoin(
        Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
        RelationRef("sessions"), on=["event_id"],
    )


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def _examined(stats):
    return stats.tuples_scanned + stats.join_pairs_considered


def test_report_stats_informed_plan_beats_default(skewed_database):
    """The acceptance gate: ≥5× fewer examined tuples + join pairs with statistics."""
    database = skewed_database
    database.statistics.invalidate()
    query = skewed_join_query()

    default_plan = database.plan(query, optimize=False)
    default, default_seconds = _timed(lambda: database.execute(query, optimize=False))

    analyze_start = time.perf_counter()
    database.analyze()
    analyze_seconds = time.perf_counter() - analyze_start

    informed_plan = database.plan(query, optimize=False)
    informed, informed_seconds = _timed(lambda: database.execute(query, optimize=False))

    # The same query where events keeps its key, without statistics.
    keyed = skewed_join_database(big=BIG_SIDE, small=SMALL_SIDE, rare_every=RARE_EVERY)
    keyed_plan = keyed.plan(query, optimize=False)
    probed, probed_seconds = _timed(lambda: keyed.execute(query, optimize=False))

    rows = [
        {"planner": "default-selectivity", "join": type(default_plan.root).__name__,
         "tuples": len(default), "examined": _examined(default.stats),
         "join_pairs": default.stats.join_pairs_considered,
         "work": default.stats.total_work, "seconds": round(default_seconds, 4)},
        {"planner": "stats-informed", "join": type(informed_plan.root).__name__,
         "tuples": len(informed), "examined": _examined(informed.stats),
         "join_pairs": informed.stats.join_pairs_considered,
         "work": informed.stats.total_work, "seconds": round(informed_seconds, 4)},
        {"planner": "default-selectivity, keyed events",
         "join": type(keyed_plan.root).__name__,
         "tuples": len(probed), "examined": _examined(probed.stats),
         "join_pairs": probed.stats.join_pairs_considered,
         "work": probed.stats.total_work, "seconds": round(probed_seconds, 4)},
        {"planner": "(ANALYZE cost)", "join": "-", "tuples": "-", "examined": "-",
         "join_pairs": "-", "work": "-", "seconds": round(analyze_seconds, 4)},
    ]
    print_report(
        "E11: σ(kind='audit' @1%)(events {b}) ⋈ sessions {s} — default vs stats plan".format(
            b=BIG_SIDE, s=SMALL_SIDE),
        rows, json_name="e11_stats_vs_default_plan",
    )
    assert informed.tuples == default.tuples
    assert isinstance(default_plan.root, HashJoin)
    assert isinstance(informed_plan.root, IndexLookupJoin)
    # The acceptance criterion.
    assert _examined(default.stats) >= 5 * _examined(informed.stats)
    # With its key, events is probed through the tag selection without statistics.
    assert probed.tuples == default.tuples
    assert isinstance(keyed_plan.root, IndexLookupJoin)
    assert keyed_plan.root.relation == "events" and keyed_plan.root.inner.predicate is not None
    assert _examined(probed.stats) < _examined(default.stats)


def test_report_estimation_accuracy(skewed_database):
    """Estimated rows per node track the truth; default constants are far off."""
    database = skewed_database
    database.analyze()
    selection = Selection(RelationRef("events"), Comparison("kind", "=", "audit"))
    true_rows = len(database.execute(selection, optimize=False))

    informed_estimate = database.plan(selection, optimize=False).root.estimated_rows
    database.statistics.invalidate()
    default_estimate = database.plan(selection, optimize=False).root.estimated_rows
    database.analyze()

    rows = [
        {"estimator": "true cardinality", "rows": true_rows, "error": 0.0},
        {"estimator": "stats-informed", "rows": round(informed_estimate, 1),
         "error": round(abs(informed_estimate - true_rows), 1)},
        {"estimator": "default constants", "rows": round(default_estimate, 1),
         "error": round(abs(default_estimate - true_rows), 1)},
    ]
    print_report("E11: estimated rows for the 1% tag selection", rows,
                  json_name="e11_estimation_accuracy")
    assert abs(informed_estimate - true_rows) <= 1.0
    assert abs(default_estimate - true_rows) >= 10 * max(1.0, abs(informed_estimate - true_rows))


def test_report_statistics_survive_serialization(skewed_database):
    """A dumped-and-reloaded database plans from statistics without re-ANALYZE."""
    database = skewed_database
    database.analyze()
    dump_start = time.perf_counter()
    document = dumps_database(database)
    loaded = loads_database(document)
    reload_seconds = time.perf_counter() - dump_start

    query = skewed_join_query()
    original_root = type(database.plan(query, optimize=False).root).__name__
    loaded_root = type(loaded.plan(query, optimize=False).root).__name__
    rows = [{
        "fresh stats after load": loaded.statistics.is_fresh("events"),
        "plan (original)": original_root,
        "plan (reloaded)": loaded_root,
        "document KiB": round(len(document) / 1024.0, 1),
        "dump+load seconds": round(reload_seconds, 4),
    }]
    print_report("E11: statistics persistence (skip re-ANALYZE after load)", rows,
                  json_name="e11_stats_persistence")
    assert loaded.statistics.is_fresh("events") and loaded.statistics.is_fresh("sessions")
    # What matters here is that the reloaded database picks the same
    # index-lookup plan.
    assert loaded_root == original_root
    assert isinstance(loaded.plan(query, optimize=False).root, IndexLookupJoin)


@pytest.mark.benchmark(group="e11-stats")
def test_bench_join_stats_informed(benchmark, skewed_database):
    skewed_database.analyze()
    query = skewed_join_query()

    def run():
        return len(skewed_database.execute(query, optimize=False))

    benchmark(run)


@pytest.mark.benchmark(group="e11-stats")
def test_bench_join_default_selectivity(benchmark, skewed_database):
    skewed_database.statistics.invalidate()
    query = skewed_join_query()

    def run():
        return len(skewed_database.execute(query, optimize=False))

    benchmark(run)


@pytest.mark.benchmark(group="e11-analyze")
def test_bench_analyze_throughput(benchmark, skewed_database):
    benchmark(lambda: skewed_database.analyze())
