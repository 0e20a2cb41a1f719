"""E19 — the resource governor: spill-to-disk under a memory budget, bounded aborts.

20k ``orders`` rows (the skewed analytic workload) drive the governance
claims of the resource-governor ISSUE:

* **spill completes under budget** — the ``order_id``-grouped hash aggregate
  whose in-memory state is several times the budget must *complete* with a
  budget of a quarter of its unspilled footprint, return the identical tuple
  set, and report ``peak_bytes`` under **half** the unspilled peak (the
  ``speedup`` ratio is peak-memory reduction, gated ≥2x by
  ``check_regression.py`` under report name ``e19_governor``);
* **bounded abort latency** — a governed query with a microscopic deadline
  must unwind through ``QueryTimeout`` in well under a second: cooperative
  cancellation checks fire at every operator batch boundary, so a runaway
  query cannot hold its slot longer than one boundary interval;
* **observability** — spill activity and termination reasons land in
  ``Database.metrics()`` and the Prometheus export
  (``repro_spill_segments_total``), so the governor is monitorable with the
  same machinery as everything else.
"""

import time

import pytest

from reporting import print_report
from repro.algebra import Aggregate, RelationRef
from repro.errors import QueryTimeout
from repro.exec import PhysicalExecutor, PhysicalPlanner
from repro.workloads.analytics import analytics_database

#: rows in the benchmark workload — enough that the per-order aggregate's
#: hash state dwarfs any reasonable budget
ORDER_COUNT = 20_000

#: the acceptance gate: spilled peak_bytes at most half the unspilled peak
PEAK_FACTOR = 2.0

#: the abort-latency gate, generous for CI runners; interactively the unwind
#: is single-digit milliseconds
ABORT_SECONDS = 1.0

#: the budget as a fraction of the unspilled footprint: a quarter means the
#: workload is >2x the budget even after halving, per the ISSUE wording
BUDGET_DIVISOR = 4

GROUP_BY = ("order_id",)
SPECS = (("sum", "amount"), "count", ("avg", "amount"),
         ("min", "amount"), ("max", "amount"))

TIMING_RUNS = 3


@pytest.fixture(scope="module")
def orders_database():
    return analytics_database(ORDER_COUNT, seed=19)


def _query():
    return Aggregate(RelationRef("orders"), group_by=GROUP_BY, specs=SPECS)


def _best_of(callable_, runs=TIMING_RUNS):
    result, best = None, None
    for _ in range(runs):
        start = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _peak(result):
    return max(entry["peak_bytes"] for entry in result.operator_report())


def test_report_spilling_aggregate_completes_under_budget(orders_database):
    """The tentpole gate: a quarter-budget run completes with half the peak."""
    database = orders_database
    query = _query()
    executor = PhysicalExecutor(database, planner=PhysicalPlanner(
        source=database))

    from repro.governor import QueryGovernor

    def governed_run(budget):
        governor = QueryGovernor(memory_budget=budget,
                                 registry=database.metrics_registry)
        try:
            return executor.execute(query, governor=governor), governor.spilled
        finally:
            governor.finish()

    # under a budget it never reaches the spilling aggregator holds every
    # per-group accumulator state — the same representation it partitions to
    # disk, so that peak is the honest reference footprint
    (baseline, _), unspilled_seconds = _best_of(lambda: governed_run(1 << 40))
    peak0 = _peak(baseline)
    budget = peak0 // BUDGET_DIVISOR
    (spilled, did_spill), spilled_seconds = _best_of(lambda: governed_run(budget))
    peak1 = _peak(spilled)
    reduction = peak0 / max(1, peak1)

    rows = [
        {"plan": "in-memory hash aggregate (no budget)",
         "groups": len(baseline), "peak_bytes": peak0,
         "seconds": round(unspilled_seconds, 4), "speedup": "1.00x"},
        {"plan": "governed: budget={}B (peak/{}), partitioned spill".format(
            budget, BUDGET_DIVISOR),
         "groups": len(spilled), "peak_bytes": peak1,
         "seconds": round(spilled_seconds, 4),
         "speedup": "{:.2f}x".format(reduction)},
    ]
    print_report(
        "E19: γ_order_id[sum, count, avg, min, max] on {}k skewed orders — "
        "spill-to-disk under a quarter memory budget".format(
            ORDER_COUNT // 1000),
        rows, json_name="e19_governor",
        database=database, operators=spilled.operator_report(),
    )

    assert did_spill, "a quarter budget over this workload must force a spill"
    assert set(spilled.tuples) == set(baseline.tuples)
    assert spilled.stats.as_dict() == baseline.stats.as_dict()
    # the ISSUE acceptance criterion: bounded peak under spilling
    assert peak1 * PEAK_FACTOR <= peak0, (
        "spilled peak {} bytes not {}x below the unspilled {}".format(
            peak1, PEAK_FACTOR, peak0))
    # spill activity is observable through metrics and the Prometheus export
    snapshot = database.metrics()["metrics"]
    assert snapshot["spill.segments"] > 0
    assert snapshot["spill.records"] > 0
    text = database.prometheus_metrics()
    assert "repro_spill_segments_total" in text


def test_report_governed_abort_latency_is_bounded(orders_database):
    """A microscopic deadline kills the query within one boundary interval."""
    database = orders_database
    timeouts_before = database.metrics_registry.counter("queries.timeout").value

    start = time.perf_counter()
    with pytest.raises(QueryTimeout):
        database.execute(_query(), timeout=0.000001)
    elapsed = time.perf_counter() - start

    rows = [
        {"scenario": "deadline=1µs on the {}k-row aggregate".format(
            ORDER_COUNT // 1000),
         "outcome": "QueryTimeout",
         "abort_seconds": round(elapsed, 4),
         "bound_seconds": ABORT_SECONDS},
    ]
    print_report(
        "E19: governed abort latency — cooperative cancellation at batch "
        "boundaries", rows, json_name="e19_abort", database=database,
    )

    assert elapsed < ABORT_SECONDS, (
        "governed abort took {:.3f}s, above the {}s bound".format(
            elapsed, ABORT_SECONDS))
    counters = database.metrics()["metrics"]
    assert counters["queries.timeout"] == timeouts_before + 1
    # the termination reason reaches the slow-query log
    entry = database.slow_query_log.entries()[-1]
    assert entry.note == "terminated: timeout"
