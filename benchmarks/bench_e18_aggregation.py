"""E18 — AD-aware aggregation and top-k on the skewed orders workload.

100k ``orders`` rows (Zipf-skewed regions, channel-keyed variant attributes,
mixed int/float/NULL/absent amounts — :mod:`repro.workloads.analytics`) drive
two claims from the analytic-surface ISSUE:

* **streaming hash aggregation** — all six aggregate functions grouped by
  ``region`` through the batch engine must beat a deliberately naive
  *sort-group* reference (full sort of the materialized relation on the group
  key, then one accumulator update per row) by **≥5× wall-clock**, while the
  reference reproduces the same tuple set through the shared :class:`~repro.algebra.analytic.AggregateAccumulator`
  semantics;
* **bounded top-k memory** — ``λ_10 ∘ τ`` lowers to the sort under a limit
  (``top-k``, holding at most twice the limit plus one batch's candidates)
  whose ``peak_bytes`` accounting stays *orders of magnitude* below
  the full sort's bounded-materialization accounting on the same input
  (the ``memory_ratio`` column), while agreeing with the naive evaluator.

The ``speedup`` ratios are machine-independent gates tracked by
``check_regression.py`` (report name ``e18_aggregation``).
"""

import time

import pytest

from reporting import print_report
from repro.algebra import Aggregate, Evaluator, Limit, RelationRef, Sort
from repro.algebra.analytic import (
    AggregateAccumulator,
    aggregate_spec,
    group_key,
    group_values,
    row_order_key,
    sort_key,
)
from repro.exec import PhysicalExecutor
from repro.model.tuples import FlexTuple
from repro.workloads.analytics import DEFAULT_ORDER_COUNT, analytics_database

#: the ISSUE acceptance gate: batch hash aggregation ≥5× over the naive
#: sort-group reference
ACCEPTANCE_FACTOR = 5.0

#: the top-k memory gate: the top-k's peak_bytes at least this many times
#: smaller than the full sort's materialization on the same 100k rows
MEMORY_FACTOR = 50.0

#: every aggregate function at once, grouped by the Zipf-skewed region
GROUP_BY = ("region",)
SPECS = ("count", ("count", "amount"), ("sum", "amount"),
         ("min", "amount"), ("max", "amount"), ("avg", "amount"))

TOPK_KEYS = ("-amount", "order_id")
TOPK_COUNT = 10

#: best-of-N damps CI-runner noise; the gated number is a ratio of two
#: best-of measurements, so a single slow run cannot flip it
TIMING_RUNS = 3


@pytest.fixture(scope="module")
def orders_database():
    return analytics_database(DEFAULT_ORDER_COUNT, seed=18)


def naive_sort_group(tuples, group_by, specs):
    """The textbook sort-based GROUP BY: sort on the key, scan, accumulate.

    Deliberately row-at-a-time — a full O(n log n) sort of the materialized
    relation followed by one accumulator update per row — but built on the
    *same* :class:`AggregateAccumulator`, so its results are the pinned
    semantics by construction and any engine divergence is a real bug.
    """
    specs = tuple(aggregate_spec(spec) for spec in specs)
    accumulator = AggregateAccumulator(specs)
    rows = sorted(tuples, key=lambda tup: row_order_key(
        tup._values, tuple(sort_key(attr) for attr in group_by)))
    results = set()
    current_key, state = None, None
    for tup in rows:
        values = tup._values
        key = group_key(values, group_by)
        if key != current_key:
            if state is not None:
                results.add(FlexTuple(**dict(group_values(current_key, group_by),
                                             **accumulator.finalize(state))))
            current_key, state = key, accumulator.new_state()
        accumulator.update(state, values)
    if state is not None:
        results.add(FlexTuple(**dict(group_values(current_key, group_by),
                                     **accumulator.finalize(state))))
    return results


def _best_of(callable_, runs=TIMING_RUNS):
    result, best = None, None
    for _ in range(runs):
        start = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_report_hash_aggregate_beats_sort_group(orders_database):
    """The acceptance gate: ≥5× over the naive sort-group reference."""
    database = orders_database
    query = Aggregate(RelationRef("orders"), group_by=GROUP_BY, specs=SPECS)

    tuples = set(database.table("orders"))
    reference, naive_seconds = _best_of(
        lambda: naive_sort_group(tuples, GROUP_BY, SPECS))

    batch_exec = PhysicalExecutor(database)
    batch_result, batch_seconds = _best_of(lambda: batch_exec.execute(query))
    speedup = naive_seconds / batch_seconds

    rows = [
        {"engine": "naive sort-group reference (full sort + per-row update)",
         "groups": len(reference), "rows_in": len(tuples),
         "seconds": round(naive_seconds, 4), "speedup": "1.00x"},
        {"engine": "batch hash aggregate (column-wise accumulation)",
         "groups": len(batch_result), "rows_in": len(tuples),
         "seconds": round(batch_seconds, 4),
         "speedup": "{:.2f}x".format(speedup)},
    ]
    print_report(
        "E18: γ_region[count, count(amount), sum, min, max, avg] on "
        "{}k skewed orders — naive sort-group vs hash aggregation".format(
            DEFAULT_ORDER_COUNT // 1000),
        rows, json_name="e18_aggregation",
        database=database, operators=batch_result.operator_report(),
    )

    assert batch_result.tuples == reference
    # the ISSUE acceptance criterion
    assert speedup >= ACCEPTANCE_FACTOR, (
        "batch hash aggregate speedup {:.2f}x below the {}x gate".format(
            speedup, ACCEPTANCE_FACTOR))


def test_report_topk_heap_is_bounded(orders_database):
    """λ_10 ∘ τ holds O(k) rows; the full sort materializes all 100k."""
    database = orders_database
    topk_query = Limit(Sort(RelationRef("orders"), TOPK_KEYS), TOPK_COUNT)
    sort_query = Sort(RelationRef("orders"), TOPK_KEYS)

    executor = PhysicalExecutor(database)
    topk_plan = executor.plan(topk_query)
    assert "top-k" in topk_plan.explain(), topk_plan.explain()

    topk_result, topk_seconds = _best_of(lambda: executor.execute(topk_query))
    sort_result, sort_seconds = _best_of(lambda: executor.execute(sort_query))

    def peak_of(result, operator):
        for entry in result.operator_report():
            if operator in entry["operator"]:
                return entry["peak_bytes"]
        raise AssertionError("no {} operator in the report".format(operator))

    topk_peak = peak_of(topk_result, "top-k")
    sort_peak = peak_of(sort_result, "sort")
    ratio = sort_peak / max(1, topk_peak)

    rows = [
        {"plan": "full sort (bounded materialization accounting)",
         "tuples": len(sort_result), "peak_bytes": sort_peak,
         "seconds": round(sort_seconds, 4), "memory_ratio": "1.00x"},
        {"plan": "bounded top-k (k={})".format(TOPK_COUNT),
         "tuples": len(topk_result), "peak_bytes": topk_peak,
         "seconds": round(topk_seconds, 4),
         "memory_ratio": "{:.0f}x".format(ratio)},
    ]
    print_report(
        "E18: λ_{} ∘ τ(-amount, order_id) on {}k orders — bounded top-k vs full "
        "sort peak memory".format(TOPK_COUNT, DEFAULT_ORDER_COUNT // 1000),
        rows, json_name="e18_topk", database=database,
    )

    # the top-k answer is the naive evaluator's answer
    assert topk_result.tuples \
        == Evaluator(database).evaluate(topk_query).tuples
    assert len(topk_result) == TOPK_COUNT
    # the memory gate: O(k) held rows vs O(n) materialization
    assert topk_peak * MEMORY_FACTOR <= sort_peak, (
        "top-k peak {} bytes not {}x below the full sort's {}".format(
            topk_peak, MEMORY_FACTOR, sort_peak))
