"""E13 — cost-based join-order search vs. the written join order.

The star workload of :mod:`repro.workloads.star`: a 5000-row ``fact`` relation
joined to five dimensions, four of them tiny but non-reductive, the largest one
(``dim_rare``) filtered down to a 5% variant tag and the only join that
actually shrinks the fact side.  Claims checked (and reported as
machine-readable ``BENCH_e13_*.json``):

* the DP search (``join_order_search="dp"``) reorders the 6-way join to run
  ``fact ⋈ σ(dim_rare)`` first and examines **≥ 5× fewer join pairs**
  (``join_pairs_considered``) than the written smallest-dimension-first order
  (``join_order_search="none"``) — the acceptance gate — with identical
  result sets;
* the search's effort (connected subsets, candidates priced and pruned) stays
  small at six relations on both workloads;
* on the 5-way chain workload (selective filters on both ends) the searched
  and the written order agree with the naive evaluator — the reordering is
  semantics-preserving on bushy shapes too.
"""

import time

import pytest

from reporting import print_report
from repro.algebra import Evaluator
from repro.exec import PhysicalPlanner
from repro.workloads.star import (
    chain_join_database,
    chain_join_query,
    star_join_database,
    star_join_query,
)

#: the acceptance factor: DP examines ≥ this many times fewer pairs
ACCEPTANCE_FACTOR = 5


@pytest.fixture(scope="module")
def star_database():
    database = star_join_database()
    database.analyze()
    return database


@pytest.fixture(scope="module")
def chain_database():
    database = chain_join_database()
    database.analyze()
    return database


def _run(database, query, mode):
    plan = PhysicalPlanner(database, join_order_search=mode).plan(query)
    start = time.perf_counter()
    result = plan.execute(database)
    seconds = time.perf_counter() - start
    report = plan.join_search[0] if plan.join_search else None
    return plan, result, report, seconds


def test_report_star_dp_beats_the_written_order(star_database):
    """The acceptance gate: ≥5× fewer join pairs than the written order."""
    query = star_join_query()
    rows = []
    results = {}
    for mode in ("none", "dp"):
        plan, result, report, seconds = _run(star_database, query, mode)
        results[mode] = result
        rows.append({
            "search": mode,
            "join_pairs": result.stats.join_pairs_considered,
            "work": result.stats.total_work,
            "tuples": len(result),
            "order": report.order if report else "(written order)",
            "seconds": round(seconds, 4),
        })
    print_report(
        "E13: 6-way skewed star join (fact 5000, 5%-tag dim_rare) — search modes",
        rows, json_name="e13_star_join_order",
        database=star_database, operators=results["dp"].operator_report(),
    )
    assert results["none"].tuples == results["dp"].tuples
    written_pairs = results["none"].stats.join_pairs_considered
    dp_pairs = results["dp"].stats.join_pairs_considered
    assert written_pairs >= ACCEPTANCE_FACTOR * dp_pairs


def test_report_search_effort(star_database, chain_database):
    """The DP search's enumeration statistics stay tiny at n=6."""
    rows = []
    reports = {}
    for label, database, query in (("star", star_database, star_join_query()),
                                   ("chain", chain_database, chain_join_query())):
        plan, _result, report, _seconds = _run(database, query, "dp")
        reports[label] = report
        entry = {"workload": label, "search": "dp"}
        entry.update(report.as_dict())
        del entry["order"]
        rows.append(entry)
    print_report("E13: join-order search effort (subsets / candidates / pruned)",
                 rows, json_name="e13_search_effort")
    star_dp = reports["star"]
    assert star_dp.relations == 6
    # Every plan the DP keeps covers a connected subset: at most 2^6 of them.
    assert star_dp.subsets_enumerated <= 2 ** 6
    assert star_dp.plans_pruned < star_dp.plans_considered


def test_report_chain_parity_all_modes(chain_database):
    """Reordering is semantics-preserving: both modes equal the naive evaluator."""
    query = chain_join_query()
    naive = Evaluator(chain_database).evaluate(query)
    rows = [{"mode": "naive-evaluator", "tuples": len(naive.tuples),
             "join_pairs": naive.stats.join_pairs_considered, "parity": "-"}]
    for mode in ("none", "dp"):
        _plan, result, _report, _seconds = _run(chain_database, query, mode)
        rows.append({"mode": mode, "tuples": len(result),
                     "join_pairs": result.stats.join_pairs_considered,
                     "parity": result.tuples == naive.tuples})
        assert result.tuples == naive.tuples
    print_report("E13: 5-way chain join — parity across search modes", rows,
                 json_name="e13_chain_parity")


@pytest.mark.benchmark(group="e13-joinorder")
def test_bench_star_dp(benchmark, star_database):
    query = star_join_query()
    plan = PhysicalPlanner(star_database, join_order_search="dp").plan(query)
    benchmark(lambda: len(plan.execute(star_database)))


@pytest.mark.benchmark(group="e13-joinorder")
def test_bench_star_written_order(benchmark, star_database):
    query = star_join_query()
    plan = PhysicalPlanner(star_database, join_order_search="none").plan(query)
    benchmark(lambda: len(plan.execute(star_database)))


@pytest.mark.benchmark(group="e13-planning")
def test_bench_dp_planning_time(benchmark, star_database):
    query = star_join_query()

    def plan_once():
        return PhysicalPlanner(star_database, join_order_search="dp").plan(query)

    benchmark(plan_once)
