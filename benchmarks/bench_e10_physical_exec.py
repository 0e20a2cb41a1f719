"""E10 — the physical execution engine vs. the naive set evaluator.

Claims checked (and reported as machine-readable ``BENCH_e10_*.json``):

* the physical :class:`~repro.exec.operators.HashJoin` beats the naive
  evaluator's nested-loop join on the employees workload at ≥1k tuples per
  side, both in wall-clock time and in ``join_pairs_considered`` (the
  machine-independent work measure);
* end-to-end, ``Database.execute(..., executor="physical")`` returns exactly the
  evaluator's result set at a fraction of the join work;
* the plan cache makes re-planning of a hot query free (cache hits after the
  first execution);
* an index-aware scan answers a pushed-down key-equality predicate without
  reading the whole relation.
"""

import time

import pytest

from reporting import print_report
from repro.algebra import Evaluator, NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.exec import HashJoin, PhysicalPlan, Scan
from repro.model.domains import FloatDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme
from repro.workloads.employees import employee_definition, generate_employees

JOIN_SIDE = 1000

_PROJECTS = ("dbms", "compiler", "editor", "spreadsheet", "browser", "planner")


def _assignment_rows(count):
    return [
        {"emp_id": emp_id, "project": _PROJECTS[emp_id % len(_PROJECTS)],
         "budget": float(1000 + (emp_id * 37) % 9000)}
        for emp_id in range(1, count + 1)
    ]


@pytest.fixture(scope="module")
def join_database():
    """Employees plus a same-sized assignments table sharing ``emp_id``."""
    database = Database()
    definition = employee_definition()
    employees = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=definition.dependencies)
    employees.insert_many(generate_employees(JOIN_SIDE, seed=1001))
    assignments = database.create_table(
        "assignments",
        FlexibleScheme(3, 3, ["emp_id", "project", "budget"]),
        domains={"emp_id": IntDomain(), "project": StringDomain(max_length=32),
                 "budget": FloatDomain()},
        key=["emp_id"],
    )
    assignments.insert_many(_assignment_rows(JOIN_SIDE))
    return database


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_report_hash_join_beats_nested_loop(join_database):
    """The acceptance gate: hash join wins at ≥1k tuples per side."""
    hash_plan = PhysicalPlan(HashJoin(Scan("employees"), Scan("assignments"),
                                      on=["emp_id"]))
    nested_query = NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                               on=["emp_id"])

    hash_result, hash_seconds = _timed(lambda: hash_plan.execute(join_database))
    nested_result, nested_seconds = _timed(
        lambda: Evaluator(join_database).evaluate(nested_query))

    rows = [
        {"join": "hash", "tuples": len(hash_result),
         "join_pairs": hash_result.stats.join_pairs_considered,
         "work": hash_result.stats.total_work,
         "seconds": round(hash_seconds, 4)},
        {"join": "nested-loop", "tuples": len(nested_result),
         "join_pairs": nested_result.stats.join_pairs_considered,
         "work": nested_result.stats.total_work,
         "seconds": round(nested_seconds, 4)},
    ]
    print_report(
        "E10: hash vs nested-loop join, employees ⋈ assignments ({}/side)".format(JOIN_SIDE),
        rows, json_name="e10_hash_vs_nested_loop",
    )
    assert hash_result.tuples == nested_result.tuples
    assert len(hash_result) == JOIN_SIDE
    assert hash_result.stats.join_pairs_considered < nested_result.stats.join_pairs_considered
    assert hash_seconds < nested_seconds


def test_report_naive_vs_physical_end_to_end(join_database):
    query = NaturalJoin(
        Selection(RelationRef("employees"), Comparison("salary", ">", 3000.0)),
        RelationRef("assignments"),
    )
    naive, naive_seconds = _timed(
        lambda: join_database.execute(query, optimize=False, executor="naive"))
    physical, physical_seconds = _timed(
        lambda: join_database.execute(query, optimize=False, executor="physical"))

    rows = [
        {"executor": "naive", "tuples": len(naive),
         "join_pairs": naive.stats.join_pairs_considered,
         "work": naive.stats.total_work, "seconds": round(naive_seconds, 4)},
        {"executor": "physical", "tuples": len(physical),
         "join_pairs": physical.stats.join_pairs_considered,
         "work": physical.stats.total_work, "seconds": round(physical_seconds, 4)},
    ]
    print_report("E10: σ(salary>3000) ⋈ assignments, naive evaluator vs physical engine",
                 rows, json_name="e10_naive_vs_physical")
    assert physical.tuples == naive.tuples
    assert physical.stats.join_pairs_considered < naive.stats.join_pairs_considered
    assert physical.stats.total_work < naive.stats.total_work


def test_report_plan_cache_and_index_scan(join_database):
    executor = join_database.physical_executor
    executor.cache.clear()
    executor.cache.hits = executor.cache.misses = 0

    point_query = Selection(RelationRef("employees"), Comparison("emp_id", "=", 123))
    first = join_database.execute(point_query, optimize=False)
    # The first run's default-constant estimate is off by ≥2×, so the feedback
    # store records a correction and the second run re-plans against it; from
    # the third on the corrected plan is the steady state and the cache is hot.
    join_database.execute(point_query, optimize=False)
    second = join_database.execute(point_query, optimize=False)

    rows = [{
        "query": "σ(emp_id = 123) over {} employees".format(JOIN_SIDE),
        "tuples": len(second),
        "tuples_scanned (indexed)": second.stats.tuples_scanned,
        "cache hits": executor.cache.hits,
        "cache misses": executor.cache.misses,
    }]
    print_report("E10: plan cache + index-aware scan", rows, json_name="e10_plan_cache")
    assert first.tuples == second.tuples and len(second) == 1
    # The key index answers the point query without scanning the other 999 tuples.
    assert second.stats.tuples_scanned == 1
    assert executor.cache.hits >= 1 and executor.cache.misses == 2


@pytest.mark.benchmark(group="e10-join")
def test_bench_join_physical(benchmark, join_database):
    query = NaturalJoin(RelationRef("employees"), RelationRef("assignments"))

    def run():
        return len(join_database.execute(query, optimize=False, executor="physical"))

    benchmark(run)


@pytest.mark.benchmark(group="e10-join")
def test_bench_join_naive(benchmark, join_database):
    query = NaturalJoin(RelationRef("employees"), RelationRef("assignments"))
    evaluator = Evaluator(join_database)

    def run():
        return len(evaluator.evaluate(query))

    benchmark(run)
