"""E15 — the observability layer must be (nearly) free.

PR 6 threads wall-clock timing through every physical operator, folds every
query into the ``Database.metrics()`` registry and leaves an (inert) tracer on
the hot path.  This benchmark is the cost control: it runs a
scan→filter→hash-join workload (100k events ⋈ 10k sessions) and a
restoration plan (outer union → 4-way multiway join → join → rename →
extensions on 30k variant employees) twice each —

* **uninstrumented**: the cached physical plan executed with ``timing=False``
  (no per-operator clocks, no metrics fold-in, exactly the pre-PR 6 path);
* **instrumented**: the full ``Database.execute`` pipeline — per-batch
  operator timers, the disabled tracer's span checks, plan-cache lookup and
  the per-query metrics/Q-error/slow-log accounting;

and gates the overhead at **≤5%**.  Both variants run the same cached plan
(taken after the instrumented path's feedback has settled).  Each is timed in
thread-CPU time (``time.thread_time``; GC fenced, the set-up frozen out of the
collector so a fence costs nothing), in back-to-back pairs that alternate
which variant runs first — 101 pairs of the 40 ms E12 query, 15 of the
0.6 s E14 one; the gated number is the median of the per-pair
instrumented/uninstrumented ratios, so a slow outlier moves it by one rank at
most and drift between pairs cancels out of each ratio.  The same
method run uninstrumented against itself is the ``noise_floor`` column: the
overhead a run reads when there is none, which must sit well under the gate
for the gate to mean anything.  The ``speedup`` column
(uninstrumented/instrumented, ≈1.0x) feeds ``check_regression.py``: a future
PR that makes instrumentation expensive shows up as the ratio falling below
its committed baseline.
"""

import gc
import statistics
import time

import pytest

from reporting import print_report
from repro.algebra import (
    Extension,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    RelationRef,
    Rename,
    Selection,
)
from repro.algebra.predicates import And, Comparison
from repro.engine import Database
from repro.model.scheme import FlexibleScheme
from repro.workloads.employees import employee_scheme, generate_employees
from repro.workloads.events import events_scheme, generate_events, sessions_scheme

EVENTS = 100_000
SESSIONS = 10_000
EMPLOYEES = 30_000
FRAGMENT_STEPS = (("badges", "badge", 2), ("offices", "office", 3),
                  ("grades", "grade", 5))

#: the acceptance gate: instrumentation may cost at most 5% CPU time
OVERHEAD_GATE = 0.05
#: timed pairs of the E12 and the E14 query; the two variants of a pair run
#: back to back (GC fenced, the first of them alternating), so drift between
#: pairs — warm-up, allocator state, a busy neighbour — hits both variants of
#: a pair alike and cancels out of its ratio; the gate reads the median ratio.
#: One pair's ratio spreads ±30 % on a shared 2-vCPU host, so the short E12
#: query needs many pairs for its median to resolve 5 %.
E12_PAIRS = 101
E14_PAIRS = 15


def scan_filter_join_query():
    return NaturalJoin(
        Selection(RelationRef("events"),
                  And(Comparison("payload", "<=", 2),
                      Comparison("kind", "!=", "view"))),
        RelationRef("sessions"), on=["event_id"],
    )


def restoration_query():
    """Outer union → 4-way multiway join → join → rename → two tag extensions."""
    master = OuterUnion(
        Selection(RelationRef("employees"),
                  Comparison("jobtype", "=", "secretary")),
        Selection(RelationRef("employees"),
                  Comparison("jobtype", "=", "salesman")))
    restored = MultiwayJoin(
        [master, RelationRef("badges"), RelationRef("offices"),
         RelationRef("grades")], on=["emp_id"])
    joined = NaturalJoin(restored, RelationRef("reviews"), on=["emp_id"])
    return Extension(
        Extension(Rename(joined, {"score": "rating"}), "restored", True),
        "source_pr", 5)


@pytest.fixture(scope="module")
def e12_database():
    """The join workload: 100k variant events + 10k sessions, analyzed."""
    database = Database(enforce_constraints=False)
    events = database.create_table("events", events_scheme(), key=["event_id"])
    events.insert_many(generate_events(EVENTS, rare_every=100))
    sessions = database.create_table("sessions", sessions_scheme(), key=["event_id"])
    sessions.insert_many({"event_id": event_id, "user": "u{}".format(event_id % 9)}
                         for event_id in range(1, SESSIONS + 1))
    database.analyze()
    return database


@pytest.fixture(scope="module")
def e14_database():
    """The restoration workload: 30k variant employees + fragments + reviews, analyzed."""
    database = Database(enforce_constraints=False)
    employees = database.create_table("employees", employee_scheme(),
                                      key=["emp_id"], indexes=[["jobtype"]])
    employees.insert_many(generate_employees(EMPLOYEES, seed=7))
    for name, attribute, step in FRAGMENT_STEPS:
        table = database.create_table(
            name, FlexibleScheme.relational(["emp_id", attribute]),
            key=["emp_id"])
        table.insert_many({"emp_id": i, attribute: "{}-{}".format(attribute, i % 17)}
                          for i in range(1, EMPLOYEES + 1, step))
    reviews = database.create_table(
        "reviews", FlexibleScheme.relational(["emp_id", "score"]),
        key=["emp_id"])
    reviews.insert_many({"emp_id": i, "score": i % 5}
                        for i in range(1, EMPLOYEES + 1))
    database.analyze()
    return database


def _timed(callable_):
    """One GC-fenced thread-CPU-time measurement of ``callable_``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        result = callable_()
        return result, time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def _paired(first, second, pairs):
    """``(first's result, second's result, median first seconds, median
    second seconds, median of the per-pair second/first ratios)``."""
    results, seconds, ratios = {}, {"first": [], "second": []}, []
    for index in range(pairs):
        order = [("first", first), ("second", second)]
        if index % 2:
            order.reverse()
        for side, callable_ in order:
            results[side], elapsed = _timed(callable_)
            seconds[side].append(elapsed)
        ratios.append(seconds["second"][-1] / seconds["first"][-1])
    return (results["first"], results["second"], statistics.median(seconds["first"]),
            statistics.median(seconds["second"]), statistics.median(ratios))


def _measure(database, query, label, pairs):
    """One workload's (report row, overhead fraction)."""
    # Warm both paths (plan cache, feedback, hash sets, allocator) before
    # timing; the bare path then runs the plan the instrumented one hits.
    for _ in range(3):
        database.execute(query, optimize=False)
    plan = database.plan(query, optimize=False)
    plan.execute(database, timing=False)

    def bare_callable():
        return plan.execute(database, timing=False)

    gc.collect()
    gc.freeze()
    try:
        bare, full, bare_seconds, full_seconds, ratio = _paired(
            bare_callable, lambda: database.execute(query, optimize=False), pairs)
        floor = _paired(bare_callable, bare_callable, pairs)[-1] - 1.0
    finally:
        gc.unfreeze()

    assert full.tuples == bare.tuples
    # timing=False really disables the per-operator clocks ...
    assert all(op.wall_seconds == 0.0 for op in bare.context.operator_stats)
    # ... and the instrumented run really collected them.
    assert sum(op.wall_seconds for op in full.context.operator_stats) > 0.0

    overhead = ratio - 1.0
    row = {
        "workload": label, "tuples": len(full),
        "uninstrumented_s": round(bare_seconds, 4),
        "instrumented_s": round(full_seconds, 4),
        "overhead": "{:+.1%}".format(overhead),
        "noise_floor": "{:+.1%}".format(floor),
        "speedup": "{:.2f}x".format(1.0 / ratio),
    }
    return row, overhead


def test_report_observability_overhead_within_gate(e12_database, e14_database):
    """The acceptance gate: ≤5% instrumentation overhead on E12/E14 plans."""
    rows, overheads = [], []
    for database, query, label, pairs in (
            (e12_database, scan_filter_join_query(),
             "E12 scan+filter+hash-join (100k ⋈ 10k)", E12_PAIRS),
            (e14_database, restoration_query(),
             "E14 restoration (outer-union + 4-way multiway, 30k)", E14_PAIRS)):
        row, overhead = _measure(database, query, label, pairs)
        rows.append(row)
        overheads.append((label, overhead))

    print_report(
        "E15: observability overhead — timers + metrics + inert tracer vs bare",
        rows, json_name="e15_observability",
        database=e12_database,
    )
    for label, overhead in overheads:
        assert overhead <= OVERHEAD_GATE, (
            "instrumentation overhead {:+.1%} on {} exceeds the {:.0%} gate"
            .format(overhead, label, OVERHEAD_GATE))


def test_report_metrics_snapshot_shape(e12_database):
    """The embedded metrics snapshot carries the headline instruments."""
    database = e12_database
    database.execute(scan_filter_join_query(), optimize=False)
    snapshot = database.metrics()
    metrics = snapshot["metrics"]
    assert metrics["queries.executed"] >= 1
    assert metrics["rows.scanned"] > 0
    assert "query.seconds" in metrics and metrics["query.seconds"]["count"] >= 1
    assert any(name.startswith("qerror.") for name in metrics)
    assert snapshot["plan_cache"]["hit_rate"] is not None
    assert snapshot["slow_queries"]["threshold"] == 1.0
