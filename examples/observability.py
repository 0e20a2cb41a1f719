"""Observability walkthrough: EXPLAIN ANALYZE, metrics, tracing, slow queries.

Builds the E13 skewed star workload (a fact table with five dimensions, one of
them large but 5%-selective), then demonstrates the PR 6 observability layer
end to end:

1. **EXPLAIN ANALYZE** — the executed plan annotated per node with actual vs
   estimated rows, the Q-error of each estimate, inclusive wall-clock time and
   batch counts; on fresh statistics every estimate is (near-)exact.
2. **Structured tracing** — attach a JSON sink, run a query, and dump the span
   tree covering rewrite → statistics lookup → join-order search → planning →
   execution, plus plan-cache hit/miss events.
3. **Engine metrics** — the ``Database.metrics()`` snapshot after a handful of
   queries: counters, latency/batch-size histograms, worst Q-error per
   operator kind, plan-cache hit rate.
4. **Stale statistics and the slow-query log** — grow a table behind the
   statistics' back, watch the Q-error blow up in EXPLAIN ANALYZE, and see the
   slow-query log capture the query together with its worst-estimated plan
   nodes (the diagnostic trail for "why was this slow").
5. **Closing the loop (PR 7)** — the same stale-statistics situation, but this
   time the engine fixes it: the first execution records the mis-estimated
   cardinalities and the executed join edges' true selectivities into the
   cardinality-feedback store, the second execution re-plans against them
   (selective join first, ~16× fewer join pairs), the third hits the plan
   cache; the watchdog logs the plan change, and the whole registry exports
   as Prometheus text and a versioned JSON snapshot.

Run with::

    python examples/observability.py
"""

import json

from repro.algebra import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.workloads.star import star_join_database, star_join_query


def rare_join_query():
    """fact ⋈ the 5%-selective dimension — small enough to read every number."""
    return NaturalJoin(
        Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare")),
        RelationRef("fact"), on=["dr"])


def explain_analyze_fresh(database):
    print("== 1. EXPLAIN ANALYZE on fresh statistics " + "=" * 38)
    print()
    report = database.explain_analyze(star_join_query())
    print(report)
    print()
    print("   worst Q-error in the plan: {:.2f}".format(report.worst_q_error()),
          "(1.0 = every estimate exact)")
    print("   rows returned:", len(report.tuples))


def trace_a_query(database):
    print()
    print("== 2. Structured tracing " + "=" * 55)
    print()
    sink = database.tracer.attach()
    # First execution of this query shape: the trace shows the full lifecycle
    # — rewrite, statistics lookup, join-order search, planning, execution.
    database.execute(rare_join_query(), optimize=True)
    database.execute(rare_join_query(), optimize=True)  # now the cache hits
    database.tracer.detach()

    print("   span tree (parent before child, durations inclusive):")
    spans = sink.spans()
    by_id = {span["id"]: span for span in spans}

    def depth(span):
        count, parent = 0, span["parent"]
        while parent is not None:
            count, parent = count + 1, by_id[parent]["parent"]
        return count

    for span in sorted(spans, key=lambda s: s["start"]):
        print("     {}{}  {:.3f}ms".format("  " * depth(span), span["name"],
                                           span["duration"] * 1000.0))
    print("   events:", ", ".join(event["name"] for event in sink.events()))
    search = sink.named("join-order-search")
    if search:
        attributes = search[0]["attributes"]
        print("   join-order search: {} relations, {} subsets, {} plans pruned"
              .format(attributes["relations"], attributes["subsets_enumerated"],
                      attributes["plans_pruned"]))
    print("   sink.dumps() -> {} JSON records (sink.dump(path) writes them)"
          .format(len(sink)))


def metrics_snapshot(database):
    print()
    print("== 3. Database.metrics() after the queries so far " + "=" * 30)
    print()
    for _ in range(3):
        database.execute(rare_join_query())
    snapshot = database.metrics()
    metrics = snapshot["metrics"]
    print("   queries.executed:", metrics["queries.executed"])
    print("   rows scanned/joined/produced: {} / {} / {}".format(
        metrics["rows.scanned"], metrics["rows.joined"], metrics["rows.produced"]))
    latency = metrics["query.seconds"]
    print("   query latency: p50={:.3f}ms  p99={:.3f}ms  mean={:.3f}ms".format(
        latency["p50"] * 1000, latency["p99"] * 1000, latency["mean"] * 1000))
    print("   adaptive batch sizes seen:", json.dumps(
        {k: v for k, v in metrics["plan.batch_size"]["buckets"].items() if v}))
    print("   worst Q-error per operator kind:")
    for name in sorted(metrics):
        if name.startswith("qerror."):
            print("     {:<28} {:.2f}  ({} observations)".format(
                name, metrics[name]["max"], metrics[name]["observations"]))
    cache = snapshot["plan_cache"]
    print("   plan cache: {} hits / {} misses (hit rate {:.0%})".format(
        cache["hits"], cache["misses"], cache["hit_rate"]))


def stale_statistics_and_slow_log(database):
    print()
    print("== 4. Stale statistics -> Q-error -> slow-query log " + "=" * 28)
    print()
    # Grow the 'rare' tag 40x behind the statistics' back: the planner still
    # estimates from the old ANALYZE, and Q-error makes the drift visible.
    database.insert_many(
        "dim_rare",
        ({"dr": i, "kind": "rare", "audit_level": i % 3}
         for i in range(10_000, 10_400)))
    report = database.explain_analyze(rare_join_query())
    print(report)
    print()
    print("   worst Q-error now: {:.1f} — the estimates predate the insert"
          .format(report.worst_q_error()))

    # Any query from here on counts as "slow" — in production the threshold
    # stays at seconds; 0.0 forces entries so the example can show the shape.
    database.slow_query_log.threshold = 0.0
    database.execute(rare_join_query())
    entry = database.slow_query_log.entries()[-1]
    print("   slow-query log captured: seconds={:.4f} rows={}".format(
        entry.seconds, entry.rows))
    print("   worst-estimated plan nodes in the entry:")
    for label, value in entry.q_error_nodes:
        print("     q={:<10.1f} {}".format(value, label))
    print("   (after database.analyze(), the estimates converge again)")
    database.analyze("dim_rare")
    print("   re-analyzed worst Q-error: {:.2f}".format(
        database.explain_analyze(rare_join_query()).worst_q_error()))


def feedback_closes_the_loop():
    print()
    print("== 5. Closing the loop: cardinality feedback " + "=" * 35)
    print()
    # A fresh database so the arc is pristine: ANALYZE, then one DML against
    # the big dimension strands its distributions — the planner is back on
    # default constants for everything touching dim_rare.
    database = star_join_database()
    database.analyze()
    database.table("dim_rare").insert({"dr": 1001, "kind": "common"})

    query = star_join_query()
    for label in ("stale", "corrected", "steady"):
        result = database.execute(query)
        feedback = database.cardinality_feedback.as_dict()
        print("   {:<9}  join_pairs={:>6}  rows={}  feedback: entries={} "
              "edges={} version={}".format(
                  label, result.stats.join_pairs_considered, len(result),
                  feedback["entries"], feedback["edges"], feedback["version"]))
    cache = database.physical_executor.cache_info()
    print("   plan cache after the arc: {} hits / {} misses "
          "(one bad run, one re-plan, steady state)".format(
              cache["hits"], cache["misses"]))

    changes = database.plan_watchdog.plan_changes()
    print("   watchdog recorded {} plan change(s); the corrected plan joins:"
          .format(len(changes)))
    for operator in changes[0]["after"]["operators"]:
        if "join" in operator:
            print("     " + operator)

    print("   Prometheus export (excerpt of {} lines):".format(
        len(database.prometheus_metrics().splitlines())))
    for line in database.prometheus_metrics().splitlines():
        if line.startswith(("repro_queries", "repro_rows_joined",
                            "repro_memory_batch_hash_join ")):
            print("     " + line)
    snapshot = database.metrics_snapshot()
    print("   metrics_snapshot(): format={!r} version={} feedback entries={}"
          .format(snapshot["format"], snapshot["version"],
                  snapshot["feedback"]["entries"]))


def main():
    database = star_join_database()
    database.analyze()  # fresh statistics: the estimates below are exact
    explain_analyze_fresh(database)
    trace_a_query(database)
    metrics_snapshot(database)
    stale_statistics_and_slow_log(database)
    feedback_closes_the_loop()


if __name__ == "__main__":
    main()
