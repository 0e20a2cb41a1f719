"""E16 — cardinality feedback re-orders a join the aged statistics got wrong.

The skewed star workload of :mod:`repro.workloads.star` with **aged**
statistics on ``dim_rare`` (:func:`~repro.workloads.star.aged_star_database`):
ANALYZE ran while every row was ``'rare'``, then the paper's type change
turned all but 5% of them ``'common'`` and as many new ``'common'`` rows
arrived.  Statistics survive DML — the counts are exact, the value
distributions age — so the aged most-common value still prices
``σ(kind = 'rare')`` at every row, and ``fact ⋈ σ(dim_rare)`` — the only join
that actually shrinks the fact side — as an expansion, dragging the full
fact relation through every non-reductive dimension join first.

The first execution pays for that order, but it also *observes* it: the
engine folds the mis-estimated σ(dim_rare) cardinality and the executed join
edge's true selectivity (``rows_out / (rows_left × rows_right)``, keyed by
join attribute and carrier tables) into the
:class:`~repro.obs.feedback.CardinalityFeedback` store.  The store's version
is part of the plan-cache key, so the second execution re-plans — now pricing
the selective join first from observed truth — and the third execution hits
the plan cache again: one bad run, one corrected re-plan, then steady state.

Gate (the ISSUE acceptance criterion): the feedback-corrected second run must
examine **≥5× fewer join pairs** (``join_pairs_considered``) than the first,
with identical result sets.  The ``speedup`` column records the pair ratio
for ``check_regression.py``.
"""

import time

import pytest

from reporting import print_report
from repro.obs.feedback import expression_key
from repro.workloads.star import aged_star_database, star_join_query

#: the ISSUE acceptance factor: the corrected run examines ≥ this many times
#: fewer join pairs than the aged-statistics first run
ACCEPTANCE_FACTOR = 5


@pytest.fixture()
def stale_star_database():
    """The star database with aged ``dim_rare`` statistics.

    Function-scoped on purpose: every test needs the pristine arc of
    mis-estimated plan → observation → corrected re-plan, so no feedback may
    leak between tests.
    """
    return aged_star_database()


def _run(database, query):
    start = time.perf_counter()
    result = database.execute(query, optimize=False)
    return result, time.perf_counter() - start


def test_report_feedback_corrects_stale_star(stale_star_database):
    """The acceptance gate: the feedback-corrected run examines ≥5× fewer pairs."""
    database = stale_star_database
    query = star_join_query()
    runs = []
    for label in ("aged", "corrected", "steady"):
        result, seconds = _run(database, query)
        feedback = database.cardinality_feedback.as_dict()
        runs.append({
            "run": label,
            "join_pairs": result.stats.join_pairs_considered,
            "tuples": len(result),
            "seconds": round(seconds, 4),
            "feedback_entries": feedback["entries"],
            "feedback_edges": feedback["edges"],
            "speedup": "{:.2f}x".format(
                runs[0]["join_pairs"] / result.stats.join_pairs_considered
                if runs else 1.0),
            "result": result,
        })
    rows = [{k: v for k, v in run.items() if k != "result"} for run in runs]
    print_report(
        "E16: aged-stats star join — cardinality feedback re-orders run 2",
        rows, json_name="e16_feedback", database=database,
    )

    aged, corrected, steady = runs
    assert aged["result"].tuples == corrected["result"].tuples
    assert corrected["result"].tuples == steady["result"].tuples
    # The ISSUE acceptance criterion: one observed execution is enough for the
    # search to put the selective join first.
    assert aged["join_pairs"] >= ACCEPTANCE_FACTOR * corrected["join_pairs"]
    # The correction converges: the third run reuses the corrected plan (no
    # further feedback, no further re-plan) and examines the same pairs.
    assert steady["join_pairs"] == corrected["join_pairs"]
    assert database.physical_executor.cache_hits >= 1


def test_report_feedback_invalidated_by_dml(stale_star_database):
    """Feedback survives DML below the drift threshold (0.1 of the rows at
    ANALYZE) and is stranded past it — no corrections from another regime."""
    database = stale_star_database
    query = star_join_query()
    _run(database, query)
    store = database.cardinality_feedback
    fingerprint = expression_key(query.right)
    rare = database.table("dim_rare")
    rows, served = [], []
    for label, count in (("below the drift", 1), ("past the drift", 100)):
        start = 10_000 + len(rare)
        rare.insert_many({"dr": start + i, "kind": "common"} for i in range(count))
        observed = store.lookup(fingerprint, database.statistics_version)
        served.append(observed is not None)
        rows.append({"after": "{} rows into dim_rare, {}".format(count, label),
                     "statistics_version": database.statistics_version,
                     "observation_served": served[-1],
                     "entries": len(store._entries), "edges": len(store._edges)})
    print_report("E16: feedback lifecycle — stranded by the drift", rows,
                 json_name="e16_feedback_lifecycle", database=database,
                 reset=True)
    assert served == [True, False]
    # reset=True re-baselined the database for whoever runs next in-session.
    assert database.metrics()["metrics"] == {}
