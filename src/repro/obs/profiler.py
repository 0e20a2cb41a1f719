"""Plan-regression watchdog.

The watchdog closes the second observability gap named by ROADMAP item 4:
an engine that re-plans on statistics refreshes and feedback updates can
silently swap a good plan for a bad one.  :class:`PlanWatchdog` keeps, per
query fingerprint — the engine fingerprints a query by its *template*, so
every literal of one statement shape feeds one baseline — the last plan
fingerprint and the *work* of the last run: rows scanned plus join pairs
considered, per returned row (at least one), read from the run's
``ExecutionStats``.  Work is a function of the data and the plan, never of the
clock, so the verdicts reproduce run for run.
Two situations become structured events (the last :data:`CAPACITY` plan
changes are kept):

* **plan change** — the plan fingerprint for a known query flipped (a stats
  version bump or a feedback entry re-ordered the joins): records a plan-diff
  event carrying the before/after operator order and estimated cost and the
  work of the last run under the old plan;
* **plan regression** — the first run under the new plan did more than
  :data:`REGRESSION_FACTOR` times the (non-zero) work of the last run under
  the old one: emits a ``plan-regression`` event naming that plan change,
  so the slow-log entry reads as a diagnosis, not just a timing.
"""

from collections import deque
from typing import Dict, List

__all__ = ["PlanWatchdog", "QueryBaseline"]

#: a plan change is a regression when the work per returned row rose by more
#: than this factor
REGRESSION_FACTOR = 2.0

#: the query fingerprints tracked, and the plan-change events kept
CAPACITY = 256


class QueryBaseline:
    """Per-query-fingerprint history: the last plan and its last run's work."""

    __slots__ = ("plan_fingerprint", "plan_summary", "work", "executions")

    def __init__(self, plan_fingerprint, plan_summary, work: float):
        self.plan_fingerprint = plan_fingerprint
        #: human-readable plan description (operator order, estimated cost)
        self.plan_summary = plan_summary
        #: the work per returned row of the last run
        self.work = work
        self.executions = 0


class PlanWatchdog:
    """Detects plan flips, and those that raised the work, per query fingerprint."""

    def __init__(self):
        self._baselines: Dict[object, QueryBaseline] = {}
        self._plan_changes = deque(maxlen=CAPACITY)
        #: how many events were recorded since the last :meth:`clear` (the
        #: plan-change deque forgets the oldest)
        self.plan_changes_seen = 0
        self.regressions_seen = 0

    def observe(self, query_fingerprint, plan_fingerprint, plan_summary, stats):
        """Fold one execution's ``ExecutionStats`` in; returns (plan_change,
        regression) events.

        Either element is ``None`` when nothing noteworthy happened.  The
        caller (``Database._watch_plan``) owns turning the returned event
        dicts into trace events and slow-query-log entries.
        """
        work = ((stats.tuples_scanned + stats.join_pairs_considered)
                / max(stats.tuples_produced, 1))
        baseline = self._baselines.get(query_fingerprint)
        plan_change = regression = None
        if baseline is None:
            if len(self._baselines) >= CAPACITY:
                # Drop the least-recently inserted history wholesale: the
                # watchdog is a diagnostic, not a system of record.
                self._baselines.pop(next(iter(self._baselines)))
            baseline = QueryBaseline(plan_fingerprint, plan_summary, work)
            self._baselines[query_fingerprint] = baseline
        elif baseline.plan_fingerprint != plan_fingerprint:
            plan_change = {
                "event": "plan-change",
                "before": baseline.plan_summary,
                "after": plan_summary,
                "baseline_work": baseline.work,
            }
            self._plan_changes.append(plan_change)
            self.plan_changes_seen += 1
            if baseline.work and work > REGRESSION_FACTOR * baseline.work:
                regression = {
                    "event": "plan-regression",
                    "work": work,
                    "baseline_work": baseline.work,
                    "factor": work / baseline.work,
                    "plan_change": plan_change,
                }
                self.regressions_seen += 1
            baseline.plan_fingerprint = plan_fingerprint
            baseline.plan_summary = plan_summary
        baseline.work = work
        baseline.executions += 1
        return plan_change, regression

    def plan_changes(self) -> List[Dict[str, object]]:
        return list(self._plan_changes)

    def clear(self) -> None:
        self._baselines.clear()
        self._plan_changes.clear()
        self.plan_changes_seen = self.regressions_seen = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tracked_queries": len(self._baselines),
            "plan_changes": len(self._plan_changes),
            "regressions": self.regressions_seen,
        }

    def __repr__(self) -> str:
        return "PlanWatchdog(tracked={}, changes={}, regressions={})".format(
            len(self._baselines), len(self._plan_changes),
            self.regressions_seen)
