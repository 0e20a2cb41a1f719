"""Plan-regression watchdog.

The watchdog closes the second observability gap named by ROADMAP item 4:
an engine that re-plans on statistics refreshes and feedback updates can
silently swap a good plan for a bad one.  :class:`PlanWatchdog` keeps a small
per-query-fingerprint history — the last plan fingerprint and a latency
EWMA; the engine fingerprints a query by its *template*, so every literal of
one statement shape feeds one baseline — and turns two situations into
structured events (the last ``capacity`` of each are kept):

* **plan change** — the plan fingerprint for a known query flipped (a stats
  version bump or a feedback entry re-ordered the joins): records a plan-diff
  event carrying the before/after operator order and estimated cost, so a
  later regression can be attributed to the exact change;
* **plan regression** — latency regressed more than ``regression_factor``
  (default 2×) against the fingerprint's EWMA baseline: emits a
  ``plan-regression`` event naming the suspect plan change (if any) so the
  slow-log entry reads as a diagnosis, not just a timing.
"""

from collections import deque
from typing import Dict, List, Optional

__all__ = ["PlanWatchdog", "QueryBaseline"]

#: default latency-regression threshold: >2× the EWMA baseline
DEFAULT_REGRESSION_FACTOR = 2.0

#: EWMA smoothing weight for the per-fingerprint latency baseline
DEFAULT_EWMA_ALPHA = 0.3

#: executions of a fingerprint before regressions are judged (the first few
#: runs *establish* the baseline; judging them against it would self-trigger)
MIN_BASELINE_SAMPLES = 3


class QueryBaseline:
    """Per-query-fingerprint history: last plan + latency EWMA/peak."""

    __slots__ = ("plan_fingerprint", "plan_summary", "ewma_seconds",
                 "worst_seconds", "executions", "last_plan_change")

    def __init__(self, plan_fingerprint, plan_summary):
        self.plan_fingerprint = plan_fingerprint
        #: human-readable plan description (operator order, estimated cost)
        self.plan_summary = plan_summary
        self.ewma_seconds: Optional[float] = None
        self.worst_seconds = 0.0
        self.executions = 0
        #: the most recent plan-change event for this query, if any —
        #: the "suspect" a later regression is attributed to
        self.last_plan_change: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan_summary,
            "ewma_seconds": self.ewma_seconds,
            "worst_seconds": self.worst_seconds,
            "executions": self.executions,
        }


class PlanWatchdog:
    """Detects plan flips and latency regressions per query fingerprint."""

    def __init__(self, regression_factor: float = DEFAULT_REGRESSION_FACTOR,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA,
                 capacity: int = 256):
        self.regression_factor = float(regression_factor)
        self.ewma_alpha = float(ewma_alpha)
        self.capacity = int(capacity)
        self._baselines: Dict[object, QueryBaseline] = {}
        self._plan_changes = deque(maxlen=self.capacity)
        self._regressions = deque(maxlen=self.capacity)
        #: how many events were ever recorded (the deques forget the oldest)
        self.plan_changes_seen = 0
        self.regressions_seen = 0

    def observe(self, query_fingerprint, plan_fingerprint, plan_summary,
                seconds: float):
        """Fold one execution in; returns (plan_change, regression) events.

        Either element is ``None`` when nothing noteworthy happened.  The
        caller (``Database._observe_query``) owns turning the returned event
        dicts into trace events and slow-log entries.
        """
        baseline = self._baselines.get(query_fingerprint)
        if baseline is None:
            if len(self._baselines) >= self.capacity:
                # Drop the least-recently inserted history wholesale: the
                # watchdog is a diagnostic, not a system of record.
                self._baselines.pop(next(iter(self._baselines)))
            baseline = QueryBaseline(plan_fingerprint, plan_summary)
            self._baselines[query_fingerprint] = baseline

        plan_change = None
        if baseline.plan_fingerprint != plan_fingerprint:
            plan_change = {
                "event": "plan-change",
                "before": baseline.plan_summary,
                "after": plan_summary,
                "baseline_seconds": baseline.ewma_seconds,
            }
            self._plan_changes.append(plan_change)
            self.plan_changes_seen += 1
            baseline.last_plan_change = plan_change
            baseline.plan_fingerprint = plan_fingerprint
            baseline.plan_summary = plan_summary

        regression = None
        if (baseline.executions >= MIN_BASELINE_SAMPLES
                and baseline.ewma_seconds is not None
                and seconds > self.regression_factor * baseline.ewma_seconds):
            suspect = baseline.last_plan_change
            regression = {
                "event": "plan-regression",
                "seconds": seconds,
                "baseline_seconds": baseline.ewma_seconds,
                "factor": seconds / baseline.ewma_seconds,
                "plan": plan_summary,
                "suspect_plan_change": suspect,
            }
            self._regressions.append(regression)
            self.regressions_seen += 1

        baseline.executions += 1
        baseline.worst_seconds = max(baseline.worst_seconds, seconds)
        if baseline.ewma_seconds is None:
            baseline.ewma_seconds = seconds
        else:
            alpha = self.ewma_alpha
            baseline.ewma_seconds = (alpha * seconds
                                     + (1.0 - alpha) * baseline.ewma_seconds)
        return plan_change, regression

    def plan_changes(self) -> List[Dict[str, object]]:
        return list(self._plan_changes)

    def regressions(self) -> List[Dict[str, object]]:
        return list(self._regressions)

    def baseline(self, query_fingerprint) -> Optional[QueryBaseline]:
        return self._baselines.get(query_fingerprint)

    def clear(self) -> None:
        self._baselines.clear()
        self._plan_changes.clear()
        self._regressions.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "tracked_queries": len(self._baselines),
            "plan_changes": len(self._plan_changes),
            "regressions": len(self._regressions),
        }

    def __repr__(self) -> str:
        return "PlanWatchdog(tracked={}, changes={}, regressions={})".format(
            len(self._baselines), len(self._plan_changes),
            len(self._regressions))
