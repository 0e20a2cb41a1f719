"""Observability for the flexible-relations engine.

Three layers, all cheap-by-default (the E15 benchmark gates the whole package
at ≤5% overhead):

* :mod:`repro.obs.trace` — structured spans/events over the query lifecycle
  (parse → rewrite → statistics → join-order search → planning → execution,
  plus plan-cache and ANALYZE events), off unless a sink is attached;
* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry` behind
  ``Database.metrics()``, the :func:`q_error` estimate-quality measure, and
  the threshold-configurable :class:`SlowQueryLog`;
* :mod:`repro.obs.explain` — ``Database.explain_analyze()``: the executed
  plan annotated per node with actual rows, Q-error, wall time and batches.

PR 7 adds the *actionable* layer on top of that substrate:

* :mod:`repro.obs.feedback` — the :class:`CardinalityFeedback` store that
  feeds observed cardinalities back into the cost model (ROADMAP item 4's
  adaptive re-optimization bridge);
* :mod:`repro.obs.profiler` — the :class:`PlanWatchdog` (plan-change and
  work-regression detection);
* :mod:`repro.obs.export` — Prometheus text exposition and versioned JSON
  snapshots of the registry.
"""

from repro.obs.explain import (
    ExplainAnalyzeReport,
    node_q_errors,
    pair_nodes_with_stats,
    render_explain_analyze,
)
from repro.obs.export import json_snapshot, prometheus_text
from repro.obs.feedback import (
    CardinalityFeedback,
    referenced_tables,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MaxGauge,
    MetricsRegistry,
    SlowQueryEntry,
    SlowQueryLog,
    q_error,
)
from repro.obs.profiler import (
    PlanWatchdog,
    QueryBaseline,
)
from repro.obs.trace import (
    NOOP_SPAN,
    JsonTraceSink,
    Span,
    Tracer,
    TraceSink,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS",
    "CardinalityFeedback",
    "Counter",
    "ExplainAnalyzeReport",
    "Histogram",
    "JsonTraceSink",
    "MaxGauge",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PlanWatchdog",
    "QueryBaseline",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "TraceSink",
    "Tracer",
    "json_snapshot",
    "node_q_errors",
    "pair_nodes_with_stats",
    "prometheus_text",
    "q_error",
    "referenced_tables",
    "render_explain_analyze",
]
