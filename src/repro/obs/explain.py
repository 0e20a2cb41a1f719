"""EXPLAIN ANALYZE: the executed plan annotated with what actually happened.

``Database.explain_analyze(expr)`` runs the query for real (identical results
and counters to ``execute`` — asserted by ``tests/test_observability.py``) and
renders the physical plan tree with, per node:

* ``actual_rows`` next to the planner's ``est_rows``,
* the **Q-error** ``max(est/actual, actual/est)`` of that estimate
  (see :func:`repro.obs.metrics.q_error` for the edge cases),
* wall-clock time spent in the operator (inclusive of its children, as in
  PostgreSQL's EXPLAIN ANALYZE — ticked per batch, see
  :mod:`repro.exec.operators`),
* the number of batches it emitted, and
* ``mem=`` — the sampled peak bytes of materialized state (hash builds,
  multiway drains, difference/product materializations); omitted for
  streaming operators that never hold more than one batch.

The pairing of plan nodes with run-time counters relies on a structural
invariant of the execution layer: ``PhysicalOperator.run`` registers its
:class:`~repro.exec.context.OperatorStats` in **preorder** (self before
children, children left to right), so the context's registration order equals
a preorder walk of the plan tree and the two line up positionally — no name
matching, no back-pointers from operators into contexts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.exec.context import OperatorStats
from repro.obs.metrics import q_error


def pair_nodes_with_stats(plan, context) -> List[Tuple[object, Optional[OperatorStats]]]:
    """Zip plan nodes with their executed :class:`OperatorStats`, positionally.

    A plan that was never executed under ``context`` (or a hand-built context)
    yields ``None`` stats for the unmatched tail rather than mispairing.
    """
    stats = context.operator_stats
    paired: List[Tuple[object, Optional[OperatorStats]]] = []
    for index, node in enumerate(plan.nodes):
        op_stats = stats[index] if index < len(stats) else None
        if op_stats is not None and op_stats.label != node.plan_label:
            # The positional invariant broke (someone executed a different
            # plan under this context); refuse to annotate with wrong numbers.
            op_stats = None
        paired.append((node, op_stats))
    return paired


def node_q_errors(plan, context) -> List[Tuple[str, Optional[float]]]:
    """Per-node ``(label, q_error)`` pairs for an executed plan, preorder."""
    result = []
    for node, op_stats in pair_nodes_with_stats(plan, context):
        if op_stats is None:
            result.append((node.plan_label, None))
        else:
            result.append((node.plan_label,
                           q_error(node.estimated_rows, op_stats.rows_out)))
    return result


def _format_q(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if math.isinf(value):
        return "inf"
    return "{:.2f}".format(value)


def _format_ms(seconds: float) -> str:
    return "{:.3f}ms".format(seconds * 1000.0)


def _format_bytes(size: int) -> str:
    """Human-scaled byte count (1 decimal from KiB up): 512B, 3.4KiB, 1.2MiB."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return "{:.0f}B".format(value)
            return "{:.1f}{}".format(value, unit)
        value /= 1024.0
    return "{:.1f}GiB".format(value)  # pragma: no cover — loop always returns


def render_explain_analyze(plan, result, header: str = "") -> str:
    """The annotated plan tree as a multi-line string.

    ``result`` is the :class:`~repro.exec.planner.PhysicalResult` of executing
    ``plan``; its context supplies the per-operator counters.  Join-search
    reports (when the planner reordered an n-way join) render above the tree,
    exactly as in ``plan.explain()``.
    """
    lines: List[str] = []
    if header:
        lines.append(header)
    lines.extend(report.describe() for report in plan.join_search)
    annotations = {id(node): op_stats
                   for node, op_stats in pair_nodes_with_stats(plan, result.context)}

    def render(node, indent: int) -> None:
        line = "  " * indent + node.label()
        op_stats = annotations.get(id(node))
        if op_stats is not None:
            est = ("{:.1f}".format(node.estimated_rows)
                   if node.estimated_rows is not None else "-")
            line += ("  (actual_rows={} est_rows={} q={} time={} batches={}"
                     .format(op_stats.rows_out, est,
                             _format_q(q_error(node.estimated_rows,
                                               op_stats.rows_out)),
                             _format_ms(op_stats.wall_seconds),
                             op_stats.batches_out))
            if op_stats.peak_bytes:
                line += " mem={}".format(_format_bytes(op_stats.peak_bytes))
            line += ")"
        lines.append(line)
        for child in node.children:
            render(child, indent + 1)

    render(plan.root, 0)
    return "\n".join(lines)


class ExplainAnalyzeReport:
    """The product of ``Database.explain_analyze``: text + the real result.

    ``str(report)`` (or ``print(report)``) shows the annotated tree;
    ``report.result`` is the full :class:`~repro.exec.planner.PhysicalResult`
    (tuples, counters, per-operator breakdown) of the actual execution, and
    ``report.q_errors`` the per-node estimate quality the adaptive layer will
    feed on.
    """

    def __init__(self, plan, result, text: str):
        self.plan = plan
        self.result = result
        self.text = text

    @property
    def tuples(self):
        return self.result.tuples

    @property
    def q_errors(self) -> List[Tuple[str, Optional[float]]]:
        return node_q_errors(self.plan, self.result.context)

    def worst_q_error(self) -> Optional[float]:
        values = [q for _label, q in self.q_errors if q is not None]
        return max(values) if values else None

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return "ExplainAnalyzeReport(rows={}, worst_q={})".format(
            len(self.result.tuples), _format_q(self.worst_q_error()))
