"""The planner: apply the AD-driven rewrites to a fixpoint.

The planner is deliberately small — the paper's point is not a full cost-based
optimizer but that attribute dependencies *enable* rewrites a scheme-only system
cannot justify.  :meth:`Planner.optimize` applies the rewrite rules until no
rule changes the tree any more and returns the rewritten expression together with
the accumulated :class:`~repro.optimizer.rewrite_rules.RewriteReport`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression
from repro.algebra.source import as_source
from repro.optimizer.analytic_rules import (
    eliminate_noop_sorts,
    push_aggregate_into_unions,
    push_aggregate_past_rename,
    push_limit_into_unions,
)
from repro.optimizer.rewrite_rules import (
    RewriteReport,
    eliminate_contradictory_selections,
    eliminate_redundant_guards,
    prune_union_branches,
    push_selections_through_joins,
)

#: fixpoint iterations before the planner stops rewriting
MAX_PASSES = 10

#: the rewrite rules applied by default, in order — the AD rules first (they
#: can empty whole subtrees the analytic rules would otherwise rearrange)
DEFAULT_RULES: Tuple[Callable, ...] = (
    push_selections_through_joins,
    prune_union_branches,
    eliminate_contradictory_selections,
    eliminate_redundant_guards,
    eliminate_noop_sorts,
    push_limit_into_unions,
    push_aggregate_into_unions,
    push_aggregate_past_rename,
)


class Planner:
    """Applies dependency-aware rewrite rules to algebra expressions.

    ``catalog`` is the :class:`~repro.algebra.source.Source` of the base
    relations' declared facts (a :class:`repro.engine.Database`; a mapping declares
    none).  ``rules`` may be overridden to ablate individual rewrites.
    """

    def __init__(self, catalog=None, rules: Optional[Sequence[Callable]] = None):
        self.catalog = as_source(catalog)
        self.rules = tuple(rules) if rules is not None else DEFAULT_RULES

    def optimize(self, expression: Expression) -> Tuple[Expression, RewriteReport]:
        """Rewrite ``expression`` to a fixpoint; returns (new expression, report)."""
        report = RewriteReport()
        current = expression
        for _ in range(MAX_PASSES):
            changed = False
            for rule in self.rules:
                current, rule_report = rule(current, self.catalog)
                if rule_report.changed:
                    report.merge(rule_report)
                    changed = True
            if not changed:
                break
        return current, report
