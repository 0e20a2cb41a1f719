"""AD-driven query optimization.

Section 3.1.2 of the paper lists two optimization opportunities opened up by
attribute dependencies:

* **redundant type guards** — a guard on attributes whose presence already follows
  from earlier selections and the declared (explicit) attribute dependencies can be
  dropped (Example 4);
* **excluded variants** — a selection on the determining attributes rules variants
  out, so joins / union branches that only contribute excluded variants can be
  pruned (the extension of qualified-relation reasoning to structural variants).

This package implements both as rewrite rules over the algebra of
:mod:`repro.algebra`, a simple cost model, and a planner that applies the rules to a
fixpoint and reports what it did.
"""

from repro.optimizer.analysis import guaranteed_present, guaranteed_absent
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
from repro.optimizer.cost import estimate_cost, measured_cost
from repro.optimizer.joinorder import (
    JoinGraph,
    JoinOrderResult,
    JoinSearchReport,
    extract_join_graph,
    order_joins,
)
from repro.optimizer.planner import Planner

__all__ = [
    "JoinGraph",
    "JoinOrderResult",
    "JoinSearchReport",
    "extract_join_graph",
    "order_joins",
    "guaranteed_present",
    "guaranteed_absent",
    "RewriteReport",
    "eliminate_redundant_guards",
    "eliminate_contradictory_selections",
    "eliminate_noop_sorts",
    "prune_union_branches",
    "push_aggregate_into_unions",
    "push_aggregate_past_rename",
    "push_limit_into_unions",
    "push_selections_through_joins",
    "estimate_cost",
    "measured_cost",
    "Planner",
]
