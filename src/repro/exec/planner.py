"""Lowering logical algebra expressions into physical plans.

The :class:`PhysicalPlanner` turns a (typically already AD-rewritten) logical
:class:`~repro.algebra.expressions.Expression` tree into a tree of physical
operators from :mod:`repro.exec.operators`:

* chains of selections and type guards over a base relation collapse into a
  single :class:`~repro.exec.operators.Scan` with the predicate and guard pushed
  down (and the predicate's implied equalities exposed for index lookup);
* nested :class:`~repro.algebra.expressions.NaturalJoin` trees of three or more
  relations first go through the **cost-based join-order search** of
  :mod:`repro.optimizer.joinorder` (``join_order_search="dp"`` by default:
  Selinger-style dynamic programming over connected atom subsets producing
  bushy trees, with a greedy fallback above
  :data:`~repro.optimizer.joinorder.DEFAULT_DP_THRESHOLD` relations;
  ``"greedy"``, ``"smallest"`` and ``"none"`` select the other strategies).
  The search re-associates the joins into the cheapest estimated order, seeds
  the planner's estimate memo with its per-subset cardinalities — this is what
  keeps the ``est_rows`` / ``est_cost`` annotations honest for composed joins,
  which the plain cost model cannot price — and records a
  :class:`~repro.optimizer.joinorder.JoinSearchReport` (mode, subsets
  enumerated, candidate plans pruned, the chosen order) that
  ``plan.explain()`` renders.  Trees the search deems unsafe to reorder
  (narrowed ``on`` sets, data-dependent joins, unresolvable schemes) keep
  their written order;
* every :class:`~repro.algebra.expressions.NaturalJoin` is then lowered to an
  :class:`~repro.exec.operators.IndexLookupJoin` (when the join attributes are
  static, the inner side is a base relation with a covering hash index, and the
  estimated outer cardinality makes probing cheaper than scanning), a
  :class:`~repro.exec.operators.HashJoin`, a
  :class:`~repro.exec.operators.NestedLoopJoin` (provably tiny inputs) or a
  :class:`~repro.exec.operators.NaturalJoinOp` (join attributes only the data
  can tell, ``on=None``), decided by the cardinality estimates of the
  :class:`~repro.optimizer.cost.CostModel`; the smaller estimated input
  becomes the hash-join build side;
* the dependent fragments of a :class:`~repro.algebra.expressions.MultiwayJoin`
  are merged smallest-estimated-first (the order is semantically free);
* all remaining operators map one-to-one onto their physical counterparts.

Plans carry an **adaptive batch size** picked from the cost model's
tuple-width estimate and the largest base-table cardinality (tiny inputs get
one batch, wide variant tuples smaller batches), overridable per plan request
and per execution.

When the source database carries fresh statistics (``Database.analyze()``), the
cost model estimates from histograms and variant-tag frequencies, so all of the
above decisions — and the ``est_rows`` / ``est_cost`` annotations rendered by
``plan.explain()`` — are grounded in the data instead of default constants.

The expression handed to :meth:`PhysicalPlanner.plan` may be a *template*:
comparison constants lifted into :class:`~repro.algebra.predicates.Parameter`
slots.  It is costed under the ``params`` of the call that planned it, but
the operators keep the slots, so :meth:`PhysicalPlan.execute` runs the one
plan under any binding (see :mod:`repro.exec.executor` for the cache).
"""

from __future__ import annotations

import re
from copy import copy
from time import perf_counter
from typing import Optional, Tuple

from repro.algebra.evaluator import EvaluationResult, ExecutionStats
from repro.algebra.expressions import (
    Aggregate,
    Difference,
    EmptyRelation,
    Expression,
    Extension,
    Limit,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
    Union,
)
from repro.errors import OptimizerError
from repro.exec.context import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    adaptive_batch_size,
)
from repro.exec.operators import (
    DifferenceOp,
    EmptyOp,
    ExtendOp,
    FilterOp,
    GuardOp,
    HashAggregateOp,
    HashJoin,
    IndexLookupJoin,
    MergeUnion,
    MultiwayJoinOp,
    NaturalJoinOp,
    NestedLoopJoin,
    OuterUnionOp,
    PhysicalOperator,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
    TopKOp,
)
from repro.obs.feedback import referenced_tables
from repro.obs.trace import NOOP_SPAN, tracer_of
from repro.optimizer.cost import CostEstimate, CostModel
from repro.optimizer.joinorder import (
    DEFAULT_JOIN_SEARCH,
    SEARCH_MODES,
    JoinSearchReport,
    index_probe_cost,
    order_joins,
)

#: below this many estimated probe×build pairs a nested loop beats the hash setup
DEFAULT_HASH_JOIN_PAIR_THRESHOLD = 64

#: how many times the limit the estimated input must be for the bounded top-k
#: to beat the sort-with-cutoff: the top-k pays an ordered insertion for each
#: of the ~k·(1 + ln(n/k)) rows that enter it, the sort n·log₂n comparisons.
#: Measured over ``orders``, the two tie at k = n/8 both at n = 6,000 and at
#: n = 100,000 (docs/ARCHITECTURE.md, "Physical forms and the top-k pricing").
TOPK_HEAP_FACTOR = 8.0


class PhysicalResult(EvaluationResult):
    """An :class:`EvaluationResult` that also carries the execution context.

    ``result.context.operator_report()`` yields the per-operator breakdown; the
    global counters in ``result.stats`` keep the evaluator-compatible meaning.
    """

    def __init__(self, tuples, stats: ExecutionStats, context: ExecutionContext,
                 wall_seconds: float = 0.0):
        super().__init__(tuples, stats)
        self.context = context
        #: end-to-end wall-clock of the plan execution (root drain included)
        self.wall_seconds = wall_seconds

    def operator_report(self):
        return self.context.operator_report()


class PhysicalPlan:
    """An executable tree of physical operators (the output of the planner).

    ``join_search`` carries one :class:`~repro.optimizer.joinorder.JoinSearchReport`
    per n-way join tree the planner reordered; ``explain()`` renders them above
    the operator tree.
    """

    def __init__(self, root: PhysicalOperator, expression: Optional[Expression] = None,
                 join_search: Tuple[JoinSearchReport, ...] = (),
                 batch_size: Optional[int] = None, params=(),
                 feedback_reads: Optional[dict] = None):
        self.root = root
        self.expression = expression
        self.join_search = tuple(join_search)
        #: the planner's (adaptive or requested) batch-size decision; ``None``
        #: falls back to the default at execution time
        self.batch_size = batch_size
        #: the parameter binding the plan was costed under (and runs under
        #: unless :meth:`execute` is given another)
        self.params = params
        #: feedback dependency -> the value the costing read (see
        #: :meth:`~repro.obs.feedback.CardinalityFeedback.current`)
        self.feedback_reads = feedback_reads or {}
        #: the feedback store's version when the reads were last checked
        self.feedback_version = None
        self._nodes: Optional[list] = None
        self._summary: Optional[dict] = None

    def bound(self, params) -> "PhysicalPlan":
        """This plan (same operators) running under ``params`` by default."""
        if params == self.params:
            return self
        clone = copy(self)
        clone.params = params
        return clone

    @property
    def nodes(self) -> list:
        """The operators in preorder — the order ``run()`` registers stats."""
        if self._nodes is None:
            self._nodes, pending = [], [self.root]
            while pending:
                node = pending.pop()
                self._nodes.append(node)
                pending.extend(reversed(node.children))
        return self._nodes

    @property
    def summary(self) -> dict:
        """Operator labels and estimated cost — what the plan watchdog
        compares and reports; formatted once per plan."""
        if self._summary is None:
            self._summary = {
                "operators": [node.plan_label for node in self.nodes],
                "est_cost": self.root.estimated_cost}
        return self._summary

    def execute(self, source, stats: Optional[ExecutionStats] = None,
                batch_size: Optional[int] = None,
                use_indexes: bool = True,
                timing: bool = True, governor=None, params=None) -> PhysicalResult:
        """Run the plan against ``source`` and collect the result set.

        ``params`` binds the template's parameters for this run (default: the
        binding the plan was made under).

        ``batch_size=None`` uses the plan's own sizing decision (the planner's
        adaptive choice, or the size the plan was requested under), falling
        back to :data:`~repro.exec.context.DEFAULT_BATCH_SIZE` for hand-built
        plans.  ``timing=False`` turns off the per-operator
        wall-clock accounting (see :class:`~repro.exec.context.OperatorStats`);
        the result's own ``wall_seconds`` is always measured.  ``governor``
        bounds the execution (deadline, cancellation, memory budget — see
        :mod:`repro.governor`); ``None`` runs ungoverned.
        """
        if batch_size is None:
            batch_size = self.batch_size
        if batch_size is None:
            batch_size = DEFAULT_BATCH_SIZE
        ctx = ExecutionContext(source, stats=stats, batch_size=batch_size,
                               use_indexes=use_indexes, timing=timing,
                               governor=governor,
                               params=self.params if params is None else params)
        started = perf_counter()
        tuples = set()
        for batch in self.root.run(ctx):
            tuples.update(batch)
        wall = perf_counter() - started
        ctx.stats.tuples_produced = len(tuples)
        return PhysicalResult(tuples, ctx.stats, ctx, wall_seconds=wall)

    def explain(self) -> str:
        """Readable multi-line rendering of the plan.

        When the planner ran a join-order search, its one-line reports (mode,
        DP statistics, the chosen order) precede the operator tree; the values
        this plan binds its parameter slots (``?n``) to follow it.
        """
        lines = [report.describe() for report in self.join_search]
        lines.append(self.root.explain())
        slots = sorted({int(slot) for slot in re.findall(r"\?(\d+)", lines[-1])
                        if int(slot) < len(self.params)})
        if slots:
            lines.append("params: " + ", ".join(
                "?{}={!r}".format(slot, self.params[slot]) for slot in slots))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "PhysicalPlan({})".format(self.root.label())


class PhysicalPlanner:
    """Lowers logical expressions to physical plans.

    ``source`` (a database or mapping) supplies base-relation cardinalities for
    the join-algorithm decisions; without it, joins default to hash (which
    degrades gracefully, whereas a nested loop on large inputs does not).
    ``join_order_search`` selects the n-way join-order strategy of
    :mod:`repro.optimizer.joinorder` (``"dp"`` / ``"greedy"`` / ``"smallest"`` /
    ``"none"``).
    """

    def __init__(self, source=None, join_order_search: str = DEFAULT_JOIN_SEARCH):
        self.source = source
        self.cost_model = CostModel(source)
        if join_order_search not in SEARCH_MODES:
            raise OptimizerError(
                "unknown join_order_search mode {!r}; use one of {}".format(
                    join_order_search, "/".join(SEARCH_MODES)))
        #: join-order strategy for n-way NaturalJoin trees (plan-cache key part)
        self.join_order_search = join_order_search
        self._estimates: dict = {}
        #: ids of NaturalJoin nodes produced by the search (skip re-searching)
        self._ordered_joins: set = set()
        #: search results of the current plan() call (also keeps the rebuilt
        #: trees alive so the id-keyed memos above cannot alias freed nodes)
        self._search_results: list = []
        #: the source's tracer for the duration of one plan() call
        self._tracer = None

    def plan(self, expression: Expression,
             batch_size: Optional[int] = None, params=()) -> PhysicalPlan:
        """Lower ``expression`` into an executable :class:`PhysicalPlan`.

        ``params`` is the binding a template is costed under: selectivities
        and feedback fingerprints are those of the bound query.

        ``batch_size`` pins the plan's batch size; when omitted, the plan
        receives the **adaptive** size — picked from the cost model's
        tuple-width estimate and the largest base-table cardinality (tiny
        inputs get one batch, wide variant tuples get smaller batches).
        Either way the decision is baked into the returned plan (and the plan
        cache is keyed on it).
        """
        self._estimates = {}
        self._ordered_joins = set()
        self._search_results = []
        reads: dict = {}
        self.cost_model.bind(params, reads)
        self._tracer = tracer_of(self.source)
        span = (self._tracer.span("physical-plan",
                                  join_order_search=self.join_order_search)
                if self._tracer is not None else NOOP_SPAN)
        try:
            with span:
                self._trace_statistics_lookup()
                root = self._lower(expression)
                reports = tuple(result.report for result in self._search_results)
                if batch_size is None:
                    batch_size = self._adaptive_batch_size(expression)
                span.set(batch_size=batch_size)
            return PhysicalPlan(root, expression, join_search=reports,
                                batch_size=batch_size, params=params,
                                feedback_reads=reads)
        finally:
            self.cost_model.bind()
            self._estimates = {}
            self._ordered_joins = set()
            self._search_results = []
            self._tracer = None

    def _trace_statistics_lookup(self) -> None:
        """Record which tables contribute fresh statistics to this plan."""
        if self._tracer is None:
            return
        catalog = getattr(self.source, "statistics", None)
        if catalog is None:
            self._tracer.event("statistics-lookup", fresh=[], version=None)
            return
        self._tracer.event("statistics-lookup", fresh=catalog.fresh_names(),
                           version=catalog.version)

    # -- lowering ------------------------------------------------------------------------

    def _estimate(self, expression: Expression) -> CostEstimate:
        """Cost-model estimate for a node, memoized per ``plan()`` invocation."""
        return self.cost_model.estimate(expression, _memo=self._estimates)

    def _adaptive_batch_size(self, expression: Expression) -> int:
        """The plan's batch size from estimated tuple width and input size."""
        width = self.cost_model.estimate_width(expression)
        largest = None
        pending = [expression]
        while pending:
            node = pending.pop()
            if isinstance(node, RelationRef):
                cardinality = self._estimate(node).cardinality
                if largest is None or cardinality > largest:
                    largest = cardinality
            else:
                pending.extend(node.children)
        return adaptive_batch_size(width, largest)

    def _lower(self, expression: Expression) -> PhysicalOperator:
        operator = self._lower_node(expression)
        # Annotate the produced operator with this node's estimate; a Scan that
        # absorbed a selection/guard chain receives the estimate of the chain's
        # top node, which is exactly what it computes.
        estimate = self._estimate(expression)
        operator.estimated_rows = estimate.cardinality
        operator.estimated_cost = estimate.work
        # The feedback identity: what this operator computes (structurally,
        # under the planning binding) and which base tables that computation
        # reads.  ``_observe_query`` folds the operator's actual rows_out
        # under this key.
        operator.fingerprint, operator.binding_specific = (
            self.cost_model.fingerprint(expression))
        operator.feedback_tables = referenced_tables(expression)
        return operator

    def _lower_node(self, expression: Expression) -> PhysicalOperator:
        if isinstance(expression, EmptyRelation):
            return EmptyOp()
        if isinstance(expression, RelationRef):
            return Scan(expression.name)
        if isinstance(expression, Selection):
            child = self._lower(expression.child)
            if isinstance(child, Scan):
                return child.with_predicate(expression.predicate)
            return FilterOp(child, expression.predicate)
        if isinstance(expression, TypeGuardNode):
            child = self._lower(expression.child)
            if isinstance(child, Scan):
                return child.with_guard(expression.attributes)
            return GuardOp(child, expression.attributes)
        if isinstance(expression, Projection):
            return ProjectOp(self._lower(expression.child), expression.attributes)
        if isinstance(expression, Extension):
            return ExtendOp(self._lower(expression.child), expression.attribute,
                            expression.value)
        if isinstance(expression, Rename):
            return RenameOp(self._lower(expression.child), expression.mapping)
        if isinstance(expression, Product):
            return ProductOp(self._lower(expression.left), self._lower(expression.right))
        if isinstance(expression, OuterUnion):
            return OuterUnionOp(self._lower(expression.left), self._lower(expression.right))
        if isinstance(expression, Union):
            return MergeUnion(self._lower(expression.left), self._lower(expression.right))
        if isinstance(expression, Difference):
            return DifferenceOp(self._lower(expression.left), self._lower(expression.right))
        if isinstance(expression, MultiwayJoin):
            master, fragments = expression.inputs[0], list(expression.inputs[1:])
            # Merge the smallest estimated fragments into the master first (the
            # dependent fragments commute, so this only changes intermediate
            # sizes, never the result).
            fragments.sort(key=lambda child: self._estimate(child).cardinality)
            return MultiwayJoinOp([self._lower(child) for child in [master] + fragments],
                                  expression.on)
        if isinstance(expression, Aggregate):
            return HashAggregateOp(self._lower(expression.child), expression.group_by,
                                   expression.specs)
        if isinstance(expression, Sort):
            return SortOp(self._lower(expression.child), expression.keys)
        if isinstance(expression, Limit):
            return self._lower_limit(expression)
        if isinstance(expression, SubqueryExtension):
            return SubqueryExtendOp(self._lower(expression.child), expression.attribute,
                                    self._lower(expression.subquery))
        if isinstance(expression, NaturalJoin):
            ordered = self._search_join_order(expression)
            return self._lower_join(expression if ordered is None else ordered)
        raise OptimizerError("cannot lower expression node {!r}".format(expression))

    def _lower_limit(self, expression: Limit) -> PhysicalOperator:
        """λ, fused with a child τ when present: bounded top-k vs full sort.

        ``Limit(Sort(E), k)`` lowers to a single physical operator over ``E``
        (a bare ``Limit`` is the same with the canonical tuple order).  The
        top-k holds ``k`` rows and prunes the rest on one comparison each;
        the sort materializes everything — the estimated input cardinality
        decides: a ``k`` beyond ``n / TOPK_HEAP_FACTOR`` falls back to the
        sort-with-cutoff form and a smaller one gets the bounded-memory top-k.
        """
        child_expr = expression.child
        if isinstance(child_expr, Sort):
            keys = child_expr.keys
            input_expr = child_expr.child
        else:
            keys = ()
            input_expr = child_expr
        k = expression.count
        n = max(self._estimate(input_expr).cardinality, 1.0)
        child = self._lower(input_expr)
        if k * TOPK_HEAP_FACTOR <= n:
            return TopKOp(child, keys, k)
        return SortOp(child, keys, limit=k)

    def _search_join_order(self, expression: NaturalJoin) -> Optional[NaturalJoin]:
        """Run the join-order search on an n-way NaturalJoin tree, if enabled.

        Returns the reordered tree (whose estimate memo entries and report are
        absorbed into the current plan), or ``None`` to keep the written order.
        Trees the search itself produced are never re-searched.
        """
        if self.join_order_search == "none" or id(expression) in self._ordered_joins:
            return None
        result = order_joins(expression, self.cost_model,
                             mode=self.join_order_search, memo=self._estimates,
                             tracer=self._tracer)
        if result is None:
            return None
        self._search_results.append(result)
        self._estimates.update(result.estimates)
        self._ordered_joins.update(id(node) for node in result.join_nodes)
        return result.expression

    def _lower_join(self, expression: NaturalJoin) -> PhysicalOperator:
        left_estimate = self._estimate(expression.left)
        right_estimate = self._estimate(expression.right)
        left_cardinality = left_estimate.cardinality
        right_cardinality = right_estimate.cardinality
        index_join = self._index_lookup_join(expression, left_cardinality, right_cardinality)
        if index_join is not None:
            return index_join
        left = self._lower(expression.left)
        right = self._lower(expression.right)
        # The nested loop examines |L|×|R| pairs, which is catastrophic when an
        # estimate is too low — so the decision uses the hard cardinality upper
        # bounds, not the estimates: a nested loop only for provably tiny inputs.
        pairs = left_estimate.bound * right_estimate.bound
        known = left_cardinality > 0 and right_cardinality > 0
        if known and pairs <= DEFAULT_HASH_JOIN_PAIR_THRESHOLD:
            return NestedLoopJoin(left, right, on=expression.on)
        # Build on the smaller estimated input (the right child of HashJoin).
        if known and left_cardinality < right_cardinality:
            left, right = right, left
        if expression.on is not None and len(expression.on):
            return HashJoin(left, right, on=expression.on)
        # Join attributes only the data can tell: both sides are materialized.
        return NaturalJoinOp(left, right, on=expression.on)

    def _index_lookup_join(self, expression: NaturalJoin,
                           left_cardinality: float,
                           right_cardinality: float) -> Optional[IndexLookupJoin]:
        """An :class:`IndexLookupJoin` when probing beats scanning, else ``None``.

        Requires statically known join attributes and a base-relation inner side
        whose maintained hash index covers (a subset of) them.  The decision
        compares the estimated probe cost — outer cardinality × (probe factor +
        the index's average bucket size, i.e. the partners each probe examines)
        — against the scan the hash join would pay on the inner side.  This is
        where an accurate outer estimate (e.g. a 1% variant tag from the
        statistics) flips the plan: the default constants overestimate the
        outer side and keep the full scan.  A low-NDV index (huge buckets)
        prices itself out via the fan-out term.
        """
        if expression.on is None:
            return None
        best = None
        candidates = (
            (expression.left, expression.right, left_cardinality),
            (expression.right, expression.left, right_cardinality),
        )
        for outer_expr, inner_expr, outer_cardinality in candidates:
            if not isinstance(inner_expr, RelationRef) or outer_cardinality <= 0:
                continue
            probe_cost = index_probe_cost(self.source, inner_expr.name,
                                          expression.on, outer_cardinality)
            if probe_cost is None:
                continue
            inner_cardinality = len(self.source.relation(inner_expr.name))
            if probe_cost > inner_cardinality:
                continue
            gain = inner_cardinality - probe_cost
            if best is None or gain > best[0]:
                best = (gain, outer_expr, inner_expr.name)
        if best is None:
            return None
        _gain, outer_expr, inner_name = best
        return IndexLookupJoin(self._lower(outer_expr), inner_name, expression.on)
