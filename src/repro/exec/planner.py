"""Lowering logical algebra expressions into physical plans.

The :class:`PhysicalPlanner` turns a (typically already AD-rewritten) logical
:class:`~repro.algebra.expressions.Expression` tree into a tree of physical
operators from :mod:`repro.exec.operators`:

* chains of selections and type guards over a base relation collapse into a
  single :class:`~repro.exec.operators.Scan` with the predicate and guard pushed
  down (and the predicate's implied equalities exposed for index lookup);
* nested :class:`~repro.algebra.expressions.NaturalJoin` trees of three or more
  relations first go through the **cost-based join-order search** of
  :mod:`repro.optimizer.joinorder`: Selinger-style dynamic programming over
  connected atom subsets producing bushy trees (``join_order_search="none"``
  keeps the written order, the baseline E13 measures against).  The search
  re-associates the joins into the cheapest estimated order, hands the cost
  model its estimate of each join it composes — this is what keeps the
  ``est_rows`` / ``est_cost`` annotations honest for composed joins, which the
  plain cost model cannot price — and records a
  :class:`~repro.optimizer.joinorder.JoinSearchReport` (subsets enumerated,
  candidate plans pruned, the chosen order) that ``plan.explain()`` renders.
  Trees the search deems unsafe to reorder (narrowed ``on`` sets,
  data-dependent joins, unresolvable schemes) or too large to search keep
  their written order;
* every :class:`~repro.algebra.expressions.NaturalJoin` is then lowered to an
  :class:`~repro.exec.operators.IndexLookupJoin` (when the join attributes are
  static, the inner side is a base relation — bare or under a selection/guard
  chain — with a covering hash index, and the estimated outer cardinality
  makes probing cheaper than scanning) or else a
  :class:`~repro.exec.operators.HashJoin` — whether ``on`` is static, empty or
  ``None`` (join attributes only the data can tell); the smaller input, by the
  cardinality estimates of the :class:`~repro.optimizer.cost.CostModel`,
  becomes the hash-join build side;
* a :class:`~repro.algebra.expressions.MultiwayJoin` lowers to a chain of
  probe-preserving :class:`~repro.exec.operators.HashJoin` stages, the master
  the deepest probe side and one dependent fragment built per stage, smallest
  estimated first; each stage is annotated as the multiway join below it;
* all remaining operators map one-to-one onto their physical counterparts.

Each node class's lowering is one entry of :data:`LOWERINGS`, found by
:func:`~repro.algebra.expressions.dispatch`.

Plans carry an **adaptive batch size** picked from the cost model's
tuple-width estimate and the largest base-table cardinality (tiny inputs get
one batch, wide variant tuples smaller batches).  It is the planner's
decision alone: no caller sets it.

When the source database carries statistics (``Database.analyze()``), the
cost model estimates from histograms and variant-tag frequencies, so all of the
above decisions — and the ``est_rows`` / ``est_cost`` annotations rendered by
``plan.explain()`` — are grounded in the data instead of default constants.
One :meth:`PhysicalPlanner.plan` call is one planning pass of the cost model
(:meth:`~repro.optimizer.cost.CostModel.bind`): each node's estimate,
feedback fingerprint and keys are derived once, in memos keyed by the node
itself, which the pass drops at its end.

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
from typing import Optional, Set, Tuple

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
    dispatch,
)
from repro.algebra.source import as_source
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
    OuterUnionOp,
    PhysicalOperator,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
)
from repro.model.tuples import FlexTuple
from repro.obs.feedback import referenced_tables
from repro.obs.trace import NOOP_SPAN
from repro.optimizer.cost import CostModel
from repro.optimizer.joinorder import (
    JoinSearchReport,
    index_probe_cost,
    order_joins,
    scanned_relation,
)

class PhysicalResult(EvaluationResult):
    """An :class:`EvaluationResult` that also carries the execution context.

    ``result.context.operator_report()`` yields the per-operator breakdown; the
    global counters in ``result.stats`` keep the evaluator-compatible meaning.
    """

    def __init__(self, tuples: Set[FlexTuple], stats: ExecutionStats,
                 context: ExecutionContext, wall_seconds: float = 0.0):
        # adopts the set :meth:`PhysicalPlan.execute` has just built: no copy
        self.tuples = tuples
        self.stats = stats
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
        #: the planner's adaptive batch-size decision; ``None`` (a hand-built
        #: plan) falls back to the default at execution time
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
        self._observers: Optional[tuple] = None

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

    def observers(self, registry) -> list:
        """Per node of :attr:`nodes`, what an execution of it feeds in
        ``registry``: ``(node, label, q-error gauge, memory-gauge name, the
        rows.aggregated counter of an aggregate or None, whether its
        fingerprint may learn)``.  Resolved once per plan and registry
        generation; the memory gauge is created only when a run holds memory."""
        held = self._observers
        if held is None or held[0] is not registry or held[1] != registry.generation:
            held = self._observers = (registry, registry.generation, [
                (node, node.plan_label, registry.max_gauge("qerror." + node.name),
                 "memory." + node.name,
                 registry.counter("rows.aggregated") if "aggregate" in node.name else None,
                 # bare scans are never estimated from feedback (the cost
                 # model prices them from live table sizes), so recording
                 # them would churn the version without improving a plan
                 node.fingerprint is not None
                 and node.fingerprint[0] not in ("relation", "empty"))
                for node in self.nodes])
        return held[2]

    def execute(self, source, stats: Optional[ExecutionStats] = None,
                timing: bool = True, governor=None, params=None) -> PhysicalResult:
        """Run the plan against ``source`` and collect the result set.

        ``params`` binds the template's parameters for this run (default: the
        binding the plan was made under).

        Batches are the plan's own size (the planner's adaptive choice), or
        :data:`~repro.exec.context.DEFAULT_BATCH_SIZE` for a hand-built plan
        without one.  ``timing=False`` turns off the per-operator
        wall-clock accounting (see :class:`~repro.exec.context.OperatorStats`);
        the result's own ``wall_seconds`` is always measured.  ``governor``
        bounds the execution (deadline, cancellation, memory budget — see
        :mod:`repro.governor`); ``None`` runs ungoverned.
        """
        batch_size = DEFAULT_BATCH_SIZE if self.batch_size is None else self.batch_size
        ctx = ExecutionContext(source, stats=stats, batch_size=batch_size,
                               timing=timing, governor=governor,
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

    ``source`` (a :class:`~repro.algebra.source.Source`, or a mapping
    :func:`~repro.algebra.source.as_source` wraps) supplies base-relation
    cardinalities and indexes for the join decisions (index lookup or hash
    join, and the build side).
    ``join_order_search`` is ``"dp"`` (the search of
    :mod:`repro.optimizer.joinorder`) or ``"none"`` (the written order).
    """

    def __init__(self, source=None, join_order_search: str = "dp"):
        self.source = as_source(source)
        self.cost_model = CostModel(self.source)
        if join_order_search not in ("dp", "none"):
            raise OptimizerError(
                "unknown join_order_search mode {!r}; use dp/none".format(
                    join_order_search))
        #: join-order strategy for n-way NaturalJoin trees
        self.join_order_search = join_order_search
        self._reset()

    def _reset(self) -> None:
        """Forget the current plan() call's state."""
        #: node -> its keys (:meth:`_keys_of`), one plan() call long
        self._keys: dict = {}
        #: NaturalJoin nodes produced by the search (skip re-searching)
        self._ordered_joins: set = set()
        #: the join-order search reports of the current plan() call
        self._reports: list = []
        #: the source's tracer for the duration of one plan() call
        self._tracer = None

    def plan(self, expression: Expression, params=()) -> PhysicalPlan:
        """Lower ``expression`` into an executable :class:`PhysicalPlan`.

        ``params`` is the binding a template is costed under: selectivities
        and feedback fingerprints are those of the bound query.

        The plan receives the **adaptive** batch size — picked from the cost
        model's tuple-width estimate and the largest base-table cardinality
        (tiny inputs get one batch, wide variant tuples get smaller batches).
        """
        reads: dict = {}
        self.cost_model.bind(params, reads)
        self._tracer = self.source.tracer
        span = (self._tracer.span("physical-plan",
                                  join_order_search=self.join_order_search)
                if self._tracer is not None else NOOP_SPAN)
        try:
            with span:
                self._trace_statistics_lookup()
                root = self._lower(expression)
                batch_size = self._adaptive_batch_size(expression)
                span.set(batch_size=batch_size)
            return PhysicalPlan(root, expression, join_search=self._reports,
                                batch_size=batch_size, params=params,
                                feedback_reads=reads)
        finally:
            self.cost_model.bind()
            self._reset()

    def _trace_statistics_lookup(self) -> None:
        """Record which tables contribute statistics to this plan."""
        if self._tracer is None:
            return
        catalog = self.source.statistics
        if catalog is None:
            self._tracer.event("statistics-lookup", tables=[], version=None)
            return
        self._tracer.event("statistics-lookup", tables=catalog.names(),
                           version=catalog.version)

    # -- lowering ------------------------------------------------------------------------

    def _keys_of(self, expression: Expression):
        """``expression.unique_keys(self.source)``, each node's
        :meth:`~repro.algebra.expressions.Expression.keys_from` run once per
        ``plan()`` call."""
        keys = self._keys.get(expression)
        if keys is None:
            keys = self._keys[expression] = expression.keys_from(
                tuple([self._keys_of(child) for child in expression.children]),
                self.source)
        return keys

    def _adaptive_batch_size(self, expression: Expression) -> int:
        """The plan's batch size from estimated tuple width and input size."""
        width = self.cost_model.estimate_width(expression)
        largest = None
        pending = [expression]
        while pending:
            node = pending.pop()
            if isinstance(node, RelationRef):
                cardinality = self.cost_model.estimate(node).cardinality
                if largest is None or cardinality > largest:
                    largest = cardinality
            else:
                pending.extend(node.children)
        return adaptive_batch_size(width, largest)

    def _lower(self, expression: Expression) -> PhysicalOperator:
        operator = self._lower_node(expression)
        if isinstance(expression, (Projection, Rename, Product, NaturalJoin, MultiwayJoin)):
            # a deduplicating operator: under a key its rows are distinct already
            keys = self._keys_of(expression)
            if keys:
                operator.distinct_by = min(keys, key=lambda key: (len(key), key.names))
        # Annotate the produced operator with this node's estimate; a Scan that
        # absorbed a selection/guard chain receives the estimate of the chain's
        # top node, which is exactly what it computes.
        estimate = self.cost_model.estimate(expression)
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
        lower = dispatch(LOWERINGS, expression)
        if lower is None:
            raise OptimizerError("cannot lower expression node {!r}".format(expression))
        return lower(self, expression)

    def _lower_selection(self, expression: Selection) -> PhysicalOperator:
        child = self._lower(expression.child)
        if isinstance(child, Scan):
            return child.with_predicate(expression.predicate)
        return FilterOp(child, expression.predicate)

    def _lower_guard(self, expression: TypeGuardNode) -> PhysicalOperator:
        child = self._lower(expression.child)
        if isinstance(child, Scan):
            return child.with_guard(expression.attributes)
        return GuardOp(child, expression.attributes)

    def _lower_multiway_join(self, expression: MultiwayJoin) -> PhysicalOperator:
        master, *fragments = expression.inputs
        # Merge the smallest estimated fragments into the master first (the
        # dependent fragments commute, so this only changes intermediate
        # sizes, never the result); the last one merges at the root.
        fragments.sort(key=lambda child: self.cost_model.estimate(child).cardinality)
        probe = master
        if len(fragments) > 1:
            probe = MultiwayJoin([master] + fragments[:-1], expression.on)
        return HashJoin(self._lower(probe), self._lower(fragments[-1]), expression.on,
                        keep_unmatched_probe=True)

    def _lower_limit(self, expression: Limit) -> PhysicalOperator:
        """λ, fused with a child τ when present: one bounded sort.

        ``Limit(Sort(E), k)`` lowers to a single :class:`SortOp` over ``E``
        with ``limit=k`` (a bare ``Limit`` is the same with the canonical
        tuple order), which holds at most ``2k`` rows plus one batch's
        candidates whatever ``k`` is.
        """
        child_expr = expression.child
        keys = ()
        if isinstance(child_expr, Sort):
            keys, child_expr = child_expr.keys, child_expr.child
        return SortOp(self._lower(child_expr), keys, limit=expression.count)

    def _search_join_order(self, expression: NaturalJoin) -> Optional[NaturalJoin]:
        """Run the join-order search on an n-way NaturalJoin tree, if enabled.

        Returns the reordered tree (the cost model holds its estimates for the
        pass, the plan its report), or ``None`` to keep the written order.
        Trees the search itself produced are never re-searched.
        """
        if self.join_order_search == "none" or expression in self._ordered_joins:
            return None
        result = order_joins(expression, self.cost_model, tracer=self._tracer)
        if result is None:
            return None
        self._reports.append(result.report)
        self._ordered_joins.update(result.join_nodes)
        return result.expression

    def _lower_join(self, expression: NaturalJoin) -> PhysicalOperator:
        left_cardinality = self.cost_model.estimate(expression.left).cardinality
        right_cardinality = self.cost_model.estimate(expression.right).cardinality
        index_join = self._index_lookup_join(expression, left_cardinality, right_cardinality)
        if index_join is not None:
            return index_join
        left = self._lower(expression.left)
        right = self._lower(expression.right)
        # Build on the smaller estimated input (the right child of HashJoin).
        if 0 < left_cardinality < right_cardinality:
            left, right = right, left
        return HashJoin(left, right, on=expression.on)

    def _index_lookup_join(self, expression: NaturalJoin,
                           left_cardinality: float,
                           right_cardinality: float) -> Optional[IndexLookupJoin]:
        """An :class:`IndexLookupJoin` when probing beats scanning, else ``None``.

        Requires statically known join attributes and an inner side that is a
        base relation — bare, or under a selection / type-guard chain, which
        lowers to one :class:`~repro.exec.operators.Scan` whose guard and
        predicate filter the index partners — with a maintained hash index
        covering (a subset of) them.  The decision compares the estimated
        probe cost — outer cardinality × (probe factor + the index's average
        bucket size, i.e. the partners each probe examines) — against the
        size of the inner base relation, which the hash join's build would
        scan.  This is where an accurate outer estimate (e.g. a 1% variant tag
        from the statistics) flips the plan: the default constants
        overestimate the outer side and keep the full scan.  A low-NDV index
        (huge buckets) prices itself out via the fan-out term.
        """
        if expression.on is None:
            return None
        best = None
        candidates = (
            (expression.left, expression.right, left_cardinality),
            (expression.right, expression.left, right_cardinality),
        )
        for outer_expr, inner_expr, outer_cardinality in candidates:
            relation = scanned_relation(inner_expr)
            if relation is None or outer_cardinality <= 0:
                continue
            probe_cost = index_probe_cost(self.source, relation,
                                          expression.on, outer_cardinality)
            if probe_cost is None:
                continue
            inner_cardinality = len(self.source.relation(relation))
            if probe_cost > inner_cardinality:
                continue
            gain = inner_cardinality - probe_cost
            if best is None or gain > best[0]:
                best = (gain, outer_expr, inner_expr)
        if best is None:
            return None
        _gain, outer_expr, inner_expr = best
        # the inner scan is no node of the plan tree: it carries no annotations
        return IndexLookupJoin(self._lower(outer_expr), self._lower_node(inner_expr),
                               expression.on)


def _pair(physical):
    """The lowering of a binary node onto ``physical`` over its lowered inputs."""
    return lambda planner, node: physical(planner._lower(node.left),
                                          planner._lower(node.right))


#: node class -> how :class:`PhysicalPlanner` lowers it (the selection / guard
#: chain folds into a ``Scan``, the joins are priced; the rest map one-to-one)
LOWERINGS = {
    EmptyRelation: lambda planner, node: EmptyOp(),
    RelationRef: lambda planner, node: Scan(node.name),
    Selection: PhysicalPlanner._lower_selection,
    TypeGuardNode: PhysicalPlanner._lower_guard,
    Projection: lambda planner, node: ProjectOp(planner._lower(node.child),
                                                node.attributes),
    Extension: lambda planner, node: ExtendOp(planner._lower(node.child),
                                              node.attribute, node.value),
    Rename: lambda planner, node: RenameOp(planner._lower(node.child), node.mapping),
    Product: _pair(ProductOp),
    OuterUnion: _pair(OuterUnionOp),
    Union: _pair(MergeUnion),
    Difference: _pair(DifferenceOp),
    MultiwayJoin: PhysicalPlanner._lower_multiway_join,
    NaturalJoin: lambda planner, node: planner._lower_join(
        planner._search_join_order(node) or node),
    Aggregate: lambda planner, node: HashAggregateOp(planner._lower(node.child),
                                                     node.group_by, node.specs),
    Sort: lambda planner, node: SortOp(planner._lower(node.child), node.keys),
    Limit: PhysicalPlanner._lower_limit,
    SubqueryExtension: lambda planner, node: SubqueryExtendOp(
        planner._lower(node.child), node.attribute, planner._lower(node.subquery)),
}
