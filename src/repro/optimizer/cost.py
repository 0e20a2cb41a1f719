"""Cost estimation and measurement for algebra expressions.

Two notions of cost are used by the optimizer experiments:

* :class:`CostModel` — a static estimate based on base-relation cardinalities
  and selectivities.  When the relation source carries statistics (a
  :class:`~repro.stats.StatisticsCatalog` populated by ``Database.analyze()``,
  whose counts follow every write and whose value distributions age),
  selection, type-guard and join selectivities come from histograms, most-common
  values and variant-tag frequency tables; without statistics the model degrades
  to the classic default constants.  The physical planner uses the estimates to
  pick join algorithms and build sides; the rewrite planner to confirm that a
  rewrite does not increase the estimated work.
* :func:`measured_cost` — the exact work counters gathered by actually evaluating
  the expression with :class:`repro.algebra.Evaluator`.  The benchmarks report this
  machine-independent number alongside wall-clock time.

**How the estimates are derived.**  Every node receives a
:class:`CostEstimate` with three components:

* ``cardinality`` — base relations report their exact row count; a
  selection/guard chain over one base relation is combined into a *single*
  conjunction and priced against that table's statistics in one step
  (comparisons from histograms and exact most-common-value counts, type
  guards from the variant-tag frequency table, joint attribute *presence*
  charged exactly once even when a guard and a comparison require the same
  attribute — a comparison contributes its fraction among the rows carrying
  its attribute); a natural join prices as ``|L| · |R| · sel`` with ``sel`` the
  per-attribute NDV overlap ``1/max(ndv_L, ndv_R)`` times both sides'
  tag-frequency of carrying the join attributes (tuples lacking one can never
  join).  Reshaping operators (projection, extension, rename) pass
  cardinality through; unions add, difference keeps its left input.
* ``work`` — cumulative: children's work plus this node's own (one unit per
  input tuple for selections/guards/reshaping — scaled by
  :data:`TUPLE_COST` — and the examined pair count for joins).
* ``bound`` — a *hard* cardinality upper bound (selections only shrink their
  input, a join can at most pair everything).  It caps the selection,
  aggregate, limit and feedback estimates; no join choice reads it.

For a never-analyzed table every selectivity falls back to the default
constants (:data:`DEFAULT_SELECTIVITY`, :data:`DEFAULT_GUARD_SELECTIVITY`),
so the model degrades gracefully rather than failing.  The n-way join-order
search of :mod:`repro.optimizer.joinorder` builds on these same primitives —
atom estimates from this model, edge selectivities from
:func:`repro.stats.statistics.join_selectivity` — and hands the estimates of
the joins it composes back to the model (:meth:`CostModel.remember`), because
this model alone cannot price composed joins (it has no base statistics for
intermediate results).

The statistics-aware logic lives in :class:`CostModel`, one rule per node
class in :data:`ESTIMATORS` (cardinality and work) and :data:`WIDTHS` (tuple
width), found by :func:`~repro.algebra.expressions.dispatch`.  A planning pass
is one :meth:`CostModel.bind` with ``reads`` to the next ``bind``: the model
keeps each node's estimate and feedback fingerprint for the pass, keyed by
the node itself, and nothing outside one.  The full constant reference lives
in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from math import log2
from typing import Dict, Iterable, Optional

from repro.algebra.evaluator import Evaluator, ExecutionStats
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
from repro.algebra.predicates import And, FalsePredicate, PresencePredicate
from repro.algebra.source import as_source
from repro.errors import OptimizerError, ReproError
from repro.obs.feedback import attribute_carriers, expression_key, referenced_tables
from repro.stats.statistics import TableStatistics, join_selectivity

#: default fraction of tuples surviving a selection when nothing better is known
DEFAULT_SELECTIVITY = 0.5
#: default fraction of tuples surviving a type guard
DEFAULT_GUARD_SELECTIVITY = 0.8

#: assumed average tuple width (attributes per tuple) when neither statistics
#: nor a declared scheme can answer
DEFAULT_TUPLE_WIDTH = 8.0

#: default fraction of input tuples that form distinct groups when neither
#: variant-tag frequencies nor NDVs are available to estimate a group count
DEFAULT_GROUP_FRACTION = 0.1

#: per-tuple cost of selection/guard/reshaping work relative to examining one
#: join pair: compiled predicates and bulk counter updates amortize the
#: interpreter overhead across a batch, a join pair pays it in full
TUPLE_COST = 0.25


class CostEstimate:
    """Estimated output cardinality and cumulative work of an expression.

    ``bound`` is a *hard upper bound* on the output cardinality (selections can
    only shrink their input, a join can at most pair everything); it caps the
    selection, aggregate, limit and feedback estimates.
    """

    def __init__(self, cardinality: float, work: float, bound: Optional[float] = None):
        self.cardinality = cardinality
        self.work = work
        self.bound = cardinality if bound is None else bound

    def __repr__(self) -> str:
        return "CostEstimate(cardinality={:.1f}, work={:.1f}, bound={:.1f})".format(
            self.cardinality, self.work, self.bound)


def _base_cardinality(source, name: str) -> int:
    try:
        return len(source.relation(name))
    except ReproError:
        # An estimator should degrade gracefully on unknown names; the evaluator
        # is the component that reports them as hard errors.
        return 0


class CostModel:
    """Statistics-aware cardinality and work estimation.

    The statistics are the :class:`~repro.algebra.source.Source`'s
    ``statistics`` catalog — a :class:`~repro.engine.Database` carries a
    :class:`~repro.stats.StatisticsCatalog`, a mapping none — so an analyzed
    database automatically estimates from its data.  Every lookup happens per
    estimate, hence a table without statistics (``get`` returning ``None``)
    transparently falls back to the default constants.
    """

    def __init__(self, source=None):
        self.source = as_source(source)
        self.statistics = self.source.statistics
        #: the engine's :class:`~repro.obs.feedback.CardinalityFeedback` store:
        #: observed cardinalities take precedence over histogram/NDV estimation
        self.feedback = self.source.cardinality_feedback
        self.bind()

    def bind(self, params=(), reads: Optional[dict] = None) -> None:
        """Cost templates under the binding ``params`` from now on.

        The physical planner binds per plan and passes ``reads``: every
        feedback dependency the costing consults (see
        :meth:`~repro.obs.feedback.CardinalityFeedback.current`) is recorded
        there with the value it read, misses included, so the plan cache can
        tell whether a cached plan would be costed differently today.  Up to
        the next bind — a planning pass — each node's estimate and fingerprint
        are kept; outside a pass nothing is kept between calls.
        """
        self.params = params
        self.reads = reads
        self._estimates: Dict[Expression, CostEstimate] = {}
        self._fingerprints: Dict[Expression, tuple] = {}

    def remember(self, expression: Expression, estimate: CostEstimate) -> None:
        """``estimate`` is ``expression``'s for the rest of the pass (the
        join-order search's joins, which this model cannot price)."""
        if self.reads is not None:
            self._estimates[expression] = estimate

    def fingerprint(self, expression: Expression) -> tuple:
        """``(bound feedback fingerprint, does it depend on the binding)``."""
        cached = self._fingerprints.get(expression)
        if cached is None:
            key = expression_key(expression, self.params)
            cached = (key, bool(self.params) and key != expression_key(expression))
            if self.reads is not None:
                self._fingerprints[expression] = cached
        return cached

    def observed_edge_selectivity(self, name: str,
                                  expressions: Iterable[Expression]) -> Optional[float]:
        """The feedback store's observed selectivity of a join on ``name``
        whose carrier tables are those of ``expressions`` that carry it.

        ``None`` when nothing was observed.  The lookup is recorded as a
        dependency of the costing (see :meth:`bind`) either way.
        """
        feedback = self.feedback
        version = self.source.statistics_version
        if feedback is None or version is None:
            return None
        dependency = ("edges", (name, version))
        if self.reads is not None and dependency not in self.reads:
            self.reads[dependency] = feedback.current(dependency)
        if not len(feedback):
            return None
        tables = set()
        for expression in expressions:
            tables |= referenced_tables(expression)
        carriers = attribute_carriers(self.source, tables, name)
        if not carriers:
            return None
        return feedback.lookup_edge(name, carriers, version)

    # -- statistics access ---------------------------------------------------------------

    def table_statistics(self, name: str) -> Optional[TableStatistics]:
        """The statistics of a base relation, or ``None``."""
        return None if self.statistics is None else self.statistics.get(name)

    def base_statistics(self, expression: Expression) -> Optional[TableStatistics]:
        """Statistics of the single base relation feeding ``expression``.

        Walks through the operators that keep predicates meaningful against the
        base table's attribute space (selection, guard, projection); any other
        shape — joins, unions, renames — yields ``None`` and the default
        constants apply.
        """
        node = expression
        while isinstance(node, (Selection, TypeGuardNode, Projection)):
            node = node.children[0]
        if isinstance(node, RelationRef):
            return self.table_statistics(node.name)
        return None

    # -- estimation ----------------------------------------------------------------------

    def estimate(self, expression: Expression) -> CostEstimate:
        """Recursively estimate output cardinality and total work of ``expression``.

        Precedence order: an **observed** cardinality from the feedback store
        (recorded by a previous execution of the same subexpression under the
        current statistics version) overrides whatever the histogram/NDV math
        below derived; the structural hard ``bound`` still caps it.  Base
        relations are excluded — their live row count is already exact.
        """
        cached = self._estimates.get(expression)
        if cached is not None:
            return cached
        rule = dispatch(ESTIMATORS, expression)
        if rule is None:
            raise OptimizerError("cannot estimate cost of {!r}".format(expression))
        estimate = rule(self, expression)
        observed = self._observed_cardinality(expression)
        if observed is not None and float(observed) != estimate.cardinality:
            estimate = CostEstimate(min(float(observed), estimate.bound),
                                    estimate.work, bound=estimate.bound)
        self.remember(expression, estimate)
        return estimate

    def _observed_cardinality(self, expression: Expression):
        """The feedback store's observation for this subexpression, if any."""
        feedback = self.feedback
        if feedback is None or isinstance(expression, (RelationRef, EmptyRelation)):
            return None
        version = self.source.statistics_version
        if version is None:
            return None
        key, bound = self.fingerprint(expression)
        observed = feedback.lookup(key, version)
        if self.reads is not None:
            self.reads["bound-rows" if bound else "rows", (key, version)] = observed
        return observed

    def _estimate_relation(self, expression: RelationRef) -> CostEstimate:
        cardinality = _base_cardinality(self.source, expression.name)
        return CostEstimate(cardinality, cardinality)

    def _estimate_selection(self, expression: Selection) -> CostEstimate:
        if isinstance(expression.predicate, FalsePredicate):
            return CostEstimate(0.0, self.estimate(expression.child).work, bound=0.0)
        return self._estimate_chain(expression, DEFAULT_SELECTIVITY)

    def _estimate_chain(self, expression: Expression, default: float) -> CostEstimate:
        """σ and τ: the chain's statistics, else ``default`` of the input."""
        child = self.estimate(expression.child)
        cardinality = self._chain_cardinality(expression)
        if cardinality is None:
            cardinality = child.cardinality * default
        return CostEstimate(min(cardinality, child.bound),
                            child.work + child.cardinality * TUPLE_COST,
                            bound=child.bound)

    def _estimate_reshaping(self, expression: Expression) -> CostEstimate:
        child = self.estimate(expression.children[0])
        return CostEstimate(child.cardinality,
                            child.work + child.cardinality * TUPLE_COST,
                            bound=child.bound)

    def _estimate_product(self, expression: Expression) -> CostEstimate:
        left = self.estimate(expression.children[0])
        right = self.estimate(expression.children[1])
        pairs = left.cardinality * right.cardinality
        return CostEstimate(pairs, left.work + right.work + pairs,
                            bound=left.bound * right.bound)

    def _estimate_join(self, expression: NaturalJoin) -> CostEstimate:
        pairs = self._estimate_product(expression)
        return CostEstimate(pairs.cardinality * self._join_selectivity(expression),
                            pairs.work, bound=pairs.bound)

    def _estimate_multiway_join(self, expression: MultiwayJoin) -> CostEstimate:
        estimates = [self.estimate(child) for child in expression.children]
        work = sum(e.work for e in estimates)
        cardinality = estimates[0].cardinality
        bound = estimates[0].bound
        for estimate in estimates[1:]:
            work += cardinality
            cardinality = max(cardinality, estimate.cardinality)
            bound *= max(1.0, estimate.bound)
        return CostEstimate(cardinality, work, bound=bound)

    def _estimate_union(self, expression: Union) -> CostEstimate:
        left = self.estimate(expression.children[0])
        right = self.estimate(expression.children[1])
        return CostEstimate(left.cardinality + right.cardinality,
                            left.work + right.work + left.cardinality + right.cardinality,
                            bound=left.bound + right.bound)

    def _estimate_difference(self, expression: Difference) -> CostEstimate:
        left = self.estimate(expression.children[0])
        right = self.estimate(expression.children[1])
        return CostEstimate(left.cardinality, left.work + right.work + left.cardinality,
                            bound=left.bound)

    def _estimate_aggregate(self, expression: Aggregate) -> CostEstimate:
        child = self.estimate(expression.child)
        bound = child.bound if expression.group_by else 1.0
        groups = self._group_count(expression, child)
        return CostEstimate(min(groups, bound),
                            child.work + child.cardinality * TUPLE_COST,
                            bound=bound)

    def _estimate_sort(self, expression: Sort) -> CostEstimate:
        child = self.estimate(expression.child)
        n = max(child.cardinality, 1.0)
        return CostEstimate(child.cardinality,
                            child.work + child.cardinality * log2(max(n, 2.0))
                            * TUPLE_COST,
                            bound=child.bound)

    def _estimate_limit(self, expression: Limit) -> CostEstimate:
        # The planner fuses Limit(Sort(E)) into one bounded sort, so price
        # the fused pair off the sort's input: per input tuple log₂ of the
        # rows it is ranked among, the ~k held or all n when n is smaller.
        k = float(expression.count)
        inner = expression.child
        base = self.estimate(inner.child if isinstance(inner, Sort) else inner)
        n = max(base.cardinality, 1.0)
        per_tuple = min(log2(max(k, 2.0)), log2(max(n, 2.0)))
        return CostEstimate(min(k, base.cardinality),
                            base.work + base.cardinality * per_tuple * TUPLE_COST,
                            bound=min(k, base.bound))

    def _estimate_subquery_extension(self, expression: SubqueryExtension) -> CostEstimate:
        child = self.estimate(expression.child)
        subquery = self.estimate(expression.subquery)
        return CostEstimate(child.cardinality,
                            child.work + subquery.work + child.cardinality * TUPLE_COST,
                            bound=child.bound)

    def _group_count(self, expression: Aggregate, child: CostEstimate) -> float:
        """Estimated number of groups, from variant-tag frequencies and NDVs.

        Flexible relations give a sharper estimate than the classic NDV
        product: the variant-tag frequency table says which *subset* of the
        group-by attributes each tuple actually carries, and tuples carrying
        different subsets can never share a group (absent routes to ⊥ per
        attribute).  So the estimate sums per presence-pattern: each pattern
        contributes at most the NDV product over its *present* group
        attributes (1 for the all-⊥ pattern), capped by the pattern's own row
        count scaled to the estimated input cardinality.
        """
        names = expression.group_by
        if not names:
            return 1.0
        statistics = self.base_statistics(expression.child)
        if statistics is None or not statistics.row_count:
            return max(1.0, child.cardinality * DEFAULT_GROUP_FRACTION)
        fraction = min(1.0, child.cardinality / float(statistics.row_count))
        group_set = set(names)
        patterns: Dict[frozenset, int] = {}
        for combination, count in statistics.variant_counts.items():
            pattern = frozenset(combination) & group_set
            patterns[pattern] = patterns.get(pattern, 0) + count
        if not patterns:
            return max(1.0, child.cardinality * DEFAULT_GROUP_FRACTION)
        groups = 0.0
        for pattern, count in patterns.items():
            distinct = 1.0
            for name in pattern:
                distinct *= float(max(1, statistics.ndv(name)))
            groups += min(count * fraction, distinct)
        return max(1.0, min(groups, child.cardinality))

    def _chain_cardinality(self, expression: Expression) -> Optional[float]:
        """Statistics-based output cardinality of a selection/guard chain.

        The whole chain of selections and type guards down to the base relation
        is combined into one conjunction and estimated against the base table in
        a single step, so shared presence requirements (a guard plus a
        comparison on the same attribute, correlated variant attributes) are
        priced once instead of once per node.  ``None`` when the chain does not
        end in a base relation with statistics.
        """
        parts = []
        node = expression
        while isinstance(node, (Selection, TypeGuardNode, Projection)):
            if isinstance(node, Selection):
                parts.append(node.predicate)
            elif isinstance(node, TypeGuardNode):
                parts.append(PresencePredicate(node.attributes))
            node = node.children[0]
        if not isinstance(node, RelationRef):
            return None
        statistics = self.table_statistics(node.name)
        if statistics is None:
            return None
        combined = parts[0] if len(parts) == 1 else And(*parts)
        return (_base_cardinality(self.source, node.name)
                * statistics.selectivity(combined.substitute(self.params)))

    def estimate_width(self, expression: Expression) -> float:
        """Estimated average tuple width (attribute count) of the result.

        Base relations answer from the variant-tag frequency table of their
        statistics — the live shape counts: the *actual* average attributes per
        tuple, which for variant records is well below the universe size —
        falling back to the declared scheme's attribute universe and finally to
        :data:`DEFAULT_TUPLE_WIDTH`.  Joins add their input widths minus the
        shared join attributes; reshaping operators adjust by what they add or
        drop.  The physical planner feeds this into the adaptive batch-size
        decision — wide tuples get smaller batches.
        """
        width = dispatch(WIDTHS, expression)
        return DEFAULT_TUPLE_WIDTH if width is None else width(self, expression)

    def _relation_width(self, expression: RelationRef) -> float:
        statistics = self.table_statistics(expression.name)
        if statistics is not None:
            width = statistics.average_width()
            if width > 0.0:
                return width
        declared = self.source.universe(expression.name)
        return float(len(declared)) if declared else DEFAULT_TUPLE_WIDTH

    def _first_input_width(self, expression: Expression) -> float:
        """σ, τ, ρ, ordering and the difference: the (first) input's width."""
        return self.estimate_width(expression.children[0])

    def _widest_input_width(self, expression: Expression) -> float:
        return max(self.estimate_width(child) for child in expression.children)

    def _join_width(self, expression: Expression) -> float:
        """⋈ and the multiway join: the inputs' widths, ``on`` counted once."""
        width = sum(self.estimate_width(child) for child in expression.children)
        if expression.on is not None:
            width -= float(len(expression.on) * (len(expression.children) - 1))
        return max(width, 1.0)

    def _join_selectivity(self, expression: NaturalJoin) -> float:
        """Selectivity of a natural join over the pair count.

        Precedence per join attribute: an **observed** edge selectivity from
        the feedback store (recorded off an executed mis-estimated join over
        the same attribute and carrier tables) beats the NDV-overlap estimate;
        statistics answer for the rest; any attribute neither can price drops
        the whole join to :data:`DEFAULT_SELECTIVITY`.
        """
        left_stats = self.base_statistics(expression.left)
        right_stats = self.base_statistics(expression.right)
        if expression.on is not None:
            attributes = [a.name for a in expression.on]
        elif left_stats is not None and right_stats is not None:
            # The natural-join attributes are data-dependent; the observed
            # attribute universes of both sides predict them.
            attributes = sorted(set(left_stats.attribute_names())
                                & set(right_stats.attribute_names()))
            if not attributes:
                # Disjoint attribute spaces degenerate to a cartesian product.
                return 1.0
        else:
            return DEFAULT_SELECTIVITY
        selectivity = 1.0
        for name in attributes:
            observed = self.observed_edge_selectivity(name, expression.children)
            if observed is not None:
                selectivity *= observed
            elif left_stats is not None and right_stats is not None:
                selectivity *= join_selectivity(left_stats, right_stats, [name])
            else:
                return DEFAULT_SELECTIVITY
        return selectivity


def measured_cost(expression: Expression, source) -> ExecutionStats:
    """Evaluate the expression and return the exact work counters."""
    evaluator = Evaluator(source)
    return evaluator.evaluate(expression).stats


#: node class -> how :class:`CostModel` estimates its cardinality and work
ESTIMATORS = {
    EmptyRelation: lambda model, expression: CostEstimate(0.0, 0.0),
    RelationRef: CostModel._estimate_relation,
    Selection: CostModel._estimate_selection,
    TypeGuardNode: lambda model, expression: model._estimate_chain(
        expression, DEFAULT_GUARD_SELECTIVITY),
    Projection: CostModel._estimate_reshaping,
    Extension: CostModel._estimate_reshaping,
    Rename: CostModel._estimate_reshaping,
    Product: CostModel._estimate_product,
    NaturalJoin: CostModel._estimate_join,
    MultiwayJoin: CostModel._estimate_multiway_join,
    Union: CostModel._estimate_union,
    OuterUnion: CostModel._estimate_union,
    Difference: CostModel._estimate_difference,
    Aggregate: CostModel._estimate_aggregate,
    Sort: CostModel._estimate_sort,
    Limit: CostModel._estimate_limit,
    SubqueryExtension: CostModel._estimate_subquery_extension,
}

#: node class -> how :meth:`CostModel.estimate_width` derives its tuple width
#: (a node without an entry is :data:`DEFAULT_TUPLE_WIDTH` wide)
WIDTHS = {
    EmptyRelation: lambda model, expression: 0.0,
    RelationRef: CostModel._relation_width,
    Selection: CostModel._first_input_width,
    TypeGuardNode: CostModel._first_input_width,
    Projection: lambda model, expression: min(model.estimate_width(expression.child),
                                              float(len(expression.attributes))),
    Extension: lambda model, expression: model.estimate_width(expression.child) + 1.0,
    Rename: CostModel._first_input_width,
    NaturalJoin: CostModel._join_width,
    MultiwayJoin: CostModel._join_width,
    Product: lambda model, expression: (model.estimate_width(expression.left)
                                        + model.estimate_width(expression.right)),
    Union: CostModel._widest_input_width,
    OuterUnion: CostModel._widest_input_width,
    Difference: CostModel._first_input_width,
    Aggregate: lambda model, expression: float(len(expression.group_by)
                                               + len(expression.specs)),
    Sort: CostModel._first_input_width,
    Limit: CostModel._first_input_width,
    SubqueryExtension: lambda model, expression: (
        model.estimate_width(expression.child) + 1.0),
}
