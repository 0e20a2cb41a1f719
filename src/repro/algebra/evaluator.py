"""Evaluation of algebra expressions over flexible relations.

The :class:`Evaluator` walks an expression tree bottom-up and produces the resulting
set of tuples together with :class:`ExecutionStats` — operator-level counters
(tuples scanned, predicate evaluations, guard checks, join pairs considered) that
the optimizer benchmarks use as a machine-independent cost measure.

Base relations are resolved against a *source*: either a mapping
``{name: FlexibleRelation}`` or any object exposing ``relation(name)`` (such as
:class:`repro.engine.Database`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.algebra.analytic import (
    AggregateAccumulator,
    group_key,
    group_values,
    top_k_rows,
)
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
from repro.errors import AlgebraError
from repro.model.attributes import AttributeSet
from repro.model.relation import FlexibleRelation
from repro.model.tuples import FlexTuple


class ExecutionStats:
    """Counters accumulated while evaluating an expression tree.

    The counters are shared between the naive evaluator and the physical engine
    (:mod:`repro.exec`), with the following semantics:

    ``tuples_scanned``
        Tuples read from a base relation plus tuples passed through a per-tuple
        reshaping operator (projection, extension, rename, union, difference).
        The analytic operators follow the same convention: aggregation, sort,
        limit and subquery extension each add their *input* cardinality (a
        fused physical top-k therefore counts its input once, while the
        logical ``Limit(Sort(E))`` pair counts it once per node).
    ``predicate_evaluations``
        Selection predicates evaluated against a tuple (one per tuple per σ).
    ``guard_checks``
        Type-guard membership tests (``attrs ⊆ attr(t)``), including the
        guard-aware partitioning checks of hash-based joins.
    ``join_pairs_considered``
        Pairs of input tuples whose combination the join operator actually
        *examined*.  Nested-loop operators (cartesian product, the naive
        ``NaturalJoin``) examine every pair, contributing ``|L| × |R|`` per
        stage — a chain of naive natural joins therefore sums ``|L| × |R|``
        over its stages.  Hash-based operators (``MultiwayJoin``, the physical
        ``HashJoin``) only examine pairs that share a hash bucket, so they
        contribute the sum of per-probe bucket sizes.  Probes that miss every
        bucket (or tuples partitioned out by a guard) contribute zero — the
        counter measures pairwise work performed, not probes attempted.  The
        physical ``IndexLookupJoin`` counts the index partners that agree on
        every join attribute and pass its inner side's guard and predicate —
        the pairs a ``HashJoin`` over that filtered inner examines; checking
        a partner against that filter counts as the scan's checks do (one
        ``guard_checks`` a partner, one ``predicate_evaluations`` a partner
        past the guard), and no partner counts as ``tuples_scanned``.
    ``operators_executed`` / ``operator_counts``
        One increment per operator node (logical or physical) that ran.

    The physical operators of :mod:`repro.exec.operators` maintain the same
    counters in bulk (``+= len(batch)`` instead of ``+= 1`` per tuple) — only
    the bookkeeping is amortized.  Plan *reuse* is not counted here: the physical
    executor's plan-cache hits and misses live on
    :attr:`repro.exec.PhysicalExecutor.cache_hits` /
    :attr:`~repro.exec.PhysicalExecutor.cache_misses` (rendered by
    ``Database.explain``), because a cache hit saves planning work, not
    execution work.
    """

    def __init__(self):
        self.tuples_scanned = 0
        self.tuples_produced = 0
        self.predicate_evaluations = 0
        self.guard_checks = 0
        self.join_pairs_considered = 0
        self.operators_executed = 0
        self.operator_counts: Dict[str, int] = {}

    def record_operator(self, name: str) -> None:
        self.operators_executed += 1
        self.operator_counts[name] = self.operator_counts.get(name, 0) + 1

    @property
    def total_work(self) -> int:
        """A single scalar summarizing the work performed (used as the cost measure)."""
        return (
            self.tuples_scanned
            + self.predicate_evaluations
            + self.guard_checks
            + self.join_pairs_considered
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "tuples_scanned": self.tuples_scanned,
            "tuples_produced": self.tuples_produced,
            "predicate_evaluations": self.predicate_evaluations,
            "guard_checks": self.guard_checks,
            "join_pairs_considered": self.join_pairs_considered,
            "operators_executed": self.operators_executed,
            "total_work": self.total_work,
        }

    def __repr__(self) -> str:
        return "ExecutionStats({})".format(self.as_dict())


class EvaluationResult:
    """The tuples produced by an expression plus the execution statistics."""

    def __init__(self, tuples: Set[FlexTuple], stats: ExecutionStats):
        self.tuples = set(tuples)
        self.stats = stats

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, item) -> bool:
        tup = item if isinstance(item, FlexTuple) else FlexTuple(item)
        return tup in self.tuples

    def attribute_combinations(self) -> Set[AttributeSet]:
        return {t.attributes for t in self.tuples}

    def __repr__(self) -> str:
        return "EvaluationResult({} tuples, work={})".format(len(self.tuples), self.stats.total_work)


def _resolve_relation(source, name: str) -> Iterable[FlexTuple]:
    if source is None:
        raise AlgebraError("no relation source given; cannot resolve {!r}".format(name))
    if hasattr(source, "relation"):
        relation = source.relation(name)
    elif isinstance(source, dict):
        try:
            relation = source[name]
        except KeyError:
            raise AlgebraError("unknown relation {!r}".format(name)) from None
    else:
        raise AlgebraError("unsupported relation source {!r}".format(source))
    if isinstance(relation, FlexibleRelation):
        return relation.tuples
    if hasattr(relation, "tuples"):
        tuples = relation.tuples
        return tuples() if callable(tuples) else tuples
    return {t if isinstance(t, FlexTuple) else FlexTuple(t) for t in relation}


class Evaluator:
    """Executes algebra expressions against a source of base relations."""

    def __init__(self, source):
        self.source = source

    def evaluate(self, expression: Expression, stats: Optional[ExecutionStats] = None) -> EvaluationResult:
        """Evaluate ``expression`` and return tuples plus execution statistics."""
        stats = stats if stats is not None else ExecutionStats()
        tuples = self._evaluate(expression, stats)
        stats.tuples_produced = len(tuples)
        return EvaluationResult(tuples, stats)

    # -- dispatch ------------------------------------------------------------------------

    def _evaluate(self, expression: Expression, stats: ExecutionStats) -> Set[FlexTuple]:
        stats.record_operator(expression.operator)
        if isinstance(expression, EmptyRelation):
            return set()
        if isinstance(expression, RelationRef):
            return self._eval_relation(expression, stats)
        if isinstance(expression, Selection):
            return self._eval_selection(expression, stats)
        if isinstance(expression, TypeGuardNode):
            return self._eval_guard(expression, stats)
        if isinstance(expression, Projection):
            return self._eval_projection(expression, stats)
        if isinstance(expression, Product):
            return self._eval_product(expression, stats)
        if isinstance(expression, (OuterUnion, Union)):
            return self._eval_union(expression, stats)
        if isinstance(expression, Difference):
            return self._eval_difference(expression, stats)
        if isinstance(expression, Extension):
            return self._eval_extension(expression, stats)
        if isinstance(expression, Rename):
            return self._eval_rename(expression, stats)
        if isinstance(expression, MultiwayJoin):
            return self._eval_multiway_join(expression, stats)
        if isinstance(expression, NaturalJoin):
            return self._eval_natural_join(expression, stats)
        if isinstance(expression, Aggregate):
            return self._eval_aggregate(expression, stats)
        if isinstance(expression, Sort):
            return self._eval_sort(expression, stats)
        if isinstance(expression, Limit):
            return self._eval_limit(expression, stats)
        if isinstance(expression, SubqueryExtension):
            return self._eval_subquery_extension(expression, stats)
        raise AlgebraError("cannot evaluate expression node {!r}".format(expression))

    # -- operator implementations ------------------------------------------------------------

    def _eval_relation(self, node: RelationRef, stats: ExecutionStats) -> Set[FlexTuple]:
        tuples = set(_resolve_relation(self.source, node.name))
        stats.tuples_scanned += len(tuples)
        return tuples

    def _eval_selection(self, node: Selection, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        result = set()
        for tup in child:
            stats.predicate_evaluations += 1
            if node.predicate.evaluate(tup):
                result.add(tup)
        return result

    def _eval_guard(self, node: TypeGuardNode, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        result = set()
        for tup in child:
            stats.guard_checks += 1
            if tup.is_defined_on(node.attributes):
                result.add(tup)
        return result

    def _eval_projection(self, node: Projection, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        result = set()
        for tup in child:
            stats.tuples_scanned += 1
            projected = tup.project_existing(node.attributes)
            if len(projected):
                result.add(projected)
        return result

    def _eval_product(self, node: Product, stats: ExecutionStats) -> Set[FlexTuple]:
        left = self._evaluate(node.left, stats)
        right = self._evaluate(node.right, stats)
        result = set()
        for left_tuple in left:
            for right_tuple in right:
                stats.join_pairs_considered += 1
                result.add(left_tuple.merge(right_tuple))
        return result

    def _eval_union(self, node: Union, stats: ExecutionStats) -> Set[FlexTuple]:
        left = self._evaluate(node.left, stats)
        right = self._evaluate(node.right, stats)
        stats.tuples_scanned += len(left) + len(right)
        return left | right

    def _eval_difference(self, node: Difference, stats: ExecutionStats) -> Set[FlexTuple]:
        left = self._evaluate(node.left, stats)
        right = self._evaluate(node.right, stats)
        stats.tuples_scanned += len(left)
        return left - right

    def _eval_extension(self, node: Extension, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        result = set()
        for tup in child:
            stats.tuples_scanned += 1
            result.add(tup.extend(**{node.attribute: node.value}))
        return result

    def _eval_rename(self, node: Rename, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        result = set()
        for tup in child:
            stats.tuples_scanned += 1
            renamed = {node.mapping.get(name, name): value for name, value in tup.items()}
            result.add(FlexTuple(renamed))
        return result

    def _eval_natural_join(self, node: NaturalJoin, stats: ExecutionStats) -> Set[FlexTuple]:
        left = self._evaluate(node.left, stats)
        right = self._evaluate(node.right, stats)
        if node.on is not None:
            shared = node.on
        else:
            left_attrs = AttributeSet()
            for tup in left:
                left_attrs = left_attrs | tup.attributes
            right_attrs = AttributeSet()
            for tup in right:
                right_attrs = right_attrs | tup.attributes
            shared = left_attrs & right_attrs
        result = set()
        for left_tuple in left:
            for right_tuple in right:
                stats.join_pairs_considered += 1
                if not (left_tuple.is_defined_on(shared) and right_tuple.is_defined_on(shared)):
                    continue
                if all(left_tuple[a] == right_tuple[a] for a in shared):
                    result.add(left_tuple.merge(right_tuple))
        return result

    def _eval_aggregate(self, node: Aggregate, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        stats.tuples_scanned += len(child)
        accumulator = AggregateAccumulator(node.specs)
        groups: Dict[object, List] = {}
        names = node.group_by
        for tup in child:
            values = tup._values
            key = group_key(values, names)
            states = groups.get(key)
            if states is None:
                states = groups[key] = accumulator.new_state()
            accumulator.update(states, values)
        if not groups and not names:
            # Global aggregation over empty input: one row of empty aggregates.
            out = accumulator.empty_result()
            return {FlexTuple(out)} if out else set()
        result = set()
        for key, states in groups.items():
            out = group_values(key, names)
            out.update(accumulator.finalize(states))
            if out:
                result.add(FlexTuple(out))
        return result

    def _eval_sort(self, node: Sort, stats: ExecutionStats) -> Set[FlexTuple]:
        # Results are sets, so an order annotation is the identity here; its keys
        # take effect under a Limit (see _eval_limit).
        child = self._evaluate(node.child, stats)
        stats.tuples_scanned += len(child)
        return child

    def _eval_limit(self, node: Limit, stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        stats.tuples_scanned += len(child)
        keys = node.child.keys if isinstance(node.child, Sort) else ()
        return set(top_k_rows(child, node.count, keys,
                              key_of=lambda tup: tup._values))

    def _eval_subquery_extension(self, node: SubqueryExtension,
                                 stats: ExecutionStats) -> Set[FlexTuple]:
        child = self._evaluate(node.child, stats)
        scalar = self._evaluate(node.subquery, stats)
        stats.tuples_scanned += len(child)
        if not scalar:
            return set(child)  # empty subquery: the attribute stays absent
        if len(scalar) > 1:
            raise AlgebraError(
                "scalar subquery for {!r} produced {} tuples".format(
                    node.attribute, len(scalar)))
        (row,) = scalar
        if len(row) != 1:
            raise AlgebraError(
                "scalar subquery for {!r} produced a tuple with {} attributes".format(
                    node.attribute, len(row)))
        (value,) = row._values.values()
        return {tup.extend(**{node.attribute: value}) for tup in child}

    def _eval_multiway_join(self, node: MultiwayJoin, stats: ExecutionStats) -> Set[FlexTuple]:
        current = self._evaluate(node.inputs[0], stats)
        for child in node.inputs[1:]:
            fragment = self._evaluate(child, stats)
            index: Dict[tuple, List[FlexTuple]] = {}
            for tup in fragment:
                if tup.is_defined_on(node.on):
                    index.setdefault(tuple(tup[a] for a in node.on), []).append(tup)
            merged = set()
            for tup in current:
                if not tup.is_defined_on(node.on):
                    merged.add(tup)
                    continue
                partners = index.get(tuple(tup[a] for a in node.on), [])
                # Count the pairs actually examined (the bucket size), matching the
                # hash-join semantics documented on ExecutionStats; probes that miss
                # contribute nothing, unlike a nested-loop chain which would count
                # |current| × |fragment| here.
                stats.join_pairs_considered += len(partners)
                if not partners:
                    merged.add(tup)
                    continue
                for partner in partners:
                    merged.add(tup.merge(partner))
            current = merged
        return current
