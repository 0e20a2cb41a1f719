"""Physical operators: the volcano/batch execution layer.

Every operator pulls *batches* (lists) of :class:`~repro.model.tuples.FlexTuple`
from its children and yields batches downstream, so large intermediate results are
never forced into a single Python collection unless an algorithm genuinely needs
materialization (hash-join build sides, difference right sides, shared-attribute
discovery for natural joins over heterogeneous inputs).

Operator semantics mirror the naive set evaluator in
:mod:`repro.algebra.evaluator` exactly — the differential tests in
``tests/test_exec_parity.py`` enforce tuple-level equality — but the algorithms
differ:

* :class:`Scan` applies pushed-down selections and type guards while reading, and
  can answer equality predicates from the engine's hash indexes instead of reading
  the whole relation;
* :class:`HashJoin` replaces the evaluator's nested loop with build/probe on the
  natural-join attributes, with *guard-aware partitioning*: variant records that
  lack a join attribute are partitioned out up front (they can never join) and
  counted as guard checks rather than join pairs;
* :class:`MergeUnion` / :class:`DifferenceOp` stream one side against a
  materialized other side.

Work counters are written into the shared
:class:`~repro.algebra.evaluator.ExecutionStats` with the same meaning the
evaluator gives them (see its docstring for the counter semantics), so naive and
physical costs are directly comparable.  Each operator additionally records
rows-in/rows-out in the :class:`~repro.exec.context.OperatorStats` it registers
with the :class:`~repro.exec.context.ExecutionContext`.

Every operator's output batch stream contains each distinct tuple exactly once
(set semantics per operator, as in the evaluator); operators therefore never need
to re-deduplicate their inputs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.analytic import (
    AggregateAccumulator,
    AggregateSpec,
    CompiledOrder,
    SortKey,
    group_key,
    group_values,
)
from repro.algebra.evaluator import _resolve_relation
from repro.algebra.predicates import Parameter, Predicate
from repro.errors import AlgebraError
from repro.exec.context import ExecutionContext, OperatorStats, sampled_size
from repro.model.attributes import AttributeSet, attrset
from repro.model.tuples import FlexTuple

Batch = List[FlexTuple]


class PhysicalOperator:
    """Base class of every physical plan node."""

    #: operator name used in explain output
    name: str = "physical-op"

    #: True on the batch (vectorized) operator forms of :mod:`repro.exec.vectorized`
    vectorized: bool = False

    #: cost-model annotations, set by the physical planner (None on hand-built plans)
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None

    #: cardinality-feedback identity, set by the physical planner (None on
    #: hand-built plans): the structural key of the logical subexpression this
    #: operator was lowered from — under the binding it was planned with, and
    #: ``binding_specific`` when the key contains that binding's values — and
    #: the base tables that subexpression reads (so feedback entries can be
    #: invalidated on DML)
    fingerprint: Optional[tuple] = None
    binding_specific: bool = False
    feedback_tables: Optional[frozenset] = None

    @property
    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def label(self) -> str:
        """One-line description used in explain output and operator stats."""
        return self.name

    @property
    def plan_label(self) -> str:
        """:meth:`label`, formatted once (a planned operator never changes)."""
        label = self.__dict__.get("_plan_label")
        if label is None:
            label = self.__dict__["_plan_label"] = self.label()
        return label

    def run(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Start execution: register stats (preorder) and return the batch stream.

        With ``ctx.timing`` (the default) the operator's *inclusive* wall time
        is accumulated into its :class:`OperatorStats`: the ``_generate`` call
        itself is timed — operators with eager setup (hash-join build sides,
        multiway-join drains, difference/product materialization) do real work
        there — and each batch pulled from the returned stream adds the time
        it took to produce.  Two clock reads per batch, nothing per tuple.
        """
        ctx.stats.record_operator(self.name)
        op_stats = ctx.register_operator(self.plan_label)
        child_streams = tuple(child.run(ctx) for child in self.children)
        if not ctx.timing:
            stream = self._generate(ctx, op_stats, *child_streams)
        else:
            started = perf_counter()
            stream = self._generate(ctx, op_stats, *child_streams)
            op_stats.wall_seconds += perf_counter() - started
            stream = self._timed_stream(op_stats, stream)
        if ctx.governor is not None:
            stream = self._governed_stream(ctx.governor, stream)
        return stream

    @staticmethod
    def _timed_stream(op: OperatorStats, stream: Iterator[Batch]) -> Iterator[Batch]:
        """Per-batch wall-clock accounting around an operator's output stream."""
        while True:
            started = perf_counter()
            try:
                batch = next(stream)
            except StopIteration:
                op.wall_seconds += perf_counter() - started
                return
            op.wall_seconds += perf_counter() - started
            yield batch

    @staticmethod
    def _governed_stream(governor, stream: Iterator[Batch]) -> Iterator[Batch]:
        """Cooperative cancellation around an operator's output stream.

        One ``governor.check()`` before any work starts (the stream's eager
        setup — hash builds, sorts — happens on the first ``next()``) and one
        before every batch is handed downstream; a cancel or expired deadline
        therefore unwinds the whole plan within one operator boundary.  The
        wrapper sits *outside* the timed stream so boundary checks are counted
        identically with timing on or off.
        """
        governor.check()
        for batch in stream:
            governor.check()
            yield batch

    def _generate(self, ctx: ExecutionContext, op: OperatorStats, *children) -> Iterator[Batch]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the physical plan.

        Planner-produced plans carry cost-model annotations which are rendered
        as ``est_rows`` / ``est_cost`` columns per node.
        """
        line = "  " * indent + self.label()
        if self.vectorized:
            line += "  [batch]"
        if self.estimated_rows is not None:
            line += "  [est_rows={:.1f}".format(self.estimated_rows)
            if self.estimated_cost is not None:
                line += " est_cost={:.1f}".format(self.estimated_cost)
            line += "]"
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.label()

    # -- helpers shared by the concrete operators --------------------------------------

    @staticmethod
    def _rebatch(ctx: ExecutionContext, op: OperatorStats,
                 tuples: Iterable[FlexTuple]) -> Iterator[Batch]:
        """Pack a tuple stream into batches of ``ctx.batch_size``."""
        batch: Batch = []
        for tup in tuples:
            batch.append(tup)
            if len(batch) >= ctx.batch_size:
                op.rows_out += len(batch)
                op.batches_out += 1
                yield batch
                batch = []
        if batch:
            op.rows_out += len(batch)
            op.batches_out += 1
            yield batch

    @staticmethod
    def _materialize(ctx: ExecutionContext, op: OperatorStats,
                     stream: Iterator[Batch]) -> Set[FlexTuple]:
        """Drain a child's batch stream into a set.

        A materialization is a build boundary: the drained set is the
        operator's held state, so its sampled size feeds the ``peak_bytes``
        memory accounting (one :func:`sampled_size` call per drain, never per
        tuple).  Under a memory budget the size is additionally checked per
        batch, so an oversized build fails fast mid-drain instead of after
        the damage is done; materializations without a spill algorithm always
        fail fast (``MemoryBudgetExceeded``), spilling or not.
        """
        result: Set[FlexTuple] = set()
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        for batch in stream:
            op.rows_in += len(batch)
            result.update(batch)
            if governed:
                ctx.enforce_memory(op, sampled_size(result))
        op.note_memory(sampled_size(result))
        return result


class EmptyOp(PhysicalOperator):
    """Produces no tuples (the physical form of the optimizer's ∅ leaf)."""

    name = "empty"

    def _generate(self, ctx, op):
        op.invocations += 1
        return
        yield  # pragma: no cover — makes this a generator


class Scan(PhysicalOperator):
    """Read a base relation, applying pushed-down guards and selections inline.

    ``equalities`` are the attribute→value bindings implied by the pushed
    predicate (a value may be a parameter: the probe takes it from the
    execution's binding); when the relation source exposes a hash index
    covering a subset of
    them (``index_for``), the scan reads only the matching bucket instead of the
    whole relation.  The full predicate is still applied to every tuple read, so
    an index never changes the result — only how many tuples are touched.
    """

    name = "scan"

    def __init__(self, relation: str, predicate: Optional[Predicate] = None,
                 guard: Optional[AttributeSet] = None,
                 equalities: Optional[Dict[str, object]] = None):
        self.relation = relation
        self.predicate = predicate
        self.guard = attrset(guard) if guard is not None and len(attrset(guard)) else None
        if equalities is None and predicate is not None:
            equalities = predicate.implied_equalities(parameters=True)
        self.equalities = dict(equalities or {})

    def label(self) -> str:
        parts = [self.relation]
        if self.predicate is not None:
            parts.append("σ[{!r}]".format(self.predicate))
        if self.guard is not None:
            parts.append("guard[{}]".format(self.guard))
        return "scan[{}]".format(", ".join(parts))

    def _pick_index(self, ctx: ExecutionContext):
        """The (index, probe) pair answering the pushed equalities, if any."""
        if not (ctx.use_indexes and self.equalities):
            return None
        if not hasattr(ctx.source, "relation"):
            return None
        try:
            table = ctx.source.relation(self.relation)
        except Exception:
            return None
        index_for = getattr(table, "index_for", None)
        if index_for is None:
            return None
        index = index_for(self.equalities.keys())
        if index is None:
            return None
        probe = {a.name: self.equalities[a.name] for a in index.attributes}
        for name, value in probe.items():
            if value.__class__ is Parameter:
                probe[name] = ctx.params[value.slot]
        try:
            hash(tuple(probe.values()))
        except TypeError:
            # Unhashable comparison constant (e.g. a list): no bucket can hold it,
            # but the predicate may still be satisfiable elsewhere — full scan.
            return None
        return index, probe

    def _generate(self, ctx, op):
        op.invocations += 1
        picked = self._pick_index(ctx)
        if picked is not None:
            index, probe = picked
            tuples: Iterable[FlexTuple] = index.lookup(probe)
        else:
            tuples = _resolve_relation(ctx.source, self.relation)
        predicate = self.predicate
        if predicate is not None:
            predicate = predicate.substitute(ctx.params)

        def emit() -> Iterator[FlexTuple]:
            for tup in tuples:
                ctx.stats.tuples_scanned += 1
                op.rows_in += 1
                if self.guard is not None:
                    ctx.stats.guard_checks += 1
                    if not tup.is_defined_on(self.guard):
                        continue
                if predicate is not None:
                    ctx.stats.predicate_evaluations += 1
                    if not predicate.evaluate(tup):
                        continue
                yield tup

        return self._rebatch(ctx, op, emit())

    # -- pushdown helpers used by the physical planner ----------------------------------

    def with_predicate(self, predicate: Predicate) -> "Scan":
        """A copy (of the same scan class, row or batch) with ``predicate``
        conjoined to the already-pushed predicate."""
        from repro.algebra.predicates import And

        combined = predicate if self.predicate is None else And(self.predicate, predicate)
        return type(self)(self.relation, predicate=combined, guard=self.guard)

    def with_guard(self, attributes) -> "Scan":
        """A copy (of the same scan class) with ``attributes`` added to the guard."""
        guard = attrset(attributes) if self.guard is None else self.guard | attrset(attributes)
        return type(self)(self.relation, predicate=self.predicate, guard=guard,
                          equalities=self.equalities)


class FilterOp(PhysicalOperator):
    """σ — keep the tuples satisfying the predicate (when pushdown was impossible)."""

    name = "filter"

    def __init__(self, child: PhysicalOperator, predicate: Predicate):
        self.child = child
        self.predicate = predicate

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return "filter[{!r}]".format(self.predicate)

    def _generate(self, ctx, op, child):
        op.invocations += 1
        predicate = self.predicate.substitute(ctx.params)

        def emit():
            for batch in child:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.predicate_evaluations += 1
                    if predicate.evaluate(tup):
                        yield tup

        return self._rebatch(ctx, op, emit())


class GuardOp(PhysicalOperator):
    """An explicit type guard: keep tuples defined on the guarded attributes."""

    name = "guard"

    def __init__(self, child: PhysicalOperator, attributes):
        self.child = child
        self.attributes = attrset(attributes)

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return "guard[{}]".format(self.attributes)

    def _generate(self, ctx, op, child):
        op.invocations += 1

        def emit():
            for batch in child:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.guard_checks += 1
                    if tup.is_defined_on(self.attributes):
                        yield tup

        return self._rebatch(ctx, op, emit())


class ProjectOp(PhysicalOperator):
    """π — restrict tuples to the attributes they possess, deduplicating on the fly."""

    name = "project"

    def __init__(self, child: PhysicalOperator, attributes):
        self.child = child
        self.attributes = attrset(attributes)

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return "project[{}]".format(self.attributes)

    def _generate(self, ctx, op, child):
        op.invocations += 1

        def emit():
            seen: Set[FlexTuple] = set()
            for batch in child:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.tuples_scanned += 1
                    projected = tup.project_existing(self.attributes)
                    if len(projected) and projected not in seen:
                        seen.add(projected)
                        yield projected

        return self._rebatch(ctx, op, emit())


class ExtendOp(PhysicalOperator):
    """ε — extend every tuple by a constant tag attribute."""

    name = "extend"

    def __init__(self, child: PhysicalOperator, attribute: str, value):
        self.child = child
        self.attribute = attribute
        self.value = value

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return "extend[{}:{!r}]".format(self.attribute, self.value)

    def _generate(self, ctx, op, child):
        op.invocations += 1

        def emit():
            for batch in child:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.tuples_scanned += 1
                    yield tup.extend(**{self.attribute: self.value})

        return self._rebatch(ctx, op, emit())


class RenameOp(PhysicalOperator):
    """ρ — rename attributes (deduplicates, since renames can collapse tuples)."""

    name = "rename"

    def __init__(self, child: PhysicalOperator, mapping: Dict[str, str]):
        self.child = child
        self.mapping = dict(mapping)

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return "rename[{}]".format(self.mapping)

    def _generate(self, ctx, op, child):
        op.invocations += 1

        def emit():
            seen: Set[FlexTuple] = set()
            for batch in child:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.tuples_scanned += 1
                    renamed = FlexTuple({self.mapping.get(name, name): value
                                         for name, value in tup.items()})
                    if renamed not in seen:
                        seen.add(renamed)
                        yield renamed

        return self._rebatch(ctx, op, emit())


class ProductOp(PhysicalOperator):
    """× — cartesian product; materializes the right side, streams the left."""

    name = "product"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _generate(self, ctx, op, left, right):
        op.invocations += 1
        build = self._materialize(ctx, op, right)

        def emit():
            seen: Set[FlexTuple] = set()
            for batch in left:
                op.rows_in += len(batch)
                for left_tuple in batch:
                    for right_tuple in build:
                        ctx.stats.join_pairs_considered += 1
                        merged = left_tuple.merge(right_tuple)
                        if merged not in seen:
                            seen.add(merged)
                            yield merged

        return self._rebatch(ctx, op, emit())


def _shared_attributes(left: Set[FlexTuple], right: Set[FlexTuple]) -> AttributeSet:
    """The natural-join attributes: attrs appearing on both sides of the data."""
    left_attrs = AttributeSet()
    for tup in left:
        left_attrs = left_attrs | tup.attributes
    right_attrs = AttributeSet()
    for tup in right:
        right_attrs = right_attrs | tup.attributes
    return left_attrs & right_attrs


class NestedLoopJoin(PhysicalOperator):
    """⋈ by nested loops — every pair of input tuples is examined.

    Used by the planner only for small inputs, where the hash-table setup of
    :class:`HashJoin` costs more than it saves.
    """

    name = "nested-loop-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, on=None):
        self.left = left
        self.right = right
        self.on = attrset(on) if on is not None else None

    @property
    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return "nested-loop-join[on={}]".format(self.on if self.on is not None else "shared")

    def _generate(self, ctx, op, left, right):
        op.invocations += 1
        left_set = self._materialize(ctx, op, left)
        right_set = self._materialize(ctx, op, right)
        shared = self.on if self.on is not None else _shared_attributes(left_set, right_set)

        def emit():
            seen: Set[FlexTuple] = set()
            for left_tuple in left_set:
                for right_tuple in right_set:
                    ctx.stats.join_pairs_considered += 1
                    if not (left_tuple.is_defined_on(shared) and right_tuple.is_defined_on(shared)):
                        continue
                    if all(left_tuple[a] == right_tuple[a] for a in shared):
                        merged = left_tuple.merge(right_tuple)
                        if merged not in seen:
                            seen.add(merged)
                            yield merged

        return self._rebatch(ctx, op, emit())


class HashJoin(PhysicalOperator):
    """⋈ by build/probe on the natural-join attribute intersection.

    The right input is the build side (the planner puts the smaller estimated
    input there).  Partitioning is *guard-aware*: variant records not defined on
    every join attribute are set aside during build/probe — they cannot join, so
    they cost one guard check each instead of a join pair per combination.  Only
    pairs that share a hash bucket count as ``join_pairs_considered``, which is
    exactly the work the algorithm performs.
    """

    name = "hash-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, on=None):
        self.left = left
        self.right = right
        self.on = attrset(on) if on is not None else None

    @property
    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return "hash-join[on={}]".format(self.on if self.on is not None else "shared")

    def _generate(self, ctx, op, left, right):
        op.invocations += 1
        if self.on is not None and ctx.spill_budget() is not None:
            # Static join attributes + a budget with spilling allowed: the
            # grace variant below keeps the build bounded.  Data-dependent
            # (shared-attribute) joins have no spill form — both sides must be
            # materialized to even know the key — so they stay on the fail-fast
            # path through _materialize.
            return self._generate_grace(ctx, op, left, right,
                                        ctx.spill_budget())
        right_set = self._materialize(ctx, op, right)
        if self.on is not None:
            # Join attributes known statically: stream the probe side batch by
            # batch, keeping only the build side in memory.
            shared = self.on
            probe_tuples = (tup for batch in left
                            for tup in self._count_batch(op, batch))
        else:
            # Natural join: the shared attributes depend on the data, so the
            # probe side must be materialized to discover them.
            left_set = self._materialize(ctx, op, left)
            shared = _shared_attributes(left_set, right_set)
            probe_tuples = iter(left_set)

        buckets: Dict[tuple, List[FlexTuple]] = {}
        for tup in right_set:
            ctx.stats.guard_checks += 1
            if tup.is_defined_on(shared):
                buckets.setdefault(tuple(tup[a] for a in shared), []).append(tup)
        ctx.enforce_memory(op, sampled_size(buckets))

        def emit():
            seen: Set[FlexTuple] = set()
            for left_tuple in probe_tuples:
                ctx.stats.guard_checks += 1
                if not left_tuple.is_defined_on(shared):
                    continue
                partners = buckets.get(tuple(left_tuple[a] for a in shared), ())
                ctx.stats.join_pairs_considered += len(partners)
                for partner in partners:
                    merged = left_tuple.merge(partner)
                    if merged not in seen:
                        seen.add(merged)
                        yield merged

        return self._rebatch(ctx, op, emit())

    def _generate_grace(self, ctx, op, left, right, budget):
        """Grace hash join: both sides hash-partitioned to disk, one
        partition's build buckets in memory at a time.

        The build side is held in memory until the budget trips — a join that
        fits never touches disk and emits exactly what the in-memory path
        emits.  Matching keys land in the same partition on both sides, and a
        merged output tuple determines its join key, so the per-partition
        ``seen`` sets partition the global duplicate space: the union of the
        per-partition outputs is exactly the deduplicated join.  All counters
        (guard checks per input row, pairs per shared bucket) match the
        in-memory algorithm total for total.
        """
        from repro.governor.spill import GracePartitioner

        shared = self.on
        attrs = tuple(shared)
        manager = ctx.governor.spill_manager()

        held: List[FlexTuple] = []
        build_part: Optional[GracePartitioner] = None

        def route_build(tup):
            ctx.stats.guard_checks += 1
            if tup.is_defined_on(shared):
                build_part.add(tuple(tup[a] for a in attrs),
                               (tup._values, hash(tup)))

        for batch in right:
            op.rows_in += len(batch)
            if build_part is None:
                held.extend(batch)
                size = sampled_size(held)
                op.note_memory(size)
                if size > budget:
                    build_part = GracePartitioner(manager, "join-build")
                    for tup in held:
                        route_build(tup)
                    held = []
            else:
                for tup in batch:
                    route_build(tup)

        if build_part is None:
            # Never crossed the budget: plain in-memory build over the drain.
            buckets: Dict[tuple, List[FlexTuple]] = {}
            for tup in held:
                ctx.stats.guard_checks += 1
                if tup.is_defined_on(shared):
                    buckets.setdefault(tuple(tup[a] for a in attrs), []).append(tup)
            op.note_memory(sampled_size(buckets))

            def emit_memory():
                seen: Set[FlexTuple] = set()
                for batch in left:
                    op.rows_in += len(batch)
                    for left_tuple in batch:
                        ctx.stats.guard_checks += 1
                        if not left_tuple.is_defined_on(shared):
                            continue
                        partners = buckets.get(
                            tuple(left_tuple[a] for a in attrs), ())
                        ctx.stats.join_pairs_considered += len(partners)
                        for partner in partners:
                            merged = left_tuple.merge(partner)
                            if merged not in seen:
                                seen.add(merged)
                                yield merged

            return self._rebatch(ctx, op, emit_memory())

        probe_part = GracePartitioner(manager, "join-probe")
        for batch in left:
            op.rows_in += len(batch)
            for tup in batch:
                ctx.stats.guard_checks += 1
                if tup.is_defined_on(shared):
                    probe_part.add(tuple(tup[a] for a in attrs),
                                   (tup._values, hash(tup)))
        build_part.finish()
        probe_part.finish()

        def emit_partitions():
            for index in range(build_part.partitions):
                buckets: Dict[tuple, List[FlexTuple]] = {}
                for key, (values, hash_) in build_part.segment(index):
                    buckets.setdefault(key, []).append(
                        FlexTuple.from_parts(values, hash_))
                # accounting only: grace bounds held state at ~budget + one
                # partition's buckets, it does not re-enforce per partition
                op.note_memory(sampled_size(buckets))
                seen: Set[FlexTuple] = set()
                for key, (values, hash_) in probe_part.segment(index):
                    partners = buckets.get(key, ())
                    ctx.stats.join_pairs_considered += len(partners)
                    if not partners:
                        continue
                    left_tuple = FlexTuple.from_parts(values, hash_)
                    for partner in partners:
                        merged = left_tuple.merge(partner)
                        if merged not in seen:
                            seen.add(merged)
                            yield merged

        return self._rebatch(ctx, op, emit_partitions())

    @staticmethod
    def _count_batch(op: OperatorStats, batch: Batch) -> Batch:
        op.rows_in += len(batch)
        return batch


class IndexLookupJoin(PhysicalOperator):
    """⋈ by probing a maintained hash index of a base relation per outer tuple.

    The statistics-informed planner chooses this operator when the join
    attributes are known statically, the inner side is a base relation whose
    engine-maintained hash index covers (a subset of) them, and the *estimated*
    outer cardinality is small against the inner relation: the inner side is
    then never scanned at all — only the index buckets matching outer tuples are
    read, which is the plan-level payoff of knowing that a rare variant tag
    leaves few outer tuples.  Each bucket partner counts one
    ``join_pairs_considered``; outer tuples lacking a join attribute cost one
    guard check (they can never join).

    Without a usable index at execution time (``use_indexes=False``, or the
    index disappeared), the operator degrades to building the buckets by
    scanning the inner relation once — hash-join behaviour, identical results.
    """

    name = "index-lookup-join"

    def __init__(self, outer: PhysicalOperator, relation: str, on):
        self.outer = outer
        self.relation = relation
        self.on = attrset(on)
        if not self.on:
            raise AlgebraError("an index lookup join needs join attributes")

    @property
    def children(self):
        return (self.outer,)

    def label(self) -> str:
        return "index-lookup-join[{}, on={}]".format(self.relation, self.on)

    def _maintained_index(self, ctx: ExecutionContext):
        """The inner relation's hash index covered by the join attributes, if usable."""
        if not ctx.use_indexes or not hasattr(ctx.source, "relation"):
            return None
        try:
            table = ctx.source.relation(self.relation)
        except Exception:
            return None
        index_for = getattr(table, "index_for", None)
        if index_for is None:
            return None
        return index_for(self.on)

    def _generate(self, ctx, op, outer):
        op.invocations += 1
        index = self._maintained_index(ctx)
        if index is not None:
            probe_attributes = index.attributes
            lookup = index.lookup
        else:
            # Degraded mode: one scan of the inner relation builds the buckets.
            probe_attributes = self.on
            buckets: Dict[tuple, List[FlexTuple]] = {}
            for tup in _resolve_relation(ctx.source, self.relation):
                ctx.stats.tuples_scanned += 1
                ctx.stats.guard_checks += 1
                if tup.is_defined_on(self.on):
                    buckets.setdefault(tuple(tup[a] for a in self.on), []).append(tup)
            ctx.enforce_memory(op, sampled_size(buckets))
            lookup = lambda probe: buckets.get(probe, ())  # noqa: E731

        remaining = self.on - probe_attributes

        def emit():
            seen: Set[FlexTuple] = set()
            for batch in outer:
                op.rows_in += len(batch)
                for outer_tuple in batch:
                    ctx.stats.guard_checks += 1
                    if not outer_tuple.is_defined_on(self.on):
                        continue
                    probe = tuple(outer_tuple[a] for a in probe_attributes)
                    partners = lookup(probe)
                    ctx.stats.join_pairs_considered += len(partners)
                    for partner in partners:
                        if not partner.is_defined_on(remaining):
                            continue
                        if any(partner[a] != outer_tuple[a] for a in remaining):
                            continue
                        merged = outer_tuple.merge(partner)
                        if merged not in seen:
                            seen.add(merged)
                            yield merged

        return self._rebatch(ctx, op, emit())


class MergeUnion(PhysicalOperator):
    """∪ — stream both inputs, emitting each distinct tuple once."""

    name = "merge-union"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _generate(self, ctx, op, left, right):
        op.invocations += 1

        def emit():
            seen: Set[FlexTuple] = set()
            for stream in (left, right):
                for batch in stream:
                    op.rows_in += len(batch)
                    for tup in batch:
                        ctx.stats.tuples_scanned += 1
                        if tup not in seen:
                            seen.add(tup)
                            yield tup

        return self._rebatch(ctx, op, emit())


class OuterUnionOp(MergeUnion):
    """The outer union restoring horizontal decompositions.

    Identical to :class:`MergeUnion` on flexible relations (tuples of different
    shapes coexist without padding); kept as its own node so plans document the
    restoration step, mirroring the logical algebra.
    """

    name = "outer-union"


class DifferenceOp(PhysicalOperator):
    """− — materialize the right side, stream the left side past it."""

    name = "difference"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _generate(self, ctx, op, left, right):
        op.invocations += 1
        exclude = self._materialize(ctx, op, right)

        def emit():
            for batch in left:
                op.rows_in += len(batch)
                for tup in batch:
                    ctx.stats.tuples_scanned += 1
                    if tup not in exclude:
                        yield tup

        return self._rebatch(ctx, op, emit())


class MultiwayJoinOp(PhysicalOperator):
    """The multiway join restoring vertical decompositions, hash-based.

    The first input is the master fragment; each further input is merged into the
    master's tuples on the ``on`` attributes via a hash index.  Master tuples
    without a partner pass through unchanged (variants contribute nothing) — the
    same semantics as the logical operator.
    """

    name = "multiway-join"

    def __init__(self, inputs: Sequence[PhysicalOperator], on):
        inputs = tuple(inputs)
        if len(inputs) < 2:
            raise AlgebraError("a multiway join needs at least two inputs")
        self.inputs = inputs
        self.on = attrset(on)

    @property
    def children(self):
        return self.inputs

    def label(self) -> str:
        return "multiway-join[on={}]".format(self.on)

    def _generate(self, ctx, op, master, *fragments):
        op.invocations += 1
        current = self._materialize(ctx, op, master)
        for stream in fragments:
            fragment = self._materialize(ctx, op, stream)
            buckets: Dict[tuple, List[FlexTuple]] = {}
            for tup in fragment:
                if tup.is_defined_on(self.on):
                    buckets.setdefault(tuple(tup[a] for a in self.on), []).append(tup)
            ctx.enforce_memory(op, sampled_size(buckets))
            merged: Set[FlexTuple] = set()
            for tup in current:
                if not tup.is_defined_on(self.on):
                    merged.add(tup)
                    continue
                partners = buckets.get(tuple(tup[a] for a in self.on), ())
                ctx.stats.join_pairs_considered += len(partners)
                if not partners:
                    merged.add(tup)
                    continue
                for partner in partners:
                    merged.add(tup.merge(partner))
            current = merged
            ctx.enforce_memory(op, sampled_size(current))
        return self._rebatch(ctx, op, iter(current))


def _analytic_label(name: str, parts: Sequence[str]) -> str:
    return "{}[{}]".format(name, ", ".join(parts))


class HashAggregateOp(PhysicalOperator):
    """γ — streaming hash aggregation with variant-aware ⊥-group routing.

    Consumes its input batch by batch, keeping only one accumulator state per
    group (the held state, not the input, is what ``peak_bytes`` accounts).
    Grouping keys, the NULL-vs-absent aggregate matrix and the output shape are
    the shared semantics of :mod:`repro.algebra.analytic` — identical to the
    naive evaluator by construction.  Group outputs are pairwise distinct, so
    no output-side deduplication is needed.
    """

    name = "hash-aggregate"

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 specs: Sequence[AggregateSpec]):
        self.child = child
        self.group_by = tuple(group_by)
        self.specs = tuple(specs)

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        parts = []
        if self.group_by:
            parts.append("group=[{}]".format(", ".join(self.group_by)))
        parts.extend(repr(spec) for spec in self.specs)
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child):
        op.invocations += 1
        accumulator = AggregateAccumulator(self.specs)
        names = self.group_by
        spill_budget = ctx.spill_budget()
        if spill_budget is not None:
            # Partition-and-merge under a budget: the group dict flushes to
            # hash-partitioned segments whenever it outgrows the budget and
            # partitions merge (AggregateAccumulator.merge_states) at
            # finalize time — same outputs, bounded held state.
            from repro.governor.spill import SpillingAggregator

            spiller = SpillingAggregator(
                ctx.governor.spill_manager(), accumulator, names,
                spill_budget, op.note_memory)
            for batch in child:
                count = len(batch)
                op.rows_in += count
                ctx.stats.tuples_scanned += count
                for tup in batch:
                    spiller.add(tup._values)
                spiller.maybe_spill()
            return self._rebatch(
                ctx, op, (FlexTuple(out) for out in spiller.results()))
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        groups: Dict[object, List] = {}
        for batch in child:
            count = len(batch)
            op.rows_in += count
            ctx.stats.tuples_scanned += count
            for tup in batch:
                values = tup._values
                key = group_key(values, names)
                states = groups.get(key)
                if states is None:
                    states = groups[key] = accumulator.new_state()
                accumulator.update(states, values)
            if governed:
                # spilling disabled: fail fast at the batch boundary instead
                # of discovering the blown budget after the whole build
                ctx.enforce_memory(op, sampled_size(groups))
        op.note_memory(sampled_size(groups))
        return self._rebatch(ctx, op, self._finalize(accumulator, groups))

    def _finalize(self, accumulator: AggregateAccumulator,
                  groups: Dict[object, List]) -> Iterator[FlexTuple]:
        if not groups and not self.group_by:
            out = accumulator.empty_result()
            if out:
                yield FlexTuple(out)
            return
        for key, states in groups.items():
            out = group_values(key, self.group_by)
            out.update(accumulator.finalize(states))
            if out:
                yield FlexTuple(out)


class SortOp(PhysicalOperator):
    """τ — full sort with bounded-materialization accounting.

    The input is a set, so the sort itself is result-identity; the operator
    exists as the full-materialization form of ``limit`` lowering (``limit``
    set) and as the physical counterpart of an order annotation.  It holds the
    *entire* input (``note_memory`` of the materialized list — the contrast to
    :class:`TopKOp`'s bounded heap that E18 asserts on ``peak_bytes``).
    """

    name = "sort"

    def __init__(self, child: PhysicalOperator, keys: Sequence[SortKey] = (),
                 limit: Optional[int] = None):
        self.child = child
        self.keys = tuple(keys)
        self.order = CompiledOrder(self.keys)
        self.limit = limit

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        parts = [repr(key) for key in self.keys]
        if self.limit is not None:
            parts.append("limit={}".format(self.limit))
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child):
        op.invocations += 1
        spill_budget = ctx.spill_budget()
        if spill_budget is not None:
            # External merge sort: sorted runs flushed to disk when the held
            # rows outgrow the budget, k-way merged on emit.  Tuples travel
            # as (values, hash) pairs — plain picklable data — and are
            # rebuilt with FlexTuple.from_parts on the way back; the compiled
            # order is total, so the merged stream is deterministic.
            from itertools import islice

            from repro.governor.spill import ExternalSorter

            sorter = ExternalSorter(
                ctx.governor.spill_manager(), self.order,
                budget=spill_budget, note=op.note_memory)
            for batch in child:
                count = len(batch)
                op.rows_in += count
                ctx.stats.tuples_scanned += count
                sorter.extend((tup._values, hash(tup)) for tup in batch)
                sorter.maybe_spill()
            merged = (FlexTuple.from_parts(values, hash_)
                      for values, hash_ in sorter.merged())
            if self.limit is not None:
                merged = islice(merged, self.limit)
            return self._rebatch(ctx, op, merged)
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        rows: List[FlexTuple] = []
        for batch in child:
            count = len(batch)
            op.rows_in += count
            ctx.stats.tuples_scanned += count
            rows.extend(batch)
            if governed:
                ctx.enforce_memory(op, sampled_size(rows))
        op.note_memory(sampled_size(rows))
        order = self.order.argsort([tup._values for tup in rows])
        if self.limit is not None:
            del order[self.limit:]
        return self._rebatch(ctx, op, (rows[position] for position in order))


class TopKOp(PhysicalOperator):
    """λ∘τ — heap-based top-k: the ``count`` smallest rows under ``keys``.

    The fused physical form of ``Limit(Sort(E))`` (and of a bare ``Limit``,
    with empty keys meaning the canonical tuple order).  The input streams
    through :meth:`CompiledOrder.top_k` — at most ``count`` rows are ever
    held, which is the bounded-memory contrast to :class:`SortOp` that
    ``peak_bytes`` records.
    """

    name = "top-k"

    def __init__(self, child: PhysicalOperator, keys: Sequence[SortKey],
                 count: int):
        self.child = child
        self.keys = tuple(keys)
        self.order = CompiledOrder(self.keys)
        self.count = count

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        parts = [repr(key) for key in self.keys]
        parts.append("k={}".format(self.count))
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child):
        op.invocations += 1

        def pairs() -> Iterator[tuple]:
            for batch in child:
                count = len(batch)
                op.rows_in += count
                ctx.stats.tuples_scanned += count
                for tup in batch:
                    yield tup._values, tup

        best = [tup for _, tup in self.order.top_k(pairs(), self.count)]
        ctx.enforce_memory(op, sampled_size(best))
        return self._rebatch(ctx, op, iter(best))


#: sentinel for "the scalar subquery produced no row — extend nothing"
_NO_VALUE = object()


class SubqueryExtendOp(PhysicalOperator):
    """ε — extend every tuple by the scalar result of a subquery plan.

    The child is drained completely *before* the subquery runs and its arity
    is checked, so the order in which errors surface (child errors, then
    subquery errors, then the scalar arity check, then per-tuple extension
    conflicts) matches the naive evaluator exactly — the property the
    differential fuzz harness leans on.  ``run`` is custom for the same
    reason: the base implementation would start both children before any
    stream is drained.
    """

    name = "subquery-extend"

    def __init__(self, child: PhysicalOperator, attribute: str,
                 subquery: PhysicalOperator):
        self.child = child
        self.attribute = attribute
        self.subquery = subquery

    @property
    def children(self):
        return (self.child, self.subquery)

    def label(self) -> str:
        return "{}[{}]".format(self.name, self.attribute)

    def run(self, ctx: ExecutionContext) -> Iterator[Batch]:
        ctx.stats.record_operator(self.name)
        op_stats = ctx.register_operator(self.label())
        if not ctx.timing:
            stream = self._start(ctx, op_stats)
        else:
            started = perf_counter()
            stream = self._start(ctx, op_stats)
            op_stats.wall_seconds += perf_counter() - started
            stream = self._timed_stream(op_stats, stream)
        if ctx.governor is not None:
            stream = self._governed_stream(ctx.governor, stream)
        return stream

    def _start(self, ctx, op):
        op.invocations += 1
        batches = []
        for batch in self.child.run(ctx):
            op.rows_in += len(batch)
            batches.append(batch)
        ctx.enforce_memory(op, sampled_size(batches))
        value = self._scalar_value(ctx, op)
        return self._emit(ctx, op, batches, value)

    def _scalar_value(self, ctx, op):
        result = self._materialize(ctx, op, self.subquery.run(ctx))
        if not result:
            return _NO_VALUE
        if len(result) > 1:
            raise AlgebraError(
                "scalar subquery for {!r} produced {} tuples".format(
                    self.attribute, len(result)))
        (row,) = result
        if len(row) != 1:
            raise AlgebraError(
                "scalar subquery for {!r} produced a tuple with {} attributes".format(
                    self.attribute, len(row)))
        (value,) = row._values.values()
        return value

    def _emit(self, ctx, op, batches, value):
        def emit():
            for batch in batches:
                for tup in batch:
                    ctx.stats.tuples_scanned += 1
                    if value is _NO_VALUE:
                        yield tup
                    else:
                        yield tup.extend(**{self.attribute: value})

        return self._rebatch(ctx, op, emit())
