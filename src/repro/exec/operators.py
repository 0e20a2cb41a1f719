"""Physical operators: the batch execution layer.

Every operator pulls *batches* from its children and yields batches
downstream — column-oriented :class:`~repro.model.batches.TupleBatch` chunks,
or :class:`~repro.model.batches.LazyBatch` chunks of plain value dicts whose
:class:`~repro.model.tuples.FlexTuple` objects are only built when something
needs row objects (the result set, an interpreted predicate, a materializing
operator).  Large intermediate results are never forced into a single Python
collection unless an algorithm genuinely needs materialization (hash-join
build sides, difference right sides, sorts).

Operator semantics mirror the naive set evaluator in
:mod:`repro.algebra.evaluator` exactly — the differential tests in
``tests/test_exec_parity.py`` and ``tests/test_fuzz_parity.py`` enforce
tuple-level equality — but the algorithms differ:

* predicates and type guards are compiled **once per plan node**
  (:mod:`repro.exec.compiled`) and run as tight loops / bitmap tests over
  column arrays; :class:`Scan` applies them while reading and can answer
  equality predicates from the engine's hash indexes instead of reading the
  whole relation;
* :class:`HashJoin` and :class:`IndexLookupJoin` read the join columns as flat
  arrays, with *guard-aware partitioning*: variant records that lack a join
  attribute are skipped via the presence bitmap (they can never join) and
  counted as guard checks rather than join pairs.  The probe loop zips build
  and probe value dicts into merged dicts — conflicts and duplicates are
  detected eagerly, on the dicts — and emits them lazily; projection,
  extension and rename are pure column/dict transforms and stay lazy the same
  way, so a chain of joins and reshapes over a filtered stream never builds
  tuples a downstream operator drops;
* unions and difference are set-semantics pinch points that dedup on the row
  objects themselves (their inputs are usually already-built tuples whose
  cached hashes make that the cheapest exact check), so a lazy input batch is
  materialized there;
* :class:`HashAggregateOp` accumulates column-wise through
  :class:`~repro.exec.compiled.CompiledAggregates`; :class:`SortOp` /
  :class:`TopKOp` order ``(values, hash)`` pairs so result tuples rebuild with
  their hashes precomputed.  Under a ``memory_budget`` with spilling allowed,
  join, aggregate and sort switch to their spill forms
  (:mod:`repro.governor.spill`); every other materialization fails fast.

Two operators materialize their inputs as tuple sets and re-pack the joined
rows into :class:`TupleBatch` chunks: :class:`NestedLoopJoin`, picked for
provably tiny inputs, and :class:`NaturalJoinOp`, the natural join whose
attribute set is data-dependent (``on=None`` — both sides must be
materialized to discover it).

Work counters are written into the shared
:class:`~repro.algebra.evaluator.ExecutionStats` with the same meaning the
evaluator gives them (see its docstring for the counter semantics), maintained
in bulk (``+= len(batch)``), so naive and physical costs are directly
comparable.

An operator is its algorithm and nothing else: ``_generate`` is a generator
function over its children's batch streams, so its setup (hash builds,
drains, sorts) runs on the first pull.  :meth:`PhysicalOperator.run` keeps
the books — it registers the operator's
:class:`~repro.exec.context.OperatorStats` with the
:class:`~repro.exec.context.ExecutionContext` and wraps the stream in one
wrapper that counts ``rows_out`` / ``batches_out``, adds each batch to the
parent's ``rows_in`` and, when timing, the wall time.

Every operator's output batch stream contains each distinct tuple exactly once
(set semantics per operator, as in the evaluator); operators therefore never need
to re-deduplicate their inputs.

The operator ``name`` strings key the per-operator metrics (``memory.<name>``,
``qerror.<name>``) and are stable identifiers, not descriptions.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.analytic import (
    AggregateAccumulator,
    AggregateSpec,
    CompiledOrder,
    SortKey,
)
from repro.algebra.evaluator import _resolve_relation
from repro.algebra.predicates import Parameter, Predicate
from repro.errors import AlgebraError
from repro.exec.compiled import (
    CompiledAggregates,
    CompiledExtension,
    CompiledGuard,
    CompiledPredicate,
    CompiledRename,
)
from repro.exec.context import ExecutionContext, OperatorStats, sampled_size
from repro.model.attributes import AttributeSet, attrset
from repro.model.batches import LazyBatch, MISSING, TupleBatch, merge_values
from repro.model.tuples import FlexTuple


class PhysicalOperator:
    """Base class of every physical plan node."""

    #: operator name used in explain output
    name: str = "physical-op"

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

    #: the input operators, left to right (set once, by the constructor)
    children: Tuple["PhysicalOperator", ...] = ()

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

    def run(self, ctx: ExecutionContext,
            parent: Optional[OperatorStats] = None) -> Iterator[TupleBatch]:
        """Start execution: register stats (preorder) and return the batch stream.

        Nothing runs yet: every operator's ``_generate`` is a generator, so
        the whole tree's work — setup included — happens as batches are
        pulled.  The stream is wrapped once (:meth:`_booked_stream`) to keep
        this operator's books and its share of ``parent``'s; with a governor,
        once more for the cancellation boundaries.
        """
        ctx.stats.record_operator(self.name)
        op = ctx.register_operator(self.plan_label)
        op.invocations = 1
        stream = self._generate(ctx, op, *[child.run(ctx, op) for child in self.children])
        stream = self._booked_stream(op, parent, stream, ctx.timing)
        if ctx.governor is not None:
            stream = self._governed_stream(ctx.governor, stream)
        return stream

    @staticmethod
    def _booked_stream(op: OperatorStats, parent: Optional[OperatorStats],
                       stream: Iterator[TupleBatch], timing: bool) -> Iterator[TupleBatch]:
        """The books of one operator's output stream: ``rows_out`` and
        ``batches_out``, the rows it hands ``parent`` (its ``rows_in``) and,
        with ``timing``, the *inclusive* wall time of producing each batch —
        setup included, as it runs on the first pull.  Two clock reads per
        batch, nothing per tuple."""
        while True:
            if timing:
                started = perf_counter()
                batch = next(stream, None)
                op.wall_seconds += perf_counter() - started
            else:
                batch = next(stream, None)
            if batch is None:
                return
            count = len(batch)
            op.rows_out += count
            op.batches_out += 1
            if parent is not None:
                parent.rows_in += count
            yield batch

    @staticmethod
    def _governed_stream(governor, stream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        """Cooperative cancellation around an operator's output stream.

        One ``governor.check()`` before any work starts (the operator's setup
        — hash builds, sorts — happens on the first ``next()``) and one
        before every batch is handed downstream; a cancel or expired deadline
        therefore unwinds the whole plan within one operator boundary.  The
        wrapper sits *outside* the booked stream so boundary checks are
        counted identically with timing on or off.
        """
        governor.check()
        for batch in stream:
            governor.check()
            yield batch

    def _generate(self, ctx: ExecutionContext, op: OperatorStats,
                  *children) -> Iterator[TupleBatch]:
        """This operator's algorithm: a generator function over its
        children's batch streams, yielding its own batches."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the physical plan.

        Planner-produced plans carry cost-model annotations which are rendered
        as ``est_rows`` / ``est_cost`` columns per node.
        """
        line = "  " * indent + self.label()
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
    def _chunks(ctx: ExecutionContext, items: Iterable) -> Iterator[list]:
        """Cut ``items`` — a built list or an iterator — into lists of
        ``ctx.batch_size``, the rows of one output batch each."""
        items = iter(items)
        chunk = list(islice(items, ctx.batch_size))
        while chunk:
            yield chunk
            chunk = list(islice(items, ctx.batch_size))

    @staticmethod
    def _materialize(ctx: ExecutionContext, op: OperatorStats,
                     stream: Iterator[TupleBatch]) -> Set[FlexTuple]:
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
            result.update(batch)
            if governed:
                ctx.enforce_memory(op, sampled_size(result))
        op.note_memory(sampled_size(result))
        return result


class _Unary(PhysicalOperator):
    """An operator over one input, ``child``."""

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.children = (child,)


class _Binary(PhysicalOperator):
    """An operator over two inputs, ``left`` and ``right``."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right
        self.children = (left, right)


class EmptyOp(PhysicalOperator):
    """Produces no tuples (the physical form of the optimizer's ∅ leaf)."""

    name = "batch-empty"

    def _generate(self, ctx, op):
        yield from ()


class Scan(PhysicalOperator):
    """Index-aware scan of a base relation emitting :class:`TupleBatch` chunks,
    with the pushed-down guard and selection compiled once and applied inline.

    ``equalities`` are the attribute→value bindings implied by the pushed
    predicate (a value may be a parameter: the probe takes it from the
    execution's binding); when the relation source exposes a hash index
    covering a subset of them (``index_for``), the scan reads only the matching
    bucket instead of the whole relation.  The full predicate is still applied to every tuple read, so
    an index never changes the result — only how many tuples are touched.
    """

    name = "batch-scan"

    def __init__(self, relation: str, predicate: Optional[Predicate] = None,
                 guard: Optional[AttributeSet] = None,
                 equalities: Optional[Dict[str, object]] = None):
        self.relation = relation
        self.predicate = predicate
        self.guard = attrset(guard) if guard is not None and len(attrset(guard)) else None
        if equalities is None and predicate is not None:
            equalities = predicate.implied_equalities(parameters=True)
        self.equalities = dict(equalities or {})
        self._compiled_guard = (CompiledGuard(self.guard)
                                if self.guard is not None else None)
        self._compiled = (CompiledPredicate(self.predicate)
                          if self.predicate is not None else None)

    def label(self) -> str:
        parts = [self.relation]
        if self.predicate is not None:
            parts.append("σ[{!r}]".format(self.predicate))
        if self.guard is not None:
            parts.append("guard[{}]".format(self.guard))
        return "scan[{}]".format(", ".join(parts))

    def _pick_index(self, ctx: ExecutionContext):
        """The (index, probe) pair answering the pushed equalities, if any."""
        if not self.equalities:
            return None
        index = ctx.index_for(self.relation, self.equalities.keys())
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

    def _generate(self, ctx, op) -> Iterator[TupleBatch]:
        picked = self._pick_index(ctx)
        if picked is not None:
            index, probe = picked
            rows = list(index.lookup(probe))
        else:
            rows = list(_resolve_relation(ctx.source, self.relation))
        stats = ctx.stats
        size = ctx.batch_size
        for start in range(0, len(rows), size):
            batch = TupleBatch(rows[start:start + size])
            count = len(batch)
            stats.tuples_scanned += count
            op.rows_in += count
            indices = None
            if self._compiled_guard is not None:
                stats.guard_checks += count
                indices = self._compiled_guard.select(batch)
            if self._compiled is not None:
                stats.predicate_evaluations += (
                    count if indices is None else len(indices))
                indices = self._compiled.select(batch, indices, ctx.params)
            if indices is not None:
                if len(indices) != count:
                    batch = batch.take(indices)
                if not len(batch):
                    continue
            yield batch

    # -- pushdown helpers used by the physical planner ----------------------------------

    def with_predicate(self, predicate: Predicate) -> "Scan":
        """A copy with ``predicate`` conjoined to the already-pushed predicate."""
        from repro.algebra.predicates import And

        combined = predicate if self.predicate is None else And(self.predicate, predicate)
        return Scan(self.relation, predicate=combined, guard=self.guard)

    def with_guard(self, attributes) -> "Scan":
        """A copy with ``attributes`` added to the guard."""
        guard = attrset(attributes) if self.guard is None else self.guard | attrset(attributes)
        return Scan(self.relation, predicate=self.predicate, guard=guard,
                    equalities=self.equalities)


class FilterOp(_Unary):
    """σ — keep the tuples satisfying the predicate (when pushdown was
    impossible): the predicate compiled once, applied as narrowing passes."""

    name = "batch-filter"

    def __init__(self, child: PhysicalOperator, predicate: Predicate):
        super().__init__(child)
        self.predicate = predicate
        self._compiled = CompiledPredicate(predicate)

    def label(self) -> str:
        return "filter[{!r}]".format(self.predicate)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        stats = ctx.stats
        for batch in child:
            count = len(batch)
            stats.predicate_evaluations += count
            indices = self._compiled.select(batch, None, ctx.params)
            if len(indices) != count:
                if not indices:
                    continue
                batch = batch.take(indices)
            yield batch


class GuardOp(_Unary):
    """An explicit type guard ``TG[X]``: keep tuples defined on the guarded
    attributes — one presence-bitmap AND per batch."""

    name = "batch-guard"

    def __init__(self, child: PhysicalOperator, attributes):
        super().__init__(child)
        self.attributes = attrset(attributes)
        self._compiled = CompiledGuard(self.attributes)

    def label(self) -> str:
        return "guard[{}]".format(self.attributes)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        stats = ctx.stats
        for batch in child:
            count = len(batch)
            stats.guard_checks += count
            indices = self._compiled.select(batch)
            if len(indices) != count:
                if not indices:
                    continue
                batch = batch.take(indices)
            yield batch


class ProjectOp(_Unary):
    """π — restrict tuples to the attributes they possess, deduplicating on the fly.

    Projected value dicts are built from pre-extracted columns and emitted as a
    :class:`LazyBatch` — the (typically much smaller) projected tuples are only
    constructed when something downstream needs row objects.
    """

    name = "batch-project"

    def __init__(self, child: PhysicalOperator, attributes):
        super().__init__(child)
        self.attributes = attrset(attributes)

    def label(self) -> str:
        return "project[{}]".format(self.attributes)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        names = [a.name for a in self.attributes]
        stats = ctx.stats
        seen = set()
        add_seen = seen.add
        for batch in child:
            count = len(batch)
            stats.tuples_scanned += count
            columns = [batch.column(name) for name in names]
            out_values: List[dict] = []
            out_hashes: List[int] = []
            for i in range(count):
                items = {}
                for name, values in zip(names, columns):
                    value = values[i]
                    if value is not MISSING:
                        items[name] = value
                if not items:
                    continue
                key = frozenset(items.items())
                if key not in seen:
                    add_seen(key)
                    out_values.append(items)
                    out_hashes.append(hash(key))
            if out_values:
                yield LazyBatch(out_values, out_hashes)


class ExtendOp(_Unary):
    """ε — extend every tuple by a constant tag attribute.

    Entirely a column/dict transform (one presence test per batch) — no tuples
    are read or built; the extended rows travel as a :class:`LazyBatch`.
    """

    name = "batch-extend"

    def __init__(self, child: PhysicalOperator, attribute: str, value):
        super().__init__(child)
        self.attribute = attribute
        self.value = value
        self._compiled = CompiledExtension(attribute, value)

    def label(self) -> str:
        return "extend[{}:{!r}]".format(self.attribute, self.value)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        stats = ctx.stats
        for batch in child:
            count = len(batch)
            if not count:
                continue
            stats.tuples_scanned += count
            yield LazyBatch(self._compiled.transform(batch))


class RenameOp(_Unary):
    """ρ — rename attributes: renamed value dicts with hashed dedup (renames
    can collapse tuples)."""

    name = "batch-rename"

    def __init__(self, child: PhysicalOperator, mapping: Dict[str, str]):
        super().__init__(child)
        self.mapping = dict(mapping)
        self._compiled = CompiledRename(self.mapping)

    def label(self) -> str:
        return "rename[{}]".format(self.mapping)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        transform = self._compiled.transform_row
        stats = ctx.stats
        seen = set()
        add_seen = seen.add
        for batch in child:
            stats.tuples_scanned += len(batch)
            out_values: List[dict] = []
            out_hashes: List[int] = []
            for values in batch.values_list():
                renamed = transform(values)
                key = frozenset(renamed.items())
                if key not in seen:
                    add_seen(key)
                    out_values.append(renamed)
                    out_hashes.append(hash(key))
            if out_values:
                yield LazyBatch(out_values, out_hashes)


class ProductOp(_Binary):
    """× — cartesian product; materializes the right side, streams the left
    (value-dict merges, lazy output, bulk pair counting)."""

    name = "batch-product"

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        build = [tup._values for tup in self._materialize(ctx, op, right)]
        ctx.enforce_memory(op, sampled_size(build))
        stats = ctx.stats
        size = ctx.batch_size
        seen = set()
        add_seen = seen.add
        out_values: List[dict] = []
        out_hashes: List[int] = []
        for batch in left:
            stats.join_pairs_considered += len(batch) * len(build)
            for row_values in batch.values_list():
                for partner in build:
                    merged = merge_values(row_values, partner)
                    key = frozenset(merged.items())
                    if key not in seen:
                        add_seen(key)
                        out_values.append(merged)
                        out_hashes.append(hash(key))
                        if len(out_values) >= size:
                            yield LazyBatch(out_values, out_hashes)
                            out_values, out_hashes = [], []
        if out_values:
            yield LazyBatch(out_values, out_hashes)


def _shared_attributes(left: Set[FlexTuple], right: Set[FlexTuple]) -> AttributeSet:
    """The natural-join attributes: attrs appearing on both sides of the data."""
    left_attrs = AttributeSet()
    for tup in left:
        left_attrs = left_attrs | tup.attributes
    right_attrs = AttributeSet()
    for tup in right:
        right_attrs = right_attrs | tup.attributes
    return left_attrs & right_attrs


class _MaterializingJoin(_Binary):
    """What the two joins that materialize both inputs as tuple sets share:
    ``on=None`` means the attributes appearing on both sides of the data."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, on=None):
        super().__init__(left, right)
        self.on = attrset(on) if on is not None else None

    def label(self) -> str:
        return "{}[on={}]".format(self.name, self.on if self.on is not None else "shared")


class NestedLoopJoin(_MaterializingJoin):
    """⋈ by nested loops — every pair of input tuples is examined.

    Used by the planner only for small inputs, where the hash-table setup of
    :class:`HashJoin` costs more than it saves.
    """

    name = "nested-loop-join"

    def _generate(self, ctx, op, left, right):
        left_set = self._materialize(ctx, op, left)
        right_set = self._materialize(ctx, op, right)
        shared = self.on if self.on is not None else _shared_attributes(left_set, right_set)
        joined: Dict[FlexTuple, None] = {}  # an insertion-ordered set
        for left_tuple in left_set:
            for right_tuple in right_set:
                ctx.stats.join_pairs_considered += 1
                if not (left_tuple.is_defined_on(shared) and right_tuple.is_defined_on(shared)):
                    continue
                if all(left_tuple[a] == right_tuple[a] for a in shared):
                    joined[left_tuple.merge(right_tuple)] = None
        yield from map(TupleBatch, self._chunks(ctx, joined))


class NaturalJoinOp(_MaterializingJoin):
    """⋈ on attributes only the data can tell (``on=None``), by build/probe.

    The natural-join attributes are those appearing on both sides of the
    *data*, so both inputs are materialized to discover them — which is why
    this join has no streaming or spill form and fails fast under a memory
    budget.  Partitioning is guard-aware as in :class:`HashJoin`: tuples not
    defined on every join attribute cost one guard check, only pairs sharing
    a bucket count as ``join_pairs_considered``.  (The planner also sends the
    degenerate empty ``on`` set here: every pair shares the one bucket.)
    """

    name = "hash-join"

    def _generate(self, ctx, op, left, right):
        right_set = self._materialize(ctx, op, right)
        left_set = self._materialize(ctx, op, left)
        shared = self.on if self.on is not None else _shared_attributes(left_set, right_set)

        buckets: Dict[tuple, List[FlexTuple]] = {}
        for tup in right_set:
            ctx.stats.guard_checks += 1
            if tup.is_defined_on(shared):
                buckets.setdefault(tuple(tup[a] for a in shared), []).append(tup)
        ctx.enforce_memory(op, sampled_size(buckets))

        joined: Dict[FlexTuple, None] = {}  # an insertion-ordered set
        for left_tuple in left_set:
            ctx.stats.guard_checks += 1
            if not left_tuple.is_defined_on(shared):
                continue
            partners = buckets.get(tuple(left_tuple[a] for a in shared), ())
            ctx.stats.join_pairs_considered += len(partners)
            for partner in partners:
                joined[left_tuple.merge(partner)] = None
        yield from map(TupleBatch, self._chunks(ctx, joined))


def _build_buckets(op, ctx, stream, names) -> Dict:
    """Drain a build-side batch stream into join-key buckets of value dicts.

    Rows lacking a join attribute are partitioned out via the presence bitmap
    and cost one guard check each (they can never join).  Single-attribute
    joins key buckets by the bare value, multi-attribute joins by the value
    tuple.  The bucket payloads are the rows' plain value dicts — ready for
    the lazy column merge of the probe loop, never materialized when the
    build side was lazy.
    """
    stats = ctx.stats
    governed = (ctx.governor is not None
                and ctx.governor.memory_budget is not None)
    buckets: Dict = {}
    setdefault = buckets.setdefault
    single = len(names) == 1
    for batch in stream:
        stats.guard_checks += len(batch)
        values_list = batch.values_list()
        if single:
            for i, value in enumerate(batch.column(names[0])):
                if value is not MISSING:
                    setdefault(value, []).append(values_list[i])
        else:
            columns = [batch.column(name) for name in names]
            for i, key in enumerate(zip(*columns)):
                if all(value is not MISSING for value in key):
                    setdefault(key, []).append(values_list[i])
        if governed:
            # fail fast at the batch boundary (spilling joins never get here;
            # they drain through HashJoin._generate_grace instead)
            ctx.enforce_memory(op, sampled_size(buckets))
    op.note_memory(sampled_size(buckets))
    return buckets


class HashJoin(_Binary):
    """⋈ by build/probe over batch columns, on statically known join attributes.

    The right input is the build side (the planner puts the smaller estimated
    input there).  Partitioning is *guard-aware*: variant records not defined on
    every join attribute are set aside during build/probe — they cannot join, so
    they cost one guard check each instead of a join pair per combination.  Only
    pairs that share a hash bucket count as ``join_pairs_considered``, which is
    exactly the work the algorithm performs.

    The probe loop zips probe-side and build-side value dicts into merged dicts
    — disagreement on shared non-join attributes raises eagerly, duplicates are
    dropped eagerly via hashed keys — and emits them as :class:`LazyBatch`
    chunks; the merged ``FlexTuple``s themselves are built only when the rows
    reach the result set or an operator that needs row objects.
    """

    name = "batch-hash-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, on):
        super().__init__(left, right)
        if on is None or not len(attrset(on)):
            raise AlgebraError("a hash join needs static join attributes")
        self.on = attrset(on)

    def label(self) -> str:
        return "hash-join[on={}]".format(self.on)

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        names = [a.name for a in self.on]
        budget = ctx.spill_budget()
        if budget is not None:
            yield from self._generate_grace(ctx, op, left, right, names, budget)
        else:
            yield from self._probe(ctx, left, names,
                                   _build_buckets(op, ctx, right, names))

    @staticmethod
    def _probe(ctx, left, names, buckets) -> Iterator[TupleBatch]:
        stats = ctx.stats
        get = buckets.get
        single = len(names) == 1
        seen = set()
        add_seen = seen.add
        for batch in left:
            stats.guard_checks += len(batch)
            values_list = batch.values_list()
            out_values: List[dict] = []
            out_hashes: List[int] = []
            if single:
                probes = enumerate(batch.column(names[0]))
            else:
                columns = [batch.column(name) for name in names]
                probes = enumerate(zip(*columns))
            for i, key in probes:
                if single:
                    if key is MISSING:
                        continue
                elif not all(value is not MISSING for value in key):
                    continue
                partners = get(key)
                if partners is None:
                    continue
                stats.join_pairs_considered += len(partners)
                row_values = values_list[i]
                for partner in partners:
                    merged = merge_values(row_values, partner)
                    dedup = frozenset(merged.items())
                    if dedup not in seen:
                        add_seen(dedup)
                        out_values.append(merged)
                        out_hashes.append(hash(dedup))
            if out_values:
                yield LazyBatch(out_values, out_hashes)

    def _generate_grace(self, ctx, op, left, right, names,
                        budget) -> Iterator[TupleBatch]:
        """Grace hash join under a memory budget: both sides hash-partitioned
        to disk, one partition's build buckets in memory at a time.

        The build side is held in memory until the budget trips — a join that
        fits never touches disk and emits exactly what the in-memory path
        emits.  Matching keys land in the same partition on both sides, and a
        merged output row determines its join key, so the per-partition
        ``seen`` sets partition the global duplicate space: the union of the
        per-partition outputs is exactly the deduplicated join.  All counters
        (guard checks per input row, pairs per shared bucket) match the
        in-memory algorithm total for total.
        """
        from repro.governor.spill import GracePartitioner

        stats = ctx.stats
        manager = ctx.governor.spill_manager()
        single = len(names) == 1

        def keyed(batch):
            values_list = batch.values_list()
            if single:
                return ((value, values_list[i])
                        for i, value in enumerate(batch.column(names[0]))
                        if value is not MISSING)
            columns = [batch.column(name) for name in names]
            return ((key, values_list[i])
                    for i, key in enumerate(zip(*columns))
                    if all(value is not MISSING for value in key))

        pairs: List[tuple] = []
        build_part = None
        for batch in right:
            stats.guard_checks += len(batch)
            if build_part is None:
                pairs.extend(keyed(batch))
                size = sampled_size(pairs)
                op.note_memory(size)
                if size > budget:
                    build_part = GracePartitioner(manager, "join-build")
                    for key, values in pairs:
                        build_part.add(key, values)
                    pairs = []
            else:
                for key, values in keyed(batch):
                    build_part.add(key, values)

        if build_part is None:
            # Never crossed the budget: the ordinary in-memory probe.
            buckets: Dict = {}
            for key, values in pairs:
                buckets.setdefault(key, []).append(values)
            op.note_memory(sampled_size(buckets))
            yield from self._probe(ctx, left, names, buckets)
            return

        probe_part = GracePartitioner(manager, "join-probe")
        for batch in left:
            stats.guard_checks += len(batch)
            for key, values in keyed(batch):
                probe_part.add(key, values)
        build_part.finish()
        probe_part.finish()

        batch_size = ctx.batch_size
        out_values: List[dict] = []
        out_hashes: List[int] = []
        for index in range(build_part.partitions):
            buckets: Dict = {}
            for key, values in build_part.segment(index):
                buckets.setdefault(key, []).append(values)
            # accounting only: grace bounds held state at ~budget + one
            # partition's buckets, it does not re-enforce per partition
            op.note_memory(sampled_size(buckets))
            get = buckets.get
            seen = set()
            add_seen = seen.add
            for key, row_values in probe_part.segment(index):
                partners = get(key)
                if partners is None:
                    continue
                stats.join_pairs_considered += len(partners)
                for partner in partners:
                    merged = merge_values(row_values, partner)
                    dedup = frozenset(merged.items())
                    if dedup not in seen:
                        add_seen(dedup)
                        out_values.append(merged)
                        out_hashes.append(hash(dedup))
                        if len(out_values) >= batch_size:
                            yield LazyBatch(out_values, out_hashes)
                            out_values, out_hashes = [], []
        if out_values:
            yield LazyBatch(out_values, out_hashes)


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
    guard check (they can never join).  The outer side is read as batch
    columns and the output is the same lazy column merge as :class:`HashJoin`'s.

    Without a usable index at execution time (``use_indexes=False``, or the
    index disappeared), the operator degrades to building the buckets by
    scanning the inner relation once — hash-join behaviour, identical results.
    """

    name = "batch-index-lookup-join"

    def __init__(self, outer: PhysicalOperator, relation: str, on):
        self.outer = outer
        self.children = (outer,)
        self.relation = relation
        self.on = attrset(on)
        if not self.on:
            raise AlgebraError("an index lookup join needs join attributes")

    def label(self) -> str:
        return "index-lookup-join[{}, on={}]".format(self.relation, self.on)

    def _generate(self, ctx, op, outer) -> Iterator[TupleBatch]:
        index = ctx.index_for(self.relation, self.on)
        if index is not None:
            probe_attributes = index.attributes
            lookup = index.lookup
        else:
            # Degraded mode: one scan of the inner relation builds the buckets.
            probe_attributes = self.on
            buckets: Dict[tuple, List[FlexTuple]] = {}
            inner_rows = list(_resolve_relation(ctx.source, self.relation))
            ctx.stats.tuples_scanned += len(inner_rows)
            ctx.stats.guard_checks += len(inner_rows)
            for tup in inner_rows:
                if tup.is_defined_on(self.on):
                    buckets.setdefault(tuple(tup[a] for a in self.on), []).append(tup)
            ctx.enforce_memory(op, sampled_size(buckets))
            lookup = lambda probe: buckets.get(probe, ())  # noqa: E731

        probe_names = [a.name for a in probe_attributes]
        remaining = [a.name for a in (self.on - probe_attributes)]
        on_names = [a.name for a in self.on]
        stats = ctx.stats
        single = len(probe_names) == 1
        seen = set()
        add_seen = seen.add
        for batch in outer:
            count = len(batch)
            stats.guard_checks += count
            values_list = batch.values_list()
            out_values: List[dict] = []
            out_hashes: List[int] = []
            probe_columns = [batch.column(name) for name in probe_names]
            on_columns = [batch.column(name) for name in on_names]
            for i in range(count):
                if not all(column[i] is not MISSING for column in on_columns):
                    continue
                if single:
                    probe = (probe_columns[0][i],)
                else:
                    probe = tuple(column[i] for column in probe_columns)
                partners = lookup(probe)
                stats.join_pairs_considered += len(partners)
                if not partners:
                    continue
                row_values = values_list[i]
                for partner in partners:
                    partner_values = partner._values
                    if remaining:
                        if any(partner_values.get(name, MISSING) != row_values[name]
                               for name in remaining):
                            continue
                    merged = merge_values(row_values, partner_values)
                    dedup = frozenset(merged.items())
                    if dedup not in seen:
                        add_seen(dedup)
                        out_values.append(merged)
                        out_hashes.append(hash(dedup))
            if out_values:
                yield LazyBatch(out_values, out_hashes)


class MergeUnion(_Binary):
    """∪ — stream both inputs, emitting each distinct tuple once (per-batch
    dedup against the running seen-set)."""

    name = "batch-merge-union"

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        stats = ctx.stats
        seen = set()
        add_seen = seen.add
        for stream in (left, right):
            for batch in stream:
                stats.tuples_scanned += len(batch)
                out: List[FlexTuple] = []
                append = out.append
                for tup in batch.rows:
                    if tup not in seen:
                        add_seen(tup)
                        append(tup)
                if out:
                    yield TupleBatch(out)


class OuterUnionOp(MergeUnion):
    """The outer union restoring horizontal decompositions.

    Identical to :class:`MergeUnion` on flexible relations (tuples of different
    shapes coexist without padding); kept as its own node so plans document the
    restoration step, mirroring the logical algebra.
    """

    name = "batch-outer-union"


class DifferenceOp(_Binary):
    """− — materialize (hash) the right side, stream the left side past it with
    whole-batch membership filtering."""

    name = "batch-difference"

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        exclude = self._materialize(ctx, op, right)
        stats = ctx.stats
        for batch in left:
            stats.tuples_scanned += len(batch)
            out = [tup for tup in batch.rows if tup not in exclude]
            if out:
                yield TupleBatch(out)


class MultiwayJoinOp(PhysicalOperator):
    """The multiway join restoring vertical decompositions, hash-based.

    The first input is the master fragment; each further input is merged into the
    master's tuples on the ``on`` attributes via a hash index.  Master tuples
    without a partner pass through unchanged (variants contribute nothing) — the
    same semantics as the logical operator.

    The master and each dependent fragment are drained into parallel
    value-dict and hash lists; each merge stage then works purely on value
    dicts and the final table is emitted as :class:`LazyBatch` chunks, which
    across an n-way restoration avoids building every intermediate merged
    ``FlexTuple`` once per stage.
    """

    name = "batch-multiway-join"

    def __init__(self, inputs: Sequence[PhysicalOperator], on):
        inputs = tuple(inputs)
        if len(inputs) < 2:
            raise AlgebraError("a multiway join needs at least two inputs")
        self.inputs = self.children = inputs
        self.on = attrset(on)

    def label(self) -> str:
        return "multiway-join[on={}]".format(self.on)

    def _generate(self, ctx, op, master, *fragments) -> Iterator[TupleBatch]:
        stats = ctx.stats
        on_names = [a.name for a in self.on]
        single = len(on_names) == 1
        on_name = on_names[0] if single else None

        def drain(stream):
            # Parallel (values, hashes) lists; every input stream is distinct
            # by the operator contract, so no content keys are rebuilt here.
            all_values: List = []
            all_hashes: List = []
            for batch in stream:
                all_values.extend(batch.values_list())
                all_hashes.extend(batch.hashes_list())
            return all_values, all_hashes

        current_values, current_hashes = drain(master)
        ctx.enforce_memory(op, sampled_size(current_values))
        for stream in fragments:
            fragment_values, _fragment_hashes = drain(stream)
            buckets: Dict = {}
            setdefault = buckets.setdefault
            for values in fragment_values:
                if single:
                    if on_name in values:
                        setdefault(values[on_name], []).append(values)
                elif all(name in values for name in on_names):
                    setdefault(tuple(values[name] for name in on_names),
                               []).append(values)
            get = buckets.get
            # Pass-through rows stay distinct (they were), and can never equal
            # a merged row (their join-key bucket was empty or they lack a join
            # attribute a merged row has) — only merged rows need the seen-set.
            out_values: List = []
            out_hashes: List = []
            append_values = out_values.append
            append_hashes = out_hashes.append
            seen_merged = set()
            add_seen = seen_merged.add
            for values, hash_ in zip(current_values, current_hashes):
                if single:
                    key = values.get(on_name, MISSING)
                    partners = None if key is MISSING else get(key)
                else:
                    if all(name in values for name in on_names):
                        partners = get(tuple(values[name] for name in on_names))
                    else:
                        partners = None
                if partners is None:
                    append_values(values)
                    append_hashes(hash_)
                    continue
                stats.join_pairs_considered += len(partners)
                for partner in partners:
                    combined = merge_values(values, partner)
                    dedup = frozenset(combined.items())
                    if dedup not in seen_merged:
                        add_seen(dedup)
                        append_values(combined)
                        append_hashes(hash(dedup))
            ctx.enforce_memory(op, sampled_size(buckets))
            current_values, current_hashes = out_values, out_hashes
            ctx.enforce_memory(op, sampled_size(current_values))
        yield from map(LazyBatch, self._chunks(ctx, current_values),
                       self._chunks(ctx, current_hashes))


def _analytic_label(name: str, parts: Sequence[str]) -> str:
    return "{}[{}]".format(name, ", ".join(parts))


class HashAggregateOp(_Unary):
    """γ — streaming hash aggregation with variant-aware ⊥-group routing.

    Consumes its input batch by batch, keeping only one accumulator state per
    group (the held state, not the input, is what ``peak_bytes`` accounts).
    Grouping keys, the NULL-vs-absent aggregate matrix and the output shape are
    the shared semantics of :mod:`repro.algebra.analytic` — identical to the
    naive evaluator by construction.

    Every input batch makes one key-extraction pass (group columns) and then
    one tight loop per aggregate spec over ``(group ids × spec column)`` — see
    :class:`~repro.exec.compiled.CompiledAggregates`.  Outputs are value dicts
    (group outputs are pairwise distinct, so no hashes or dedup are needed)
    emitted as :class:`LazyBatch` chunks.
    """

    name = "batch-hash-aggregate"

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 specs: Sequence[AggregateSpec]):
        super().__init__(child)
        self.group_by = tuple(group_by)
        self.specs = tuple(specs)

    def label(self) -> str:
        parts = []
        if self.group_by:
            parts.append("group=[{}]".format(", ".join(self.group_by)))
        parts.extend(repr(spec) for spec in self.specs)
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        budget = ctx.spill_budget()
        if budget is not None:
            yield from self._generate_spilled(ctx, op, child, budget)
            return
        compiled = CompiledAggregates(self.group_by, self.specs)
        stats = ctx.stats
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        for batch in child:
            stats.tuples_scanned += len(batch)
            compiled.update(batch)
            if governed:
                ctx.enforce_memory(op, sampled_size(compiled.key_to_gid)
                                   + sampled_size(compiled.sizes))
        op.note_memory(sampled_size(compiled.key_to_gid)
                       + sampled_size(compiled.sizes))
        yield from map(LazyBatch, self._chunks(ctx, compiled.results()))

    def _generate_spilled(self, ctx, op, child, budget) -> Iterator[TupleBatch]:
        """γ under a memory budget, partition-and-merge: the group dict flushes
        to hash-partitioned segments whenever it outgrows the budget and the
        partitions merge (``AggregateAccumulator.merge_states``) at finalize
        time — same outputs, bounded held state.  (The compiled
        column-at-a-time kernel has no partial-state eviction, so a budgeted
        run trades it away.)"""
        from repro.governor.spill import SpillingAggregator

        accumulator = AggregateAccumulator(self.specs)
        spiller = SpillingAggregator(
            ctx.governor.spill_manager(), accumulator, self.group_by,
            budget, op.note_memory)
        stats = ctx.stats
        for batch in child:
            stats.tuples_scanned += len(batch)
            for values in batch.values_list():
                spiller.add(values)
            spiller.maybe_spill()
        yield from map(LazyBatch, self._chunks(ctx, spiller.results()))


class SortOp(_Unary):
    """τ — full sort with bounded-materialization accounting.

    The input is a set, so the sort itself is result-identity; the operator
    exists as the full-materialization form of ``limit`` lowering (``limit``
    set) and as the physical counterpart of an order annotation.  It drains
    the *entire* input into parallel value-dict and hash lists (their
    ``sampled_size`` is what ``note_memory`` records — the contrast to
    :class:`TopKOp`'s bounded heap that E18 asserts on ``peak_bytes``), orders
    them by the shared :class:`CompiledOrder` and re-emits lazily.
    """

    name = "batch-sort"

    def __init__(self, child: PhysicalOperator, keys: Sequence[SortKey] = (),
                 limit: Optional[int] = None):
        super().__init__(child)
        self.keys = tuple(keys)
        self.order = CompiledOrder(self.keys)
        self.limit = limit

    def label(self) -> str:
        parts = [repr(key) for key in self.keys]
        if self.limit is not None:
            parts.append("limit={}".format(self.limit))
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        budget = ctx.spill_budget()
        if budget is not None:
            yield from self._generate_spilled(ctx, op, child, budget)
            return
        stats = ctx.stats
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        values: List[dict] = []
        hashes: List[int] = []
        for batch in child:
            stats.tuples_scanned += len(batch)
            values.extend(batch.values_list())
            hashes.extend(batch.hashes_list())
            if governed:
                ctx.enforce_memory(op, sampled_size(values) + sampled_size(hashes))
        op.note_memory(sampled_size(values) + sampled_size(hashes))
        order = self.order.argsort(values)
        if self.limit is not None:
            del order[self.limit:]
        for chunk in self._chunks(ctx, order):
            yield LazyBatch([values[position] for position in chunk],
                            [hashes[position] for position in chunk])

    def _generate_spilled(self, ctx, op, child, budget) -> Iterator[TupleBatch]:
        """τ under a memory budget, an external merge sort: sorted runs of
        ``(values, hash)`` pairs flushed to disk when the held rows outgrow
        the budget, k-way merged on emit (the compiled order is total, so the
        merged stream is deterministic)."""
        from repro.governor.spill import ExternalSorter

        stats = ctx.stats
        sorter = ExternalSorter(ctx.governor.spill_manager(), self.order,
                                budget=budget, note=op.note_memory)
        for batch in child:
            stats.tuples_scanned += len(batch)
            sorter.extend(zip(batch.values_list(), batch.hashes_list()))
            sorter.maybe_spill()
        merged = sorter.merged()
        if self.limit is not None:
            merged = islice(merged, self.limit)
        for chunk in self._chunks(ctx, merged):
            yield LazyBatch([pair[0] for pair in chunk], [pair[1] for pair in chunk])


class TopKOp(_Unary):
    """λ∘τ — heap-based top-k: the ``count`` smallest rows under ``keys``.

    The fused physical form of ``Limit(Sort(E))`` (and of a bare ``Limit``,
    with empty keys meaning the canonical tuple order).  The input streams
    through :meth:`CompiledOrder.top_k` as ``(values, hash)`` pairs — at most
    ``count`` pairs are ever held, which is the bounded-memory contrast to
    :class:`SortOp` that ``peak_bytes`` records.
    """

    name = "batch-top-k"

    def __init__(self, child: PhysicalOperator, keys: Sequence[SortKey],
                 count: int):
        super().__init__(child)
        self.keys = tuple(keys)
        self.order = CompiledOrder(self.keys)
        self.count = count

    def label(self) -> str:
        parts = [repr(key) for key in self.keys]
        parts.append("k={}".format(self.count))
        return _analytic_label(self.name, parts)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        stats = ctx.stats

        def pairs() -> Iterator[tuple]:
            for batch in child:
                stats.tuples_scanned += len(batch)
                yield from zip(batch.values_list(), batch.hashes_list())

        best = self.order.top_k(pairs(), self.count)
        ctx.enforce_memory(op, sampled_size(best))
        for chunk in self._chunks(ctx, best):
            yield LazyBatch([pair[0] for pair in chunk], [pair[1] for pair in chunk])


#: sentinel for "the scalar subquery produced no row — extend nothing"
_NO_VALUE = object()


class SubqueryExtendOp(PhysicalOperator):
    """ε — extend every tuple by the scalar result of a subquery plan.

    The child is drained completely *before* the subquery runs and its arity
    is checked, so the order in which errors surface (child errors, then
    subquery errors, then the scalar arity check, then per-tuple extension
    conflicts) matches the naive evaluator exactly — the property the
    differential fuzz harness leans on.  Both streams exist from ``run`` on,
    but nothing runs until it is pulled, so draining ``child`` before the
    first pull of ``subquery`` is what orders them.  The final extension pass
    is batch-wise — one presence test per batch, extended value dicts out.
    """

    name = "batch-subquery-extend"

    def __init__(self, child: PhysicalOperator, attribute: str,
                 subquery: PhysicalOperator):
        self.child = child
        self.attribute = attribute
        self.subquery = subquery
        self.children = (child, subquery)

    def label(self) -> str:
        return "{}[{}]".format(self.name, self.attribute)

    def _generate(self, ctx, op, child, subquery) -> Iterator[TupleBatch]:
        # appended one by one: list(child) over-allocates differently, and
        # the sampled size (peak_bytes) reads the allocation
        batches = [batch for batch in child]
        ctx.enforce_memory(op, sampled_size(batches))
        value = self._scalar_value(ctx, op, subquery)
        compiled = (None if value is _NO_VALUE
                    else CompiledExtension(self.attribute, value))
        stats = ctx.stats
        for batch in batches:
            count = len(batch)
            if not count:
                continue
            stats.tuples_scanned += count
            yield batch if compiled is None else LazyBatch(compiled.transform(batch))

    def _scalar_value(self, ctx, op, subquery):
        result = self._materialize(ctx, op, subquery)
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
