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
  (:mod:`repro.exec.compiled`) and run as tight loops over column arrays;
  :class:`Scan` applies them while reading and can answer equality
  predicates from the engine's hash indexes instead of reading the whole
  relation;
* :class:`HashJoin` and :class:`IndexLookupJoin` read the join columns as flat
  arrays, with *guard-aware partitioning*: variant records that lack a join
  attribute are skipped by their ``MISSING`` key (they can never join) and
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
  their hashes precomputed.  Under a ``memory_budget`` the hash join (static
  ``on``), the aggregate and the sort check their held state every
  ``CHUNK_RECORDS`` input rows (``ctx.over_budget``); over it, with spilling
  allowed, the same algorithm moves that state to disk
  (:mod:`repro.governor.spill`) and finishes from there — spilling is a
  state, not a second algorithm.  Every other materialization fails fast.

Every equi-join is a :class:`HashJoin`.  When the join attributes depend on
the data (``on=None``), it first materializes both inputs as tuple sets to
discover them, then builds and probes as usual.

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
to re-deduplicate their inputs.  The operators that can create duplicates —
projection, rename, product and the joins — hand their candidate value dicts to
one emitter, :func:`_distinct`; the joins read their keys through one
:func:`_join_keys`.  Where the logical node proves a key of its result, the
planner sets the operator's ``distinct_by`` and the emitter keeps no ``seen``
set.  No operator hands its parent a batch of more than ``ctx.batch_size`` rows.

The operator ``name`` strings key the per-operator metrics (``memory.<name>``,
``qerror.<name>``) and are stable identifiers, not descriptions.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.analytic import AggregateSpec, CompiledOrder, SortKey
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

    #: a key of the output, set by the physical planner when the logical node
    #: proves one (``unique_keys``): the rows then skip the ``seen`` set
    distinct_by: Optional[AttributeSet] = None

    #: the input operators, left to right (set once, by the constructor)
    children: Tuple["PhysicalOperator", ...] = ()

    def label(self) -> str:
        """One-line description used in explain output and operator stats."""
        return self.name

    def explain_label(self) -> str:
        """:meth:`label` and, on a keyed operator, ``distinct-by=<key>``: the
        line explain and EXPLAIN ANALYZE print."""
        if self.distinct_by is None:
            return self.label()
        return "{} distinct-by={}".format(self.label(), self.distinct_by)

    def _seen(self) -> Optional[set]:
        """A fresh ``seen`` set for :func:`_distinct`, or ``None`` under a key."""
        return None if self.distinct_by is not None else set()

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
        line = "  " * indent + self.explain_label()
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
        the damage is done; a materialization that cannot spill always
        fails fast (``MemoryBudgetExceeded``), spilling or not.
        """
        result: Set[FlexTuple] = set()
        for batch in stream:
            result.update(batch)
            if ctx.budgeted:
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


def _distinct(ctx: ExecutionContext, seen: Optional[set],
              rows: Iterable[dict]) -> Iterator[LazyBatch]:
    """Set semantics over value dicts: the ``rows`` whose content is not yet
    in ``seen`` (which they join), as :class:`LazyBatch`es of at most
    ``ctx.batch_size`` rows carrying the hash of that content.  A keyed
    operator (``distinct_by``) has no ``seen`` set: its rows are distinct by
    construction, so they are only cut — no content key, no hash."""
    if seen is None:
        yield from map(LazyBatch, PhysicalOperator._chunks(ctx, rows))
        return
    size = ctx.batch_size
    add_seen = seen.add
    out_values: List[dict] = []
    out_hashes: List[int] = []
    for values in rows:
        key = frozenset(values.items())
        if key not in seen:
            add_seen(key)
            out_values.append(values)
            out_hashes.append(hash(key))
            if len(out_values) == size:
                yield LazyBatch(out_values, out_hashes)
                out_values, out_hashes = [], []
    if out_values:
        yield LazyBatch(out_values, out_hashes)


def _note_seen(ctx: ExecutionContext, op: OperatorStats, seen: Optional[set]) -> None:
    """Account a ``seen`` set as held state, once, at the end of its stream —
    when it outgrew one batch (as streaming state, a smaller one goes unreported)."""
    if seen is not None and len(seen) > ctx.batch_size:
        op.note_memory(sampled_size(seen))


def _join_keys(batch: TupleBatch, names: Sequence[str]) -> List:
    """One join key per row of ``batch``: the bare value on one attribute, the
    value tuple on several, ``()`` on none — and ``MISSING`` for a row that
    lacks a join attribute, which never joins (absent is not NULL)."""
    if len(names) == 1:
        return batch.column(names[0])
    if not names:
        return [()] * len(batch)
    return [MISSING if MISSING in key else key
            for key in zip(*[batch.column(name) for name in names])]


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
        self._equality_names = frozenset(self.equalities)
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

    def _probed(self, ctx: ExecutionContext) -> Optional[List[FlexTuple]]:
        """The bucket of the index answering the pushed equalities under
        ``ctx.params``, or ``None``: no index covers them, or a bound value
        is unhashable (no bucket can hold it, but the predicate may still be
        satisfiable elsewhere — full scan)."""
        if not self.equalities:
            return None
        index = ctx.index_for(self.relation, self._equality_names)
        if index is None:
            return None
        key = []
        for name in index.names:
            value = self.equalities[name]
            key.append(ctx.params[value.slot] if value.__class__ is Parameter else value)
        try:
            return list(index.bucket(tuple(key)))
        except TypeError:
            return None

    def _generate(self, ctx, op) -> Iterator[TupleBatch]:
        rows = self._probed(ctx)
        if rows is None:
            rows = list(_resolve_relation(ctx.source, self.relation))
        stats = ctx.stats
        size = ctx.batch_size
        for start in range(0, len(rows), size):
            batch = TupleBatch(rows[start:start + size])
            count = len(batch)
            stats.tuples_scanned += count
            op.rows_in += count
            indices = self.select(ctx, batch)
            if indices is not None:
                if len(indices) != count:
                    batch = batch.take(indices)
                if not len(batch):
                    continue
            yield batch

    @property
    def filtered(self) -> bool:
        """Does the scan apply a guard or a predicate to what it reads?"""
        return self._compiled_guard is not None or self._compiled is not None

    def select(self, ctx: ExecutionContext, batch: TupleBatch) -> Optional[List[int]]:
        """The indices of ``batch``'s rows passing the guard and then the
        predicate under ``ctx.params`` — one guard check a row, one
        predicate evaluation a row past the guard — or ``None`` when the
        scan has neither."""
        stats = ctx.stats
        indices = None
        if self._compiled_guard is not None:
            stats.guard_checks += len(batch)
            indices = self._compiled_guard.select(batch)
        if self._compiled is not None:
            stats.predicate_evaluations += (
                len(batch) if indices is None else len(indices))
            indices = self._compiled.select(batch, indices, ctx.params)
        return indices

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
    attributes — one column scan per guarded attribute and batch."""

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
    constructed when something downstream needs row objects; a kept key
    (``distinct_by``) spares the ``seen`` set.
    """

    name = "batch-project"

    def __init__(self, child: PhysicalOperator, attributes):
        super().__init__(child)
        self.attributes = attrset(attributes)
        self._names = self.attributes.names

    def label(self) -> str:
        return "project[{}]".format(self.attributes)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        names = self._names
        stats = ctx.stats
        seen = self._seen()
        for batch in child:
            count = len(batch)
            stats.tuples_scanned += count
            columns = [batch.column(name) for name in names]
            projected: List[dict] = []
            for i in range(count):
                items = {}
                for name, values in zip(names, columns):
                    value = values[i]
                    if value is not MISSING:
                        items[name] = value
                if items:
                    projected.append(items)
            yield from _distinct(ctx, seen, projected)
        _note_seen(ctx, op, seen)


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
        seen = self._seen()
        for batch in child:
            stats.tuples_scanned += len(batch)
            yield from _distinct(ctx, seen, map(transform, batch.values_list()))
        _note_seen(ctx, op, seen)


class ProductOp(_Binary):
    """× — cartesian product; materializes the right side, streams the left
    (value-dict merges, lazy output, bulk pair counting)."""

    name = "batch-product"

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        build = [tup._values for tup in self._materialize(ctx, op, right)]
        ctx.enforce_memory(op, sampled_size(build))
        stats = ctx.stats

        def merges() -> Iterator[dict]:
            for batch in left:
                stats.join_pairs_considered += len(batch) * len(build)
                for row_values in batch.values_list():
                    for partner in build:
                        yield merge_values(row_values, partner)

        seen = self._seen()
        yield from _distinct(ctx, seen, merges())
        _note_seen(ctx, op, seen)


def _shared_attributes(left: Set[FlexTuple], right: Set[FlexTuple]) -> AttributeSet:
    """The natural-join attributes: attrs appearing on both sides of the data."""
    left_attrs = AttributeSet()
    for tup in left:
        left_attrs = left_attrs | tup.attributes
    right_attrs = AttributeSet()
    for tup in right:
        right_attrs = right_attrs | tup.attributes
    return left_attrs & right_attrs


def _keyed(stats, stream: Iterable[TupleBatch], names: Sequence[str]) -> Iterator:
    """Per batch of ``stream``, its ``(join key, values)`` pairs — one guard
    check a row, as a row lacking a join attribute (key ``MISSING``) is
    sorted out by its key alone."""
    for batch in stream:
        stats.guard_checks += len(batch)
        yield zip(_join_keys(batch, names), batch.values_list())


def _joinable(pairs: Iterable[tuple]) -> Iterator[tuple]:
    """The ``(join key, values)`` pairs of rows that can join at all."""
    return (pair for pair in pairs if pair[0] is not MISSING)


def _fill(buckets: Dict, pairs: Iterable[tuple]) -> Dict:
    """Add ``(join key, values)`` pairs to join-key buckets of value dicts —
    ready for the lazy merge of :func:`_probe`, never materialized."""
    setdefault = buckets.setdefault
    for key, values in pairs:
        if key is not MISSING:
            setdefault(key, []).append(values)
    return buckets


def _probe(ctx: ExecutionContext, seen: Optional[set], buckets: Dict,
           probe: Iterable[Iterable[tuple]],
           keep_unmatched: bool = False) -> Iterator[LazyBatch]:
    """The partner loop: each chunk of ``(join key, values)`` probe pairs
    merged with the rows of its key's bucket, through :func:`_distinct`.
    Only pairs that share a bucket count as ``join_pairs_considered``.
    With ``keep_unmatched`` a probe row without partners passes through in
    batches of its own, past ``seen``: no merged row can equal it."""
    stats = ctx.stats
    get = buckets.get  # no bucket is keyed MISSING
    unmatched: List[dict] = []
    for pairs in probe:
        merged: List[dict] = []
        append = merged.append
        for key, row_values in pairs:
            partners = get(key)
            if partners is None:
                if keep_unmatched:
                    unmatched.append(row_values)
                continue
            stats.join_pairs_considered += len(partners)
            for partner in partners:
                append(merge_values(row_values, partner))
        yield from _distinct(ctx, seen, merged)
        if len(unmatched) >= ctx.batch_size:  # a probe chunk is one batch at most
            yield LazyBatch(unmatched[:ctx.batch_size])
            del unmatched[:ctx.batch_size]
    yield from _distinct(ctx, None, unmatched)


def _budget_pieces(stream: Iterable[TupleBatch]) -> Iterator[TupleBatch]:
    """``stream``'s batches cut to at most ``CHUNK_RECORDS`` rows: a batch
    can hold a whole tiny input, and a spillable operator under a budget
    checks it once a piece, so its held state stays near the budget."""
    # imported on use: the governor package imports storage, which imports
    # the engine, which imports this module
    from repro.governor.spill import CHUNK_RECORDS

    for batch in stream:
        count = len(batch)
        if count <= CHUNK_RECORDS:
            yield batch
            continue
        for start in range(0, count, CHUNK_RECORDS):
            yield batch.take(range(start, min(start + CHUNK_RECORDS, count)))


def _partitions(ctx: ExecutionContext, label: str):
    """A fresh :class:`~repro.governor.spill.GracePartitioner` of this
    query's spill directory."""
    from repro.governor.spill import GracePartitioner

    return GracePartitioner(ctx.governor.spill_manager(), label)


class HashJoin(_Binary):
    """⋈ by build/probe over batch columns.

    The right input is the build side (the planner puts the smaller estimated
    input there).  Partitioning is *guard-aware*: variant records not defined on
    every join attribute are set aside during build/probe — they cannot join, so
    they cost one guard check each instead of a join pair per combination.  Only
    pairs that share a hash bucket count as ``join_pairs_considered``, which is
    exactly the work the algorithm performs.

    The probe loop zips probe-side and build-side value dicts into merged dicts
    — disagreement on shared non-join attributes raises eagerly — and
    :func:`_distinct` emits them as :class:`LazyBatch` chunks, however many
    build partners a probe batch matches; the merged ``FlexTuple``s
    themselves are built only when the rows reach the result set or an
    operator that needs row objects.

    Under a memory budget with spilling allowed, a build that outgrows it
    turns grace: its buckets and the rest of the build side go to a
    :class:`~repro.governor.spill.GracePartitioner`, the probe side follows,
    and each partition is built and probed by the same partner loop.
    Matching keys share a partition and a merged row determines its join
    key, so no duplicate crosses partitions and each one keeps a ``seen``
    set of its own.  Every counter matches the in-memory run.

    ``on=None`` joins on the attributes appearing on both sides of the
    *data*, so both inputs are materialized to discover them — which is why
    that join cannot spill and fails fast under a memory budget.  With
    no join attribute at all every pair shares the one bucket.

    ``keep_unmatched_probe`` makes it a merge stage of the multiway join (set
    by lowering only): a probe row lacking a join attribute or missing every
    bucket passes through unchanged — under a grace spill the former as the
    probe side is partitioned, the latter per partition.
    """

    name = "batch-hash-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, on=None,
                 keep_unmatched_probe: bool = False):
        super().__init__(left, right)
        self.on = attrset(on) if on is not None else None
        self.keep_unmatched_probe = keep_unmatched_probe

    def label(self) -> str:
        label = "hash-join[on={}".format(self.on if self.on is not None else "shared")
        return label + (", keep-unmatched]" if self.keep_unmatched_probe else "]")

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        if self.on is None:
            right_set = self._materialize(ctx, op, right)
            left_set = self._materialize(ctx, op, left)
            names = [a.name for a in _shared_attributes(left_set, right_set)]
            left = map(TupleBatch, self._chunks(ctx, left_set))
            right = map(TupleBatch, self._chunks(ctx, right_set))
        else:
            names = [a.name for a in self.on]
        stats = ctx.stats
        buckets: Dict = {}
        build = None  # the build side's partitions, once it outgrew the budget
        for pairs in _keyed(stats, _budget_pieces(right) if ctx.budgeted else right, names):
            if build is not None:
                build.extend(_joinable(pairs))
                continue
            _fill(buckets, pairs)
            if not ctx.budgeted:
                continue
            if self.on is None:
                ctx.enforce_memory(op, sampled_size(buckets))
            elif ctx.over_budget(op, sampled_size(buckets)):
                ctx.governor.spill_manager().note_spill()
                build = _partitions(ctx, "join-build")
                build.extend((key, values) for key, rows in buckets.items()
                             for values in rows)
                buckets = None
        keep = self.keep_unmatched_probe
        if build is None:
            op.note_memory(sampled_size(buckets))
            seen = self._seen()
            yield from _probe(ctx, seen, buckets, _keyed(stats, left, names), keep)
            _note_seen(ctx, op, seen)
            return
        probe = _partitions(ctx, "join-probe")
        for pairs in _keyed(stats, left, names):
            if keep:
                pairs = list(pairs)
                yield from _distinct(ctx, None, [values for key, values in pairs
                                                 if key is MISSING])
            probe.extend(_joinable(pairs))
        build.finish()
        probe.finish()
        for index in range(build.partitions):
            buckets = _fill({}, build.segment(index))
            # accounting only: grace holds ~budget + one partition's buckets
            op.note_memory(sampled_size(buckets))
            seen = self._seen()  # a duplicate never crosses partitions
            yield from _probe(ctx, seen, buckets,
                              self._chunks(ctx, probe.segment(index)), keep)
            _note_seen(ctx, op, seen)


class IndexLookupJoin(PhysicalOperator):
    """⋈ by probing a maintained hash index of a base relation per outer tuple.

    The inner side is a :class:`Scan` of one base relation: bare, or with the
    guard and predicate that lowering pushes into a selection / type-guard
    chain over that relation.  The statistics-informed planner chooses this
    operator when the join attributes are known statically, the inner base
    relation's engine-maintained hash index covers (a subset of) them, and
    the *estimated* outer cardinality is small against that relation: the
    inner relation is then never scanned at all — only the index buckets
    matching outer tuples are read, which is the plan-level payoff of
    knowing that a rare variant tag leaves few outer tuples.

    Per outer batch, the bucket partners that agree with their outer tuple on
    every join attribute (the index may cover only some) pass through the
    inner scan's guard and predicate in one compiled pass, under
    ``ctx.params``, counted as the scan counts them (a guard check each, a
    predicate evaluation each past the guard).  Each partner that passes
    counts one ``join_pairs_considered`` — exactly the pairs a
    :class:`HashJoin` over the filtered inner examines.  Outer tuples lacking
    a join attribute cost one guard check (they can never join).  The outer
    side is read as batch columns and the output is the same lazy column
    merge as :class:`HashJoin`'s.

    Without a usable index at execution time (a source that keeps no tables,
    or the index disappeared), the inner scan runs once as the build side of
    :class:`HashJoin`'s build and probe — identical results.
    """

    name = "batch-index-lookup-join"

    def __init__(self, outer: PhysicalOperator, inner: Scan, on):
        self.outer = outer
        self.children = (outer,)
        self.inner = inner
        self.relation = inner.relation
        self.on = attrset(on)
        if not self.on:
            raise AlgebraError("an index lookup join needs join attributes")
        self._on_names = self.on.names

    def label(self) -> str:
        inner = self.inner.label() if self.inner.filtered else self.relation
        return "index-lookup-join[{}, on={}]".format(inner, self.on)

    def _generate(self, ctx, op, outer) -> Iterator[TupleBatch]:
        on_names = self._on_names
        index = ctx.index_for(self.relation, self.on)
        stats = ctx.stats
        seen = self._seen()
        if index is None:
            # the inner scan's own books are not the plan's: it is no child
            inner = self.inner._generate(ctx, OperatorStats(self.inner.plan_label))
            buckets: Dict = {}
            for pairs in _keyed(stats, inner, on_names):
                _fill(buckets, pairs)
            ctx.enforce_memory(op, sampled_size(buckets))
            yield from _probe(ctx, seen, buckets, _keyed(stats, outer, on_names))
            _note_seen(ctx, op, seen)
            return
        bucket = index.bucket
        probe_names = index.names
        remaining = [name for name in on_names if name not in probe_names]
        filtered = self.inner.filtered
        for batch in outer:
            stats.guard_checks += len(batch)
            outer_rows: List[dict] = []
            partners: List[FlexTuple] = []
            for key, row_values in zip(_join_keys(batch, on_names), batch.values_list()):
                if key is MISSING:
                    continue
                for partner in bucket(tuple([row_values[name] for name in probe_names])):
                    if remaining and any(partner._values.get(name, MISSING) != row_values[name]
                                         for name in remaining):
                        continue
                    outer_rows.append(row_values)
                    partners.append(partner)
            if filtered and partners:
                indices = self.inner.select(ctx, TupleBatch(partners))
                outer_rows = [outer_rows[i] for i in indices]
                partners = [partners[i] for i in indices]
            stats.join_pairs_considered += len(partners)
            yield from _distinct(ctx, seen, [merge_values(row_values, partner._values)
                                             for row_values, partner in zip(outer_rows, partners)])
        _note_seen(ctx, op, seen)


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


def _analytic_label(name: str, parts: Sequence[str]) -> str:
    return "{}[{}]".format(name, ", ".join(parts))


class HashAggregateOp(_Unary):
    """γ — streaming hash aggregation with variant-aware ⊥-group routing.

    Consumes its input batch by batch, keeping only one accumulator state per
    group (the held state, not the input, is what ``peak_bytes`` accounts).
    Grouping keys, the NULL-vs-absent aggregate matrix and the output shape are
    the shared semantics of :mod:`repro.algebra.analytic` — identical to the
    naive evaluator by construction.

    Every input batch looks up its group ids (group columns), then makes one
    tight loop per input attribute over ``(group ids × its column)`` — see
    :class:`~repro.exec.compiled.CompiledAggregates`.  Outputs are value dicts
    (group outputs are pairwise distinct, so no hashes or dedup are needed)
    emitted as :class:`LazyBatch` chunks.

    Under a memory budget with spilling allowed, a group table that outgrows
    it is drained to 16 hash partitions as mergeable records
    (:meth:`CompiledAggregates.drain`) and starts empty; at the end each
    partition is absorbed by a fresh :class:`CompiledAggregates` and emitted.
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
        compiled = CompiledAggregates(self.group_by, self.specs)
        stats = ctx.stats
        partitions = None  # the groups' partitions, once they outgrew the budget
        for batch in _budget_pieces(child) if ctx.budgeted else child:
            stats.tuples_scanned += len(batch)
            compiled.update(batch)
            if ctx.budgeted and ctx.over_budget(op, compiled.held_bytes()):
                ctx.governor.spill_manager().note_spill()
                if partitions is None:
                    partitions = _partitions(ctx, "agg")
                partitions.extend(compiled.drain())
        op.note_memory(compiled.held_bytes())
        if partitions is None:
            yield from map(LazyBatch, self._chunks(ctx, compiled.results()))
            return
        partitions.extend(compiled.drain())
        partitions.finish()
        yield from map(LazyBatch, self._chunks(ctx, self._regrouped(op, partitions)))

    def _regrouped(self, op, partitions) -> Iterator[dict]:
        """The output rows of spilled groups, one partition at a time: its
        partial states absorbed by a fresh :class:`CompiledAggregates`."""
        for index in range(partitions.partitions):
            compiled = CompiledAggregates(self.group_by, self.specs)
            compiled.absorb(partitions.segment(index))
            if compiled.sizes:  # an empty partition holds no group, not ∅'s row
                op.note_memory(compiled.held_bytes())
                yield from compiled.results()


class SortOp(_Unary):
    """τ — full sort with bounded-materialization accounting.

    The input is a set, so the sort itself is result-identity; the operator
    exists as the full-materialization form of ``limit`` lowering (``limit``
    set) and as the physical counterpart of an order annotation.  It drains
    the *entire* input into parallel value-dict and hash lists (their
    ``sampled_size`` is what ``note_memory`` records — the contrast to
    :class:`TopKOp`'s bounded heap that E18 asserts on ``peak_bytes``), orders
    them by the shared :class:`CompiledOrder` and re-emits lazily.

    Under a memory budget with spilling allowed, lists that outgrow it are
    sorted and written as a run, and the emitted stream is
    :meth:`CompiledOrder.merge` over the runs and the sorted remainder —
    the same stream, as the order is total.
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
        stats = ctx.stats
        values: List[dict] = []
        hashes: List[int] = []
        runs = []  # sorted runs spilled to disk, once the rows outgrew the budget
        for batch in _budget_pieces(child) if ctx.budgeted else child:
            stats.tuples_scanned += len(batch)
            values.extend(batch.values_list())
            hashes.extend(batch.hashes_list())
            if ctx.budgeted and ctx.over_budget(
                    op, sampled_size(values) + sampled_size(hashes)):
                manager = ctx.governor.spill_manager()
                manager.note_spill()
                run = manager.create_segment("sort")
                run.extend((values[at], hashes[at]) for at in self.order.argsort(values))
                run.finish()
                runs.append(run)
                values, hashes = [], []
        op.note_memory(sampled_size(values) + sampled_size(hashes))
        order = self.order.argsort(values)
        if runs:
            # the compiled order is total, so the merge is the in-memory stream
            merged = self.order.merge(runs + [[(values[at], hashes[at]) for at in order]])
            for chunk in self._chunks(ctx, islice(merged, self.limit)):
                yield LazyBatch([pair[0] for pair in chunk], [pair[1] for pair in chunk])
            return
        if self.limit is not None:
            del order[self.limit:]
        for chunk in self._chunks(ctx, order):
            yield LazyBatch([values[position] for position in chunk],
                            [hashes[position] for position in chunk])


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
