"""Vectorized (batch-at-a-time) forms of every physical operator.

Each class here subclasses its row-engine counterpart from
:mod:`repro.exec.operators` — plans mix both modes freely, ``isinstance`` checks
written against the row classes keep working, and ``explain`` labels stay
comparable — but the ``_generate`` implementations process whole
:class:`~repro.model.batches.TupleBatch` objects instead of touching tuples one
at a time:

* predicates and type guards are compiled **once per plan node**
  (:mod:`repro.exec.compiled`) and run as tight loops / bitmap tests over column
  arrays;
* the :class:`~repro.algebra.evaluator.ExecutionStats` counters are maintained
  in bulk (``+= len(batch)``) with exactly the per-tuple semantics the row
  engine documents — the totals are identical, only the bookkeeping is
  amortized;
* hash-join build and probe read the join columns as flat arrays, so the
  per-tuple ``is_defined_on``/key-construction machinery disappears from the
  inner loops; variant records missing a join attribute are skipped via the
  presence bitmap and counted as guard checks, exactly like the row engine's
  guard-aware partitioning;
* **join output is lazy**: instead of eagerly constructing merged
  :class:`~repro.model.tuples.FlexTuple` objects, the probe loop zips build
  columns and probe columns into merged value dicts (conflicts and duplicates
  are still detected eagerly, on the dicts) and emits them as
  :class:`~repro.model.batches.LazyBatch` chunks — tuple materialization is
  deferred until rows cross into a row-mode operator, an interpreted
  predicate, or the final result set.  Extension, rename and projection are
  pure column/dict transforms and stay lazy the same way, so a chain of
  joins and reshapes over a filtered stream never builds tuples that a
  downstream operator drops;
* unions, difference, products and the multiway join — row-mode holdouts until
  this revision — have batch forms too (:class:`BatchMergeUnion`,
  :class:`BatchOuterUnion`, :class:`BatchDifference`, :class:`BatchExtension`,
  :class:`BatchRename`, :class:`BatchProduct`, :class:`BatchMultiwayJoin`), so
  whole realistic plans — outer unions over heterogeneous variant schemas,
  type-guard-driven extensions, n-way decomposition joins — run with
  ``plan.mode == "batch"``.  The unions and difference are set-semantics pinch
  points that dedup on the row objects themselves: their inputs are usually
  plain batches of already-built tuples (scans) whose cached hashes make that
  the cheapest exact check, so a *lazy* input batch is materialized there —
  laziness survives through filters, guards, projections, reshapes and further
  joins, not through union/difference dedup;
* the analytic operators have batch forms as well: :class:`BatchHashAggregate`
  accumulates column-wise through
  :class:`~repro.exec.compiled.CompiledAggregates` (bulk column reads per
  spec, presence handled via the value dicts' key sets),
  :class:`BatchSort` / :class:`BatchTopK` sort or heap-select ``(values,
  hash)`` pairs so result tuples rebuild with their hashes precomputed, and
  :class:`BatchSubqueryExtend` extends whole batches through a
  :class:`~repro.exec.compiled.CompiledExtension` built once from the scalar
  subquery's value.

The only remaining row fallbacks are the natural join whose attribute set is
data-dependent (``on=None`` — both sides must be materialized to discover the
shared attributes) and the nested-loop join the planner picks for provably tiny
inputs; batches and row lists interoperate in both directions.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.algebra.evaluator import _resolve_relation
from repro.errors import AlgebraError
from repro.exec.context import sampled_size
from repro.algebra.analytic import AggregateAccumulator
from repro.exec.compiled import (
    CompiledAggregates,
    CompiledExtension,
    CompiledGuard,
    CompiledPredicate,
    CompiledRename,
)
from repro.exec.operators import (
    _NO_VALUE,
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
    OuterUnionOp,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
    TopKOp,
)
from repro.model.batches import LazyBatch, MISSING, TupleBatch, merge_values
from repro.model.tuples import FlexTuple


class BatchEmptyOp(EmptyOp):
    """The ∅ leaf inside vectorized plans (emits nothing, in either mode)."""

    name = "batch-empty"
    vectorized = True


class BatchScan(Scan):
    """Index-aware scan emitting :class:`TupleBatch` chunks with compiled filters."""

    name = "batch-scan"
    vectorized = True

    def __init__(self, relation, predicate=None, guard=None, equalities=None):
        super().__init__(relation, predicate=predicate, guard=guard,
                         equalities=equalities)
        self._compiled_guard = (CompiledGuard(self.guard)
                                if self.guard is not None else None)
        self._compiled = (CompiledPredicate(self.predicate)
                          if self.predicate is not None else None)

    def _generate(self, ctx, op) -> Iterator[TupleBatch]:
        op.invocations += 1
        picked = self._pick_index(ctx)
        if picked is not None:
            index, probe = picked
            rows = list(index.lookup(probe))
        else:
            rows = list(_resolve_relation(ctx.source, self.relation))

        def emit() -> Iterator[TupleBatch]:
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
                op.rows_out += len(batch)
                op.batches_out += 1
                yield batch

        return emit()


class BatchFilter(FilterOp):
    """σ over batches: the predicate compiled once, applied as narrowing passes."""

    name = "batch-filter"
    vectorized = True

    def __init__(self, child, predicate):
        super().__init__(child, predicate)
        self._compiled = CompiledPredicate(predicate)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.predicate_evaluations += count
                indices = self._compiled.select(batch, None, ctx.params)
                if len(indices) != count:
                    if not indices:
                        continue
                    batch = batch.take(indices)
                op.rows_out += len(batch)
                op.batches_out += 1
                yield batch

        return emit()


class BatchGuard(GuardOp):
    """TG[X] over batches: one presence-bitmap AND per batch."""

    name = "batch-guard"
    vectorized = True

    def __init__(self, child, attributes):
        super().__init__(child, attributes)
        self._compiled = CompiledGuard(self.attributes)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.guard_checks += count
                indices = self._compiled.select(batch)
                if len(indices) != count:
                    if not indices:
                        continue
                    batch = batch.take(indices)
                op.rows_out += len(batch)
                op.batches_out += 1
                yield batch

        return emit()


class BatchProject(ProjectOp):
    """π over batches: projected value dicts built from pre-extracted columns.

    The output is a :class:`LazyBatch` — the (typically much smaller) projected
    tuples are only constructed when something downstream needs row objects.
    """

    name = "batch-project"
    vectorized = True

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1
        names = [a.name for a in self.attributes]

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            seen = set()
            add_seen = seen.add
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
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
                    op.rows_out += len(out_values)
                    op.batches_out += 1
                    yield LazyBatch(out_values, out_hashes)

        return emit()


class BatchExtension(ExtendOp):
    """ε over batches: one presence test per batch, extended value dicts out.

    Entirely a column/dict transform — no tuples are read or built; the
    extended rows travel as a :class:`LazyBatch`.
    """

    name = "batch-extend"
    vectorized = True

    def __init__(self, child, attribute, value):
        super().__init__(child, attribute, value)
        self._compiled = CompiledExtension(attribute, value)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                if not count:
                    continue
                op.rows_in += count
                stats.tuples_scanned += count
                values = self._compiled.transform(batch)
                op.rows_out += count
                op.batches_out += 1
                yield LazyBatch(values)

        return emit()


class BatchRename(RenameOp):
    """ρ over batches: renamed value dicts with hashed dedup (renames can collapse)."""

    name = "batch-rename"
    vectorized = True

    def __init__(self, child, mapping):
        super().__init__(child, mapping)
        self._compiled = CompiledRename(self.mapping)

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1
        transform = self._compiled.transform_row

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            seen = set()
            add_seen = seen.add
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.tuples_scanned += count
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
                    op.rows_out += len(out_values)
                    op.batches_out += 1
                    yield LazyBatch(out_values, out_hashes)

        return emit()


class _BatchUnion:
    """Shared implementation of the batch union forms (bulk counters, streamed
    dedup).  Mixed in before the row classes so their ``isinstance`` identity
    is preserved."""

    vectorized = True

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        op.invocations += 1

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            seen = set()
            add_seen = seen.add
            for stream in (left, right):
                for raw in stream:
                    batch = TupleBatch.of(raw)
                    count = len(batch)
                    op.rows_in += count
                    stats.tuples_scanned += count
                    out: List[FlexTuple] = []
                    append = out.append
                    for tup in batch.rows:
                        if tup not in seen:
                            add_seen(tup)
                            append(tup)
                    if out:
                        op.rows_out += len(out)
                        op.batches_out += 1
                        yield TupleBatch(out)

        return emit()


class BatchMergeUnion(_BatchUnion, MergeUnion):
    """∪ over batches: per-batch dedup against the running seen-set."""

    name = "batch-merge-union"


class BatchOuterUnion(_BatchUnion, OuterUnionOp):
    """The outer union restoring horizontal decompositions, batch form."""

    name = "batch-outer-union"


class BatchDifference(DifferenceOp):
    """− over batches: hashed right side, whole-batch membership filtering."""

    name = "batch-difference"
    vectorized = True

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        op.invocations += 1
        exclude = self._materialize(ctx, op, right)

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            for raw in left:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.tuples_scanned += count
                out = [tup for tup in batch.rows if tup not in exclude]
                if out:
                    op.rows_out += len(out)
                    op.batches_out += 1
                    yield TupleBatch(out)

        return emit()


class BatchProduct(ProductOp):
    """× over batches: value-dict merges, lazy output, bulk pair counting."""

    name = "batch-product"
    vectorized = True

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        op.invocations += 1
        build = [tup._values for tup in self._materialize(ctx, op, right)]
        ctx.enforce_memory(op, sampled_size(build))

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            size = ctx.batch_size
            seen = set()
            add_seen = seen.add
            out_values: List[dict] = []
            out_hashes: List[int] = []
            for raw in left:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.join_pairs_considered += count * len(build)
                for row_values in batch.values_list():
                    for partner in build:
                        merged = merge_values(row_values, partner)
                        key = frozenset(merged.items())
                        if key not in seen:
                            add_seen(key)
                            out_values.append(merged)
                            out_hashes.append(hash(key))
                            if len(out_values) >= size:
                                op.rows_out += len(out_values)
                                op.batches_out += 1
                                yield LazyBatch(out_values, out_hashes)
                                out_values, out_hashes = [], []
            if out_values:
                op.rows_out += len(out_values)
                op.batches_out += 1
                yield LazyBatch(out_values, out_hashes)

        return emit()


def _build_buckets(op, ctx, stream, names) -> Dict:
    """Drain a build-side batch stream into join-key buckets of value dicts.

    Rows lacking a join attribute are partitioned out via the presence bitmap
    and cost one guard check each (they can never join) — identical to the row
    engine's guard-aware partitioning.  Single-attribute joins key buckets by
    the bare value, multi-attribute joins by the value tuple.  The bucket
    payloads are the rows' plain value dicts — ready for the lazy column merge
    of the probe loop, never materialized when the build side was lazy.
    """
    stats = ctx.stats
    governed = (ctx.governor is not None
                and ctx.governor.memory_budget is not None)
    buckets: Dict = {}
    setdefault = buckets.setdefault
    single = len(names) == 1
    for raw in stream:
        batch = TupleBatch.of(raw)
        count = len(batch)
        op.rows_in += count
        stats.guard_checks += count
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
            # they drain through BatchHashJoin._generate_grace instead)
            ctx.enforce_memory(op, sampled_size(buckets))
    op.note_memory(sampled_size(buckets))
    return buckets


class BatchHashJoin(HashJoin):
    """⋈ by build/probe over batch columns (statically known join attributes).

    The probe loop zips probe-side and build-side value dicts into merged dicts
    — disagreement on shared non-join attributes raises eagerly, duplicates are
    dropped eagerly via hashed keys — and emits them as :class:`LazyBatch`
    chunks; the merged ``FlexTuple``s themselves are built only when the rows
    reach row-mode code or the result set.

    The natural-join case whose attribute set depends on the data (``on=None``)
    has no batch form — it must materialize both sides to discover the shared
    attributes — and stays on the row implementation.
    """

    name = "batch-hash-join"
    vectorized = True

    def __init__(self, left, right, on=None, lazy=True):
        super().__init__(left, right, on=on)
        if self.on is None or not len(self.on):
            raise AlgebraError("a batch hash join needs static join attributes")
        #: ``lazy=False`` materializes the merged tuples before emitting each
        #: batch — the pre-lazy behaviour, kept for A/B benchmarking ("core")
        self.lazy = lazy

    def _generate(self, ctx, op, left, right) -> Iterator[TupleBatch]:
        op.invocations += 1
        names = [a.name for a in self.on]
        budget = ctx.spill_budget()
        if budget is not None:
            return self._generate_grace(ctx, op, left, right, names, budget)
        buckets = _build_buckets(op, ctx, right, names)
        return self._probe_emit(ctx, op, left, names, buckets)

    def _probe_emit(self, ctx, op, left, names, buckets) -> Iterator[TupleBatch]:
        stats = ctx.stats
        get = buckets.get
        single = len(names) == 1
        seen = set()
        add_seen = seen.add
        for raw in left:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.guard_checks += count
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
                op.rows_out += len(out_values)
                op.batches_out += 1
                batch = LazyBatch(out_values, out_hashes)
                if not self.lazy:
                    batch.rows  # noqa: B018 — eager materialization (A/B baseline)
                yield batch

    def _generate_grace(self, ctx, op, left, right, names,
                        budget) -> Iterator[TupleBatch]:
        """Grace hash join under a memory budget (batch form).

        Identical algorithm to the row engine's
        :meth:`~repro.exec.operators.HashJoin._generate_grace`, carried out on
        plain value dicts: the build side is held in memory until the budget
        trips, then both sides hash-partition to spill segments and each
        partition builds/probes/dedups independently (merged rows carry the
        join key, so per-partition ``seen`` sets are globally correct).
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
        for raw in right:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.guard_checks += count
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
            return self._probe_emit(ctx, op, left, names, buckets)

        probe_part = GracePartitioner(manager, "join-probe")
        for raw in left:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.guard_checks += count
            for key, values in keyed(batch):
                probe_part.add(key, values)
        build_part.finish()
        probe_part.finish()

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
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
                            if len(out_values) >= size:
                                op.rows_out += len(out_values)
                                op.batches_out += 1
                                yield LazyBatch(out_values, out_hashes)
                                out_values, out_hashes = [], []
            if out_values:
                op.rows_out += len(out_values)
                op.batches_out += 1
                yield LazyBatch(out_values, out_hashes)

        return emit()


class BatchIndexLookupJoin(IndexLookupJoin):
    """⋈ probing a maintained hash index, with batch-column outer-side access
    and the same lazy column-merged output as :class:`BatchHashJoin`."""

    name = "batch-index-lookup-join"
    vectorized = True

    def __init__(self, outer, relation, on, lazy=True):
        super().__init__(outer, relation, on)
        #: see :class:`BatchHashJoin` — eager materialization for A/B baselines
        self.lazy = lazy

    def _generate(self, ctx, op, outer) -> Iterator[TupleBatch]:
        op.invocations += 1
        index = self._maintained_index(ctx)
        if index is not None:
            probe_attributes = index.attributes
            lookup = index.lookup
        else:
            # Degraded mode: one scan of the inner relation builds the buckets
            # (identical stats accounting to the row operator).
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

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            single = len(probe_names) == 1
            seen = set()
            add_seen = seen.add
            for raw in outer:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
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
                    op.rows_out += len(out_values)
                    op.batches_out += 1
                    batch = LazyBatch(out_values, out_hashes)
                    if not self.lazy:
                        batch.rows  # noqa: B018 — eager materialization (A/B baseline)
                    yield batch

        return emit()


class BatchMultiwayJoin(MultiwayJoinOp):
    """The multiway join restoring vertical decompositions, value-dict form.

    The master and each dependent fragment are drained into content-keyed dict
    tables (batch streams, bulk ``rows_in`` accounting); each merge stage then
    works purely on value dicts — master rows without a partner pass through
    unchanged, exactly like the row operator — and the final table is emitted
    as :class:`LazyBatch` chunks.  Across an n-way restoration this avoids
    building every intermediate merged ``FlexTuple`` once per stage.
    """

    name = "batch-multiway-join"
    vectorized = True

    def _generate(self, ctx, op, master, *fragments) -> Iterator[TupleBatch]:
        op.invocations += 1
        stats = ctx.stats
        on_names = [a.name for a in self.on]
        single = len(on_names) == 1
        on_name = on_names[0] if single else None

        def drain(stream):
            # Parallel (values, hashes) lists; every input stream is distinct
            # by the operator contract, so no content keys are rebuilt here.
            all_values: List = []
            all_hashes: List = []
            for raw in stream:
                batch = TupleBatch.of(raw)
                op.rows_in += len(batch)
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

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            for start in range(0, len(current_values), size):
                chunk_values = current_values[start:start + size]
                op.rows_out += len(chunk_values)
                op.batches_out += 1
                yield LazyBatch(chunk_values,
                                current_hashes[start:start + size])

        return emit()


class BatchHashAggregate(HashAggregateOp):
    """γ over batches: group ids and aggregate states updated column-at-a-time.

    Every input batch makes one key-extraction pass (group columns) and then
    one tight loop per aggregate spec over ``(group ids × spec column)`` — see
    :class:`~repro.exec.compiled.CompiledAggregates`.  Outputs are value dicts
    (group outputs are pairwise distinct, so no hashes or dedup are needed)
    emitted as :class:`LazyBatch` chunks.
    """

    name = "batch-hash-aggregate"
    vectorized = True

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1
        budget = ctx.spill_budget()
        if budget is not None:
            return self._generate_spilled(ctx, op, child, budget)
        compiled = CompiledAggregates(self.group_by, self.specs)
        stats = ctx.stats
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        for raw in child:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.tuples_scanned += count
            compiled.update(batch)
            if governed:
                ctx.enforce_memory(op, sampled_size(compiled.key_to_gid)
                                   + sampled_size(compiled.sizes))
        op.note_memory(sampled_size(compiled.key_to_gid)
                       + sampled_size(compiled.sizes))
        out_values = compiled.results()

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            for start in range(0, len(out_values), size):
                chunk = out_values[start:start + size]
                op.rows_out += len(chunk)
                op.batches_out += 1
                yield LazyBatch(chunk)

        return emit()

    def _generate_spilled(self, ctx, op, child, budget) -> Iterator[TupleBatch]:
        """γ under a memory budget: the row-style partition-and-merge
        aggregator over value dicts (the compiled column-at-a-time kernel has
        no partial-state eviction, so a budgeted run trades it away)."""
        from repro.governor.spill import SpillingAggregator

        accumulator = AggregateAccumulator(self.specs)
        spiller = SpillingAggregator(
            ctx.governor.spill_manager(), accumulator, self.group_by,
            budget, op.note_memory)
        stats = ctx.stats
        for raw in child:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.tuples_scanned += count
            for values in batch.values_list():
                spiller.add(values)
            spiller.maybe_spill()

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            chunk: List[dict] = []
            for values in spiller.results():
                chunk.append(values)
                if len(chunk) >= size:
                    op.rows_out += len(chunk)
                    op.batches_out += 1
                    yield LazyBatch(chunk)
                    chunk = []
            if chunk:
                op.rows_out += len(chunk)
                op.batches_out += 1
                yield LazyBatch(chunk)

        return emit()


class BatchSort(SortOp):
    """τ over batches: drained into parallel value-dict and hash lists,
    ordered by the shared :class:`CompiledOrder`, re-emitted lazily.  Like the
    row form it holds the entire input — the full-materialization
    ``peak_bytes`` contrast to :class:`BatchTopK`."""

    name = "batch-sort"
    vectorized = True

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1
        budget = ctx.spill_budget()
        if budget is not None:
            return self._generate_spilled(ctx, op, child, budget)
        stats = ctx.stats
        governed = (ctx.governor is not None
                    and ctx.governor.memory_budget is not None)
        values: List[dict] = []
        hashes: List[int] = []
        for raw in child:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.tuples_scanned += count
            values.extend(batch.values_list())
            hashes.extend(batch.hashes_list())
            if governed:
                ctx.enforce_memory(op, sampled_size(values) + sampled_size(hashes))
        op.note_memory(sampled_size(values) + sampled_size(hashes))
        order = self.order.argsort(values)
        if self.limit is not None:
            del order[self.limit:]

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            for start in range(0, len(order), size):
                chunk = order[start:start + size]
                op.rows_out += len(chunk)
                op.batches_out += 1
                yield LazyBatch([values[position] for position in chunk],
                                [hashes[position] for position in chunk])

        return emit()

    def _generate_spilled(self, ctx, op, child, budget) -> Iterator[TupleBatch]:
        """τ under a memory budget: batches drain into an external merge sort
        as ``(values, hash)`` pairs."""
        from itertools import islice

        from repro.governor.spill import ExternalSorter

        stats = ctx.stats
        sorter = ExternalSorter(ctx.governor.spill_manager(), self.order,
                                budget=budget, note=op.note_memory)
        for raw in child:
            batch = TupleBatch.of(raw)
            count = len(batch)
            op.rows_in += count
            stats.tuples_scanned += count
            sorter.extend(zip(batch.values_list(), batch.hashes_list()))
            sorter.maybe_spill()
        merged = sorter.merged()
        if self.limit is not None:
            merged = islice(merged, self.limit)

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            out_values: List[dict] = []
            out_hashes: List[int] = []
            for values, hash_ in merged:
                out_values.append(values)
                out_hashes.append(hash_)
                if len(out_values) >= size:
                    op.rows_out += len(out_values)
                    op.batches_out += 1
                    yield LazyBatch(out_values, out_hashes)
                    out_values, out_hashes = [], []
            if out_values:
                op.rows_out += len(out_values)
                op.batches_out += 1
                yield LazyBatch(out_values, out_hashes)

        return emit()


class BatchTopK(TopKOp):
    """λ∘τ over batches: the input streams through
    :meth:`CompiledOrder.top_k` as (values, hash) pairs — at most ``count``
    pairs held, same bounded ``peak_bytes`` guarantee as the row form."""

    name = "batch-top-k"
    vectorized = True

    def _generate(self, ctx, op, child) -> Iterator[TupleBatch]:
        op.invocations += 1
        stats = ctx.stats

        def pairs() -> Iterator[tuple]:
            for raw in child:
                batch = TupleBatch.of(raw)
                count = len(batch)
                op.rows_in += count
                stats.tuples_scanned += count
                yield from zip(batch.values_list(), batch.hashes_list())

        best = self.order.top_k(pairs(), self.count)
        ctx.enforce_memory(op, sampled_size(best))

        def emit() -> Iterator[TupleBatch]:
            size = ctx.batch_size
            for start in range(0, len(best), size):
                chunk = best[start:start + size]
                op.rows_out += len(chunk)
                op.batches_out += 1
                yield LazyBatch([pair[0] for pair in chunk],
                                [pair[1] for pair in chunk])

        return emit()


class BatchSubqueryExtend(SubqueryExtendOp):
    """ε (scalar subquery) over batches: the drain-child-then-subquery error
    ordering is inherited from the row operator; only the final extension pass
    is batch-wise — one presence test per batch, extended value dicts out."""

    name = "batch-subquery-extend"
    vectorized = True

    def _emit(self, ctx, op, batches, value) -> Iterator[TupleBatch]:
        compiled = (None if value is _NO_VALUE
                    else CompiledExtension(self.attribute, value))

        def emit() -> Iterator[TupleBatch]:
            stats = ctx.stats
            for raw in batches:
                batch = TupleBatch.of(raw)
                count = len(batch)
                if not count:
                    continue
                stats.tuples_scanned += count
                op.rows_out += count
                op.batches_out += 1
                if compiled is None:
                    yield batch
                else:
                    yield LazyBatch(compiled.transform(batch))

        return emit()
