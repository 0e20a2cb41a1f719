"""One-time compilation of selection predicates and type guards to batch closures.

Interpreting a :class:`~repro.algebra.predicates.Predicate` tree per tuple
re-resolves attribute names, re-looks-up the comparison operator and
re-dispatches through the predicate class hierarchy on every evaluation.
This module performs that structural work **once per plan node** and produces a
closure that runs over the column arrays of a :class:`~repro.model.batches.TupleBatch`:

* :class:`CompiledPredicate` — ``select(batch, indices, params)`` returns the
  indices of the rows satisfying the predicate, narrowing an optional candidate
  list (``None`` means "all rows"); a comparison against a
  :class:`~repro.algebra.predicates.Parameter` reads its constant from
  ``params`` on every call, so one compiled template serves every binding.
  Conjunctions compile into a chain of narrowing
  passes over a selection vector; ``TRUE``/``FALSE`` operands are constant-folded
  away at compile time; comparisons run as tight loops over one column with the
  ``operator``-module function resolved ahead of time.
* :class:`CompiledGuard` — the type guard ``TG[X]`` as a bitmap test: AND the
  presence bitmaps of the guarded attributes, then enumerate the set bits.

Semantics are identical to interpreted evaluation (the differential parity suite
enforces it): a comparison over a ``MISSING`` value is false, a ``TypeError``
from an incomparable pair is false, any other exception propagates.  The
comparison loops optimistically run without a per-row ``try`` and redo the batch
carefully only when a ``TypeError`` actually occurs — mixed-type columns are the
exception, not the rule.

Every other predicate — ``OR``, ``NOT``, attribute comparisons, user-defined
subclasses — runs the reference interpreter, ``predicate.evaluate(row)`` per
row object under the parameter binding, so compilation never changes what a
plan can express and the two cannot drift apart.
"""

from __future__ import annotations

from math import fsum
from typing import Callable, Iterable, List, Optional, Sequence

from repro.algebra.analytic import _check_numeric, group_values, value_order_key
from repro.algebra.predicates import (
    _OPERATORS,
    And,
    Comparison,
    FalsePredicate,
    Predicate,
    PresencePredicate,
    TruePredicate,
)
from repro.errors import TupleError
from repro.exec.context import sampled_size
from repro.model.attributes import attrset
from repro.model.batches import MISSING, TupleBatch, mask_indices

#: a narrowing pass: (batch, candidate indices or None, params) -> surviving indices
Narrower = Callable[[TupleBatch, Optional[Sequence[int]], Sequence], List[int]]


def _candidates(batch: TupleBatch, indices: Optional[Sequence[int]]):
    return range(len(batch)) if indices is None else indices


# -- narrowing passes --------------------------------------------------------------------


def _compile_comparison(predicate: Comparison) -> Narrower:
    name = next(iter(predicate.attribute)).name
    op = _OPERATORS[predicate.op]

    def narrow(batch: TupleBatch, indices: Optional[Sequence[int]], params) -> List[int]:
        values = batch.column(name)
        constant = predicate.constant(params)
        try:
            if indices is None:
                return [i for i, value in enumerate(values)
                        if value is not MISSING and op(value, constant)]
            return [i for i in indices
                    if values[i] is not MISSING and op(values[i], constant)]
        except TypeError:
            candidates = _candidates(batch, indices)
            # A mixed-type column hit an incomparable pair: redo this batch with
            # the per-row guard (that row is simply false, as when interpreted).
            survivors: List[int] = []
            append = survivors.append
            for i in candidates:
                value = values[i]
                if value is MISSING:
                    continue
                try:
                    if op(value, constant):
                        append(i)
                except TypeError:
                    pass
            return survivors

    return narrow


def _compile_presence(names: List[str]) -> Narrower:
    def narrow(batch: TupleBatch, indices: Optional[Sequence[int]],
               params=()) -> List[int]:
        if len(names) == 1:
            values = batch.column(names[0])
            if indices is None:
                return [i for i, value in enumerate(values) if value is not MISSING]
            return [i for i in indices if values[i] is not MISSING]
        mask = batch.presence_mask(names)
        if indices is None:
            if mask == batch.full_mask:
                return list(range(len(batch)))
            return mask_indices(mask)
        return [i for i in indices if (mask >> i) & 1]

    return narrow


def _compile_rowwise(predicate: Predicate) -> Narrower:
    """The reference semantics, :meth:`Predicate.evaluate`, per row object —
    under the binding substituted, as ``evaluate`` reads constants as is."""
    def narrow(batch: TupleBatch, indices: Optional[Sequence[int]], params) -> List[int]:
        evaluate = predicate.substitute(params).evaluate
        rows = batch.rows
        return [i for i in _candidates(batch, indices) if evaluate(rows[i])]

    return narrow


def _compile(predicate: Predicate) -> List[Narrower]:
    """Compile a predicate into a chain of narrowing passes (constant-folded)."""
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        passes: List[Narrower] = []
        for operand in predicate.operands:
            if isinstance(operand, FalsePredicate):
                return [lambda batch, indices, params: []]
            passes.extend(_compile(operand))
        return passes
    if isinstance(predicate, FalsePredicate):
        return [lambda batch, indices, params: []]
    if isinstance(predicate, Comparison):
        return [_compile_comparison(predicate)]
    if isinstance(predicate, PresencePredicate):
        return [_compile_presence([a.name for a in predicate.attributes])]
    return [_compile_rowwise(predicate)]


class CompiledPredicate:
    """A predicate compiled once into narrowing passes over batch columns."""

    __slots__ = ("predicate", "_passes")

    def __init__(self, predicate: Predicate):
        self.predicate = predicate
        self._passes = _compile(predicate)

    def select(self, batch: TupleBatch,
               indices: Optional[Sequence[int]] = None, params=()) -> List[int]:
        """Indices of the rows (among ``indices``, or all) satisfying the
        predicate under the parameter binding ``params``."""
        for narrow in self._passes:
            indices = narrow(batch, indices, params)
            if not indices:
                return indices if isinstance(indices, list) else list(indices)
        if indices is None:
            return list(range(len(batch)))
        return indices if isinstance(indices, list) else list(indices)

    def __repr__(self) -> str:
        return "CompiledPredicate({!r}, passes={})".format(self.predicate, len(self._passes))


class CompiledExtension:
    """The ε operator compiled to a whole-batch value-dict transform.

    One presence-bitmap test per batch replaces the per-tuple "attribute already
    present" check of :meth:`FlexTuple.extend` (the same error, raised on the
    batch containing the first offending tuple), and the output is a list of
    extended value dicts ready for a lazy batch — no tuples are built.
    """

    __slots__ = ("attribute", "value")

    def __init__(self, attribute: str, value):
        self.attribute = attribute
        self.value = value

    def transform(self, batch: TupleBatch) -> List[dict]:
        """Extended value dicts for every row of ``batch``."""
        name = self.attribute
        if batch.column_mask(name):
            raise TupleError("attribute {!r} already present".format(name))
        # An unhashable tag value can never form a FlexTuple; fail on the first
        # batch, exactly where an eager construction would.
        hash(self.value)
        value = self.value
        out = []
        append = out.append
        for values in batch.values_list():
            extended = dict(values)
            extended[name] = value
            append(extended)
        return out

    def __repr__(self) -> str:
        return "CompiledExtension({}:{!r})".format(self.attribute, self.value)


class CompiledRename:
    """The ρ operator compiled to a per-row value-dict transform.

    The mapping is resolved once; each row becomes a new value dict with the
    renamed keys, built in sorted attribute order — the same iteration order as
    :meth:`FlexTuple.items`, so a mapping collapsing two attributes onto one
    target keeps :class:`FlexTuple`'s last-writer-wins semantics.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def transform_row(self, values: dict) -> dict:
        mapping = self.mapping
        renamed = {mapping.get(name, name): value for name, value in values.items()}
        if len(renamed) == len(values):
            return renamed
        # Colliding targets: rebuild in sorted order for last-writer-wins.
        return {mapping.get(name, name): values[name] for name in sorted(values)}

    def __repr__(self) -> str:
        return "CompiledRename({})".format(self.mapping)


class _CountStarColumns:
    """count() — answered entirely by the shared per-group row counts."""

    __slots__ = ()

    def grow(self) -> None:
        pass

    def update(self, gids, batch) -> None:
        pass

    def state(self, gid: int):
        return None

    def absorb(self, gid: int, state) -> None:
        pass

    def finalize(self, gid: int, sizes):
        return sizes[gid]


class _CountAttrColumns:
    """count(a) — present and non-NULL rows per group, one column pass."""

    __slots__ = ("attribute", "counts")

    def __init__(self, attribute: str):
        self.attribute = attribute
        self.counts: List[int] = []

    def grow(self) -> None:
        self.counts.append(0)

    def update(self, gids, batch) -> None:
        counts = self.counts
        for gid, value in zip(gids, batch.column(self.attribute)):
            if value is not MISSING and value is not None:
                counts[gid] += 1

    def state(self, gid: int):
        return self.counts[gid]

    def absorb(self, gid: int, state) -> None:
        self.counts[gid] += state

    def finalize(self, gid: int, sizes):
        return self.counts[gid]


class _SumColumns:
    """sum/avg — exact integer totals plus collected floats per group.

    Floats are summed once at finalize time with :func:`math.fsum`, so the
    result does not depend on the order rows arrived in — the property that
    keeps the three engines bit-identical on float columns.
    """

    __slots__ = ("func", "attribute", "totals", "floats", "non_null", "seen")

    def __init__(self, func: str, attribute: str):
        self.func = func
        self.attribute = attribute
        self.totals: List[int] = []
        self.floats: List[List[float]] = []
        self.non_null: List[int] = []
        self.seen: List[bool] = []

    def grow(self) -> None:
        self.totals.append(0)
        self.floats.append([])
        self.non_null.append(0)
        self.seen.append(False)

    def update(self, gids, batch) -> None:
        totals, floats = self.totals, self.floats
        non_null, seen = self.non_null, self.seen
        for gid, value in zip(gids, batch.column(self.attribute)):
            if value is MISSING:
                continue
            seen[gid] = True
            if value is None:
                continue
            cls = value.__class__
            if cls is int:
                totals[gid] += value
            elif cls is float:
                floats[gid].append(value)
            else:
                _check_numeric(self.func, self.attribute, value)
                if isinstance(value, float):
                    floats[gid].append(value)
                else:
                    totals[gid] += value
            non_null[gid] += 1

    def state(self, gid: int):
        return (self.totals[gid], self.floats[gid], self.non_null[gid], self.seen[gid])

    def absorb(self, gid: int, state) -> None:
        total, floats, non_null, seen = state
        self.totals[gid] += total
        self.floats[gid].extend(floats)
        self.non_null[gid] += non_null
        self.seen[gid] = self.seen[gid] or seen

    def finalize(self, gid: int, sizes):
        if not self.seen[gid]:
            return MISSING
        count = self.non_null[gid]
        if not count:
            return None
        total = self.totals[gid]
        parts = self.floats[gid]
        if parts:
            total = total + fsum(parts)
        return total / count if self.func == "avg" else total


class _MinMaxColumns:
    """min/max — best value per group under the cross-type total order."""

    __slots__ = ("attribute", "minimum", "best", "best_keys", "seen")

    def __init__(self, func: str, attribute: str):
        self.attribute = attribute
        self.minimum = func == "min"
        self.best: List[object] = []
        self.best_keys: List[object] = []
        self.seen: List[bool] = []

    def grow(self) -> None:
        self.best.append(None)
        self.best_keys.append(None)
        self.seen.append(False)

    def update(self, gids, batch) -> None:
        best, best_keys, seen = self.best, self.best_keys, self.seen
        minimum = self.minimum
        for gid, value in zip(gids, batch.column(self.attribute)):
            if value is MISSING:
                continue
            seen[gid] = True
            if value is None:
                continue
            order = value_order_key(value)
            current = best_keys[gid]
            if current is None or (order < current if minimum else order > current):
                best[gid] = value
                best_keys[gid] = order

    def state(self, gid: int):
        return (self.best[gid], self.best_keys[gid], self.seen[gid])

    def absorb(self, gid: int, state) -> None:
        value, order, seen = state
        current = self.best_keys[gid]
        if order is not None and (current is None or (
                order < current if self.minimum else order > current)):
            self.best[gid] = value
            self.best_keys[gid] = order
        self.seen[gid] = self.seen[gid] or seen

    def finalize(self, gid: int, sizes):
        if not self.seen[gid]:
            return MISSING
        if self.best_keys[gid] is None:
            return None
        return self.best[gid]


class CompiledAggregates:
    """γ compiled to batch column-wise accumulation.

    Per input batch: one pass assigns every row a dense group id (single-key
    groups probe the raw column, multi-key groups a zipped key tuple — absent
    stays the ``MISSING`` sentinel, which *is* the ⊥ routing), then each
    aggregate spec runs one tight loop over ``(group ids × its column)`` into
    parallel per-group state arrays.  Semantics are exactly those of
    :class:`~repro.algebra.analytic.AggregateAccumulator`; only the bookkeeping
    is column-at-a-time.

    A spilling aggregate drains the groups as ``(key, rows, states)``
    records (:meth:`drain`) and a fresh instance absorbs them back
    (:meth:`absorb`): each spec's
    column class hands out one group's partial state and merges one in, so
    groups accumulated in any number of slices finalize to what one
    uninterrupted accumulation gives.
    """

    __slots__ = ("group_names", "specs", "key_to_gid", "sizes", "_columns")

    def __init__(self, group_by, specs):
        self.group_names = list(group_by)
        self.specs = list(specs)
        self._reset()

    def _reset(self) -> None:
        self.key_to_gid: dict = {}
        #: rows per group — the shared denominator count() reads
        self.sizes: List[int] = []
        self._columns = [self._compile_spec(spec) for spec in self.specs]

    @staticmethod
    def _compile_spec(spec):
        if spec.func == "count":
            if spec.attribute is None:
                return _CountStarColumns()
            return _CountAttrColumns(spec.attribute)
        if spec.func in ("sum", "avg"):
            return _SumColumns(spec.func, spec.attribute)
        return _MinMaxColumns(spec.func, spec.attribute)

    def _grow(self, key) -> int:
        gid = len(self.sizes)
        self.key_to_gid[key] = gid
        self.sizes.append(0)
        for column in self._columns:
            column.grow()
        return gid

    def update(self, batch: TupleBatch) -> None:
        count = len(batch)
        if not count:
            return
        names = self.group_names
        sizes = self.sizes
        if not names:
            if not sizes:
                self._grow(())
            sizes[0] += count
            gids: Sequence[int] = [0] * count
        else:
            if len(names) == 1:
                keys = batch.column(names[0])
            else:
                keys = list(zip(*(batch.column(name) for name in names)))
            get = self.key_to_gid.get
            gids = []
            append = gids.append
            for key in keys:
                gid = get(key)
                if gid is None:
                    gid = self._grow(key)
                sizes[gid] += 1
                append(gid)
        for column in self._columns:
            column.update(gids, batch)

    def held_bytes(self) -> int:
        """The sampled size of the group table (what ``peak_bytes`` records)."""
        return sampled_size(self.key_to_gid) + sampled_size(self.sizes)

    def drain(self) -> List[tuple]:
        """Every group as a ``(key, rows, states)`` record — its row count and
        one partial state per spec — leaving this instance empty."""
        sizes, columns = self.sizes, self._columns
        records = [(key, sizes[gid], [column.state(gid) for column in columns])
                   for key, gid in self.key_to_gid.items()]
        self._reset()
        return records

    def absorb(self, records: Iterable[tuple]) -> None:
        """Merge records of :meth:`drain` into the groups of their keys."""
        get = self.key_to_gid.get
        sizes, columns = self.sizes, self._columns
        for key, rows, states in records:
            gid = get(key)
            if gid is None:
                gid = self._grow(key)
            sizes[gid] += rows
            for column, state in zip(columns, states):
                column.absorb(gid, state)

    def results(self) -> List[dict]:
        """One output value dict per group (⊥ keys and absent outputs omitted,
        empty dicts dropped) — ready for a :class:`LazyBatch`."""
        names = self.group_names
        sizes = self.sizes
        if not sizes and not names:
            row = {spec.output: 0 for spec in self.specs if spec.func == "count"}
            return [row] if row else []
        pairs = list(zip(self.specs, self._columns))
        out = []
        for key, gid in self.key_to_gid.items():
            row = group_values(key, names)
            for spec, column in pairs:
                value = column.finalize(gid, sizes)
                if value is not MISSING:
                    row[spec.output] = value
            if row:
                out.append(row)
        return out

    def __repr__(self) -> str:
        return "CompiledAggregates(group={}, specs={})".format(
            self.group_names, self.specs)


class CompiledGuard:
    """A type guard compiled to a presence test over batch columns
    (single-attribute guards scan one value array, wider guards AND bitmaps)."""

    __slots__ = ("names", "_narrow")

    def __init__(self, attributes):
        self.names = [a.name for a in attrset(attributes)]
        self._narrow = _compile_presence(self.names)

    def mask(self, batch: TupleBatch) -> int:
        """Bitmap of the rows satisfying the guard."""
        return batch.presence_mask(self.names)

    def select(self, batch: TupleBatch,
               indices: Optional[Sequence[int]] = None) -> List[int]:
        return self._narrow(batch, indices)

    def __repr__(self) -> str:
        return "CompiledGuard({})".format(self.names)
