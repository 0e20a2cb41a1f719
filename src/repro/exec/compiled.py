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
* :class:`CompiledGuard` — the type guard ``TG[X]`` as one narrowing pass per
  guarded attribute, each a scan of that attribute's column for ``MISSING``.
* :class:`CompiledAggregates` — γ as column-wise accumulation: each input
  attribute is read once a batch, by one accumulator that serves every
  aggregate over it.

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

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence

from repro.algebra.analytic import (
    _check_numeric,
    group_values,
    numeric_total,
    value_order_key,
)
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
from repro.model.batches import MISSING, TupleBatch

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


def _compile_presence(name: str) -> Narrower:
    """One attribute of a type guard: keep the rows that carry it."""
    def narrow(batch: TupleBatch, indices: Optional[Sequence[int]],
               params=()) -> List[int]:
        values = batch.column(name)
        if indices is None:
            return [i for i, value in enumerate(values) if value is not MISSING]
        return [i for i in indices if values[i] is not MISSING]

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
        return [_compile_presence(a.name) for a in predicate.attributes]
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

    One read of the attribute's column per batch replaces the per-tuple
    "attribute already present" check of :meth:`FlexTuple.extend` (the same
    error, raised on the batch containing the first offending tuple), and the
    output is a list of extended value dicts ready for a lazy batch — no tuples
    are built.
    """

    __slots__ = ("attribute", "value")

    def __init__(self, attribute: str, value):
        self.attribute = attribute
        self.value = value

    def transform(self, batch: TupleBatch) -> List[dict]:
        """Extended value dicts for every row of ``batch``."""
        name = self.attribute
        if any(value is not MISSING for value in batch.column(name)):
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


class _Ranked:
    """A held min or max that is no number — NaN, a string, a tuple, … —
    with its :func:`value_order_key`.

    As a group's bound it answers a number's native ``<``/``>`` with
    ``beaten``: a held min of this kind ranks after every number, so any
    number beats it; a held max does not.  :data:`_NOTHING` is the bound of
    a group that holds nothing yet, which every value beats.
    """

    __slots__ = ("order", "value", "beaten")

    def __init__(self, order, value, beaten: bool):
        self.order = order
        self.value = value
        self.beaten = beaten

    def __lt__(self, other) -> bool:
        return self.beaten

    __gt__ = __lt__


_NOTHING = _Ranked(None, MISSING, True)


def _rank(bounds, gid: int, value, order, minimum: bool) -> None:
    """``value``, of order key ``order``, against a group's held min or max
    (a held number or bool is its own bound, of key ``(1, number)``).
    Strict: among order-equal values the first one seen stays."""
    held = bounds[gid]
    held = held.order if held.__class__ is _Ranked else (1, held)
    if held is None or (order < held if minimum else order > held):
        # a bool ranks as the number it is, and is compared natively from now on
        bounds[gid] = value if order[0] == 1 else _Ranked(order, value, minimum)


def _offer(bounds, gid: int, value, minimum: bool) -> None:
    """One non-NULL value against a group's held min or max."""
    cls = value.__class__
    if cls is not int and (cls is not float or value != value):
        _rank(bounds, gid, value, value_order_key(value), minimum)
    elif value < bounds[gid] if minimum else value > bounds[gid]:
        bounds[gid] = value


def _held(bounds, gid: int):
    """A group's held min or max, ``MISSING`` when it holds none."""
    held = bounds[gid]
    return held.value if held.__class__ is _Ranked else held


class _AttributeColumns:
    """Every aggregate over one input attribute, in one pass over its column.

    Per group: whether the attribute appeared (``seen``), its non-NULL count
    (count(a), and the sum/avg denominator), and only what some spec over it
    reads — the exact int total and the float parts (sum/avg), the held min
    (``lows``), the held max (``highs``).  Floats are summed once, at
    finalize time, by :func:`~repro.algebra.analytic.numeric_total`, so the
    result does not depend on the order rows arrived in.  An ``int`` or
    non-NaN ``float`` is compared with a held number natively; only other
    values pay for :func:`value_order_key`.
    """

    __slots__ = ("attribute", "func", "seen", "non_null", "totals", "floats",
                 "lows", "highs")

    def __init__(self, attribute: str, funcs: Sequence[str]):
        self.attribute = attribute
        #: the sum/avg a non-numeric value is reported under (``funcs`` lists
        #: the attribute's sum/avg specs first, in spec order)
        self.func = funcs[0] if funcs[0] in ("sum", "avg") else None
        self.seen: List[bool] = []
        self.non_null: List[int] = []
        self.totals: Optional[List[int]] = [] if self.func else None
        self.floats: Optional[List[List[float]]] = [] if self.func else None
        self.lows: Optional[list] = [] if "min" in funcs else None
        self.highs: Optional[list] = [] if "max" in funcs else None

    def grow(self) -> None:
        self.seen.append(False)
        self.non_null.append(0)
        if self.totals is not None:
            self.totals.append(0)
            self.floats.append([])
        if self.lows is not None:
            self.lows.append(_NOTHING)
        if self.highs is not None:
            self.highs.append(_NOTHING)

    def update(self, gids, column) -> None:
        seen, non_null = self.seen, self.non_null
        totals, floats = self.totals, self.floats
        lows, highs = self.lows, self.highs
        extremes = lows is not None or highs is not None
        for gid, value in zip(gids, column):
            if value is MISSING:
                continue
            seen[gid] = True
            if value is None:
                continue
            non_null[gid] += 1
            cls = value.__class__
            if totals is not None:
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
            if not extremes:
                continue
            if cls is int or (cls is float and value == value):
                if lows is not None and value < lows[gid]:
                    lows[gid] = value
                if highs is not None and value > highs[gid]:
                    highs[gid] = value
            else:
                order = value_order_key(value)
                if lows is not None:
                    _rank(lows, gid, value, order, True)
                if highs is not None:
                    _rank(highs, gid, value, order, False)

    def state(self, gid: int) -> tuple:
        """One group's partial state: seen, non-NULL count, int total, float
        parts, held min and held max (``MISSING`` where nothing is held)."""
        summed = self.totals is not None
        return (self.seen[gid], self.non_null[gid],
                self.totals[gid] if summed else 0, self.floats[gid] if summed else (),
                MISSING if self.lows is None else _held(self.lows, gid),
                MISSING if self.highs is None else _held(self.highs, gid))

    def absorb(self, gid: int, state) -> None:
        seen, non_null, total, floats, low, high = state
        self.seen[gid] = self.seen[gid] or seen
        self.non_null[gid] += non_null
        if self.totals is not None:
            self.totals[gid] += total
            self.floats[gid].extend(floats)
        if low is not MISSING:
            _offer(self.lows, gid, low, True)
        if high is not MISSING:
            _offer(self.highs, gid, high, False)

    def finalize(self, func: str, gid: int):
        if func == "count":
            return self.non_null[gid]
        if not self.seen[gid]:
            return MISSING  # the attribute never appeared: output is absent
        if func == "min" or func == "max":
            best = _held(self.lows if func == "min" else self.highs, gid)
            return None if best is MISSING else best
        count = self.non_null[gid]
        if not count:
            return None  # appeared, but only as NULL
        total = numeric_total(self.totals[gid], self.floats[gid])
        return total / count if func == "avg" else total


class CompiledAggregates:
    """γ compiled to batch column-wise accumulation.

    Per input batch the dense group ids are looked up in C (single-key groups
    probe the raw column, multi-key groups a zipped key tuple; absent stays
    the ``MISSING`` sentinel, which *is* the ⊥ routing), with a second pass
    only for new keys, and count()'s per-group row counts come from one
    :class:`~collections.Counter`.  Then one accumulator per input attribute
    makes one loop over ``(group ids × its column)`` for every spec over it.
    Semantics are exactly those of
    :class:`~repro.algebra.analytic.AggregateAccumulator`.

    A spilling aggregate drains the groups as ``(key, rows, states)`` records
    (:meth:`drain`, one partial state per attribute) and a fresh instance
    absorbs them back (:meth:`absorb`), so groups accumulated in any number
    of slices finalize to what one uninterrupted accumulation gives.
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
        # sum/avg specs first: the accumulators run in the order of their
        # attribute's first sum/avg, so a non-numeric value raises the error
        # a spec-at-a-time loop would
        funcs: dict = {}
        for spec in sorted(self.specs, key=lambda spec: spec.func not in ("sum", "avg")):
            if spec.attribute is not None:
                funcs.setdefault(spec.attribute, []).append(spec.func)
        self._columns = {name: _AttributeColumns(name, names)
                         for name, names in funcs.items()}

    def _grow(self, key) -> int:
        gid = len(self.sizes)
        self.key_to_gid[key] = gid
        self.sizes.append(0)
        for column in self._columns.values():
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
            gids = list(map(get, keys))
            if None in gids:  # new keys take the next ids, in row order
                for at, gid in enumerate(gids):
                    if gid is None:
                        key = keys[at]
                        gid = get(key)
                        gids[at] = self._grow(key) if gid is None else gid
            for gid, rows in Counter(gids).items():
                sizes[gid] += rows
        for name, column in self._columns.items():
            column.update(gids, batch.column(name))

    def held_bytes(self) -> int:
        """The sampled size of the group table (what ``peak_bytes`` records)."""
        return sampled_size(self.key_to_gid) + sampled_size(self.sizes)

    def drain(self) -> List[tuple]:
        """Every group as a ``(key, rows, states)`` record — its row count and
        one partial state per input attribute — leaving this instance empty."""
        sizes, columns = self.sizes, list(self._columns.values())
        records = [(key, sizes[gid], [column.state(gid) for column in columns])
                   for key, gid in self.key_to_gid.items()]
        self._reset()
        return records

    def absorb(self, records: Iterable[tuple]) -> None:
        """Merge records of :meth:`drain` into the groups of their keys."""
        get = self.key_to_gid.get
        sizes, columns = self.sizes, list(self._columns.values())
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
        outputs = [(spec.output, spec.func, self._columns.get(spec.attribute))
                   for spec in self.specs]
        out = []
        for key, gid in self.key_to_gid.items():
            row = group_values(key, names)
            for output, func, column in outputs:
                value = sizes[gid] if column is None else column.finalize(func, gid)
                if value is not MISSING:
                    row[output] = value
            if row:
                out.append(row)
        return out

    def __repr__(self) -> str:
        return "CompiledAggregates(group={}, specs={})".format(
            self.group_names, self.specs)


class CompiledGuard:
    """A type guard compiled to one presence pass per guarded attribute: a wide
    guard narrows one column at a time, as a one-attribute guard does."""

    __slots__ = ("names", "_passes")

    def __init__(self, attributes):
        self.names = [a.name for a in attrset(attributes)]
        self._passes = [_compile_presence(name) for name in self.names]

    def select(self, batch: TupleBatch,
               indices: Optional[Sequence[int]] = None) -> List[int]:
        for narrow in self._passes:
            indices = narrow(batch, indices)
        if indices is None:
            return list(range(len(batch)))
        return indices if isinstance(indices, list) else list(indices)

    def __repr__(self) -> str:
        return "CompiledGuard({})".format(self.names)
