"""Shared analytic semantics: ordering keys, sort specs and aggregate accumulators.

Flexible relations force every analytic operator to distinguish two kinds of
"no value": an attribute can be *present with the explicit NULL* (``None``) or
*structurally absent* (the tuple's variant simply does not carry it).  All three
engines — the naive set evaluator, the row operators and the batch operators —
must agree bit-for-bit on how aggregation, ordering and top-k treat the two, so
the single normative implementation lives here and everything else delegates.

The pinned behaviour (mirrored in ``docs/ARCHITECTURE.md`` and exhaustively
tested by ``tests/test_aggregates.py``):

* **Grouping** — each group-by attribute contributes the tuple's value
  (``None`` included) or the ``MISSING`` sentinel to the group key, so absent
  routes to a distinct ⊥ group per attribute subset.  Output tuples omit
  ⊥-keyed attributes; a fully-empty output dict (all-⊥ key, no surviving
  aggregate outputs) yields no tuple at all.
* **Aggregates** — ``count()`` counts rows; ``count(a)`` counts rows where
  ``a`` is present *and* non-NULL; ``sum``/``min``/``max``/``avg`` skip both
  NULL and absent.  A group where ``a`` appeared but only as NULL produces
  NULL; a group where ``a`` never appeared produces an *absent* output
  attribute.  ``sum``/``avg`` over a non-numeric present value raise
  :class:`~repro.errors.AlgebraError`; sums accumulate exact integer totals
  plus :func:`math.fsum` over the float part so the result is independent of
  accumulation order (the three engines see rows in different orders), and
  :func:`numeric_total` gives every total a float value — NaN for ``inf``
  with ``-inf``, the exact sum where ``fsum`` overflows on the way.
* **Ordering** — per sort key a row ranks value < NULL < absent (NULL and
  absent sort *last* regardless of direction); values compare through
  :func:`value_order_key`, a total order across mixed types.  Every composite
  key ends with the canonical whole-tuple key as a tie-break, which makes the
  order total over distinct tuples — top-k is therefore deterministic across
  engines even though sets iterate in different orders.
  :func:`row_order_key` / :func:`top_k_rows` *define* that order and serve the
  naive evaluator; the physical engines sort through :class:`CompiledOrder`,
  which compares the same order natively — a sort one key column at a time,
  cut at a limit if there is one, run merges on a flat per-row encoding, and
  a native cut of a top-k's batches on their leading key's column — and is
  held to the definition by ``tests/test_order_keys.py`` and the differential
  fuzz.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import compress, groupby, islice, repeat
from math import fsum, inf, isfinite, nan
from operator import and_, eq, ge, le, ne
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AlgebraError
from repro.model.batches import MISSING

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateSpec",
    "SortKey",
    "AggregateAccumulator",
    "aggregate_spec",
    "sort_key",
    "value_order_key",
    "canonical_order_key",
    "row_order_key",
    "top_k_rows",
    "CompiledOrder",
    "group_key",
    "group_values",
]

#: aggregate functions the engine understands
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


class AggregateSpec:
    """One aggregate column: ``func(attribute) AS output``.

    ``attribute`` is ``None`` for ``count()`` (count rows); every other
    function requires an input attribute.  ``output`` defaults to ``count``
    for bare counts and ``{func}_{attribute}`` otherwise.
    """

    __slots__ = ("func", "attribute", "output")

    def __init__(self, func: str, attribute: Optional[str] = None,
                 output: Optional[str] = None):
        if func not in AGGREGATE_FUNCTIONS:
            raise AlgebraError(
                "unknown aggregate function {!r} (expected one of {})".format(
                    func, ", ".join(AGGREGATE_FUNCTIONS)))
        if func != "count" and attribute is None:
            raise AlgebraError(
                "aggregate {!r} requires an input attribute".format(func))
        if output is None:
            output = func if attribute is None else "{}_{}".format(func, attribute)
        self.func = func
        self.attribute = attribute
        self.output = output

    def key(self) -> Tuple[str, Optional[str], str]:
        """Structural identity for plan-cache / feedback fingerprints."""
        return (self.func, self.attribute, self.output)

    def __eq__(self, other) -> bool:
        return isinstance(other, AggregateSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return "{}({})->{}".format(self.func, self.attribute or "*", self.output)


class SortKey:
    """One ``ORDER BY`` component: an attribute and a direction."""

    __slots__ = ("attribute", "descending")

    def __init__(self, attribute: str, descending: bool = False):
        self.attribute = attribute
        self.descending = bool(descending)

    def key(self) -> Tuple[str, bool]:
        return (self.attribute, self.descending)

    def __eq__(self, other) -> bool:
        return isinstance(other, SortKey) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return "{}{}".format(self.attribute, " desc" if self.descending else "")


def aggregate_spec(spec) -> AggregateSpec:
    """Coerce ``AggregateSpec`` | ``"count"`` | ``(func, attr[, output])``."""
    if isinstance(spec, AggregateSpec):
        return spec
    if isinstance(spec, str):
        return AggregateSpec(spec)
    return AggregateSpec(*spec)


def sort_key(key) -> SortKey:
    """Coerce ``SortKey`` | ``"attr"`` | ``"-attr"`` (descending) | ``(attr, desc)``."""
    if isinstance(key, SortKey):
        return key
    if isinstance(key, str):
        if key.startswith("-"):
            return SortKey(key[1:], descending=True)
        return SortKey(key)
    return SortKey(*key)


# -- ordering ------------------------------------------------------------------------


class _Reversed:
    """Comparison-inverting wrapper for descending sort components."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other) -> bool:
        return other.key < self.key

    def __gt__(self, other) -> bool:
        return other.key > self.key

    def __eq__(self, other) -> bool:
        return self.key == other.key


def value_order_key(value):
    """A total-order key over mixed-type attribute values.

    NULL sorts before everything, then numbers (bools as ints), then NaN,
    then strings, then tuples (recursively), then everything else by type
    name and repr.  Cross-type comparisons never raise, which ``min``/``max``
    and multi-engine tie-breaking rely on.

    NaN is a class of its own, after every other number (``+inf`` included):
    it compares false against everything, itself included, so left among the
    numbers it would make the order depend on which pairs a sort happens to
    compare.  All NaNs are equal in the order; ``max`` of a group holding one
    is NaN, ``min`` only if the group holds nothing else.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value) if value == value else (2,)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple(value_order_key(item) for item in value))
    return (9, type(value).__name__, repr(value))


def canonical_order_key(values: Dict[str, object]):
    """The canonical whole-tuple key: attribute-sorted ``(name, value key)`` pairs.

    Injective over distinct tuples, so any composite order ending in it is
    total — the property that makes ``LIMIT`` deterministic across engines.
    """
    return tuple((name, value_order_key(values[name])) for name in sorted(values))


def row_order_key(values: Dict[str, object], keys: Sequence[SortKey]):
    """The composite sort key of one row (a value dict) under ``keys``.

    Per key the row ranks ``(0, value)`` / ``(1,)``-NULL / ``(2,)``-absent;
    NULL and absent sort last regardless of direction — only the value
    component is direction-inverted.  The canonical key is the final
    tie-break.
    """
    parts = []
    for key in keys:
        value = values.get(key.attribute, MISSING)
        if value is MISSING:
            parts.append((2, 0))
        elif value is None:
            parts.append((1, 0))
        else:
            component = value_order_key(value)
            if key.descending:
                component = _Reversed(component)
            parts.append((0, component))
    parts.append(canonical_order_key(values))
    return tuple(parts)


def top_k_rows(rows: Iterable, count: int, keys: Sequence[SortKey],
               key_of=lambda row: row):
    """The ``count`` smallest rows under ``keys`` via a bounded heap.

    ``key_of`` maps a stream element to its value dict (identity for dicts,
    ``tup._values`` for tuples, a pair-projection for batch streams).  Memory
    is O(count) — ``heapq.nsmallest`` never materializes the input.

    ``count == 0`` still drains the stream: limit-0 is not a license to skip
    evaluating the input, so errors raised while producing it surface exactly
    as they do in the naive evaluator and in the physical sort under a limit.
    """
    if count == 0:
        for _ in rows:
            pass
        return []
    return heapq.nsmallest(
        count, rows, key=lambda row: row_order_key(key_of(row), keys))


_NULL_SLOTS = (1, 0, 0)
_ABSENT_SLOTS = (2, 0, 0)


def _encode_value(value, sign: int) -> tuple:
    """One sort key's ``(rank, type rank, comparable)`` slots for ``value``.

    The three slots order exactly as the key's :func:`row_order_key` component
    does, with the direction (``sign`` -1 for descending) folded in: numbers
    descend by negation (exact for ints and floats alike, so big ints against
    floats, ``-0.0`` and the infinities keep their order), the type rank by
    its sign, and only what cannot be negated — a descending string, tuple or
    exotic object — keeps the :class:`_Reversed` shim.
    """
    if value is MISSING:
        return _ABSENT_SLOTS
    if value is None:
        return _NULL_SLOTS
    key = value_order_key(value)
    if key[0] == 1:
        return (0, sign, sign * key[1])
    rest = key[1:]  # empty for NaN: its type rank says everything
    if sign < 0 and rest:
        rest = _Reversed(rest)
    return (0, sign * key[0], rest)


_NUMBERS = frozenset((int, float, bool))
_GAPS = frozenset((type(None), type(MISSING)))


def _native_kinds(column: List, strings: bool = False) -> Optional[Tuple[set, bool]]:
    """Whether ``<`` between the values of ``column`` — one key's value per
    row, ``MISSING`` where absent — is the defined order: if so the types of
    those values and whether the column holds a NULL or absent row, else
    ``None``.  The one rule of the sort's passes and the top-k's selection.

    It is for numbers — ``int``, ``float`` and ``bool`` with no NaN among
    them (``<`` between an int and a float is exact) — and, with ``strings``,
    for a column whose values are all ``str``.
    """
    kinds = set(map(type, column))
    present = kinds - _GAPS
    if strings and present == {str}:
        return present, present != kinds
    if not present <= _NUMBERS or (float in present and any(map(ne, column, column))):
        return None
    return present, present != kinds


def _sort_pass(order: List[int], column: List, sign: int) -> Tuple[List[int], List]:
    """``order`` stably sorted on one key, ``column`` holding its value per row
    (``MISSING`` where absent), and the column whose ``==`` is the key's tie.

    Numbers compare natively (:func:`_native_kinds`) — as floats when ints
    and floats mix and every int converts exactly, so the sort stays on
    floats — with a descending key sorted ``reverse=True`` (stable too); the
    NULL rows, then the absent ones, follow in their current order.  Any
    other column sorts on its :func:`_encode_value` slots, which rank NULL
    and absent themselves.
    """
    native = _native_kinds(column)
    if native is None:
        column = [_encode_value(value, sign) for value in column]
        order.sort(key=column.__getitem__)
        return order, column
    numbers, gapped = native
    if float in numbers and len(numbers) > 1:
        try:
            floats = [value if value is None or value is MISSING else float(value)
                      for value in column]
        except OverflowError:  # an int beyond the float range
            floats = None
        if floats == column:  # ``==`` between an int and a float is exact
            column = floats
    if not gapped:
        order.sort(key=column.__getitem__, reverse=sign < 0)
        return order, column
    present = [at for at in order if column[at] is not None and column[at] is not MISSING]
    present.sort(key=column.__getitem__, reverse=sign < 0)
    present += [at for at in order if column[at] is None]
    present += [at for at in order if column[at] is MISSING]
    return present, column


class CompiledOrder:
    """The order of :func:`row_order_key` under one ``keys`` tuple, compiled
    for the physical engines: same order, compared in C.

    ``argsort`` sorts one declared key's column at a time and, given a
    limit, returns only that many positions.  ``candidates`` cuts a batch on
    its leading key's column, so a sort under a limit keeps about ``limit``
    rows a batch, not every row.  ``encode`` maps a row to one flat tuple of
    the *declared* keys only, three slots a key (see :func:`_encode_value`),
    so ``heapq`` compares ints, floats and strings natively in ``merge``.  The
    canonical whole-tuple tie-break is never part of either: it is computed
    for the rows whose declared keys actually tie — none when a key attribute
    is among the sort keys, every row once when there are no keys at all —
    and those runs are ordered by it on their own.
    """

    __slots__ = ("keys", "_signed")

    def __init__(self, keys: Sequence[SortKey]):
        self.keys = tuple(keys)
        self._signed = tuple((key.attribute, -1 if key.descending else 1)
                             for key in self.keys)

    def encode(self, values: Dict[str, object]) -> tuple:
        """The declared keys of one row as a natively comparable flat tuple."""
        out = ()
        for attribute, sign in self._signed:
            value = values.get(attribute, MISSING)
            kind = type(value)
            if kind is int or (kind is float and value == value):
                out += (0, sign, sign * value)  # _encode_value's common case
            else:
                out += _encode_value(value, sign)
        return out

    def argsort(self, rows: Sequence[Dict[str, object]], limit: Optional[int] = None,
                tie_breaks: Optional[List] = None) -> List[int]:
        """The positions of ``rows`` (value dicts) in sorted order — only the
        first ``limit`` of them when ``limit`` is set.

        One stable pass per declared key, least significant first, over that
        key's column (:func:`_sort_pass`).  Rows that then tie on every
        declared key sit next to each other; each such run is ordered by the
        canonical tie-break, which no other row gets — a run that straddles
        the ``limit`` is cut by ``heapq.nsmallest`` on it, and a run wholly
        past the ``limit`` gets none.  ``tie_breaks``, parallel to ``rows``,
        holds the tie-breaks already built (``None`` where not) and receives
        those of the positions returned.
        """
        order = list(range(len(rows)))
        cut = len(order) if limit is None else limit
        columns = []  # per key, the column that decides equality under it
        for attribute, sign in reversed(self._signed):
            order, column = _sort_pass(
                order, [row.get(attribute, MISSING) for row in rows], sign)
            columns.append(column)
        ties = [True] * (len(order) - 1)  # order[at] ties with order[at + 1]
        for column in reversed(columns):
            ranked = list(map(column.__getitem__, order))
            ties = list(map(and_, ties, map(eq, ranked, islice(ranked, 1, None))))
            if not any(ties):
                del order[cut:]
                return order

        if tie_breaks is None:
            tie_breaks = [None] * len(rows)

        def built(position):
            key = tie_breaks[position]
            return canonical_order_key(rows[position]) if key is None else key

        def kept(position):
            key = tie_breaks[position] = built(position)
            return key

        at = 0
        for tied, run in groupby(ties):
            if at >= cut:
                break
            stop = at + len(list(run))
            if tied and stop >= cut:
                # order[at:stop + 1] tie, across the cut: only the rows kept
                # keep their tie-break; its positions ascend, so (key, position)
                # orders it stably
                tied_run = order[at:stop + 1]
                ranked = heapq.nsmallest(cut - at, zip(map(built, tied_run), tied_run))
                order[at:cut] = [position for _, position in ranked]
                for key, position in ranked:
                    tie_breaks[position] = key
            elif tied:  # order[at:stop + 1] tie on every declared key
                order[at:stop + 1] = sorted(order[at:stop + 1], key=kept)
            at = stop
        del order[cut:]
        return order

    def candidates(self, column: List, count: int) -> Optional[List[int]]:
        """The positions of the rows of one batch that can be among the
        ``count`` smallest of any stream holding the batch, judged on the
        leading key's ``column`` alone (``MISSING`` where absent) — or
        ``None``: every row can.

        Where the column compares natively (:func:`_native_kinds`, strings
        included) and holds more than ``count`` values, let ``t`` be the
        ``count``-th best of them: a row ranking after ``t`` has ``count``
        rows of this batch strictly before it, so only the rows at ``t`` or
        before it are candidates — its ties included, for the later keys and
        the tie-break to decide.  NULL and absent rank after every value in
        either direction, so they are candidates only in a batch of ``count``
        values or fewer, where every row is.  ``count`` is at least 1.
        """
        if len(column) <= count:
            return None
        native = _native_kinds(column, strings=True)
        if native is None:
            return None
        _, gapped = native
        if gapped:
            positions = [at for at, value in enumerate(column)
                         if value is not None and value is not MISSING]
            present = list(map(column.__getitem__, positions))
        else:
            positions, present = range(len(column)), column
        if len(present) <= count:
            return None
        if self._signed[0][1] < 0:
            cut, ranked = heapq.nlargest(count, present)[-1], ge
        else:
            cut, ranked = heapq.nsmallest(count, present)[-1], le
        return list(compress(positions, map(ranked, present, repeat(cut))))

    def merge(self, streams: Sequence[Iterable]) -> Iterator:
        """K-way merge of streams of value dicts already in this order into one.

        One head per stream sits in a heap keyed by the declared encoding and
        the stream's number, so heads compare natively and never on the dicts;
        while the heads of several streams tie, those streams merge among
        themselves by the canonical tie-break — built for the tied rows only.
        """
        encode = self.encode
        streams = [iter(stream) for stream in streams]
        heads: List[tuple] = []  # (declared, stream number, record)
        for number, stream in enumerate(streams):
            record = next(stream, None)
            if record is not None:
                heads.append((encode(record), number, record))
        heapq.heapify(heads)

        def tie_entry(number, record):
            return (canonical_order_key(record), number, record)

        tied: List[tuple] = []  # the streams whose heads tie on `declared`
        while heads or tied:
            if tied:
                _, number, record = heapq.heappop(tied)
            else:
                declared, number, record = heapq.heappop(heads)
                if heads and heads[0][0] == declared:
                    tied = [tie_entry(number, record)]
                    while heads and heads[0][0] == declared:
                        heapq.heappush(tied, tie_entry(*heapq.heappop(heads)[1:]))
                    continue
            yield record
            record = next(streams[number], None)
            if record is None:
                continue
            key = encode(record)
            if tied and key == declared:
                heapq.heappush(tied, tie_entry(number, record))
            else:
                heapq.heappush(heads, (key, number, record))


# -- grouping ------------------------------------------------------------------------


def group_key(values: Dict[str, object], names: Sequence[str]):
    """The group key of one row: per attribute its value or ``MISSING`` (⊥)."""
    if not names:
        return ()
    if len(names) == 1:
        return values.get(names[0], MISSING)
    return tuple(values.get(name, MISSING) for name in names)


def group_values(key, names: Sequence[str]) -> Dict[str, object]:
    """The output attributes a group key contributes (⊥ components omitted)."""
    if not names:
        return {}
    if len(names) == 1:
        return {} if key is MISSING else {names[0]: key}
    return {name: value for name, value in zip(names, key) if value is not MISSING}


def _check_numeric(func: str, attribute: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AlgebraError(
            "{} over non-numeric value {!r} of attribute {!r}".format(
                func, value, attribute))


def numeric_total(total: int, floats: Sequence[float]):
    """A sum's value: the exact int ``total`` plus the ``floats``, summed by
    :func:`math.fsum` — so independent of their order — and an int when there
    are none.  ``inf`` with ``-inf`` gives NaN.  An intermediate overflow
    (``1e308 + 1e308 - 1e308``) or an int total too large for a float falls
    back to exact :class:`~fractions.Fraction` summation: the correctly
    rounded value, or ±inf when even that overflows."""
    if not floats:
        return total
    try:
        parts = fsum(floats)
        if not isfinite(parts):
            return parts  # ±inf or NaN decides alone
        return total + parts
    except ValueError:  # inf + -inf
        return nan
    except OverflowError:
        # finite parts overflowed before a non-finite one came, or the int
        # total is beyond the float range
        special = [value for value in floats if not isfinite(value)]
        if special:
            return numeric_total(0, special)
    exact = sum(map(Fraction, floats), Fraction(total))
    try:
        return float(exact)
    except OverflowError:
        return inf if exact > 0 else -inf


class AggregateAccumulator:
    """Row-at-a-time accumulator implementing the pinned aggregate matrix.

    One instance serves a whole aggregation; per-group state is an opaque list
    created by :meth:`new_state`, fed value dicts via :meth:`update` and turned
    into the group's output attributes by :meth:`finalize` (``MISSING``-valued
    outputs mean *absent* and are omitted).
    """

    __slots__ = ("specs",)

    def __init__(self, specs: Sequence[AggregateSpec]):
        self.specs = tuple(specs)

    def new_state(self) -> List:
        states: List = []
        for spec in self.specs:
            if spec.func == "count":
                states.append(0)
            elif spec.func in ("sum", "avg"):
                # [int total, float parts, non-NULL count, attribute seen]
                states.append([0, [], 0, False])
            else:  # min / max
                # [best value, best order key, attribute seen]
                states.append([MISSING, None, False])
        return states

    def update(self, states: List, values: Dict[str, object]) -> None:
        for index, spec in enumerate(self.specs):
            func = spec.func
            if func == "count":
                if spec.attribute is None:
                    states[index] += 1
                else:
                    value = values.get(spec.attribute, MISSING)
                    if value is not MISSING and value is not None:
                        states[index] += 1
                continue
            value = values.get(spec.attribute, MISSING)
            if value is MISSING:
                continue
            state = states[index]
            state[-1] = True  # the attribute appeared in this group
            if value is None:
                continue
            if func in ("sum", "avg"):
                _check_numeric(func, spec.attribute, value)
                if isinstance(value, float):
                    state[1].append(value)
                else:
                    state[0] += value
                state[2] += 1
            else:
                order = value_order_key(value)
                best = state[1]
                if best is None or (order < best if func == "min" else order > best):
                    state[0] = value
                    state[1] = order

    def finalize(self, states: List) -> Dict[str, object]:
        """The aggregate output attributes of one group (absent ones omitted)."""
        out: Dict[str, object] = {}
        for spec, state in zip(self.specs, states):
            value = self._finalize_one(spec, state)
            if value is not MISSING:
                out[spec.output] = value
        return out

    @staticmethod
    def _finalize_one(spec: AggregateSpec, state):
        func = spec.func
        if func == "count":
            return state
        if not state[-1]:
            return MISSING  # the attribute never appeared: output is absent
        if func in ("sum", "avg"):
            total, floats, non_null, _ = state
            if not non_null:
                return None  # appeared, but only as NULL
            total = numeric_total(total, floats)
            return total / non_null if func == "avg" else total
        best = state[0]
        return None if best is MISSING else best

    def empty_result(self) -> Dict[str, object]:
        """The single global-aggregation row over empty input: counts are 0,
        everything else absent."""
        return {spec.output: 0 for spec in self.specs if spec.func == "count"}
