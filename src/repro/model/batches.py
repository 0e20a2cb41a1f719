"""Column-oriented tuple batches: what the physical operators hand each other.

Touching every :class:`~repro.model.tuples.FlexTuple` individually pays Python
interpreter overhead — attribute lookups, predicate dispatch, counter updates —
once *per tuple*.  A :class:`TupleBatch` still owns the row objects (results
must be sets of ``FlexTuple`` in the end, and keeping the references means a
filter never has to *rebuild* surviving tuples), but exposes the data
column-at-a-time:

* :meth:`column` extracts one attribute of every row into a flat value array
  (``MISSING`` marks rows not defined on the attribute — the structural-variant
  form of NULL) together with a **presence bitmap**: an ``int`` whose bit ``i``
  is set exactly when row ``i`` carries the attribute.  Extraction happens once
  per batch and is cached, so several predicates over the same column share it;
* :meth:`presence_mask` ANDs the per-attribute bitmaps, turning a type guard
  ``TG[X]`` into one bitwise operation over the whole batch;
* :meth:`take` selects rows by index — the output of a compiled predicate — in
  a single list comprehension.

:class:`LazyBatch` is the **lazy merged batch** the joins and the reshaping
operators emit: it carries plain per-row value *dicts* (the column
merge of a probe row and its build partner, an extended/renamed/projected row)
and defers :class:`FlexTuple` construction until something actually needs row
objects — a materializing operator pulling the stream, an interpreted
predicate, or the final result-set collection.  Column access, presence bitmaps and
``take``-style selection all operate directly on the value dicts, so a batch
pipeline of joins, filters and reshapes never builds tuples for rows a
downstream operator discards.

Batches have ``len()`` and iterate their rows (materializing a lazy batch on
first touch), which is all the materializing operators and the result
collector require of one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import TupleError
from repro.model.tuples import FlexTuple


class _Missing:
    """Sentinel marking "row is not defined on this attribute" in a column array."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"

    def __reduce__(self):
        # ``is MISSING`` identity must survive pickling — spill segments
        # (repro.governor.spill) round-trip value dicts through pickle.
        return (_missing, ())


def _missing() -> "_Missing":
    return MISSING


#: the single sentinel instance used in column arrays (compare with ``is``)
MISSING = _Missing()


def mask_indices(mask: int) -> List[int]:
    """The positions of the set bits of a presence/selection bitmap, ascending."""
    indices: List[int] = []
    append = indices.append
    while mask:
        low = mask & -mask
        append(low.bit_length() - 1)
        mask ^= low
    return indices


def merge_values(left: Dict[str, object], right: Dict[str, object]) -> Dict[str, object]:
    """Merge two per-row value dicts with :meth:`FlexTuple.merge` semantics.

    Overlapping attributes must agree (``TupleError`` otherwise — raised
    *eagerly*, so a lazy join surfaces merge conflicts at exactly the point an
    eager one would); the right side's value is kept on agreement, mirroring
    the row merge (:meth:`FlexTuple.merge` overwrites with ``other``'s value —
    1 and 1.0 are equal but not identical).  The common disjoint case costs one
    dict-splat and a length check.
    """
    merged = {**left, **right}
    if len(merged) != len(left) + len(right):
        for name, value in right.items():
            if name in left and left[name] != value:
                raise TupleError(
                    "cannot merge tuples: they disagree on attribute {!r}".format(name)
                )
    return merged


class TupleBatch:
    """A batch of heterogeneous tuples with cached column views.

    ``rows`` is adopted by reference (operators hand over freshly built lists);
    treat a batch as immutable once constructed — the column cache would go
    stale otherwise.
    """

    __slots__ = ("_rows", "_columns", "_masks", "_full_mask", "_values_list")

    def __init__(self, rows: List[FlexTuple]):
        self._rows = rows
        self._columns: Dict[str, List] = {}
        self._masks: Dict[str, int] = {}
        self._full_mask = (1 << len(rows)) - 1
        self._values_list: Optional[List[Dict[str, object]]] = None

    # -- container protocol -----------------------------------------------------------

    @property
    def rows(self) -> List[FlexTuple]:
        """The row objects (lazy batches materialize them on first access)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[FlexTuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- column access -----------------------------------------------------------------

    @property
    def full_mask(self) -> int:
        """The bitmap with one set bit per row (every row selected/present)."""
        return self._full_mask

    def values_list(self) -> List[Dict[str, object]]:
        """One plain value dict per row (shared, never to be mutated).

        This is the uniform fast path the batch joins use: a regular batch
        answers with its rows' internal dicts, a :class:`LazyBatch` with the
        pending dicts it already holds — no tuple materialization either way.
        """
        values = self._values_list
        if values is None:
            values = [row._values for row in self._rows]
            self._values_list = values
        return values

    def hashes_list(self) -> List[int]:
        """One ``FlexTuple``-compatible hash per row.

        Regular batches answer from the rows' cached hashes; a lazy batch
        returns the hashes it carried from its producer (or derives and caches
        them).  Lets consumers key hash tables without rebuilding content keys.
        """
        return [row._hash for row in self.rows]

    def column(self, name: str) -> List:
        """One attribute of every row as a flat value array, with ``MISSING`` in
        rows lacking the attribute.  Extracted once per batch and cached."""
        values = self._columns.get(name)
        if values is None:
            # FlexTuple._values is the tuple's internal attribute dict; the batch
            # container is the model layer's designated fast path over it.
            values = [row.get(name, MISSING) for row in self.values_list()]
            self._columns[name] = values
        return values

    def column_mask(self, name: str) -> int:
        """The presence bitmap of one attribute: bit ``i`` set iff row ``i``
        carries it.  Built lazily — plain comparisons never need it."""
        mask = self._masks.get(name)
        if mask is None:
            mask = 0
            for i, value in enumerate(self.column(name)):
                if value is not MISSING:
                    mask |= 1 << i
            self._masks[name] = mask
        return mask

    def presence_mask(self, names: Sequence[str]) -> int:
        """Bitmap of the rows defined on *every* attribute in ``names``
        (the whole-batch form of a type guard; all rows for an empty guard)."""
        mask = self._full_mask
        for name in names:
            mask &= self.column_mask(name)
            if not mask:
                break
        return mask

    # -- row selection ------------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "TupleBatch":
        """A new batch of the rows at ``indices`` (column caches are not carried)."""
        rows = self._rows
        return TupleBatch([rows[i] for i in indices])

    def __repr__(self) -> str:
        return "TupleBatch({} rows, {} cached columns)".format(
            len(self), len(self._columns)
        )


class LazyBatch(TupleBatch):
    """A batch of *pending* rows: value dicts whose ``FlexTuple``s are built on demand.

    The joins emit these — build columns and probe columns zipped by the
    selection vector into merged value dicts — as do extension, rename and
    projection.  ``hashes`` optionally carries the
    precomputed ``FlexTuple``-compatible hash per row (joins derive it from the
    ``frozenset`` dedup key anyway); without it, materialization computes the
    hashes itself.

    Column access, presence masks and :meth:`take` answer straight from the
    dicts; only iteration / :attr:`rows` access materializes — which is exactly
    when tuples cross into a materializing operator or the final result set.
    """

    __slots__ = ("_values", "_hashes")

    def __init__(self, values: List[Dict[str, object]],
                 hashes: Optional[List[int]] = None):
        self._rows = None
        self._columns = {}
        self._masks = {}
        self._full_mask = (1 << len(values)) - 1
        self._values = values
        self._values_list = values
        self._hashes = hashes

    @property
    def rows(self) -> List[FlexTuple]:
        rows = self._rows
        if rows is None:
            from_parts = FlexTuple.from_parts
            if self._hashes is None:
                rows = [from_parts(values) for values in self._values]
            else:
                rows = [from_parts(values, hash_)
                        for values, hash_ in zip(self._values, self._hashes)]
            self._rows = rows
        return rows

    @property
    def materialized(self) -> bool:
        """Whether the row objects have been built (diagnostics / tests)."""
        return self._rows is not None

    def __len__(self) -> int:
        return len(self._values)

    def values_list(self) -> List[Dict[str, object]]:
        return self._values

    def hashes_list(self) -> List[int]:
        hashes = self._hashes
        if hashes is None:
            hashes = [hash(frozenset(values.items())) for values in self._values]
            self._hashes = hashes
        return hashes

    def take(self, indices: Sequence[int]) -> "LazyBatch":
        values = self._values
        hashes = self._hashes
        return LazyBatch([values[i] for i in indices],
                         None if hashes is None else [hashes[i] for i in indices])

    def __repr__(self) -> str:
        return "LazyBatch({} rows, materialized={})".format(
            len(self), self._rows is not None
        )
