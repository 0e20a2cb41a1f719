"""Column-oriented tuple batches: what the physical operators hand each other.

Touching every :class:`~repro.model.tuples.FlexTuple` individually pays Python
interpreter overhead — attribute lookups, predicate dispatch, counter updates —
once *per tuple*.  A :class:`TupleBatch` still owns the row objects (results
must be sets of ``FlexTuple`` in the end, and keeping the references means a
filter never has to *rebuild* surviving tuples), but exposes the data
column-at-a-time:

* :meth:`column` extracts one attribute of every row into a flat value array
  (``MISSING`` marks rows not defined on the attribute — the structural-variant
  form of NULL).  A batch caches what it extracted, so several predicates —
  and the guards, one column per guarded attribute — share it;
* :meth:`take` selects rows by index — the output of a compiled predicate — in
  a single list comprehension.

A full scan of a stored table does not extract per batch at all: the table
keeps a :class:`ScanView` — its rows, their value dicts and every column a
scan asked for, pivoted once per table version — and the scan emits
:class:`ScanBatch` windows onto it, whose columns are slices of the view's.

:class:`LazyBatch` is the **lazy merged batch** the joins and the reshaping
operators emit: it carries plain per-row value *dicts* (the column
merge of a probe row and its build partner, an extended/renamed/projected row)
and defers :class:`FlexTuple` construction until something actually needs row
objects — a materializing operator pulling the stream, an interpreted
predicate, or the final result-set collection.  Column access and
``take``-style selection operate directly on the value dicts, so a batch
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


def merge_values(left: Dict[str, object], right: Dict[str, object],
                 shared: int = 0) -> Dict[str, object]:
    """Merge two per-row value dicts with :meth:`FlexTuple.merge` semantics.

    Overlapping attributes must agree (``TupleError`` otherwise — raised
    *eagerly*, so a lazy join surfaces merge conflicts at exactly the point an
    eager one would); the right side's value is kept on agreement, mirroring
    the row merge (:meth:`FlexTuple.merge` overwrites with ``other``'s value —
    1 and 1.0 are equal but not identical).

    ``shared`` is the overlap known to agree: a join's rows meet on their
    ``shared`` join attributes, the product's on none (``shared=0``).  A
    merge that overlaps on no more costs one dict-splat and a length check;
    only a larger overlap is compared name by name.
    """
    merged = {**left, **right}
    if len(merged) != len(left) + len(right) - shared:
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
    stale otherwise.  A batch pivots its own rows, once per column; the
    batches of a full table scan are :class:`ScanBatch` windows, which slice
    the table's :class:`ScanView` instead.
    """

    __slots__ = ("_rows", "_columns", "_values_list")

    def __init__(self, rows: List[FlexTuple]):
        self._rows = rows
        self._columns: Dict[str, List] = {}
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

    Column access and :meth:`take` answer straight from the dicts; only
    iteration / :attr:`rows` access materializes — which is exactly when
    tuples cross into a materializing operator or the final result set.
    """

    __slots__ = ("_values", "_hashes")

    def __init__(self, values: List[Dict[str, object]],
                 hashes: Optional[List[int]] = None):
        self._rows = None
        self._columns = {}
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


class ScanView:
    """A stored table's rows pivoted for full scans, once per table version.

    Holds the rows in insertion order, their value dicts, and one full column
    per attribute a scan has asked for — filled on first request, ``MISSING``
    for a row without the attribute.  The table builds it on a scan's first
    pull and drops it before any change to its rows; a scan that started on a
    view keeps reading it to the end, so the view itself never changes but
    for the columns it adds.  Its lists never leave it: :class:`ScanBatch`
    hands out slices.
    """

    __slots__ = ("rows", "values", "_columns")

    def __init__(self, rows: List[FlexTuple]):
        self.rows = rows
        self.values = [row._values for row in rows]
        self._columns: Dict[str, List] = {}

    def column(self, name: str) -> List:
        """The attribute ``name`` of every row, ``MISSING`` where absent."""
        values = self._columns.get(name)
        if values is None:
            values = [row.get(name, MISSING) for row in self.values]
            self._columns[name] = values
        return values

    def batches(self, size: int) -> Iterator["ScanBatch"]:
        """The rows as consecutive :class:`ScanBatch` windows of ``size``."""
        for start in range(0, len(self.rows), size):
            yield ScanBatch(self, start, start + size)


class ScanBatch(TupleBatch):
    """A window ``[start, stop)`` of a :class:`ScanView`: a full scan's batch.

    Its columns and value dicts are slices of the view's lists, taken once
    per batch and cached like any batch's, so no consumer ever holds a list
    of the view.  :meth:`take` yields a plain :class:`TupleBatch`, which
    pivots its own rows.
    """

    __slots__ = ("_view", "_start", "_stop")

    def __init__(self, view: ScanView, start: int, stop: int):
        self._rows = view.rows[start:stop]
        self._columns = {}
        self._values_list = None
        self._view = view
        self._start = start
        self._stop = stop

    def values_list(self) -> List[Dict[str, object]]:
        values = self._values_list
        if values is None:
            values = self._view.values[self._start:self._stop]
            self._values_list = values
        return values

    def column(self, name: str) -> List:
        values = self._columns.get(name)
        if values is None:
            values = self._view.column(name)[self._start:self._stop]
            self._columns[name] = values
        return values
