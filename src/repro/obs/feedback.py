"""Cardinality feedback: observed row counts correct future estimates.

PR 6 made estimation errors *visible* (Q-error gauges, EXPLAIN ANALYZE); this
module makes them *actionable*.  After every instrumented execution the engine
folds each plan node's actual output cardinality into a
:class:`CardinalityFeedback` store keyed by ``(subexpression fingerprint,
statistics version)``.  The cost model consults the store before falling back
to histogram/NDV math, so the second execution of a query — and the join-order
search over all its subplans — prices every subexpression with observed truth
instead of stale or defaulted selectivities.

Two kinds of observation are kept.  **Cardinalities** correct the estimate of
a subexpression that has itself been executed.  **Join-edge selectivities**
(``rows_out / (rows_left × rows_right)`` of an executed mis-estimated join,
keyed by join attribute and the base tables carrying it) generalize further:
they correct candidate joins the order search prices but has never executed —
the signal that lets one bad run re-order the next one.

The store is deliberately ephemeral and self-invalidating:

* **bounded** — an LRU of :data:`DEFAULT_CAPACITY` entries; a long-lived
  session cannot grow it without limit;
* **DML-invalidated** — every entry remembers the base tables its
  subexpression reads, and :meth:`CardinalityFeedback.invalidate_table` drops
  the affected entries when one of them mutates (wired to
  ``StatisticsCatalog.note_mutation``);
* **ANALYZE-invalidated** — keys embed the statistics version, so a fresh
  ANALYZE strands old entries (they age out of the LRU) rather than letting
  observations from a different statistics regime leak into new estimates;
* **never persisted** — ``engine/serialization`` does not know about it; a
  reloaded database starts with an empty store.

``version`` increments whenever the store learns something new (an entry
appears or changes value).  It is *not* part of the plan-cache key: a cached
plan remembers the entries and edges its costing read (hits and misses — see
:meth:`CardinalityFeedback.current`) and is re-planned only when one of those
changed, so an observation on one query never strands the plans of another.
"""

from collections import OrderedDict
from typing import Optional, Tuple

from ..algebra.expressions import (
    Aggregate,
    EmptyRelation,
    Expression,
    Extension,
    Limit,
    MultiwayJoin,
    NaturalJoin,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
)
from ..model.attributes import attrset

__all__ = ["CardinalityFeedback", "DEFAULT_CAPACITY", "EDGE_TOLERANCE",
           "QERROR_THRESHOLD", "attribute_carriers", "declared_attributes",
           "expression_key",
           "referenced_tables"]

#: default LRU capacity; generous for a workload of repeated query shapes while
#: keeping the worst-case memory footprint trivially small.
DEFAULT_CAPACITY = 512

#: only observations this far off the estimate (Q-error, ≥ 1.0) are folded in:
#: feedback stores *corrections*, not confirmations.  An accurate estimate
#: leaves no entry behind, so the store's version — and with it the plan
#: cache — only moves when re-planning could actually choose differently.
QERROR_THRESHOLD = 2.0

#: relative tolerance below which a re-observed edge selectivity counts as
#: unchanged (row-count jitter between executions must not churn the version)
EDGE_TOLERANCE = 0.05


def expression_key(expression: Expression, params=None,
                   constants: Optional[list] = None) -> Tuple:
    """A hashable structural key identifying an expression tree.

    Two expressions with the same key produce the same physical plan, so the
    key is the cardinality-feedback fingerprint shared by the planner and the
    cost model.  Predicates contribute their text
    (:meth:`~repro.algebra.predicates.Predicate.render`), which is
    deterministic for the whole predicate language: a template's parameters
    show their value under ``params`` — the *bound* fingerprint, equal to the
    key of the bound tree — and ``?n`` without.  With ``constants`` the key is
    literal-free instead: every comparison constant shows as ``?`` and its
    comparison is appended to the list, which is how the executor derives a
    query's template in one walk.
    """
    if isinstance(expression, RelationRef):
        return ("relation", expression.name)
    if isinstance(expression, EmptyRelation):
        return ("empty",)
    children = tuple(expression_key(child, params, constants)
                     for child in expression.children)
    if isinstance(expression, Selection):
        return ("select", expression.predicate.render(params, constants)) + children
    if isinstance(expression, TypeGuardNode):
        return ("guard", str(expression.attributes)) + children
    if isinstance(expression, Projection):
        return ("project", str(expression.attributes)) + children
    if isinstance(expression, Extension):
        return ("extend", expression.attribute, repr(expression.value)) + children
    if isinstance(expression, Rename):
        return ("rename", tuple(sorted(expression.mapping.items()))) + children
    if isinstance(expression, NaturalJoin):
        return ("join", str(expression.on) if expression.on is not None else None
                ) + children
    if isinstance(expression, MultiwayJoin):
        return ("multiway-join", str(expression.on), children)
    if isinstance(expression, Aggregate):
        # Group-by order is semantically irrelevant, so sorting it lets
        # permuted spellings share one plan (the spec order is kept — it only
        # costs a cache miss, never a wrong reuse).
        return ("aggregate", tuple(sorted(expression.group_by)),
                tuple(spec.key() for spec in expression.specs)) + children
    if isinstance(expression, Sort):
        return ("sort", tuple(key.key() for key in expression.keys)) + children
    if isinstance(expression, Limit):
        return ("limit", expression.count) + children
    if isinstance(expression, SubqueryExtension):
        return ("subquery-extend", expression.attribute) + children
    # Product / Union / OuterUnion / Difference carry no payload beyond their
    # operator name and children; unknown nodes degrade to the same shape.
    return (expression.operator,) + children


def referenced_tables(expression: Expression) -> frozenset:
    """The names of every base relation the expression tree reads."""
    names = set()
    pending = [expression]
    while pending:
        node = pending.pop()
        if isinstance(node, RelationRef):
            names.add(node.name)
        else:
            pending.extend(node.children)
    return frozenset(names)


def declared_attributes(source, name: str):
    """The attribute universe a base relation's scheme declares, or ``None``.

    Databases answer from the catalog's flexible scheme; plain mappings answer
    when the entry carries its scheme (a ``FlexibleRelation``).  Bare tuple
    sets and unknown names have no declared universe — callers then refuse to
    reason from it rather than guess from the data.
    """
    relation = None
    if hasattr(source, "table"):
        try:
            relation = source.table(name)
        except Exception:
            return None
    elif isinstance(source, dict):
        relation = source.get(name)
    definition = getattr(relation, "definition", None)
    scheme = getattr(definition, "scheme", None) or getattr(relation, "scheme", None)
    attributes = getattr(scheme, "attributes", None)
    return None if attributes is None else attrset(attributes)


def attribute_carriers(source, tables, name: str) -> frozenset:
    """The subset of ``tables`` whose declared scheme can carry attribute ``name``.

    Join selectivity on an equality attribute is a property of the value
    distributions in the tables that *carry* it, not of whatever else happens
    to sit on either side of one particular join — so observed edge
    selectivities are keyed by this set, letting an observation taken at
    ``(A ⋈ B ⋈ C) ⋈ D`` correct a candidate ``A ⋈ D`` over the same attribute.
    Tables the source cannot resolve (or without a declared scheme) are left
    out rather than guessed at.
    """
    return frozenset(table for table in tables
                     if name in (declared_attributes(source, table) or ()))


class CardinalityFeedback:
    """Bounded LRU of observed cardinalities per (fingerprint, stats version)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("feedback capacity must be positive")
        self.capacity = capacity
        #: (fingerprint, statistics_version) -> (actual_rows, tables)
        self._entries = OrderedDict()
        #: (attribute, carrier tables, statistics_version) -> (selectivity, tables)
        #: — observed join-edge selectivities, the signal that re-orders joins
        #: (a corrected *cardinality* alone cannot: candidate joins the search
        #: prices were never executed, but their edges were)
        self._edges = OrderedDict()
        #: table name -> number of entries/edges reading it; lets the per-row
        #: DML hook bail out in O(1) when a table has no feedback at all
        self._table_counts = {}
        #: ``(store, key)`` of every observation folded in while a transaction
        #: is open, oldest first — ``None`` outside one
        self._recorded = None
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def version(self) -> int:
        """Bumped whenever the store's contents change in a way that could
        alter an estimate — new entry, changed value, or invalidation."""
        return self._version

    def __len__(self) -> int:
        return len(self._entries) + len(self._edges)

    def record(self, fingerprint, statistics_version, tables, actual_rows) -> bool:
        """Fold one observed cardinality in; returns True if anything changed.

        Re-recording an identical observation refreshes LRU recency but does
        not bump :attr:`version` — a stable workload keeps its plan cache hot.
        """
        key = (fingerprint, statistics_version)
        tables = frozenset(tables)
        existing = self._entries.get(key)
        if existing is not None and existing[0] == actual_rows:
            self._entries.move_to_end(key)
            return False
        if existing is not None:
            self._count_tables(existing[1], -1)
        self._entries[key] = (actual_rows, tables)
        self._entries.move_to_end(key)
        self._count_tables(tables, +1)
        while len(self._entries) > self.capacity:
            _evicted_key, (_rows, evicted_tables) = self._entries.popitem(last=False)
            self._count_tables(evicted_tables, -1)
            self.evictions += 1
        self._learned(self._entries, key)
        return True

    def _learned(self, store, key) -> None:
        self._version += 1
        if self._recorded is not None:
            self._recorded.append((store, key))

    def _count_tables(self, tables, delta: int) -> None:
        counts = self._table_counts
        for name in tables:
            updated = counts.get(name, 0) + delta
            if updated > 0:
                counts[name] = updated
            else:
                counts.pop(name, None)

    def lookup(self, fingerprint, statistics_version):
        """The observed cardinality for the key, or None; refreshes recency."""
        key = (fingerprint, statistics_version)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    # -- join-edge selectivities ---------------------------------------------------------

    def record_edge(self, attribute: str, carriers, statistics_version,
                    selectivity: float) -> bool:
        """Fold one observed join-edge selectivity in; True if anything changed.

        ``carriers`` is the set of base tables carrying ``attribute`` on the
        executed join (see :func:`attribute_carriers`); the observed fraction
        ``rows_out / (rows_left × rows_right)`` then corrects *any* candidate
        join over the same attribute and carriers — including orders the search
        considers but has never executed.  A re-observation within
        :data:`EDGE_TOLERANCE` (relative) refreshes recency without bumping the
        version, so row-count jitter does not churn the plan cache.
        """
        key = (attribute, frozenset(carriers), statistics_version)
        existing = self._edges.get(key)
        if existing is not None:
            previous = existing[0]
            scale = max(abs(previous), 1e-12)
            if abs(previous - selectivity) <= EDGE_TOLERANCE * scale:
                self._edges.move_to_end(key)
                return False
            self._count_tables(existing[1], -1)
        tables = key[1]
        self._edges[key] = (selectivity, tables)
        self._edges.move_to_end(key)
        self._count_tables(tables, +1)
        while len(self._edges) > self.capacity:
            _evicted, (_sel, evicted_tables) = self._edges.popitem(last=False)
            self._count_tables(evicted_tables, -1)
            self.evictions += 1
        self._learned(self._edges, key)
        return True

    def lookup_edge(self, attribute: str, carriers,
                    statistics_version) -> Optional[float]:
        """The observed selectivity for the edge, or None; refreshes recency."""
        key = (attribute, frozenset(carriers), statistics_version)
        entry = self._edges.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._edges.move_to_end(key)
        self.hits += 1
        return entry[0]

    def current(self, dependency):
        """What a plan costed now would read for a dependency it recorded.

        ``("rows" | "bound-rows", (fingerprint, statistics_version))`` reads
        as the observed cardinality or ``None``; ``("edges", (attribute,
        statistics_version))`` as the set of ``(carriers, selectivity)``
        observed on that join attribute.  Neither refreshes recency nor
        counts as a lookup.
        """
        kind, key = dependency
        if kind != "edges":
            entry = self._entries.get(key)
            return None if entry is None else entry[0]
        return frozenset((edge[1], value[0]) for edge, value in self._edges.items()
                         if (edge[0], edge[2]) == key)

    def invalidate_table(self, name: str) -> int:
        """Drop every entry/edge whose subexpression reads ``name``; returns count.

        O(1) when the table has no feedback — the common case on the per-row
        DML hook path during bulk loads.
        """
        if name not in self._table_counts:
            return 0
        dropped = 0
        for store in (self._entries, self._edges):
            stale = [key for key, (_value, tables) in store.items()
                     if name in tables]
            for key in stale:
                _value, tables = store.pop(key)
                self._count_tables(tables, -1)
            dropped += len(stale)
        if dropped:
            self.invalidations += dropped
            self._version += 1
        return dropped

    def begin(self) -> int:
        """Enter a transaction scope; returns its mark for :meth:`rollback`.
        From the outermost ``begin`` to :meth:`end` the store remembers which
        keys it folds in."""
        if self._recorded is None:
            self._recorded = []
        return len(self._recorded)

    def rollback(self, version: int, mark: int) -> int:
        """Nothing learned inside a rolled-back transaction survives it: drop
        what was recorded since the scope's ``mark``; returns drops.

        That covers the observations keyed by statistics versions the rollback
        erases (the numbers will be handed out again for different states) and
        those made at an unchanged version, whatever became of their table.
        Entries invalidated *during* the transaction stay gone (their evidence
        cannot be reconstructed; losing feedback is only ever a planning
        pessimization).  The version counter is then restored (the executor
        has already evicted the plans validated under the newer versions).
        """
        dropped = 0
        recorded = self._recorded
        for store, key in recorded[mark:]:
            entry = store.pop(key, None)
            if entry is not None:
                self._count_tables(entry[1], -1)
                dropped += 1
        del recorded[mark:]
        self._version = version
        return dropped

    def end(self) -> None:
        """The outermost transaction scope is over, either way."""
        self._recorded = None

    def clear(self) -> None:
        if self._entries or self._edges:
            self._version += 1
        self._entries.clear()
        self._edges.clear()
        self._table_counts.clear()
        self.hits = self.misses = 0
        self.evictions = self.invalidations = 0

    def as_dict(self) -> dict:
        return {
            "entries": len(self._entries),
            "edges": len(self._edges),
            "capacity": self.capacity,
            "version": self._version,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return "CardinalityFeedback(entries={}, edges={}, version={})".format(
            len(self._entries), len(self._edges), self._version)
