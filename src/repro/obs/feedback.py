"""Cardinality feedback: observed row counts correct future estimates.

PR 6 made estimation errors *visible* (Q-error gauges, EXPLAIN ANALYZE); this
module makes them *actionable*.  After every instrumented execution the engine
folds each plan node's actual output cardinality into a
:class:`CardinalityFeedback` store keyed by ``(subexpression fingerprint,
statistics version)``.  The cost model consults the store before falling back
to histogram/NDV math, so the second execution of a query — and the join-order
search over all its subplans — prices every subexpression with observed truth
instead of aged or defaulted selectivities.

Two kinds of observation are kept.  **Cardinalities** correct the estimate of
a subexpression that has itself been executed.  **Join-edge selectivities**
(``rows_out / (rows_left × rows_right)`` of an executed mis-estimated join,
keyed by join attribute and the base tables carrying it) generalize further:
they correct candidate joins the order search prices but has never executed —
the signal that lets one bad run re-order the next one.

The store is deliberately ephemeral and self-invalidating:

* **bounded** — an LRU of :data:`DEFAULT_CAPACITY` entries; a long-lived
  session cannot grow it without limit;
* **version-stranded** — keys embed the statistics version, so whatever moves
  it — an ANALYZE, or DML drifting a table past its threshold (see
  :mod:`repro.stats.catalog`) — strands old entries (they age out of the LRU)
  rather than letting observations from a different statistics regime or a
  drifted table leak into new estimates; DML below the threshold keeps them;
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

from ..algebra.expressions import Expression, RelationRef
from ..algebra.source import as_source

__all__ = ["CardinalityFeedback", "DEFAULT_CAPACITY", "EDGE_TOLERANCE",
           "QERROR_THRESHOLD", "attribute_carriers", "expression_key",
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
    query's template in one walk.  Each node states its own part
    (:meth:`~repro.algebra.expressions.Expression.structural_key`); its
    children's keys come first, so constants are collected children-first.
    """
    children = expression.children
    if children:
        children = tuple([expression_key(child, params, constants)
                          for child in children])
    return expression.structural_key(children, params, constants)


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
    source = as_source(source)
    return frozenset(table for table in tables
                     if name in (source.universe(table) or ()))


class CardinalityFeedback:
    """Bounded LRU of observed cardinalities per (fingerprint, stats version)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("feedback capacity must be positive")
        self.capacity = capacity
        #: (fingerprint, statistics_version) -> actual_rows
        self._entries = OrderedDict()
        #: (attribute, carrier tables, statistics_version) -> selectivity
        #: — observed join-edge selectivities, the signal that re-orders joins
        #: (a corrected *cardinality* alone cannot: candidate joins the search
        #: prices were never executed, but their edges were)
        self._edges = OrderedDict()
        #: ``(store, key)`` of every observation folded in while a transaction
        #: is open, oldest first — ``None`` outside one
        self._recorded = None
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def version(self) -> int:
        """Bumped whenever the store's contents change in a way that could
        alter an estimate — new entry, changed value, clear or rollback."""
        return self._version

    def __len__(self) -> int:
        return len(self._entries) + len(self._edges)

    def record(self, fingerprint, statistics_version, actual_rows) -> bool:
        """Fold one observed cardinality in; returns True if anything changed.

        Re-recording an identical observation refreshes LRU recency but does
        not bump :attr:`version` — a stable workload keeps its plan cache hot.
        """
        key = (fingerprint, statistics_version)
        if self._entries.get(key) == actual_rows:
            self._entries.move_to_end(key)
            return False
        self._entries[key] = actual_rows
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._learned(self._entries, key)
        return True

    def _learned(self, store, key) -> None:
        self._version += 1
        if self._recorded is not None:
            self._recorded.append((store, key))

    def lookup(self, fingerprint, statistics_version):
        """The observed cardinality for the key, or None; refreshes recency."""
        key = (fingerprint, statistics_version)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

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
        previous = self._edges.get(key)
        if previous is not None:
            scale = max(abs(previous), 1e-12)
            if abs(previous - selectivity) <= EDGE_TOLERANCE * scale:
                self._edges.move_to_end(key)
                return False
        self._edges[key] = selectivity
        self._edges.move_to_end(key)
        while len(self._edges) > self.capacity:
            self._edges.popitem(last=False)
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
        return entry

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
            return self._entries.get(key)
        return frozenset((edge[1], value) for edge, value in self._edges.items()
                         if (edge[0], edge[2]) == key)

    def begin(self) -> int:
        """Enter a transaction scope; returns its mark for :meth:`rollback`.
        From the outermost ``begin`` to :meth:`end` the store remembers which
        keys it folds in."""
        if self._recorded is None:
            self._recorded = []
        return len(self._recorded)

    def rollback(self, mark: int) -> None:
        """Nothing learned inside a rolled-back transaction survives it: drop
        what was recorded since the scope's ``mark``.

        The observations describe rows the rollback took away, whatever
        statistics version they were keyed under.  When the scope learned
        anything the version moves on, as after any other change, so every
        cached plan's reads are checked again; it never runs backwards.
        """
        recorded = self._recorded
        if len(recorded) > mark:
            for store, key in recorded[mark:]:
                store.pop(key, None)
            del recorded[mark:]
            self._version += 1

    def end(self) -> None:
        """The outermost transaction scope is over, either way."""
        self._recorded = None

    def clear(self) -> None:
        if self._entries or self._edges:
            self._version += 1
        self._entries.clear()
        self._edges.clear()
        self.hits = self.misses = self.evictions = 0

    def as_dict(self) -> dict:
        return {
            "entries": len(self._entries),
            "edges": len(self._edges),
            "capacity": self.capacity,
            "version": self._version,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return "CardinalityFeedback(entries={}, edges={}, version={})".format(
            len(self._entries), len(self._edges), self._version)
