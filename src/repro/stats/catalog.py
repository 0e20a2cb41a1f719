"""The statistics catalog: versioned, mutation-invalidated ANALYZE results.

A :class:`StatisticsCatalog` lives on a :class:`~repro.engine.Database` and is
the single source the cost model consults.  Its contract:

* :meth:`analyze` collects fresh :class:`~repro.stats.statistics.TableStatistics`
  for one or all tables and records a *fingerprint* (the table object plus its
  mutation counter) for each;
* :meth:`get` hands out statistics **only while they are fresh** — any DML on
  the table (insert / update / delete / transaction rollback) or a drop of the
  table makes them stale, so stale distributions can never mislead the planner;
* stale statistics are kept around (inspect them via :meth:`peek`) and their
  ``row_count`` keeps following the table on every mutation, but the
  planner falls back to the default constants until the next ANALYZE;
* :attr:`version` increases whenever the *planning-relevant* state changes:
  an ANALYZE, an explicit invalidation, the first mutation that turns fresh
  statistics stale, or — independently of any ANALYZE — a table's cardinality
  crossing a power-of-two boundary since the version last changed for it.  The
  last rule matters for never-analyzed databases: plans are cached against the
  version, and a hash join that builds on a table cached while it held six
  rows must be re-planned — its build side swapped, or an index join chosen —
  once the table has grown past a few doublings.  The physical executor mixes
  this version into its plan cache key.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.trace import tracer_of
from repro.stats.statistics import TableStatistics, analyze_table


class _Entry:
    """One table's statistics plus the freshness fingerprint they were taken at."""

    __slots__ = ("statistics", "table", "mutation_count")

    def __init__(self, statistics: TableStatistics, table, mutation_count: int):
        self.statistics = statistics
        self.table = table
        self.mutation_count = mutation_count


class StatisticsCatalog:
    """Per-database registry of ANALYZE results with freshness tracking.

    Statistics are only collected on an explicit :meth:`analyze`; DML makes
    them stale, never re-collects them.
    """

    def __init__(self, database):
        self._database = database
        self._entries: Dict[str, _Entry] = {}
        #: per-table size magnitude (``row_count.bit_length()``) at the last
        #: version bump — crossing it re-plans cached plans (see class docstring)
        self._magnitudes: Dict[str, int] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on ANALYZE, invalidation, and fresh→stale transitions."""
        return self._version

    # -- collection ----------------------------------------------------------------------

    def analyze(self, name: Optional[str] = None,
                sample_size: Optional[int] = None) -> "StatisticsCatalog":
        """Run ANALYZE over one table (or every table) of the database.

        ``sample_size`` reservoir-samples tables above that row threshold and
        scales their statistics (see :func:`~repro.stats.statistics.analyze_table`);
        ``None`` reads every tuple.
        """
        names = [name] if name is not None else self._database.tables()
        tracer = tracer_of(self._database)
        for table_name in names:
            table = self._database.table(table_name)
            statistics = analyze_table(table, sample_size=sample_size)
            self._entries[table_name] = _Entry(
                statistics, table, getattr(table, "mutation_count", 0))
            if tracer is not None:
                tracer.event("analyze", table=table_name,
                             rows=statistics.row_count,
                             sample_size=sample_size)
        self._version += 1
        return self

    def restore(self, name: str, statistics: TableStatistics) -> None:
        """Install deserialized statistics as fresh for the table's current state."""
        table = self._database.table(name)
        self._entries[name] = _Entry(statistics, table, getattr(table, "mutation_count", 0))
        self._version += 1

    # -- transaction rollback support ------------------------------------------------------

    def capture(self) -> Dict[str, object]:
        """An opaque snapshot of the planning-relevant state, for rollback.

        ``Database.transaction`` takes one on entry; :meth:`rollback_capture`
        puts everything back after the table contents have been restored, so a
        rolled-back transaction leaves no trace in the version counter and
        previously fresh statistics become fresh again.
        """
        return {
            "version": self._version,
            "magnitudes": dict(self._magnitudes),
            "entries": {
                name: (entry, entry.statistics.stale, entry.statistics.row_count)
                for name, entry in self._entries.items()
            },
        }

    def rollback_capture(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`capture` after the tables were rolled back.

        Entries analyzed *during* the transaction described rolled-back
        contents and are dropped; entries from before it get their in-place
        mutations (stale flag, incremental row count) undone and their
        freshness fingerprint re-synchronized to the restored table — the
        contents are identical to when the statistics were collected, so
        statistics that were fresh at entry are fresh again.  Tables dropped
        inside the transaction (DDL survives rollback) lose their entries.
        """
        self._entries = {}
        for name, (entry, stale, row_count) in state["entries"].items():
            try:
                table = self._database.table(name)
            except Exception:
                continue
            entry.statistics.stale = stale
            entry.statistics.row_count = row_count
            entry.table = table
            entry.mutation_count = getattr(table, "mutation_count", 0)
            self._entries[name] = entry
        self._magnitudes = dict(state["magnitudes"])
        self._version = state["version"]

    # -- lookup --------------------------------------------------------------------------

    def _is_fresh(self, name: str, entry: _Entry) -> bool:
        if entry.statistics.stale:
            return False
        try:
            table = self._database.table(name)
        except Exception:
            return False
        return table is entry.table and getattr(table, "mutation_count", 0) == entry.mutation_count

    def get(self, name: str) -> Optional[TableStatistics]:
        """Fresh statistics for ``name``, or ``None`` (never analyzed / gone stale)."""
        entry = self._entries.get(name)
        if entry is None or not self._is_fresh(name, entry):
            return None
        return entry.statistics

    def peek(self, name: str) -> Optional[TableStatistics]:
        """The last collected statistics regardless of freshness (``.stale`` tells)."""
        entry = self._entries.get(name)
        if entry is None:
            return None
        if not self._is_fresh(name, entry):
            entry.statistics.stale = True
        return entry.statistics

    def is_fresh(self, name: str) -> bool:
        entry = self._entries.get(name)
        return entry is not None and self._is_fresh(name, entry)

    def names(self) -> List[str]:
        """Every table with collected (fresh or stale) statistics, sorted."""
        return sorted(self._entries)

    def fresh_names(self) -> List[str]:
        return [name for name in self.names() if self.is_fresh(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- invalidation --------------------------------------------------------------------

    def note_mutation(self, name: str, kind: str, rows: int) -> None:
        """Called by the engine on every DML statement against ``name``, with the
        number of rows the table holds afterwards.

        The first mutation after an ANALYZE turns the statistics stale and bumps
        the catalog version (invalidating cached plans); the row count keeps
        following the table so ``peek`` stays approximately right.  For
        every table — analyzed or not — a cardinality change across a
        power-of-two boundary also bumps the version, so cached build sides
        and index joins are revisited as tables grow or shrink substantially.

        The database's cardinality-feedback store piggybacks on the same hook:
        observed row counts for subexpressions reading the mutated table are
        no longer evidence and are dropped (O(1) when the table has none).
        """
        feedback = getattr(self._database, "cardinality_feedback", None)
        if feedback is not None:
            feedback.invalidate_table(name)
        entry = self._entries.get(name)
        if entry is not None:
            if not entry.statistics.stale:
                entry.statistics.stale = True
                self._version += 1
            # Not counted per kind: an update onto a stored tuple (keyless
            # tables) removes a row, a rollback any number of them.
            entry.statistics.row_count = rows
        self._track_magnitude(name, rows)

    def _track_magnitude(self, name: str, rows: int) -> None:
        magnitude = rows.bit_length()
        previous = self._magnitudes.get(name)
        if previous is None:
            self._magnitudes[name] = magnitude
        elif magnitude != previous:
            self._magnitudes[name] = magnitude
            self._version += 1

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop collected statistics (and size tracking) for one or all tables."""
        if name is None:
            changed = bool(self._entries)
            self._entries.clear()
            self._magnitudes.clear()
        else:
            changed = name in self._entries
            self._entries.pop(name, None)
            self._magnitudes.pop(name, None)
        if changed:
            self._version += 1

    def __repr__(self) -> str:
        return "StatisticsCatalog(tables={}, fresh={}, version={})".format(
            self.names(), self.fresh_names(), self._version
        )
