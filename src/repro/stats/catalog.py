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
  version, and a nested-loop join cached while a table held five rows must be
  re-planned once the table has grown past a few doublings.  The physical
  executor mixes this version into its plan cache key.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.trace import tracer_of
from repro.stats.statistics import TableStatistics, analyze_table

#: auto re-ANALYZE fires once the mutations since the last ANALYZE exceed this
#: share of the rows the table had then …
AUTO_ANALYZE_FRACTION = 0.1
#: … and never for fewer mutations than this
AUTO_ANALYZE_MIN_MUTATIONS = 5


class _Entry:
    """One table's statistics plus the freshness fingerprint they were taken at."""

    __slots__ = ("statistics", "table", "mutation_count", "analyzed_rows",
                 "sample_size")

    def __init__(self, statistics: TableStatistics, table, mutation_count: int,
                 sample_size: Optional[int] = None):
        self.statistics = statistics
        self.table = table
        self.mutation_count = mutation_count
        #: row count at ANALYZE time — the baseline of the auto-ANALYZE threshold
        self.analyzed_rows = statistics.row_count
        #: the sampling knob ANALYZE was run with (auto re-ANALYZE reuses it)
        self.sample_size = sample_size


class StatisticsCatalog:
    """Per-database registry of ANALYZE results with freshness tracking.

    ``auto_analyze=True`` additionally re-runs ANALYZE on a previously analyzed
    table as soon as the mutations since its last ANALYZE exceed
    :data:`AUTO_ANALYZE_FRACTION` of the rows it had back then — but never fewer
    than :data:`AUTO_ANALYZE_MIN_MUTATIONS`, so tiny tables are not re-analyzed on
    every single insert during a bulk load.  The re-ANALYZE reuses the table's
    last ``sample_size``, so sampled tables stay cheap to refresh.  Off by
    default: statistics only move on explicit calls.
    """

    def __init__(self, database, auto_analyze: bool = False):
        self._database = database
        self._entries: Dict[str, _Entry] = {}
        #: per-table size magnitude (``row_count.bit_length()``) at the last
        #: version bump — crossing it re-plans cached plans (see class docstring)
        self._magnitudes: Dict[str, int] = {}
        self._version = 0
        self.auto_analyze = auto_analyze
        self._auto_analyzing = False

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
                statistics, table, getattr(table, "mutation_count", 0),
                sample_size=sample_size,
            )
            if tracer is not None:
                tracer.event("analyze", table=table_name,
                             rows=statistics.row_count,
                             sample_size=sample_size,
                             auto=self._auto_analyzing)
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
        power-of-two boundary also bumps the version, so cached join-algorithm
        choices are revisited as tables grow or shrink substantially.

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
        if entry is not None:
            self._maybe_auto_analyze(name, entry)

    def _maybe_auto_analyze(self, name: str, entry: _Entry) -> None:
        """Re-ANALYZE ``name`` when its mutations passed the auto threshold."""
        if not self.auto_analyze or self._auto_analyzing:
            return
        mutations = getattr(entry.table, "mutation_count", 0) - entry.mutation_count
        threshold = max(AUTO_ANALYZE_MIN_MUTATIONS,
                        int(AUTO_ANALYZE_FRACTION * entry.analyzed_rows))
        if mutations < threshold:
            return
        tracer = tracer_of(self._database)
        if tracer is not None:
            tracer.event("auto-analyze", table=name, mutations=mutations,
                         threshold=threshold)
        self._auto_analyzing = True
        try:
            self.analyze(name, sample_size=entry.sample_size)
        finally:
            self._auto_analyzing = False

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
