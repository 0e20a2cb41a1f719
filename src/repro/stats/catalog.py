"""The statistics catalog: ANALYZE results whose counts follow the tables.

A :class:`StatisticsCatalog` lives on a :class:`~repro.engine.Database` and is
the single source the cost model consults.  Statistics have one state —
*live shape counts, plus value statistics that age*:

* :meth:`analyze` collects :class:`~repro.stats.statistics.TableStatistics`
  for one or all tables; :meth:`get` serves them until the table is dropped or
  analyzed again;
* the counts a served object holds — row count and variant-tag counts, which
  give each attribute's presence — are the table's shape counts
  (each kept :class:`~repro.engine.constraints.ShapePlan` counts its stored
  rows), re-read in O(shapes) whenever the table's ``mutation_count`` moved:
  exact after any DML, rollback or recovery;
* the value distributions (histograms, most common values, NDV) describe the
  rows at ANALYZE and stay in use, read as fractions among the rows carrying
  the attribute;
* :attr:`version` is the planner's statistics clock and never runs backwards.
  It moves on an ANALYZE, a restore or an invalidation, and on *drift*: each
  time a table's ``mutation_count`` moved past :data:`DRIFT_FRACTION` of its
  rows at ANALYZE since its last bump (PostgreSQL's ``n_mod_since_analyze``
  against ``autovacuum_analyze_scale_factor`` is the idea).  Independently of
  any ANALYZE it also moves when a table's cardinality crosses a power-of-two
  boundary since the version last changed for it — for never-analyzed
  databases: a hash join that builds on a table cached while it held six rows
  must be re-planned once the table has grown past a few doublings.  The
  physical executor mixes this version into its plan cache key, and the
  cardinality-feedback store its keys, so a bump strands both.

An ANALYZE inside a transaction that rolls back is not undone, like DDL and
like the write-ahead log, which journals ANALYZE autonomously.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.stats.statistics import TableStatistics, analyze_table

#: the share of a table's rows at ANALYZE whose mutation bumps the version once
DRIFT_FRACTION = 0.1


class _Entry:
    """One table's statistics, the table, and where its counts and drift stand."""

    __slots__ = ("statistics", "table", "counted", "baseline", "drift")

    def __init__(self, statistics: TableStatistics, table):
        self.statistics = statistics
        self.table = table
        #: the ``mutation_count`` the served counts were read at (None: not yet)
        self.counted: Optional[int] = None
        #: the ``mutation_count`` at the last version bump for drift
        self.baseline: int = table.mutation_count
        #: how far ``mutation_count`` may move past the baseline without a bump
        self.drift = DRIFT_FRACTION * statistics.row_count


class StatisticsCatalog:
    """Per-database registry of ANALYZE results, served with live counts.

    Statistics are only collected on an explicit :meth:`analyze`; DML ages
    their value distributions, never re-collects them.
    """

    def __init__(self, database):
        self._database = database
        self._entries: Dict[str, _Entry] = {}
        #: per-table size magnitude (``row_count.bit_length()``) at the last
        #: version bump — crossing it re-plans cached plans (see module docstring)
        self._magnitudes: Dict[str, int] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on ANALYZE, restore, invalidation, drift and magnitude change."""
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
        tracer = self._database.tracer
        for table_name in names:
            table = self._database.table(table_name)
            statistics = analyze_table(table, sample_size=sample_size)
            self._entries[table_name] = _Entry(statistics, table)
            tracer.event("analyze", table=table_name, rows=statistics.row_count,
                         sample_size=sample_size)
        self._version += 1
        return self

    def restore(self, name: str, statistics: TableStatistics) -> None:
        """Install deserialized statistics for the table; its drift starts at 0."""
        self._entries[name] = _Entry(statistics, self._database.table(name))
        self._version += 1

    # -- lookup --------------------------------------------------------------------------

    def get(self, name: str) -> Optional[TableStatistics]:
        """The statistics of ``name`` with its current counts, or ``None``
        (never analyzed, or dropped since)."""
        entry = self._entries.get(name)
        if entry is None:
            return None
        table = entry.table
        if entry.counted != table.mutation_count:
            entry.statistics.set_counts(table.checker.shape_counts())
            entry.counted = table.mutation_count
        return entry.statistics

    def names(self) -> List[str]:
        """Every table with collected statistics, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- DML and DDL ---------------------------------------------------------------------

    def note_mutation(self, name: str, rows: int) -> None:
        """Called by the engine on every DML statement against ``name``, with the
        number of rows the table holds afterwards.

        Bumps the version once when the table's ``mutation_count`` moved past
        its drift allowance since the last bump, and — for every table,
        analyzed or not — when its cardinality crossed a power-of-two
        boundary, so cached plans and feedback are revisited as the data
        drifts or tables grow or shrink substantially.
        """
        entry = self._entries.get(name)
        if entry is not None:
            mutations = entry.table.mutation_count
            if mutations - entry.baseline > entry.drift:
                entry.baseline = mutations
                self._version += 1
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
        return "StatisticsCatalog(tables={}, version={})".format(
            self.names(), self._version)
