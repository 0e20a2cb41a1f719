"""Tables and the database facade.

:class:`Table` stores the tuples of one flexible relation and enforces its
definition's constraints on every insert, update and delete.  :class:`Database`
bundles a :class:`~repro.engine.catalog.Catalog` with its tables and is the object
the algebra evaluator and the optimizer talk to: it resolves relation names, exposes
declared dependencies, and runs (optionally optimized) queries.
"""

from __future__ import annotations

import weakref
from itertools import islice, repeat
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.evaluator import EvaluationResult, Evaluator
from repro.algebra.expressions import Expression
from repro.core.dependencies import Dependency
from repro.engine.catalog import Catalog, TableDefinition
from repro.engine.constraints import ConstraintChecker
from repro.engine.indexes import HashIndex
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.exec.context import CHUNK_RECORDS
from repro.exec.executor import PhysicalExecutor
from repro.exec.operators import HashJoin, IndexLookupJoin
from repro.exec.planner import PhysicalPlan
from repro.model.attributes import AttributeSet, attrset
from repro.model.batches import ScanView
from repro.model.domains import Domain
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.obs.explain import (
    ExplainAnalyzeReport,
    node_q_errors,
    pair_nodes_with_stats,
    render_explain_analyze,
)
from repro.obs.export import json_snapshot, prometheus_text
from repro.obs.feedback import (
    QERROR_THRESHOLD,
    CardinalityFeedback,
    attribute_carriers,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    MEMORY_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    q_error,
)
from repro.obs.profiler import PlanWatchdog
from repro.obs.trace import Tracer
from repro.optimizer.rewrite_rules import RewriteReport
from repro.stats.catalog import StatisticsCatalog

#: one change to a table's rows (see :class:`Table`)
Change = Tuple[Optional[FlexTuple], Optional[FlexTuple]]


class Table:
    """The stored instance of one table definition, with constraint enforcement.

    A change to the stored rows is an ``(old, new)`` pair: ``(None, new)``
    inserts, ``(old, None)`` deletes, both replace (an update; of a
    determining attribute, a *type* change).  One loop applies every change —
    :meth:`insert`, :meth:`insert_many`, :meth:`update`, :meth:`delete`,
    :meth:`apply`, :meth:`restore`, rollback and log replay hand it theirs —
    and keeps the indexes, the shape counts, :attr:`mutation_count` and the
    :meth:`scan_view` (dropped once per statement; a scan already reading it
    reads on from the rows it started with).

    ``on_mutation(rows)``, if given, fires once per *statement* that applied
    a change, with the row count after it — :meth:`insert_many` is one
    statement, also when it raises after some rows.  ``journal(old, new,
    merges)``, the write-ahead hook of durable databases, is called after a
    change's checks passed and *before* it is applied (see
    :mod:`repro.storage`); ``merges`` says ``new`` is stored already (keyless
    tables), so only ``old`` leaves.  :meth:`restore` and rollback never
    journal: the log discards uncommitted records by itself.
    """

    def __init__(self, definition: TableDefinition, enforce: bool = True,
                 on_mutation=None, journal=None):
        self.definition = definition
        self.checker = ConstraintChecker(definition, enforce)
        #: the stored tuples, insertion-ordered: scans ignore the hash seed
        self._tuples: Dict[FlexTuple, None] = {}
        #: bumped by every applied change
        self.mutation_count = 0
        self._on_mutation = on_mutation
        self._journal = journal
        #: attribute set -> :meth:`index_for`'s answer
        self._index_for: Dict[object, Optional[HashIndex]] = {}
        #: :meth:`scan_view`'s answer until the next change to ``_tuples``
        self._view: Optional[ScanView] = None

    # -- read access -----------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def scheme(self) -> FlexibleScheme:
        return self.definition.scheme

    def __iter__(self):
        return iter(self._tuples)

    def scan_view(self) -> ScanView:
        """The stored rows pivoted for full scans, built on first use and
        kept until the next change to the rows (see :class:`ScanView`)."""
        view = self._view
        if view is None:
            view = self._view = ScanView(list(self._tuples))
        return view

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item) -> bool:
        return _as_tuple(item) in self._tuples

    def index_for(self, attributes) -> Optional["HashIndex"]:
        """A maintained hash index whose attributes are covered by ``attributes``.

        Consulted by the physical :class:`~repro.exec.operators.Scan` to answer
        pushed-down equality predicates from an index bucket instead of a full
        scan.  The key index is preferred; ``None`` when no maintained index is
        covered by the given attribute names.  The checker's indexes are fixed
        when the table is created, so the answer is remembered per attribute
        set (an unhashable one, a list, under its frozenset).
        """
        try:
            return self._index_for[attributes]
        except KeyError:
            pass
        except TypeError:
            return self.index_for(frozenset(attributes))
        wanted = attrset(attributes)
        found = None
        for index in self.checker.indexes():
            if index.attributes.issubset(wanted):
                found = index
                break
        self._index_for[attributes] = found
        return found

    # -- DML ---------------------------------------------------------------------------------

    def apply(self, changes: Iterable[Change]) -> int:
        """Apply ``(old, new)`` changes in order as one statement, each ``old``
        checked as stored and each ``new`` as an insert that replaces it;
        returns how many were applied (on a refusal the earlier ones stay)."""
        since = self.mutation_count
        try:
            self._apply(changes)
        finally:
            self._mutated(since)
        return self.mutation_count - since

    def _apply(self, changes: Iterable[Change], checked: bool = True,
               journaled: bool = True, admitted=None) -> None:
        """The one writer of the stored rows.  Per change: the row check, the
        journal, then ``old`` leaves and ``new`` enters unless it is stored,
        filed row by row — or, for a slice :meth:`ConstraintChecker.admit_chunk`
        admitted (``admitted``: its ``(rows, shapes, plans)``), by one
        :meth:`ConstraintChecker.register_chunk`.  The membership tests let
        rollback invert a change whose statement stopped before applying it."""
        tuples, checker = self._tuples, self.checker
        journal = self._journal if journaled else None
        self._view = None
        done = 0
        try:
            for old, new in changes:
                if checked:
                    if old is not None and old not in tuples:
                        raise ConstraintViolation("tuple {!r} is not stored in table {!r}"
                                                  .format(old, self.name))
                    if new is not None:
                        checker.check_insert(new, ignore=old)
                if journal is not None:
                    journal(old, new, old is not None and new in tuples and new != old)
                if old is not None and old in tuples:
                    del tuples[old]
                    checker.unregister_tuple(old)
                if admitted is not None:  # fresh rows, filed once the slice is in
                    tuples[new] = None
                elif new is not None and new not in tuples:
                    tuples[new] = None
                    checker.register_tuple(new)
                done += 1
        finally:
            self.mutation_count += done
            if admitted is not None:
                rows, shapes, plans = admitted
                checker.register_chunk(rows[:done], shapes[:done], plans)

    def _mutated(self, since: int) -> None:
        """End of a statement: fire ``on_mutation`` once if it applied a change
        (``mutation_count`` moved past ``since``)."""
        if self.mutation_count != since and self._on_mutation is not None:
            self._on_mutation(len(self._tuples))

    def insert(self, item) -> FlexTuple:
        """Insert a tuple after running every constraint check."""
        tup = _as_tuple(item)
        if tup not in self._tuples:
            self.apply([(None, tup)])
        return tup

    def insert_many(self, items: Iterable) -> List[FlexTuple]:
        """Insert several tuples, stopping at the first violation.

        ``for item in items: insert(item)`` as one statement: the same rows are
        checked, journaled and applied in order, the rows before a violation
        stay, and ``on_mutation`` fires once, after the last applied row.  The
        rows are admitted a chunk at a time (:meth:`ConstraintChecker.admit_chunk`),
        so unlike the loop it may read up to a chunk of ``items`` past the refused
        row: those items are dropped, not left for a caller that resumes an
        iterator.  The bulk loop of :func:`~repro.engine.serialization.load_database`.
        """
        tuples, checker = self._tuples, self.checker
        source, inserted, since = iter(items), [], self.mutation_count
        try:
            while True:
                chunk, failure = [], None
                try:
                    for item in islice(source, CHUNK_RECORDS):
                        chunk.append(_as_tuple(item))
                except Exception as exc:  # a row that makes no tuple, or a failing input
                    failure = exc
                fresh = {tup: frozenset(tup._values) for tup in chunk if tup not in tuples}
                rows, shapes = list(fresh), list(fresh.values())
                while rows:
                    admitted, plans = checker.admit_chunk(rows, shapes)
                    if not admitted:
                        # the row path's refusal — or admission, were the chunk test too strict
                        checker.check_insert(rows[0])
                        admitted = 1
                    head = rows[:admitted]
                    self._apply(zip(repeat(None), head), checked=False,
                                admitted=(head, shapes[:admitted], plans))
                    rows, shapes = rows[admitted:], shapes[admitted:]
                if failure is not None:
                    raise failure
                inserted += chunk
                if len(chunk) < CHUNK_RECORDS:
                    return inserted
        finally:
            self._mutated(since)

    def delete(self, item) -> bool:
        """Delete a tuple; returns whether it was stored."""
        tup = _as_tuple(item)
        if tup not in self._tuples:
            return False
        self.apply([(tup, None)])
        return True

    def update(self, old, **changes) -> FlexTuple:
        """Replace attribute values of a stored tuple.

        The replacement is fully re-checked: as the paper notes, changing the value
        of a determining attribute (e.g. the jobtype) causes a *type* change, so the
        new tuple may require a different attribute combination and is rejected when
        it does not conform.
        """
        old_tuple = _as_tuple(old)
        if old_tuple not in self._tuples:
            raise ConstraintViolation("tuple {!r} is not stored in table {!r}".format(old_tuple, self.name))
        merged = old_tuple.as_dict()
        for name, value in changes.items():
            if value is REMOVE:
                merged.pop(name, None)
            else:
                merged[name] = value
        new_tuple = FlexTuple(merged)
        self.apply([(old_tuple, new_tuple)])
        return new_tuple

    def snapshot(self) -> Dict[FlexTuple, None]:
        """An opaque snapshot of the table's current contents."""
        return dict(self._tuples)

    def restore(self, snapshot: Iterable[FlexTuple]) -> None:
        """Reset the table to a snapshot taken earlier: every stored row leaves,
        then the snapshot's rows enter in its order — unchecked, unjournaled."""
        since, changes = self.mutation_count, [(tup, None) for tup in self._tuples]
        self._apply(changes + [(None, tup) for tup in snapshot], checked=False, journaled=False)
        self._mutated(since)

    def __repr__(self) -> str:
        return "Table({!r}, {} tuples)".format(self.name, len(self._tuples))


class _Remove:
    """Sentinel marking an attribute for removal in :meth:`Table.update`."""

    def __repr__(self) -> str:
        return "REMOVE"


#: pass ``attribute=REMOVE`` to :meth:`Table.update` to drop an attribute from a tuple
REMOVE = _Remove()


class Database:
    """A catalog plus its stored tables; the facade used by examples and benchmarks.

    Every database carries the observability layer of :mod:`repro.obs`: a
    :class:`~repro.obs.trace.Tracer` (inert until a sink is attached), a
    :class:`~repro.obs.metrics.MetricsRegistry` behind :meth:`metrics`, a
    :class:`~repro.obs.metrics.SlowQueryLog` (queries of a second or more;
    set ``slow_query_log.threshold`` to move the line), a
    :class:`~repro.obs.feedback.CardinalityFeedback` store feeding observed
    cardinalities back into the cost model, and a
    :class:`~repro.obs.profiler.PlanWatchdog` flagging plan changes and the
    ones that raised the work per returned row (export via
    :meth:`prometheus_metrics` / :meth:`metrics_snapshot`).

    Resource governance (see :mod:`repro.governor`): ``memory_budget`` is the
    default per-query byte budget on held operator state; ``spill=True`` lets
    the spill-capable operators (sort, hash aggregate, static-key hash join)
    stay under the budget via CRC-framed temp segments in ``spill_directory``
    (system temp by default), while ``spill=False`` turns a blown budget into
    an immediate ``MemoryBudgetExceeded``.  Every per-query override on :meth:`execute`
    wins over these defaults; a deadline is only ever per query (``timeout=``).

    The components a database owns (statistics catalog, physical executor,
    durability manager) hold it through a ``weakref.proxy``, and its tables'
    hooks hold neither the database nor the table strongly: no reference
    cycle runs through a database, so a dropped one is freed at once (a
    table the caller still holds then stands alone, see :meth:`create_table`).
    """

    def __init__(self, enforce_constraints: bool = True,
                 durable_path: Optional[str] = None,
                 group_commit_window: float = 0.0,
                 group_commit_max: int = 64,
                 checkpoint_every_bytes: Optional[int] = None,
                 wal_fsync: bool = True,
                 wal_file_factory=None,
                 memory_budget: Optional[int] = None,
                 spill: bool = True,
                 spill_directory: Optional[str] = None):
        self.catalog = Catalog()
        self.enforce_constraints = enforce_constraints
        self._tables: Dict[str, Table] = {}
        self._physical_executor: Optional[PhysicalExecutor] = None
        #: collected ANALYZE results; the cost model consults this catalog
        self.statistics = StatisticsCatalog(weakref.proxy(self))
        #: lifecycle spans/events — attach a sink to start recording
        self.tracer = Tracer()
        #: cross-query counters/gauges/histograms (snapshot via :meth:`metrics`)
        self.metrics_registry = MetricsRegistry()
        #: queries slower than the threshold, with their worst Q-error nodes
        self.slow_query_log = SlowQueryLog()
        #: observed per-subexpression cardinalities — the cost model consults
        #: this before histogram/NDV math, so repeated queries plan with
        #: observed truth; stranded when the statistics version moves, never
        #: persisted
        self.cardinality_feedback = CardinalityFeedback()
        #: plan-change and work-regression detection per query template
        self.plan_watchdog = PlanWatchdog()
        #: ``(registry, its generation, instruments…)``: the fixed instruments
        #: every executed query feeds, fetched once per registry generation
        self._query_instruments: Optional[tuple] = None
        #: the open transaction's undo log — ``(table, old, new)`` per applied
        #: mutation, oldest first — or ``None`` outside :meth:`transaction`
        self._undo: Optional[List[Tuple[Table, Optional[FlexTuple], Optional[FlexTuple]]]] = None
        #: database-wide governance defaults (per-query arguments override)
        self.memory_budget = memory_budget
        self.spill = bool(spill)
        self.spill_directory = spill_directory
        self._closed = False
        #: the durability manager of ``durable_path=...`` databases, else None;
        #: its ``wal`` is None while it recovers, and recovery's DDL and DML
        #: are neither journaled nor checkpointed
        self.durability = None
        if durable_path is not None:
            # Imported lazily: repro.storage builds on the serialization layer,
            # which imports this module.
            from repro.storage.durable import DurabilityManager

            self.durability = DurabilityManager(
                weakref.proxy(self), durable_path,
                group_commit_window=group_commit_window,
                group_commit_max=group_commit_max,
                checkpoint_every_bytes=checkpoint_every_bytes,
                fsync=wal_fsync,
                file_factory=wal_file_factory,
            )
            self.durability.open()

    @property
    def catalog_version(self) -> int:
        """The catalog's schema version (plan-cache invalidation hook)."""
        return self.catalog.version

    @property
    def statistics_version(self) -> int:
        """The statistics catalog's version (second plan-cache invalidation hook)."""
        return self.statistics.version

    @property
    def physical_executor(self) -> PhysicalExecutor:
        """The database's physical executor (created lazily, plan cache persists)."""
        if self._physical_executor is None:
            self._physical_executor = PhysicalExecutor(weakref.proxy(self))
        return self._physical_executor

    # -- schema management ------------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        scheme: FlexibleScheme,
        domains: Optional[Dict[str, Domain]] = None,
        key=None,
        dependencies: Optional[Sequence[Dependency]] = None,
        indexes: Optional[Sequence] = None,
    ) -> Table:
        """Register a definition and create its (empty) table.

        ``indexes`` declares secondary hash indexes (each an attribute set) the
        engine maintains alongside the key index; index-aware scans and
        index-lookup joins use them.
        """
        definition = TableDefinition(
            name, scheme, domains=domains, key=key, dependencies=dependencies,
            indexes=indexes,
        )
        self.catalog.register(definition)
        if self.durability is not None and self.durability.wal is not None:
            try:
                self.durability.log_create_table(definition)
            except BaseException:
                # The registration must not outlive a failed journal write, or
                # memory and log would disagree about the schema.
                self.catalog.unregister(name)
                raise
        # The hooks hold the database and their table weakly: a table keeps
        # neither alive.  Once the database is gone the table stands alone —
        # in memory as if it had no hooks; a durable one refuses writes, as
        # they could no longer be journaled.
        database, durable = weakref.ref(self), self.durability is not None

        def journal(old, new, merges):
            live = database()
            if live is not None:
                live._journal_mutation(owner(), old, new, merges)
            elif durable:
                raise CatalogError(
                    "table {!r}: its durable database no longer exists, the "
                    "write cannot be journaled".format(name))

        def on_mutation(rows):
            live = database()
            if live is not None:
                live._note_mutation(name, rows)

        table = Table(definition, enforce=self.enforce_constraints,
                      on_mutation=on_mutation, journal=journal)
        owner = weakref.ref(table)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its definition (and any collected statistics)."""
        self.table(name)  # raises CatalogError before anything is journaled
        if self.durability is not None and self.durability.wal is not None:
            self.durability.log_drop_table(name)
        self.catalog.unregister(name)
        del self._tables[name]
        self.statistics.invalidate(name)

    def table(self, name: str) -> Table:
        """The stored table registered under ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError("unknown table {!r}".format(name)) from None

    # -- the Source protocol (repro.algebra.source) --------------------------------------------------

    def relation(self, name: str) -> Table:
        """The stored table ``name``: its rows, in insertion order."""
        return self.table(name)

    def scan_view(self, name: str) -> ScanView:
        """The rows of table ``name`` pivoted for full scans (:meth:`Table.scan_view`)."""
        return self.table(name).scan_view()

    def universe(self, name: str) -> Optional[AttributeSet]:
        """Every attribute the scheme of table ``name`` declares, if it is known."""
        return self.catalog.universe(name)

    def dependencies(self, name: str) -> Sequence[Dependency]:
        """Declared dependencies of a table; ``()`` for an unknown one."""
        return self.catalog.dependencies(name)

    def key(self, name: str) -> Optional[AttributeSet]:
        """Declared key of a table, if any."""
        return self.catalog.key(name)

    def index_for(self, name: str, attributes) -> Optional[HashIndex]:
        """The hash index of table ``name`` covered by ``attributes``
        (:meth:`Table.index_for`); ``None`` for an unknown table."""
        table = self._tables.get(name)
        return None if table is None else table.index_for(attributes)

    def tables(self) -> List[str]:
        return self.catalog.names()

    # -- statistics -------------------------------------------------------------------------------------

    def analyze(self, name: Optional[str] = None,
                sample_size: Optional[int] = None):
        """Collect planner statistics (ANALYZE) for one table or every table.

        ``sample_size`` caps how many tuples ANALYZE reads per table: tables
        above that row threshold are reservoir-sampled and their cardinality,
        NDV (GEE-style estimator) and frequency tables are scaled up — cheap at
        millions of rows, exact enough for planning.  ``None`` reads everything.

        Returns the collected :class:`~repro.stats.TableStatistics` when a name
        is given, otherwise the database's :class:`~repro.stats.StatisticsCatalog`.
        The statistics feed the cost model until the table is analyzed again:
        their counts follow its DML, their value distributions age.  An
        ANALYZE inside a transaction that rolls back stays, as DDL does.
        """
        if name is not None:
            self.table(name)  # raises CatalogError before anything is journaled
        if self.durability is not None and self.durability.wal is not None:
            self.durability.log_analyze(name, sample_size)
        self.statistics.analyze(name, sample_size=sample_size)
        if name is not None:
            return self.statistics.get(name)
        return self.statistics

    def stats(self, name: Optional[str] = None):
        """The statistics the planner reads, with the tables' current counts.

        With a name: that table's :class:`~repro.stats.TableStatistics` or
        ``None`` when it was never analyzed.  Without: a dict over every
        analyzed table.
        """
        if name is not None:
            return self.statistics.get(name)
        return {table: self.statistics.get(table) for table in self.statistics.names()}

    # -- DML convenience --------------------------------------------------------------------------------

    def insert(self, name: str, item) -> FlexTuple:
        return self.table(name).insert(item)

    def insert_many(self, name: str, items: Iterable) -> List[FlexTuple]:
        return self.table(name).insert_many(items)

    # -- durability hooks --------------------------------------------------------------------------------

    def _journal_mutation(self, table: Table, old, new, merges: bool) -> None:
        """The tables' write-ahead hook: journal a checked, unapplied change —
        on the log, then (the log accepted it) on the open undo log."""
        if self.durability is not None and self.durability.wal is not None:
            self.durability.log_mutation(table.name, old, new)
        if self._undo is not None:
            # A change that merges onto a stored tuple adds nothing: undoing
            # it must leave that tuple where it was.
            self._undo.append((table, old, None if merges else new))

    def _note_mutation(self, name: str, rows: int) -> None:
        """The tables' post-apply hook: age statistics, maybe checkpoint.

        The auto-checkpoint trigger must live here (after the mutation is
        applied), never in the journal hook: a snapshot taken between journal
        and apply would miss the in-flight mutation whose record sits in the
        old epoch's log — and that log is deleted after the switch.
        """
        self.statistics.note_mutation(name, rows)
        if self.durability is not None and self.durability.wal is not None:
            self.durability.maybe_checkpoint()

    def checkpoint(self) -> str:
        """Snapshot the database atomically and truncate the write-ahead log.

        Only meaningful on durable databases; returns the snapshot path.
        Recovery after the checkpoint loads the snapshot and replays only the
        (fresh, small) log written since — bounding recovery cost.
        """
        if self.durability is None:
            raise CatalogError(
                "checkpoint() requires a durable database "
                "(open it with Database(durable_path=...))")
        return self.durability.checkpoint()

    def close(self) -> None:
        """Release the durability layer; safe to call any number of times.

        An open transaction is aborted (an abort record is appended best
        effort if it spilled; replay discards uncommitted work regardless), the
        write-ahead log is flushed and closed, and a second ``close()`` is a no-op.
        In-memory databases close trivially.  The in-memory tables stay
        readable — only durability is relinquished.
        """
        if self._closed:
            return
        self._closed = True
        if self.durability is not None:
            self.durability.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    # -- queries ------------------------------------------------------------------------------------------

    def execute(self, expression: Expression, optimize: bool = False,
                executor: str = "physical",
                timeout: Optional[float] = None,
                cancel_token=None,
                memory_budget: Optional[int] = None,
                spill: Optional[bool] = None) -> EvaluationResult:
        """Evaluate an algebra expression against the stored tables.

        ``executor`` selects the execution engine: ``"physical"`` (default) runs
        the expression through the physical plan layer of :mod:`repro.exec` —
        index-aware scans, hash joins, cached plans; ``"naive"`` runs the
        reference set evaluator of :mod:`repro.algebra`.  Both executors
        produce identical result sets (enforced by the differential test
        suite).

        Governance (physical executor only): ``timeout`` sets this query's
        deadline in seconds (``QueryTimeout`` past it); ``cancel_token`` a
        :class:`~repro.governor.cancel.CancelToken` another thread may fire
        (``QueryCancelled``); ``memory_budget`` caps held operator state in
        bytes, with ``spill`` deciding whether spill-capable operators go to
        disk or the query fails fast (``None`` = the database default).
        """
        result, _report = self.execute_with_report(
            expression, optimize=optimize, executor=executor,
            timeout=timeout, cancel_token=cancel_token,
            memory_budget=memory_budget, spill=spill)
        return result

    def execute_with_report(self, expression: Expression, optimize: bool = True,
                            executor: str = "physical",
                            timeout: Optional[float] = None,
                            cancel_token=None,
                            memory_budget: Optional[int] = None,
                            spill: Optional[bool] = None) -> Tuple[EvaluationResult, RewriteReport]:
        """Evaluate an expression and also return the optimizer's rewrite report."""
        with self.tracer.span("query.execute", executor=executor):
            with self.tracer.span("rewrite"):
                template, params = self.physical_executor.template(expression, optimize)
            return self._run_template(
                template, params, executor, timeout=timeout,
                cancel_token=cancel_token, memory_budget=memory_budget,
                spill=spill), template.report

    def _run_template(self, template, params, executor: str,
                      timeout: Optional[float] = None,
                      cancel_token=None, memory_budget: Optional[int] = None,
                      spill: Optional[bool] = None) -> EvaluationResult:
        """Run a (rewritten) query template under one parameter binding — the
        shared tail of :meth:`execute_with_report` and :meth:`query`."""
        if executor == "physical":
            return self._run_physical(
                template, params, timeout=timeout, cancel_token=cancel_token,
                memory_budget=memory_budget, spill=spill)[1]
        if executor != "naive":
            raise CatalogError("unknown executor {!r}; use 'physical' or 'naive'".format(executor))
        if (timeout is not None or cancel_token is not None
                or memory_budget is not None):
            raise CatalogError(
                "timeout/cancel_token/memory_budget require the physical "
                "executor; the naive evaluator is ungoverned")
        return Evaluator(self).evaluate(template.expression.substitute(params))

    def _governor_for(self, timeout: Optional[float], cancel_token,
                      memory_budget: Optional[int], spill: Optional[bool]):
        """The governor for one execution, or ``None`` when nothing bounds it
        (the common case — ungoverned queries pay zero per-batch overhead).
        The per-query ``memory_budget`` wins over the database default.
        """
        effective_budget = (memory_budget if memory_budget is not None
                            else self.memory_budget)
        if timeout is None and cancel_token is None and effective_budget is None:
            return None
        from repro.governor import QueryGovernor

        return QueryGovernor(
            cancel_token=cancel_token,
            timeout=timeout,
            memory_budget=effective_budget,
            spill=self.spill if spill is None else bool(spill),
            spill_directory=self.spill_directory,
            registry=self.metrics_registry)

    def _run_physical(self, template, params,
                      timeout: Optional[float] = None,
                      cancel_token=None,
                      memory_budget: Optional[int] = None,
                      spill: Optional[bool] = None):
        """Plan + execute a template under ``params`` through the physical
        layer, feeding the metrics.

        The shared tail of :meth:`execute_with_report`, :meth:`query` and
        :meth:`explain_analyze`: all must observe identical counters, spans
        and slow-query accounting, differing only in how they render.

        Governed runs additionally thread a
        :class:`~repro.governor.governor.QueryGovernor` into the operators
        and terminate with the taxonomy of :mod:`repro.errors` — every
        termination lands in :meth:`_observe_termination` exactly once and
        never in the success-path counters.
        """
        started = perf_counter()
        governor = self._governor_for(timeout, cancel_token, memory_budget,
                                      spill)
        executor = self.physical_executor
        plan = None
        try:
            with self.tracer.span("plan"):
                plan = executor.plan(template, params=params)
            with self.tracer.span("execute") as span:
                result = plan.execute(self, governor=governor, params=params)
                span.set(rows=len(result.tuples))
        except QueryTimeout:
            self._observe_termination("timeout", template, params, plan,
                                      perf_counter() - started)
            raise
        except QueryCancelled:
            self._observe_termination("cancelled", template, params, plan,
                                      perf_counter() - started)
            raise
        except MemoryBudgetExceeded:
            self._observe_termination("memory_exceeded", template, params, plan,
                                      perf_counter() - started)
            raise
        finally:
            if governor is not None:
                governor.finish()
        self._observe_query(template, params, plan, result,
                            perf_counter() - started)
        return plan, result

    def _observe_termination(self, reason: str, template, params,
                             plan, elapsed: float) -> None:
        """Fold one terminated (not completed) query into observability:
        a ``queries.<reason>`` counter, an unconditional slow-query-log entry
        carrying the termination reason, and a trace event — and *not*
        ``queries.executed``, so terminated and completed work never blur."""
        self.metrics_registry.counter("queries." + reason).add()
        self.slow_query_log.record(template.describe(params), elapsed, 0,
                                   note="terminated: " + reason)
        self.tracer.event("query-terminated", reason=reason, seconds=elapsed)

    def _observe_query(self, template, params, plan: PhysicalPlan,
                       result, elapsed: float) -> None:
        """Fold one executed query into the registry, the slow-query log, the
        cardinality-feedback store and the plan-regression watchdog."""
        registry = self.metrics_registry
        held = self._query_instruments
        if (held is None or held[0] is not registry
                or held[1] != registry.generation):
            held = self._query_instruments = (
                registry, registry.generation,
                registry.counter("queries.executed"),
                registry.counter("rows.scanned"),
                registry.counter("rows.joined"),
                registry.counter("rows.produced"),
                registry.histogram("query.seconds", LATENCY_BUCKETS),
                registry.histogram("plan.batch_size", BATCH_SIZE_BUCKETS),
                registry.histogram("query.peak_bytes", MEMORY_BUCKETS))
        (_, _, executed, scanned, joined, produced, seconds, batch_size,
         peak_bytes_histogram) = held
        executed.add()
        stats = result.stats
        scanned.add(stats.tuples_scanned)
        joined.add(stats.join_pairs_considered)
        produced.add(stats.tuples_produced)
        seconds.observe(elapsed)
        batch_size.observe(result.context.batch_size)
        # One pass over the plan's observer table (its nodes, resolved once
        # per registry generation) beside the executed operator stats, which
        # ``run`` registers in the same preorder: Q-error gauges (the estimate-
        # quality signal), memory max-gauges, per-query peak memory, and the
        # feedback fold-in — observed rows_out per (subexpression fingerprint,
        # statistics version), which corrects future estimates of the same
        # subexpression (ROADMAP item 4's adaptive re-optimization bridge).
        # Only *mis*-estimates (Q-error ≥ the threshold) are folded in: an
        # accurate plan leaves no feedback behind, so its cache entry stays
        # hot instead of being re-planned after every execution.  The trigger
        # counts an estimate or an outcome below one row as one row: between
        # 0.3 expected and 0 or 1 found there is nothing to correct, and the
        # infinite Q-error of a zero would otherwise record — and re-plan —
        # for ever.  (The exported gauges keep the unclamped value.)
        feedback = self.cardinality_feedback
        rebound = params != plan.params
        statistics_version = self.statistics.version
        peak_bytes = 0
        stats_of = None
        for (node, label, qerror, memory_name, aggregated, learns), op_stats in zip(
                plan.observers(registry), result.context.operator_stats):
            if op_stats.label != label:
                # the positional pairing broke (see pair_nodes_with_stats)
                continue
            node_q = q_error(node.estimated_rows, op_stats.rows_out)
            qerror.observe(node_q)
            if aggregated is not None:
                # rows folded through γ nodes; the paired qerror gauge above is
                # the group-count estimation quality signal for the same node
                aggregated.add(op_stats.rows_in)
            if op_stats.peak_bytes:
                registry.max_gauge(memory_name).observe(op_stats.peak_bytes)
                peak_bytes = max(peak_bytes, op_stats.peak_bytes)
            if (learns and node_q is not None
                    and q_error(max(node.estimated_rows, 1.0),
                                max(op_stats.rows_out, 1)) >= QERROR_THRESHOLD):
                # A fingerprint that contains the planning binding's values
                # is the key of *that* query only: another binding records
                # nothing under it, so two literals of one template never
                # overwrite each other (join edges are literal-free).
                if not (rebound and node.binding_specific):
                    feedback.record(node.fingerprint, statistics_version,
                                    op_stats.rows_out)
                if stats_of is None:
                    stats_of = {id(paired): paired_stats for paired, paired_stats
                                in pair_nodes_with_stats(plan, result.context)}
                self._record_join_edges(node, op_stats, stats_of,
                                        statistics_version)
        peak_bytes_histogram.observe(peak_bytes)
        self._watch_plan(template, params, plan, result, elapsed)
        if elapsed >= self.slow_query_log.threshold:
            self.slow_query_log.observe(
                template.describe(params), elapsed, len(result.tuples),
                node_q_errors(plan, result.context))
            self.tracer.event("slow-query", seconds=elapsed,
                              threshold=self.slow_query_log.threshold)

    def _record_join_edges(self, node, op_stats, stats_of,
                           statistics_version) -> None:
        """Derive an observed edge selectivity from a mis-estimated join node.

        ``rows_out / (rows_left × rows_right)`` of an executed single-attribute
        equi-join is the true selectivity of that join *edge*; keyed by the
        attribute and its carrier tables it corrects every candidate join over
        the same edge — including orders the search prices but never executed,
        which a per-subexpression cardinality correction cannot reach.
        Multi-attribute joins are skipped: the combined fraction cannot be
        attributed to individual attributes without guessing.
        """
        if type(node) is HashJoin:
            if node.on is None or len(node.on) != 1:
                return
            sides = [stats_of.get(id(child)) for child in node.children]
            if any(side is None for side in sides):
                return
            rows = [side.rows_out for side in sides]
            tables = frozenset((node.left.feedback_tables or frozenset())
                               | (node.right.feedback_tables or frozenset()))
        elif type(node) is IndexLookupJoin:
            # The inner side is a base relation probed in place; its current
            # size stands in for the scanned cardinality.
            outer = stats_of.get(id(node.outer))
            if len(node.on) != 1 or outer is None:
                return
            try:
                inner_rows = len(self.table(node.relation))
            except CatalogError:  # dropped since the plan was made
                return
            rows = [outer.rows_out, inner_rows]
            tables = frozenset((node.outer.feedback_tables or frozenset())
                               | {node.relation})
        else:
            return
        on = node.on
        if rows[0] <= 0 or rows[1] <= 0:
            return
        attribute = next(iter(on)).name
        carriers = attribute_carriers(self, tables, attribute)
        if not carriers:
            return
        selectivity = op_stats.rows_out / float(rows[0] * rows[1])
        self.cardinality_feedback.record_edge(
            attribute, carriers, statistics_version, selectivity)

    def _watch_plan(self, template, params, plan: PhysicalPlan,
                    result, elapsed: float) -> None:
        """Hand one execution's work to the watchdog; surface what it detected.

        Keyed by the template, so every literal of a statement shape feeds
        one baseline; the plan's summary (operator labels with their
        parameter placeholders) is formatted once per plan."""
        summary = plan.summary
        plan_change, regression = self.plan_watchdog.observe(
            template.key, summary["operators"], summary, result.stats)
        if plan_change is not None:
            self.tracer.event("plan-change",
                              before=plan_change["before"],
                              after=plan_change["after"],
                              baseline_work=plan_change["baseline_work"])
        if regression is not None:
            self.tracer.event("plan-regression",
                              work=regression["work"],
                              baseline_work=regression["baseline_work"],
                              factor=regression["factor"])
            note = ("plan-regression: {:.1f}x the work per row of the last run "
                    "({:.1f}); plan change {} -> {}").format(
                regression["factor"], regression["baseline_work"],
                plan_change["before"]["operators"],
                plan_change["after"]["operators"])
            self.slow_query_log.record(
                template.describe(params), elapsed, len(result.tuples),
                node_q_errors(plan, result.context), note=note)

    def metrics(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of everything the engine measured so far:
        the metric instruments, the plan cache (with hit rate), how query
        texts were resolved (raw-remainder hits, token-stream hits, parses),
        the slow-query log, the cardinality-feedback store and the plan
        watchdog."""
        cache = self.physical_executor.cache_info()
        lookups = cache["hits"] + cache["misses"]
        snapshot = {
            "metrics": self.metrics_registry.snapshot(),
            "plan_cache": dict(cache, hit_rate=(cache["hits"] / lookups
                                                if lookups else None)),
            "statement_cache": self.physical_executor.statement_info(),
            "slow_queries": self.slow_query_log.as_dict(),
            "feedback": self.cardinality_feedback.as_dict(),
            "watchdog": self.plan_watchdog.as_dict(),
        }
        if self.durability is not None:
            snapshot["durability"] = self.durability.as_dict()
        return snapshot

    def reset_metrics(self) -> None:
        """Re-baseline the observability layer without rebuilding the database.

        Clears the metric registry, the slow-query log (its threshold stays),
        the cardinality-feedback store and the watchdog's baselines — what
        benchmarks and long-lived sessions need between measurement windows.
        Plans costed from a feedback entry that is now gone are re-planned
        from statistics alone; the others stay cached.
        """
        self.metrics_registry.reset()
        self.slow_query_log.clear()
        self.cardinality_feedback.clear()
        self.plan_watchdog.clear()

    def prometheus_metrics(self, prefix: str = "repro") -> str:
        """The metric registry in the Prometheus text exposition format."""
        return prometheus_text(self.metrics_registry, prefix=prefix)

    def metrics_snapshot(self) -> Dict[str, object]:
        """A versioned JSON snapshot envelope: the registry plus the engine
        sections of :meth:`metrics` (plan cache, slow queries, feedback,
        watchdog) under a ``format``/``version`` header."""
        engine = self.metrics()
        del engine["metrics"]
        return json_snapshot(self.metrics_registry, extra=engine)

    def _template(self, query: Expression | str, optimize: bool):
        """``query``'s template and parameter binding: query text resolves
        as :meth:`query` resolves it, an expression as :meth:`execute`."""
        executor = self.physical_executor
        if isinstance(query, str):
            return executor.statement(query, optimize)
        return executor.template(query, optimize)

    def plan(self, expression: Expression | str,
             optimize: bool = True) -> PhysicalPlan:
        """The physical plan the database would run for ``expression`` (an
        algebra expression or query text).

        With ``optimize=True`` the AD-driven rewrites are applied first, so the
        plan shows what actually executes; ``plan.explain()`` renders it.
        """
        template, params = self._template(expression, optimize)
        return self.physical_executor.plan(template, params=params).bound(params)

    def explain(self, expression: Expression | str, optimize: bool = True) -> str:
        """Human-readable plan for ``expression``, with the batch-size
        decision and plan-cache counters in the header::

            batch_size=1365  plan-cache: hits=3 misses=1
            hash-join[on={event_id}] ...
        """
        plan = self.plan(expression, optimize=optimize)
        cache = self.physical_executor.cache_info()
        header = "batch_size={}  plan-cache: hits={} misses={}".format(
            plan.batch_size, cache["hits"], cache["misses"])
        return header + "\n" + plan.explain()

    def explain_analyze(self, expression: Expression | str,
                        optimize: bool = True) -> ExplainAnalyzeReport:
        """Execute ``expression`` and render the plan annotated with what
        actually happened: per node, actual vs estimated rows, the Q-error
        ``max(est/actual, actual/est)``, inclusive wall time and batch count.

        The query **really runs** — results and counters are identical to
        :meth:`execute` (asserted by the test suite) and the execution feeds
        :meth:`metrics` and the slow-query log exactly like a normal query.
        ``print(db.explain_analyze(expr))`` shows the transcript;
        ``report.result`` carries the tuples and the per-operator breakdown,
        ``report.q_errors`` the per-node estimate quality.
        """
        with self.tracer.span("query.explain-analyze"):
            with self.tracer.span("rewrite"):
                template, params = self._template(expression, optimize)
            plan, result = self._run_physical(template, params)
        header = "batch_size={}  wall={:.3f}ms  rows={}".format(
            result.context.batch_size,
            result.wall_seconds * 1000.0, len(result.tuples))
        text = render_explain_analyze(plan, result, header=header)
        return ExplainAnalyzeReport(plan.bound(params), result, text)

    def query(self, text: str, optimize: bool = True,
              executor: str = "physical",
              timeout: Optional[float] = None,
              cancel_token=None,
              memory_budget: Optional[int] = None,
              spill: Optional[bool] = None) -> EvaluationResult:
        """Parse and evaluate a textual query (see :mod:`repro.query`).

        ``db.query("SELECT name FROM employees WHERE jobtype = 'secretary'")``

        The governance arguments (``timeout``, ``cancel_token``,
        ``memory_budget``, ``spill``) mean exactly what they do on
        :meth:`execute`.  A statement that differs from an earlier one
        only in its constants reuses that one's parsed, rewritten template and
        its physical plan (see :mod:`repro.exec.executor`).
        """
        with self.tracer.span("query", text=text):
            with self.tracer.span("parse"):
                template, params = self.physical_executor.statement(text, optimize)
            return self._run_template(
                template, params, executor, timeout=timeout,
                cancel_token=cancel_token, memory_budget=memory_budget,
                spill=spill)

    # -- transactions ----------------------------------------------------------------------------------

    def transaction(self) -> "_Transaction":
        """An all-or-nothing scope over every table of the database.

        ::

            with db.transaction():
                db.insert("employees", {...})
                db.insert("employees", {...})   # a violation here rolls both back

        On normal exit the changes stay; when the block raises — or, on a
        durable database, the commit itself fails — the mutations made inside
        are undone newest-first and the exception propagates.  Nested scopes
        are savepoints (in-memory databases only).
        """
        return _Transaction(self)

    def __repr__(self) -> str:
        return "Database(tables={})".format(
            {name: len(self._tables[name]) for name in self.catalog.names()}
        )


class _Transaction:
    """Context manager implementing :meth:`Database.transaction`.

    The scope keeps an **undo log** — ``Database._undo``, one ``(table, old,
    new)`` per applied change, pushed by the journal hook — which rollback
    pops newest-first, handing each table its inverse changes ``(new, old)``
    through the table's one write loop, unchecked and unjournaled; a nested
    scope (in-memory only) is a savepoint, a mark into the same list.  Only DML is undone:
    entries of a ``Table`` that is no longer the catalog's are skipped, as
    write-ahead replay applies DDL autonomously too, and so is ANALYZE.  The
    statistics need no rewind: their counts are the tables' shape counts,
    which the write loop keeps, and their version never runs backwards.  Rollback
    drops whatever the cardinality-feedback store learned inside the scope and
    moves its version on, so the plan cache checks again what each plan read.  It runs when the block
    raises and when a durable commit does, so reads never serve rows that were
    not acknowledged (docs/ARCHITECTURE.md, "Transactions: the undo log").
    """

    def __init__(self, database: "Database"):
        self._database = database
        self._mark = 0
        self._outermost = False
        self._feedback_mark = 0
        self._durability = None
        self._span = None

    def __enter__(self) -> "Database":
        database = self._database
        if database.durability is not None and database.durability.wal is not None:
            database.durability.begin()
            self._durability = database.durability
        self._outermost = database._undo is None
        if self._outermost:
            database._undo = []
        self._mark = len(database._undo)
        self._feedback_mark = database.cardinality_feedback.begin()
        self._span = database.tracer.span("transaction").__enter__()
        return database

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        durable = exc_type is None and self._durability is not None
        if durable:
            try:
                self._durability.commit()
            except BaseException as failure:
                self._close(type(failure))
                raise
        self._close(exc_type)
        if durable:
            # Not under the guard above: the transaction is durable by now, a
            # failing checkpoint must not roll it back in memory.
            self._durability.maybe_checkpoint()
        return False

    def _close(self, error) -> None:
        """End the scope: undo unless it committed, release the log, report."""
        database = self._database
        changes = len(database._undo) - self._mark
        outcome, counter = (("commit", "transactions.committed") if error is None
                            else ("rollback", "transactions.rolled_back"))
        try:
            if error is not None:
                self._rollback()
        finally:
            if self._outermost:
                database._undo = None
                database.cardinality_feedback.end()
            database.metrics_registry.counter(counter).add()
            self._span.set(outcome=outcome, changes=changes)
            self._span.__exit__(error, None, None)

    def _rollback(self) -> None:
        database = self._database
        if self._durability is not None:
            self._durability.abort()
        undo = database._undo
        inverses: Dict[Table, List[Change]] = {}
        while len(undo) > self._mark:
            table, old, new = undo.pop()
            if database._tables.get(table.name) is table:  # DDL is not undone
                inverses.setdefault(table, []).append((new, old))
        since = {table: table.mutation_count for table in inverses}
        for table, changes in inverses.items():
            table._apply(changes, checked=False, journaled=False)
        # Hooks fire once every table is back: a checkpoint they trigger must
        # not snapshot a half-undone database.
        for table in inverses:
            table._mutated(since[table])
        database.cardinality_feedback.rollback(self._feedback_mark)


def _as_tuple(item) -> FlexTuple:
    return item if isinstance(item, FlexTuple) else FlexTuple(item)
