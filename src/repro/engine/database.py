"""Tables and the database facade.

:class:`Table` stores the tuples of one flexible relation and enforces its
definition's constraints on every insert, update and delete.  :class:`Database`
bundles a :class:`~repro.engine.catalog.Catalog` with its tables and is the object
the algebra evaluator and the optimizer talk to: it resolves relation names, exposes
declared dependencies, and runs (optionally optimized) queries.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.exec.executor import PhysicalExecutor
from repro.exec.planner import PhysicalPlan
from repro.model.attributes import attrset
from repro.model.domains import Domain
from repro.model.relation import FlexibleRelation
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


class Table:
    """The stored instance of one table definition, with constraint enforcement.

    Every applied row bumps :attr:`mutation_count`, and every *statement* that
    applied one notifies the optional ``on_mutation`` callback once —
    ``on_mutation(kind, rows)``, with the row count after the statement; the
    hook the database uses to invalidate collected statistics the moment they
    could mislead the planner.  :meth:`insert_many` is one statement, however
    many rows it applies and also when it raises after some.

    The optional ``journal`` callback — ``journal(kind, old, new)`` — is the
    write-ahead hook of durable databases: it is called after every constraint
    check has passed but *before* the mutation is applied, so a mutation is on
    the log before it is visible in memory (see :mod:`repro.storage`).
    :meth:`undo` (rollback's per-change inverse) and :meth:`restore` never
    journal: the log discards a transaction's uncommitted records by itself.
    """

    def __init__(self, definition: TableDefinition, enforce: bool = True,
                 on_mutation=None, journal=None):
        self.definition = definition
        self.checker = ConstraintChecker(
            definition,
            check_scheme=enforce,
            check_domains=enforce,
            check_dependencies=enforce,
        )
        self._tuples: Set[FlexTuple] = set()
        #: bumped on every successful insert / update / delete / restore
        self.mutation_count = 0
        self._on_mutation = on_mutation
        self._journal = journal

    def _mutated(self, kind: str, applied: int = 1) -> None:
        self.mutation_count += applied
        if self._on_mutation is not None:
            self._on_mutation(kind, len(self._tuples))

    # -- read access -----------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def tuples(self) -> Set[FlexTuple]:
        """A copy of the stored tuples."""
        return set(self._tuples)

    def __iter__(self):
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item) -> bool:
        return _as_tuple(item) in self._tuples

    def index_for(self, attributes) -> Optional["HashIndex"]:
        """A maintained hash index whose attributes are covered by ``attributes``.

        Consulted by the physical :class:`~repro.exec.operators.Scan` to answer
        pushed-down equality predicates from an index bucket instead of a full
        scan.  The key index is preferred; ``None`` when no maintained index is
        covered by the given attribute names.
        """
        wanted = attrset(attributes)
        for index in self.checker.indexes():
            if index.attributes.issubset(wanted):
                return index
        return None

    def as_relation(self) -> FlexibleRelation:
        """A :class:`FlexibleRelation` snapshot of the table."""
        relation = FlexibleRelation(
            self.definition.scheme,
            domains=self.definition.domains,
            name=self.definition.name,
            validate=False,
        )
        for tup in self._tuples:
            relation.insert(tup)
        return relation

    # -- DML ---------------------------------------------------------------------------------

    def insert(self, item) -> FlexTuple:
        """Insert a tuple after running every constraint check."""
        tup = _as_tuple(item)
        if tup in self._tuples:
            return tup
        self.checker.check_insert(tup)
        if self._journal is not None:
            self._journal("insert", None, tup)
        self._tuples.add(tup)
        self.checker.register_tuple(tup)
        self._mutated("insert")
        return tup

    def insert_many(self, items: Iterable) -> List[FlexTuple]:
        """Insert several tuples, stopping at the first violation.

        ``for item in items: insert(item)`` as one statement: every row is
        checked, journaled and applied in order by the same calls, the rows
        before a violation stay, and ``on_mutation`` fires once, after the last
        applied row.  The bulk loop of snapshot load and log replay as well.
        """
        tuples, journal = self._tuples, self._journal
        check, register = self.checker.check_insert, self.checker.register_tuple
        inserted: List[FlexTuple] = []
        applied = 0
        try:
            for item in items:
                tup = _as_tuple(item)
                if tup not in tuples:
                    check(tup)
                    if journal is not None:
                        journal("insert", None, tup)
                    tuples.add(tup)
                    register(tup)
                    applied += 1
                inserted.append(tup)
        finally:
            if applied:
                self._mutated("insert", applied)
        return inserted

    def delete(self, item) -> bool:
        """Delete a tuple; returns whether it was stored."""
        tup = _as_tuple(item)
        if tup not in self._tuples:
            return False
        if self._journal is not None:
            self._journal("delete", tup, None)
        self._tuples.remove(tup)
        self.checker.unregister_tuple(tup)
        self._mutated("delete")
        return True

    def delete_where(self, predicate) -> int:
        """Delete every tuple satisfying ``predicate`` (a callable); returns the count."""
        victims = [tup for tup in self._tuples if predicate(tup)]
        for tup in victims:
            self.delete(tup)
        return len(victims)

    # -- rollback ---------------------------------------------------------------------------------

    def undo(self, old: Optional[FlexTuple], new: Optional[FlexTuple]) -> None:
        """Invert one journaled mutation (rollback's per-change step): drop
        ``new``, put ``old`` back, index upkeep per tuple — no checks, no
        journal, no hook (the transaction fires one per touched table).  The
        membership tests cover a statement interrupted before its apply."""
        if new is not None and new in self._tuples:
            self._tuples.remove(new)
            self.checker.unregister_tuple(new)
        if old is not None and old not in self._tuples:
            self._tuples.add(old)
            self.checker.register_tuple(old)

    def snapshot(self) -> Set[FlexTuple]:
        """An opaque snapshot of the table's current contents."""
        return set(self._tuples)

    def restore(self, snapshot: Set[FlexTuple]) -> None:
        """Reset the table to a snapshot taken earlier (indexes are rebuilt)."""
        self._tuples = set(snapshot)
        for index in self.checker.indexes():
            index.clear()
        for tup in self._tuples:
            self.checker.register_tuple(tup)
        self._mutated("restore")

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
        self.checker.check_update(old_tuple, new_tuple)
        if self._journal is not None:
            self._journal("update", old_tuple, new_tuple)
        self._tuples.remove(old_tuple)
        self.checker.unregister_tuple(old_tuple)
        self._tuples.add(new_tuple)
        self.checker.register_tuple(new_tuple)
        self._mutated("update")
        return new_tuple

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

    ``auto_analyze=True`` enables the automatic re-ANALYZE policy: once a table
    has been analyzed, further DML re-collects its statistics as soon as the
    mutations since the last ANALYZE exceed 10% of the rows it had back then
    (:data:`~repro.stats.catalog.AUTO_ANALYZE_FRACTION`).  Off by default — ANALYZE stays an explicit call
    unless opted in.

    Every database carries the observability layer of :mod:`repro.obs`: a
    :class:`~repro.obs.trace.Tracer` (inert until a sink is attached), a
    :class:`~repro.obs.metrics.MetricsRegistry` behind :meth:`metrics`, a
    :class:`~repro.obs.metrics.SlowQueryLog` (queries of a second or more;
    set ``slow_query_log.threshold`` to move the line), a
    :class:`~repro.obs.feedback.CardinalityFeedback` store feeding observed
    cardinalities back into the cost model, and a
    :class:`~repro.obs.profiler.PlanWatchdog` flagging plan changes and
    latency regressions (export via :meth:`prometheus_metrics` /
    :meth:`metrics_snapshot`).

    Resource governance (see :mod:`repro.governor`): ``query_timeout`` is the
    database-wide default deadline in seconds for physical queries,
    ``memory_budget`` the default per-query byte budget on held operator
    state; ``spill=True`` lets the spill-capable operators (sort, hash
    aggregate, static-key hash join) stay under the budget via CRC-framed
    temp segments in ``spill_directory`` (system temp by default), while
    ``spill=False`` turns a blown budget into an immediate
    ``MemoryBudgetExceeded``.  Every per-query override on :meth:`execute`
    wins over these defaults.
    """

    def __init__(self, enforce_constraints: bool = True,
                 auto_analyze: bool = False,
                 durable_path: Optional[str] = None,
                 group_commit_window: float = 0.0,
                 group_commit_max: int = 64,
                 checkpoint_every_bytes: Optional[int] = None,
                 wal_fsync: bool = True,
                 wal_file_factory=None,
                 query_timeout: Optional[float] = None,
                 memory_budget: Optional[int] = None,
                 spill: bool = True,
                 spill_directory: Optional[str] = None):
        self.catalog = Catalog()
        self.enforce_constraints = enforce_constraints
        self._tables: Dict[str, Table] = {}
        self._physical_executor: Optional[PhysicalExecutor] = None
        #: collected ANALYZE results; the cost model consults this catalog
        self.statistics = StatisticsCatalog(self, auto_analyze=auto_analyze)
        #: lifecycle spans/events — attach a sink to start recording
        self.tracer = Tracer()
        #: cross-query counters/gauges/histograms (snapshot via :meth:`metrics`)
        self.metrics_registry = MetricsRegistry()
        #: queries slower than the threshold, with their worst Q-error nodes
        self.slow_query_log = SlowQueryLog()
        #: observed per-subexpression cardinalities — the cost model consults
        #: this before histogram/NDV math, so repeated queries plan with
        #: observed truth; DML- and ANALYZE-invalidated, never persisted
        self.cardinality_feedback = CardinalityFeedback()
        #: plan-change and latency-regression detection per query fingerprint
        self.plan_watchdog = PlanWatchdog()
        #: True while recovery replays the log (mutations must not re-log)
        self._journal_suppressed = False
        #: the open transaction's undo log — ``(table, old, new)`` per applied
        #: mutation, oldest first — or ``None`` outside :meth:`transaction`
        self._undo: Optional[List[Tuple[Table, Optional[FlexTuple], Optional[FlexTuple]]]] = None
        #: database-wide governance defaults (per-query arguments override)
        self.query_timeout = query_timeout
        self.memory_budget = memory_budget
        self.spill = bool(spill)
        self.spill_directory = spill_directory
        self._closed = False
        #: the durability manager of ``durable_path=...`` databases, else None
        self.durability = None
        if durable_path is not None:
            # Imported lazily: repro.storage builds on the serialization layer,
            # which imports this module.
            from repro.storage.durable import DurabilityManager

            self.durability = DurabilityManager(
                self, durable_path,
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
            self._physical_executor = PhysicalExecutor(self)
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
        if self.durability is not None and not self._journal_suppressed:
            try:
                self.durability.log_create_table(definition)
            except BaseException:
                # The registration must not outlive a failed journal write, or
                # memory and log would disagree about the schema.
                self.catalog.unregister(name)
                raise
        table = Table(
            definition,
            enforce=self.enforce_constraints,
            on_mutation=lambda kind, rows, _name=name: self._note_mutation(_name, kind, rows),
            journal=lambda kind, old, new: self._journal_mutation(table, kind, old, new),
        )
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its definition (and any collected statistics)."""
        self.table(name)  # raises CatalogError before anything is journaled
        if self.durability is not None and not self._journal_suppressed:
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

    # -- interfaces consumed by the algebra / optimizer ----------------------------------------------

    def relation(self, name: str) -> Table:
        """Alias of :meth:`table` (the evaluator's resolution hook)."""
        return self.table(name)

    def dependencies(self, name: str) -> List[Dependency]:
        """Declared dependencies of a table (the optimizer's resolution hook)."""
        return self.catalog.dependencies(name)

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
        Fresh statistics feed the cost model until the next mutation of the
        analyzed table.
        """
        if self.durability is not None and not self._journal_suppressed:
            self.durability.log_analyze(name, sample_size)
        self.statistics.analyze(name, sample_size=sample_size)
        if name is not None:
            return self.statistics.get(name)
        return self.statistics

    def stats(self, name: Optional[str] = None):
        """The last collected statistics (fresh or stale — check ``.stale``).

        With a name: that table's :class:`~repro.stats.TableStatistics` or
        ``None`` when it was never analyzed.  Without: a dict over every
        analyzed table.
        """
        if name is not None:
            return self.statistics.peek(name)
        return {table: self.statistics.peek(table) for table in self.statistics.names()}

    # -- DML convenience --------------------------------------------------------------------------------

    def insert(self, name: str, item) -> FlexTuple:
        return self.table(name).insert(item)

    def insert_many(self, name: str, items: Iterable) -> List[FlexTuple]:
        return self.table(name).insert_many(items)

    # -- durability hooks --------------------------------------------------------------------------------

    def _journal_mutation(self, table: Table, kind: str, old, new) -> None:
        """The tables' write-ahead hook: journal a checked, unapplied mutation —
        on the log, then (the log accepted it) on the open undo log."""
        if self.durability is not None and not self._journal_suppressed:
            self.durability.log_mutation(table.name, kind, old, new)
        if self._undo is not None:
            # An update onto a tuple that is already stored (keyless tables)
            # adds nothing: undoing it must leave that tuple where it was.
            merges = kind == "update" and new != old and new in table._tuples
            self._undo.append((table, old, None if merges else new))

    def _note_mutation(self, name: str, kind: str, rows: int) -> None:
        """The tables' post-apply hook: invalidate statistics, maybe checkpoint.

        The auto-checkpoint trigger must live here (after the mutation is
        applied), never in the journal hook: a snapshot taken between journal
        and apply would miss the in-flight mutation whose record sits in the
        old epoch's log — and that log is deleted after the switch.
        """
        self.statistics.note_mutation(name, kind, rows)
        if self.durability is not None and not self._journal_suppressed:
            self.durability.maybe_checkpoint()

    @contextmanager
    def _suspend_journal(self):
        """Recovery replays through the normal DML paths; this keeps the
        replay from journaling (and checkpointing) itself."""
        previous = self._journal_suppressed
        self._journal_suppressed = True
        try:
            yield
        finally:
            self._journal_suppressed = previous

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
                batch_size: Optional[int] = None,
                timeout: Optional[float] = None,
                cancel_token=None,
                memory_budget: Optional[int] = None,
                spill: Optional[bool] = None) -> EvaluationResult:
        """Evaluate an algebra expression against the stored tables.

        ``executor`` selects the execution engine: ``"physical"`` (default) runs
        the expression through the physical plan layer of :mod:`repro.exec` —
        index-aware scans, hash joins, cached plans; ``"naive"`` runs the
        reference set evaluator of :mod:`repro.algebra`.  ``batch_size`` pins
        the tuples-per-batch for this execution; ``None`` lets the planner size
        batches adaptively from the statistics.  Both executors produce
        identical result sets (enforced by the differential test suite).

        Governance (physical executor only): ``timeout`` sets this query's
        deadline in seconds (``QueryTimeout`` past it); ``cancel_token`` a
        :class:`~repro.governor.cancel.CancelToken` another thread may fire
        (``QueryCancelled``); ``memory_budget`` caps held operator state in
        bytes, with ``spill`` deciding whether spill-capable operators go to
        disk or the query fails fast (``None`` = the database default).
        """
        result, _report = self.execute_with_report(
            expression, optimize=optimize, executor=executor,
            batch_size=batch_size, timeout=timeout, cancel_token=cancel_token,
            memory_budget=memory_budget, spill=spill)
        return result

    def execute_with_report(self, expression: Expression, optimize: bool = True,
                            executor: str = "physical",
                            batch_size: Optional[int] = None,
                            timeout: Optional[float] = None,
                            cancel_token=None,
                            memory_budget: Optional[int] = None,
                            spill: Optional[bool] = None) -> Tuple[EvaluationResult, RewriteReport]:
        """Evaluate an expression and also return the optimizer's rewrite report."""
        with self.tracer.span("query.execute", executor=executor):
            with self.tracer.span("rewrite"):
                template, params = self.physical_executor.template(expression, optimize)
            return self._run_template(
                template, params, executor, batch_size, timeout=timeout,
                cancel_token=cancel_token, memory_budget=memory_budget,
                spill=spill), template.report

    def _run_template(self, template, params, executor: str,
                      batch_size: Optional[int], timeout: Optional[float] = None,
                      cancel_token=None, memory_budget: Optional[int] = None,
                      spill: Optional[bool] = None) -> EvaluationResult:
        """Run a (rewritten) query template under one parameter binding — the
        shared tail of :meth:`execute_with_report` and :meth:`query`."""
        if executor == "physical":
            return self._run_physical(
                template, params, batch_size,
                timeout=timeout, cancel_token=cancel_token,
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
        The per-query ``timeout`` wins over the database default.
        """
        effective_timeout = timeout if timeout is not None else self.query_timeout
        effective_budget = (memory_budget if memory_budget is not None
                            else self.memory_budget)
        if (effective_timeout is None and cancel_token is None
                and effective_budget is None):
            return None
        from repro.governor import QueryGovernor

        return QueryGovernor(
            cancel_token=cancel_token,
            timeout=effective_timeout,
            memory_budget=effective_budget,
            spill=self.spill if spill is None else bool(spill),
            spill_directory=self.spill_directory,
            registry=self.metrics_registry)

    def _run_physical(self, template, params,
                      batch_size: Optional[int],
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
                plan = executor.plan(template, batch_size=batch_size,
                                     params=params)
            with self.tracer.span("execute") as span:
                result = plan.execute(self, use_indexes=executor.use_indexes,
                                      governor=governor, params=params)
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
        registry.counter("queries.executed").add()
        stats = result.stats
        registry.counter("rows.scanned").add(stats.tuples_scanned)
        registry.counter("rows.joined").add(stats.join_pairs_considered)
        registry.counter("rows.produced").add(stats.tuples_produced)
        registry.histogram("query.seconds", LATENCY_BUCKETS).observe(elapsed)
        registry.histogram("plan.batch_size", BATCH_SIZE_BUCKETS).observe(
            result.context.batch_size)
        # One pass over the paired plan nodes: Q-error gauges (the estimate-
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
        paired = pair_nodes_with_stats(plan, result.context)
        stats_of = {id(node): op_stats for node, op_stats in paired}
        for node, op_stats in paired:
            if op_stats is None:
                continue
            node_q = q_error(node.estimated_rows, op_stats.rows_out)
            registry.max_gauge("qerror." + node.name).observe(node_q)
            if "aggregate" in node.name:
                # rows folded through γ nodes; the paired qerror gauge above is
                # the group-count estimation quality signal for the same node
                registry.counter("rows.aggregated").add(op_stats.rows_in)
            if op_stats.peak_bytes:
                registry.max_gauge("memory." + node.name).observe(
                    op_stats.peak_bytes)
                peak_bytes = max(peak_bytes, op_stats.peak_bytes)
            if (node.fingerprint is not None and node_q is not None
                    and q_error(max(node.estimated_rows, 1.0),
                                max(op_stats.rows_out, 1)) >= QERROR_THRESHOLD
                    # bare scans are never estimated from feedback (the cost
                    # model prices them from live table sizes), so recording
                    # them would churn the version without improving a plan
                    and node.fingerprint[0] not in ("relation", "empty")):
                # A fingerprint that contains the planning binding's values
                # is the key of *that* query only: another binding records
                # nothing under it, so two literals of one template never
                # overwrite each other (join edges are literal-free).
                if not (rebound and node.binding_specific):
                    feedback.record(node.fingerprint, statistics_version,
                                    node.feedback_tables or (), op_stats.rows_out)
                self._record_join_edges(node, op_stats, stats_of,
                                        statistics_version)
        registry.histogram("query.peak_bytes", MEMORY_BUCKETS).observe(
            peak_bytes)
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
        on = getattr(node, "on", None)
        if on is None or len(on) != 1:
            return
        children = node.children
        if len(children) == 2:
            sides = [stats_of.get(id(child)) for child in children]
            if any(side is None for side in sides):
                return
            rows = [side.rows_out for side in sides]
            tables = frozenset((children[0].feedback_tables or frozenset())
                               | (children[1].feedback_tables or frozenset()))
        elif len(children) == 1 and getattr(node, "relation", None) is not None:
            # Index-lookup join: the inner side is a base relation probed in
            # place; its current size stands in for the scanned cardinality.
            outer = stats_of.get(id(children[0]))
            if outer is None:
                return
            try:
                inner_rows = len(self.table(node.relation))
            except Exception:
                return
            rows = [outer.rows_out, inner_rows]
            tables = frozenset((children[0].feedback_tables or frozenset())
                               | {node.relation})
        else:
            return
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
        """Hand one execution to the watchdog; surface what it detected.

        Keyed by the template, so every literal of a statement shape feeds
        one latency baseline; the plan's summary (operator labels with their
        parameter placeholders) is formatted once per plan."""
        summary = plan.summary
        plan_change, regression = self.plan_watchdog.observe(
            template.key, summary["operators"], summary, elapsed)
        if plan_change is not None:
            self.tracer.event("plan-change",
                              before=plan_change["before"],
                              after=plan_change["after"],
                              baseline_seconds=plan_change["baseline_seconds"])
        if regression is not None:
            self.tracer.event("plan-regression",
                              seconds=regression["seconds"],
                              baseline_seconds=regression["baseline_seconds"],
                              factor=regression["factor"],
                              suspect_plan_change=regression["suspect_plan_change"])
            suspect = regression["suspect_plan_change"]
            note = "plan-regression: {:.1f}x vs baseline {:.4f}s".format(
                regression["factor"], regression["baseline_seconds"])
            if suspect is not None:
                note += "; suspect plan change {} -> {}".format(
                    suspect["before"]["operators"], suspect["after"]["operators"])
            self.slow_query_log.record(
                template.describe(params), elapsed, len(result.tuples),
                node_q_errors(plan, result.context), note=note)

    def metrics(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of everything the engine measured so far:
        the metric instruments, the plan cache (with hit rate), the slow-query
        log, the cardinality-feedback store and the plan watchdog."""
        cache = self.physical_executor.cache_info()
        lookups = cache["hits"] + cache["misses"]
        snapshot = {
            "metrics": self.metrics_registry.snapshot(),
            "plan_cache": dict(cache, hit_rate=(cache["hits"] / lookups
                                                if lookups else None)),
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
        the cardinality-feedback store and the watchdog's latency baselines —
        what benchmarks and long-lived sessions need between measurement
        windows.  Plans costed from a feedback entry that is now gone are
        re-planned from statistics alone; the others stay cached.
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

    def plan(self, expression: Expression, optimize: bool = True,
             batch_size: Optional[int] = None) -> PhysicalPlan:
        """The physical plan the database would run for ``expression``.

        With ``optimize=True`` the AD-driven rewrites are applied first, so the
        plan shows what actually executes; ``batch_size`` pins the plan's
        batch size (``None`` = adaptive); ``plan.explain()`` renders it.
        """
        executor = self.physical_executor
        template, params = executor.template(expression, optimize)
        return executor.plan(template, batch_size=batch_size,
                             params=params).bound(params)

    def explain(self, expression: Expression, optimize: bool = True,
                batch_size: Optional[int] = None) -> str:
        """Human-readable plan for ``expression``, with the batch-size
        decision and plan-cache counters in the header::

            batch_size=1365  plan-cache: hits=3 misses=1
            hash-join[on={event_id}] ...
        """
        plan = self.plan(expression, optimize=optimize, batch_size=batch_size)
        cache = self.physical_executor.cache_info()
        header = "batch_size={}  plan-cache: hits={} misses={}".format(
            plan.batch_size if plan.batch_size is not None else "default",
            cache["hits"], cache["misses"])
        return header + "\n" + plan.explain()

    def explain_analyze(self, expression: Expression, optimize: bool = True,
                        batch_size: Optional[int] = None) -> ExplainAnalyzeReport:
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
                template, params = self.physical_executor.template(expression, optimize)
            plan, result = self._run_physical(template, params, batch_size)
        header = "batch_size={}  wall={:.3f}ms  rows={}".format(
            result.context.batch_size,
            result.wall_seconds * 1000.0, len(result.tuples))
        text = render_explain_analyze(plan, result, header=header)
        return ExplainAnalyzeReport(plan.bound(params), result, text)

    def query(self, text: str, optimize: bool = True,
              executor: str = "physical",
              batch_size: Optional[int] = None,
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
                template, params, executor, batch_size, timeout=timeout,
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
    new)`` per applied mutation, pushed by the journal hook — which rollback
    pops newest-first through :meth:`Table.undo`; a nested scope (in-memory
    only) is a savepoint, a mark into the same list.  Only DML is undone:
    entries of a ``Table`` that is no longer the catalog's are skipped, as
    write-ahead replay applies DDL autonomously too.  Rollback also evicts the
    plans cached inside the scope, rewinds the statistics catalog to its entry
    state and drops whatever the cardinality-feedback store learned inside the
    scope (and restores its version).  It runs when the block
    raises and when a durable commit does, so reads never serve rows that were
    not acknowledged (docs/ARCHITECTURE.md, "Transactions: the undo log").
    """

    def __init__(self, database: "Database"):
        self._database = database
        self._mark = 0
        self._outermost = False
        self._statistics_state: Optional[Dict[str, object]] = None
        self._statistics_version = 0
        self._feedback_version = 0
        self._feedback_mark = 0
        self._durability = None
        self._span = None

    def __enter__(self) -> "Database":
        database = self._database
        if database.durability is not None and not database._journal_suppressed:
            database.durability.begin()
            self._durability = database.durability
        self._outermost = database._undo is None
        if self._outermost:
            database._undo = []
        self._mark = len(database._undo)
        self._statistics_state = database.statistics.capture()
        self._statistics_version = database.statistics.version
        self._feedback_version = database.cardinality_feedback.version
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
        touched: Dict[Table, None] = {}
        while len(undo) > self._mark:
            table, old, new = undo.pop()
            if database._tables.get(table.name) is table:  # DDL is not undone
                table.undo(old, new)
                touched[table] = None
        # Hooks fire once every table is back: a checkpoint they trigger must
        # not snapshot a half-undone database.
        for table in touched:
            table._mutated("restore")
        if database._physical_executor is not None:
            database._physical_executor.evict_plans_after(
                self._statistics_version, self._feedback_version)
        database.statistics.rollback_capture(self._statistics_state)
        database.cardinality_feedback.rollback(
            self._feedback_version, self._feedback_mark)


def _as_tuple(item) -> FlexTuple:
    return item if isinstance(item, FlexTuple) else FlexTuple(item)
