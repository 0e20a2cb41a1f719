"""The physical executor: template, plan, cache, run.

:class:`PhysicalExecutor` is the session-level entry point the engine uses.
Its plan cache is keyed by the query's **template**, not by its literals
(``docs/ARCHITECTURE.md``, "The plan cache", has the full story):

* :meth:`PhysicalExecutor.template` walks an expression once and lifts its
  comparison constants into numbered :class:`~repro.algebra.predicates.Parameter`
  slots — *unless the rewrite rules can read them*: equalities on the
  determining attributes of a declared explicit AD (``jobtype = 'secretary'``
  selects the record type) and equalities under a union or a rename, which
  are compared with the branches' own, stay in the template as structure
  (``TAG``/extension values are part of the walk's key anyway).  Rewriting the
  template once is then rewriting every query it stands for.
  :meth:`PhysicalExecutor.statement` does the same for query text, keyed by the
  literal-stripped token stream: a repeated statement shape skips lexer-to-AST,
  rewrite and the walk.
* :class:`PlanKey` adds what planning depends on besides the template,
  including each parameter's type and *selectivity bucket*, so a skewed value
  gets a plan of its own through the key alone.
* cardinality feedback is *not* in the key: a cached plan remembers what its
  costing read from the feedback store and is re-planned when one of those
  reads would come out differently (:meth:`PhysicalExecutor._reads_hold`).

Plans resolve relations and indexes at *execution* time, so cached plans stay
correct across DML — data changes can at worst make a cached join-algorithm
choice suboptimal, never wrong.  Statements and templates live in a second LRU
of the plan cache's size, keyed with the catalog version.
"""

from __future__ import annotations

from collections import OrderedDict
from math import log2
from typing import Dict, NamedTuple, Optional, Tuple

from repro.algebra.evaluator import ExecutionStats
from repro.algebra.expressions import (
    Expression,
    Rename,
    Selection,
    Union,
    _catalog_dependencies,
)
from repro.algebra.predicates import Comparison, Parameter
from repro.core.dependencies import ExplicitAttributeDependency
from repro.exec.planner import (
    PhysicalPlan,
    PhysicalPlanner,
    PhysicalResult,
)
from repro.obs.feedback import expression_key, referenced_tables
from repro.obs.trace import tracer_of
from repro.optimizer.planner import Planner
from repro.optimizer.rewrite_rules import RewriteReport
from repro.query.lexer import Token, strip_literals, tokenize
from repro.query.parser import parse_query, parse_tokens

#: plans (and, separately, statements and templates) the executor keeps
PLAN_CACHE_SIZE = 128


class PlanKey(NamedTuple):
    """Everything a cached physical plan depends on, by name."""

    template: tuple
    #: ``(type, selectivity bucket)`` per parameter slot
    parameters: tuple
    batch_size: Optional[int]
    join_order_search: Optional[str]
    catalog_version: object
    statistics_version: object


class QueryTemplate(NamedTuple):
    """A rewritten query with its data constants lifted into parameter slots."""

    key: tuple
    expression: Expression
    report: RewriteReport
    #: ``(slot, selection input, attribute, operator)`` per parameter: where a
    #: binding's selectivity bucket is read off the statistics
    sites: tuple

    def describe(self, params) -> str:
        """The query this template is under ``params``, as text (for the logs)."""
        return repr(self.expression.substitute(params))


def _parameter_sites(expression: Expression):
    sites = []
    pending = [expression]
    while pending:
        node = pending.pop()
        pending.extend(node.children)
        if isinstance(node, Selection):
            def note(comparison, selected=node.child):
                if isinstance(comparison.value, Parameter):
                    sites.append((comparison.value.slot, selected,
                                  comparison._name, comparison.op))
                return comparison

            node.predicate.map_comparisons(note)
    return tuple(sites)


class PlanCache:
    """A small LRU cache of physical plans."""

    def __init__(self, max_size: int):
        self.max_size = max_size
        self._plans: "OrderedDict[tuple, PhysicalPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key, usable=None) -> Optional[PhysicalPlan]:
        """The cached plan — a miss too when ``usable(plan)`` says it is stale."""
        plan = self._plans.get(key)
        if plan is None or (usable is not None and not usable(plan)):
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key, plan: PhysicalPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_size:
            self._plans.popitem(last=False)

    def clear(self) -> None:
        self._plans.clear()

    def evict(self, predicate) -> int:
        """Drop every cached plan with ``predicate(key, plan)``; returns count."""
        doomed = [key for key, plan in self._plans.items() if predicate(key, plan)]
        for key in doomed:
            del self._plans[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return "PlanCache(size={}, hits={}, misses={})".format(
            len(self._plans), self.hits, self.misses
        )


def _catalog_version(source) -> object:
    """The source's schema version, or ``None`` for versionless sources (dicts)."""
    return getattr(source, "catalog_version", None)


def _statistics_version(source) -> object:
    """The source's statistics version (plans depend on the estimates they were
    chosen under, so a re-ANALYZE or a fresh→stale transition must re-plan)."""
    return getattr(source, "statistics_version", None)


class PhysicalExecutor:
    """Executes logical expressions through cached physical plans.

    ``source`` is a :class:`repro.engine.Database` or any relation source the
    evaluator accepts; databases additionally contribute their catalog version to
    the cache key and their hash indexes to scans.
    """

    def __init__(self, source, planner: Optional[PhysicalPlanner] = None,
                 use_indexes: bool = True):
        self.source = source
        self.planner = planner if planner is not None else PhysicalPlanner(source=source)
        self.cache = PlanCache(PLAN_CACHE_SIZE)
        #: statements, template shapes and templates, under the same LRU bound
        self._templates = PlanCache(PLAN_CACHE_SIZE)
        self._shapes = 0
        self.use_indexes = use_indexes

    @property
    def cache_hits(self) -> int:
        """Plan-cache hits since this executor was created."""
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        """Plan-cache misses (each one planned an expression from scratch)."""
        return self.cache.misses

    def cache_info(self) -> Dict[str, int]:
        """The plan-cache counters as a plain dict (rendered by explain output)."""
        return {"hits": self.cache.hits, "misses": self.cache.misses,
                "size": len(self.cache), "max_size": self.cache.max_size}

    def evict_plans_after(self, statistics_version: int,
                          feedback_version: int) -> int:
        """Drop plans cached or re-validated under versions newer than the given.

        Called by transaction rollback before it winds the statistics and
        feedback version counters back: versions bumped inside the rolled-back
        transaction will be handed out again for *different* future states, so
        a plan keyed by such a statistics version — or whose feedback reads
        were taken against observations made inside the transaction — must
        not survive to alias those states.
        """
        def too_new(key: PlanKey, plan: PhysicalPlan) -> bool:
            return ((isinstance(key.statistics_version, int)
                     and key.statistics_version > statistics_version)
                    or (plan.feedback_version is not None
                        and plan.feedback_version > feedback_version))

        return self.cache.evict(too_new)

    # -- templates -------------------------------------------------------------------------

    def template(self, expression: Expression,
                 optimize: bool = False) -> Tuple[QueryTemplate, tuple]:
        """``(template, params)`` of an expression with concrete constants.

        One tree walk yields the literal-free key and the constants; which of
        them are structure is remembered per key (it depends on the declared
        dependencies only).  ``optimize`` applies the AD-driven rewrites to
        the template — once, for every binding.
        """
        constants: list = []
        walk_key = expression_key(expression, constants=constants)
        shape = self._shape(walk_key, expression, constants)
        params = tuple(comparison.value for comparison in constants)
        return self._template(shape, params, optimize, expression, constants), params

    def statement(self, text: str, optimize: bool = False) -> Tuple[QueryTemplate, tuple]:
        """``(template, params)`` of query text; see :meth:`template`.

        The literal-stripped token stream remembers its template shape and
        where each literal goes, so only a new statement shape is parsed.
        """
        tokens = tokenize(text)
        stripped, literals = strip_literals(tokens)
        key = ("statement", stripped, _catalog_version(self.source))
        entry = self._templates.get(key)
        if entry is None:
            # Parse with each stripped literal replaced by its position among
            # them: the walk then tells where the template wants each one.
            position = iter(range(len(literals)))
            marked = parse_tokens([
                token if kept is not None or token.kind == "EOF"
                else Token(token.kind, next(position), token.position)
                for token, kept in zip(tokens, stripped)])
            constants: list = []
            walk_key = expression_key(marked, constants=constants)
            entry = (self._shape(walk_key, marked, constants),
                     tuple(comparison.value for comparison in constants))
            self._templates.put(key, entry)
        shape, order = entry
        # (an IN list is one constant made of several literals)
        params = tuple(literals[at] if at.__class__ is int
                       else [literals[item] for item in at] for at in order)
        return self._template(shape, params, optimize, text), params

    def _shape(self, walk_key, expression: Expression, constants) -> tuple:
        """``(id, structural slots)`` of a literal-free key: the slots whose
        constants the rewrite rules can read (see the module docstring)."""
        key = ("shape", walk_key, _catalog_version(self.source))
        shape = self._templates.get(key)
        if shape is None:
            determinants = set()
            for table in referenced_tables(expression):
                for dependency in _catalog_dependencies(self.source, table):
                    if isinstance(dependency, ExplicitAttributeDependency):
                        determinants.update(a.name for a in dependency.lhs)
            compared = False
            pending = [expression]
            while pending and not compared:
                node = pending.pop()
                compared = isinstance(node, (Union, Rename))
                pending.extend(node.children)
            self._shapes += 1
            shape = (self._shapes, tuple(
                slot for slot, comparison in enumerate(constants)
                if comparison.op in ("=", "==")
                and (compared or comparison._name in determinants)))
            self._templates.put(key, shape)
        return shape

    def _template(self, shape, params, optimize: bool, source,
                  constants=None) -> QueryTemplate:
        """The template of a shape under its structural constants; built — from
        query text or an expression and the constants of its walk — on a miss."""
        shape_id, structural = shape
        key = (shape_id, tuple(repr(params[slot]) for slot in structural), optimize)
        template = self._templates.get(key)
        if template is None:
            expression = source
            if isinstance(source, str):
                expression, constants = parse_query(source), []
                expression_key(expression, constants=constants)
            lifted = {id(comparison): Comparison(comparison.attribute, comparison.op,
                                                 Parameter(slot))
                      for slot, comparison in enumerate(constants)
                      if slot not in structural}
            expression = expression.map_comparisons(
                lambda comparison: lifted.get(id(comparison), comparison))
            report = RewriteReport()
            if optimize:
                expression, report = Planner(catalog=self.source).optimize(expression)
            template = QueryTemplate(key, expression, report,
                                     _parameter_sites(expression))
            self._templates.put(key, template)
        return template

    # -- plans -----------------------------------------------------------------------------

    def _parameter_classes(self, template: QueryTemplate, params) -> tuple:
        """``(type, selectivity bucket)`` per parameter, for the plan key: the
        bucket is ⌊log₂⌋ of the rows fresh statistics estimate for the
        parameter's comparison (−1 below one row), ``None`` without them."""
        buckets: Dict[int, object] = {}
        for slot, selected, attribute, op in template.sites:
            statistics = self.planner.cost_model.base_statistics(selected)
            column = statistics.attribute(attribute) if statistics is not None else None
            if column is not None:
                fraction = column.comparison_fraction(op, params[slot])
                if fraction is not None:
                    rows = fraction * statistics.row_count
                    buckets[slot] = int(log2(rows)) if rows >= 1.0 else -1
        return tuple((value.__class__, buckets.get(slot))
                     for slot, value in enumerate(params))

    def _reads_hold(self, plan: PhysicalPlan, params) -> bool:
        """Whether the feedback the plan's costing read still reads the same.

        O(1) while the store has not changed since the last full check.
        Reads keyed by the planning binding's own literals (``bound-rows``)
        only count for a call with that binding: what another literal observed
        is no evidence against this plan, and a plan re-planned for every new
        literal's first observation would never be reused.
        """
        feedback = getattr(self.source, "cardinality_feedback", None)
        if feedback is None or plan.feedback_version == feedback.version:
            return True
        same_binding = params == plan.params
        for dependency, seen in plan.feedback_reads.items():
            if ((same_binding or dependency[0] != "bound-rows")
                    and feedback.current(dependency) != seen):
                return False
        if same_binding:
            plan.feedback_version = feedback.version
        return True

    def plan(self, expression, batch_size: Optional[int] = None,
             params=None) -> PhysicalPlan:
        """The (possibly cached) physical plan for ``expression``.

        ``expression`` is a :class:`QueryTemplate` with its ``params`` — the
        returned plan is the template's shared one, to be executed with
        ``params=`` — or an expression with concrete constants, for which the
        plan comes back bound to them.

        ``batch_size`` pins the plan's batch size (``None`` lets the planner
        size batches adaptively).  The cache key includes the batch-size
        request, so a plan built (and sized) for one batch size is never
        reused when the caller asks for another.
        """
        if not isinstance(expression, QueryTemplate):
            template, params = self.template(expression)
            return self.plan(template, batch_size, params).bound(params)
        key = PlanKey(expression.key,
                      self._parameter_classes(expression, params) if params else (),
                      batch_size,
                      getattr(self.planner, "join_order_search", None),
                      _catalog_version(self.source), _statistics_version(self.source))
        tracer = tracer_of(self.source)
        plan = self.cache.get(key, lambda cached: self._reads_hold(cached, params))
        if plan is None:
            if tracer is not None:
                tracer.event("plan-cache-miss", hits=self.cache.hits,
                             misses=self.cache.misses)
            plan = self.planner.plan(expression.expression,
                                     batch_size=batch_size, params=params)
            plan.feedback_version = getattr(
                getattr(self.source, "cardinality_feedback", None), "version", None)
            self.cache.put(key, plan)
        elif tracer is not None:
            tracer.event("plan-cache-hit", hits=self.cache.hits,
                         misses=self.cache.misses)
        return plan

    def execute(self, expression: Expression,
                stats: Optional[ExecutionStats] = None,
                batch_size: Optional[int] = None,
                governor=None) -> PhysicalResult:
        """Plan (or fetch from cache) and run ``expression``.

        The plan carries its batch-size decision (adaptive or requested), so no
        separate size is passed at execution time.  ``governor`` bounds the
        execution (see :mod:`repro.governor`).
        """
        plan = self.plan(expression, batch_size=batch_size)
        return plan.execute(self.source, stats=stats,
                            use_indexes=self.use_indexes, governor=governor)

    def __repr__(self) -> str:
        return "PhysicalExecutor({!r})".format(self.cache)
