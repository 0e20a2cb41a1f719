"""The physical executor: template, plan, cache, run.

:class:`PhysicalExecutor` is the session-level entry point the engine uses.
Its plan cache is keyed by the query's **template**, not by its literals
(``docs/ARCHITECTURE.md``, "The plan cache", has the full story):

* :meth:`PhysicalExecutor.template` reads an expression's literal-free key and
  comparisons off its root (:meth:`~repro.algebra.expressions.Expression.structure`)
  and lifts the constants into numbered :class:`~repro.algebra.predicates.Parameter`
  slots — *unless the rewrite rules can read them*: equalities on the
  determining attributes of a declared explicit AD (``jobtype = 'secretary'``
  selects the record type) and equalities under a union or a rename, which
  are compared with the branches' own, stay in the template as structure
  (``TAG``/extension values are part of the key anyway).  Rewriting the
  template once is then rewriting every query it stands for.
  :meth:`PhysicalExecutor.statement` does the same for query text, keyed by the
  literal-stripped token stream: a repeated statement shape skips lexer-to-AST,
  rewrite and the key.  A repeated *text* shape skips the lexer too: the text
  with its literals cut out (one regex split) is a second key into the same
  entry, registered only after the tokens confirmed the cut — every stripped
  literal at the probe's start, with the same decoded value and type.  Texts
  whose cut the tokens cannot confirm (a ``TAG`` value, a literal in a ``--``
  comment, a signed number) always take the token path.
* :class:`PlanKey` adds what planning depends on besides the template,
  including each parameter's type and *selectivity bucket*, so a skewed value
  gets a plan of its own through the key alone.  Batch size and join order
  are the planner's decisions, derived from the same inputs; no caller sets
  them, so they are not in the key.
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
from repro.algebra.expressions import Expression, Rename, Selection, Union
from repro.algebra.predicates import Comparison, Parameter
from repro.algebra.source import as_source
from repro.core.dependencies import ExplicitAttributeDependency
from repro.exec.planner import (
    PhysicalPlan,
    PhysicalPlanner,
    PhysicalResult,
)
from repro.obs.feedback import referenced_tables
from repro.optimizer.planner import Planner
from repro.optimizer.rewrite_rules import RewriteReport
from repro.query.lexer import (
    Token,
    literal_spans,
    literal_value,
    strip_literals,
    tokenize,
)
from repro.query.parser import parse_query, parse_tokens

#: plans (and, separately, statements and templates) the executor keeps
PLAN_CACHE_SIZE = 128


class PlanKey(NamedTuple):
    """Everything a cached physical plan depends on, by name.  (The planner's
    join-order search mode is fixed per executor and its batch size is derived
    from the same estimates, so neither is part of it.)"""

    template: tuple
    #: ``(type, selectivity bucket)`` per parameter slot
    parameters: tuple
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

    def get(self, key, usable=None, *args) -> Optional[PhysicalPlan]:
        """The cached plan — a miss too when ``usable(plan, *args)`` says it
        is stale."""
        plan = self._plans.get(key)
        if plan is None or (usable is not None and not usable(plan, *args)):
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

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return "PlanCache(size={}, hits={}, misses={})".format(
            len(self._plans), self.hits, self.misses
        )


def _confirms(tokens, stripped, spans) -> bool:
    """Do the literals the tokens strip sit exactly at the probe's spans, with
    the same decoded value and type?  (The same start gives the same end: the
    tokenizer and the probe share their literal patterns.)"""
    literals = [token for token, kept in zip(tokens, stripped)
                if kept is None and token.kind != "EOF"]
    if len(literals) != len(spans):
        return False
    for token, (at, raw) in zip(literals, spans):
        if token.position != at:
            return False
        value = literal_value(raw, at)
        # (``1``, ``1.0`` and ``True`` are equal)
        if value.__class__ is not token.value.__class__ or value != token.value:
            return False
    return True


class PhysicalExecutor:
    """Executes logical expressions through cached physical plans.

    ``source`` is a :class:`~repro.algebra.source.Source`, a plain mapping
    wrapped by :func:`~repro.algebra.source.as_source`; a database's catalog
    and statistics versions key the plan cache, and its hash indexes serve
    scans (a mapping has neither).
    """

    def __init__(self, source):
        self.source = as_source(source)
        self.planner = PhysicalPlanner(source=self.source)
        self.cache = PlanCache(PLAN_CACHE_SIZE)
        #: statements, template shapes, templates and their resolved
        #: parameter sites, under the same LRU bound
        self._templates = PlanCache(PLAN_CACHE_SIZE)
        self._shapes = 0
        #: how :meth:`statement` resolved its texts (see :meth:`statement_info`)
        self._resolutions = {"raw_hits": 0, "token_hits": 0, "parses": 0}

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

    # -- templates -------------------------------------------------------------------------

    def template(self, expression: Expression,
                 optimize: bool = False) -> Tuple[QueryTemplate, tuple]:
        """``(template, params)`` of an expression with concrete constants.

        The expression's structure gives the literal-free key and the
        constants; which of them are structure is remembered per key (it
        depends on the declared dependencies only).  ``optimize`` applies the
        AD-driven rewrites to the template — once, for every binding.
        """
        shape, constants = self._shape(expression)
        params = tuple(comparison.value for comparison in constants)
        return self._template(shape, params, optimize, expression, constants), params

    def statement(self, text: str, optimize: bool = False) -> Tuple[QueryTemplate, tuple]:
        """``(template, params)`` of query text; see :meth:`template`.

        The literal-stripped token stream remembers its template shape and
        where each literal goes, so only a new statement shape is parsed; the
        text's literal-free remainder, once the tokens confirmed it, is a
        second key into the same entry (see the module docstring).
        """
        version = self.source.catalog_version
        remainder, spans = literal_spans(text)
        raw_key = ("raw", remainder, version)
        entry = self._templates.get(raw_key)
        if entry is not None:
            self._resolutions["raw_hits"] += 1
            literals = [literal_value(raw, at) for at, raw in spans]
        else:
            tokens = tokenize(text)
            stripped, literals = strip_literals(tokens)
            key = ("statement", stripped, version)
            entry = self._templates.get(key)
            if entry is None:
                # Parse with each stripped literal replaced by its position among
                # them: the constants then tell where the template wants each one.
                position = iter(range(len(literals)))
                marked = parse_tokens([
                    token if kept is not None or token.kind == "EOF"
                    else Token(token.kind, next(position), token.position)
                    for token, kept in zip(tokens, stripped)])
                shape, constants = self._shape(marked)
                entry = (shape, tuple(comparison.value for comparison in constants))
                self._templates.put(key, entry)
                self._resolutions["parses"] += 1
            else:
                self._resolutions["token_hits"] += 1
            if _confirms(tokens, stripped, spans):
                self._templates.put(raw_key, entry)
        shape, order = entry
        # (an IN list is one constant made of several literals)
        params = tuple(literals[at] if at.__class__ is int
                       else [literals[item] for item in at] for at in order)
        return self._template(shape, params, optimize, text), params

    def statement_info(self) -> Dict[str, int]:
        """How :meth:`statement` resolved each text: a hit on the raw
        remainder, a hit on the token stream, or a parse."""
        return dict(self._resolutions)

    def _shape(self, expression: Expression) -> Tuple[tuple, list]:
        """``((id, structural slots), literal comparisons)``: per literal-free
        key, the slots the rewrite rules can read (see the module docstring)."""
        literal_free, comparisons = expression.structure()
        constants = [comparison for comparison in comparisons
                     if comparison.value.__class__ is not Parameter]
        key = ("shape", literal_free, self.source.catalog_version)
        shape = self._templates.get(key)
        if shape is None:
            determinants = set()
            for table in referenced_tables(expression):
                for dependency in self.source.dependencies(table):
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
        return shape, constants

    def _template(self, shape, params, optimize: bool, source,
                  constants=None) -> QueryTemplate:
        """The template of a shape under its structural constants; built — from
        query text (no parameters) or an expression and its constants — on a miss."""
        shape_id, structural = shape
        key = (shape_id, tuple(repr(params[slot]) for slot in structural), optimize)
        template = self._templates.get(key)
        if template is None:
            expression = source
            if isinstance(source, str):
                expression = parse_query(source)
                constants = expression.structure()[1]
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
        bucket is ⌊log₂⌋ of the rows the value statistics estimate for the
        parameter's comparison among the rows that carried the attribute at
        ANALYZE (−1 below one row), ``None`` without statistics.

        Which distribution each site reads is fixed per statistics version, so
        it is resolved once per template and version; the bucket is read per
        call."""
        key = ("sites", template.key, self.source.statistics_version)
        resolved = self._templates.get(key)
        if resolved is None:
            resolved = []
            for slot, selected, attribute, op in template.sites:
                statistics = self.planner.cost_model.base_statistics(selected)
                column = (statistics.attribute(attribute)
                          if statistics is not None else None)
                if column is not None:
                    resolved.append((slot, op, column))
            self._templates.put(key, resolved)
        buckets: Dict[int, object] = {}
        for slot, op, column in resolved:
            fraction = column.comparison_fraction(op, params[slot])
            if fraction is not None:
                rows = fraction * column.present_count
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
        feedback = self.source.cardinality_feedback
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

    def plan(self, expression, params=None) -> PhysicalPlan:
        """The (possibly cached) physical plan for ``expression``.

        ``expression`` is a :class:`QueryTemplate` with its ``params`` — the
        returned plan is the template's shared one, to be executed with
        ``params=`` — or an expression with concrete constants, for which the
        plan comes back bound to them.  The plan carries the planner's
        adaptive batch size.
        """
        if not isinstance(expression, QueryTemplate):
            template, params = self.template(expression)
            return self.plan(template, params).bound(params)
        key = PlanKey(expression.key,
                      self._parameter_classes(expression, params) if params else (),
                      self.source.catalog_version, self.source.statistics_version)
        tracer = self.source.tracer
        plan = self.cache.get(key, self._reads_hold, params)
        if plan is None:
            if tracer is not None:
                tracer.event("plan-cache-miss", hits=self.cache.hits,
                             misses=self.cache.misses)
            plan = self.planner.plan(expression.expression, params=params)
            feedback = self.source.cardinality_feedback
            plan.feedback_version = None if feedback is None else feedback.version
            self.cache.put(key, plan)
        elif tracer is not None:
            tracer.event("plan-cache-hit", hits=self.cache.hits,
                         misses=self.cache.misses)
        return plan

    def execute(self, expression: Expression,
                stats: Optional[ExecutionStats] = None,
                governor=None) -> PhysicalResult:
        """Plan (or fetch from cache) and run ``expression``.

        The plan carries its batch-size decision, so no separate size is
        passed at execution time.  ``governor`` bounds the execution (see
        :mod:`repro.governor`).
        """
        plan = self.plan(expression)
        return plan.execute(self.source, stats=stats, governor=governor)

    def __repr__(self) -> str:
        return "PhysicalExecutor({!r})".format(self.cache)
