"""Rewrite rules exploiting attribute dependencies.

Four rules are implemented, each a pure function from expression tree to
(possibly) rewritten expression tree plus a :class:`RewriteReport` describing what
changed:

* :func:`eliminate_redundant_guards` — Example 4: a type guard whose attributes are
  guaranteed present at its input is removed.
* :func:`eliminate_contradictory_selections` — a selection (or guard) requiring an
  attribute that the dependencies guarantee *absent* can never produce a tuple; the
  subtree is replaced by an :class:`~repro.algebra.expressions.EmptyRelation` leaf so
  the evaluator never scans its input.
* :func:`prune_union_branches` — the extension of qualified-relation reasoning to
  structural variants: under a selection with established equalities, union /
  outer-union branches whose own established equalities contradict them are dropped
  (e.g. the "salesman" fragment of a horizontal decomposition under
  ``jobtype = 'secretary'``).
* :func:`push_selections_through_joins` — a conjunct of a selection above a join
  moves to the one input whose declared scheme carries its attributes, where it
  meets the index scans — and the three rules above: a comparison on a variant
  attribute keeps acting as that attribute's type guard below the join.

None of the rules reads a comparison constant that is a
:class:`~repro.algebra.predicates.Parameter`: a query template is rewritten
once, for every binding (see :mod:`repro.exec.executor`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.algebra.expressions import (
    EmptyRelation,
    Expression,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import And, FalsePredicate
from repro.optimizer.analysis import guaranteed_absent, guaranteed_present


class RewriteReport:
    """Human-readable record of the rewrites applied to an expression tree."""

    def __init__(self):
        self.actions: List[str] = []

    def add(self, message: str) -> None:
        self.actions.append(message)

    def merge(self, other: "RewriteReport") -> None:
        self.actions.extend(other.actions)

    @property
    def changed(self) -> bool:
        return bool(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __repr__(self) -> str:
        if not self.actions:
            return "RewriteReport(no rewrites)"
        return "RewriteReport({})".format("; ".join(self.actions))


def _rewrite_bottom_up(expression: Expression,
                       visit: Callable[[Expression], Tuple[Expression, Optional[str]]],
                       report: RewriteReport) -> Expression:
    """Rebuild the tree bottom-up, applying ``visit`` to every node."""
    children = expression.children
    if children:
        new_children = [_rewrite_bottom_up(child, visit, report) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expression = expression.with_children(new_children)
    rewritten, message = visit(expression)
    if message:
        report.add(message)
    return rewritten


def eliminate_redundant_guards(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """Drop type guards whose attributes are guaranteed present at their input."""
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if isinstance(node, TypeGuardNode):
            available = guaranteed_present(node.child, catalog)
            if node.attributes.issubset(available):
                return node.child, "removed redundant type guard on {}".format(node.attributes)
        return node, None

    return _rewrite_bottom_up(expression, visit, report), report


def eliminate_contradictory_selections(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """Replace guards/selections that can never be satisfied by the empty relation.

    A guard (or a selection whose predicate requires the presence of an attribute)
    is unsatisfiable when the dependencies guarantee that attribute to be absent
    given the equalities established below the node.
    """
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if isinstance(node, TypeGuardNode):
            absent = guaranteed_absent(node.child, catalog)
            blocked = node.attributes & absent
            if blocked:
                return EmptyRelation(), (
                    "type guard on {} can never succeed (attributes {} are excluded "
                    "by the dependencies); replaced by the empty relation".format(
                        node.attributes, blocked
                    )
                )
        if isinstance(node, Selection) and not isinstance(node.predicate, FalsePredicate):
            absent = guaranteed_absent(node.child, catalog)
            required = node.predicate.required_attributes()
            blocked = required & absent
            if blocked:
                return EmptyRelation(), (
                    "selection requiring {} can never succeed (attributes {} are "
                    "excluded by the dependencies); replaced by the empty relation".format(
                        required, blocked
                    )
                )
        return node, None

    return _rewrite_bottom_up(expression, visit, report), report


def _branch_excluded(branch: Expression, equalities: Dict[str, object], catalog=None) -> bool:
    """A union branch is excluded when its established equalities contradict ours."""
    branch_equalities = branch.established_equalities()
    for name, value in equalities.items():
        if name in branch_equalities and branch_equalities[name] != value:
            return True
    return False


def prune_union_branches(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """Under a selection, drop union branches whose qualification contradicts it."""
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if not isinstance(node, Selection):
            return node, None
        equalities = node.predicate.implied_equalities()
        if not equalities:
            return node, None
        child = node.child
        if not isinstance(child, (Union, OuterUnion)):
            return node, None
        left_excluded = _branch_excluded(child.left, equalities, catalog)
        right_excluded = _branch_excluded(child.right, equalities, catalog)
        if left_excluded and right_excluded:
            return EmptyRelation(), (
                "both union branches are excluded by the selection {}; result is empty".format(equalities)
            )
        if left_excluded:
            return Selection(child.right, node.predicate), (
                "pruned the left union branch excluded by the selection {}".format(equalities)
            )
        if right_excluded:
            return Selection(child.left, node.predicate), (
                "pruned the right union branch excluded by the selection {}".format(equalities)
            )
        return node, None

    return _rewrite_bottom_up(expression, visit, report), report


def _conjunction(conjuncts):
    return conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)


def push_selections_through_joins(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """Move the conjuncts of a selection above a join into the join's inputs.

    Only through a *pure* join — ``on`` given, and no input's declared scheme
    shares an attribute with another's beyond it — so the merged tuple takes
    every attribute of a conjunct from one known input (a join attribute has
    the same value in all that carry it) and pushing cannot hide a merge
    conflict.  A conjunct goes to every input of a natural join whose scheme
    carries all its attributes (both, when they are join attributes); to the
    master only of a multiway join, whose unmatched master tuples survive
    whatever its fragments hold.  Conjuncts nobody carries stay above.
    """
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if not isinstance(node, Selection):
            return node, None
        join = node.child
        if not (isinstance(join, (NaturalJoin, MultiwayJoin)) and join.on):
            return node, None
        universes = [child.attribute_universe(catalog) for child in join.children]
        if any(universe is None for universe in universes) or any(
                not (one & other).issubset(join.on)
                for index, one in enumerate(universes)
                for other in universes[index + 1:]):
            return node, None
        targets = range(1 if isinstance(join, MultiwayJoin) else 2)
        predicate = node.predicate
        conjuncts = predicate.operands if isinstance(predicate, And) else (predicate,)
        pushed = [[] for _ in join.children]
        kept = []
        for conjunct in conjuncts:
            carriers = [index for index in targets
                        if len(conjunct.attributes)
                        and conjunct.attributes.issubset(universes[index])]
            for index in carriers:
                pushed[index].append(conjunct)
            if not carriers:
                kept.append(conjunct)
        if len(kept) == len(conjuncts):
            return node, None
        rewritten = join.with_children([
            Selection(child, _conjunction(moved)) if moved else child
            for child, moved in zip(join.children, pushed)])
        if kept:
            rewritten = Selection(rewritten, _conjunction(kept))
        return rewritten, "pushed the selection on {} below the {}".format(
            ", ".join(str(conjunct.attributes) for moved in pushed
                      for conjunct in moved), join.operator)

    return _rewrite_bottom_up(expression, visit, report), report
