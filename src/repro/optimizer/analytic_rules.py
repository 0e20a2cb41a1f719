"""Rewrite rules for the analytic operators (aggregation, ordering, top-k).

Four rules, same shape as :mod:`repro.optimizer.rewrite_rules` (pure function
from tree to rewritten tree plus a :class:`RewriteReport`):

* :func:`eliminate_noop_sorts` — a sort feeding an aggregate (or another sort)
  contributes nothing to a set-semantics result and is dropped.
* :func:`push_limit_into_unions` — ``λ_k`` over a union pre-prunes each branch
  to its own top-k: the global top-k of ``A ∪ B`` is a subset of the union of
  the per-branch top-ks (fewer than ``k`` rows of the union — hence of the
  branch — precede any row it retains), so the outer limit re-selecting from
  ``≤ 2k`` rows is sound.  Works for the bare (canonical-order) limit, which
  prunes a sorted branch's input rather than the branch, and the ``λ_k ∘ τ``
  pair, whose sort keys travel into the branches.
* :func:`push_aggregate_into_unions` — γ over a union computes per-branch
  partial aggregates first, **only** when every spec is ``min``/``max``: those
  are idempotent, so the deduplication a set union applies to colliding partial
  rows cannot change the re-aggregated result (``sum``/``count``/``avg`` would
  need disjointness the rewriter cannot prove).  Variant routing composes: a
  branch's ⊥-group row omits the group attribute and is routed to the outer
  ⊥ group again, and an "attribute never present" partial stays absent through
  both levels.
* :func:`push_aggregate_past_rename` — γ over ``ρ_m(π_X(E))`` aggregates the
  projection directly and renames only the (far fewer) group rows, when ``m``
  is injective on ``X`` (no tuple collapse) and every attribute the aggregate
  reads has a preimage.  Renames of attributes the aggregate never reads
  disappear entirely — their targets cannot occur in the output.

Every rule carries a termination guard (the :class:`~repro.optimizer.planner.Planner`
runs rules to a fixpoint): the pushed forms are recognized and skipped.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algebra.analytic import AggregateSpec
from repro.algebra.expressions import (
    Aggregate,
    Expression,
    Limit,
    Projection,
    Rename,
    Sort,
    Union,
)
from repro.optimizer.rewrite_rules import RewriteReport, _rewrite_bottom_up

#: the min/max subset of aggregate functions — idempotent, hence sound to
#: compute per union branch and re-aggregate despite set deduplication
IDEMPOTENT_FUNCS = ("min", "max")


def eliminate_noop_sorts(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """Drop sorts whose ordering cannot be observed (under γ or another τ)."""
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if isinstance(node, Aggregate) and isinstance(node.child, Sort):
            return (Aggregate(node.child.child, node.group_by, node.specs),
                    "removed the sort below an aggregate (ordering is not observable)")
        if isinstance(node, Sort) and isinstance(node.child, Sort):
            return (Sort(node.child.child, node.keys),
                    "collapsed consecutive sorts (the outer ordering wins)")
        return node, None

    return _rewrite_bottom_up(expression, visit, report), report


def _branch_limited(branch: Expression, count: int, keys: Tuple) -> bool:
    """Is ``branch`` already pruned to ``≤ count`` rows under ``keys``?"""
    if not isinstance(branch, Limit) or branch.count > count:
        return False
    if not keys:
        return True
    return isinstance(branch.child, Sort) and branch.child.keys == keys


def push_limit_into_unions(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """``λ_k(A ∪ B)`` → ``λ_k(λ_k(A) ∪ λ_k(B))`` (sort keys travel along)."""
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if not isinstance(node, Limit):
            return node, None
        child = node.child
        if isinstance(child, Sort):
            keys = child.keys
            union = child.child
        else:
            keys = ()
            union = child
        if not isinstance(union, Union):
            return node, None
        count = node.count
        if (_branch_limited(union.left, count, keys)
                and _branch_limited(union.right, count, keys)):
            return node, None  # already pushed — fixpoint guard
        def prune(branch: Expression) -> Expression:
            if keys:
                return Limit(Sort(branch, keys), count)
            # Canonical order: a branch's own sort is the identity on sets,
            # and under λ it would pick that branch's top-k by its keys.
            return Limit(branch.child if isinstance(branch, Sort) else branch, count)
        pushed = Union(prune(union.left), prune(union.right))
        if keys:
            pushed = Sort(pushed, keys)
        return (Limit(pushed, count),
                "pushed limit {} into both union branches{}".format(
                    count, " (keys {})".format(
                        ", ".join(repr(key) for key in keys)) if keys else ""))

    return _rewrite_bottom_up(expression, visit, report), report


def push_aggregate_into_unions(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """``γ(A ∪ B)`` → ``γ'(γ(A) ∪ γ(B))`` when every spec is min/max."""
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if not isinstance(node, Aggregate) or not isinstance(node.child, Union):
            return node, None
        if not node.specs or any(spec.func not in IDEMPOTENT_FUNCS
                                 for spec in node.specs):
            return node, None
        union = node.child
        group_by = node.group_by
        if all(isinstance(branch, Aggregate) and branch.group_by == group_by
               for branch in (union.left, union.right)):
            return node, None  # already pushed — fixpoint guard
        partial = Union(Aggregate(union.left, group_by, node.specs),
                        Aggregate(union.right, group_by, node.specs))
        refold = tuple(AggregateSpec(spec.func, spec.output, spec.output)
                       for spec in node.specs)
        return (Aggregate(partial, group_by, refold),
                "pushed min/max aggregation into both union branches")

    return _rewrite_bottom_up(expression, visit, report), report


def push_aggregate_past_rename(expression: Expression, catalog=None) -> Tuple[Expression, RewriteReport]:
    """``γ_{G}(ρ_m(π_X(E)))`` → ``ρ_{m|G}(γ_{G'}(π_X(E)))`` when sound.

    Requires the rename to be injective on the projection's attribute universe
    ``X`` (so no tuples collapse and the rewrite is a bijection on rows) and
    every attribute the aggregate reads to come from ``X``.  Only the group
    attributes still need renaming afterwards; spec outputs keep their names,
    so any collision between an output name and a group name (either side of
    the mapping) vetoes the rewrite.
    """
    report = RewriteReport()

    def visit(node: Expression) -> Tuple[Expression, Optional[str]]:
        if not isinstance(node, Aggregate) or not isinstance(node.child, Rename):
            return node, None
        rename = node.child
        if not isinstance(rename.child, Projection):
            return node, None
        names = {attribute.name for attribute in rename.child.attributes}
        forward = {name: rename.mapping.get(name, name) for name in names}
        if len(set(forward.values())) != len(forward):
            return node, None  # not injective on X — tuples may collapse
        preimage = {new: old for old, new in forward.items()}
        read = list(node.group_by) + [spec.attribute for spec in node.specs
                                      if spec.attribute is not None]
        if any(name not in preimage for name in read):
            return node, None  # reads an attribute the rename did not produce
        inner_groups = tuple(preimage[name] for name in node.group_by)
        outputs = {spec.output for spec in node.specs}
        if outputs & (set(inner_groups) | set(node.group_by)):
            return node, None  # output name would collide with a group name
        inner_specs = tuple(
            AggregateSpec(spec.func,
                          None if spec.attribute is None else preimage[spec.attribute],
                          spec.output)
            for spec in node.specs)
        pushed = Aggregate(rename.child, inner_groups, inner_specs)
        outer_mapping = {old: new for old, new in zip(inner_groups, node.group_by)
                         if old != new}
        if not outer_mapping:
            return pushed, "dropped the rename below an aggregate (no read attribute renamed)"
        return (Rename(pushed, outer_mapping),
                "pushed aggregation past the rename (now renames {} group rows, "
                "not the input)".format(len(node.group_by)))

    return _rewrite_bottom_up(expression, visit, report), report
