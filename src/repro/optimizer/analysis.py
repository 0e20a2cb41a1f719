"""Static analysis of algebra expressions with attribute dependencies.

The rewrites need two facts about an expression's result:

* which attributes are *guaranteed present* in every result tuple, and
* which attributes are *guaranteed absent* from every result tuple.

Both are derived from (a) the structural information the expression itself carries
(selection predicates force the presence of the attributes they mention, explicit
type guards force their guarded attributes) and (b) the explicit attribute
dependencies known to hold at that node (Theorem 4.3 propagation): when the
established equalities bind all determining attributes of an EAD, the matching
variant dictates exactly which dependent attributes are present — and, just as
important, which ones are absent.  This is the formal content of Example 4.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.algebra.expressions import Expression
from repro.core.dependencies import ExplicitAttributeDependency
from repro.model.attributes import AttributeSet
from repro.model.tuples import FlexTuple


def _matched_variant(dependency: ExplicitAttributeDependency, equalities: Dict[str, object]):
    """The variant selected by the established equalities, if they bind all of ``X``.

    Returns a pair ``(bound, variant)`` where ``bound`` says whether every
    determining attribute is bound; ``variant`` is ``None`` either when not bound or
    when the bound value matches no variant (in which case Definition 2.1 forces
    the absence of every dependent attribute).
    """
    names = [a.name for a in dependency.lhs]
    if any(name not in equalities for name in names):
        return False, None
    try:
        projection = FlexTuple({name: equalities[name] for name in names})
    except TypeError:
        return True, None  # an unhashable constant equals no determining value
    for variant in dependency.variants:
        if variant.matches(projection):
            return True, variant
    return True, None


def dependency_implications(expression: Expression, catalog=None) -> Tuple[AttributeSet, AttributeSet]:
    """``(present, absent)`` attribute sets implied by the EADs at this node."""
    equalities = expression.established_equalities()
    present = AttributeSet()
    absent = AttributeSet()
    if not equalities:
        return present, absent
    for dependency in expression.known_dependencies(catalog):
        if not isinstance(dependency, ExplicitAttributeDependency):
            continue
        bound, variant = _matched_variant(dependency, equalities)
        if not bound:
            continue
        if variant is None:
            absent = absent | dependency.rhs
        else:
            present = present | variant.attributes
            absent = absent | (dependency.rhs - variant.attributes)
    return present, absent


def guaranteed_present(expression: Expression, catalog=None) -> AttributeSet:
    """Attributes present in every tuple of the expression's result."""
    structural = expression.guaranteed_attributes()
    from_dependencies, _ = dependency_implications(expression, catalog)
    return structural | from_dependencies


def guaranteed_absent(expression: Expression, catalog=None) -> AttributeSet:
    """Attributes absent from every tuple of the expression's result."""
    _, absent = dependency_implications(expression, catalog)
    # Never contradict the structural guarantee: an attribute whose presence is
    # forced by a predicate cannot be reported absent (such nodes produce no tuples
    # at all, which the contradiction rewrite handles separately).
    return absent - expression.guaranteed_attributes()
