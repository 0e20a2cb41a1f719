"""Qualified relations extended to structural variants.

Ceri & Pelagatti use *qualified relations* — a relation paired with a predicate that
every tuple satisfies — to extend algebraic equivalences to (horizontally)
decomposed relations.  Section 3.1.2 of the paper observes that "a relation together
with an AD is an extension of a qualified relation to support structural variants":
the qualification not only fixes the values of the determining attributes of a
fragment but, through the dependency, also fixes the fragment's *shape*.

The class below pairs a relation (or fragment name) with its qualification and the
attribute set its tuples carry; :func:`qualification_excludes` is the test that the
union-branch pruning rewrite and the decomposition benchmarks rely on.
"""

from __future__ import annotations

from typing import Dict

from repro.algebra.expressions import Expression, RelationRef
from repro.model.attributes import attrset


class QualifiedRelation:
    """A relation fragment together with its qualification.

    ``qualification`` maps determining attribute names to the constant values every
    tuple of the fragment carries; ``attributes`` is the attribute set of the
    fragment's tuples (the variant's shape).
    """

    def __init__(self, name: str, qualification: Dict[str, object], attributes=None):
        self.name = name
        self.qualification = dict(qualification)
        self.attributes = attrset(attributes) if attributes is not None else None

    def excludes(self, equalities: Dict[str, object]) -> bool:
        """``True`` when a selection binding ``equalities`` cannot match this fragment."""
        return qualification_excludes(self.qualification, equalities)

    def to_expression(self) -> Expression:
        """A base-relation reference for this fragment."""
        return RelationRef(self.name)

    def __repr__(self) -> str:
        return "QualifiedRelation({!r}, {!r}, attributes={})".format(
            self.name, self.qualification, self.attributes
        )


def qualification_excludes(qualification: Dict[str, object], equalities: Dict[str, object]) -> bool:
    """A qualification excludes a selection when they bind a shared attribute differently."""
    for name, value in equalities.items():
        if name in qualification and qualification[name] != value:
            return True
    return False


def relevant_fragments(fragments, equalities: Dict[str, object]):
    """The fragments of a horizontal decomposition a selection still has to visit."""
    return [fragment for fragment in fragments if not fragment.excludes(equalities)]
