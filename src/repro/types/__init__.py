"""Record types and the traditional record-subtyping rule.

This package provides the *traditional* typing machinery that Section 3.2 of the
paper compares against: record types as named field collections with domains and
the Cardelli/Wegner record-subtyping rule (width and depth subtyping).  Type
checking a tuple against a flexible scheme, its domains and its dependencies is the
engine's :class:`~repro.engine.constraints.ConstraintChecker`; the type guard is the
algebra's :class:`~repro.algebra.expressions.TypeGuardNode`.
"""

from repro.types.record_types import RecordType, domain_subsumes, is_record_subtype

__all__ = [
    "RecordType",
    "domain_subsumes",
    "is_record_subtype",
]
