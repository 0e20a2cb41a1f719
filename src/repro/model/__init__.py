"""Flexible-relation data model substrate.

This package implements Section 2.1 of the paper: the universe of attributes, typed
domains, heterogeneous tuples, the generic flexible-scheme constructor
``<at-least, at-most, {components}>`` with its disjunctive-normal-form unfolding, and
flexible relations (a flexible scheme paired with a finite set of tuples drawn from
the scheme's domain).
"""

from repro.model.attributes import Attribute, AttributeSet, attrset
from repro.model.batches import MISSING, TupleBatch
from repro.model.domains import (
    AnyDomain,
    BoolDomain,
    Domain,
    EnumDomain,
    FloatDomain,
    IntDomain,
    RangeDomain,
    StringDomain,
)
from repro.model.tuples import FlexTuple
from repro.model.scheme import FlexibleScheme, SchemeComponent, relational_scheme
from repro.model.relation import FlexibleRelation

__all__ = [
    "Attribute",
    "AttributeSet",
    "attrset",
    "Domain",
    "AnyDomain",
    "BoolDomain",
    "EnumDomain",
    "FloatDomain",
    "IntDomain",
    "RangeDomain",
    "StringDomain",
    "FlexTuple",
    "MISSING",
    "TupleBatch",
    "FlexibleScheme",
    "SchemeComponent",
    "relational_scheme",
    "FlexibleRelation",
]
