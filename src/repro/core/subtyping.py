"""Semantic-preserving record subtyping through attribute dependencies (Section 3.2).

An explicit attribute dependency over a flexible scheme with attribute set ``W``
induces a family of record types:

* the **supertype** has the attributes ``W − Y`` and leaves the domain of the
  determining attributes ``X`` unrestricted;
* for every variant ``i`` there is a **subtype** with attributes ``(W − Y) ∪ Y_i``
  and the domain of ``X`` restricted to the variant's value set ``V_i``.

Both type changes — the domain restriction of ``X`` and the addition of the ``Y_i``
attributes — happen *simultaneously* and are causally connected by the dependency.
The traditional record-subtyping rule treats them as accidental: it also accepts the
type obtained by projecting the determining attributes away (e.g.
``<salary: float>`` without ``jobtype``) as a valid supertype, although the
connection between determinant and variants is then destroyed.  This module builds
the AD-derived family, evaluates candidate supertypes under both notions, and
reports the "lost connection" cases that only the AD-based notion rejects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.dependencies import ExplicitAttributeDependency
from repro.errors import DependencyError, TypeCheckError
from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import AnyDomain, Domain, EnumDomain
from repro.model.scheme import FlexibleScheme
from repro.types.record_types import RecordType, is_record_subtype


class SubtypeFamily:
    """The supertype and the variant subtypes induced by an explicit AD."""

    def __init__(self, supertype: RecordType, subtypes: Dict[str, RecordType],
                 dependency: ExplicitAttributeDependency):
        self.supertype = supertype
        self.subtypes = dict(subtypes)
        self.dependency = dependency

    @property
    def determining_attributes(self) -> AttributeSet:
        """The attribute set ``X`` whose values select the variant."""
        return self.dependency.lhs

    def subtype(self, name: str) -> RecordType:
        """The subtype registered under ``name``."""
        try:
            return self.subtypes[name]
        except KeyError:
            raise TypeCheckError("no subtype named {!r} in the family".format(name)) from None

    def subtype_names(self) -> List[str]:
        return sorted(self.subtypes)

    # -- the two notions of "valid supertype" ------------------------------------------------

    def record_rule_accepts(self, candidate: RecordType) -> bool:
        """Traditional record subtyping: every subtype is a record subtype of ``candidate``."""
        return all(is_record_subtype(subtype, candidate) for subtype in self.subtypes.values())

    def ad_rule_accepts(self, candidate: RecordType) -> bool:
        """AD-based subtyping: the record rule *plus* preservation of the determinant.

        The candidate must keep every determining attribute of the dependency,
        otherwise the causal connection between the domain restriction and the added
        attributes is lost and the subtype relation is no longer semantic-preserving.
        """
        if not self.record_rule_accepts(candidate):
            return False
        return self.determining_attributes.issubset(candidate.attributes)

    def classify_candidate(self, candidate: RecordType) -> str:
        """One of ``"valid"``, ``"lost-connection"``, ``"rejected"``.

        ``"lost-connection"`` marks exactly the candidates the paper warns about:
        accepted by the traditional rule, rejected by the AD-based rule.
        """
        record_ok = self.record_rule_accepts(candidate)
        ad_ok = self.ad_rule_accepts(candidate)
        if ad_ok:
            return "valid"
        if record_ok:
            return "lost-connection"
        return "rejected"

    def __repr__(self) -> str:
        return "SubtypeFamily(supertype={!r}, subtypes={})".format(
            self.supertype.name, self.subtype_names()
        )


def derive_subtype_family(
    attributes,
    dependency: ExplicitAttributeDependency,
    domains: Optional[Dict[str, Domain]] = None,
    supertype_name: str = "supertype",
) -> SubtypeFamily:
    """Build the subtype family induced by an explicit AD (Section 3.2).

    ``attributes`` is the attribute set ``W`` of the flexible scheme (a
    :class:`~repro.model.scheme.FlexibleScheme` is accepted and unwrapped);
    ``domains`` supplies the attribute domains (defaulting to the unrestricted
    domain).  Variant names default to ``variant-1 .. variant-n`` when the variants
    carry no names.
    """
    if isinstance(attributes, FlexibleScheme):
        attributes = attributes.attributes
    attributes = attrset(attributes)
    domains = dict(domains or {})
    if not dependency.lhs.issubset(attributes):
        raise DependencyError(
            "determining attributes {} are not part of the scheme attributes {}".format(
                dependency.lhs, attributes
            )
        )

    def domain_for(name: str) -> Domain:
        return domains.get(name, AnyDomain())

    supertype_attrs = attributes - dependency.rhs
    supertype = RecordType(
        supertype_name, {a.name: domain_for(a.name) for a in supertype_attrs}
    )

    subtypes: Dict[str, RecordType] = {}
    determinant = list(dependency.lhs)
    for index, variant in enumerate(dependency.variants, start=1):
        name = variant.name or "variant-{}".format(index)
        fields = {a.name: domain_for(a.name) for a in (supertype_attrs | variant.attributes)}
        for attribute in determinant:
            allowed = sorted({value[attribute] for value in variant.values}, key=repr)
            base = domain_for(attribute.name)
            try:
                fields[attribute.name] = base.restrict(allowed)
            except Exception:
                fields[attribute.name] = EnumDomain(allowed, name="{}|{}".format(attribute.name, name))
        subtypes[name] = RecordType(name, fields)
    return SubtypeFamily(supertype, subtypes, dependency)


def lost_connection(candidate: RecordType, family: SubtypeFamily) -> bool:
    """``True`` when ``candidate`` is accepted by the traditional record-subtyping rule
    but loses the causal connection the dependency establishes (Example 3's
    ``<..., salary: float>`` without ``jobtype``)."""
    return family.classify_candidate(candidate) == "lost-connection"


def candidate_supertypes(family: SubtypeFamily) -> List[RecordType]:
    """Enumerate every projection of the family's supertype as a candidate supertype.

    Used by experiment E7: the traditional rule accepts all of them, the AD-based
    rule only those that retain the determining attributes.
    """
    from itertools import combinations

    fields = sorted(family.supertype.fields)
    candidates: List[RecordType] = []
    for size in range(1, len(fields) + 1):
        for combo in combinations(fields, size):
            name = "candidate<{}>".format(",".join(combo))
            candidates.append(family.supertype.project(name, combo))
    return candidates
