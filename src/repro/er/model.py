"""Enhanced-ER vocabulary: entity types and predicate-defined specializations.

Only the constructs the paper discusses are modelled:

* an :class:`EntityType` with attributes, their domains and a key;
* a :class:`Specialization` of an entity type that is *predicate defined*: each
  subclass is selected by the values of one or more determining attributes of the
  entity itself, and contributes additional (local) attributes.

The classification into disjoint vs. overlapping and total vs. partial subclasses is
computed from the specialization (and the determining attributes' domains), exactly
as the paper infers it from the corresponding attribute dependency.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import AnyDomain, Domain, cross_product


class EntityType:
    """An entity type: named attributes with domains and an optional key."""

    def __init__(self, name: str, attributes: Mapping[str, Domain], key=None):
        if not name:
            raise ReproError("an entity type needs a name")
        if not attributes:
            raise ReproError("an entity type needs at least one attribute")
        self.name = name
        self.domains: Dict[str, Domain] = {
            attr: (domain if isinstance(domain, Domain) else AnyDomain())
            for attr, domain in attributes.items()
        }
        self.key: Optional[AttributeSet] = attrset(key) if key is not None else None
        if self.key is not None and not self.key.issubset(self.attributes):
            raise ReproError(
                "key {} of entity {!r} uses unknown attributes".format(self.key, name)
            )

    @property
    def attributes(self) -> AttributeSet:
        return attrset(self.domains.keys())

    def __repr__(self) -> str:
        return "EntityType({!r}, attributes={}, key={})".format(self.name, self.attributes, self.key)


class SpecializationSubclass:
    """One subclass of a predicate-defined specialization.

    ``predicate_values`` is the extension ``V_i`` of the defining predicate: the
    values of the determining attributes selecting this subclass (a single mapping or
    a list of mappings).  ``local_attributes`` are the attributes the subclass adds,
    with their domains.
    """

    def __init__(self, name: str, predicate_values, local_attributes: Mapping[str, Domain]):
        if not name:
            raise ReproError("a subclass needs a name")
        if isinstance(predicate_values, Mapping):
            predicate_values = [predicate_values]
        self.name = name
        self.predicate_values: List[Dict[str, object]] = [dict(v) for v in predicate_values]
        if not self.predicate_values:
            raise ReproError("subclass {!r} needs at least one predicate value".format(name))
        self.local_domains: Dict[str, Domain] = {
            attr: (domain if isinstance(domain, Domain) else AnyDomain())
            for attr, domain in local_attributes.items()
        }

    @property
    def local_attributes(self) -> AttributeSet:
        return attrset(self.local_domains.keys())

    def __repr__(self) -> str:
        return "SpecializationSubclass({!r}, values={}, attributes={})".format(
            self.name, self.predicate_values, self.local_attributes
        )


class Specialization:
    """A predicate-defined specialization of an entity type."""

    def __init__(self, entity: EntityType, determining_attributes,
                 subclasses: Sequence[SpecializationSubclass], name: Optional[str] = None):
        self.entity = entity
        self.determining_attributes = attrset(determining_attributes)
        if not self.determining_attributes.issubset(entity.attributes):
            raise ReproError(
                "determining attributes {} are not attributes of entity {!r}".format(
                    self.determining_attributes, entity.name
                )
            )
        self.subclasses = list(subclasses)
        if not self.subclasses:
            raise ReproError("a specialization needs at least one subclass")
        self.name = name or "{}-specialization".format(entity.name)
        seen_local = entity.attributes
        for subclass in self.subclasses:
            for values in subclass.predicate_values:
                if attrset(values.keys()) != self.determining_attributes:
                    raise ReproError(
                        "predicate values {!r} of subclass {!r} do not bind exactly the "
                        "determining attributes {}".format(
                            values, subclass.name, self.determining_attributes
                        )
                    )
            overlap = subclass.local_attributes & entity.attributes
            if overlap:
                raise ReproError(
                    "local attributes {} of subclass {!r} clash with entity attributes".format(
                        overlap, subclass.name
                    )
                )

    # -- classification (Section 3.1) -------------------------------------------------------------

    @property
    def variant_attributes(self) -> AttributeSet:
        """The union of all subclass-local attributes (the dependency's ``Y``)."""
        result = AttributeSet()
        for subclass in self.subclasses:
            result = result | subclass.local_attributes
        return result

    def is_disjoint(self) -> bool:
        """Disjoint specialization: subclass attribute sets are pairwise disjoint."""
        for index, left in enumerate(self.subclasses):
            for right in self.subclasses[index + 1:]:
                if not left.local_attributes.isdisjoint(right.local_attributes):
                    return False
        return True

    def is_total(self, limit: int = 100_000) -> bool:
        """Total specialization: the predicate extensions cover ``Tup(X)``.

        Requires finite domains for the determining attributes.
        """
        ordered = list(self.determining_attributes)
        domains = [self.entity.domains[a.name] for a in ordered]
        covered = set()
        for subclass in self.subclasses:
            for values in subclass.predicate_values:
                covered.add(tuple(values[a.name] for a in ordered))
        for combination in cross_product(domains, limit=limit):
            if combination not in covered:
                return False
        return True

    def all_domains(self) -> Dict[str, Domain]:
        """Domains of the entity's own and all subclass-local attributes."""
        domains = dict(self.entity.domains)
        for subclass in self.subclasses:
            domains.update(subclass.local_domains)
        return domains

    def __repr__(self) -> str:
        return "Specialization({!r}, on={}, subclasses={})".format(
            self.name, self.determining_attributes, [s.name for s in self.subclasses]
        )
