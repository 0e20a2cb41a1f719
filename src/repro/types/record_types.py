"""Record types and the traditional record-subtyping rule.

Example 3 of the paper presents the employee/secretary/salesman/software-engineer
types as record types: named fields, each with a domain.  The traditional subtyping
rule (Cardelli & Wegner) reads::

        t_i ≤ u_i (i = 1..n)
    ----------------------------------------------------------
    <a1:t1, ..., an:tn, ..., am:tm>  ≤  <a1:u1, ..., an:un>

i.e. a record type is a subtype of another when it has *at least* the fields of the
supertype (width subtyping) and every shared field's domain is at least as specific
(depth subtyping).  Domains are compared with :func:`domain_subsumes`.

The point of Section 3.2 is that this rule treats the domain restriction of the
determining attributes and the addition of variant attributes as unrelated — the AD
based subtyping of :mod:`repro.core.subtyping` keeps them causally connected.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.errors import TypeCheckError
from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import AnyDomain, Domain, EnumDomain, RangeDomain
from repro.model.tuples import FlexTuple


def domain_subsumes(general: Domain, specific: Domain) -> bool:
    """``True`` when every value of ``specific`` is also a value of ``general``.

    This is the depth-subtyping check ``specific ≤ general``.  Finite domains are
    compared by value enumeration; ranges by interval containment; ``AnyDomain``
    subsumes everything; identical domain objects subsume trivially.  Infinite
    domains of different classes are compared conservatively (``False`` when the
    relationship cannot be established).
    """
    if general is specific:
        return True
    if isinstance(general, AnyDomain):
        return True
    if isinstance(specific, EnumDomain) or (specific.is_finite and hasattr(specific, "values")):
        try:
            return all(general.contains(value) for value in specific.values())
        except NotImplementedError:
            return False
    if isinstance(general, RangeDomain) and isinstance(specific, RangeDomain):
        return general.low <= specific.low and specific.high <= general.high
    from repro.model.domains import StringDomain

    if isinstance(general, StringDomain) and isinstance(specific, StringDomain):
        if general.max_length is None:
            return True
        return specific.max_length is not None and specific.max_length <= general.max_length
    if type(general) is type(specific):
        # Same-class infinite domains (e.g. two unrestricted IntDomains).
        return vars_equal(general, specific) or _same_parameters(general, specific)
    if isinstance(specific, RangeDomain):
        sample = [specific.low, specific.high]
        return all(general.contains(value) for value in sample)
    return False


def vars_equal(first: Domain, second: Domain) -> bool:
    """Structural equality of two domain objects of the same class."""
    first_state = {slot: getattr(first, slot, None) for slot in _state_slots(first)}
    second_state = {slot: getattr(second, slot, None) for slot in _state_slots(second)}
    return first_state == second_state


def _state_slots(domain: Domain):
    if hasattr(domain, "__dict__"):
        return sorted(domain.__dict__.keys())
    return []


def _same_parameters(general: Domain, second: Domain) -> bool:
    return repr(general) == repr(second)


class RecordType:
    """A record type: a mapping from field names to domains.

    ``RecordType("employee", {"salary": FloatDomain(), "jobtype": EnumDomain([...])})``

    Field order is irrelevant; equality and hashing are structural.
    """

    def __init__(self, name: str, fields: Mapping[str, Domain]):
        self.name = name
        normalized: Dict[str, Domain] = {}
        for field, domain in fields.items():
            if not isinstance(field, str) or not field:
                raise TypeCheckError("field names must be non-empty strings, got {!r}".format(field))
            normalized[field] = domain if isinstance(domain, Domain) else _coerce_domain(domain)
        self._fields = normalized

    @property
    def fields(self) -> Dict[str, Domain]:
        """Copy of the field → domain mapping."""
        return dict(self._fields)

    @property
    def attributes(self) -> AttributeSet:
        """The field names as an attribute set."""
        return attrset(self._fields.keys())

    def domain_of(self, field: str) -> Domain:
        """Domain declared for ``field``."""
        try:
            return self._fields[field]
        except KeyError:
            raise TypeCheckError("record type {!r} has no field {!r}".format(self.name, field)) from None

    def __contains__(self, field) -> bool:
        return str(field) in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    # -- construction of derived types -------------------------------------------------------

    def extend(self, name: str, new_fields: Mapping[str, Domain]) -> "RecordType":
        """A new record type with additional fields (used to build subtypes)."""
        merged = dict(self._fields)
        for field, domain in new_fields.items():
            if field in merged:
                raise TypeCheckError("field {!r} already present in {!r}".format(field, self.name))
            merged[field] = domain
        return RecordType(name, merged)

    def restrict_field(self, name: str, field: str, allowed: Iterable) -> "RecordType":
        """A new record type with the domain of ``field`` restricted to ``allowed``."""
        merged = dict(self._fields)
        merged[field] = self.domain_of(field).restrict(allowed)
        return RecordType(name, merged)

    def project(self, name: str, fields: Iterable[str]) -> "RecordType":
        """A new record type containing only the requested fields."""
        fields = [str(f) for f in attrset(fields).names]
        missing = [f for f in fields if f not in self._fields]
        if missing:
            raise TypeCheckError("record type {!r} has no field(s) {}".format(self.name, missing))
        return RecordType(name, {f: self._fields[f] for f in fields})

    # -- conformance ------------------------------------------------------------------------------

    def accepts(self, tup: FlexTuple, exact: bool = False) -> bool:
        """``True`` when the tuple conforms to this type.

        With ``exact=False`` (the default) the tuple may carry additional fields, in
        line with width subtyping; with ``exact=True`` the attribute sets must match.
        """
        if exact and tup.attributes != self.attributes:
            return False
        for field, domain in self._fields.items():
            if field not in tup:
                return False
            if not domain.contains(tup[field]):
                return False
        return True

    # -- equality --------------------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordType):
            return NotImplemented
        if set(self._fields) != set(other._fields):
            return False
        return all(
            domain_subsumes(self._fields[f], other._fields[f])
            and domain_subsumes(other._fields[f], self._fields[f])
            for f in self._fields
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._fields.keys()))

    def __repr__(self) -> str:
        fields = ", ".join(
            "{}: {}".format(field, domain.name) for field, domain in sorted(self._fields.items())
        )
        return "{} = <{}>".format(self.name, fields)


def is_record_subtype(subtype: RecordType, supertype: RecordType) -> bool:
    """The traditional record-subtyping rule: ``subtype ≤ supertype``.

    Width: every field of the supertype occurs in the subtype.  Depth: for shared
    fields the subtype's domain is subsumed by the supertype's domain.
    """
    for field, super_domain in supertype.fields.items():
        if field not in subtype:
            return False
        if not domain_subsumes(super_domain, subtype.domain_of(field)):
            return False
    return True


def _coerce_domain(value) -> Domain:
    """Allow plain iterables as shorthand for enumerated domains."""
    if isinstance(value, Domain):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return EnumDomain(sorted(value, key=repr))
    raise TypeCheckError("cannot interpret {!r} as a domain".format(value))
