"""Flexible relations.

A flexible relation ``FR = <FS, inst>`` pairs a flexible scheme with a finite set of
tuples drawn from ``dom(FS)`` (Section 2.1).  The class below keeps the instance as
an immutable-by-convention Python set of :class:`~repro.model.tuples.FlexTuple`
objects and offers the satisfaction checks that the dependency machinery and the
benchmarks build upon.

This module is the bare mathematical object: it stores what it is given.  Type
checking — scheme admission, domains, keys and dependencies, with typed errors —
is the engine's :class:`~repro.engine.constraints.ConstraintChecker`, which every
:class:`~repro.engine.database.Table` runs on insertion and update.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import Domain
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple


class FlexibleRelation:
    """A flexible scheme together with an instance.

    Parameters
    ----------
    scheme:
        The flexible scheme the relation is defined over.
    tuples:
        Optional initial instance; each element may be a :class:`FlexTuple` or a
        plain mapping.
    domains:
        Optional mapping from attribute name to :class:`~repro.model.domains.Domain`,
        kept for derived relations (:meth:`with_scheme`); nothing is checked here.
    name:
        Optional relation name used for display and by the catalog.
    """

    def __init__(
        self,
        scheme: FlexibleScheme,
        tuples: Optional[Iterable] = None,
        domains: Optional[Dict[str, Domain]] = None,
        name: Optional[str] = None,
    ):
        self._scheme = scheme
        self._domains: Dict[str, Domain] = dict(domains or {})
        self.name = name
        self._tuples: Set[FlexTuple] = set()
        if tuples is not None:
            for item in tuples:
                self.insert(item)

    # -- accessors -------------------------------------------------------------------

    @property
    def scheme(self) -> FlexibleScheme:
        """``scheme(FR)``."""
        return self._scheme

    @property
    def tuples(self) -> Set[FlexTuple]:
        """``inst(FR)`` — the current instance (a set of tuples)."""
        return set(self._tuples)

    @property
    def domains(self) -> Dict[str, Domain]:
        """Declared attribute domains (may be empty)."""
        return dict(self._domains)

    @property
    def attributes(self) -> AttributeSet:
        """All attributes mentioned in the scheme."""
        return self._scheme.attributes

    def __iter__(self) -> Iterator[FlexTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item) -> bool:
        return _as_tuple(item) in self._tuples

    # -- mutation ----------------------------------------------------------------------

    def insert(self, item) -> FlexTuple:
        """Insert a tuple; returns the inserted :class:`FlexTuple`."""
        tup = _as_tuple(item)
        self._tuples.add(tup)
        return tup

    def insert_many(self, items: Iterable) -> List[FlexTuple]:
        """Insert several tuples; returns the inserted tuples in input order."""
        return [self.insert(item) for item in items]

    def delete(self, item) -> bool:
        """Remove a tuple; returns ``True`` when it was present."""
        tup = _as_tuple(item)
        if tup in self._tuples:
            self._tuples.remove(tup)
            return True
        return False

    def clear(self) -> None:
        """Remove every tuple."""
        self._tuples.clear()

    # -- dependency satisfaction ---------------------------------------------------------------

    def satisfies(self, dependency) -> bool:
        """``True`` when the instance satisfies the given dependency.

        Any object with a ``holds_in(relation)`` method qualifies; this covers
        attribute dependencies, explicit attribute dependencies and functional
        dependencies from :mod:`repro.core`.
        """
        return bool(dependency.holds_in(self))

    def satisfies_all(self, dependencies: Iterable) -> bool:
        """``True`` when every dependency of the iterable holds in the instance."""
        return all(self.satisfies(d) for d in dependencies)

    def violations(self, dependencies: Iterable) -> List:
        """Return the dependencies of the iterable that the instance violates."""
        return [d for d in dependencies if not self.satisfies(d)]

    # -- derivation --------------------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "FlexibleRelation":
        """A shallow copy with the same scheme, domains and tuples."""
        clone = FlexibleRelation(
            self._scheme,
            domains=self._domains,
            name=self.name if name is None else name,
        )
        clone._tuples = set(self._tuples)
        return clone

    def with_scheme(self, scheme: FlexibleScheme, tuples: Iterable, name: Optional[str] = None,
                    domains: Optional[Dict[str, Domain]] = None) -> "FlexibleRelation":
        """Build a new relation that inherits this relation's domains by default."""
        return FlexibleRelation(
            scheme,
            tuples=tuples,
            domains=self._domains if domains is None else domains,
            name=name,
        )

    def attribute_combinations(self) -> Set[AttributeSet]:
        """The set ``{ attr(t) | t ∈ inst(FR) }`` actually occurring in the instance."""
        return {t.attributes for t in self._tuples}

    def project_instance(self, attributes) -> Set[FlexTuple]:
        """Project every tuple onto the attributes it possesses from ``X``."""
        attributes = attrset(attributes)
        return {t.project_existing(attributes) for t in self._tuples}

    def __repr__(self) -> str:
        label = self.name or "FlexibleRelation"
        return "{}(scheme={!r}, tuples={})".format(label, self._scheme, len(self._tuples))


def _as_tuple(item) -> FlexTuple:
    if isinstance(item, FlexTuple):
        return item
    return FlexTuple(item)
