"""Catalog: table definitions (scheme, domains, key, dependencies).

A :class:`TableDefinition` bundles everything the engine needs to know about one
flexible relation; the :class:`Catalog` is the registry the database, the query
evaluator and the optimizer consult.  Definitions are declarative — the enforcement
logic lives in :mod:`repro.engine.constraints`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dependencies import Dependency
from repro.errors import CatalogError
from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import Domain
from repro.model.scheme import FlexibleScheme


class TableDefinition:
    """The declarative description of one flexible relation.

    Parameters
    ----------
    name:
        Relation name, unique within a catalog.
    scheme:
        The flexible scheme tuples must conform to.
    domains:
        Optional mapping from attribute name to domain.
    key:
        Optional primary key (an attribute set all tuples must carry, unique values).
    dependencies:
        Declared dependencies (explicit ADs, abbreviated ADs, FDs) to be enforced.
    indexes:
        Optional secondary hash indexes (each an attribute set) maintained by the
        engine; index-aware scans and index-lookup joins consult them.
    """

    def __init__(
        self,
        name: str,
        scheme: FlexibleScheme,
        domains: Optional[Dict[str, Domain]] = None,
        key=None,
        dependencies: Optional[Sequence[Dependency]] = None,
        indexes: Optional[Sequence] = None,
    ):
        if not name:
            raise CatalogError("a table needs a non-empty name")
        self.name = name
        self.scheme = scheme
        self.domains: Dict[str, Domain] = dict(domains or {})
        self.key: Optional[AttributeSet] = attrset(key) if key is not None else None
        self.dependencies: List[Dependency] = list(dependencies or [])
        self.indexes: List[AttributeSet] = [attrset(index) for index in (indexes or [])]
        self._validate()

    def _validate(self) -> None:
        scheme_attributes = self.scheme.attributes
        for attribute_name in self.domains:
            if attribute_name not in scheme_attributes:
                raise CatalogError(
                    "domain declared for {!r}, which is not an attribute of table {!r}".format(
                        attribute_name, self.name
                    )
                )
        if self.key is not None and not self.key.issubset(scheme_attributes):
            raise CatalogError(
                "key {} of table {!r} uses attributes outside the scheme".format(self.key, self.name)
            )
        for dependency in self.dependencies:
            if not dependency.attributes.issubset(scheme_attributes):
                raise CatalogError(
                    "dependency {!r} of table {!r} uses attributes outside the scheme".format(
                        dependency, self.name
                    )
                )
        for index in self.indexes:
            if not index:
                raise CatalogError(
                    "table {!r} declares an index over no attributes".format(self.name)
                )
            if not index.issubset(scheme_attributes):
                raise CatalogError(
                    "index {} of table {!r} uses attributes outside the scheme".format(
                        index, self.name
                    )
                )

    def __repr__(self) -> str:
        return "TableDefinition({!r}, attributes={}, key={}, dependencies={})".format(
            self.name, self.scheme.attributes, self.key, len(self.dependencies)
        )


class Catalog:
    """A registry of table definitions.

    The catalog carries a monotonically increasing :attr:`version`, bumped on
    every schema change (register / unregister).  The physical executor keys its
    plan cache on this version, so cached plans are invalidated exactly when the
    schema they were planned against changes.

    It answers the fact half of the :class:`~repro.algebra.source.Source`
    protocol: :meth:`universe`, :meth:`key` and :meth:`dependencies`.
    """

    def __init__(self):
        self._definitions: Dict[str, TableDefinition] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """The schema version: incremented by every register / unregister."""
        return self._version

    def register(self, definition: TableDefinition) -> TableDefinition:
        """Add a definition; duplicate names are rejected."""
        if definition.name in self._definitions:
            raise CatalogError("table {!r} is already registered".format(definition.name))
        self._definitions[definition.name] = definition
        self._version += 1
        return definition

    def unregister(self, name: str) -> None:
        """Remove a definition."""
        if name not in self._definitions:
            raise CatalogError("unknown table {!r}".format(name))
        del self._definitions[name]
        self._version += 1

    def definition(self, name: str) -> TableDefinition:
        """The definition registered under ``name``."""
        try:
            return self._definitions[name]
        except KeyError:
            raise CatalogError("unknown table {!r}".format(name)) from None

    def universe(self, name: str) -> Optional[AttributeSet]:
        """Every attribute the scheme of table ``name`` declares."""
        definition = self._definitions.get(name)
        return None if definition is None else definition.scheme.attributes

    def dependencies(self, name: str) -> Sequence[Dependency]:
        """Declared dependencies of a table."""
        definition = self._definitions.get(name)
        return () if definition is None else list(definition.dependencies)

    def key(self, name: str) -> Optional[AttributeSet]:
        """Declared key of a table, if any."""
        definition = self._definitions.get(name)
        return None if definition is None else definition.key

    def names(self) -> List[str]:
        """Registered table names, sorted."""
        return sorted(self._definitions)

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def __len__(self) -> int:
        return len(self._definitions)

    def __iter__(self):
        return iter(self.names())

    def __repr__(self) -> str:
        return "Catalog({})".format(self.names())
