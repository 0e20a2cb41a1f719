"""Sources: the one interface between a query and the base relations it reads.

Everything the evaluator, the planners and the cost model ask about a base
relation goes through a :class:`Source`: its rows, its scan view, an index,
and the facts its catalog entry declares — the flexible scheme's attribute
universe, the key and the attribute dependencies (Definition 2.1).  A
:class:`~repro.engine.Database` is a source as it stands (and so is a
``weakref.proxy`` of one); a :class:`~repro.engine.catalog.Catalog` answers
the fact half.  A plain mapping ``{name: relation}`` is wrapped once, by
:func:`as_source`, at each entry point.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Optional, Protocol, Sequence

from repro.errors import AlgebraError
from repro.model.attributes import AttributeSet
from repro.model.batches import ScanView
from repro.model.tuples import FlexTuple, tuples_of

#: mapping entries that are bare rows (tuples or value dicts), not a relation
_ROWS = (set, frozenset, list, tuple)


class Source(Protocol):
    """What a query may ask of the relations it reads.

    :meth:`relation` (sized rows, in the same order on every call) and
    :meth:`scan_view` (the rows pivoted for a full scan) raise for a name the
    source does not know; the facts — the scheme's :meth:`universe`, the
    declared :meth:`key` and :meth:`dependencies` — then answer "nothing
    known" (``None``, ``None``, ``()``), and :meth:`index_for` (a maintained
    hash index covered by ``attributes``) ``None``.  The attributes are the
    plan cache's two versions, the statistics catalog, the cardinality
    feedback store and the tracer: ``None`` where the source keeps no such
    thing.
    """

    catalog_version: object
    statistics_version: object
    statistics: object
    cardinality_feedback: object
    tracer: object

    def relation(self, name: str) -> Iterable[FlexTuple]: ...
    def scan_view(self, name: str) -> ScanView: ...
    def universe(self, name: str) -> Optional[AttributeSet]: ...
    def key(self, name: str) -> Optional[AttributeSet]: ...
    def dependencies(self, name: str) -> Sequence: ...
    def index_for(self, name: str, attributes): ...


class MappingSource:
    """A plain mapping ``{name: relation}`` as a :class:`Source`.

    An entry is a relation object (a ``FlexibleRelation`` or a ``Table``,
    iterated as it is; its ``scheme`` declares the universe) or bare rows (a
    set, list or tuple of tuples or value dicts: made tuples, duplicates
    dropped).  A mapping declares no key, dependency or index and keeps no
    statistics, feedback, tracer or version; with nothing to invalidate by,
    every call reads the mapping afresh.
    """

    catalog_version = statistics_version = None
    statistics = cardinality_feedback = tracer = None

    def __init__(self, mapping: Mapping):
        self._mapping = mapping

    def relation(self, name: str) -> Iterable[FlexTuple]:
        try:
            entry = self._mapping[name]
        except KeyError:
            raise AlgebraError("unknown relation {!r}".format(name)) from None
        if isinstance(entry, _ROWS):
            return set(tuples_of(entry))
        return entry

    def scan_view(self, name: str) -> ScanView:
        return ScanView(list(self.relation(name)))

    def universe(self, name: str) -> Optional[AttributeSet]:
        entry = self._mapping[name] if name in self._mapping else ()
        return None if isinstance(entry, _ROWS) else entry.scheme.attributes

    def key(self, name: str) -> None:
        return None

    def dependencies(self, name: str) -> Sequence:
        return ()

    def index_for(self, name: str, attributes) -> None:
        return None


#: class -> is it a ``Mapping``: the ABC check, made once per class
_IS_MAPPING: Dict[type, bool] = {}


def as_source(source) -> Source:
    """``source`` as a :class:`Source`: a mapping wrapped, ``None`` an empty
    source, anything else (a database, a catalog, a source) as it is.  The
    class — a ``weakref.proxy`` answers its referent's — is looked up in a
    memo: the ABC check on a proxy cost twice the rest of the call."""
    if source is None:
        return MappingSource({})
    cls = source.__class__
    try:
        mapping = _IS_MAPPING[cls]
    except KeyError:
        mapping = _IS_MAPPING[cls] = issubclass(cls, Mapping)
    return MappingSource(source) if mapping else source
