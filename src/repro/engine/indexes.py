"""Hash indexes over heterogeneous tuples.

An index over an attribute set ``X`` maps the ``X``-projection of a tuple to the set
of stored tuples with that projection.  Tuples that are not defined on all of ``X``
are simply not indexed — which matches the semantics of the dependency definitions,
where only tuples defined on the determinant participate in the constraint.

The engine keeps one index per declared key and per dependency determinant so that
inserting a tuple only has to compare it against the tuples agreeing on the
determinant instead of the whole relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple, Union

from repro.model.attributes import attrset
from repro.model.tuples import FlexTuple


class HashIndex:
    """A hash index on a fixed attribute set.

    A key is the tuple of the indexed attributes' values in sorted attribute order
    (:attr:`names`).  :meth:`add` / :meth:`remove` / :meth:`lookup` derive it from a
    tuple; the constraint checker, which knows per shape which indexes a tuple is
    defined on, builds it itself and calls :meth:`put` / :meth:`drop` /
    :meth:`bucket`.

    A key with one tuple — every key of a key index — maps to a 1-tuple, a key
    with several to their set: a one-element ``set`` is 216 bytes a row.
    """

    def __init__(self, attributes):
        self.attributes = attrset(attributes)
        #: the indexed attribute names, sorted: the order of a key's values
        self.names: Tuple[str, ...] = self.attributes.names
        self._buckets: Dict[Tuple, Union[Tuple[FlexTuple], Set[FlexTuple]]] = {}
        self._indexed = 0

    def key_of(self, tup: FlexTuple) -> Optional[Tuple]:
        """The index key of a tuple, or ``None`` when the tuple lacks an indexed attribute."""
        values = tup._values
        try:
            return tuple([values[name] for name in self.names])
        except KeyError:
            return None

    def add(self, tup: FlexTuple) -> None:
        """Index a tuple (no-op for tuples not defined on the indexed attributes)."""
        key = self.key_of(tup)
        if key is not None:
            self.put(key, tup)

    def put(self, key: Tuple, tup: FlexTuple) -> None:
        """Index a tuple under its key."""
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = (tup,)
        elif tup in bucket:
            return
        elif type(bucket) is set:
            bucket.add(tup)
        else:
            self._buckets[key] = {bucket[0], tup}
        self._indexed += 1

    def remove(self, tup: FlexTuple) -> None:
        """Remove a tuple from the index (no-op when it was never indexed)."""
        key = self.key_of(tup)
        if key is not None:
            self.drop(key, tup)

    def drop(self, key: Tuple, tup: FlexTuple) -> None:
        """Remove a tuple from under its key (no-op when it is not there)."""
        bucket = self._buckets.get(key)
        if not bucket or tup not in bucket:
            return
        if type(bucket) is set:
            bucket.remove(tup)
            if len(bucket) == 1:
                self._buckets[key] = tuple(bucket)
        else:
            del self._buckets[key]
        self._indexed -= 1

    def bucket(self, key: Tuple) -> Iterable[FlexTuple]:
        """The tuples stored under ``key``, in place: read, never mutate."""
        return self._buckets.get(key, ())

    def lookup(self, probe) -> Set[FlexTuple]:
        """Tuples whose indexed projection equals the probe's, as a fresh set.

        ``probe`` may be a tuple of values (in sorted attribute order), a mapping, or
        a :class:`FlexTuple`.  An empty set is returned when the probe does not bind
        every indexed attribute.
        """
        if isinstance(probe, tuple):
            key = probe
        else:
            tup = probe if isinstance(probe, FlexTuple) else FlexTuple(probe)
            key = self.key_of(tup)
            if key is None:
                return set()
        return set(self.bucket(key))

    def groups(self) -> Iterable[Tuple[Tuple, Set[FlexTuple]]]:
        """Iterate over ``(key, tuples)`` buckets."""
        for key, bucket in self._buckets.items():
            yield key, set(bucket)

    def same_buckets(self, other: "HashIndex") -> bool:
        """Do both indexes file the same tuples under the same keys?"""
        return self._buckets == other._buckets

    def average_bucket_size(self) -> float:
        """Average tuples per index key — the expected partners of one probe."""
        if not self._buckets:
            return 0.0
        return self._indexed / float(len(self._buckets))

    def __len__(self) -> int:
        return self._indexed

    def clear(self) -> None:
        self._buckets.clear()
        self._indexed = 0

    def __repr__(self) -> str:
        return "HashIndex(on={}, buckets={}, tuples={})".format(
            self.attributes, len(self._buckets), self._indexed
        )
