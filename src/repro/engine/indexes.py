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

from typing import Dict, Iterable, Set, Tuple, Union

from repro.model.attributes import attrset
from repro.model.tuples import FlexTuple


class HashIndex:
    """A hash index on a fixed attribute set.

    A key is the tuple of the indexed attributes' values in sorted attribute order
    (:attr:`names`).  The constraint checker, which knows per shape which indexes a
    tuple is defined on, and the scans, which bind it from their equalities, build
    it themselves and call :meth:`put` / :meth:`drop` / :meth:`bucket`.

    A key with one tuple — every key of a key index — maps to a 1-tuple, a key
    with several to their set: a one-element ``set`` is 216 bytes a row.
    """

    def __init__(self, attributes):
        self.attributes = attrset(attributes)
        #: the indexed attribute names, sorted: the order of a key's values
        self.names: Tuple[str, ...] = self.attributes.names
        self._buckets: Dict[Tuple, Union[Tuple[FlexTuple], Set[FlexTuple]]] = {}
        self._indexed = 0

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
