"""Single-relation translations with NULL padding (the classical baseline).

Two of the four classical translation methods for a predicate-defined specialization
store everything in one homogeneous relation:

* :class:`NullPaddedTable` — one row per entity over *all* attributes (own + every
  subclass's), missing values padded with NULL, plus one artificial *variant tag*
  attribute telling which subclass the row belongs to;
* :class:`BooleanFlagTable` — the variant for overlapping subclasses: one boolean
  flag attribute per subclass instead of the single tag.

Both tables accept structurally anything (that is the paper's point: the burden of
setting and interpreting the artificial attributes, and of keeping the NULL pattern
consistent with them, is on the user).  They expose the same metrics the flexible
engine exposes — stored cells, NULL cells, inconsistent rows — so experiments E2 and
E8 can compare the approaches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.core.dependencies import ExplicitAttributeDependency
from repro.errors import ReproError
from repro.model.attributes import attrset
from repro.model.tuples import FlexTuple

#: the NULL marker used by the flat tables
NULL = None


class NullPaddedTable:
    """A homogeneous table over all attributes with a single variant-tag attribute."""

    def __init__(self, attributes, dependency: ExplicitAttributeDependency,
                 tag_attribute: str = "variant_tag"):
        self.attributes = attrset(attributes)
        self.dependency = dependency
        if tag_attribute in self.attributes:
            raise ReproError("tag attribute {!r} clashes with an entity attribute".format(tag_attribute))
        self.tag_attribute = tag_attribute
        self.rows: List[Dict[str, object]] = []
        self._variant_names = [
            variant.name or "variant-{}".format(index + 1)
            for index, variant in enumerate(dependency.variants)
        ]

    # -- loading -------------------------------------------------------------------------------

    def tag_for(self, tup: FlexTuple) -> Optional[str]:
        """The tag value the *user* would have to supply for this tuple."""
        variant = self.dependency.variant_for(tup)
        if variant is None:
            return None
        index = self.dependency.variants.index(variant)
        return self._variant_names[index]

    def insert(self, item, tag: object = "auto") -> Dict[str, object]:
        """Store a tuple as a NULL-padded row.

        ``tag='auto'`` derives the correct tag from the dependency (a well-behaved
        user); any other value is stored as given — the table itself never rejects a
        row, so an inconsistent tag or NULL pattern goes unnoticed until queried.
        """
        tup = item if isinstance(item, FlexTuple) else FlexTuple(item)
        row: Dict[str, object] = {a.name: NULL for a in self.attributes}
        for name, value in tup.items():
            if name not in row:
                raise ReproError("attribute {!r} unknown to the flat table".format(name))
            row[name] = value
        row[self.tag_attribute] = self.tag_for(tup) if tag == "auto" else tag
        self.rows.append(row)
        return row

    def insert_many(self, items: Iterable, tag: object = "auto") -> List[Dict[str, object]]:
        return [self.insert(item, tag=tag) for item in items]

    # -- metrics -------------------------------------------------------------------------------------

    def null_cells(self) -> int:
        """Number of NULL cells currently stored (excluding the tag column)."""
        return sum(
            1 for row in self.rows for name, value in row.items()
            if name != self.tag_attribute and value is NULL
        )

    def stored_cells(self) -> int:
        """Total number of cells (every row stores every column, plus the tag)."""
        return len(self.rows) * (len(self.attributes) + 1)

    def inconsistent_rows(self) -> List[Dict[str, object]]:
        """Rows whose NULL pattern does not match the variant their tag claims.

        This is the consistency the user has to maintain manually; the flexible
        relation with its AD makes such rows unrepresentable.
        """
        inconsistent = []
        for row in self.rows:
            tup = FlexTuple({name: value for name, value in row.items()
                             if name != self.tag_attribute and value is not NULL})
            expected_tag = self.tag_for(tup)
            consistent = (
                expected_tag == row[self.tag_attribute]
                and self.dependency.check_tuple(tup)
            )
            if not consistent:
                inconsistent.append(row)
        return inconsistent

    def to_tuples(self) -> Set[FlexTuple]:
        """The heterogeneous view of the table (dropping NULLs and the tag)."""
        result = set()
        for row in self.rows:
            result.add(FlexTuple({name: value for name, value in row.items()
                                  if name != self.tag_attribute and value is not NULL}))
        return result

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "NullPaddedTable(rows={}, nulls={})".format(len(self.rows), self.null_cells())


class BooleanFlagTable(NullPaddedTable):
    """The overlapping-subclasses variant: one boolean flag attribute per subclass."""

    def __init__(self, attributes, dependency: ExplicitAttributeDependency,
                 flag_prefix: str = "is_"):
        super().__init__(attributes, dependency, tag_attribute="_unused_tag")
        self.flag_prefix = flag_prefix
        self.flag_attributes = [
            flag_prefix + name for name in self._variant_names
        ]

    def insert(self, item, tag: object = "auto") -> Dict[str, object]:
        tup = item if isinstance(item, FlexTuple) else FlexTuple(item)
        row: Dict[str, object] = {a.name: NULL for a in self.attributes}
        for name, value in tup.items():
            if name not in row:
                raise ReproError("attribute {!r} unknown to the flat table".format(name))
            row[name] = value
        variant = self.dependency.variant_for(tup)
        for flag, name in zip(self.flag_attributes, self._variant_names):
            if tag == "auto":
                row[flag] = variant is not None and (variant.name or "") == name
            else:
                row[flag] = bool(tag)
        self.rows.append(row)
        return row

    def null_cells(self) -> int:
        return sum(
            1 for row in self.rows for name, value in row.items()
            if name in {a.name for a in self.attributes} and value is NULL
        )

    def stored_cells(self) -> int:
        return len(self.rows) * (len(self.attributes) + len(self.flag_attributes))

    def inconsistent_rows(self) -> List[Dict[str, object]]:
        inconsistent = []
        for row in self.rows:
            tup = FlexTuple({name: value for name, value in row.items()
                             if name in {a.name for a in self.attributes} and value is not NULL})
            variant = self.dependency.variant_for(tup)
            expected = {
                flag: variant is not None and (variant.name or "") == name
                for flag, name in zip(self.flag_attributes, self._variant_names)
            }
            flags_ok = all(row.get(flag) == value for flag, value in expected.items())
            if not (flags_ok and self.dependency.check_tuple(tup)):
                inconsistent.append(row)
        return inconsistent

    def to_tuples(self) -> Set[FlexTuple]:
        names = {a.name for a in self.attributes}
        result = set()
        for row in self.rows:
            result.add(FlexTuple({name: value for name, value in row.items()
                                  if name in names and value is not NULL}))
        return result

    def __repr__(self) -> str:
        return "BooleanFlagTable(rows={}, nulls={})".format(len(self.rows), self.null_cells())
