"""Variant-record types (the PASCAL-style target of the embedding).

A :class:`VariantRecordType` has

* *fixed fields* — always present (the unconditioned attributes of the scheme),
* a single *tag field* — the determinant of the variant part,
* *cases* — one per tag value (or tag value set), each listing the fields present
  for that case.

The class can check heterogeneous tuples against the type, enumerate the attribute
combinations it admits, and render itself as PASCAL-like or Python ``dataclass``-like
source text (useful to eyeball the embedding and in the documentation examples).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.errors import EmbeddingError
from repro.model.attributes import AttributeSet, attrset
from repro.model.tuples import FlexTuple


class VariantCase:
    """One case of the variant part: the tag values selecting it and its fields."""

    def __init__(self, name: str, tag_values: Sequence, fields):
        if not name:
            raise EmbeddingError("a variant case needs a name")
        self.name = name
        self.tag_values = tuple(tag_values)
        if not self.tag_values:
            raise EmbeddingError("variant case {!r} needs at least one tag value".format(name))
        self.fields = attrset(fields)

    def __repr__(self) -> str:
        return "VariantCase({!r}, tags={}, fields={})".format(self.name, list(self.tag_values), self.fields)


class VariantRecordType:
    """A record type with a fixed part and a tagged variant part."""

    def __init__(self, name: str, fixed_fields, tag_field: Optional[str],
                 cases: Sequence[VariantCase] = ()):
        self.name = name
        self.fixed_fields = attrset(fixed_fields)
        self.tag_field = tag_field
        self.cases = list(cases)
        if self.cases and not tag_field:
            raise EmbeddingError("a variant part needs a tag field")
        seen = set()
        for case in self.cases:
            for value in case.tag_values:
                if value in seen:
                    raise EmbeddingError(
                        "tag value {!r} selects more than one case".format(value)
                    )
                seen.add(value)

    # -- conformance ---------------------------------------------------------------------------

    def case_for(self, tag_value) -> Optional[VariantCase]:
        """The case selected by a tag value, or ``None``."""
        for case in self.cases:
            if tag_value in case.tag_values:
                return case
        return None

    def accepts(self, tup: FlexTuple) -> bool:
        """``True`` when the tuple matches the fixed part plus exactly one case."""
        required = self.fixed_fields
        if self.tag_field is not None:
            required = required | attrset(self.tag_field)
        if not tup.is_defined_on(required):
            return False
        variant_fields = AttributeSet()
        if self.tag_field is not None and self.cases:
            case = self.case_for(tup[self.tag_field])
            if case is not None:
                variant_fields = case.fields
        expected = required | variant_fields
        return tup.attributes == expected

    def admitted_combinations(self) -> Set[AttributeSet]:
        """Attribute combinations the type admits (one per case, or just the fixed part)."""
        base = self.fixed_fields
        if self.tag_field is not None:
            base = base | attrset(self.tag_field)
        if not self.cases:
            return {base}
        return {base | case.fields for case in self.cases}

    # -- rendering -------------------------------------------------------------------------------

    def to_pascal(self) -> str:
        """PASCAL-like source text for the type."""
        lines = ["type {} = record".format(self.name)]
        for field in self.fixed_fields:
            lines.append("  {}: <domain>;".format(field.name))
        if self.tag_field is not None and self.cases:
            lines.append("  case {}: <domain> of".format(self.tag_field))
            for case in self.cases:
                tags = ", ".join(repr(v) for v in case.tag_values)
                fields = "; ".join("{}: <domain>".format(f.name) for f in case.fields)
                lines.append("    {}: ({});".format(tags, fields))
        lines.append("end;")
        return "\n".join(lines)

    def to_python(self) -> str:
        """Python dataclass-like source text for the type (one class per case)."""
        lines = ["@dataclass", "class {}:".format(_camel(self.name))]
        for field in self.fixed_fields:
            lines.append("    {}: object".format(field.name))
        if self.tag_field is not None:
            lines.append("    {}: object".format(self.tag_field))
        for case in self.cases:
            lines.append("")
            lines.append("@dataclass")
            lines.append("class {}({}):".format(_camel(case.name), _camel(self.name)))
            if not case.fields:
                lines.append("    pass")
            for field in case.fields:
                lines.append("    {}: object".format(field.name))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "VariantRecordType({!r}, fixed={}, tag={!r}, cases={})".format(
            self.name, self.fixed_fields, self.tag_field, [c.name for c in self.cases]
        )


def _camel(name: str) -> str:
    parts = [part for part in name.replace("-", "_").split("_") if part]
    return "".join(part.capitalize() for part in parts) or "Record"
