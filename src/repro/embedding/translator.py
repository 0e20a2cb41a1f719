"""Translation of flexible schemes + dependencies into variant-record types.

The translator takes the unconditioned attributes of a flexible scheme as the fixed
part and turns one explicit attribute dependency into the tagged variant part:

* a single-attribute determinant becomes the tag field directly;
* a multi-attribute determinant ``X`` triggers the paper's work-around (Section
  4.2): an artificial attribute ``A`` is introduced, the dependency is replaced by
  ``A --attr--> Y`` and the constraint set is extended by ``X --func--> A``.  The
  translator re-derives the original ``X --attr--> Y`` from the replacement with the
  combined system Å* and attaches the proof trace, demonstrating the validity of the
  replacement.

Schemes with optional structure but *no* covering dependency get an artificial AD
whose artificial determinant enumerates the admitted variants (Section 3.3), so that
every existential relationship ends up tag-discriminated, as PASCAL requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.axioms import AXIOM_SYSTEM_COMBINED, DerivationTrace, derive
from repro.core.dependencies import (
    AttributeDependency,
    Dependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
)
from repro.embedding.variant_records import VariantCase, VariantRecordType
from repro.errors import EmbeddingError
from repro.model.attributes import AttributeSet, attrset
from repro.model.scheme import FlexibleScheme


class ArtificialDeterminant:
    """Record of an artificial attribute introduced during translation."""

    def __init__(self, attribute: str, replaces: AttributeSet,
                 functional_dependency: FunctionalDependency,
                 attribute_dependency: AttributeDependency,
                 justification: Optional[DerivationTrace]):
        self.attribute = attribute
        self.replaces = replaces
        self.functional_dependency = functional_dependency
        self.attribute_dependency = attribute_dependency
        #: proof (in Å*) that the replaced dependency is still implied
        self.justification = justification

    def __repr__(self) -> str:
        return "ArtificialDeterminant({!r} for {})".format(self.attribute, self.replaces)


class TranslationResult:
    """The variant-record type plus everything introduced to make it expressible."""

    def __init__(self, record_type: VariantRecordType,
                 artificial: List[ArtificialDeterminant],
                 added_dependencies: List[Dependency]):
        self.record_type = record_type
        self.artificial = list(artificial)
        self.added_dependencies = list(added_dependencies)

    def __repr__(self) -> str:
        return "TranslationResult({!r}, artificial={})".format(
            self.record_type.name, [a.attribute for a in self.artificial]
        )


def _unconditioned_attributes(scheme: FlexibleScheme) -> AttributeSet:
    """Attributes present in every combination admitted by the scheme."""
    combos = scheme.dnf()
    if not combos:
        return AttributeSet()
    iterator = iter(combos)
    common = next(iterator)
    for combo in iterator:
        common = common & combo
    return common


def translate_scheme(
    scheme: FlexibleScheme,
    dependency: Optional[ExplicitAttributeDependency] = None,
    type_name: str = "flexible_record",
    artificial_attribute: str = "variant_tag",
) -> TranslationResult:
    """Translate a flexible scheme (plus its explicit AD, if any) into a variant record."""
    fixed = _unconditioned_attributes(scheme)
    variable = scheme.attributes - fixed
    artificial: List[ArtificialDeterminant] = []
    added: List[Dependency] = []

    if dependency is None:
        if not variable:
            record = VariantRecordType(type_name, fixed, None, ())
            return TranslationResult(record, [], [])
        # Section 3.3: no AD covers the existential relationship — introduce an
        # artificial one whose determinant enumerates the admitted variants.
        combos = sorted(scheme.dnf(), key=lambda c: c.names)
        variants = []
        cases = []
        for index, combo in enumerate(combos, start=1):
            tag_value = "variant-{}".format(index)
            local = combo - fixed
            variants.append(Variant([{artificial_attribute: tag_value}], local, name=tag_value))
            cases.append(VariantCase(tag_value, [tag_value], local))
        artificial_dependency = ExplicitAttributeDependency(
            attrset(artificial_attribute), variable, variants
        )
        added.append(artificial_dependency)
        record = VariantRecordType(type_name, fixed, artificial_attribute, cases)
        return TranslationResult(record, [], added)

    if not dependency.rhs.issubset(scheme.attributes):
        raise EmbeddingError(
            "dependency {!r} mentions attributes outside the scheme".format(dependency)
        )

    determinant = dependency.lhs
    if len(determinant) == 1:
        tag_field = next(iter(determinant)).name
        cases = _cases_from_dependency(dependency, tag_field)
        fixed_part = (fixed - dependency.rhs) - determinant
        record = VariantRecordType(type_name, fixed_part, tag_field, cases)
        return TranslationResult(record, [], [])

    # Multi-attribute determinant: the PASCAL work-around of Section 4.2.
    tag_field = artificial_attribute
    tag_values: Dict[Tuple, str] = {}
    cases: List[VariantCase] = []
    variant_values: List[Variant] = []
    for index, variant in enumerate(dependency.variants, start=1):
        label = variant.name or "case-{}".format(index)
        for value in variant.values:
            tag_values[tuple(value[a] for a in determinant)] = label
        cases.append(VariantCase(label, [label], variant.attributes))
        variant_values.append(Variant([{tag_field: label}], variant.attributes, name=label))

    replacement_ad = ExplicitAttributeDependency(attrset(tag_field), dependency.rhs, variant_values)
    functional = FunctionalDependency(determinant, attrset(tag_field))
    justification = derive(
        [functional, replacement_ad.to_ad()],
        dependency.to_ad(),
        system=AXIOM_SYSTEM_COMBINED,
    )
    if justification is None:
        raise EmbeddingError(
            "internal error: the artificial-determinant replacement is not derivable"
        )
    artificial.append(
        ArtificialDeterminant(tag_field, determinant, functional, replacement_ad.to_ad(), justification)
    )
    added.extend([functional, replacement_ad])
    fixed_part = (fixed - dependency.rhs) | determinant
    record = VariantRecordType(type_name, fixed_part, tag_field, cases)
    return TranslationResult(record, artificial, added)


def _cases_from_dependency(dependency: ExplicitAttributeDependency, tag_field: str) -> List[VariantCase]:
    cases = []
    for index, variant in enumerate(dependency.variants, start=1):
        label = variant.name or "case-{}".format(index)
        values = [value[tag_field] for value in variant.values]
        cases.append(VariantCase(label, values, variant.attributes))
    return cases
