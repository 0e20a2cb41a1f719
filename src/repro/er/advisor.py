"""Schema-design advisor for flexible relations with dependencies.

The paper's operational machinery makes several design questions mechanical; this
module packages them into one report so a designer (or a migration script) can ask
"is this table definition in good shape?":

* **redundant dependencies** — dependencies already implied by the rest of the set
  (minimal cover, Section 4's implication machinery);
* **specialization classification** — disjoint vs overlapping and total vs partial
  for every declared explicit AD (Section 3.1);
* **embedding obstacles** — explicit ADs whose determinant has more than one
  attribute need the artificial-attribute work-around before a variant-record
  embedding is possible (Section 4.2);
* **decomposition advice** — expected NULL savings of the flexible/decomposed
  representation over a flat single table, and whether a horizontal or vertical
  decomposition along each explicit AD *preserves* the declared dependencies
  (checked with the propagation rules of Theorem 4.3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.closure import implies, minimal_cover
from repro.core.dependencies import Dependency, ExplicitAttributeDependency, FunctionalDependency
from repro.core.propagation import propagate_projection
from repro.engine.catalog import TableDefinition
from repro.errors import DependencyError
from repro.model.attributes import attrset


def redundant_dependencies(dependencies: Sequence[Dependency]) -> List[Dependency]:
    """Dependencies implied by the remaining ones (candidates for removal)."""
    cover = minimal_cover(list(dependencies))
    return [dependency for dependency in dependencies if dependency not in cover]


def dependency_preservation(
    fragment_attribute_sets: Iterable,
    dependencies: Sequence[Dependency],
) -> Tuple[bool, List[Dependency]]:
    """Check whether a decomposition preserves the declared dependencies.

    Each fragment is given by its attribute set; the dependencies holding in a
    fragment are obtained with the projection rule of Theorem 4.3.  The decomposition
    preserves the declared set when the union of the fragment dependencies implies
    every declared dependency.  Returns ``(preserved, lost dependencies)``.
    """
    fragments = [attrset(attributes) for attributes in fragment_attribute_sets]
    available: List[Dependency] = []
    for fragment in fragments:
        for dependency in dependencies:
            if isinstance(dependency, ExplicitAttributeDependency):
                if dependency.lhs.issubset(fragment):
                    available.append(dependency.project_rhs(fragment))
            elif isinstance(dependency, FunctionalDependency):
                # FDs project like in classical theory: they survive (restricted to
                # the fragment) whenever their determinant lies in the fragment.
                if dependency.lhs.issubset(fragment):
                    available.append(
                        FunctionalDependency(dependency.lhs, dependency.rhs & fragment)
                    )
            else:
                available.extend(propagate_projection([dependency], fragment))
    lost = []
    for dependency in dependencies:
        candidate = dependency.to_ad() if isinstance(dependency, ExplicitAttributeDependency) \
            else dependency
        try:
            if not implies(available, candidate):
                lost.append(dependency)
        except DependencyError:
            lost.append(dependency)
    return (not lost), lost


class SpecializationAdvice:
    """Advice for one explicit attribute dependency of a definition."""

    def __init__(self, dependency: ExplicitAttributeDependency, disjoint: bool,
                 total: Optional[bool], needs_artificial_determinant: bool,
                 horizontal_preserves: bool, vertical_preserves: bool,
                 expected_null_cells_per_tuple: float):
        self.dependency = dependency
        self.disjoint = disjoint
        self.total = total
        self.needs_artificial_determinant = needs_artificial_determinant
        self.horizontal_preserves = horizontal_preserves
        self.vertical_preserves = vertical_preserves
        self.expected_null_cells_per_tuple = expected_null_cells_per_tuple

    def __repr__(self) -> str:
        return ("SpecializationAdvice(determinant={}, disjoint={}, total={}, "
                "artificial_determinant_needed={})").format(
            self.dependency.lhs, self.disjoint, self.total, self.needs_artificial_determinant)


class DesignReport:
    """The advisor's findings for one table definition."""

    def __init__(self, definition: TableDefinition):
        self.definition = definition
        self.redundant: List[Dependency] = []
        self.specializations: List[SpecializationAdvice] = []

    @property
    def clean(self) -> bool:
        """``True`` when nothing needs the designer's attention."""
        return not self.redundant and all(
            not advice.needs_artificial_determinant for advice in self.specializations
        )

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        lines = ["design report for table {!r}".format(self.definition.name)]
        if self.redundant:
            lines.append("  redundant dependencies (implied by the others):")
            for dependency in self.redundant:
                lines.append("    - {!r}".format(dependency))
        else:
            lines.append("  no redundant dependencies")
        for advice in self.specializations:
            lines.append("  specialization on {}:".format(advice.dependency.lhs))
            lines.append("    disjoint: {}   total: {}".format(
                advice.disjoint, "unknown" if advice.total is None else advice.total))
            lines.append("    avoids ~{:.1f} NULL cells per tuple of a flat table".format(
                advice.expected_null_cells_per_tuple))
            lines.append("    horizontal decomposition preserves dependencies: {}".format(
                advice.horizontal_preserves))
            lines.append("    vertical decomposition preserves dependencies: {}".format(
                advice.vertical_preserves))
            if advice.needs_artificial_determinant:
                lines.append("    variant-record embedding needs an artificial determinant "
                             "(|X| > 1, Section 4.2)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "DesignReport({!r}, redundant={}, specializations={})".format(
            self.definition.name, len(self.redundant), len(self.specializations))


def advise(definition: TableDefinition) -> DesignReport:
    """Analyze a table definition and return a :class:`DesignReport`."""
    report = DesignReport(definition)
    dependencies = list(definition.dependencies)
    report.redundant = redundant_dependencies(dependencies)

    attributes = definition.scheme.attributes
    for dependency in dependencies:
        if not isinstance(dependency, ExplicitAttributeDependency):
            continue
        try:
            total = dependency.is_total(definition.domains) if all(
                attribute.name in definition.domains and definition.domains[attribute.name].is_finite
                for attribute in dependency.lhs
            ) else None
        except DependencyError:
            total = None

        # expected NULLs per tuple in a flat table, assuming variants are equally likely
        variant_sizes = [len(variant.attributes) for variant in dependency.variants]
        average_present = sum(variant_sizes) / len(variant_sizes)
        expected_nulls = len(dependency.rhs) - average_present

        # fragments of the two decompositions (by attribute sets)
        base = attributes - dependency.rhs
        horizontal_fragments = [base | variant.attributes for variant in dependency.variants]
        key = definition.key if definition.key is not None else dependency.lhs
        vertical_fragments = [base] + [key | variant.attributes | dependency.lhs
                                       for variant in dependency.variants]
        horizontal_ok, _ = dependency_preservation(horizontal_fragments, dependencies)
        vertical_ok, _ = dependency_preservation(vertical_fragments, dependencies)

        report.specializations.append(SpecializationAdvice(
            dependency,
            disjoint=dependency.is_disjoint(),
            total=total,
            needs_artificial_determinant=len(dependency.lhs) > 1,
            horizontal_preserves=horizontal_ok,
            vertical_preserves=vertical_ok,
            expected_null_cells_per_tuple=expected_nulls,
        ))
    return report
