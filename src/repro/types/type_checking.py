"""Type checking of tuples against record types, flexible schemes and dependencies.

Section 3.1 names type checking as the central operational use of attribute
dependencies: a flexible scheme alone accepts any attribute combination in its DNF,
so the tuple ``<jobtype:'salesman', typing-speed:high, foreign-languages:{...}>`` is
structurally fine, but the jobtype EAD rejects it.  The :class:`TypeChecker`
combines the three levels of checking — scheme admission, domain conformance,
dependency conformance — and reports which level failed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dependencies import Dependency, ExplicitAttributeDependency
from repro.errors import TypeCheckError
from repro.model.domains import Domain
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.types.record_types import RecordType


def check_tuple_against_type(tup: FlexTuple, record_type: RecordType, exact: bool = False) -> None:
    """Raise :class:`TypeCheckError` when the tuple does not conform to the record type."""
    if exact and tup.attributes != record_type.attributes:
        raise TypeCheckError(
            "tuple attributes {} do not match type {!r} exactly".format(
                tup.attributes, record_type.name
            )
        )
    for field, domain in record_type.fields.items():
        if field not in tup:
            raise TypeCheckError(
                "tuple lacks field {!r} required by type {!r}".format(field, record_type.name)
            )
        if not domain.contains(tup[field]):
            raise TypeCheckError(
                "value {!r} of field {!r} is outside the domain of type {!r}".format(
                    tup[field], field, record_type.name
                )
            )


class CheckReport:
    """Outcome of a full type check: which levels passed, which violations occurred."""

    def __init__(self, tup: FlexTuple):
        self.tuple = tup
        self.scheme_ok: Optional[bool] = None
        self.domains_ok: Optional[bool] = None
        self.dependencies_ok: Optional[bool] = None
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        """``True`` when every performed check passed."""
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else "; ".join(self.errors)
        return "CheckReport({!r}: {})".format(self.tuple, status)


class TypeChecker:
    """Checks tuples against a flexible scheme, attribute domains and dependencies.

    The three levels can be toggled independently, which is how the benchmarks
    compare "scheme only" against "scheme + ADs" checking (experiment E2).
    """

    def __init__(
        self,
        scheme: Optional[FlexibleScheme] = None,
        domains: Optional[Dict[str, Domain]] = None,
        dependencies: Optional[Sequence[Dependency]] = None,
        check_scheme: bool = True,
        check_domains: bool = True,
        check_dependencies: bool = True,
    ):
        self.scheme = scheme
        self.domains = dict(domains or {})
        self.dependencies = list(dependencies or [])
        self.check_scheme = check_scheme
        self.check_domains = check_domains
        self.check_dependencies = check_dependencies

    def report(self, tup: FlexTuple) -> CheckReport:
        """Run every enabled level and return a :class:`CheckReport`."""
        report = CheckReport(tup)
        if self.check_scheme and self.scheme is not None:
            report.scheme_ok = self.scheme.admits(tup.attributes)
            if not report.scheme_ok:
                report.errors.append(
                    "attribute combination {} not admitted by the scheme".format(tup.attributes)
                )
        if self.check_domains and self.domains:
            report.domains_ok = True
            for name, value in tup.items():
                domain = self.domains.get(name)
                if domain is not None and not domain.contains(value):
                    report.domains_ok = False
                    report.errors.append(
                        "value {!r} outside domain of attribute {!r}".format(value, name)
                    )
        if self.check_dependencies and self.dependencies:
            report.dependencies_ok = True
            for dependency in self.dependencies:
                if isinstance(dependency, ExplicitAttributeDependency):
                    if not dependency.check_tuple(tup):
                        report.dependencies_ok = False
                        report.errors.append(
                            "tuple violates explicit AD {!r}: requires Y-attributes {}".format(
                                dependency, dependency.required_attributes(tup)
                            )
                        )
                # Abbreviated ADs and FDs are two-tuple constraints; a single tuple
                # can never violate them, so they are skipped here and enforced by
                # the engine at instance level.
        return report

    def accepts(self, tup: FlexTuple) -> bool:
        """``True`` when the tuple passes every enabled level."""
        return self.report(tup).ok

    def check(self, tup: FlexTuple) -> FlexTuple:
        """Raise :class:`TypeCheckError` describing the first failure, else return the tuple."""
        report = self.report(tup)
        if not report.ok:
            raise TypeCheckError("; ".join(report.errors))
        return tup
