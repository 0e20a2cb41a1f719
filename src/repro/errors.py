"""Exception hierarchy for the flexible-relations library.

Every error raised by the library derives from :class:`ReproError`, so callers can
catch a single base class.  The hierarchy mirrors the layers of the system:

* scheme errors (malformed flexible schemes),
* tuple/type errors (a tuple does not fit a scheme, a domain or a record type),
* dependency errors (malformed or violated attribute/functional dependencies),
* constraint violations raised by the engine during DML,
* algebra/optimizer errors (ill-formed expressions),
* catalog errors (unknown or duplicate relations).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemeError(ReproError):
    """A flexible scheme is structurally invalid.

    Examples: cardinality bounds out of range, duplicate attributes across
    components, an empty component set with a positive lower bound.
    """


class TupleError(ReproError):
    """A tuple is malformed (e.g. accessing an attribute it is not defined on)."""


class TypeCheckError(ReproError):
    """A tuple does not conform to a scheme, a domain, or a record type."""


class DomainError(TypeCheckError):
    """A value is outside the domain declared for its attribute."""


class DependencyError(ReproError):
    """A dependency (AD, EAD or FD) is syntactically malformed."""


class DependencyViolation(ReproError):
    """An instance violates a declared attribute or functional dependency."""

    def __init__(self, dependency, message=None, offending=None):
        self.dependency = dependency
        self.offending = offending
        if message is None:
            message = "dependency violated: {!r}".format(dependency)
        super().__init__(message)


class ConstraintViolation(ReproError):
    """The engine rejected a DML statement because a constraint would be violated."""


class KeyViolation(ConstraintViolation):
    """A primary-key or uniqueness constraint would be violated."""


class AlgebraError(ReproError):
    """An algebra expression is ill-formed (wrong arity, unknown attribute, ...)."""


class PredicateError(AlgebraError):
    """A selection predicate references attributes or values incorrectly."""


class OptimizerError(ReproError):
    """The optimizer was asked to rewrite an expression it cannot handle."""


class CatalogError(ReproError):
    """Catalog-level problem: unknown relation, duplicate registration, ..."""


class DecompositionError(ReproError):
    """A decomposition or its restoration is not applicable to the given scheme."""


class EmbeddingError(ReproError):
    """A flexible scheme cannot be translated into a variant-record type."""


class DerivationError(ReproError):
    """The axiom-system derivation engine was used incorrectly."""


class GovernorError(ReproError):
    """Base of the resource-governor taxonomy (see :mod:`repro.governor`)."""


class QueryCancelled(GovernorError):
    """The query was cancelled cooperatively at an operator boundary."""

    def __init__(self, reason: str = "query cancelled"):
        super().__init__(reason)
        self.reason = reason


class QueryTimeout(QueryCancelled):
    """A cancellation whose initiator is the clock: the deadline expired.

    Subclasses :class:`QueryCancelled` so one unwind path covers both;
    handlers that care about the distinction catch the timeout first.
    """

    def __init__(self, reason: str = "query deadline exceeded",
                 timeout: "float | None" = None):
        super().__init__(reason)
        self.timeout = timeout


class MemoryBudgetExceeded(GovernorError):
    """A stateful operator outgrew the query's memory budget and could not
    (or was not allowed to) spill."""

    def __init__(self, operator: str, held_bytes: int, budget_bytes: int):
        super().__init__(
            "operator {} holds ~{} bytes against a budget of {} bytes "
            "and cannot spill".format(operator, held_bytes, budget_bytes))
        self.operator = operator
        self.held_bytes = held_bytes
        self.budget_bytes = budget_bytes


class SpillError(GovernorError):
    """A spill segment on disk is malformed (torn write, CRC mismatch)."""
