"""repro — flexible relations with attribute dependencies.

A faithful, pure-Python implementation of

    Christian Kalus, Peter Dadam:
    "Record Subtyping in Flexible Relations by means of Attribute Dependencies",
    ICDE 1995, pp. 383-390.

The package is organized in layers:

* :mod:`repro.model`     — flexible schemes, heterogeneous tuples, flexible relations;
* :mod:`repro.core`      — attribute dependencies, axiom systems Å / Å*, closures,
  semantic implication, AD-derived subtyping, Theorem 4.3 propagation;
* :mod:`repro.types`     — record types and the traditional record-subtyping rule;
* :mod:`repro.algebra`   — the query algebra and its evaluator;
* :mod:`repro.optimizer` — AD-driven query rewrites (redundant type guards,
  excluded variants) and a statistics-aware cost model;
* :mod:`repro.stats`     — the statistics subsystem: ANALYZE, equi-depth
  histograms, NDV/min-max/presence fractions and variant-tag frequency tables,
  bundled in a versioned, mutation-invalidated catalog the planners consult;
* :mod:`repro.exec`      — the physical execution engine: batch operators
  (index-aware scans, hash joins with guard-aware partitioning, index-lookup
  joins), a physical planner lowering rewritten expressions, and a plan cache;
* :mod:`repro.engine`    — an in-memory database with catalog, keys, indexes and
  dependency enforcement on DML;
* :mod:`repro.obs`       — observability: EXPLAIN ANALYZE with per-node Q-error
  and wall time, structured lifecycle tracing, process-wide metrics and a
  slow-query log;
* :mod:`repro.er`        — enhanced-ER specializations, their mapping onto flexible
  relations, horizontal/vertical decomposition along ADs;
* :mod:`repro.embedding` — translation into variant-record types (the PASCAL
  embedding with artificial determinants);
* :mod:`repro.baselines` — NULL-padded tables, the Ahad & Basu multirelation model,
  plain record subtyping;
* :mod:`repro.workloads` — the employee and address workloads plus random generators.

The most frequently used names are re-exported here for convenience::

    from repro import FlexibleScheme, FlexTuple, Database, ad, fd, ead
"""

from repro.model import (
    Attribute,
    AttributeSet,
    FlexTuple,
    FlexibleRelation,
    FlexibleScheme,
    attrset,
)
from repro.core import (
    AttributeDependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
    ad,
    attribute_closure,
    derive,
    ead,
    fd,
    functional_closure,
    implies,
    semantically_implies,
)
from repro.engine import Database, Table, TableDefinition
from repro.exec import (
    ExecutionContext,
    PhysicalExecutor,
    PhysicalPlan,
    PhysicalPlanner,
    PlanCache,
)
from repro.obs import (
    ExplainAnalyzeReport,
    JsonTraceSink,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
    q_error,
)
from repro.stats import (
    AttributeStatistics,
    EquiDepthHistogram,
    StatisticsCatalog,
    TableStatistics,
    analyze_table,
)
from repro.storage import (
    DurabilityManager,
    FaultPlan,
    RecoveryReport,
    WALError,
    WriteAheadLog,
    crash_at_every_offset,
    record_workload,
)
from repro.types import RecordType, is_record_subtype

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeSet",
    "attrset",
    "FlexTuple",
    "FlexibleScheme",
    "FlexibleRelation",
    "AttributeDependency",
    "ExplicitAttributeDependency",
    "FunctionalDependency",
    "Variant",
    "ad",
    "fd",
    "ead",
    "attribute_closure",
    "functional_closure",
    "implies",
    "derive",
    "semantically_implies",
    "Database",
    "Table",
    "TableDefinition",
    "ExecutionContext",
    "PhysicalExecutor",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PlanCache",
    "ExplainAnalyzeReport",
    "JsonTraceSink",
    "MetricsRegistry",
    "SlowQueryLog",
    "Tracer",
    "q_error",
    "AttributeStatistics",
    "EquiDepthHistogram",
    "StatisticsCatalog",
    "TableStatistics",
    "analyze_table",
    "DurabilityManager",
    "FaultPlan",
    "RecoveryReport",
    "WALError",
    "WriteAheadLog",
    "crash_at_every_offset",
    "record_workload",
    "RecordType",
    "is_record_subtype",
    "__version__",
]
