"""Physical execution engine for the flexible-relation algebra.

The logical layer (:mod:`repro.algebra`) defines *what* a query means; this
package decides *how* to run it:

* :mod:`repro.exec.operators` — the physical operators, one class per
  operator, streaming column-oriented :class:`~repro.model.batches.TupleBatch`
  chunks: index-aware :class:`Scan` with pushed-down selections and type
  guards, :class:`HashJoin` with guard-aware partitioning for variant records
  and lazy column-merged output (:class:`~repro.model.batches.LazyBatch`),
  streaming unions and difference, and physical forms of every remaining
  algebra operator;
* :mod:`repro.exec.compiled` — selections, type guards, extensions, renames
  and aggregates compiled once per plan node into closures over column arrays;
* :mod:`repro.exec.planner`  — the :class:`PhysicalPlanner` lowering (rewritten)
  logical expression trees into :class:`PhysicalPlan` objects, choosing join
  algorithms from the cost model;
* :mod:`repro.exec.executor` — the :class:`PhysicalExecutor` with its LRU
  :class:`PlanCache` keyed on (expression structure, catalog version);
* :mod:`repro.exec.context`  — the :class:`ExecutionContext` carrying the
  evaluator-compatible global work counters plus a per-operator breakdown.

The naive set evaluator in :mod:`repro.algebra.evaluator` remains the reference
implementation; ``tests/test_exec_parity.py`` differentially checks that both
produce identical results.
"""

from repro.exec.compiled import (
    CompiledAggregates,
    CompiledExtension,
    CompiledGuard,
    CompiledPredicate,
    CompiledRename,
)
from repro.exec.context import (
    DEFAULT_BATCH_SIZE,
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    TARGET_BATCH_CELLS,
    ExecutionContext,
    OperatorStats,
    adaptive_batch_size,
)
from repro.exec.executor import PhysicalExecutor, PlanCache
from repro.exec.operators import (
    DifferenceOp,
    EmptyOp,
    ExtendOp,
    FilterOp,
    GuardOp,
    HashAggregateOp,
    HashJoin,
    IndexLookupJoin,
    MergeUnion,
    MultiwayJoinOp,
    NaturalJoinOp,
    NestedLoopJoin,
    OuterUnionOp,
    PhysicalOperator,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
    TopKOp,
)
from repro.exec.planner import (
    PhysicalPlan,
    PhysicalPlanner,
    PhysicalResult,
)
from repro.obs.feedback import expression_key

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MAX_BATCH_SIZE",
    "MIN_BATCH_SIZE",
    "TARGET_BATCH_CELLS",
    "adaptive_batch_size",
    "CompiledAggregates",
    "CompiledExtension",
    "CompiledGuard",
    "CompiledPredicate",
    "CompiledRename",
    "ExecutionContext",
    "OperatorStats",
    "PhysicalExecutor",
    "PlanCache",
    "PhysicalOperator",
    "Scan",
    "EmptyOp",
    "FilterOp",
    "GuardOp",
    "ProjectOp",
    "ExtendOp",
    "RenameOp",
    "ProductOp",
    "NestedLoopJoin",
    "NaturalJoinOp",
    "HashJoin",
    "IndexLookupJoin",
    "MergeUnion",
    "OuterUnionOp",
    "DifferenceOp",
    "MultiwayJoinOp",
    "HashAggregateOp",
    "SortOp",
    "TopKOp",
    "SubqueryExtendOp",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PhysicalResult",
    "expression_key",
]
