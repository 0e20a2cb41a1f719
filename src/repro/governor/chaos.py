"""Cancellation chaos harness, sibling of ``storage.faults.crash_at_every_offset``.

``cancel_at_every_boundary`` runs each corpus expression once with a counting
token to learn how many operator boundaries the plan passes, then replays it
with the chaos hook arming every boundary in turn.  Each injection must:

* raise ``QueryCancelled`` (the boundary really cancels),
* leave no open WAL transaction and an unchanged feedback-store version,
* leave no spill temp files behind (when a spill directory is configured),
* count exactly one ``queries.cancelled`` and zero ``queries.executed``,

and after the sweep a clean re-execution must reproduce the baseline result
set exactly — the "recovery replays to the same state" assertion of the
crash harness, transplanted to the execution path.
"""

import os
from typing import Dict, Optional, Sequence

from repro.errors import GovernorError, QueryCancelled
from repro.governor.cancel import CancelToken

__all__ = ["ChaosError", "cancel_at_every_boundary"]


class ChaosError(GovernorError):
    """An invariant the cancellation sweep guarantees was violated."""


def _counter(database, name: str) -> int:
    snapshot = database.metrics_registry.counter(name)
    return snapshot.value


def cancel_at_every_boundary(database, expressions: Sequence,
                             batch_size: Optional[int] = None,
                             stride: int = 1,
                             spill_root: Optional[str] = None) -> Dict[str, int]:
    """Sweep cancellation across every operator boundary of every expression.

    Returns a summary dict (expressions swept, boundaries injected) so test
    output shows the coverage; raises :class:`ChaosError` on the first
    violated invariant.  ``stride`` thins the sweep for large corpora the
    way the crash harness's ``stride`` does.  ``spill_root`` is the
    database's configured spill directory, asserted empty after every
    injection.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    summary = {"expressions": 0, "boundaries": 0, "injections": 0}
    for expression in expressions:
        baseline_token = CancelToken()
        baseline = database.execute(expression, batch_size=batch_size,
                                    cancel_token=baseline_token)
        expected = set(baseline.tuples)
        boundaries = baseline_token.checks
        if boundaries == 0:
            raise ChaosError(
                "no cancellation boundaries observed for {!r} — the governed "
                "stream wrapper is not installed".format(expression))
        for boundary in range(0, boundaries, stride):
            feedback_version = database.cardinality_feedback.version
            executed_before = _counter(database, "queries.executed")
            cancelled_before = _counter(database, "queries.cancelled")
            token = CancelToken(fire_after_checks=boundary)
            try:
                database.execute(expression, batch_size=batch_size,
                                 cancel_token=token)
            except QueryCancelled:
                pass
            else:
                raise ChaosError(
                    "boundary {} of {!r} did not cancel".format(
                        boundary, expression))
            if database.durability is not None and database.durability.in_transaction:
                raise ChaosError(
                    "boundary {} of {!r} leaked an open WAL transaction".format(
                        boundary, expression))
            if database.cardinality_feedback.version != feedback_version:
                raise ChaosError(
                    "boundary {} of {!r} mutated the feedback store".format(
                        boundary, expression))
            if _counter(database, "queries.executed") != executed_before:
                raise ChaosError(
                    "boundary {} of {!r} counted a cancelled query as "
                    "executed".format(boundary, expression))
            if _counter(database, "queries.cancelled") != cancelled_before + 1:
                raise ChaosError(
                    "boundary {} of {!r} did not count exactly one "
                    "cancellation".format(boundary, expression))
            if spill_root is not None and os.path.isdir(spill_root) \
                    and os.listdir(spill_root):
                raise ChaosError(
                    "boundary {} of {!r} leaked spill files: {}".format(
                        boundary, expression, os.listdir(spill_root)))
            summary["injections"] += 1
        rerun = database.execute(expression, batch_size=batch_size)
        if set(rerun.tuples) != expected:
            raise ChaosError(
                "re-execution of {!r} after the cancellation sweep diverged "
                "from the baseline".format(expression))
        summary["expressions"] += 1
        summary["boundaries"] += boundaries
    return summary
