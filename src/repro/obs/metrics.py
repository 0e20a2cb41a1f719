"""Process-wide metrics: counters, gauges, histograms, Q-error, slow queries.

A :class:`MetricsRegistry` lives on every :class:`~repro.engine.Database` and
aggregates across queries: how many ran, how many rows were scanned and
joined, how the plan cache is doing, which batch sizes the adaptive sizing
picked, the per-query latency distribution, and — the feedback signal ROADMAP
item 4 (adaptive re-optimization) is built on — the worst observed *Q-error*
per plan-node kind.

Q-error is the standard estimate-quality measure from the cardinality
estimation literature: ``max(est/actual, actual/est)``, i.e. the factor by
which the optimizer's row estimate was off, symmetric in direction.  A
Q-error of 1.0 is a perfect estimate; 100 means two orders of magnitude off
(in either direction).  Edge cases are pinned down by :func:`q_error` and
tested in ``tests/test_observability.py``.

Everything here is plain arithmetic on a handful of dicts — no locks, no
clock reads (latency observations are *handed in* by the caller), no
per-tuple work — so the registry can stay always-on without showing up in the
E15 overhead gate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple


def q_error(estimated: Optional[float], actual: float) -> Optional[float]:
    """The Q-error ``max(est/actual, actual/est)`` of a cardinality estimate.

    * ``estimated is None`` (the planner had no estimate) → ``None``;
    * both zero → ``1.0`` (predicting an empty result that was empty is perfect);
    * exactly one of them zero → ``inf`` (no finite factor relates 0 and n>0);
    * otherwise the symmetric ratio, always ≥ 1.0.
    """
    if estimated is None:
        return None
    est = float(estimated)
    act = float(actual)
    if est == 0.0 and act == 0.0:
        return 1.0
    if est <= 0.0 or act <= 0.0:
        return math.inf
    return max(est / act, act / est)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self):
        return self.value


class MaxGauge:
    """Tracks the maximum value observed (e.g. worst Q-error per node kind)."""

    __slots__ = ("value", "count")

    def __init__(self):
        self.value: Optional[float] = None
        self.count = 0

    def observe(self, value: Optional[float]) -> None:
        if value is None:
            return
        self.count += 1
        if self.value is None or value > self.value:
            self.value = value

    def as_dict(self):
        return {"max": self.value, "observations": self.count}


#: histogram bucket upper bounds for per-query latency, in seconds
LATENCY_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
                   5.0, 30.0)

#: histogram bucket upper bounds for chosen batch sizes, in tuples
BATCH_SIZE_BUCKETS = (16, 64, 256, 1024, 4096, 16384, 65536)

#: histogram bucket upper bounds for per-query peak operator memory, in bytes
#: (1KiB … 256MiB in factor-4 steps; above that the overflow bucket catches it)
MEMORY_BUCKETS = (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
                  1 << 22, 1 << 24, 1 << 26, 1 << 28)

#: seconds at or above which a query enters a database's slow-query log
SLOW_QUERY_SECONDS = 1.0


class Histogram:
    """Fixed-bound bucketed distribution with count/sum/min/max.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the implicit
    final bucket (``bucket_counts[len(bounds)]``) is the +inf overflow.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum",
                 "maximum")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        # the first bound the value does not exceed; NaN exceeds none and
        # is below none: the overflow bucket
        self.bucket_counts[bisect_left(self.bounds, value)
                           if value == value else -1] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @property
    def sum(self) -> float:
        """The running sum of observations — the Prometheus ``_sum`` series."""
        return self.total

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper bound of the bucket holding rank q.

        Overflow-bucket hits report the observed maximum (the only finite
        upper bound available for them).
        """
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.maximum
        return self.maximum

    def as_dict(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": {
                **{str(bound): self.bucket_counts[i]
                   for i, bound in enumerate(self.bounds)},
                "inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with a JSON-friendly snapshot.

    Instruments are created on first use (``registry.counter("queries.executed")``)
    and keyed by dotted name; asking for an existing name returns the same
    instrument, asking for it with a different type raises.  A caller that
    holds instruments holds them for one :attr:`generation`: :meth:`reset`
    drops every instrument and starts the next.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self.generation = 0

    def _get(self, name: str, cls, factory=None):
        """The instrument registered under ``name``, created on first use.

        ``cls`` is the expected instrument class; a request that reaches an
        existing instrument of a different class is a programming error and
        raises ``TypeError`` naming both kinds (silently returning the wrong
        instrument would corrupt whichever series asked second).
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = (factory or cls)()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                "metric {!r} is already registered as {}, cannot reopen it "
                "as {}".format(name, type(instrument).__name__, cls.__name__))
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def max_gauge(self, name: str) -> MaxGauge:
        return self._get(name, MaxGauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(bounds))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value, keyed by name, JSON-serializable."""
        return {name: instrument.as_dict()
                for name, instrument in sorted(self._instruments.items())}

    def reset(self) -> None:
        self._instruments.clear()
        self.generation += 1

    def __repr__(self) -> str:
        return "MetricsRegistry({} instruments)".format(len(self._instruments))


class SlowQueryEntry:
    """One slow-query-log record (see :class:`SlowQueryLog`)."""

    __slots__ = ("expression", "seconds", "rows", "q_error_nodes", "note")

    def __init__(self, expression: str, seconds: float, rows: int,
                 q_error_nodes: List[Tuple[str, Optional[float]]],
                 note: Optional[str] = None):
        self.expression = expression
        self.seconds = seconds
        self.rows = rows
        #: top (worst-first) ``(operator label, q_error)`` pairs of the plan
        self.q_error_nodes = q_error_nodes
        #: why the entry exists beyond raw latency (e.g. a plan regression)
        self.note = note

    def as_dict(self) -> Dict[str, object]:
        payload = {
            "expression": self.expression,
            "seconds": self.seconds,
            "rows": self.rows,
            "q_error_nodes": [
                {"operator": label, "q_error": value}
                for label, value in self.q_error_nodes
            ],
        }
        if self.note is not None:
            payload["note"] = self.note
        return payload

    def __repr__(self) -> str:
        return "SlowQueryEntry({:.4f}s, {})".format(
            self.seconds, self.expression)


class SlowQueryLog:
    """Bounded log of queries slower than a configurable threshold.

    ``threshold`` is in seconds; queries at or above it are recorded with
    their expression, latency, row count, and the top-3 worst
    Q-error plan nodes — the diagnostic trail for "why was this slow":
    usually a mis-estimate upstream of a bad join choice.  The log keeps the
    most recent ``capacity`` entries; ``total`` counts every slow query ever
    seen, including evicted ones.
    """

    def __init__(self, threshold: float = SLOW_QUERY_SECONDS, capacity: int = 32):
        self.threshold = float(threshold)
        self.capacity = int(capacity)
        self._entries: Deque[SlowQueryEntry] = deque(maxlen=self.capacity)
        self.total = 0

    def observe(self, expression: str, seconds: float, rows: int,
                q_error_nodes: Sequence[Tuple[str, Optional[float]]]) -> Optional[SlowQueryEntry]:
        """Record the query if it crossed the threshold; returns the entry."""
        if seconds < self.threshold:
            return None
        return self.record(expression, seconds, rows, q_error_nodes)

    def record(self, expression: str, seconds: float, rows: int,
               q_error_nodes: Sequence[Tuple[str, Optional[float]]] = (),
               note: Optional[str] = None) -> SlowQueryEntry:
        """Record unconditionally — used by the plan-regression watchdog,
        whose entries matter regardless of the latency threshold."""
        ranked = sorted(
            (pair for pair in q_error_nodes if pair[1] is not None),
            key=lambda pair: pair[1], reverse=True)[:3]
        entry = SlowQueryEntry(expression, seconds, rows, list(ranked),
                               note=note)
        self._entries.append(entry)
        self.total += 1
        return entry

    def entries(self) -> List[SlowQueryEntry]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.total = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "total": self.total,
            "entries": [entry.as_dict() for entry in self._entries],
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return "SlowQueryLog(threshold={}, kept={}, total={})".format(
            self.threshold, len(self._entries), self.total)
