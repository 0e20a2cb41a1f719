"""Metrics export: Prometheus text exposition and versioned JSON snapshots.

The registry's instruments map onto the Prometheus exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) as:

* :class:`~repro.obs.metrics.Counter` → a ``counter`` family named
  ``<name>_total``;
* :class:`~repro.obs.metrics.MaxGauge` → a ``gauge`` holding the observed
  maximum (skipped while nothing was observed — Prometheus has no "no value
  yet" sample) plus a ``<name>_observations_total`` counter;
* :class:`~repro.obs.metrics.Histogram` → a ``histogram`` family with
  cumulative ``_bucket{le="..."}`` samples (the registry stores per-bucket
  counts; the exporter accumulates), ``_sum`` and ``_count``.

Dotted registry names become underscore-separated metric names
(``queries.executed`` → ``repro_queries_executed_total``).
"""

import math
import re
from typing import List, Optional

from .metrics import Counter, Histogram, MaxGauge, MetricsRegistry

__all__ = ["prometheus_text", "json_snapshot", "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

#: identifies the JSON snapshot schema so downstream consumers can dispatch
SNAPSHOT_FORMAT = "repro-metrics"
#: bumped whenever the snapshot layout changes incompatibly
SNAPSHOT_VERSION = 1

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    flattened = _NAME_SANITIZER.sub("_", name)
    return "{}_{}".format(prefix, flattened) if prefix else flattened


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """The registry rendered in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in registry.names():
        instrument = registry._instruments[name]
        metric = _metric_name(name, prefix)
        if isinstance(instrument, Counter):
            lines.append("# TYPE {}_total counter".format(metric))
            lines.append("{}_total {}".format(metric,
                                              _format_value(instrument.value)))
        elif isinstance(instrument, MaxGauge):
            if instrument.value is not None:
                lines.append("# TYPE {} gauge".format(metric))
                lines.append("{} {}".format(metric,
                                            _format_value(instrument.value)))
            lines.append("# TYPE {}_observations_total counter".format(metric))
            lines.append("{}_observations_total {}".format(
                metric, _format_value(instrument.count)))
        elif isinstance(instrument, Histogram):
            lines.append("# TYPE {} histogram".format(metric))
            cumulative = 0
            for bound, count in zip(instrument.bounds,
                                    instrument.bucket_counts):
                cumulative += count
                lines.append('{}_bucket{{le="{}"}} {}'.format(
                    metric, _format_value(bound), _format_value(cumulative)))
            lines.append('{}_bucket{{le="+Inf"}} {}'.format(
                metric, _format_value(instrument.count)))
            lines.append("{}_sum {}".format(metric,
                                            _format_value(instrument.sum)))
            lines.append("{}_count {}".format(metric,
                                              _format_value(instrument.count)))
    return "\n".join(lines) + "\n" if lines else ""


def json_snapshot(registry: MetricsRegistry, extra: Optional[dict] = None) -> dict:
    """A versioned, JSON-serializable snapshot of every instrument.

    The envelope carries a format tag and version so long-lived consumers
    (dashboards, the benchmark reporting layer) can detect schema drift;
    ``extra`` merges additional engine-level sections (plan cache, slow
    queries) into the envelope without touching the metrics namespace.
    """
    snapshot = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "metrics": registry.snapshot(),
        "types": {name: type(registry._instruments[name]).__name__
                  for name in registry.names()},
    }
    if extra:
        for key, value in extra.items():
            snapshot[key] = value
    return snapshot

