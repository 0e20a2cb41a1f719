"""Metrics export: Prometheus text exposition and versioned JSON snapshots.

The registry's instruments map onto the Prometheus exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) as:

* :class:`~repro.obs.metrics.Counter` → a ``counter`` family named
  ``<name>_total``;
* :class:`~repro.obs.metrics.Gauge` → a ``gauge`` family (skipped while the
  gauge has never been set — Prometheus has no "no value yet" sample);
* :class:`~repro.obs.metrics.MaxGauge` → a ``gauge`` holding the observed
  maximum plus a ``<name>_observations_total`` counter;
* :class:`~repro.obs.metrics.Histogram` → a ``histogram`` family with
  cumulative ``_bucket{le="..."}`` samples (the registry stores per-bucket
  counts; the exporter accumulates), ``_sum`` and ``_count``.

Dotted registry names become underscore-separated metric names
(``queries.executed`` → ``repro_queries_executed_total``).

:func:`parse_prometheus_text` is the inverse used by the round-trip tests —
a deliberately strict parser for the subset this exporter emits, so a
formatting bug fails loudly instead of producing silently unscrapable output.
"""

import json
import math
import re
from typing import Dict, List, Optional

from .metrics import Counter, Gauge, Histogram, MaxGauge, MetricsRegistry

__all__ = ["prometheus_text", "parse_prometheus_text", "json_snapshot",
           "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

#: identifies the JSON snapshot schema so downstream consumers can dispatch
SNAPSHOT_FORMAT = "repro-metrics"
#: bumped whenever the snapshot layout changes incompatibly
SNAPSHOT_VERSION = 1

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$")

_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')


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
        elif isinstance(instrument, Gauge):
            if instrument.value is not None:
                lines.append("# TYPE {} gauge".format(metric))
                lines.append("{} {}".format(metric,
                                            _format_value(instrument.value)))
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


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse an exposition back into ``{family: {"type", "samples"}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)`` triples.
    Raises ``ValueError`` on any line the exporter could not have produced.
    """
    families: Dict[str, Dict[str, object]] = {}
    current: Optional[Dict[str, object]] = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError("malformed TYPE line: {!r}".format(line))
            _hash, _type, family, kind = parts
            current = families.setdefault(family,
                                          {"type": kind, "samples": []})
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError("malformed sample line: {!r}".format(line))
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for part in match.group("labels").split(","):
                label = _LABEL.match(part)
                if label is None:
                    raise ValueError("malformed label in {!r}".format(line))
                labels[label.group("key")] = label.group("value")
        sample_name = match.group("name")
        value = _parse_value(match.group("value"))
        family = _family_of(sample_name, families)
        if family is None:
            raise ValueError(
                "sample {!r} precedes its TYPE line".format(sample_name))
        families[family]["samples"].append((sample_name, labels, value))
    return families


def _family_of(sample_name: str,
               families: Dict[str, Dict[str, object]]) -> Optional[str]:
    """The declared family a sample belongs to (longest matching prefix)."""
    best = None
    for family in families:
        if sample_name == family or (
                sample_name.startswith(family)
                and sample_name[len(family)] == "_"):
            if best is None or len(family) > len(best):
                best = family
    return best


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


def dumps_snapshot(registry: MetricsRegistry, **kwargs) -> str:
    """``json_snapshot`` rendered as a JSON string (``inf`` → ``"inf"``)."""
    def _default(value):
        return repr(value)
    return json.dumps(json_snapshot(registry, **kwargs), default=_default)
