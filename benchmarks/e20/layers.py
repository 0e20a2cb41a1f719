"""The per-layer metrics of a traced run, by name.

Three sources: span self times from :class:`trace.TraceSummary`, the latency
samples of the recorder, and counters the workload read from the engine's
public counters and the counting WAL file.  Every workload reports every name
in ``BENCHMARK.json``; a layer that did no work in a workload — or a target
that no longer exists — reads 0 there.

Span formulas (the classes come from the workload's ``ROLES``):

``per_root``   Σ self time ÷ root operations of the role in which the span
               occurred (so a layer a class never enters does not dilute it)
``per_unit``   Σ self time ÷ rows the role's operations wrote
``per_span``   Σ self time ÷ calls of the span
``whole``      Σ inclusive time ÷ calls of the span (a phase timed as a
               whole: its child spans are the work it exists to do)
"""

import statistics

US, MS, S = 1e3, 1e6, 1e9

#: metric -> (formula, span names, role or None for every class, ns per unit)
SPAN_METRICS = {
    "query.parse_us_per_call": ("per_root", ("query.parse",), "call", US),
    "optimizer.rewrite_us_per_call": ("per_root", ("optimizer.rewrite",), "call", US),
    "optimizer.joinorder_us_per_miss": ("per_root", ("optimizer.joinorder",), None, US),
    "obs.expression_key_us_per_call": ("per_root", ("obs.expression_key",), "call", US),
    "exec.plan_us_per_call": ("per_root", ("exec.plan",), "call", US),
    "exec.plan_us_per_miss": ("per_root", ("exec.plan",), "miss", US),
    "exec.execute_us_per_call": ("per_root", ("exec.execute",), "call", US),
    "model.tuple_build_us_per_row": ("per_unit", ("model.tuple_build",), "write", US),
    "model.admits_us_per_row": ("per_unit", ("model.admits",), "write", US),
    "model.batch_pivot_us_per_query": ("per_root", ("model.batch_pivot",), None, US),
    "core.ead_check_us_per_row": ("per_unit", ("core.ead_check",), "write", US),
    "engine.check_shape_us_per_row": ("per_unit", ("engine.check_shape",), "write", US),
    "engine.key_check_us_per_row": ("per_unit", ("engine.key_check",), "write", US),
    "engine.check_insert_self_us_per_row":
        ("per_unit", ("engine.check_insert",), "write", US),
    "engine.index_upkeep_us_per_row": ("per_unit", ("engine.index_upkeep",), "write", US),
    "engine.insert_self_us_per_row": ("per_unit", ("engine.insert",), "write", US),
    "engine.txn_snapshot_us_per_txn": ("per_root", ("engine.txn_snapshot",), "txn", US),
    "engine.serialize_s_per_checkpoint": ("whole", ("engine.serialize",), None, S),
    "engine.populate_s_per_reopen": ("whole", ("engine.populate",), None, S),
    "engine.query_self_us_per_call": ("per_root", ("engine.query",), "call", US),
    "stats.note_mutation_us_per_row": ("per_unit", ("stats.note_mutation",), "write", US),
    "storage.log_mutation_us_per_op": ("per_span", ("storage.log_mutation",), None, US),
    "storage.fsync_us_per_call": ("per_span", ("storage.fsync",), None, US),
    "storage.checkpoint_write_s": ("per_span", ("storage.checkpoint_write",), None, S),
    "storage.recovery_load_snapshot_s":
        ("whole", ("storage.recovery_load_snapshot",), None, S),
    "storage.recovery_read_wal_s": ("whole", ("storage.recovery_read_wal",), None, S),
    "storage.recovery_verify_s": ("whole", ("storage.recovery_verify",), None, S),
}

#: metric -> (statistic, operation class, ns per unit); taken from the traced
#: run's own samples, so they carry ``trace.overhead_share``
SAMPLE_METRICS = {
    "exec.chain_p50_ms": ("p50", "chain", MS),
    "exec.sort_p50_ms": ("p50", "sort", MS),
    "exec.star_text_p50_ms": ("p50", "star_text", MS),
    "exec.stranded_query_p50_us": ("p50", "stranded_query", US),
    "exec.join_p99_ms": ("p99", "star", MS),
    "engine.update_p50_us": ("p50", "update", US),
    "engine.delete_p50_us": ("p50", "delete", US),
    "engine.insert_p99_us": ("p99", "insert", US),
    "engine.txn_insert_p99_us": ("p99", "txn_insert", US),
    "engine.point_read_p99_us": ("p99", "point_read", US),
    "governor.agg_spill_p50_ms": ("p50", "agg_spill", MS),
}

#: metric -> the classes whose ``exec.execute`` self time is divided by the
#: rows those operations scanned
EXECUTE_PER_ROW = {
    "exec.scan_execute_ns_per_row": ("scan", "filter_value", "filter_variant", "guard"),
    "exec.agg_execute_ns_per_row": ("agg_low", "agg_high"),
    "exec.topk_execute_ns_per_row": ("topk",),
    "exec.join_execute_ns_per_row": ("star", "chain"),
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(workload, rec, summary, delta):
    """Every per-layer metric this harness knows, for one traced run.

    ``delta`` is the change of the engine's public counters over the timed
    phase (see :func:`harness.engine_counters`)."""
    roles = workload.ROLES
    metrics = {}
    for name, (formula, spans, role, scale) in SPAN_METRICS.items():
        classes = None if role is None else roles[role]
        self_ns, whole_ns, calls, roots = summary.total(spans, classes)
        if formula == "per_root":
            value = _ratio(self_ns, roots)
        elif formula == "per_unit":
            value = _ratio(self_ns, traced_units(rec, classes))
        elif formula == "per_span":
            value = _ratio(self_ns, calls)
        else:
            value = _ratio(whole_ns, calls)
        metrics[name] = value / scale
    for name, (statistic, operation_class, scale) in SAMPLE_METRICS.items():
        value = (rec.p50_us(operation_class, raw=True) if statistic == "p50"
                 else rec.percentile_us(operation_class, 99))
        metrics[name] = value * US / scale
    for name, classes in EXECUTE_PER_ROW.items():
        self_ns = summary.total(("exec.execute",), classes)[0]
        metrics[name] = _ratio(self_ns, traced_scanned(rec, classes))

    # WAL append: append/commit/sync self time (the fsync is its own span).
    self_ns = summary.total(("storage.wal_append",))[0]
    metrics["storage.wal_append_us_per_record"] = _ratio(
        self_ns, delta.get("wal.records", 0)) / US
    # ANALYZE is charged whole: its children are the point of it.
    whole_ns = summary.total(("stats.analyze",))[1]
    metrics["stats.analyze_us_per_row"] = _ratio(
        whole_ns, rec.units(("analyze",))) / US
    # The foreground operations that ran into an automatic checkpoint.
    stalls = [duration for (name, operation_class), durations
              in summary.root_ns_with.items()
              if name == "storage.checkpoint" and operation_class != "checkpoint"
              for duration in durations]
    metrics["storage.checkpoint_stall_ms_p50"] = (
        statistics.median(stalls) / MS if stalls else 0.0)

    lookups = roles["lookup"]
    metrics["exec.rows_scanned_per_result_row"] = _ratio(
        sum(rec.scanned[name] for name in lookups),
        sum(rec.produced[name] for name in lookups))
    hits, misses = delta.get("plan_cache.hits", 0), delta.get("plan_cache.misses", 0)
    metrics["exec.plan_cache_hit_share"] = _ratio(hits, hits + misses)
    metrics["exec.plan_cache_evictions"] = max(
        0, misses - delta.get("plan_cache.size", 0))
    metrics["optimizer.join_pairs_per_query"] = _ratio(
        delta.get("rows.joined", 0), delta.get("queries.executed", 0))
    metrics["stats.version_bumps"] = delta.get("statistics.version", 0)
    return metrics


def traced_units(rec, classes):
    """Work units of the operations that ran after tracing started."""
    total = 0
    for name, units in rec.unit_samples.items():
        if classes is None or name in classes:
            total += sum(units[rec.reference_count(name):])
    return total


def traced_scanned(rec, classes):
    """Rows scanned by ``classes``, scaled to the traced part of the run (the
    engine's scan counter covers the untraced reference slice too)."""
    total = 0.0
    for name in classes:
        samples = len(rec.samples.get(name, ()))
        if samples:
            traced = samples - rec.reference_count(name)
            total += rec.scanned[name] * traced / samples
    return total
