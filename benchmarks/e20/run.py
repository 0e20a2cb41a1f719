"""E20 — the standing end-to-end and per-layer benchmark.

One workload, one run (what the driver calls; see ``BENCHMARK.json``)::

    python3 benchmarks/e20/run.py --workload oltp_durable --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace 1``
wraps the layers' public callables (``trace.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, untraced and then traced, each in its own fresh process::

    python3 benchmarks/e20/run.py --seed 1

``--repeat K`` runs the untraced set K times on K seeds and prints, per
workload and end-to-end metric, median, range ÷ median and IQR ÷ median next
to the bound (``results/noise.json``).

The engine is an embedded single-threaded library, so the load is a closed
loop with one client: the next operation is sent when the previous returned.
"""

from time import perf_counter, process_time

_PROCESS_START = perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
#: the whole set-up runs at least this often in one run — and on, up to the
#: maximum, while it has taken less than the budget in all; ``setup_s`` is the
#: median
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_BUDGET_S = 2.0
WORKLOADS = ("oltp_durable", "bulk_ingest", "analytic_scan", "join_plan")
SLOT_METRICS = ("op1_p50_us", "op2_p50_us", "op3_p50_us", "op4_p50_us")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_class(name):
    """Import the engine and the workload; the imports are part of set-up."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import analytic_scan
    import bulk_ingest
    import join_plan
    import oltp_durable

    return {"oltp_durable": oltp_durable.OltpDurable,
            "bulk_ingest": bulk_ingest.BulkIngest,
            "analytic_scan": analytic_scan.AnalyticScan,
            "join_plan": join_plan.JoinPlan}[name]


# -- one workload, one run ---------------------------------------------------------------


def run_workload(name, seed, seconds, scale, traced):
    """Set up, run and verify one workload in this process; returns the
    result object of the driver's contract plus what the report prints."""
    import harness

    before = harness.burst_ms()
    factory = workload_class(name)
    import layers
    from trace import SpanTracer

    imported = perf_counter() - _PROCESS_START
    import_s = harness.at_reference_speed(process_time(), before, harness.burst_ms())
    workdir = os.path.join(RESULTS, "tmp-{}".format(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    workload = factory(seed, seconds, scale, workdir)
    try:
        calibration = [harness.calibration_ms()]
        setups, setup_walls = [], []
        while (len(setups) < SETUP_REPEATS
               or (len(setups) < SETUP_REPEATS_MAX and sum(setups) < SETUP_BUDGET_S)):
            workload.teardown()
            before = harness.burst_ms()
            started, cpu_started = perf_counter(), process_time()
            workload.setup()
            elapsed, cpu = perf_counter() - started, process_time() - cpu_started
            setups.append(harness.at_reference_speed(cpu, before, harness.burst_ms()))
            setup_walls.append(elapsed)
        rec = harness.Recorder()
        tracer = SpanTracer() if traced else None
        if traced:
            rec.trace_with(tracer)
        harness.fence()
        clock = [perf_counter()]
        try:
            workload.run(rec)
        finally:
            rec.stop_tracing()
        rec.finish()
        clock.append(perf_counter())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.verify(rec)
        clock.append(perf_counter())
        calibration.append(harness.calibration_ms())
        report = {
            "workload": name, "seed": seed, "trace": int(traced),
            "input_digest": harness.digest(*workload.inputs()),
            "slots": dict(zip(SLOT_METRICS, workload.SLOTS)),
            "table": rec.table(), "failures": rec.failures,
            "calibration_ms": calibration,
            "burst_ms": statistics.median(rec.bursts),
            "wall_s": {"import": imported, "setups": setup_walls,
                       "timed": clock[1] - clock[0], "verify": clock[2] - clock[1]},
        }
        if traced:
            summary = tracer.summarize()
            tracer.dump(os.path.join(RESULTS, "spans-{}.jsonl".format(name)))
            metrics = layers.per_layer_metrics(workload, rec, summary, workload.delta)
            metrics.update(workload.layer_counters(rec, summary))
            metrics.update({
                "trace.overhead_share": rec.overhead_share(),
                "trace.unattributed_share": summary.unattributed_share(),
                "trace.unresolved_targets": len(tracer.unresolved),
                "trace.spans": summary.span_count,
                "host.calibration_ms": statistics.mean(calibration),
            })
            report["layer_shares"] = {"(all)": summary.self_share_by_layer()}
            for operation_class in sorted(summary.root_ns):
                report["layer_shares"][operation_class] = (
                    summary.self_share_by_layer((operation_class,)))
        else:
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "ops_per_s": workload.ops_per_s(rec),
            }
            for metric, operation_class in zip(SLOT_METRICS, workload.SLOTS):
                metrics[metric] = workload.slot_us(rec, operation_class)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    return result, report


def shape(metrics, declared):
    """The metrics in the contract's order with its units.  A per-layer metric
    this run had no work for reads 0; a metric the contract does not name is
    a bug in the harness."""
    unknown = sorted(set(metrics) - {entry["name"] for entry in declared})
    if unknown:
        raise SystemExit("metrics missing from BENCHMARK.json: {}".format(unknown))
    return {entry["name"]: {"value": metrics.get(entry["name"], 0.0),
                            "unit": entry["unit"]} for entry in declared}


def single(args):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes decide set iteration order, and with it plan choices
        # and counts; pin them so the same seed repeats exactly.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    declared = contract()["per_layer" if args.trace else "end_to_end"]
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  args.scale, bool(args.trace))
    result["metrics"] = shape(result["metrics"], declared)
    print("workload={workload} seed={seed} trace={trace} "
          "input_digest={input_digest}".format(**report))
    print("ops_attempted={} ops_failed={}".format(result["attempted"], result["failed"]))
    for failure in report["failures"]:
        print("  FAILED: " + failure)
    print("\n".join(report["table"]))
    for name, entry in result["metrics"].items():
        slot = report["slots"].get(name)
        print("  {:<42} {:>16.4f} {}{}".format(
            name, entry["value"], entry["unit"],
            "  ({})".format(slot) if slot else ""))
    print("  wall: import {import:.2f} s, set-ups {0} s, timed phase {timed:.2f} s, "
          "verification {verify:.2f} s".format(
              " ".join("{:.2f}".format(value) for value in report["wall_s"]["setups"]),
              **report["wall_s"]))
    before, after = report["calibration_ms"]
    drift = abs(after - before) / before
    print("  host calibration {:.2f} ms before, {:.2f} ms after{}; median burst "
          "{:.2f} ms".format(before, after,
                             "  NOISY HOST (drift > 10%)" if drift > 0.10 else "",
                             report["burst_ms"]))
    for operation_class, shares in report.get("layer_shares", {}).items():
        print("  self-time share of {:<16} {}".format(operation_class, "  ".join(
            "{}={:.0%}".format(layer, share) for layer, share
            in sorted(shares.items(), key=lambda item: -item[1]) if share >= 0.005)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in its own process ------------------------------------------------


def child(name, seed, args, traced):
    """Run one workload in a fresh process; echo its report, parse its result."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(int(traced))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = done.stdout.strip().splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    result["input_digest"] = lines[0].rsplit("input_digest=", 1)[-1]
    return result


def full(args):
    failed = []
    for name in WORKLOADS:
        untraced = child(name, args.seed, args, traced=False)
        traced = child(name, args.seed, args, traced=True)
        for label, result in (("untraced", untraced), ("traced", traced)):
            if result is None or not result["correct"]:
                failed.append("{} ({})".format(name, label))
        if untraced and traced and untraced["input_digest"] != traced["input_digest"]:
            failed.append("{} (input digests differ)".format(name))
    if failed:
        print("FAILED: " + ", ".join(failed))
    return 1 if failed else 0


def noise(args):
    """K untraced runs per workload on K seeds; the table that sets the bounds."""
    bounds = {entry["name"]: entry["bound"] for entry in contract()["end_to_end"]}
    table, failed = {}, False
    for name in WORKLOADS:
        runs = [child(name, args.seed + i, args, traced=False)
                for i in range(args.repeat)]
        if any(run is None or not run["correct"] for run in runs):
            failed = True
            continue
        table[name] = {}
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            median = statistics.median(values)
            quartiles = statistics.quantiles(values, n=4)
            table[name][metric] = {
                "values": values, "median": median, "bound": bound,
                "range_over_median": (max(values) - min(values)) / median,
                "iqr_over_median": (quartiles[2] - quartiles[0]) / median,
            }
    print("\n{:<14} {:<12} {:>14} {:>8} {:>8} {:>6}".format(
        "workload", "metric", "median", "range", "IQR", "bound"))
    for name, metrics in table.items():
        for metric, row in metrics.items():
            print("{:<14} {:<12} {:>14.3f} {:>8.1%} {:>8.1%} {:>6.0%}".format(
                name, metric, row["median"], row["range_over_median"],
                row["iqr_over_median"], row["bound"]))
    with open(os.path.join(RESULTS, "noise.json"), "w") as handle:
        json.dump({"seconds": args.seconds, "scale": args.scale,
                   "first_seed": args.seed, "repeat": args.repeat,
                   "workloads": table}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink tables and operation counts (smoke runs)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="noise mode: this many untraced runs per workload")
    args = parser.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload:
        return single(args)
    if args.repeat:
        return noise(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
