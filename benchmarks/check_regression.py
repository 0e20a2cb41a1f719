"""Bench-regression gate: compare BENCH_*.json speedup ratios against baselines.

The tracked benchmarks emit machine-readable reports whose ``speedup`` column
is a *ratio* of two measurements of the same run — a machine-independent
number that is stable across CI runners, unlike absolute seconds.  This script reads the freshly produced reports and the committed
baselines (``benchmarks/results/`` at the tested commit) and fails when any
tracked ratio drops more than ``--tolerance`` (default 20%) below its
baseline::

    cp -r benchmarks/results /tmp/bench-baselines       # before running benches
    PYTHONPATH=src python -m pytest benchmarks/bench_e18_aggregation.py \
        benchmarks/bench_e19_governor.py -q -s -k report
    python benchmarks/check_regression.py \
        --baseline /tmp/bench-baselines --current benchmarks/results

Exit status 1 on regression, 0 otherwise.  Reports missing on either side are
an error for the tracked names (a silently skipped gate is no gate); extra
reports are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

#: the reports whose speedup ratios are gated, and the gated metric column.
#: e15's ratio is uninstrumented/instrumented wall-clock (≈1.0x): a future PR
#: that makes the observability layer expensive drags it below its baseline.
#: e16's ratio is stale-run/corrected-run join pairs (≥5x): a PR that breaks
#: the cardinality-feedback loop collapses it toward 1.0x.
#: e17's ratio is the group-commit fsync amortization (commits per fsync,
#: ≈``group_commit_max``): a PR that fsyncs more often than the commit
#: protocol requires drags it toward 1.0x.
#: e18's ratio is hash aggregation vs the naive sort-group reference (≥5x):
#: a PR that slows the batch aggregation path drags it toward the gate.
#: e19's ratio is the peak-memory reduction of the spilling hash aggregate
#: under a quarter budget (≥2x): a PR that weakens spilling — coarser budget
#: checks, bigger held partitions — drags it toward 1.0x.
TRACKED_REPORTS = ("e15_observability", "e16_feedback", "e17_durability",
                   "e18_aggregation", "e19_governor")

DEFAULT_TOLERANCE = 0.2

_SPEEDUP = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*x\s*$")


def report_speedup(path):
    """The report's headline speedup: the maximum ``speedup`` ratio of its rows
    (the baseline row reports 1.0x, the measured engine the ratio under test)."""
    with open(path) as handle:
        payload = json.load(handle)
    ratios = []
    for row in payload.get("rows", []):
        match = _SPEEDUP.match(str(row.get("speedup", "")))
        if match:
            ratios.append(float(match.group(1)))
    if not ratios:
        raise ValueError("no speedup column found in {}".format(path))
    return max(ratios)


def check(baseline_dir, current_dir, names=TRACKED_REPORTS,
          tolerance=DEFAULT_TOLERANCE, out=sys.stdout):
    """Compare each tracked report; returns the list of failure messages."""
    failures = []
    for name in names:
        filename = "BENCH_{}.json".format(name)
        baseline_path = os.path.join(baseline_dir, filename)
        current_path = os.path.join(current_dir, filename)
        for path, side in ((baseline_path, "baseline"), (current_path, "current")):
            if not os.path.exists(path):
                failures.append("{}: missing {} report {}".format(name, side, path))
        if failures and failures[-1].startswith(name):
            continue
        baseline = report_speedup(baseline_path)
        current = report_speedup(current_path)
        floor = baseline * (1.0 - tolerance)
        verdict = "OK" if current >= floor else "REGRESSION"
        out.write("{:<24} baseline {:>5.1f}x  current {:>5.1f}x  floor {:>5.1f}x  {}\n"
                  .format(name, baseline, current, floor, verdict))
        if current < floor:
            failures.append(
                "{}: speedup {:.2f}x fell more than {:.0f}% below the baseline "
                "{:.2f}x".format(name, current, tolerance * 100, baseline))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory holding the committed BENCH_*.json baselines")
    parser.add_argument("--current", required=True,
                        help="directory holding the freshly produced BENCH_*.json files")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop (default 0.2 = 20%%)")
    parser.add_argument("names", nargs="*", default=list(TRACKED_REPORTS),
                        help="report names to gate (default: {})".format(
                            ", ".join(TRACKED_REPORTS)))
    args = parser.parse_args(argv)
    failures = check(args.baseline, args.current, names=args.names or TRACKED_REPORTS,
                     tolerance=args.tolerance)
    for failure in failures:
        print("FAIL: {}".format(failure), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
