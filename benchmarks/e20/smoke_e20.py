"""Smoke test of the E20 benchmark at 2% scale.

The file name is outside pytest's ``test_*.py`` pattern on purpose, so tier-1
does not collect it; run it by name::

    PYTHONPATH=src python -m pytest benchmarks/e20/smoke_e20.py -q
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    command = list(CONTRACT["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(CONTRACT["run_seconds"]), "--scale", "0.02", "--trace", str(trace)]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    return done


_RUNS = {}


def outcome(workload, seed, trace):
    """``(result object, input digest)`` of one run, run once per session."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        done = run(workload, seed, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.strip().splitlines()
        digest = re.search(r"input_digest=(\w+)", lines[0]).group(1)
        _RUNS[key] = json.loads(lines[-1]), digest, lines
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_and_nothing_else(workload, trace):
    result, _, lines = outcome(workload, 1, trace)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert NAME.match(entry["name"]), entry["name"]
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], (int, float))
        # every metric is printed by name with its unit, too
        assert any(line.split()[:1] == [entry["name"]]
                   and line.split()[2] == entry["unit"] for line in lines), entry
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["trace.unresolved_targets"]["value"] == 0
        assert result["metrics"]["trace.spans"]["value"] > 0
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_decides_the_inputs(workload):
    untraced, traced = outcome(workload, 1, 0)[1], outcome(workload, 1, 1)[1]
    assert untraced == traced
    assert outcome(workload, 2, 0)[1] != untraced


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "tmp-*",
                                                      "spans-*"))
    done = run(WORKLOADS[0], 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def test_a_vanished_target_is_counted_not_raised():
    """A later change may delete a wrapped callable (the row operators, say)."""
    spec = importlib.util.spec_from_file_location(
        "e20_trace", os.path.join(HERE, "trace.py"))
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    tracer = trace.SpanTracer(targets=(
        ("exec.gone", "repro.exec.operators:NoSuchOperator.run"),
        ("gone.module", "repro.no_such_module:function"),
        ("query.parse", "repro.query.parser:parse_query")))
    tracer.install()
    try:
        assert len(tracer.unresolved) == 2
        from repro.query import parse_query
        tracer.begin_root("probe")
        parse_query("SELECT a FROM t")
        tracer.end_root()
    finally:
        tracer.uninstall()
    summary = tracer.summarize()
    assert summary.total(("query.parse",))[2] == 1
    assert summary.total(("exec.gone",)) == [0, 0, 0, 0]
    assert trace.count_calls("repro.no_such_module:function", lambda: None) == 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
