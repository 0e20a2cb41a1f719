"""Reachability census: the ``src/repro`` functions no caller outside ``tests/`` enters.

Runs, in this one process, under a stdlib ``sys.setprofile`` hook (and
``threading.setprofile`` for any thread the runs start):

* every ``examples/*.py`` script, as ``__main__``;
* the benchmark report checks, ``pytest benchmarks/bench_*.py -k report``
  (their ``BENCH_*.json`` go to a temporary directory, not
  ``benchmarks/results``);
* the four E20 workloads, untraced, at a small scale.

Then it prints every function and method defined under ``src/repro`` that
none of them entered, file by file, and their count.  What only tier-1
reaches is deleted or kept; a kept one is listed in
``tools/census_allowlist.txt``, one ``path:qualname  reason`` a line, with a
reason from :data:`REASONS`.  Dunders are exempt.  The census exits 1, naming
each unentered function the allowlist lacks and each allowlist line whose
function a run entered (a stale line; those whose comment starts with
``timing`` are exempt), and 0 when there is neither.

Usage (from the repository root; takes a few minutes, the profiler slows
everything down several times)::

    PYTHONPATH=src python tools/census.py [--skip examples,bench,e20]
                                          [--scale 0.05] [--seconds 3]
"""

import argparse
import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro")
E20 = os.path.join(ROOT, "benchmarks", "e20")
WORKLOADS = ("oltp_durable", "bulk_ingest", "analytic_scan", "join_plan")
ALLOWLIST = os.path.join(ROOT, "tools", "census_allowlist.txt")
#: why an unentered function is kept: named in README or ARCHITECTURE, part of
#: an E1–E9 reproduction, an oracle a test compares against, a fault harness,
#: or a span target of ``benchmarks/e20/trace.py``
REASONS = ("public", "paper", "oracle", "fault-harness", "e20-target")

#: every code object a call entered while the hook was installed
entered = set()


def _hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


@contextlib.contextmanager
def profiled():
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def defined_functions():
    """``(file, first line) -> qualified name`` of every ``def`` under
    ``src/repro``.  The first line is the first decorator's, as in the
    function's code object."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SOURCE, "**", "*.py"), recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        pending = [(tree, "")]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, line)] = prefix + child.name
                    pending.append((child, prefix + child.name + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    pending.append((child, prefix + child.name + "."))
                else:
                    pending.append((child, prefix))
    return found


def read_allowlist(path=ALLOWLIST):
    """``{"path:qualname": (reason, comment)}``: the allowlist's lines, ``#``
    starting a comment (``""`` when there is none), the path relative to the
    repository root."""
    entries = {}
    with open(path) as handle:
        for line in handle:
            text, _, comment = line.partition("#")
            fields = text.split()
            if fields:
                name, reason = fields
                entries[name] = (reason, comment.strip())
    return entries


def is_dunder(qualname):
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def run_examples():
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")


def run_bench_reports():
    import pytest

    files = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")))
    with tempfile.TemporaryDirectory() as output:
        os.environ["BENCH_OUTPUT_DIR"] = output
        try:
            pytest.main(files + ["-q", "-k", "report", "-p", "no:cacheprovider",
                                 "--rootdir", ROOT])
        finally:
            del os.environ["BENCH_OUTPUT_DIR"]


def run_e20(seconds, scale):
    # the workloads import their siblings (and a ``trace`` module of their
    # own) by bare name, as ``run.py`` does when run as a script
    sys.path.insert(0, E20)
    import run

    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            run.run_workload(name, seed=1, seconds=seconds, scale=scale, traced=False)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--skip", default="",
                        help="comma-separated runs to leave out: examples, bench, e20")
    parser.add_argument("--scale", type=float, default=0.05, help="E20 workload scale")
    parser.add_argument("--seconds", type=float, default=3.0, help="E20 seconds a workload")
    args = parser.parse_args()
    skip = set(filter(None, args.skip.split(",")))
    runs = [("examples", run_examples), ("bench", run_bench_reports),
            ("e20", lambda: run_e20(args.seconds, args.scale))]
    os.chdir(ROOT)
    with profiled():
        for name, run in runs:
            if name not in skip:
                run()

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in entered}
    functions = defined_functions()
    unreached = defaultdict(list)
    for (path, line), name in sorted(functions.items()):
        if (os.path.realpath(path), line) not in reached:
            unreached[os.path.relpath(path, ROOT)].append((line, name))
    for path in sorted(unreached):
        print(path)
        for line, name in unreached[path]:
            print("  {}:{} {}".format(path, line, name))
    total = sum(len(names) for names in unreached.values())
    print("{} of {} functions in src/repro not entered (runs: {})".format(
        total, len(functions),
        ", ".join(name for name, _ in runs if name not in skip)))
    allowed, allowlist = read_allowlist(), os.path.relpath(ALLOWLIST, ROOT)
    unentered = {"{}:{}".format(path, name): name for path in sorted(unreached)
                 for _line, name in unreached[path]}
    unlisted = [entry for entry, name in unentered.items()
                if not is_dunder(name) and entry not in allowed]
    for name in unlisted:
        print("not entered and not in {}: {}".format(allowlist, name))
    # a line whose function a run entered keeps it for a reason that no longer
    # holds; whether a "timing" line's function is entered depends on timing
    stale = [name for name, (_reason, comment) in sorted(allowed.items())
             if name not in unentered and not comment.startswith("timing")]
    for name in stale:
        print("entered, yet listed in {}: {}".format(allowlist, name))
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
