"""The parity corpus: what the engine computes and reports, as one canonical JSON.

A change that claims "same behaviour" shows it by running this corpus on both
trees and finding no difference::

    PYTHONPATH=src python tools/parity.py --out parity.json
    PYTHONPATH=src python tools/parity.py --against ../parent-checkout
    PYTHONPATH=src python tools/parity.py --against HEAD~1

``--out FILE`` writes one entry per case of :data:`CASES`, with sorted keys and
no wall-clock field.  The corpus runs in a child process, and nothing it
reports follows the hash seed or an address: a spill routes its records by
a hash that follows neither for the numbers, strings, ``None``, NaNs and
tuples of them that the corpus's keys hold
(``repro.governor.spill._route_hash``), no byte count reads a stored tuple
hash (CPython before 3.12 hashes ``None`` by its address), and the plan
watchdog judges work, not time.  An entry holds, per run of its query:

* the plan's ``explain()`` (estimates and ``?n`` slots included),
  ``ExecutionStats.as_dict()`` and a SHA-256 digest of the result tuples, or
  the typed error the run raised;

and once the runs are over, for a case on a ``Database``:

* ``metrics()["metrics"]``, the slow-query log (its threshold is 0, so every
  query is logged), the cardinality-feedback store's entries and edges, and
  the plan-cache and statement-cache counters.

The ``spill/cancel-boundaries`` entry holds the cancellation boundaries every
spill-corpus expression passes under the 15,000 B budget (as
``repro.governor.chaos`` counts them before its sweep).

``--against TREE`` runs the corpus twice in subprocesses — once with this
tree's ``src`` on ``PYTHONPATH``, once with ``TREE/src`` — and prints a
per-case diff, exiting 1 when a case differs.  ``TREE`` is a directory
holding a checkout, or a git revision of this repository (``HEAD~1``, a
branch, a commit): its ``src`` is exported with ``git archive`` into a
temporary directory, which is removed after the comparison.  The corpus reads
the E20 workload definitions in ``benchmarks/e20`` and never writes there.

Adding a case is one line of :data:`CASES`: ``(name, source, query,
options)``, the query an algebra expression (run through ``execute``), SQL
text (run through ``query``) or a list of them, run in turn — each round of
:data:`RUNS` runs the whole list, so a list of one template under several
literals meets its cached plan under a binding it was not planned with.
"""

import argparse
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e20"))

from repro.algebra import (  # noqa: E402
    Aggregate,
    Difference,
    EmptyRelation,
    Extension,
    Limit,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import Comparison  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.exec import PhysicalPlanner  # noqa: E402
from repro.governor import CancelToken  # noqa: E402
from repro.model.tuples import FlexTuple  # noqa: E402
from repro.workloads.analytics import (  # noqa: E402
    DEFAULT_ORDER_COUNT,
    analytics_database,
    generate_orders,
)
from repro.workloads.employees import employee_definition, generate_employees  # noqa: E402
from repro.workloads.star import (  # noqa: E402
    chain_join_database,
    chain_join_query,
    star_join_database,
    star_join_query,
)

import analytic_scan  # noqa: E402
import join_plan  # noqa: E402
import oltp_durable  # noqa: E402
from data import create_employees, create_orders  # noqa: E402

#: runs of each case's query: the second meets the plan cache and any
#: cardinality feedback the first left behind
RUNS = 2

#: the spill corpus's memory budget
SPILL_BUDGET = 15_000

#: metric, counter and field names that carry wall-clock time
CLOCK_WORDS = ("seconds", "wall", "elapsed", "latency", "_ms", "_us")

_R, _S = RelationRef("r"), RelationRef("s")
_BOTH = Union(_R, _S)
_ORDERS = RelationRef("orders")
#: ``spill_corpus()`` of the governor tests: the spilling operators' shapes
SPILL_CORPUS = {
    "aggregate": Aggregate(_ORDERS, group_by=("order_id",), specs=(
        ("sum", "amount"), "count", ("avg", "amount"), ("min", "amount"),
        ("max", "amount"))),
    "aggregate_sparse_groups": Aggregate(_ORDERS, group_by=("region",), specs=(
        ("sum", "amount"), ("count", "amount"))),
    "global_aggregate": Aggregate(_ORDERS, specs=(("sum", "amount"), "count")),
    "sort": Sort(Selection(_ORDERS, Comparison("amount", ">", 50)),
                 keys=("amount", "order_id")),
    "sort_by_region": Sort(_ORDERS, keys=("region", "order_id")),
    "join": NaturalJoin(_ORDERS, Rename(Projection(_ORDERS, ["order_id", "region"]),
                                        {"region": "r2"}), on=["order_id"]),
    "join_skewed_key": NaturalJoin(
        Projection(_ORDERS, ["region", "channel"]),
        Rename(Projection(_ORDERS, ["order_id", "region"]), {"order_id": "oid2"}),
        on=["region"]),
    "restoration": MultiwayJoin(
        [OuterUnion(Projection(_ORDERS, ["order_id", "region", "channel"]),
                    Projection(_ORDERS, ["region", "channel"])),
         Projection(TypeGuardNode(_ORDERS, ["coupon"]), ["order_id", "coupon"]),
         Projection(TypeGuardNode(_ORDERS, ["store_id"]), ["order_id", "store_id"])],
        on=["order_id"]),
}


#: four fact rows that survive ``keyed_star``
HOT_STAR_KEYS = [key for key in range(1, 400) if join_plan.keyed_star_rows(key)][:4]

#: a join over a rare region that the planner estimates from the region's
#: share of rows: its first run records the join edge it observed
MISESTIMATED_JOIN = NaturalJoin(
    Selection(_ORDERS, Comparison("region", "=", "r7")),
    Rename(Projection(_ORDERS, ["order_id", "channel"]), {"channel": "c2"}),
    on=["order_id"])


def _employees():
    database = Database()
    definition = employee_definition()
    table = database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies)
    table.insert_many(generate_employees(400, seed=5))
    database.analyze()
    return database


def _e20_employees():
    database = Database()
    create_employees(database).insert_many(generate_employees(400, seed=5))
    database.analyze()
    return database


def _analyzed(database):
    database.analyze()
    return database


def _analytic_orders():
    database = Database()
    create_orders(database).insert_many(
        generate_orders(analytic_scan.ORDER_ROWS, seed=1))
    database.analyze()
    return database


#: source name -> a fresh source: a ``Database``, or a plain ``{name: tuples}``
#: mapping that the planner alone plans and runs
SOURCES = {
    "rs": lambda: {"r": {FlexTuple(a=1, c=i) for i in range(5)} | {FlexTuple(c=9)},
                   "s": {FlexTuple(a=1, d=i) for i in range(3)} | {FlexTuple(d=7)}},
    "orders": lambda: analytics_database(count=2500, seed=13),
    "analytic": _analytic_orders,
    "star": star_join_database,
    "chain": chain_join_database,
    "star-analyzed": lambda: _analyzed(star_join_database()),
    "chain-analyzed": lambda: _analyzed(chain_join_database()),
    "e18": lambda: analytics_database(DEFAULT_ORDER_COUNT, seed=18),
    "employees": _employees,
    "e20-employees": _e20_employees,
}

#: (name, source, query, options); options: ``memory_budget`` (with spill on)
#: and ``cancel_after`` (a ``CancelToken(fire_after_checks=n)`` a run)
CASES = [
    ("lowering/empty", "rs", EmptyRelation(), {}),
    ("lowering/relation", "rs", _R, {}),
    ("lowering/select-scan", "rs", Selection(_R, Comparison("a", "=", 1)), {}),
    ("lowering/select-filter", "rs", Selection(_BOTH, Comparison("a", "=", 1)), {}),
    ("lowering/guard-scan", "rs", TypeGuardNode(_R, ["a"]), {}),
    ("lowering/guard-filter", "rs", TypeGuardNode(_BOTH, ["a"]), {}),
    ("lowering/project", "rs", Projection(_R, ["a"]), {}),
    ("lowering/product", "rs", Product(_R, _S), {}),
    ("lowering/union", "rs", _BOTH, {}),
    ("lowering/outer-union", "rs", OuterUnion(_R, _S), {}),
    ("lowering/difference", "rs", Difference(_R, _S), {}),
    ("lowering/extend", "rs", Extension(_R, "tag", 1), {}),
    ("lowering/rename", "rs", Rename(_R, {"a": "b"}), {}),
    ("lowering/join-on", "rs", NaturalJoin(_R, _S, on=["a"]), {}),
    ("lowering/join-shared", "rs", NaturalJoin(_R, _S), {}),
    ("lowering/multiway-join", "rs", MultiwayJoin([_R, _S], on=["a"]), {}),
    ("lowering/aggregate", "rs", Aggregate(_R, group_by=("a",), specs=("count",)), {}),
    ("lowering/sort", "rs", Sort(_R, ["a"]), {}),
    ("lowering/top-k", "rs", Limit(Sort(_R, ["a"]), 0), {}),
    ("lowering/sort-limit", "rs", Limit(Sort(_R, ["a"]), 5), {}),
    ("lowering/subquery-extend", "rs",
     SubqueryExtension(_R, "n", Limit(Projection(_S, ["a"]), 1)), {}),
] + [
    ("spill/" + name, "orders", expression, {})
    for name, expression in sorted(SPILL_CORPUS.items())
] + [
    ("spill-budgeted/" + name, "orders", expression,
     {"memory_budget": SPILL_BUDGET})
    for name, expression in sorted(SPILL_CORPUS.items())
] + [
    ("analytic_scan/" + name, "analytic", query, {})
    for name, query in analytic_scan.QUERIES.items()
] + [
    ("e13/star", "star", star_join_query(), {}),
    ("e13/keyed-star", "star", join_plan.keyed_star(7), {}),
    ("e13/star-text", "star", join_plan.STAR_TEXT.format(7), {}),
    ("e13/chain", "chain", chain_join_query(), {}),
    ("e13/star-analyzed", "star-analyzed", star_join_query(), {}),
    ("e13/chain-analyzed", "chain-analyzed", chain_join_query(), {}),
    ("e18/aggregate", "e18", Aggregate(_ORDERS, group_by=("region",),
                                       specs=analytic_scan.SPECS), {}),
    ("e18/top-k", "e18", Limit(Sort(_ORDERS, ("-amount", "order_id")), 10), {}),
    ("statement/tag", "employees",
     "SELECT name FROM employees WHERE emp_id = 5 TAG src = 'x'", {}),
    ("statement/commented-literal", "employees",
     "SELECT name FROM employees -- it's 7\nWHERE emp_id = 5 -- = 7", {}),
    ("governed/cancelled", "orders", SPILL_CORPUS["join"], {"cancel_after": 3}),
    # one template under several bindings: plan-cache hits, rebound plans
    ("hits/point-read", "e20-employees",
     [oltp_durable.POINT_READ.format(key) for key in (5, 17, 5, 9999, 230)], {}),
    ("hits/keyed-star", "star",
     [join_plan.keyed_star(key) for key in HOT_STAR_KEYS], {}),
    ("hits/salary-range", "e20-employees",
     ["SELECT name FROM employees WHERE salary > {}".format(salary)
      for salary in (1000, 90000, 40000)], {}),
    ("feedback/misestimated-join", "orders", MISESTIMATED_JOIN, {}),
]


def _digest(tuples) -> str:
    rows = sorted(repr(sorted(tup.items())) for tup in tuples)
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def _timeless(value):
    """``value`` without the fields that carry wall-clock time."""
    if isinstance(value, dict):
        return {key: _timeless(item) for key, item in value.items()
                if not any(word in str(key) for word in CLOCK_WORDS)}
    if isinstance(value, (list, tuple)):
        return [_timeless(item) for item in value]
    return value


def _observed(plan, result) -> dict:
    return {"explain": plan.explain(), "stats": result.stats.as_dict(),
            "digest": _digest(result.tuples)}


def _run(database, query, options) -> dict:
    governance = {}
    if "memory_budget" in options:
        governance.update(memory_budget=options["memory_budget"], spill=True)
    if "cancel_after" in options:
        governance["cancel_token"] = CancelToken(fire_after_checks=options["cancel_after"])
    if isinstance(query, str):
        result = database.query(query, **governance)
        executor = database.physical_executor
        template, params = executor.statement(query, True)
        plan = executor.plan(template, params=params).bound(params)
    else:
        result = database.execute(query, **governance)
        plan = database.plan(query)
    return _observed(plan, result)


def run_case(source_name, query, options, spill_root):
    source = SOURCES[source_name]()
    if not isinstance(source, Database):
        plan = PhysicalPlanner(source).plan(query)
        return {"runs": [_observed(plan, plan.execute(source))]}
    source.spill_directory = spill_root
    source.slow_query_log.threshold = 0.0
    runs = []
    for _ in range(RUNS):
        for one in (query if isinstance(query, list) else [query]):
            try:
                runs.append(_run(source, one, options))
            except ReproError as error:
                runs.append({"error": "{}: {}".format(type(error).__name__, error)})
    metrics = source.metrics()
    feedback = source.cardinality_feedback
    return _timeless({
        "runs": runs,
        "metrics": metrics["metrics"],
        "slow_queries": metrics["slow_queries"],
        "feedback": {"entries": [repr((key, feedback.current(("rows", key))))
                                 for key in feedback._entries],
                     # a carrier set renders sorted: a frozenset's order
                     # follows the string hash seed
                     "edges": [repr(((name, sorted(carriers), version),
                                     feedback.lookup_edge(name, carriers, version)))
                               for name, carriers, version in list(feedback._edges)]},
        "plan_cache": metrics["plan_cache"],
        "statement_cache": metrics["statement_cache"],
    })


def cancel_boundaries(spill_root):
    """The boundaries each spill-corpus expression passes under the budget,
    counted on the plan that has settled its cardinality feedback."""
    database = SOURCES["orders"]()
    database.spill_directory = spill_root
    counts = {}
    for name, expression in sorted(SPILL_CORPUS.items()):
        feedback, version, counts[name] = database.cardinality_feedback, None, []
        while version != feedback.version:
            version, token = feedback.version, CancelToken()
            database.execute(expression, cancel_token=token,
                             memory_budget=SPILL_BUDGET, spill=True)
            counts[name].append(token.checks)
    return counts


def corpus() -> dict:
    spill_root = tempfile.mkdtemp(prefix="repro-parity-")
    try:
        entries = {name: run_case(source, query, options, spill_root)
                   for name, source, query, options in CASES}
        entries["spill/cancel-boundaries"] = cancel_boundaries(spill_root)
        return entries
    finally:
        shutil.rmtree(spill_root)


def _render(entries) -> str:
    return json.dumps(entries, sort_keys=True, indent=1, default=repr) + "\n"


def _write_in(tree: str, out: str) -> None:
    """Run the corpus in a child process with ``tree``'s ``src`` (see the
    module docstring) and write it to ``out``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--out", out,
                    "--child"], env=env, check=True)


def _exported(revision: str, scratch: str) -> str:
    """A directory holding ``revision``'s ``src``, exported from this
    repository into ``scratch``."""
    tree = os.path.join(scratch, "tree")
    os.mkdir(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              revision, "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit("{!r} is neither a directory nor a git revision: {}".format(
            revision, archive.stderr.decode(errors="replace").strip()))
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write this tree's corpus to FILE")
    group.add_argument("--against", metavar="TREE",
                       help="diff this tree's corpus against a checkout "
                            "directory or a git revision")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.out is not None:
        if not args.child:
            _write_in(ROOT, args.out)
            return 0
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_render(corpus()))
        return 0
    scratch = tempfile.mkdtemp(prefix="repro-parity-")
    try:
        against = args.against
        if not os.path.isdir(against):
            against = _exported(against, scratch)
        texts = {}
        for side, tree in (("this", ROOT), ("against", against)):
            out = os.path.join(scratch, side + ".json")
            _write_in(tree, out)
            with open(out, encoding="utf-8") as handle:
                texts[side] = json.load(handle)
    finally:
        shutil.rmtree(scratch)
    differing = 0
    for name in sorted(set(texts["this"]) | set(texts["against"])):
        mine, theirs = (_render(texts[side].get(name)).splitlines()
                        for side in ("this", "against"))
        if mine != theirs:
            differing += 1
            print("== {} ==".format(name))
            sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
                theirs, mine, args.against, "this tree", lineterm=""))
    print("{} of {} cases differ".format(
        differing, len(set(texts["this"]) | set(texts["against"]))))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
