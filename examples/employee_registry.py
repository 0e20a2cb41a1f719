"""Employee registry: the paper's running example as a small application.

Demonstrates the full engine workflow on the jobtype workload: bulk loading with
dependency enforcement, updates that change an employee's type (the paper's footnote
about jobtype changes), querying with type guards, and the AD-driven optimizer
removing redundant guards (Example 4), ordering on an attribute only one
variant carries — with a limit that cuts a run of ties, and under a memory
budget — and a scalar subquery.

Run with::

    python examples/employee_registry.py
"""

from repro.algebra import (
    Aggregate,
    Limit,
    Projection,
    RelationRef,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
)
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.engine.database import REMOVE
from repro.errors import DependencyViolation
from repro.workloads.employees import employee_definition, generate_employees


def build_registry(size=500):
    database = Database()
    definition = employee_definition()
    table = database.create_table("employees", definition.scheme, domains=definition.domains,
                                  key=definition.key, dependencies=definition.dependencies)
    table.insert_many(generate_employees(size, seed=2024))
    return database, table


def main():
    database, employees = build_registry()
    print("loaded", len(employees), "employees")

    # ------------------------------------------------------------------- update --
    # Promoting a secretary to software engineer is a *type* change: the update is
    # rejected until the variant attributes are changed along with the jobtype.
    someone = next(t for t in employees if t["jobtype"] == "secretary")
    print("\npromoting", someone["name"], "(currently secretary)")
    try:
        employees.update(someone, jobtype="software engineer")
    except DependencyViolation as error:
        print("  naive update rejected:", str(error)[:80], "...")
    promoted = employees.update(
        someone,
        jobtype="software engineer",
        typing_speed=REMOVE,
        foreign_languages=REMOVE,
        products="planner",
        programming_languages="pascal, c",
    )
    print("  full type-changing update accepted:", promoted["jobtype"])

    # ------------------------------------------------------------------ queries --
    # Example 4: selection on salary and jobtype followed by a guard on typing_speed.
    query = TypeGuardNode(
        Selection(RelationRef("employees"),
                  Comparison("salary", ">", 5000.0) & Comparison("jobtype", "=", "secretary")),
        ["typing_speed"],
    )
    plain = database.execute(query, optimize=False)
    optimized, report = database.execute_with_report(query, optimize=True)
    print("\nquery: well-paid secretaries, guarded on typing_speed")
    print("  optimizer rewrites:", list(report))
    print("  identical results:", plain.tuples == optimized.tuples)
    print("  work without / with optimization:",
          plain.stats.total_work, "/", optimized.stats.total_work)

    # Average typing speed of those well-paid secretaries.
    speeds = [t["typing_speed"] for t in optimized]
    if speeds:
        print("  average typing speed:", round(sum(speeds) / len(speeds), 1))

    # ------------------------------------------------------------------ ordering --
    # Only secretaries carry typing_speed.  Per sort key a row ranks by its value,
    # then NULL, then absent — in either direction — so the fastest typists are
    # all secretaries, whatever the other employees are.
    fastest = database.execute(
        Limit(Sort(RelationRef("employees"), ("-typing_speed", "name")), 5))
    print("\nfive fastest typists:", ", ".join(
        "{} ({})".format(t["name"], t["typing_speed"])
        for t in sorted(fastest, key=lambda t: (-t["typing_speed"], t["name"]))))

    # Rows that tie on every sort key are ordered by the whole tuple, so a limit
    # that cuts through a run of ties still has one answer in every engine.
    by_type = Limit(Sort(RelationRef("employees"), ("jobtype",)), 200)
    first = database.execute(by_type)
    counts = {}
    for t in first:
        counts[t["jobtype"]] = counts.get(t["jobtype"], 0) + 1
    print("first 200 by jobtype:", ", ".join(
        "{} {}".format(count, jobtype) for jobtype, count in sorted(counts.items())),
        "- same as the naive evaluator:",
        first.tuples == database.execute(by_type, executor="naive").tuples)

    # Under a memory budget the sort writes sorted runs to disk and merges them.
    payroll = Sort(RelationRef("employees"), ("-salary", "emp_id"))
    runs = database.metrics()["metrics"].get("spill.events", 0)
    spilled = database.execute(payroll, memory_budget=8_000, spill=True)
    runs = database.metrics()["metrics"]["spill.events"] - runs
    print("payroll sorted in 8,000 bytes: {} run(s) on disk, same rows: {}".format(
        runs, spilled.tuples == database.execute(payroll).tuples))

    # ------------------------------------------------------------ scalar subquery --
    # A scalar subquery extends every row by one value: each secretary next to the
    # fastest typing speed on the payroll.
    against_fastest = SubqueryExtension(
        Projection(Selection(RelationRef("employees"),
                             Comparison("jobtype", "=", "secretary")),
                   ["name", "typing_speed"]),
        "fastest", Aggregate(RelationRef("employees"), specs=(("max", "typing_speed"),)))
    slowest = min(database.execute(against_fastest),
                  key=lambda t: (t["typing_speed"], t["name"]))
    print("slowest secretary: {} at {} against the fastest {}".format(
        slowest["name"], slowest["typing_speed"], slowest["fastest"]))

    # ---------------------------------------------------------------- projection --
    # Projecting the jobtype away: the result is homogeneous in <name, salary> and
    # the connection to the variant structure is gone (the subtyping discussion of
    # Section 3.2) — the propagation rules tell us no dependency survives.
    projection = Projection(RelationRef("employees"), ["name", "salary"])
    print("\ndependencies known to hold in π_name,salary(employees):",
          projection.known_dependencies(database) or "none")


if __name__ == "__main__":
    main()
