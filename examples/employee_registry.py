"""Employee registry: the paper's running example as a small application.

Demonstrates the full engine workflow on the jobtype workload: bulk loading with
dependency enforcement, updates that change an employee's type (the paper's footnote
about jobtype changes), querying with type guards, and the AD-driven optimizer
removing redundant guards (Example 4), and ordering on an attribute only one
variant carries.

Run with::

    python examples/employee_registry.py
"""

from repro.algebra import Limit, Projection, RelationRef, Selection, Sort, TypeGuardNode
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

    # ---------------------------------------------------------------- projection --
    # Projecting the jobtype away: the result is homogeneous in <name, salary> and
    # the connection to the variant structure is gone (the subtyping discussion of
    # Section 3.2) — the propagation rules tell us no dependency survives.
    projection = Projection(RelationRef("employees"), ["name", "salary"])
    print("\ndependencies known to hold in π_name,salary(employees):",
          projection.known_dependencies(database) or "none")


if __name__ == "__main__":
    main()
