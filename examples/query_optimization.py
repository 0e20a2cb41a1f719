"""Query optimization with attribute dependencies (Section 3.1.2, Example 4).

Builds a 2000-employee database plus its horizontal decomposition, runs ANALYZE so
the planner estimates from histograms and variant-tag frequencies, then runs three
queries with and without the AD-driven rewrites, shows the physical plan the
execution engine chooses for each — including the per-node ``est_rows`` /
``est_cost`` annotations derived from the statistics — and reports the work
counters:

1. the redundant type guard of Example 4,
2. a guard on an attribute excluded by the selected variant (empty result known
   statically),
3. a selection over the outer union of fragments where two of three fragments can be
   pruned.

It then moves to the n-way workload: a 5-way star join written in a naive
smallest-dimension-first order, showing the join order and work counters
*before* (``join_order_search="none"``) and *after* the cost-based DP
join-order search, together with the search's own statistics (subsets
enumerated, candidate plans pruned).

Run with::

    python examples/query_optimization.py
"""

from repro.algebra import (
    Extension,
    NaturalJoin,
    OuterUnion,
    RelationRef,
    Selection,
    TypeGuardNode,
)
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.er import horizontal_decomposition
from repro.exec import PhysicalPlanner
from repro.workloads.employees import employee_definition, employee_dependency, generate_employees
from repro.workloads.star import star_join_database


def build_database(size=2000):
    database = Database()
    definition = employee_definition()
    employees = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=definition.dependencies)
    employees.insert_many(generate_employees(size, seed=7))
    decomposition = horizontal_decomposition(employees, employee_dependency())
    for name, tuples in decomposition.fragments.items():
        fragment = database.create_table("frag_{}".format(name.replace(" ", "_")),
                                         definition.scheme, domains=definition.domains)
        fragment.insert_many(tuples)
    database.analyze()  # collect histograms + variant-tag frequencies for the planner
    return database


def run(database, label, query):
    plain = database.execute(query, optimize=False)
    optimized, report = database.execute_with_report(query, optimize=True)
    plan = database.plan(query, optimize=True)
    print("\n--", label)
    print("   rewrites:", list(report) or "none")
    print("   physical plan (after rewrites, with statistics-based estimates):")
    for line in plan.explain().splitlines():
        print("     ", line)
    print("   tuples:", len(optimized), "(identical:", plain.tuples == optimized.tuples, ")",
          " estimated:", "{:.1f}".format(plan.root.estimated_rows)
          if plan.root.estimated_rows is not None else "n/a")
    print("   work unoptimized:", plain.stats.total_work,
          " optimized:", optimized.stats.total_work,
          " saving: {:.0%}".format(1 - optimized.stats.total_work / max(1, plain.stats.total_work)))


def five_way_join_order():
    """The 5-way star join before and after the DP join-order search."""
    database = star_join_database(fact_rows=2000)
    database.analyze()
    # A naive written order: smallest dimension first, the selective one last.
    query = NaturalJoin(RelationRef("dim_small"), RelationRef("fact"), on=["ds"])
    query = NaturalJoin(query, RelationRef("dim_a"), on=["da"])
    query = NaturalJoin(query, RelationRef("dim_b"), on=["db"])
    query = NaturalJoin(query, Selection(RelationRef("dim_rare"),
                                         Comparison("kind", "=", "rare")),
                        on=["dr"])

    print("\n-- 5-way star join: cost-based join-order search")
    runs = {}
    for mode in ("none", "dp"):
        plan = PhysicalPlanner(database, join_order_search=mode).plan(query)
        result = plan.execute(database)
        runs[mode] = result
        label = "written order" if mode == "none" else "DP-chosen order"
        print("   [{}]".format(label))
        for line in plan.explain().splitlines():
            print("     ", line)
        print("      tuples:", len(result),
              " join_pairs:", result.stats.join_pairs_considered,
              " total work:", result.stats.total_work)
        if plan.join_search:
            report = plan.join_search[0]
            print("      search: subsets={} considered={} pruned={}".format(
                report.subsets_enumerated, report.plans_considered,
                report.plans_pruned))
    before, after = runs["none"].stats, runs["dp"].stats
    print("   identical results:", runs["none"].tuples == runs["dp"].tuples,
          " join pairs {} -> {} ({:.0f}x fewer)".format(
              before.join_pairs_considered, after.join_pairs_considered,
              before.join_pairs_considered / max(1, after.join_pairs_considered)))


def main():
    database = build_database()

    run(database, "Example 4: redundant guard on typing_speed",
        TypeGuardNode(
            Selection(RelationRef("employees"),
                      Comparison("salary", ">", 5000.0) & Comparison("jobtype", "=", "secretary")),
            ["typing_speed"]))

    run(database, "guard on an attribute excluded by the selected variant",
        TypeGuardNode(
            Selection(RelationRef("employees"),
                      Comparison("salary", ">", 5000.0) & Comparison("jobtype", "=", "secretary")),
            ["sales_commission"]))

    secretaries = Extension(RelationRef("frag_secretary"), "fragment", "secretary")
    engineers = Extension(RelationRef("frag_software_engineer"), "fragment", "software engineer")
    salesmen = Extension(RelationRef("frag_salesman"), "fragment", "salesman")
    union = OuterUnion(OuterUnion(secretaries, engineers), salesmen)
    run(database, "selection over the outer union of the three fragments",
        Selection(union, Comparison("fragment", "=", "secretary")
                  & Comparison("salary", ">", 5000.0)))

    five_way_join_order()


if __name__ == "__main__":
    main()
