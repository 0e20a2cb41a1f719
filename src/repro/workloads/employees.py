"""The employee / jobtype workload — the paper's running example.

An employee has an id, a name, a salary and a jobtype; the value of ``jobtype``
determines the variant attributes (Section 1):

* ``'secretary'``          → ``typing_speed``, ``foreign_languages``
* ``'software engineer'``  → ``products``, ``programming_languages``
* ``'salesman'``           → ``products``, ``sales_commission``

The module provides the flexible scheme, the explicit AD of Example 2, the domains,
a ready-made table definition for the engine, and a tuple generator with a
controllable fraction of *invalid* tuples (wrong variant attributes for the jobtype)
used by the type-checking experiment E2.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.dependencies import ExplicitAttributeDependency, FunctionalDependency, Variant
from repro.engine.catalog import TableDefinition
from repro.model.domains import Domain, EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme

#: the three jobtypes of the running example
JOBTYPES = ("secretary", "software engineer", "salesman")

#: the variant attributes determined by the jobtype
EMPLOYEE_VARIANT_ATTRIBUTES = (
    "typing_speed",
    "foreign_languages",
    "products",
    "programming_languages",
    "sales_commission",
)

#: variant attribute sets per jobtype (the Y_i of Example 2)
VARIANTS_BY_JOBTYPE: Dict[str, Tuple[str, ...]] = {
    "secretary": ("typing_speed", "foreign_languages"),
    "software engineer": ("products", "programming_languages"),
    "salesman": ("products", "sales_commission"),
}

_LANGUAGES = ("english", "french", "german", "italian", "russian", "spanish")
_PRODUCTS = ("dbms", "compiler", "editor", "spreadsheet", "browser", "planner")
_PROGRAMMING = ("pascal", "c", "prolog", "lisp", "ada", "cobol")
_NAMES = ("avery", "blake", "casey", "drew", "ellis", "finley", "harper", "jordan",
          "kendall", "logan", "morgan", "parker", "quinn", "reese", "sawyer", "taylor")


def employee_scheme() -> FlexibleScheme:
    """The flexible scheme of the employee relation.

    ``emp_id``, ``name``, ``salary`` and ``jobtype`` are unconditioned; the variant
    attributes form an optional nested component (their actual combination is
    governed by the AD, not by the scheme).
    """
    return FlexibleScheme(
        5,
        5,
        [
            "emp_id",
            "name",
            "salary",
            "jobtype",
            FlexibleScheme(0, len(EMPLOYEE_VARIANT_ATTRIBUTES), list(EMPLOYEE_VARIANT_ATTRIBUTES)),
        ],
    )


def employee_dependency() -> ExplicitAttributeDependency:
    """The jobtype EAD of Example 2."""
    variants = [
        Variant([{"jobtype": jobtype}], list(attributes), name=jobtype)
        for jobtype, attributes in VARIANTS_BY_JOBTYPE.items()
    ]
    return ExplicitAttributeDependency(["jobtype"], list(EMPLOYEE_VARIANT_ATTRIBUTES), variants)


def employee_domains() -> Dict[str, Domain]:
    """Domains for every employee attribute."""
    return {
        "emp_id": IntDomain(),
        "name": StringDomain(max_length=32),
        "salary": FloatDomain(),
        "jobtype": EnumDomain(list(JOBTYPES), name="jobtype"),
        "typing_speed": IntDomain(),
        "foreign_languages": StringDomain(max_length=64),
        "products": StringDomain(max_length=64),
        "programming_languages": StringDomain(max_length=64),
        "sales_commission": FloatDomain(),
    }


def employee_key_dependency() -> FunctionalDependency:
    """``emp_id --func--> name, salary, jobtype`` (the key as an FD)."""
    return FunctionalDependency(["emp_id"], ["name", "salary", "jobtype"])


def employee_definition(name: str = "employees") -> TableDefinition:
    """A ready-made table definition bundling scheme, domains, key and dependencies."""
    return TableDefinition(
        name,
        employee_scheme(),
        domains=employee_domains(),
        key=["emp_id"],
        dependencies=[employee_dependency(), employee_key_dependency()],
    )


def _variant_values(jobtype: str, rng: random.Random) -> Dict[str, object]:
    values: Dict[str, object] = {}
    for attribute in VARIANTS_BY_JOBTYPE[jobtype]:
        if attribute == "typing_speed":
            values[attribute] = rng.randrange(40, 120)
        elif attribute == "foreign_languages":
            values[attribute] = ", ".join(sorted(rng.sample(_LANGUAGES, rng.randrange(1, 4))))
        elif attribute == "products":
            values[attribute] = ", ".join(sorted(rng.sample(_PRODUCTS, rng.randrange(1, 4))))
        elif attribute == "programming_languages":
            values[attribute] = ", ".join(sorted(rng.sample(_PROGRAMMING, rng.randrange(1, 4))))
        elif attribute == "sales_commission":
            values[attribute] = round(rng.uniform(0.01, 0.25), 3)
    return values


def generate_employees(
    count: int,
    invalid_fraction: float = 0.0,
    seed: int = 0,
    start_id: int = 1,
) -> List[Dict[str, object]]:
    """Generate employee tuples; a fraction of them violates the jobtype dependency.

    An invalid tuple keeps its jobtype but carries the variant attributes of a
    *different* jobtype (the ``<jobtype:'salesman', typing_speed:..., ...>`` shape of
    Section 3.1), which a flexible scheme alone would accept.
    """
    if not 0.0 <= invalid_fraction <= 1.0:
        raise ValueError("invalid_fraction must be between 0 and 1")
    rng = random.Random(seed)
    tuples: List[Dict[str, object]] = []
    for offset in range(count):
        jobtype = JOBTYPES[rng.randrange(len(JOBTYPES))]
        tuple_values: Dict[str, object] = {
            "emp_id": start_id + offset,
            "name": rng.choice(_NAMES),
            "salary": round(rng.uniform(2_000.0, 9_000.0), 2),
            "jobtype": jobtype,
        }
        make_invalid = rng.random() < invalid_fraction
        if make_invalid:
            other = rng.choice([j for j in JOBTYPES if VARIANTS_BY_JOBTYPE[j] != VARIANTS_BY_JOBTYPE[jobtype]])
            tuple_values.update(_variant_values(other, rng))
        else:
            tuple_values.update(_variant_values(jobtype, rng))
        tuples.append(tuple_values)
    return tuples
