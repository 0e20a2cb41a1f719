"""In-memory storage engine for flexible relations.

The engine is the operational substrate the paper assumes: a catalog of flexible
relations with declared domains, keys, functional and (explicit) attribute
dependencies; DML that type-checks every insertion and update against all of them
(Section 3.1's "type checking based on ADs is initiated during insertion, update and
data retrieval"); hash indexes on the determinants so dependency checking stays
incremental; and a query entry point that evaluates — optionally after AD-driven
optimization — algebra expressions over the stored relations.
"""

from repro.engine.indexes import HashIndex
from repro.engine.catalog import Catalog, TableDefinition
from repro.engine.constraints import ConstraintChecker, KeyConstraint
from repro.engine.database import Database, Table
from repro.engine.serialization import (
    SerializationError,
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)

__all__ = [
    "HashIndex",
    "Catalog",
    "TableDefinition",
    "ConstraintChecker",
    "KeyConstraint",
    "Database",
    "Table",
    "SerializationError",
    "dump_database",
    "dumps_database",
    "load_database",
    "loads_database",
]
