"""Serialization of schemas, dependencies and whole databases to and from JSON.

A database — catalog (schemes, domains, keys, dependencies) plus the stored tuples —
can be written to a JSON document and read back, so designs and datasets can be
shipped, versioned, and loaded by the examples and benchmarks without re-running the
generators.  Only JSON-representable attribute values (numbers, strings, booleans,
``None``) are supported; this covers every workload in the repository.

Public entry points:

* :func:`dump_database` / :func:`load_database` — file paths or file-like objects;
  given a *path*, the dump is **atomic** (temp file + fsync + ``os.replace`` +
  directory fsync), so a crash mid-dump never leaves a half-written snapshot
  behind — the checkpointer of :mod:`repro.storage` writes through the same
  :func:`atomic_write` primitive,
* :func:`database_to_dict` / :func:`database_from_dict` — plain dictionaries, with
  :func:`populate_database_from_dict` loading into an existing (empty) database,
  each table's rows through :meth:`~repro.engine.database.Table.insert_many` (a
  durable database's recovery loads its checkpoint snapshot so);
  :func:`database_json_pieces` is ``database_to_dict``'s document as compact JSON
  text, streamed (the checkpoint's encoder),
* the per-object converters (``scheme_to_dict``, ``dependency_to_dict``, ...) for
  callers that only need a piece.

Malformed input never surfaces as a raw ``KeyError`` or ``TypeError``: every
deserializer raises :class:`SerializationError` naming the offending document path
(e.g. ``tables[2].dependencies[0]``), and a document whose ``format_version`` this
build does not understand is rejected with a message saying which version it reads.

Fresh planner statistics (``Database.analyze()``) are written alongside the data
and restored as fresh on load, so shipped datasets plan well without re-running
ANALYZE.  Stale statistics are not persisted.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import islice
from typing import Iterator

from repro.core.dependencies import (
    AttributeDependency,
    Dependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
)
from repro.engine.database import Database
from repro.errors import ReproError
from repro.model.attributes import Attribute
from repro.model.domains import (
    AnyDomain,
    BoolDomain,
    Domain,
    EnumDomain,
    FloatDomain,
    IntDomain,
    RangeDomain,
    StringDomain,
)
from repro.model.scheme import FlexibleScheme, UnfoldedScheme
from repro.stats.statistics import TableStatistics

#: bumped when the JSON layout changes incompatibly
FORMAT_VERSION = 1


class SerializationError(ReproError):
    """Raised when a document cannot be serialized or deserialized."""


def _fail(path: str, problem: str) -> "SerializationError":
    prefix = "at {}: ".format(path) if path else ""
    return SerializationError(prefix + problem)


def _as_object(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise _fail(path, "expected an object, got {}".format(type(data).__name__))
    return data


def _get(data, key: str, path: str):
    _as_object(data, path)
    try:
        return data[key]
    except KeyError:
        raise _fail(path, "missing required key {!r}".format(key)) from None


# -- atomic file writing ------------------------------------------------------------------------


def fsync_directory(directory: str) -> None:
    """Make ``directory``'s entries durable: a rename into it, a file created in it."""
    descriptor = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write(path: str, write) -> str:
    """Write a file atomically: ``write(handle)`` fills it; returns the path.

    The text is first written to a temp file in the same directory, flushed
    and fsynced, then renamed over the target with ``os.replace``, and the
    directory is fsynced so the rename itself survives a crash — a crash at
    any point leaves either the old file or the new one, never a torn
    hybrid.  The temp file is removed on failure.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(descriptor, "w") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return path


def load_json_file(path: str):
    """Read a JSON document from ``path``; decoding problems raise
    :class:`SerializationError` instead of leaking ``json`` internals."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            "{}: not valid JSON ({})".format(path, exc)) from exc


# -- schemes ------------------------------------------------------------------------------------


def scheme_to_dict(scheme: FlexibleScheme) -> dict:
    """Convert a flexible scheme (or unfolded scheme) to a JSON-ready dictionary."""
    if isinstance(scheme, UnfoldedScheme):
        return {
            "kind": "unfolded",
            "combinations": sorted(sorted(a.name for a in combo) for combo in scheme.dnf()),
        }
    components = []
    for component in scheme.components:
        if isinstance(component, Attribute):
            components.append({"kind": "attribute", "name": component.name})
        else:
            components.append(scheme_to_dict(component))
    return {
        "kind": "scheme",
        "at_least": scheme.at_least,
        "at_most": scheme.at_most,
        "components": components,
    }


def scheme_from_dict(data: dict, path: str = "scheme") -> FlexibleScheme:
    """Rebuild a flexible scheme from :func:`scheme_to_dict` output."""
    kind = _as_object(data, path).get("kind")
    if kind == "unfolded":
        combinations = _get(data, "combinations", path)
        if not isinstance(combinations, list):
            raise _fail(path + ".combinations", "expected a list of combinations")
        try:
            combos = {frozenset(Attribute(name) for name in combo)
                      for combo in combinations}
        except (TypeError, ReproError) as exc:
            raise _fail(path + ".combinations", str(exc)) from exc
        return UnfoldedScheme(combos)
    if kind != "scheme":
        raise _fail(path, "not a scheme document: kind={!r}".format(kind))
    components = []
    raw_components = _get(data, "components", path)
    if not isinstance(raw_components, list):
        raise _fail(path + ".components", "expected a list of components")
    for index, component in enumerate(raw_components):
        component_path = "{}.components[{}]".format(path, index)
        _as_object(component, component_path)
        if component.get("kind") == "attribute":
            components.append(_get(component, "name", component_path))
        else:
            components.append(scheme_from_dict(component, path=component_path))
    try:
        return FlexibleScheme(_get(data, "at_least", path),
                              _get(data, "at_most", path), components)
    except (TypeError, ValueError, ReproError) as exc:
        raise _fail(path, "invalid scheme: {}".format(exc)) from exc


# -- domains -------------------------------------------------------------------------------------


def domain_to_dict(domain: Domain) -> dict:
    """Convert a domain to a JSON-ready dictionary."""
    if isinstance(domain, EnumDomain):
        return {"kind": "enum", "values": list(domain.values()), "name": domain.name}
    if isinstance(domain, RangeDomain):
        return {"kind": "range", "low": domain.low, "high": domain.high,
                "integral": domain.integral, "name": domain.name}
    if isinstance(domain, StringDomain):
        return {"kind": "string", "max_length": domain.max_length}
    if isinstance(domain, IntDomain):
        return {"kind": "int"}
    if isinstance(domain, FloatDomain):
        return {"kind": "float"}
    if isinstance(domain, BoolDomain):
        return {"kind": "bool"}
    if isinstance(domain, AnyDomain):
        return {"kind": "any"}
    raise SerializationError("cannot serialize domain {!r}".format(domain))


def domain_from_dict(data: dict, path: str = "domain") -> Domain:
    """Rebuild a domain from :func:`domain_to_dict` output."""
    kind = _as_object(data, path).get("kind")
    try:
        if kind == "enum":
            return EnumDomain(_get(data, "values", path), name=data.get("name", "enum"))
        if kind == "range":
            return RangeDomain(_get(data, "low", path), _get(data, "high", path),
                               integral=data.get("integral", False),
                               name=data.get("name", "range"))
        if kind == "string":
            return StringDomain(max_length=data.get("max_length"))
        if kind == "int":
            return IntDomain()
        if kind == "float":
            return FloatDomain()
        if kind == "bool":
            return BoolDomain()
        if kind == "any":
            return AnyDomain()
    except (TypeError, ValueError, ReproError) as exc:
        raise _fail(path, "invalid {} domain: {}".format(kind, exc)) from exc
    raise _fail(path, "unknown domain kind {!r}".format(kind))


# -- dependencies -----------------------------------------------------------------------------------


def dependency_to_dict(dependency: Dependency) -> dict:
    """Convert an AD / FD / explicit AD to a JSON-ready dictionary."""
    if isinstance(dependency, ExplicitAttributeDependency):
        return {
            "kind": "explicit-ad",
            "lhs": list(dependency.lhs.names),
            "rhs": list(dependency.rhs.names),
            "variants": [
                {
                    "name": variant.name,
                    "attributes": list(variant.attributes.names),
                    "values": [value.as_dict() for value in variant.values],
                }
                for variant in dependency.variants
            ],
        }
    if isinstance(dependency, FunctionalDependency):
        return {"kind": "fd", "lhs": list(dependency.lhs.names), "rhs": list(dependency.rhs.names)}
    if isinstance(dependency, AttributeDependency):
        return {"kind": "ad", "lhs": list(dependency.lhs.names), "rhs": list(dependency.rhs.names)}
    raise SerializationError("cannot serialize dependency {!r}".format(dependency))


def dependency_from_dict(data: dict, path: str = "dependency") -> Dependency:
    """Rebuild a dependency from :func:`dependency_to_dict` output."""
    kind = _as_object(data, path).get("kind")
    try:
        if kind == "explicit-ad":
            raw_variants = _get(data, "variants", path)
            if not isinstance(raw_variants, list):
                raise _fail(path + ".variants", "expected a list of variants")
            variants = []
            for index, entry in enumerate(raw_variants):
                variant_path = "{}.variants[{}]".format(path, index)
                _as_object(entry, variant_path)
                variants.append(Variant(_get(entry, "values", variant_path),
                                        _get(entry, "attributes", variant_path),
                                        name=entry.get("name")))
            return ExplicitAttributeDependency(_get(data, "lhs", path),
                                               _get(data, "rhs", path), variants)
        if kind == "fd":
            return FunctionalDependency(_get(data, "lhs", path), _get(data, "rhs", path))
        if kind == "ad":
            return AttributeDependency(_get(data, "lhs", path), _get(data, "rhs", path))
    except SerializationError:
        raise
    except (TypeError, ValueError, ReproError) as exc:
        raise _fail(path, "invalid {} dependency: {}".format(kind, exc)) from exc
    raise _fail(path, "unknown dependency kind {!r}".format(kind))


# -- table definitions ---------------------------------------------------------------------------


def table_definition_to_dict(definition) -> dict:
    """Convert a :class:`~repro.engine.catalog.TableDefinition` (schema only)."""
    return {
        "name": definition.name,
        "scheme": scheme_to_dict(definition.scheme),
        "domains": {attr: domain_to_dict(domain)
                    for attr, domain in definition.domains.items()},
        "key": list(definition.key.names) if definition.key is not None else None,
        "dependencies": [dependency_to_dict(d) for d in definition.dependencies],
        "indexes": [list(index.names) for index in definition.indexes],
    }


def table_definition_from_dict(entry: dict, path: str = "table") -> dict:
    """Decode a table-definition document into ``create_table`` keyword form."""
    _as_object(entry, path)
    name = _get(entry, "name", path)
    if not isinstance(name, str) or not name:
        raise _fail(path + ".name", "table name must be a non-empty string")
    raw_domains = entry.get("domains", {})
    _as_object(raw_domains, path + ".domains")
    raw_dependencies = entry.get("dependencies", [])
    if not isinstance(raw_dependencies, list):
        raise _fail(path + ".dependencies", "expected a list of dependencies")
    return {
        "name": name,
        "scheme": scheme_from_dict(_get(entry, "scheme", path),
                                   path=path + ".scheme"),
        "domains": {attr: domain_from_dict(d, path="{}.domains[{!r}]".format(path, attr))
                    for attr, d in raw_domains.items()},
        "key": entry.get("key"),
        "dependencies": [dependency_from_dict(d, path="{}.dependencies[{}]".format(path, i))
                         for i, d in enumerate(raw_dependencies)],
        "indexes": entry.get("indexes"),
    }


# -- whole databases -----------------------------------------------------------------------------------


def _table_entries(database: Database, include_data: bool):
    """Each table's document without its rows, and the table whose rows go
    under ``"tuples"`` (``None`` without data)."""
    for name in database.tables():
        entry = table_definition_to_dict(database.catalog.definition(name))
        table = None
        if include_data:
            table = database.table(name)
            statistics = database.statistics.get(name)
            if statistics is not None:
                entry["statistics"] = statistics.to_dict()
        yield entry, table


def database_to_dict(database: Database, include_data: bool = True) -> dict:
    """Convert a database (catalog and, optionally, the stored tuples) to a dictionary.

    Each table's tuples are listed in store (insertion) order.  Fresh planner
    statistics ride along with the data (they describe exactly the serialized
    tuples); without data, or when stale, they are omitted.
    """
    tables = []
    for entry, table in _table_entries(database, include_data):
        if table is not None:
            # store order: no comparison of values (a column may mix NULL
            # with numbers), and a reload restores the scan order
            entry["tuples"] = [t.as_dict() for t in table]
        tables.append(entry)
    return {"format_version": FORMAT_VERSION, "tables": tables}


#: stored rows per encoder call in :func:`database_json_pieces`
ROWS_PER_PIECE = 1024

#: the C encoder (one-shot calls, no indent): compact and key-sorted
_encode_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def database_json_pieces(database: Database) -> Iterator[str]:
    """``database_to_dict(database)``'s document as compact, key-sorted JSON
    text, in pieces whose concatenation is the whole document.

    A table's definition and statistics are one encoder call; its rows follow
    in store order, :data:`ROWS_PER_PIECE` stored value dicts a call (no
    copies), so neither the document nor its text is ever held whole.
    ``"tuples"`` sorts after every other key of a table's entry, so the rows
    close it.
    """
    yield '{"format_version":%d,"tables":[' % FORMAT_VERSION
    separator = ""
    for entry, table in _table_entries(database, include_data=True):
        yield separator + _encode_compact(entry)[:-1] + ',"tuples":['
        rows, row_separator = iter(table), ""
        chunk = [row._values for row in islice(rows, ROWS_PER_PIECE)]
        while chunk:
            yield row_separator + _encode_compact(chunk)[1:-1]
            chunk = [row._values for row in islice(rows, ROWS_PER_PIECE)]
            row_separator = ","
        yield "]}"
        separator = ","
    yield "]}"


def _tuple_objects(raw_tuples: list, path: str):
    """The document's tuples in order, each vetted as it is handed on — the
    rows before a malformed one are loaded, as they would be row by row."""
    for tuple_index, values in enumerate(raw_tuples):
        if not isinstance(values, dict):
            raise _fail("{}.tuples[{}]".format(path, tuple_index),
                        "expected an object of attribute values")
        yield values


def populate_database_from_dict(database: Database, data: dict) -> Database:
    """Load a :func:`database_to_dict` document into an existing database.

    The database is expected to be empty (a fresh construction or a durable
    database in recovery); tables are created and filled in document order,
    each table's tuples by one :meth:`Table.insert_many`.
    Structural problems raise :class:`SerializationError` naming the offending
    path; constraint violations of the *data* propagate unchanged (they name
    the violated constraint, which is more useful than a document path).
    """
    _as_object(data, "")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            "unsupported format_version {!r} (this build reads version {})".format(
                version, FORMAT_VERSION))
    raw_tables = data.get("tables", [])
    if not isinstance(raw_tables, list):
        raise _fail("tables", "expected a list of tables")
    for index, entry in enumerate(raw_tables):
        path = "tables[{}]".format(index)
        spec = table_definition_from_dict(entry, path=path)
        try:
            table = database.create_table(
                spec["name"], spec["scheme"], domains=spec["domains"],
                key=spec["key"], dependencies=spec["dependencies"],
                indexes=spec["indexes"],
            )
        except (TypeError, ValueError) as exc:
            raise _fail(path, "invalid table definition: {}".format(exc)) from exc
        raw_tuples = entry.get("tuples", [])
        if not isinstance(raw_tuples, list):
            raise _fail(path + ".tuples", "expected a list of tuples")
        table.insert_many(_tuple_objects(raw_tuples, path))
        statistics = entry.get("statistics")
        if statistics is not None:
            try:
                restored = TableStatistics.from_dict(statistics)
            except (KeyError, TypeError, ValueError) as exc:
                raise _fail(path + ".statistics",
                            "malformed statistics: {}".format(exc)) from exc
            # The statistics describe exactly the tuples just loaded: restore
            # them as fresh so the planner can use them without a re-ANALYZE.
            database.statistics.restore(spec["name"], restored)
    return database


def database_from_dict(data: dict, enforce_constraints: bool = True) -> Database:
    """Rebuild a database from :func:`database_to_dict` output."""
    database = Database(enforce_constraints=enforce_constraints)
    return populate_database_from_dict(database, data)


def dump_database(database: Database, file, include_data: bool = True, indent: int = 2) -> None:
    """Write a database to a file path or an open text file.

    Given a path (``str`` / ``os.PathLike``) the write is atomic: the document
    lands in a temp file first and is renamed over the target only once it is
    complete and fsynced, so a crash mid-dump never leaves a half-written
    snapshot where a reader expects a valid one.
    """
    payload = database_to_dict(database, include_data=include_data)
    if isinstance(file, (str, os.PathLike)):
        def write(handle):
            json.dump(payload, handle, indent=indent, sort_keys=True)
            handle.write("\n")

        atomic_write(os.fspath(file), write)
        return
    json.dump(payload, file, indent=indent, sort_keys=True)


def dumps_database(database: Database, include_data: bool = True) -> str:
    """Return the JSON document for a database as a string."""
    return json.dumps(database_to_dict(database, include_data=include_data), sort_keys=True)


def load_database(file, enforce_constraints: bool = True) -> Database:
    """Read a database from a file path or an open text file."""
    if isinstance(file, (str, os.PathLike)):
        data = load_json_file(os.fspath(file))
    else:
        try:
            data = json.load(file)
        except json.JSONDecodeError as exc:
            raise SerializationError("not valid JSON ({})".format(exc)) from exc
    return database_from_dict(data, enforce_constraints=enforce_constraints)


def loads_database(text: str, enforce_constraints: bool = True) -> Database:
    """Read a database from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError("not valid JSON ({})".format(exc)) from exc
    return database_from_dict(data, enforce_constraints=enforce_constraints)
