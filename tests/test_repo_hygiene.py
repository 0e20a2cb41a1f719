"""Checks on the repository itself rather than on the engine's behaviour:
the CI workflow parses and names files that exist, no module of ``src/``
imports a name it never uses, the constants ARCHITECTURE documents exist
with the values it states, every engine callable E20 traces exists (and a
reopen enters the recovery ones), and the census allowlist names defined
functions with a known reason."""

import ast
import glob
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestWorkflow:
    def test_ci_workflow_parses_and_names_existing_files(self):
        yaml = pytest.importorskip("yaml")
        workflow = yaml.safe_load(
            (ROOT / ".github" / "workflows" / "ci.yml").read_text())
        steps = [step for job in workflow["jobs"].values()
                 for step in job["steps"]]
        assert steps
        for step in steps:
            assert "run" in step or "uses" in step, step
            for path in re.findall(r"(?<![\w/.-])(?:tests|benchmarks)/[\w./*-]+",
                                   step.get("run", "")):
                assert glob.glob(str(ROOT / path)), \
                    "step {!r} names {}, which does not exist".format(
                        step.get("name"), path)


def _names_in(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations ("Optional[Table]") and ``__all__`` entries
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_in(tree)
    return ["{}:{}: {}".format(path.relative_to(ROOT), line, name)
            for name, line in sorted(imported.items()) if name not in used]


class TestImports:
    def test_no_module_of_src_imports_a_name_it_never_uses(self):
        """A top-level import must be used in the module or listed in its
        ``__all__``; ``__init__`` modules (re-export by design) are exempt."""
        unused = [finding
                  for path in sorted((ROOT / "src").rglob("*.py"))
                  if path.name != "__init__.py"
                  for finding in _unused_imports(path)]
        assert unused == []


def _module_constants(path):
    """``{name: source of the assigned value}`` of a module's top level."""
    source = path.read_text()
    constants = {}
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and node.value is not None:
                constants[target.id] = ast.get_source_segment(source, node.value)
    return constants


class TestConstantsTable:
    def test_every_documented_constant_has_its_stated_value(self):
        """Every row ``| `NAME` | value | `path` |`` of ARCHITECTURE's
        constants table names a module-level assignment in
        ``src/repro/<path>`` whose source is the value (underscores ignored);
        a row may pair names and values with `` / ``."""
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = text.split("## Reference: cost-model and planner constants")[1]
        rows = [line.split("|")[1:4] for line in section.split("\n## ")[0].splitlines()
                if line.startswith("| `")]
        assert len(rows) >= 18
        stale = []
        for names, values, path in rows:
            constants = _module_constants(ROOT / "src" / "repro" / path.strip().strip("`"))
            names, values = names.split(" / "), values.split(" / ")
            assert len(names) == len(values), names
            for name, value in zip(names, values):
                name, value = name.strip().strip("`"), value.strip().strip("`")
                actual = constants.get(name)
                if actual is None or actual.replace("_", "") != value.replace("_", ""):
                    stale.append("{} = {!r} in {}, documented as {}".format(
                        name, actual, path.strip(), value))
        assert stale == []


def _e20_trace():
    spec = importlib.util.spec_from_file_location(
        "e20_trace", ROOT / "benchmarks" / "e20" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


class TestE20TraceTargets:
    def test_every_engine_target_resolves(self):
        """E20's traced run wraps the engine callables named in
        ``benchmarks/e20/trace.py``; a renamed or removed one would silently
        read 0 in its layer metrics, so each ``repro.*`` target must resolve."""
        trace = _e20_trace()
        targets = [target for _name, target in trace.TARGETS
                   if target.startswith("repro.")]
        assert len(targets) >= 30
        assert [target for target in targets if trace.resolve(target) is None] == []

    def test_a_reopen_enters_the_populate_and_replay_targets_once(self, tmp_path):
        """``engine.populate_s_per_reopen`` and
        ``storage.recovery_replay_us_per_record`` read the spans of these two
        targets: a reopen that bypassed either would read 0 again.  Counted
        with E20's own wrapping (every module that imported the name)."""
        from repro.engine import Database
        from repro.workloads.employees import employee_definition, generate_employees

        trace, path = _e20_trace(), str(tmp_path / "db")
        database, definition = Database(durable_path=path), employee_definition()
        table = database.create_table(
            "employees", definition.scheme, domains=definition.domains,
            key=definition.key, dependencies=definition.dependencies)
        rows = generate_employees(25, seed=3)
        table.insert_many(rows[:20])
        database.checkpoint()
        table.insert_many(rows[20:])  # the log tail
        database.close()
        targets = dict(trace.TARGETS)
        for span in ("engine.populate", "storage.recovery_replay"):
            reopen = lambda: Database(durable_path=path).close()  # noqa: E731
            assert trace.count_calls(targets[span], reopen) == 1, span


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / "{}.py".format(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCensusAllowlist:
    def test_every_allowlist_line_names_a_defined_function_with_a_known_reason(self):
        """``tools/census_allowlist.txt`` cannot rot: each line names a
        function ``census.defined_functions()`` finds — not a dunder, which
        the census exempts by rule — once, with a reason from the vocabulary."""
        census = _load_tool("census")
        defined = {"{}:{}".format(pathlib.Path(path).relative_to(ROOT), name)
                   for (path, _line), name in census.defined_functions().items()}
        lines = [line.split("#", 1)[0].split() for line in
                 pathlib.Path(census.ALLOWLIST).read_text().splitlines()]
        entries = [fields for fields in lines if fields]
        assert entries and all(len(fields) == 2 for fields in entries)
        names = [name for name, _reason in entries]
        assert len(set(names)) == len(names)
        assert [name for name in names if name not in defined] == []
        assert [name for name in names if census.is_dunder(name)] == []
        assert {reason for _name, reason in entries} <= set(census.REASONS)
