"""Checks on the repository itself rather than on the engine's behaviour:
the CI workflow parses and names files that exist, and no module of ``src/``
imports a name it never uses."""

import ast
import glob
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
