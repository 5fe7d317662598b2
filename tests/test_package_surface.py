"""The package holds only what runs: every public function, class and
method in ``src/pfcc`` is referenced by the package itself or by the
benchmark harness, not only by tests.  The exceptions are the references
the acceptance criteria compare against."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfcc"

#: Reference implementations that only the acceptance criteria call.
ACCEPTANCE_REFERENCES = {"regressor", "rls_update_L", "verify_gain_identities",
                         "GainIdentityReport", "GainIdentityReport.max_residual",
                         "itfl_sets"}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def name_reads(tree: ast.Module):
    """(name, line) of every name and attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    package = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    reads = {path: list(name_reads(tree)) for path, tree in trees.items()}
    unreferenced = []
    for path in package:
        for qualified, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if qualified not in ACCEPTANCE_REFERENCES and not any(
                    name == node.name and not (where == path and line in own)
                    for where, names in reads.items() for name, line in names):
                unreferenced.append(f"{path.stem}.{qualified}")
    assert unreferenced == []


def test_command_line_does_not_import_jsonschema():
    # pfcc checks a scenario file itself; jsonschema is only the tests'
    # reference for that check
    code = "import pfcc.cli, sys; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
