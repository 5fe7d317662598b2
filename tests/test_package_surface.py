"""The package holds only what runs: every public function, class,
method and annotated class field in ``src/pfcc`` is referenced by the
package itself or by the benchmark harness, not only by tests.  The
references the acceptance criteria compare against live in
``tests/reference.py``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfcc"


#: The read nodes that count as a use: a bare name or an attribute.
ANY_READ = (ast.Name, ast.Attribute)


def public_definitions(tree: ast.Module):
    """(qualified name, name, node, reads) of each public module-level
    function and class, and of each public method of those classes;
    ``reads`` are the read nodes that count as a use."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node, ANY_READ
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item, ANY_READ


def is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple"
               for base in node.bases)


def public_fields(tree: ast.Module):
    """(qualified name, name, node, reads) of each public annotated field
    of a public module-level class.  A dataclass field is read only as an
    attribute (``obj.field``), so a local variable of the same spelling
    does not count; a ``NamedTuple`` field may also be read as the bare
    name it is unpacked into."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            reads = ANY_READ if is_named_tuple(node) else (ast.Attribute,)
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield f"{node.name}.{item.target.id}", item.target.id, item, reads


def name_reads(tree: ast.Module):
    """(name, line, node type) of every name and attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, ast.Name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, ast.Attribute


def unreferenced(definitions) -> list[str]:
    """Package definitions, from ``definitions(tree)``, whose name is read
    nowhere in the package or the benchmark harness outside their own
    lines, by a read of one of the definition's kinds."""
    package = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    reads = {path: list(name_reads(tree)) for path, tree in trees.items()}
    found = []
    for path in package:
        for qualified, name, node, kinds in definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(read == name and kind in kinds and not (where == path and line in own)
                       for where, names in reads.items() for read, line, kind in names):
                found.append(f"{path.stem}.{qualified}")
    return found


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced(public_definitions) == []


def test_every_public_field_is_read_outside_tests():
    assert unreferenced(public_fields) == []


def test_command_line_does_not_import_jsonschema():
    # pfcc checks a scenario file itself; jsonschema is only the tests'
    # reference for that check
    code = "import pfcc.cli, sys; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
