"""The package holds only what runs: every public function, class,
method and annotated class field in ``src/pfcc`` is referenced by the
package itself or by the benchmark harness, not only by tests, and so is
every defaulted parameter of a public function or method.  The references
the acceptance criteria compare against live in ``tests/reference.py``."""

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


def parsed_sources() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The package's modules, and the syntax tree of each of them and of
    each benchmark harness module."""
    package = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    return package, trees


def unreferenced(definitions) -> list[str]:
    """Package definitions, from ``definitions(tree)``, whose name is read
    nowhere in the package or the benchmark harness outside their own
    lines, by a read of one of the definition's kinds."""
    package, trees = parsed_sources()
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


#: Defaulted parameters that only tests pass: ``cli.main``'s ``argv`` is
#: the console entry point's, where None reads the command line, and the
#: tests' seam into the command line.
PASSED_BY_TESTS_ONLY = {"cli.main(argv)"}


def defaulted_parameters(tree: ast.Module):
    """(qualified name, node, parameter, position) of each defaulted
    parameter of a public function or method; ``position`` counts the
    positional arguments of a call that reach the parameter (a method's
    first one is its instance or class), None for a keyword-only one."""
    for qualified, _, node, _ in public_definitions(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = int("." in qualified and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
        defaulted = [(arg, index - bound) for index, arg in enumerate(positional)
                     if index >= len(positional) - len(args.defaults)]
        defaulted += [(arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        for arg, position in defaulted:
            yield qualified, node, arg.arg, position


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, by position, or
    through an unpacked ``*args`` or ``**kwargs``."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_outside_tests():
    # a default that no caller overrides is a constant written as an option
    package, trees = parsed_sources()
    calls = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for path in package:
        for qualified, node, parameter, position in defaulted_parameters(trees[path]):
            name = qualified.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any((call.func.id if isinstance(call.func, ast.Name)
                        else getattr(call.func, "attr", None)) == name
                       and not (where == path and call.lineno in own)
                       and passes(call, parameter, position)
                       for where, call in calls):
                found.append(f"{path.stem}.{qualified}({parameter})")
    assert sorted(set(found) - PASSED_BY_TESTS_ONLY) == []


def test_command_line_does_not_import_jsonschema():
    # pfcc checks a scenario file itself; jsonschema is only the tests'
    # reference for that check
    code = "import pfcc.cli, sys; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
