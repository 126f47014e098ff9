"""The package's surface is what the CLI, the scripts and the benchmark
use: every module-level function and constant in src/tetgroups has a
reader there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tetgroups"
# __init__'s re-exports do not count
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def references(path, strings):
    """(owner, name) for each name, attribute and imported name in a file,
    and each string constant when strings is set; owner is (path, i) for
    the file's i-th top-level statement, the one the reference sits in."""
    refs = set()
    for at, top in enumerate(ast.parse(path.read_text()).body):
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add(((path, at), node.id))
            elif isinstance(node, ast.Attribute):
                refs.add(((path, at), node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs |= {((path, at), alias.name) for alias in node.names}
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                refs.add(((path, at), node.value))
    return refs


def unreferenced(defines):
    """The names that defines(top) gives for some top-level statement of a
    package module and that nothing outside that statement refers to in
    src/tetgroups, scripts/ or perfbench/.  perfbench/tracing.py names the
    functions it wraps as strings, so perfbench's strings count."""
    refs = set()
    for path in MODULES + sorted((ROOT / "scripts").glob("*.py")):
        refs |= references(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= references(path, strings=True)
    defined = [((path, at), name) for path in MODULES
               for at, top in enumerate(ast.parse(path.read_text()).body)
               for name in defines(top)]
    return [name for where, name in defined
            if not any(ref == name and owner != where for owner, ref in refs)]


def test_every_package_function_is_referenced_outside_the_tests():
    def functions(top):
        return [top.name] if isinstance(top, ast.FunctionDef) else []

    unread = unreferenced(functions)
    assert unread == [], f"only the tests call {unread}"


def test_every_package_constant_is_read_outside_the_tests():
    def constants(top):
        """Names a module-level assignment binds, dunders excluded."""
        if not isinstance(top, (ast.Assign, ast.AnnAssign)):
            return []
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)
                and not (node.id.startswith("__") and node.id.endswith("__"))]

    unread = unreferenced(constants)
    assert unread == [], f"only the tests read {unread}"
