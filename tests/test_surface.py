"""The package's surface is what the CLI, the scripts and the benchmark
use: every module-level function in src/tetgroups has a caller there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tetgroups"


def references(path, strings):
    """(owner, name) for each name, attribute and imported name in a file,
    and each string constant when strings is set; owner is (path, name) of
    the module-level function the reference sits in, else None."""
    refs = set()
    for top in ast.parse(path.read_text()).body:
        owner = (path, top.name) if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                refs.add((owner, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs |= {(owner, alias.name) for alias in node.names}
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                refs.add((owner, node.value))
    return refs


def test_every_package_function_is_referenced_outside_the_tests():
    # __init__'s re-exports do not count; perfbench/tracing.py names the
    # functions it wraps as strings, so perfbench's strings do
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    refs = set()
    for path in modules + sorted((ROOT / "scripts").glob("*.py")):
        refs |= references(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= references(path, strings=True)
    defined = [(path, top.name) for path in modules
               for top in ast.parse(path.read_text()).body
               if isinstance(top, ast.FunctionDef)]
    unreferenced = [name for path, name in defined
                    if not any(ref == name and owner != (path, name)
                               for owner, ref in refs)]
    assert unreferenced == [], f"only the tests call {unreferenced}"
