"""The package's surface is what the CLI, the scripts and the benchmark
use: every module-level function and constant in src/tetgroups, and every
method and property of its classes, has a reader there.  A method that is
not a property is read only where it is called (x.name(...)) or named
through its class (Cls.name), so a field or property of the same name
elsewhere (PermTables.order, say) does not count as its reader."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tetgroups"
# __init__'s re-exports do not count
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def members(top):
    """(j, node) for each statement j of a class body and (None, node) for
    the class's decorators and bases, or (None, top) for any other
    top-level statement."""
    if not isinstance(top, ast.ClassDef):
        return [(None, top)]
    return ([(None, node) for node in top.decorator_list + top.bases + top.keywords]
            + list(enumerate(top.body)))


def references(path, strings):
    """(owner, name, via) for each name, attribute and imported name in a
    file, and each string constant when strings is set; owner is
    (path, i, j) for the file's i-th top-level statement, the one the
    reference sits in, and j the statement of its body it sits in when that
    is a class (else None).  via says how an attribute is read: "()" where
    it is called, the bare name it is read from (Cls in Cls.name), else
    None, as for every other reference."""
    refs = set()
    for at, top in enumerate(ast.parse(path.read_text()).body):
        for j, member in members(top):
            called = set()  # ast.walk reaches a call before its callee
            for node in ast.walk(member):
                if isinstance(node, ast.Call):
                    called.add(node.func)
                if isinstance(node, ast.Name):
                    refs.add(((path, at, j), node.id, None))
                elif isinstance(node, ast.Attribute):
                    via = ("()" if node in called else
                           node.value.id if isinstance(node.value, ast.Name) else None)
                    refs.add(((path, at, j), node.attr, via))
                elif isinstance(node, ast.ImportFrom):
                    refs |= {((path, at, j), alias.name, None) for alias in node.names}
                elif (strings and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    refs.add(((path, at, j), node.value, None))
    return refs


def unreferenced(defines):
    """The names that defines(top) gives for some top-level statement of a
    package module, as (j, name, vias) with j the class body statement that
    defines name (None for the top-level statement itself), and that
    nothing outside that statement refers to in src/tetgroups, scripts/ or
    perfbench/; with vias set, only a reference read one of those ways
    (references' via) counts.  perfbench/tracing.py names the functions it
    wraps as strings, so perfbench's strings count."""
    refs = set()
    for path in MODULES + sorted((ROOT / "scripts").glob("*.py")):
        refs |= references(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= references(path, strings=True)
    defined = [((path, at, j), name, vias) for path in MODULES
               for at, top in enumerate(ast.parse(path.read_text()).body)
               for j, name, vias in defines(top)]
    return [name for where, name, vias in defined
            if not any(ref == name and owner != where and (vias is None or via in vias)
                       for owner, ref, via in refs)]


def test_every_package_function_is_referenced_outside_the_tests():
    def functions(top):
        return [(None, top.name, None)] if isinstance(top, ast.FunctionDef) else []

    unread = unreferenced(functions)
    assert unread == [], f"only the tests call {unread}"


def test_every_package_constant_is_read_outside_the_tests():
    def constants(top):
        """Names a module-level assignment binds, dunders excluded."""
        if not isinstance(top, (ast.Assign, ast.AnnAssign)):
            return []
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [(None, node.id, None) for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)
                and not (node.id.startswith("__") and node.id.endswith("__"))]

    unread = unreferenced(constants)
    assert unread == [], f"only the tests read {unread}"


def test_every_package_method_is_referenced_outside_its_definition():
    def methods(top):
        """Each non-dunder method and property a class body defines; a
        method that is not a property is read only by a call or through
        its class."""
        if not isinstance(top, ast.ClassDef):
            return []
        return [(j, member.name, None if is_property(member) else {"()", top.name})
                for j, member in enumerate(top.body)
                if isinstance(member, ast.FunctionDef)
                and not (member.name.startswith("__") and member.name.endswith("__"))]

    def is_property(method):
        return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
                   for d in method.decorator_list)

    unread = unreferenced(methods)
    assert unread == [], f"only the tests call {unread}"
