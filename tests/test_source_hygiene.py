"""Structural guards over the package source: no dead entry points and no
dead imports.

An entry point is a top-level function or class, or a method of a
top-level class, in `src/orbitlab/*.py`, public or private; dunders and
decorated private ones (registered runners, properties) are not checked.
It is live if its name appears in `src/` or `demos/` outside its own `def`
or `class` body, as a name or an attribute.  Tests do not count: a path
that only tests reach is not part of the workbench.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "orbitlab").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "demos").glob("*.py"))

# qualified name -> why it stays although nothing in src/ or demos/ names it
ALLOWED_UNNAMED = {
    "actions.rotation_action": "the reference test_twisted_equals_coinduced_with_retraction "
                               "compares TwistedCosetShift against",
    "groups.FiniteGroup.element_order": "a group fact the group tests check",
    "words.Word.letters": "the independent recursion "
                          "test_omega_transfer_cross_module_equality peels words with",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _checked(node) -> bool:
    """Public names, and private non-dunder names that carry no decorator."""
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return False
    return not name.startswith("_") or not node.decorator_list


def _entry_points(tree):
    """(qualified name, def node) of every checked function, class and
    method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            if _checked(node):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if _checked(node):
                yield node.name, node
            for item in node.body:
                if isinstance(item, defs) and _checked(item):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(identifier, line) of every name and attribute read or bound."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def dead_entry_points():
    refs = {path: list(_references(_parse(path))) for path in SOURCES}
    dead = []
    for path in MODULES:
        for qualname, node in _entry_points(_parse(path)):
            own = range(node.lineno, node.end_lineno + 1)
            live = any(name == node.name and not (where == path and line in own)
                       for where, found in refs.items() for name, line in found)
            key = f"{path.stem}.{qualname}"
            if not live and key not in ALLOWED_UNNAMED:
                dead.append(key)
    return dead


def unused_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
                   if name not in used]
    return unused


def test_every_public_function_and_method_is_named_outside_its_def():
    assert dead_entry_points() == []


def test_allowlisted_entry_points_still_exist():
    names = {f"{path.stem}.{qualname}" for path in MODULES
             for qualname, _ in _entry_points(_parse(path))}
    assert set(ALLOWED_UNNAMED) <= names


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []


def test_only_the_suite_runner_touches_the_garbage_collector():
    # run_suite pauses the collector per check; a library call must leave
    # the caller's collector state alone
    importers = set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "gc" in names:
                importers.add(path.name)
    assert importers == {"cli.py"}
