"""Structural guards over the package source: no dead entry points, no
dead options, no dead imports, one keyed PRF, one rule that counts an
unresolved scan, one stream of per-point seeds, no dunder alias and no
read of another module's private attribute.

An entry point is a top-level function or class, or a method of a
top-level class, in `src/orbitlab/*.py`, public or private; dunders and
decorated private ones (registered runners, properties) are not checked.
It is live if its name appears in `src/` or `demos/` outside its own `def`
or `class` body, as a name or an attribute.  Tests do not count: a path
that only tests reach is not part of the workbench.

An option is a parameter with a default on a top-level function or a
method of a top-level class.  It is live if some call in `src/` or
`demos/` to a function or class of its name (matched by name, as entry
points are) sets it, by keyword or by position.  An option that no such
call sets has one value, and that value belongs in the body.
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


# dunder method -> why the package defines it; the dead-entry-point guard
# skips dunders, so a dunder outside this list could be a second name for a
# named method
ALLOWED_DUNDERS = {
    "__init__": "constructors",
    "__new__": "Word interns its instances and Coset is a (part, rep) tuple",
    "__post_init__": "FactorSetting builds its spaces from its dataclass fields",
    "__repr__": "groups, specs, spaces and words print by name in reports and errors",
    "__str__": "a missing coordinate's error message",
    "__mul__": "word products g * h, the group law the paper writes",
    "__pow__": "word powers a^n, as the paper writes them",
    "__enter__": "`with check.unresolved:` counts an unresolved scan",
    "__exit__": "`with check.unresolved:` counts an unresolved scan",
}


# qualified parameter -> why it keeps its default although nothing in src/ or
# demos/ sets it
ALLOWED_UNSET = {
    "actions.CoinducedAction.__init__.r_mode": "the reference test "
                                               "test_twisted_equals_coinduced_with_retraction "
                                               "builds the retraction mode",
    "cli.run_suite.stream": "tests capture the output",
    "cli.main.argv": "the console entry reads sys.argv",
    "constructions.match_determinacy_report.context_radius": "Tier-1 runs the 5e "
                                                             "measurement at 64 to stay fast",
    "words.cosets_ball.exponent_bound": "part of ball's length function, "
                                        "which cosets_ball takes whole",
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


def _options(tree):
    """(qualified name, callee name, position or None, parameter name) of
    every parameter with a default; a method's position does not count its
    self, and the callee of `__init__` is its class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    owned = [(node, "", node.name) for node in tree.body if isinstance(node, defs)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            owned += [(item, f"{cls.name}.",
                       cls.name if item.name == "__init__" else item.name)
                      for item in cls.body if isinstance(item, defs)]
    for fn, owner, callee in owned:
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if owner else 0
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield f"{owner}{fn.name}.{arg.arg}", callee, i - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{owner}{fn.name}.{arg.arg}", callee, None, arg.arg


def _calls(tree):
    """(callee name, call node) of every call of a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _sets(call, position, name) -> bool:
    if any(keyword.arg == name for keyword in call.keywords):
        return True
    return position is not None and len(call.args) > position and not any(
        isinstance(arg, ast.Starred) for arg in call.args[:position + 1])


def unset_options():
    calls = [found for path in SOURCES for found in _calls(_parse(path))]
    unset = []
    for path in MODULES:
        for qualname, callee, position, name in _options(_parse(path)):
            if not any(found == callee and _sets(call, position, name)
                       for found, call in calls):
                unset.append(f"{path.stem}.{qualname}")
    return unset


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


def test_every_dunder_method_is_allowlisted():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    dunders = {node.name for path in MODULES for node in ast.walk(_parse(path))
               if isinstance(node, defs) and node.name.startswith("__")
               and node.name.endswith("__")}
    assert dunders == set(ALLOWED_DUNDERS)


def test_every_option_is_set_by_some_call():
    assert [key for key in unset_options() if key not in ALLOWED_UNSET] == []


def test_allowlisted_options_still_exist_unset():
    assert sorted(key for key in unset_options() if key in ALLOWED_UNSET) == \
        sorted(ALLOWED_UNSET)


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


def test_only_spaces_calls_blake2b():
    # one keyed PRF: every seeded value, derived seed and sampled window
    # state is read through spaces.prf_value on a seed's keyed state
    callers = {path.name for path in MODULES if "blake2b(" in path.read_text()}
    assert callers == {"spaces.py"}


def _names_undetermined_error(node) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "UndeterminedError")
               or (isinstance(n, ast.Attribute) and n.attr == "UndeterminedError")
               for n in ast.walk(node))


def test_no_except_handler_counts_an_unresolved_scan():
    # an unresolved scan is counted by `with check.unresolved:` only; the
    # handlers that remain record a measurement, not a check's tally
    counting = []
    for path in MODULES:
        for handler in ast.walk(_parse(path)):
            if (isinstance(handler, ast.ExceptHandler) and handler.type is not None
                    and _names_undetermined_error(handler.type)):
                counting += [f"{path.name}:{node.lineno}"
                             for stmt in handler.body for node in ast.walk(stmt)
                             if isinstance(node, ast.Attribute) and node.attr == "undetermined"
                             and isinstance(node.ctx, ast.Store)]
    assert counting == []


def test_every_derive_seed_tag_is_a_literal():
    # per-point seeds derive_seed(seed, f"{tag}/{i}") come from seed_stream
    computed = []
    for path in MODULES:
        for name, call in _calls(_parse(path)):
            if name != "derive_seed":
                continue
            tags = call.args[1:2] + [k.value for k in call.keywords if k.arg == "tag"]
            if not all(isinstance(t, ast.Constant) and isinstance(t.value, str) for t in tags):
                computed.append(f"{path.name}:{call.lineno}")
    assert computed == []


def _defined_private_names(tree) -> set:
    """Names a module defines: a def, a class, an attribute
    store, a class-level assignment or a `__slots__` entry."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                defined.add(target.id)
                if target.id == "__slots__":
                    defined |= {n.value for n in ast.walk(stmt.value)
                                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return defined


def foreign_private_reads():
    """file:line name of every load of an `_underscore` attribute, not a
    dunder, off a receiver other than self or cls, that the loading module
    does not define itself."""
    reads = []
    for path in MODULES:
        tree = _parse(path)
        defined = _defined_private_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.attr
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            if name not in defined:
                reads.append(f"{path.name}:{node.lineno} {name}")
    return reads


def test_no_module_reads_another_modules_private_attribute():
    # a private name is read only in the module that defines it; another
    # module goes through a public method or the syllable encoding
    assert foreign_private_reads() == []
