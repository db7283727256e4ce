"""Every name that `deq` exports, and every public function, class and
method that its modules define, is used by the package, a demo or the
benchmark: a name that only the tests call is dead code in the package."""

import ast
import pathlib
import types

import deq

ROOT = pathlib.Path(__file__).resolve().parent.parent


def class_table(paths):
    """Class name -> (the functions its body defines, the names of its
    bases), for every class of the files."""
    classes = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
                classes[node.name] = (defined, bases)
    return classes


def ancestors(classes, name):
    """The class and its bases among `classes`, nearest first."""
    found, todo = [], [name]
    while todo:
        cls = todo.pop(0)
        if cls in classes and cls not in found:
            found.append(cls)
            todo.extend(classes[cls][1])
    return found


def owners(classes, name, attr):
    """The names "Class.attr" of the functions that a read of attr through
    class `name` can reach: that of the nearest of `name` and its bases that
    defines attr, and those of the subclasses of `name` that define it.
    Empty when no such class defines attr."""
    nearest = next((cls for cls in ancestors(classes, name) if attr in classes[cls][0]), None)
    reached = {cls for cls in classes
               if attr in classes[cls][0] and name in ancestors(classes, cls)}
    return {"%s.%s" % (cls, attr) for cls in reached | {nearest} - {None}}


def used_names(paths):
    """Every name the files read or import from deq. An attribute read
    through `self` or `cls` in a package class's body, or through a package
    class's name, counts as "Class.attr" for the classes that define it;
    any other attribute read counts by its bare name."""
    classes = class_table(package_paths())
    used = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            owner = cls if base in ("self", "cls") else base
            resolved = owners(classes, owner, node.attr) if owner in classes else set()
            used.update(resolved or {node.attr})
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("deq")):
            used.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), None)
    return used


def package_paths():
    return [p for p in sorted((ROOT / "src" / "deq").glob("*.py")) if p.name != "__init__.py"]


def caller_paths():
    return (package_paths() + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def public_definitions(path):
    """(qualified name, name) of each public module-level function and class
    of the file, and of each public method of those classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield "%s.%s" % (node.name, item.name), item.name


def test_every_export_has_a_caller():
    used = used_names(caller_paths())
    modules = {name for name in deq.__all__
               if name == "classify" or isinstance(getattr(deq, name), types.ModuleType)}
    dead = sorted(set(deq.__all__) - used - modules)
    assert dead == [], "exported, but used only by the tests: %s" % ", ".join(dead)


def test_every_public_definition_has_a_caller():
    """`cli.cmd_*` is exempt: `main` dispatches to it by name."""
    used = used_names(caller_paths())
    dead = ["%s.%s" % (path.stem, qualified)
            for path in package_paths() for qualified, name in public_definitions(path)
            if qualified not in used and name not in used
            and not (path.stem == "cli" and name.startswith("cmd_"))]
    assert dead == [], "defined, but used only by the tests: %s" % ", ".join(dead)
