"""Every name that `deq` exports, and every public function, class and
method that its modules define, is used by the package, a demo or the
benchmark: a name that only the tests call is dead code in the package."""

import ast
import pathlib
import types

import deq

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Exported with no caller in the package, the demos or the benchmark, and
# kept on purpose.
ALLOWED = {
    # statements of the paper, checked by the theorem tests
    "universal_map": "the universal property of D(R)",
    "induce_from_module": "the dimodule induced from a module",
    "induce_from_comodule": "the dimodule induced from a comodule",
    "r_sigma": "R_sigma solves the equation for every comodule and D-map",
    # subjects of the acceptance criteria
    "conjugate": "conjugation by u (x) u keeps every verdict",
    "sigma_form": "eps (x) f is a D-map for every linear f",
    "delta_form": "delta_ij a is a strong D-map on comatrix(n)",
    # checked entry points for user input
    "trivial_comodule": "the checked comodule m -> m (x) 1 of a bialgebra",
}


def used_names(paths):
    """Every name the files read, import from deq or reach as an attribute."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("deq")):
                used.update(alias.name for alias in node.names)
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
    dead = sorted(set(deq.__all__) - used - modules - set(ALLOWED))
    assert dead == [], "exported, but used only by the tests: %s" % ", ".join(dead)
    assert set(ALLOWED) <= set(deq.__all__) - used, "an allowed name now has a caller"


def test_every_public_definition_has_a_caller():
    """`cli.cmd_*` is exempt: `main` dispatches to it by name."""
    used = used_names(caller_paths())
    dead = ["%s.%s" % (path.stem, qualified)
            for path in package_paths() for qualified, name in public_definitions(path)
            if name not in used and name not in ALLOWED
            and not (path.stem == "cli" and name.startswith("cmd_"))]
    assert dead == [], "defined, but used only by the tests: %s" % ", ".join(dead)
