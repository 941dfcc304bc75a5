"""Every top-level import in the package is used by its module, every
import, at any depth, comes from the standard library, numpy or the package,
and every top-level function and class of the package, and every method and
property of its classes, is named somewhere in src, tests or bench outside
its own definition."""

import ast
import sys
from pathlib import Path

import pytest

import ermrl

PACKAGE_DIR = Path(ermrl.__file__).parent
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "ermrl"}


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in __all__ counts as used (a re-export)."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_detector_flags_an_unused_import():
    src = "import json\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(src) == ["json (line 1)", "sep (line 2)"]


def test_detector_accepts_attribute_use_and_reexports():
    src = "import os.path\nfrom x import y\n__all__ = ['y']\nos.path.join('a')\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
REPO_DIR = Path(__file__).resolve().parent.parent


def referenced_names(source: str) -> set[str]:
    """Identifiers the module reads, imports, or names as a whole string (as
    getattr and monkeypatch.setattr take them); what a function, method or
    class says of its own name inside its own definition does not count."""
    names = set()

    def visit(node, own):
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.alias):
            found = [node.name.split(".")[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = [node.value] if node.value.isidentifier() else []
        else:
            found = []
        names.update(name for name in found if name not in own)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return names


def unreferenced_definitions(source: str, references: set[str]) -> list[str]:
    """The module's top-level functions and classes, and the methods and
    properties of those classes (as Class.name; dunders exempt), that no
    reference names."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, DEFINITIONS) and top.name not in references:
            found.append(top.name)
        if isinstance(top, ast.ClassDef):
            found += [f"{top.name}.{node.name}" for node in top.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (node.name.startswith("__") and node.name.endswith("__"))
                      and node.name not in references]
    return found


def test_detector_flags_an_unreferenced_definition():
    src = ("def used():\n    pass\n\ndef lonely():\n    return lonely()\n\n"
           "class Named:\n    pass\n\nclass Imported:\n    pass\n")
    elsewhere = "from m import Imported\nm.used()\ngetattr(m, 'Named')\n"
    refs = referenced_names(src) | referenced_names(elsewhere)
    assert unreferenced_definitions(src, refs) == ["lonely"]


def test_detector_flags_an_unreferenced_method_or_property():
    src = ("class Box:\n"
           "    def __init__(self):\n        self.fill()\n"
           "    def fill(self):\n        pass\n"
           "    def spin(self, n):\n        return self.spin(n - 1)\n"
           "    @property\n    def size(self):\n        return 0\n"
           "    @property\n    def weight(self):\n        return 0\n"
           "    @staticmethod\n    def make():\n        return Box()\n"
           "    def named(self):\n        pass\n")
    elsewhere = "Box.make().size\nsetattr(Box, 'named', None)\n"
    refs = referenced_names(src) | referenced_names(elsewhere)
    assert unreferenced_definitions(src, refs) == ["Box.spin", "Box.weight"]


@pytest.fixture(scope="module")
def repo_references() -> set[str]:
    paths = [*PACKAGE_DIR.glob("*.py"), *(REPO_DIR / "tests").glob("*.py"),
             *(REPO_DIR / "bench").glob("*.py")]
    return set().union(*(referenced_names(p.read_text()) for p in paths))


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path, repo_references):
    assert unreferenced_definitions(path.read_text(), repo_references) == []


def foreign_imports(source: str) -> list[str]:
    """Packages imported anywhere in the module, inside functions too, that
    are neither the standard library, numpy nor ermrl; relative imports are
    ermrl's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name.split('.')[0]} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in ALLOWED_ROOTS]
    return found


def test_guard_flags_imports_inside_functions():
    src = ("import os\nfrom . import nn\n\ndef f():\n"
           "    import matplotlib.pyplot as plt\n    from scipy import stats\n")
    assert foreign_imports(src) == ["matplotlib (line 5)", "scipy (line 6)"]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_only_numpy_beyond_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
