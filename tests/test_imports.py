"""Every top-level import in the package is used by its module, and every
import, at any depth, comes from the standard library, numpy or the package."""

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
