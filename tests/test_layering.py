"""Tooling guard: the package's modules form layers.

Each module may import only the modules before it in LAYERS, so what
several modules read is worked out once, low down (a preorder sequence's
shape in tree.py), and no module reaches up into a later one.  ``__init__``,
which re-exports the public names, is exempt.
"""

import ast
from pathlib import Path

import radtree

PACKAGE = Path(radtree.__file__).parent
LAYERS = ("errors", "textio", "tree", "table", "treesim", "metrics", "stats", "targets", "cli")


def package_imports(source: str) -> set[str]:
    """The radtree modules that ``source`` imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "radtree" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            names = [base] if base != "radtree" else [f"radtree.{a.name}" for a in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("radtree."))
    return found


def test_guard_reads_every_import_form():
    source = """
import json
import radtree.tree
from . import errors
from .table import DecompositionTable
from radtree.treesim import char_sim
from radtree import metrics
"""
    assert package_imports(source) == {"tree", "errors", "table", "treesim", "metrics"}


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


def test_each_module_imports_only_earlier_layers():
    late = {}
    for rank, name in enumerate(LAYERS):
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        imported = package_imports(source) - set(LAYERS[:rank])
        if imported:
            late[name] = sorted(imported)
    assert late == {}
