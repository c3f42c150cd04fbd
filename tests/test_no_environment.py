"""Tooling guard: no module in the package reads the environment.

Argv and the files it names are the CLI's only input, so one command on the
same files always gives the same bytes.  Any ``environ`` or ``getenv``
name or attribute (``os.environ``, ``os.getenv``, ``from os import
environ``) anywhere in a module counts as a read.
"""

import ast
from pathlib import Path

import radtree

PACKAGE = Path(radtree.__file__).parent
NAMES = {"environ", "getenv"}


def environment_reads(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NAMES:
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{alias.name} (line {node.lineno})"
                         for alias in node.names if alias.name in NAMES)
    return found


def test_guard_detects_environment_reads():
    source = """
import os
from os import environ, getenv as ge

def table():
    return os.environ.get("X") or os.getenv("Y") or environ["Z"] or ge("W")
"""
    found = sorted(name.split()[0] for name in environment_reads(ast.parse(source)))
    assert found == ["environ"] * 3 + ["getenv"] * 2


def test_no_module_in_the_package_reads_the_environment():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: environment_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules}
    assert {name: reads for name, reads in found.items() if reads} == {}
