"""Tooling guard: no function in the package calls itself by name.

Trees may nest deeper than the interpreter's recursion limit, so every walk
over them keeps an explicit stack.  A call of the enclosing function's own
name (or ``self.name`` / ``cls.name`` in a method) anywhere in its body,
nested functions included, counts as recursion.
"""

import ast
from pathlib import Path

import radtree

PACKAGE = Path(radtree.__file__).parent


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if isinstance(target, ast.Name) and target.id == func.name:
                found.append(f"{func.name} (line {call.lineno})")
            elif (isinstance(target, ast.Attribute) and target.attr == func.name
                  and isinstance(target.value, ast.Name) and target.value.id in ("self", "cls")):
                found.append(f"{func.name} (line {call.lineno})")
    return found


def test_guard_detects_recursion():
    source = """
def outer(n):
    def inner(k):
        return inner(k - 1) if k else 0
    return inner(n)

class Tree:
    def size(self):
        return 1 + sum(c.size() for c in self.children) + self.size()
"""
    assert [name.split()[0] for name in self_calls(ast.parse(source))] == ["inner", "size"]


def test_no_function_in_the_package_recurses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: self_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}
