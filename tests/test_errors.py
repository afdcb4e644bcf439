"""Every exception type the package declares is one that something tells
apart: a `raise` in the package raises it, or an `except` clause catches it
by name."""

import ast
from pathlib import Path

import pboost

PACKAGE = Path(pboost.__file__).resolve().parent


def _names(node) -> set[str]:
    """The type names an expression of a raise or except clause refers to:
    X, X(...), module.X and tuples of them."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _raised_or_caught() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    return used


def test_every_error_type_is_raised_or_caught():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert declared  # the parse found the classes
    assert sorted(declared - _raised_or_caught()) == []
