"""Every private top-level name in `src/molcool` is used by the package.

A private function or constant that only the tests call is test code
kept in the package, and belongs in the tests.  A name counts as used
when another top-level statement of any module reads it, imports it or
reads it as an attribute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "molcool"


def defined_names(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def referenced_names(node):
    """The names a statement reads, imports or reads as an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_every_private_top_level_name_is_used_by_the_package():
    statements = [
        (path.name, node, set(referenced_names(node)))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    unused = [
        f"{module}:{node.lineno} {name}"
        for module, node, _ in statements
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used for _, other, used in statements if other is not node)
    ]
    assert unused == []
