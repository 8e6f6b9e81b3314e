"""Every private module-level name of the package is read somewhere in it.

A private name (one underscore, not a dunder) bound at the top level of a
module, by an assignment, a def or a class, is only there for the package's
own code. It counts as read when some module of the package loads it as a
name or reads it as an attribute; the tests do not count.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kif"


def _private_bindings(tree: ast.Module) -> dict[str, int]:
    """Private name bound by each top-level statement of *tree* -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _reads(tree: ast.Module) -> set[str]:
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_every_private_module_level_name_is_read():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    read = set().union(*map(_reads, trees.values()))
    unread = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
              for path, tree in trees.items()
              for name, line in _private_bindings(tree).items() if name not in read]
    assert unread == []
