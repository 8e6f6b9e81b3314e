"""The package stays pure standard library: every absolute import in
src/kif names kif itself or a standard-library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kif"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_kif_and_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, name in _absolute_imports(tree):
            top = name.partition(".")[0]
            if top != "kif" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.relative_to(SRC.parent)}:{lineno}: {name}")
    assert not foreign, foreign
