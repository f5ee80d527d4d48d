"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multifuture"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that are never referenced or exported."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: dumps"]


def test_no_unused_module_level_import():
    found = [f"{path.relative_to(SRC)} {entry}"
             for path in sorted(SRC.rglob("*.py"))
             for entry in unused_imports(path.read_text())]
    assert found == []
