"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "landmix"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import log, pi\n"
        "x: np.ndarray = log(2)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "pi (line 4)"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's re-exports
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
