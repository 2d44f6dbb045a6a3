"""Every module under ``src/heurlab`` uses each name it imports, and every
package ``__init__`` defines each name its ``__all__`` exports.

A package ``__init__`` imports names to re-export them, so its imports are
exempt from the first check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heurlab"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")
PACKAGES = sorted(SRC.rglob("__init__.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # An attribute chain such as ``np.array`` starts at a Name, and
    # ``from __future__ import annotations`` still parses annotations.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_check_sees_unused_names():
    source = "import math\nimport os.path\nfrom typing import Sequence as Seq\nfrom x import y\nprint(y)\n"
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: Seq"]
    assert unused_imports("import numpy as np\nv = np.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stale_exports(source: str) -> list[str]:
    """Names in ``__all__`` that the module neither imports, defines nor assigns."""
    tree = ast.parse(source)
    exported = []
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined.update(names)
    return [name for name in exported if name not in defined]


def test_the_check_sees_stale_exports():
    source = "from .a import b\nimport c.d\nX = 1\ndef f(): pass\nclass K: pass\n"
    source += '__all__ = ["b", "c", "X", "f", "K", "gone"]\n'
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", PACKAGES, ids=lambda path: str(path.relative_to(SRC)))
def test_package_defines_every_export(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []
