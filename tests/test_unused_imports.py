"""Every name an import binds in ``src/``, ``tests/``, ``jobs/``,
``benchmarks/`` and the root ``conftest.py`` is used in its module. No
linter is installed, so this scans the syntax trees itself: a name counts
as used if it is read anywhere in the module (annotations and quoted
annotations included) or listed in the module's ``__all__``. An import
kept for its side effect says so with a ``# noqa`` comment."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for d in ("src", "tests", "jobs", "benchmarks") for p in (ROOT / d).rglob("*.py")]
    + [ROOT / "conftest.py"]
)


def unused_imports(source: str):
    """(line, name) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        # a quoted annotation (argument, return value or variable)
        ann = getattr(node, "annotation", getattr(node, "returns", None))
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_and_keeps_used():
    source = (
        "import os\nimport sys  # noqa: F401\nfrom typing import Dict, List\n"
        "from . import a as b\nimport x.y\n__all__ = ['b']\n"
        "def f(v: 'Dict[str, int]') -> None:\n    x.y.z()\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "List")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
