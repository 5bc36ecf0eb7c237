"""Source hygiene checks over the package and its tests, standard library only."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_flagged():
    assert unused_imports("import os\nfrom a import b as c, d\nprint(d)\n") == \
        ["c (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "__all__ = ['x']\nfrom m import x\nos.sep\n") == []


def test_no_unused_imports():
    assert SOURCES
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}
