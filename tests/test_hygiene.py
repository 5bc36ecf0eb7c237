"""Source hygiene checks over the package and its tests, standard library only."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import weylorder
from weylorder import cli, textio

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
PACKAGE = ROOT / "src" / "weylorder"


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


def unread_names(modules: dict, excused=frozenset()) -> list:
    """Definitions in {module name: source} that no module reads.

    A module-level function, class or constant counts as read when its name is
    loaded or read as an attribute anywhere; a non-dunder method only when it
    is read as an attribute.  Names in ``excused`` ("module.name" or
    "module.Class.method") are not reported.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                            and item.name not in attrs):
                        unread.append(f"{module}.{node.name}.{item.name}")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                defined = []
            unread += [f"{module}.{name}" for name in defined
                       if name not in names and name not in attrs]
    return sorted(name for name in unread if name not in excused)


def test_test_only_names_are_flagged():
    # a loop variable i does not read the method C.i; an unread dunder is not reported
    modules = {"m": "class C:\n    def i(self): pass\n    def j(self): pass\n"
                    "    def __len__(self): return 0\n"
                    "X = 1\ndef f(): pass\ndef g(): return X\n",
               "n": "from m import C\nfor i in range(3): C().j()\nprint(g)\n"}
    assert unread_names(modules) == ["m.C.i", "m.f"]
    assert unread_names({"m": "def f(): pass\n"}, excused={"m.f"}) == []


def test_no_test_only_names_in_src():
    # a name of the public surface is read by library users, wherever it is defined
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert modules
    public = {f"{module}.{name}" for module in modules for name in weylorder.__all__}
    # namedtuple's own _replace reads _make, which these two route through their constructor
    hooks = {"altroutes.BosonString._make", "quantize.PolySystem._make"}
    assert unread_names(modules, public | hooks) == []


def test_only_scalar_reads_the_stored_form():
    # a Scalar's stored ints go out through scalar._parts alone
    readers = [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src").rglob("*.py"))
               if path.name != "scalar.py" and any(
                   isinstance(node, ast.Attribute) and node.attr == "_v"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]
    assert readers == []


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI run imports weylorder.cli; -S keeps site hooks from hiding or adding an import
    code = "import sys, weylorder.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_reads_formats_from_textio():
    # textio spells every format; cli takes its --format choices and no private name from it
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "textio" for alias in node.names if alias.name.startswith("_")]
    assert private == []
    choices = {name: options["--format"][2] for name, (*_, options) in cli.COMMANDS.items()
               if "--format" in options}
    assert set(choices) == {"weyl", "normal-order", "coeffs", "quantize"}
    assert all(formats is textio.FORMATS for formats in choices.values())
