"""The names that perfbench/ reads from the package must stay where it looks.

perfbench/tracing.py wraps each of its TARGETS and reports a target it
cannot find as absent (None); perfbench/worker.py reads the rewrite memo
poly._NO_CACHE as a dict.  A refactor that moves one of these names then
shows up here, not as a null metric in the benchmark's result line.
The tracer's install() is not called: it would wrap the package's functions
for the rest of the session.  perfbench/reference.py checks answers with
names from weylorder.__all__ only, so those names must stay exported.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402

import weylorder  # noqa: E402
from weylorder import poly  # noqa: E402


@pytest.mark.parametrize("prefix, module_name, attr, kind", tracing.TARGETS,
                         ids=[target[0] for target in tracing.TARGETS])
def test_trace_target_resolves(prefix, module_name, attr, kind):
    # resolved as Tracer.install resolves it: a method from its class's own
    # vars(), anything else as a module attribute
    module = importlib.import_module(f"weylorder.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        original = vars(owner).get(name)
    else:
        original = getattr(module, name, None)
    assert callable(original), f"{prefix}: weylorder.{module_name}.{attr} is gone"


def test_rewrite_memo_is_a_dict():
    assert isinstance(poly._NO_CACHE, dict)


def _top_level_names():
    """Names perfbench/ takes from the package top level, submodules left out."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "weylorder":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "_wl"):  # reference.py: self._wl = weylorder
                names.add(node.attr)
    return {name for name in names if importlib.util.find_spec(f"weylorder.{name}") is None}


def test_top_level_names_are_public():
    names = _top_level_names()
    assert names >= {"render", "weyl_via_cg", "weyl_bruteforce", "weyl_forced",
                     "weyl_normal_form"}
    assert sorted(names - set(weylorder.__all__)) == []
