"""The names that perfbench/ reads from the package must stay where it looks.

perfbench/tracing.py wraps each of its TARGETS and reports a target it
cannot find as absent (None); perfbench/worker.py reads the rewrite memo
poly._NO_CACHE as a dict.  A refactor that moves one of these names then
shows up here, not as a null metric in the benchmark's result line.
The tracer's install() is not called: it would wrap the package's functions
for the rest of the session.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

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
