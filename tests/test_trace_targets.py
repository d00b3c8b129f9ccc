"""The benchmark's trace targets must stay patchable.

`perfbench/tracing.py` wraps a ring method only where the owner's own class
dict binds it, so a target that is merely inherited would silently trace as
zero calls.  This loads that file by path, unchanged, and checks every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module_name, path", _targets())
def test_trace_target_is_bound_in_its_owner(name, module_name, path):
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr)), name
    assert attr in vars(owner), f"{name}: {path} is inherited, not bound in {owner.__name__}"
