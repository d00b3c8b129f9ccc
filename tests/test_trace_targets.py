"""The benchmark's trace targets must stay patchable.

`perfbench/tracing.py` wraps a ring method only where the owner's own class
dict binds it, so a target that is merely inherited would silently trace as
zero calls.  This loads that file by path, unchanged, and checks every entry.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# Every functools cache in the package, as `find_caches()` names them.
CACHES = [
    "ellgen.bundle_route._ahat_s", "ellgen.bundle_route._ch_monomial_s", "ellgen.bundle_route._index_class",
    "ellgen.bundle_route._power_ch", "ellgen.bundle_route._power_sum_terms", "ellgen.bundle_route._s_basis",
    "ellgen.bundle_route._scaled_tangent_ch", "ellgen.bundle_route.witten_terms", "ellgen.bundles.expand_witten",
    "ellgen.genera.ahat_class", "ellgen.modular._basis",
    "ellgen.pontryagin._newton_terms", "ellgen.pontryagin.genus_columns", "ellgen.pontryagin.partition_from_str",
    "ellgen.pontryagin.partitions_of", "ellgen.theta.genus_root_series", "ellgen.theta.theta_factor",
]


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


def test_tracer_finds_every_cache_and_target_right_after_a_cli_import():
    # A fresh child, as the benchmark's: the submodules are still unloaded
    # when find_caches() and install() first touch them.
    code = f"""
import importlib.util, json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import ellgen.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import ellgen
from ellgen import chern, genera
caches = sorted(tracing.find_caches())
original = genera.genus
tracer = tracing.Tracer()
tracer.install()
installed = [ellgen.cli.genus is genera.genus, ellgen.pair is chern.pair, genera.genus is not original]
tracer.uninstall()
print(json.dumps({{"caches": caches, "installed": installed, "restored": ellgen.cli.genus is original}}))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["caches"] == CACHES
    assert report["installed"] == [True, True, True]
    assert report["restored"] is True
