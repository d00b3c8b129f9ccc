"""The package namespace: every public name, resolved late from its submodule."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import ellgen

# The names `ellgen/__init__.py` imported eagerly from each submodule.
EXPORTED = {
    "bundles": [
        "BundleMonomial", "BundleQSeries", "VirtualBundlePoly", "ch_monomial", "ch_virtual",
        "ell2_via_bundles", "expand_witten", "index_bundle",
    ],
    "chern": [
        "Manifold", "Partition", "PontPoly", "RootSeries", "ch_tangent", "disjoint_union",
        "genus_class", "newton_power_sum", "pair", "partitions_of",
    ],
    "genera": [
        "Hypersurface", "ahat_class", "ahat_factor", "cancellation_class", "cancellation_residual",
        "genus", "hypersurface_genus", "hypersurface_pont", "signature_factor", "twisted_ahat",
        "twisted_ahat_series",
    ],
    "modular": [
        "ModBasisDecomp", "delta1", "delta2", "eps1", "eps2", "expand_in_basis", "numeric_eval",
        "reconstruct_ell1",
    ],
    "series": ["USeries"],
    "sobolev": [
        "MoserExponents", "moser_constant", "moser_exponents", "poincare_s", "radius_r",
        "sobolev_c", "sphere_volume", "wallis",
    ],
    "theta": ["GenusKind", "genus_root_series", "theta_factor", "weighted_product"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_public_name_is_its_submodule_object(module, name):
    assert getattr(ellgen, name) is getattr(importlib.import_module(f"ellgen.{module}"), name)


def test_all_and_dir_list_every_public_name():
    assert sorted(ellgen.__all__) == NAMES
    assert set(NAMES) <= set(dir(ellgen))
    assert set(EXPORTED) <= set(dir(ellgen))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ellgen import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {name: getattr(ellgen, name) for name in NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ellgen.no_such_name


def test_submodule_import_forms_agree():
    from ellgen import chern

    assert chern is sys.modules["ellgen.chern"] is importlib.import_module("ellgen.chern") is ellgen.chern


def test_reload_keeps_the_loaded_submodules():
    chern, manifold = sys.modules["ellgen.chern"], ellgen.Manifold
    importlib.reload(ellgen)
    assert sys.modules["ellgen.chern"] is chern and ellgen.chern is chern
    assert ellgen.Manifold is manifold


def test_every_module_level_definition_is_used_or_exported():
    # A function or class that no code in the package names, outside its own
    # body, and that `_EXPORTS` does not export is dead code.
    exported = {name for names in ellgen._EXPORTS.values() for name in names.split()}
    defined, used = [], set()
    for path in sorted(Path(ellgen.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)  # a def or class statement
            if owner is not None:
                defined.append((path.stem, owner))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != owner:
                    used.add(name)
    dead = [
        f"{module}.{name}" for module, name in defined
        if name not in used and name not in exported and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def test_every_module_level_import_is_used():
    # An import that nothing in its module names is dead.  `__init__.py`
    # re-exports by design, `from __future__` imports are directives, and a
    # line marked `# noqa` keeps a binding on purpose.
    unused = []
    for path in sorted(Path(ellgen.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in named and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.stem}: {bound}")
    assert unused == []


def test_no_module_reads_the_environment():
    # A setting read from the environment is a hidden knob: every setting is an argument.
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(ellgen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", getattr(node, "id", None))
            if name in readers:
                found.append(f"{path.stem}:{node.lineno} {name}")
    assert found == []


def test_every_class_member_is_named_outside_the_unit_tests():
    # A class member that only unit tests call is a wrapper the package does not need.  A member
    # counts as named when code in `src/`, `scripts/`, `perfbench/` or the acceptance suite
    # reads it as an attribute or a name, or spells it in a dotted string (a trace target,
    # `_bound_name`); an attribute set to a string is named by that string too (an `Enum`
    # member read by value), and dunders are called by the language itself.
    root = Path(ellgen.__file__).parents[2]
    paths = [*root.glob("src/**/*.py"), *root.glob("scripts/**/*.py"), *root.glob("perfbench/**/*.py")]
    named = set()
    for path in [*paths, root / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(getattr(node, "attr", None) or node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isascii():
                if all(part.isidentifier() for part in node.value.split(".")):
                    named.update(node.value.split("."))
    unnamed = []
    for path in sorted(Path(ellgen.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    members = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                value = getattr(stmt, "value", None)
                by_value = isinstance(value, ast.Constant) and value.value in named
                unnamed += [
                    f"{path.stem}.{cls.name}.{name}" for name in members
                    if name not in named and not by_value and not (name.startswith("__") and name.endswith("__"))
                ]
    assert unnamed == []
