"""Exact computation of elliptic genera and friends.

Genera of 4n-manifolds (signature, A-hat, Ell_1, Ell_2, Witten) from
Pontryagin numbers or hypersurface descriptors, with exact rational
q-expansions; lambda-ring expansion of the Witten bundles; the
delta/epsilon modular forms over Gamma_0(2) / Gamma^0(2); and the explicit
Poincare-Sobolev and Moser-iteration constants.

Submodules load on first use.  `import ellgen` puts each of them in
`sys.modules` as an `importlib.util.LazyLoader` module, which is compiled
and executed on its first attribute access; the public names below resolve
through `__getattr__` (PEP 562) to their submodule.  On Python < 3.12 that
first access is not thread-safe: a threaded caller should import (and
touch) the submodules it needs before starting its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "bundle_route": "",
    "bundles": "BundleMonomial BundleQSeries VirtualBundlePoly ch_monomial ch_virtual "
    "ell2_via_bundles expand_witten index_bundle",
    "chern": "PontPoly RootSeries ch_tangent disjoint_union genus_class newton_power_sum pair",
    "errors": "",
    "genera": "ahat_class ahat_factor cancellation_class cancellation_residual hypersurface_genus "
    "signature_factor twisted_ahat twisted_ahat_series",
    "modular": "ModBasisDecomp delta1 delta2 eps1 eps2 expand_in_basis numeric_eval reconstruct_ell1",
    "pontryagin": "GenusKind Hypersurface Manifold Partition genus hypersurface_pont partitions_of",
    "series": "USeries",
    "sobolev": "MoserExponents moser_constant moser_exponents poincare_s radius_r sobolev_c "
    "sphere_volume wallis",
    "theta": "genus_root_series theta_factor weighted_product",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def _lazy(name: str):
    # A submodule already in sys.modules is kept, so a reload of the
    # package never makes a second copy of its classes.
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[fullname] = module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
