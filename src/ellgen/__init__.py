"""Exact computation of elliptic genera and friends.

Genera of 4n-manifolds (signature, A-hat, Ell_1, Ell_2, Witten) from
Pontryagin numbers or hypersurface descriptors, with exact rational
q-expansions; lambda-ring expansion of the Witten bundles; the
delta/epsilon modular forms over Gamma_0(2) / Gamma^0(2); and the explicit
Poincare-Sobolev and Moser-iteration constants.
"""

__version__ = "0.1.0"

from .bundles import (
    BundleMonomial,
    BundleQSeries,
    VirtualBundlePoly,
    ch_monomial,
    ch_virtual,
    ell2_via_bundles,
    expand_witten,
    index_bundle,
)
from .chern import (
    Manifold,
    Partition,
    PontPoly,
    RootSeries,
    ch_tangent,
    disjoint_union,
    genus_class,
    newton_power_sum,
    pair,
    partitions_of,
)
from .genera import (
    Hypersurface,
    ahat_class,
    ahat_factor,
    cancellation_class,
    cancellation_residual,
    genus,
    hypersurface_genus,
    hypersurface_pont,
    signature_factor,
    twisted_ahat,
    twisted_ahat_series,
)
from .modular import (
    ModBasisDecomp,
    delta1,
    delta2,
    eps1,
    eps2,
    expand_in_basis,
    numeric_eval,
    reconstruct_ell1,
)
from .series import USeries, default_uorder, weighted_product
from .sobolev import (
    MoserExponents,
    moser_constant,
    moser_exponents,
    poincare_s,
    radius_r,
    sobolev_c,
    sphere_volume,
    wallis,
)
from .theta import GenusKind, genus_root_series, theta_factor
