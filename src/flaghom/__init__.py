"""Exact cellular homology of real split flag manifolds from Cartan data."""

__version__ = "0.1.0"

from .coeffs import (
    KappaReport,
    coefficient,
    kappa_report,
    kappa_via_dual_height_remarks,
    kappa_via_height,
    kappa_via_phi,
    kappa_via_sigma,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    build_complex,
    h1_h2_closed_form,
    homology_groups,
    orientable_typeA,
    orientable_via_topcell,
    poincare_mod2,
    smith_normal_form,
)
from .rootsys import CartanData, RootSystem, build_root_system, height, root_system
from .weyl import (
    CoveringPair,
    WeylElement,
    WeylGroup,
    covers_oracle_typeA,
    one_line,
)

__all__ = [
    "CartanData",
    "ChainComplex",
    "CoveringPair",
    "HomologyGroup",
    "KappaReport",
    "RootSystem",
    "WeylElement",
    "WeylGroup",
    "build_complex",
    "build_root_system",
    "coefficient",
    "covers_oracle_typeA",
    "h1_h2_closed_form",
    "height",
    "homology_groups",
    "kappa_report",
    "kappa_via_dual_height_remarks",
    "kappa_via_height",
    "kappa_via_phi",
    "kappa_via_sigma",
    "one_line",
    "orientable_typeA",
    "orientable_via_topcell",
    "poincare_mod2",
    "root_system",
    "smith_normal_form",
]
