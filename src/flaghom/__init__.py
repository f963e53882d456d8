"""Exact cellular homology of real split flag manifolds from Cartan data.

Every command reads `rootsys`, which is imported at once.  `weyl`, `coeffs`
and `homology` are lazy submodules (``importlib.util.LazyLoader``): each
module object is in ``sys.modules`` and on this package from the start, and
its source is compiled and run on the first read of one of its attributes,
so that a CLI job compiles only the modules it calls.  The package's public
names are read from their defining modules through ``__getattr__``.
"""

import importlib.util
import sys

from . import rootsys

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, registered now and run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


weyl = _lazy("weyl")
coeffs = _lazy("coeffs")
homology = _lazy("homology")

_EXPORTS = {
    "CartanData": rootsys,
    "ChainComplex": homology,
    "CoveringPair": weyl,
    "HomologyGroup": rootsys,
    "KappaReport": coeffs,
    "RootSystem": rootsys,
    "WeylElement": weyl,
    "WeylGroup": weyl,
    "build_complex": homology,
    "build_root_system": rootsys,
    "coefficient": coeffs,
    "covers_oracle_typeA": weyl,
    "h1_h2_closed_form": rootsys,
    "height": rootsys,
    "homology_groups": homology,
    "kappa_report": coeffs,
    "kappa_via_dual_height_remarks": coeffs,
    "kappa_via_height": coeffs,
    "kappa_via_phi": coeffs,
    "kappa_via_sigma": coeffs,
    "one_line": weyl,
    "orientable_typeA": rootsys,
    "orientable_via_topcell": rootsys,
    "poincare_mod2": rootsys,
    "root_system": rootsys,
    "smith_normal_form": homology,
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTS[name], name)
