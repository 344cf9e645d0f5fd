"""rdl: a numerical laboratory for Brownian motion on model Riemannian
manifolds and for the Gromov distance on finite pointed metric spaces.

Conventions used throughout: the Brownian transition density is
q(t, x, y) = p(t/2, x, y) (generator Delta/2); hyperbolic curvature is -k^2.

`import rdl` loads no submodule.  Each name below, and each submodule, is
imported by its first lookup (`rdl.Hyperbolic`, `from rdl import gromov`), so
a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names of the package, by the submodule that defines them.
_EXPORTS = {
    "model_spaces": ("Euclidean", "GeometryError", "HalfPlane", "Hyperbolic", "ModelManifold",
                     "RotSymSurface", "builtin_profile", "space_from_json"),
    "heat_kernels": ("KernelError", "KernelEval", "gaussian_bound_constant", "kernel_for",
                     "radial_fokker_planck", "zero_two_defect"),
    "sde_sim": ("SimConfig", "kaimanovich_tail_limit", "simulate_halfplane", "simulate_radial"),
    "estimators": ("AsymptoticReport", "Ensemble", "drift_subadditive_limit", "entropy_quadrature",
                   "entropy_rate", "inequality_report"),
    "busemann": ("furstenberg_check", "k_functional_and_equality"),
    "gromov": ("AdmissibleExtension", "FinitePointedSpace", "chain_glue", "feasible",
               "gromov_distance", "net_from_manifold"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")
__all__ = sorted(_HOME)  # `from rdl import *` looks each one up


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
