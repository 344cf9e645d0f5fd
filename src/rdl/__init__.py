"""rdl: a numerical laboratory for Brownian motion on model Riemannian
manifolds and for the Gromov distance on finite pointed metric spaces.

Conventions used throughout: the Brownian transition density is
q(t, x, y) = p(t/2, x, y) (generator Delta/2); hyperbolic curvature is -k^2.
"""

__version__ = "0.1.0"

from .model_spaces import (  # noqa: F401
    Euclidean,
    GeometryError,
    HalfPlane,
    Hyperbolic,
    ModelManifold,
    ProfileFunction,
    RotSymSurface,
    builtin_profile,
    space_from_json,
)
from .heat_kernels import (  # noqa: F401
    KernelError,
    KernelEval,
    gaussian_bound_constant,
    kernel_for,
    radial_fokker_planck,
    zero_two_defect,
)
from .sde_sim import (  # noqa: F401
    SimConfig,
    kaimanovich_tail_limit,
    simulate_halfplane,
    simulate_radial,
)
from .estimators import (  # noqa: F401
    AsymptoticReport,
    Ensemble,
    drift_subadditive_limit,
    entropy_quadrature,
    entropy_rate,
    inequality_report,
)
from .busemann import (  # noqa: F401
    furstenberg_check,
    k_functional_and_equality,
)
from .gromov import (  # noqa: F401
    AdmissibleExtension,
    FinitePointedSpace,
    chain_glue,
    feasible,
    gromov_distance,
    net_from_manifold,
)
