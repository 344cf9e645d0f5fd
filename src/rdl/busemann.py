"""Exact boundary theory on the hyperbolic half-plane.

The Monte Carlo drift check E(xi(omega_t)) = t * ell for the Busemann
function xi of the point at infinity, and the k functional with the
equality condition of the sharp entropy lower bound, in closed form from
|grad xi| = 1.  The Busemann functions xi(x, y) (normalized to vanish at the
basepoint (0, 1)) and their Poisson kernels k_xi = e^{-xi} live in
tests/test_busemann.py, the oracle that audits the identities below.

All gradients, norms, and Laplacians are with respect to the hyperbolic
metric ds^2 = y^{-2}(dx^2 + dy^2):

    grad f = y^2 (f_x, f_y),   |grad f|^2 = y^2 (f_x^2 + f_y^2),
    Delta f = y^2 (f_xx + f_yy).

Closed forms (basepoint o = (0, 1)):
  * boundary point at infinity:  xi = -log y,        k_xi = y
  * finite boundary point b:     xi = log(((x-b)^2 + y^2) / (y (b^2 + 1))),
                                 k_xi = y (b^2 + 1) / ((x-b)^2 + y^2)
Both satisfy |grad xi| = 1, Delta xi = 1, Delta k_xi = 0, k_xi(o) = 1.  The
tests audit these identities at sample points and by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sde_sim import SimConfig

__all__ = [
    "FurstenbergResult",
    "furstenberg_check",
    "k_functional_and_equality",
    "HALF_PLANE_DRIFT",
]

HALF_PLANE_DRIFT = 0.5  # ell of the hyperbolic plane, generator Delta/2


@dataclass(frozen=True)
class FurstenbergResult:
    t: float
    mc_mean: float
    mc_se: float
    expected: float
    z_score: float
    n_paths: int


def furstenberg_check(cfg: SimConfig, t: float | None = None) -> FurstenbergResult:
    """Monte Carlo check of E(xi(omega_t)) = t * ell on the half-plane.

    xi is the Busemann function of the boundary point at infinity, so
    xi(omega_t) = -log y_t and the exact expectation is t/2.
    """
    t = cfg.t_max if t is None else float(t)
    if not 0.0 < t <= cfg.t_max:
        raise ValueError(f"t = {t} must be > 0 and not beyond simulated horizon {cfg.t_max}")
    from .sde_sim import simulate_halfplane  # the k functional and the report need no simulator

    paths = simulate_halfplane(cfg)
    idx = int(np.argmin(np.abs(paths[0].times - t)))
    if not abs(paths[0].times[idx] - t) <= 1e-9:
        raise ValueError(f"t = {t} not on the recorded time grid")
    vals = np.array([-math.log(p.y[idx]) for p in paths])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    expected = t * HALF_PLANE_DRIFT
    z = (mean - expected) / se if se > 0 else math.inf
    return FurstenbergResult(
        t=t, mc_mean=mean, mc_se=se, expected=expected, z_score=z, n_paths=cfg.n_paths
    )


def k_functional_and_equality() -> tuple[float, float]:
    """k(M) = E((1/2) |grad log k_xi|^2) and the equality-condition gap.

    On the half-plane |grad log k_xi| = |grad xi| = 1 everywhere, so k = 1/2;
    the sharp-bound equality condition grad log k_xi = -2 ell grad xi has gap
    sup |grad log k_xi + 2 ell grad xi| = |1 - 2 ell| |grad xi| = 0 since
    2 ell = 1.  Both are the closed forms at |grad xi| = 1, which
    tests/test_busemann.py audits on sample points of every boundary point.
    """
    return 0.5, abs(1.0 - 2.0 * HALF_PLANE_DRIFT)
