"""Transition densities q(t, x, y) of Brownian motion on the model spaces.

Generator convention, fixed once for the whole package: all kernels are for
the generator Delta/2, i.e. q(t, x, y) = p(t/2, x, y) where p is the heat
kernel of the full Laplacian.  Every downstream constant (drift 1/2 on H^2,
entropy rate 1/2, variance t per Euclidean coordinate) depends on this.

Closed forms:
  * R^d:          q(t, r) = (2 pi t)^(-d/2) exp(-r^2 / 2t)
  * H^3 (k = 1):  q(t, r) = (2 pi t)^(-3/2) exp(-t/2 - r^2/2t) r / sinh(r)
  * H^2 (k = 1):  integral representation
        q(t, r) = sqrt(2) (2 pi t)^(-3/2) e^(-t/8)
                  * int_r^inf s e^(-s^2/2t) / sqrt(cosh s - cosh r) ds
    evaluated after the substitution s = r + u^2, which removes the
    inverse-square-root endpoint singularity, by a 256-node Gauss-Legendre
    rule.  An array of radii is evaluated in blocks of 32 radii, one
    (32, 256) array per block, with the values of one radius at a time.

Curvature -k^2 via rescaling: the metric g/k^2 multiplies distances by 1/k
and the Laplacian by k^2, so

    q_k(t, r) = k^d * q_1(k^2 t, k r),

including the density Jacobian k^d.  The scaling is validated by
normalization and against the radial Fokker-Planck oracle in the tests
rather than trusted from a one-line recipe.

Every log_q rejects a negative or NaN distance with KernelError (_radii).
Each float guard is written `not x > 0` (or the like), so that NaN fails it.

The Chapman-Kolmogorov check int q(s, o, x) q(t, x, y) dx = q(s+t, o, y)
runs on one fixed Gauss-Legendre rule, shared with the H^2 kernel through
_gl(n), with no adaptive quadrature.  Its outer panels (radius on H^d, x on
the line) split at the bridge centre rho s/(s+t) +- 4 and 8 bridge
deviations sqrt(st/(s+t)), and on H^d at the ridge and the truncation
radius.  Its angular panels are graded: their edges are the angles at which
the law of cosines gives d = |r - rho| + sqrt(t) {1/4, 1/2, 1, 2, 3, 4, 6, 8}.
The kernel values of all outer rows come from one call of the array path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._csvblock import csv_block, shared_rows
from ._lazy import lazy
from .model_spaces import ModelManifold, ProfileFunction

brentq = lazy("scipy.optimize", "brentq")
roots_legendre = lazy("scipy.special", "roots_legendre")

__all__ = [
    "KernelEval",
    "kernel_for",
    "truncation_radius",
    "log_q_euclidean",
    "log_q_hyperbolic",
    "zero_two_defect",
    "gaussian_bound_constant",
    "GaussianBoundResult",
    "RadialDensityGrid",
    "radial_fokker_planck",
    "chapman_kolmogorov_residual",
    "KernelError",
]


class KernelError(ValueError):
    """Kernel evaluated outside its domain of validity."""


def _radii(dist) -> np.ndarray:
    """dist as a float array of its shape, checked once for every catalog
    kernel: a distance is >= 0 (inf included); negative values and NaN raise."""
    r = np.asarray(dist, dtype=float)
    if not r.min(initial=math.inf) >= 0:  # NaN propagates through min
        raise KernelError(f"need dist >= 0, got {r[~(r >= 0)][0]}")
    return r


# ----------------------------------------------------------------- Euclidean


def log_q_euclidean(t: float, dim: int, dist) -> np.ndarray:
    if not t > 0:
        raise KernelError(f"need t > 0, got {t}")
    r = _radii(dist)
    return -0.5 * dim * np.log(2.0 * math.pi * t) - r * r / (2.0 * t)


# ---------------------------------------------------------------- Hyperbolic

# log(d/sinh(d)) in a form stable for all d >= 0; series below 1e-6.  d is
# clamped at 1e300 so that d = inf does not read inf - inf: past 1.4e154 the
# caller's -d^2/2t is -inf, so log q is -inf there, d = inf included.
def _log_r_over_sinh(r: np.ndarray) -> np.ndarray:
    safe = np.minimum(np.maximum(r, 1e-6), 1e300)
    main = np.log(safe) - (safe + np.log1p(-np.exp(-2.0 * safe)) - math.log(2.0))
    return np.where(r < 1e-6, -r * r / 6.0, main)


def _log_q_h3_unit(t: float, r: np.ndarray) -> np.ndarray:
    return -1.5 * np.log(2.0 * math.pi * t) - t / 2.0 - r * r / (2.0 * t) + _log_r_over_sinh(r)


@functools.cache
def _gl(n: int):
    """n-node Gauss-Legendre nodes and weights on [-1, 1].  The H^2 inner
    integral takes 256 nodes, which keep the normalization error below 1e-10
    for every time used in the test suite; the Chapman-Kolmogorov rule takes
    its panels from here too."""
    return roots_legendre(n)


_H2_ROWS = 32  # radii per block of the array path: 32 x 256 floats per temporary


def _h2_terms(t: float, r, u_max):
    """Gauss-Legendre terms of I(t, r), after s = r + u^2 and factoring the
    exponential envelope:

    q_1(t, r) = sqrt(2) (2 pi t)^(-3/2) exp(-t/8 - r^2/2t - r/2) I(t, r)
    I(t, r) = int_0^umax 2u (r + u^2) e^{-(2 r u^2 + u^4)/2t}
              / ( sqrt(expm1(u^2)/2) sqrt(1 - e^{-2r - u^2}) ) du

    r and u_max are floats, or (rows, 1) columns for a block of radii; the
    same expressions in the same order give each row the scalar's terms.
    """
    nodes, weights = _gl(256)
    u = 0.5 * u_max * (nodes + 1.0)
    w = 0.5 * u_max * weights
    u2 = u * u
    with np.errstate(over="ignore"):
        num = 2.0 * u * (r + u2) * np.exp(-(2.0 * r * u2 + u2 * u2) / (2.0 * t))
        den = np.sqrt(np.expm1(u2) / 2.0) * np.sqrt(-np.expm1(-2.0 * r - u2))
        vals = np.where(num == 0.0, 0.0, num / den)
    return w * vals


def _h2_assemble(t: float, r: float, factor: float) -> float:
    """log q_1(t, r) from I(t, r), one radius at a time with math.log."""
    return (
        0.5 * math.log(2.0)
        - 1.5 * math.log(2.0 * math.pi * t)
        - t / 8.0
        - r * r / (2.0 * t)
        - r / 2.0
        + math.log(factor)
    )


def _log_q_h2_unit(t: float, r: float) -> float:
    """log q_1(t, r) at one radius.  Where the u-range collapses (u_max is 0
    or not finite, from r ~ 1e10 on) q has long underflowed, so log q = -inf."""
    u_max = math.sqrt(-r + math.sqrt(r * r + 2.0 * t * 50.0))
    if not 0.0 < u_max < math.inf:
        return -math.inf
    return _h2_assemble(t, r, float(np.sum(_h2_terms(t, r, u_max))))


def _log_q_h2_many(t: float, r: np.ndarray) -> np.ndarray:
    """log q_1(t, r) over a 1-d array of radii, _H2_ROWS radii per (rows, 256)
    block; bit for bit the values of _log_q_h2_unit."""
    with np.errstate(over="ignore", invalid="ignore"):
        u_max = np.sqrt(-r + np.sqrt(r * r + 2.0 * t * 50.0))
        ok = np.isfinite(u_max) & (u_max > 0.0)
    factor = np.zeros_like(r)
    idx = np.flatnonzero(ok)
    for lo in range(0, idx.size, _H2_ROWS):
        rows = idx[lo:lo + _H2_ROWS]
        factor[rows] = np.sum(_h2_terms(t, r[rows, None], u_max[rows, None]), axis=1)
    return np.array([_h2_assemble(t, ri, fi) if oki else -math.inf
                     for ri, fi, oki in zip(r.tolist(), factor.tolist(), ok.tolist())])


def log_q_hyperbolic(t: float, dim: int, k: float, dist) -> np.ndarray:
    """log q on H^dim with curvature -k^2, as a function of distance; an
    array dist gives an array of its shape."""
    if not t > 0:
        raise KernelError(f"need t > 0, got {t}")
    if dim not in (2, 3):
        raise KernelError(f"hyperbolic kernels are closed-form only for dim 2, 3; got {dim}")
    if not k > 0:
        raise KernelError(f"need k > 0, got {k}")
    t1 = k * k * t
    r = _radii(dist)
    if dim == 3:
        return dim * math.log(k) + _log_q_h3_unit(t1, k * r)
    if r.ndim == 0:
        return np.float64(_log_q_h2_unit(t1, k * float(r))) + dim * math.log(k)
    return _log_q_h2_many(t1, k * r.ravel()).reshape(r.shape) + dim * math.log(k)


# ------------------------------------------------------------- KernelEval


@dataclass(frozen=True)
class KernelEval:
    """Closed-form radial evaluation of q(t, o, .) on a catalog space (dim, k)."""

    space: ModelManifold

    def log_q(self, t: float, dist) -> np.ndarray:
        sp = self.space
        if sp.k == 0:
            return log_q_euclidean(t, sp.dim, dist)
        return log_q_hyperbolic(t, sp.dim, sp.k, dist)

    def q(self, t: float, dist) -> np.ndarray:
        return np.exp(self.log_q(t, dist))


def kernel_for(space: ModelManifold) -> KernelEval:
    """The gate to the kernel catalog: rejects spaces without a k and
    dimensions without a closed form, judged from (dim, k)."""
    if space.k is None:
        raise KernelError(f"{space.label()} has no closed-form kernel; use radial_fokker_planck")
    if space.k == 0:
        if space.dim not in (1, 2, 3):
            raise KernelError(f"kernel ops accept dim 1-3 only, got {space.dim}")
    elif space.dim not in (2, 3):
        raise KernelError(f"hyperbolic kernels need dim 2 or 3, got {space.dim}")
    return KernelEval(space)


# --------------------------------------------------------- kernel diagnostics


def zero_two_defect(space: ModelManifold, tau: float, t: float) -> float:
    """int |q(t+tau, o, y) - q(t, o, y)| dy, in [0, 2], from two ball masses.

    Premise: both kernels have unit mass and cross exactly once, i.e.
    log q(t+tau, r) - log q(t, r) changes sign once on [0, R], R the
    truncation radius, at r*.  Then by Scheffe's identity the defect is
    2 |M_t(r*) - M_{t+tau}(r*)|, M_s(r) the kernel mass in the ball of
    radius r.  With no sign change on [0, R], r* = R.
    """
    from .estimators import _mass, _radial_integral  # estimators imports this module

    if not (0 < tau < math.inf and 0 < t < math.inf):
        raise KernelError(f"need tau > 0 and t > 0, both finite, got tau = {tau}, t = {t}")
    ker = kernel_for(space)

    def log_ratio(r):
        return float(ker.log_q(t + tau, r)) - float(ker.log_q(t, r))

    r_star = truncation_radius(space, t + tau)
    if log_ratio(0.0) * log_ratio(r_star) < 0:
        r_star = brentq(log_ratio, 0.0, r_star)
    (m_t,), (m_later,) = (_radial_integral(space, s, (_mass,), r_hi=r_star) for s in (t, t + tau))
    return 2.0 * abs(m_t - m_later)


def truncation_radius(space: ModelManifold, t: float) -> float:
    """Radius beyond which q * sphere_area is below e^-40.

    Derived from the Gaussian upper bound with D = 3: the bounding integrand
    exp(-r^2/3t + 2 v r) (v = (dim-1) k/2, the asymptotic radial drift) falls
    below the tail budget e^-40 at r = 3 v t + sqrt(9 v^2 t^2 + 3 t * 40);
    e^-40 with polynomial slop is far below the 1e-10 budget.
    """
    kernel_for(space)  # out-of-catalog spaces raise KernelError, not AttributeError
    if not t > 0:
        raise KernelError(f"need t > 0, got {t}")
    v = (space.dim - 1) * space.k / 2.0
    return 3.0 * v * t + math.sqrt(9.0 * v * v * t * t + 3.0 * t * 40.0) + 5.0


def _ridge(space: ModelManifold, t: float) -> float:
    """max(v t, sqrt(t)), v = (dim-1) k/2: where the radial kernel mass sits
    at time t, and where the radial quadratures split their range."""
    return max((space.dim - 1) * space.k / 2.0 * t, math.sqrt(t))


@dataclass(frozen=True)
class GaussianBoundResult:
    constant: float
    t_at: float
    r_at: float
    bounded: bool


def gaussian_bound_constant(
    space: ModelManifold, D: float, t_range: tuple[float, float], r_max: float
) -> GaussianBoundResult:
    """Empirical constant C = sup over a 40 x 400 (t, r) grid of q(t, r) exp(r^2 / D t).

    The true constant is existential; this reports a grid supremum only,
    never a certified bound.  Overflow on the grid is reported as
    unbounded-at-resolution.
    """
    if not 2 < D < math.inf:
        raise KernelError(f"the Gaussian bound needs D > 2 and finite, got {D}")
    t_lo, t_hi = t_range
    if not t_lo >= 1.0:
        raise KernelError(f"the bound's domain is t >= 1, got t_lo = {t_lo}")
    if not t_lo <= t_hi < math.inf:
        raise KernelError(f"need t_lo <= t_hi < inf, got t_lo = {t_lo}, t_hi = {t_hi}")
    if not 0 < r_max < math.inf:
        raise KernelError(f"need 0 < r_max < inf, got r_max = {r_max}")
    ker = kernel_for(space)
    best, bt, br = -math.inf, t_lo, 0.0
    r = np.linspace(0.0, r_max, 400)
    for t in np.linspace(t_lo, t_hi, 40):
        log_vals = np.asarray(ker.log_q(t, r)) + r * r / (D * t)
        i = int(np.argmax(log_vals))
        if log_vals[i] > best:
            best, bt, br = float(log_vals[i]), float(t), float(r[i])
    if best > 700.0:  # exp would overflow; the grid shows no finite sup
        return GaussianBoundResult(math.inf, bt, br, False)
    return GaussianBoundResult(math.exp(best), bt, br, True)


# --------------------------------------------------- radial Fokker-Planck


@dataclass(frozen=True)
class RadialDensityGrid:
    """Finite-volume solution of the radial forward equation.

    rho[i, j] is the density (w.r.t. dr) at time times[i], radius r_centers[j].
    Mass may only leak through the absorbing boundary at r_max; `leaked`
    tracks the cumulative loss.
    """

    r_centers: np.ndarray
    times: np.ndarray
    rho: np.ndarray
    mass: np.ndarray
    leaked: float

    def marginal(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 1e-9 + 1e-6 * max(1.0, t):
            raise KernelError(f"time {t} not on the stored grid")
        return self.rho[i]

    def to_csv(self, path) -> None:
        rows = shared_rows([self.r_centers, None])
        with open(path, "w") as fh:
            fh.write("t,r,rho\n")
            for t, rho in zip(self.times.tolist(), self.rho):
                fh.write(csv_block("%.17g," % t, [rho], rows))


def radial_fokker_planck(
    profile: ProfileFunction,
    r0: float,
    dt: float,
    dr: float,
    t_max: float,
    r_max: float,
    n_snapshots: int = 51,
) -> RadialDensityGrid:
    """Solve d_t rho = (1/2) d_rr rho - d_r(f rho), f = p'/(2p), conservatively.

    Explicit finite volume, upwind advection (f > 0 for all catalog profiles),
    zero-flux at r = 0, absorbing at r_max.  The diffusion CFL dt <= 0.4 dr^2
    is enforced up front.  r0 <= dr is treated as a pole start (the initial
    delta goes in the first cell).
    """
    if not 0 < dt <= 0.4 * dr * dr:
        raise KernelError(f"CFL violation: need 0 < dt <= 0.4 dr^2 = {0.4 * dr * dr:.3g}, got {dt}")
    if not 0 < dr <= r_max < math.inf:
        raise KernelError(f"need 0 < dr <= r_max < inf, got dr = {dr}, r_max = {r_max}")
    if not 0 < r0 < r_max:  # NaN fails too
        raise KernelError(f"need r0 > 0 and r0 < r_max, got r0 = {r0}, r_max = {r_max}")
    if not 0 < t_max < math.inf:
        raise KernelError(f"need 0 < t_max < inf, got t_max = {t_max}")
    steps = t_max / dt
    n_steps = round(steps)
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * steps:
        raise KernelError(f"t_max/dt must be a whole number of steps, got {steps}")
    if r0 > dr and dr > r0 / 10.0:
        raise KernelError(f"grid too coarse near r0: need dr <= r0/10 = {r0 / 10.0:.3g}, got {dr}")
    n_cells = int(round(r_max / dr))
    centers = (np.arange(n_cells) + 0.5) * dr
    faces = np.arange(1, n_cells) * dr
    f_face = np.asarray(profile.drift(faces), dtype=float)
    if np.any(f_face < 0):
        raise KernelError("upwind scheme assumes nonnegative drift; profile violates f >= 0")
    f_last = float(profile.drift(n_cells * dr))

    rho = np.zeros(n_cells)
    rho[min(int(r0 / dr), n_cells - 1)] = 1.0 / dr

    snap_every = max(1, n_steps // max(n_snapshots - 1, 1))
    times = [0.0]
    snaps = [rho]  # each step makes a new rho and never writes into the old one
    masses = [float(rho.sum() * dr)]
    leaked = 0.0
    flux = np.zeros(n_cells + 1)  # flux[i] through the face at i dr; zero at r = 0
    for step in range(1, n_steps + 1):
        flux[1:-1] = f_face * rho[:-1] - 0.5 * (rho[1:] - rho[:-1]) / dr
        flux[-1] = f_last * rho[-1] + 0.5 * rho[-1] / dr  # ghost cell rho = 0
        rho = rho - dt * (np.diff(flux) / dr)
        leaked += flux[-1] * dt
        if step % snap_every == 0 or step == n_steps:
            times.append(step * dt)
            snaps.append(rho)
            masses.append(float(rho.sum() * dr))
    return RadialDensityGrid(
        r_centers=centers,
        times=np.array(times),
        rho=np.array(snaps),
        mass=np.array(masses),
        leaked=leaked,
    )


# ------------------------------------------------- Chapman-Kolmogorov check


def _panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-node Gauss-Legendre panels between consecutive
    edges along the last axis; a (rows, e) array of edges gives (rows, n (e-1))."""
    x, w = _gl(n)
    half = 0.5 * (edges[..., 1:, None] - edges[..., :-1, None])
    nodes = edges[..., :-1, None] + half * (x + 1.0)
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), (half * w).reshape(shape)


_CK_OUTER_NODES = 16  # per radial panel, or per panel in x on the line
_CK_ANGLE_NODES = 12  # per angular panel
_CK_BRIDGE = np.array([-8.0, -4.0, 4.0, 8.0])  # outer edges: x - c, in bridge deviations
_CK_STEPS = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])  # angular edges: d - |r - rho|, in sqrt(t)


def _ck_angular(ker: KernelEval, t: float, r: np.ndarray, rho: float) -> np.ndarray:
    """int_0^pi q(t, d(r, theta)) w(theta) dtheta for a column r of radii,
    w = sin theta on H^3 and 1 on H^2, d(r, theta) the law of cosines'
    distance to a point at distance rho from the pole.

    The panel edges are the angles where d = |r - rho| + sqrt(t) * _CK_STEPS,
    and a last panel runs out to pi.  At k rho = 6 and t = 0.1 the kernel's
    peak in theta is about 0.003 rad wide, so a flat rule in theta misses
    it; where d grows like log(theta) / k, the steps 3 and 6 keep each
    panel's ratio of end angles small enough for 12 nodes.
    """
    k = ker.space.k
    base = np.abs(r - rho)
    cross = np.sinh(k * r) * math.sinh(k * rho)
    d = base + math.sqrt(t) * _CK_STEPS
    # sin^2(theta/2) = (cosh kd - cosh k|r - rho|) / (2 sinh kr sinh k rho);
    # at rho = 0 (cross = 0) d = r at every angle and the one panel is [0, pi];
    # a d past r + rho (an overflow included) puts its edge at pi
    with np.errstate(divide="ignore", over="ignore"):
        half_sin2 = np.sinh(0.5 * k * (d + base)) * np.sinh(0.5 * k * (d - base)) / cross
    cuts = 2.0 * np.arcsin(np.sqrt(np.minimum(half_sin2, 1.0)))
    edges = np.concatenate([np.zeros_like(base), cuts, np.full_like(base, math.pi)], axis=1)
    theta, w = _panels(edges, _CK_ANGLE_NODES)
    # sinh^2(kd/2) = sinh^2(k(r - rho)/2) + sinh kr sinh k rho sin^2(theta/2), no cancellation near d = 0
    dist = 2.0 / k * np.arcsinh(np.sqrt(np.sinh(0.5 * k * base) ** 2 + cross * np.sin(0.5 * theta) ** 2))
    if ker.space.dim == 3:
        w = w * np.sin(theta)
    # edges past r + rho sit at pi; their empty panels need no kernel values
    q = np.zeros_like(dist)
    keep = w > 0.0
    q[keep] = ker.q(t, dist[keep])
    return np.sum(q * w, axis=1)


def chapman_kolmogorov_residual(space: ModelManifold, s: float, t: float, rho: float) -> float:
    """Relative error of int q(s,o,x) q(t,x,y) dx against q(s+t,o,y), d(o,y) = rho.

    One fixed Gauss-Legendre rule, scaled to the kernels; no adaptive
    quadrature.  The outer panels put edges at c +- 4 and 8 bridge
    deviations sqrt(st/(s+t)) about the bridge centre c = rho s/(s+t),
    _CK_OUTER_NODES nodes each:
      * on the line, a 1-D convolution over [-hi, hi], hi = 12 sqrt(max(s, t))
        + rho, split also at 0, c and rho;
      * on H^2 and H^3, a radial integral over [0, R], R the truncation
        radius at s, split also at the ridge (_ridge); at each radial node
        an angular integral by the law of cosines on graded panels
        (_ck_angular).
    Every kernel value comes from the array path of ker: one call for the
    angular integrals of all radial nodes.
    """
    ker = kernel_for(space)
    if not (0 < s < math.inf and 0 < t < math.inf):
        raise KernelError(f"need s > 0 and t > 0, both finite, got s = {s}, t = {t}")
    if not 0 <= rho < math.inf:
        raise KernelError(f"need 0 <= rho < inf, got rho = {rho}")
    dim, k = space.dim, space.k
    centre = rho * s / (s + t)
    bridge = centre + _CK_BRIDGE * math.sqrt(s * t / (s + t))

    def outer(lo, hi, *cuts):
        return _panels(np.unique(np.clip(np.concatenate([[lo, hi, *cuts], bridge]), lo, hi)),
                       _CK_OUTER_NODES)

    if k == 0 and dim == 1:
        hi = 12.0 * math.sqrt(max(s, t)) + rho
        x, w = outer(-hi, hi, 0.0, centre, rho)
        val = float(np.sum(ker.q(s, np.abs(x)) * ker.q(t, np.abs(x - rho)) * w))
    elif k > 0:
        R = truncation_radius(space, s)
        if k * (R + rho) > 700.0:
            raise KernelError(f"sinh(k (R + rho)) overflows at s = {s}, rho = {rho}")
        r, w = outer(0.0, R, _ridge(space, s))
        # q(s, r) times the sphere factor: 2 sinh(kr)/k on H^2 (theta over
        # [0, pi] is half the circle), 2 pi (sinh(kr)/k)^2 on H^3
        log_sinh = k * r + np.log1p(-np.exp(-2.0 * k * r)) - math.log(2.0 * k)
        w = w * np.exp(ker.log_q(s, r) + (dim - 1) * log_sinh) * (2.0 * math.pi if dim == 3 else 2.0)
        val = float(np.sum(w * _ck_angular(ker, t, r[:, None], rho)))
    else:
        raise KernelError(f"no Chapman-Kolmogorov quadrature for {space.label()}")
    ref = float(ker.q(s + t, rho))
    return abs(val - ref) / ref
