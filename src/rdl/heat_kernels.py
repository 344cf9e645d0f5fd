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
    rule.  Every distance, a single one included, is evaluated as a 1-d
    array in blocks of 32 radii.  One call allocates five (32, 256) buffers
    and runs every block's ufunc passes into them with out=, so their
    number, not the radii, sets its memory; the tests check it bit for bit
    against a scalar oracle, one radius at a time.

Curvature -k^2 via rescaling: the metric g/k^2 multiplies distances by 1/k
and the Laplacian by k^2, so

    q_k(t, r) = k^d * q_1(k^2 t, k r),

including the density Jacobian k^d.  The scaling is validated by
normalization and against the radial Fokker-Planck oracle in the tests
rather than trusted from a one-line recipe.

Every log_q rejects a negative or NaN distance with KernelError (_radii),
and a horizon whose 2 pi t (k^2 t on H^d) is past the float range.
Each float guard is written `not x > 0` (or the like), so that NaN fails it.
Past r ~ 1.3e154, r * r overflows to inf (near 1.8e308, k r too) and log q
reads -inf, as it should; np.errstate(over="ignore") keeps that silent.

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
import sys
from dataclasses import dataclass

import numpy as np

from ._gauss_legendre import HALVES
from .model_spaces import ModelManifold, ProfileFunction, json_int

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
    if not 2.0 * math.pi * t < math.inf:  # past it, log q read NaN where r * r is inf
        raise KernelError(f"need 2 pi t to be finite, got t = {t:g}")
    r = _radii(dist)
    with np.errstate(over="ignore"):  # r * r past 1.3e154 is inf: log q = -inf
        return -0.5 * dim * np.log(2.0 * math.pi * t) - r * r / (2.0 * t)


# ---------------------------------------------------------------- Hyperbolic

# log(d/sinh(d)) in a form stable for all d >= 0; series below 1e-6.  d is
# clamped at 1e300 so that d = inf does not read inf - inf: past 1.4e154 the
# caller's -d^2/2t is -inf, so log q is -inf there, d = inf included (the
# series, evaluated for every d, overflows there too, under the caller's errstate).
def _log_r_over_sinh(r: np.ndarray) -> np.ndarray:
    safe = np.minimum(np.maximum(r, 1e-6), 1e300)
    main = np.log(safe) - (safe + np.log1p(-np.exp(-2.0 * safe)) - math.log(2.0))
    return np.where(r < 1e-6, -r * r / 6.0, main)


def _log_q_h3_unit(t: float, r: np.ndarray) -> np.ndarray:
    return -1.5 * np.log(2.0 * math.pi * t) - t / 2.0 - r * r / (2.0 * t) + _log_r_over_sinh(r)


@functools.cache
def _gl(n: int):
    """n-node Gauss-Legendre nodes and weights on [-1, 1], n in 12, 16 and 256,
    read from the stored halves of scipy's rules.  The H^2 inner integral
    takes 256 nodes, which keep the normalization error below 1e-10 for every
    time used in the test suite; the Chapman-Kolmogorov rule takes its panels
    (12 and 16 nodes) from here too."""
    x, w = np.array([[float.fromhex(v) for v in line.split()]
                     for line in HALVES[n].strip().splitlines()]).T
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


_H2_ROWS = 32  # radii per block of the array path: 32 x 256 floats per buffer


def _h2_integrals(t: float, r: np.ndarray, u_max: np.ndarray) -> np.ndarray:
    """I(t, r) for 1-d arrays of radii and their u_max, after s = r + u^2 and
    factoring the exponential envelope:

    q_1(t, r) = sqrt(2) (2 pi t)^(-3/2) exp(-t/8 - r^2/2t - r/2) I(t, r)
    I(t, r) = int_0^umax 2u (r + u^2) e^{-(2 r u^2 + u^4)/2t}
              / ( sqrt(expm1(u^2)/2) sqrt(1 - e^{-2r - u^2}) ) du

    Row i of a block depends on radius i alone.  The passes are the scalar
    oracle's (tests/test_heat_kernels.py), in its order, with rewrites that
    are exact on normal floats: x / -(2t) for -x / 2t, and the 2 of 2u
    dropped from num and from den (as expm1(u^2) / 8 under the root), so
    num / den is one rounding of the same quotient.  For t at least the
    smallest normal float (log_q_hyperbolic refuses less) u^2 is normal and
    den > 0, so the oracle's guard for num = 0 never changes a value and is
    left out.
    """
    nodes, weights = _gl(256)
    nodes1 = nodes + 1.0
    n = r.size
    factor = np.empty(n)
    bufs = np.empty((5, min(n, _H2_ROWS), 256))
    with np.errstate(over="ignore"):
        for lo in range(0, n, _H2_ROWS):
            m = min(_H2_ROWS, n - lo)
            rc, half = r[lo:lo + m, None], 0.5 * u_max[lo:lo + m, None]
            u, u2, num, den, tmp = bufs[:, :m]
            np.multiply(half, nodes1, out=u)
            np.multiply(u, u, out=u2)
            np.add(rc, u2, out=num)
            num *= u
            np.multiply(2.0 * rc, u2, out=den)
            np.multiply(u2, u2, out=tmp)
            den += tmp
            den /= -(2.0 * t)
            np.exp(den, out=den)
            num *= den  # u (r + u^2) e^(...): the oracle's num / 2
            np.expm1(u2, out=den)
            den *= 0.125
            np.sqrt(den, out=den)
            np.subtract(-2.0 * rc, u2, out=tmp)
            np.expm1(tmp, out=tmp)
            np.negative(tmp, out=tmp)
            np.sqrt(tmp, out=tmp)
            den *= tmp  # the oracle's den / 2
            num /= den
            np.multiply(half, weights, out=tmp)
            num *= tmp
            num.sum(axis=1, out=factor[lo:lo + m])
    return factor


def _log_q_h2_many(t: float, r: np.ndarray) -> np.ndarray:
    """log q_1(t, r) over a 1-d array of radii, the one H^2 path (a single
    radius is an array of one).  The inner integral runs over u in
    [0, u_max], u_max = sqrt(-r + sqrt(r^2 + 100 t)); where that range
    collapses (u_max is 0 or not finite, from r ~ 1e10 on) q has long
    underflowed, so log q = -inf, and where I underflows to 0 (t ~ 1e300) q
    is 0 too.  math.log takes I one radius at a time (np.log may differ in
    the last bit); the rest of the assembly is array arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        u_max = np.sqrt(-r + np.sqrt(r * r + 2.0 * t * 50.0))
        ok = np.isfinite(u_max) & (u_max > 0.0)
    every = bool(ok.all())
    if not every:
        idx = np.flatnonzero(ok)
        r, u_max = r[idx], u_max[idx]
    log_i = np.array([math.log(f) if f != 0.0 else -math.inf
                      for f in _h2_integrals(t, r, u_max).tolist()])
    c0 = 0.5 * math.log(2.0) - 1.5 * math.log(2.0 * math.pi * t) - t / 8.0
    log_q = c0 - r * r / (2.0 * t) - r * 0.5 + log_i
    if every:
        return log_q
    out = np.full(ok.shape, -math.inf)
    out[idx] = log_q
    return out


def log_q_hyperbolic(t: float, dim: int, k: float, dist) -> np.ndarray:
    """log q on H^dim with curvature -k^2, as a function of distance; an
    array dist gives an array of its shape.  k^2 t must be a normal float:
    at k^2 t = 1e-320 the H^2 value is already 3e-5 off the flat kernel, and
    where k^2 t underflows to 0, H^2 read q = 0 and H^3 NaN.  2 pi k^2 t
    must be finite too: past it H^3 read NaN at the far radii."""
    if not t > 0:
        raise KernelError(f"need t > 0, got {t}")
    if dim not in (2, 3):
        raise KernelError(f"hyperbolic kernels are closed-form only for dim 2, 3; got {dim}")
    if not k > 0:
        raise KernelError(f"need k > 0, got {k}")
    t1 = k * k * t
    if not (t1 >= sys.float_info.min and 2.0 * math.pi * t1 < math.inf):
        raise KernelError(f"need k^2 t to be a normal float (>= {sys.float_info.min:g}) with "
                          f"2 pi k^2 t finite, got k = {k:g}, t = {t:g}")
    r = _radii(dist)
    with np.errstate(over="ignore"):  # k r or (k r)^2 past the float range is inf: log q = -inf
        if dim == 3:
            return dim * math.log(k) + _log_q_h3_unit(t1, k * r)
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
        with np.errstate(over="ignore"):  # log q past 709.8 (tiny t at r = 0): q = inf
            return np.exp(self.log_q(t, dist))


def kernel_for(space: ModelManifold) -> KernelEval:
    """The gate to the kernel catalog: rejects spaces without a k.  The
    constructors admit only the dimensions that have a closed form."""
    if space.k is None:
        raise KernelError(f"{space.label()} has no closed-form kernel; use radial_fokker_planck")
    return KernelEval(space)


# --------------------------------------------------------- kernel diagnostics


def zero_two_defect(space: ModelManifold, tau: float, t: float) -> float:
    """int |q(t+tau, o, y) - q(t, o, y)| dy, in [0, 2], from two ball masses.

    Premise: both kernels have unit mass and cross exactly once, i.e.
    log q(t+tau, r) - log q(t, r) changes sign once on [0, R], R the
    truncation radius, at r*.  Then by Scheffe's identity the defect is
    2 |M_t(r*) - M_{t+tau}(r*)|, M_s(r) the kernel mass in the ball of
    radius r.  With no sign change on [0, R], r* = R.  A horizon t or t + tau
    that the report would refuse raises EstimatorInputError.
    """
    from scipy.optimize import brentq

    from .estimators import _check_resolvable, _mass, _radial_integral  # estimators imports this module

    if not (0 < tau < math.inf and 0 < t < math.inf):
        raise KernelError(f"need tau > 0 and t > 0, both finite, got tau = {tau}, t = {t}")
    ker = kernel_for(space)
    # the horizon cut of entropy_quadrature: inside it r* >= ~1e-3, far above brentq's xtol
    _check_resolvable(space, t)
    _check_resolvable(space, t + tau)

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
    exp(-r^2/3t + 2 v r) (v the space's drift_scale) falls below the tail
    budget e^-40 at r = 3 v t + sqrt(9 v^2 t^2 + 3 t * 40); e^-40 with
    polynomial slop is far below the 1e-10 budget.
    """
    kernel_for(space)  # out-of-catalog spaces raise KernelError, not AttributeError
    if not t > 0:
        raise KernelError(f"need t > 0, got {t}")
    v = space.drift_scale()
    return 3.0 * v * t + math.sqrt(9.0 * v * v * t * t + 3.0 * t * 40.0) + 5.0


def _ridge(space: ModelManifold, t: float) -> float:
    """max(v t, sqrt(t)), v the space's drift_scale: where the radial kernel
    mass sits at time t, and where the radial quadratures split their range."""
    return max(space.drift_scale() * t, math.sqrt(t))


_GRID_T, _GRID_R = 40, 400
_BLOCK = math.isqrt(_GRID_R)  # radii per block: 20 heads, and 20 radii per live block
_MARGIN = 1e-6  # in log q: far above a computed log q's distance from the true one


@dataclass(frozen=True)
class GaussianBoundResult:
    constant: float
    t_at: float
    r_at: float
    bounded: bool


def gaussian_bound_constant(
    space: ModelManifold, D: float, t_range: tuple[float, float], r_max: float
) -> GaussianBoundResult:
    """Empirical C of the bound q(t, r) <= C t^{-n/2} exp(-r^2 / D t), n = space.dim:
    the sup of q(t, r) t^{n/2} exp(r^2 / D t) over a 40 x 400 (t, r) grid.

    The true constant is existential; this reports a grid supremum only,
    never a certified bound.  Overflow on the grid is reported as
    unbounded-at-resolution.  Where r_max^2 / (D t_lo) is past the float
    range, L below would read -inf + inf = NaN at the kernel's underflow,
    and KernelError is raised.  On E^n each row's max is (2 pi)^{-n/2} at
    r = 0 up to rounding, so t_at is arbitrary there.

    The result is the full scan's: at each t in turn, L = log q + s + g
    with s = (n/2) log t and g = r * r / (D t) on all 400 radii, and its
    first argmax where that is strictly above the running max `best`.
    This scan reads few of those radii.  They fall in sqrt(400) = 20 blocks
    of 20, so that a row costs 20 heads plus 20 radii per live block.  At
    each t one call of log_q on the block heads r_h bounds each block by

        U = log q(t, r_h) + s + _MARGIN + g(t, r_e),   r_e the block's last radius,

    and a second call evaluates only the radii of the blocks with U > best.
    Why this is the full scan's result, bit for bit:
      * Premise: the computed log q(t, .) is non-increasing in r up to
        _MARGIN = 1e-6.  The true one is non-increasing (a Gaussian on E^d;
        on H^d, Davies & Mandouvalos, Proc. LMS 57, 1988), and rounding
        (about 1e-16 |log q|) and the H^2 rule's error (below 1e-10) keep
        the computed one far inside _MARGIN of it while |log q| < 1e9; past
        that, where _MARGIN rounds away, the computed log q itself must not
        rise.  s is constant along a row and g rises with r, both through
        monotone float operations.  So no L of a block exceeds its U, and a
        block with U <= best holds no value that could update best.
      * Every radius that attains a row's max above best lies in a live
        block, so the argmax over the live radii, in index order, is the
        full scan's.
      * A kernel value is the bits of a one-radius call, and g is
        elementwise, so each evaluated L has the full scan's bits.
    No value is NaN: s and g are finite on the grid, and log q finite or -inf.
    The tests check the premise on the catalog and keep the full scan as
    the oracle.
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
    if not r_max * r_max / (D * t_lo) < math.inf:  # the largest g on the grid
        raise KernelError(f"r_max^2 / (D t_lo) is past the float range: r_max = {r_max}, "
                          f"D = {D}, t_lo = {t_lo}")
    ker = kernel_for(space)
    best, bt, br = -math.inf, t_lo, 0.0
    r = np.linspace(0.0, r_max, _GRID_R)
    rr = r * r
    heads, rr_ends = r[::_BLOCK], rr[_BLOCK - 1::_BLOCK]
    for t in np.linspace(t_lo, t_hi, _GRID_T):
        s = 0.5 * space.dim * math.log(t)  # log t^{n/2}: 0.0 at t = 1, where q keeps its bits
        bound = np.asarray(ker.log_q(t, heads)) + s + _MARGIN + rr_ends / (D * t)
        live = np.repeat(bound > best, _BLOCK)
        if not live.any():
            continue
        r_live = r[live]
        log_vals = np.asarray(ker.log_q(t, r_live)) + s + rr[live] / (D * t)
        i = int(np.argmax(log_vals))
        if log_vals[i] > best:
            best, bt, br = float(log_vals[i]), float(t), float(r_live[i])
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
    n_snapshots = json_int(n_snapshots, "n_snapshots", KernelError)
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
    snaps = [rho.copy()]  # rho is stepped in place
    masses = [float(rho.sum() * dr)]
    leaked = 0.0
    flux = np.zeros(n_cells + 1)  # flux[i] through the face at i dr; zero at r = 0
    inner = flux[1:-1]
    grad = np.empty(n_cells - 1)
    update = np.empty(n_cells)
    for step in range(1, n_steps + 1):
        # flux[1:-1] = f_face rho[:-1] - 0.5 (rho[1:] - rho[:-1]) / dr, in that order
        np.subtract(rho[1:], rho[:-1], out=grad)
        np.multiply(grad, 0.5, out=grad)
        np.divide(grad, dr, out=grad)
        np.multiply(f_face, rho[:-1], out=inner)
        np.subtract(inner, grad, out=inner)
        last = float(rho[-1])
        flux[-1] = outflow = f_last * last + 0.5 * last / dr  # ghost cell rho = 0
        # rho -= dt (diff(flux) / dr)
        np.subtract(flux[1:], flux[:-1], out=update)
        np.divide(update, dr, out=update)
        np.multiply(update, dt, out=update)
        np.subtract(rho, update, out=rho)
        leaked += outflow * dt
        if step % snap_every == 0 or step == n_steps:
            times.append(step * dt)
            snaps.append(rho.copy())
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
    if k == 0 and dim > 1:
        raise KernelError(f"no Chapman-Kolmogorov quadrature for {space.label()}")
    ref = float(ker.q(s + t, rho))
    if not ref > 0.0:  # the relative error divides by it
        raise KernelError(f"q(s + t, rho) underflows to 0 at s + t = {s + t:g}, rho = {rho:g}")
    centre = rho * s / (s + t)
    bridge = centre + _CK_BRIDGE * math.sqrt(s * t / (s + t))

    def outer(lo, hi, *cuts):
        return _panels(np.unique(np.clip(np.concatenate([[lo, hi, *cuts], bridge]), lo, hi)),
                       _CK_OUTER_NODES)

    if k == 0:
        hi = 12.0 * math.sqrt(max(s, t)) + rho
        x, w = outer(-hi, hi, 0.0, centre, rho)
        val = float(np.sum(ker.q(s, np.abs(x)) * ker.q(t, np.abs(x - rho)) * w))
    else:
        R = truncation_radius(space, s)
        if k * (R + rho) > 700.0:
            raise KernelError(f"sinh(k (R + rho)) overflows at s = {s}, rho = {rho}")
        r, w = outer(0.0, R, _ridge(space, s))
        # q(s, r) times the sphere factor: 2 sinh(kr)/k on H^2 (theta over
        # [0, pi] is half the circle), 2 pi (sinh(kr)/k)^2 on H^3
        log_sinh = k * r + np.log1p(-np.exp(-2.0 * k * r)) - math.log(2.0 * k)
        w = w * np.exp(ker.log_q(s, r) + (dim - 1) * log_sinh) * (2.0 * math.pi if dim == 3 else 2.0)
        val = float(np.sum(w * _ck_angular(ker, t, r[:, None], rho)))
    return abs(val - ref) / ref
