"""Model manifolds with exact geometric primitives.

The catalog covers flat space, constant-curvature hyperbolic space (curvature
-k^2), the hyperbolic upper half-plane in its own chart, and rotationally
symmetric surfaces ds^2 = dr^2 + p(r)^2 dtheta^2 given by a profile p.

Every homogeneous catalog space carries its curvature parameter k
(curvature -k^2): 0 on R^d, 1 on the half-plane, the given k on H^d.  The
kernel, drift-scale and horizon code reads (dim, k) and nothing else;
RotSymSurface has k = None, which keeps it out of the kernel catalog.

Coordinate charts:
  * Euclidean(d):   points are length-d vectors.
  * Hyperbolic(d,k): points are length-d vectors in geodesic normal
    coordinates at the basepoint (r = |v|, direction v/|v|); pairwise
    distances come from the hyperbolic law of cosines.
  * HalfPlane:      points are (x, y) with y > 0; basepoint (0, 1).
  * RotSymSurface:  no chart; only its radial geometry (sphere areas, ball
    volumes, volume growth) is defined, and distance raises GeometryError.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lazy import lazy

quad = lazy("scipy.integrate", "quad")
gamma = lazy("scipy.special", "gamma")

__all__ = [
    "GeometryError",
    "ProfileFunction",
    "builtin_profile",
    "ModelManifold",
    "Euclidean",
    "Hyperbolic",
    "HalfPlane",
    "RotSymSurface",
    "VolumeGrowthEstimate",
    "unit_sphere_area",
    "space_from_json",
]

# Quadrature tolerances for ball volumes (closed-form checks demand these).
_QUAD_EPSABS = 1e-10
_QUAD_EPSREL = 1e-8


class GeometryError(ValueError):
    """Invalid coordinates or an operation outside a chart's domain."""


@functools.cache
def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^{dim-1} in R^dim (cached: ball-volume
    integrands call it at every node)."""
    if dim < 1:
        raise GeometryError(f"dimension must be >= 1, got {dim}")
    if dim == 1:
        return 2.0  # S^0 = two points
    return 2.0 * math.pi ** (dim / 2.0) / gamma(dim / 2.0)


def _check_radius(r: float) -> None:
    if not r >= 0:  # NaN fails too
        raise GeometryError(f"radius must be >= 0, got {r}")


@dataclass(frozen=True)
class ProfileFunction:
    """Warping profile of a rotationally symmetric surface.

    p, drift and inv_p_sq must accept floats or numpy arrays.  drift is the
    radial SDE drift p'/(2p) and inv_p_sq the angular clock integrand 1/p^2,
    both in numerically stable forms (the plain quotients overflow for
    rapidly growing profiles).  Smoothness at the pole requires p(0) = 0 and
    p'(0) = 1, with p'(0+) read as 2 p drift.  k is the curvature parameter
    of a constant-curvature profile (0 on 'euclid'), None on any other.
    """

    label: str
    k: float | None
    p: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    inv_p_sq: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        eps = 1e-7
        p0 = float(self.p(eps))
        dp0 = 2.0 * p0 * float(self.drift(eps))
        if abs(p0) > 10 * eps or abs(dp0 - 1.0) > 1e-4:
            raise GeometryError(
                f"profile {self.label!r} violates p(0)=0, p'(0)=1 "
                f"(p({eps})={p0:.3g}, p'({eps})={dp0:.3g})"
            )


def builtin_profile(label: str, k: float = 1.0) -> ProfileFunction:
    """Built-in profiles: 'euclid', 'hyperbolic' (curvature -k^2), 'kaimanovich'."""
    if label == "euclid":
        return ProfileFunction(
            label="euclid",
            k=0.0,
            p=lambda r: np.asarray(r, dtype=float),
            drift=lambda r: 1.0 / (2.0 * r),
            inv_p_sq=lambda r: 1.0 / np.asarray(r, dtype=float) ** 2,
        )
    if label == "hyperbolic":
        if not 0 < k < math.inf:
            raise GeometryError(f"hyperbolic profile needs a finite k > 0, got {k}")
        return ProfileFunction(
            label=f"hyperbolic(k={k:g})",
            k=k,
            p=lambda r: np.sinh(k * np.asarray(r, dtype=float)) / k,
            # (k/2) coth(kr), stable at large r
            drift=lambda r: (k / 2.0)
            * (1.0 + 2.0 / np.expm1(np.minimum(2.0 * k * np.asarray(r, dtype=float), 700.0))),
            inv_p_sq=lambda r: (k / np.sinh(np.minimum(k * np.asarray(r, dtype=float), 360.0))) ** 2,
        )
    if label == "kaimanovich":
        def _inv_p_sq(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(over="ignore", divide="ignore"):
                return np.exp(-(r * r) - 2.0 * np.log(r))

        return ProfileFunction(
            label="kaimanovich",
            k=None,
            p=lambda r: np.asarray(r, dtype=float) * np.exp(0.5 * np.asarray(r, dtype=float) ** 2),
            drift=lambda r: 0.5 * (np.asarray(r, dtype=float) + 1.0 / np.asarray(r, dtype=float)),
            inv_p_sq=_inv_p_sq,
        )
    raise GeometryError(f"unknown profile label {label!r}")


@dataclass(frozen=True)
class VolumeGrowthEstimate:
    """Fitted exponential volume growth rate v = slope of log vol(B_r)."""

    value: float
    finite: bool
    first_overflow_radius: float | None = None


class ModelManifold:
    """Base class; concrete spaces implement the chart-specific pieces."""

    dim: int
    k: float | None

    # -- chart ---------------------------------------------------------------
    @property
    def basepoint(self):
        return np.zeros(self.dim)

    def validate_point(self, pt) -> np.ndarray:
        v = np.asarray(pt, dtype=float).reshape(-1)
        if v.shape != (self.dim,):
            raise GeometryError(f"expected a point in R^{self.dim}, got shape {v.shape}")
        return v

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        """Exact distances from each row of points to pt."""
        raise GeometryError(f"{self.label()} has no exact pairwise distances")

    def distance(self, a, b) -> float:
        """Exact Riemannian distance; GeometryError where no exact form exists."""
        a, b = self.validate_point(a), self.validate_point(b)
        # dist_to_many is exact when its single point is the basepoint
        if np.array_equal(a, self.basepoint):
            a, b = b, a
        return float(self.dist_to_many(a[None, :], b)[0])

    def points_at_radii(self, rs: np.ndarray, rng) -> np.ndarray:
        """Points at distances rs from the basepoint in uniformly random
        directions; the default chart is geodesic normal coordinates."""
        dirs = rng.standard_normal((rs.size, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs * rs[:, None]

    def pairwise_distances(self, points) -> np.ndarray:
        """Symmetrized dist_to_many rows with a zero diagonal."""
        pts = np.array([self.validate_point(p) for p in points])
        dist = np.zeros((len(pts), len(pts)))
        for i, p in enumerate(pts):
            dist[i] = self.dist_to_many(pts, p)
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        return dist

    # -- radial geometry -----------------------------------------------------
    def sphere_area(self, r: float) -> float:
        """Area of the geodesic sphere of radius r about the basepoint."""
        raise NotImplementedError

    def ball_volume(self, r: float) -> float:
        _check_radius(r)
        if r == 0:
            return 0.0
        with np.errstate(over="ignore"):
            val, _ = quad(self.sphere_area, 0.0, r, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)
        return val

    def volume_growth(self, r_max: float) -> VolumeGrowthEstimate:
        """Least-squares slope of log vol(B_r) over the top half of a 200-point
        radius grid.

        Non-finite volumes (profile overflow) are reported via the `finite`
        flag, never silently clipped.
        """
        if not 0 < r_max < math.inf:
            raise GeometryError(f"need a finite r_max > 0, got {r_max}")
        r_grid = np.linspace(r_max / 200, r_max, 200)
        vols = np.array([self.ball_volume(r) for r in r_grid])
        bad = ~np.isfinite(vols)
        if bad.any():
            return VolumeGrowthEstimate(value=math.inf, finite=False,
                                        first_overflow_radius=float(r_grid[bad][0]))
        top = r_grid >= r_max / 2
        x, y = r_grid[top], np.log(vols[top])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return VolumeGrowthEstimate(value=float(coef[0]), finite=True)

    # -- misc ----------------------------------------------------------------
    def label(self) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class Euclidean(ModelManifold):
    k = 0.0

    def __init__(self, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise GeometryError(f"Euclidean dimension must be a positive integer, got {dim}")
        self.dim = dim

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        return np.linalg.norm(np.asarray(points, dtype=float) - self.validate_point(pt), axis=1)

    def sphere_area(self, r: float) -> float:
        _check_radius(r)
        return unit_sphere_area(self.dim) * r ** (self.dim - 1)

    def log_sphere_area(self, r: float) -> float:
        if r <= 0:
            return -math.inf
        return math.log(unit_sphere_area(self.dim)) + (self.dim - 1) * math.log(r)

    def ball_volume(self, r: float) -> float:
        _check_radius(r)
        return math.pi ** (self.dim / 2.0) / gamma(self.dim / 2.0 + 1.0) * r ** self.dim

    def label(self) -> str:
        return f"euclidean(dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}


def _hyperbolic_dist(k: float, r1, r2, cos_angle):
    """Hyperbolic law of cosines, curvature -k^2; a GeometryError where it
    overflows, since a wrong distance would pass on silently.

    cosh(k d) = cosh(k r1) cosh(k r2) - sinh(k r1) sinh(k r2) cos(angle)
    """
    with np.errstate(over="ignore", invalid="ignore"):
        arg = np.cosh(k * r1) * np.cosh(k * r2) - np.sinh(k * r1) * np.sinh(k * r2) * cos_angle
    if not np.isfinite(arg).all():
        raise GeometryError(f"hyperbolic law of cosines overflows: cosh(k r) cosh(k r') is past "
                            f"the float range at k r = {k * max(np.max(r1), r2):g}")
    return np.arccosh(np.maximum(arg, 1.0)) / k


class Hyperbolic(ModelManifold):
    """H^dim with curvature -k^2, chart = geodesic normal coordinates at o."""

    def __init__(self, dim: int, k: float = 1.0):
        if not isinstance(dim, int) or dim < 1:
            raise GeometryError(f"Hyperbolic dimension must be a positive integer, got {dim}")
        if not 0 < k < math.inf:
            raise GeometryError(f"curvature parameter k must be finite and > 0, got {k}")
        self.dim = dim
        self.k = float(k)

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        p = self.validate_point(pt)
        r1 = np.linalg.norm(pts, axis=1)
        r2 = np.linalg.norm(p)
        if r2 == 0:
            return r1
        with np.errstate(invalid="ignore"):
            cosang = np.where(r1 > 0, pts @ p / np.maximum(r1 * r2, 1e-300), 1.0)
        return _hyperbolic_dist(self.k, r1, r2, np.clip(cosang, -1.0, 1.0))

    def sphere_area(self, r: float) -> float:
        _check_radius(r)
        try:
            return unit_sphere_area(self.dim) * (math.sinh(self.k * r) / self.k) ** (self.dim - 1)
        except OverflowError:  # math.sinh and the power raise past the float range
            return math.inf if self.dim > 1 else unit_sphere_area(1)

    def log_sphere_area(self, r: float) -> float:
        if r <= 0:
            return -math.inf
        kr = self.k * r
        # log(sinh(kr)/k) without overflow
        log_p = kr + math.log1p(-math.exp(-2.0 * kr)) - math.log(2.0 * self.k)
        return math.log(unit_sphere_area(self.dim)) + (self.dim - 1) * log_p

    def ball_volume(self, r: float) -> float:
        _check_radius(r)
        k = self.k
        if self.dim == 1:
            return 2.0 * r
        try:
            if self.dim == 2:
                return 2.0 * math.pi * (math.cosh(k * r) - 1.0) / k ** 2
            if self.dim == 3:
                return 2.0 * math.pi * (math.sinh(k * r) * math.cosh(k * r) - k * r) / k ** 3
            return super().ball_volume(r)
        except OverflowError:  # math.cosh and math.sinh raise past k r ~ 710
            return math.inf

    def label(self) -> str:
        return f"hyperbolic(dim={self.dim},k={self.k:g})"

    def to_json_dict(self) -> dict:
        return {"kind": "hyperbolic", "dim": self.dim, "k": self.k}


class HalfPlane(Hyperbolic):
    """Upper half-plane {(x, y): y > 0}, ds^2 = y^-2 (dx^2 + dy^2), curvature -1.

    H^2 with k = 1 in its own chart: the radial geometry is Hyperbolic's, and
    only the chart methods are overridden.
    """

    dim = 2
    k = 1.0  # also read on the class, by the CLI's --kappa check

    def __init__(self):
        super().__init__(self.dim, self.k)

    @property
    def basepoint(self):
        return np.array([0.0, 1.0])

    def validate_point(self, pt) -> np.ndarray:
        v = np.asarray(pt, dtype=float).reshape(-1)
        if v.shape != (2,):
            raise GeometryError(f"expected (x, y), got shape {v.shape}")
        if not v[1] > 0:
            raise GeometryError(f"half-plane needs y > 0, got y = {v[1]}")
        return v

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        p = self.validate_point(pt)
        arg = 1.0 + ((pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2) / (2.0 * pts[:, 1] * p[1])
        return np.arccosh(np.maximum(arg, 1.0))

    def points_at_radii(self, rs: np.ndarray, rng) -> np.ndarray:
        """Geodesic polar coordinates about i mapped into half-plane coordinates
        through the Poincare disk (w = tanh(r/2) e^{i phi}, z = i (1+w)/(1-w))."""
        phi = rng.uniform(0.0, 2.0 * math.pi, rs.size)
        w = np.tanh(rs / 2.0) * np.exp(1j * phi)
        z = 1j * (1.0 + w) / (1.0 - w)
        return np.column_stack([z.real, np.maximum(z.imag, 1e-300)])

    def label(self) -> str:
        return "halfplane"

    def to_json_dict(self) -> dict:
        return {"kind": "halfplane"}


class RotSymSurface(ModelManifold):
    """Surface ds^2 = dr^2 + p(r)^2 dtheta^2 about a pole, known through its
    radial geometry; it has no pairwise distances."""

    dim = 2
    k = None

    def __init__(self, profile: ProfileFunction):
        self.profile = profile

    def sphere_area(self, r: float) -> float:
        _check_radius(r)
        return 2.0 * math.pi * float(self.profile.p(r))

    def label(self) -> str:
        return f"rotsym({self.profile.label})"

    def to_json_dict(self) -> dict:
        if self.profile.k:  # a hyperbolic profile; euclid's k is 0
            return {"kind": "rotsym", "profile": "hyperbolic", "k": self.profile.k}
        return {"kind": "rotsym", "profile": self.profile.label}


def json_int(value, name: str, error: type[ValueError] = GeometryError) -> int:
    """An integer field read from JSON: an integral number, never a bool
    (True == 1 in Python), a string or a fractional number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{name!r} must be an integer, got {value!r}")


def json_number(value, name: str, error: type[ValueError] = GeometryError) -> float:
    """A real field read from JSON: an int or a float, never a bool or a string.
    An integer beyond the float range reads as inf, which the constructors reject."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise error(f"{name!r} must be a number, got {value!r}")


# The keys besides "kind" that space_from_json reads, per kind.
_SPACE_KEYS = {"euclidean": {"dim"}, "hyperbolic": {"dim", "k"}, "halfplane": set(), "rotsym": {"profile", "k"}}


def space_from_json(obj: dict) -> ModelManifold:
    """Inverse of ModelManifold.to_json_dict."""
    if not isinstance(obj, dict):
        raise GeometryError(f"a space is a JSON object with a 'kind', got {obj!r}")
    kind = obj.get("kind")
    keys = _SPACE_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise GeometryError(f"unknown space kind {kind!r}")
    unknown = sorted(set(obj) - keys - {"kind"})
    if unknown:
        raise GeometryError(f"unknown key {unknown[0]!r} in a {kind} space")
    if kind == "euclidean":
        return Euclidean(json_int(obj["dim"], "dim"))
    if kind == "hyperbolic":
        return Hyperbolic(json_int(obj["dim"], "dim"), json_number(obj.get("k", 1.0), "k"))
    if kind == "halfplane":
        return HalfPlane()
    return RotSymSurface(builtin_profile(obj["profile"], json_number(obj.get("k", 1.0), "k")))
