"""Model manifolds with exact geometric primitives.

The catalog covers flat space, constant-curvature hyperbolic space (curvature
-k^2), the hyperbolic upper half-plane in its own chart, and rotationally
symmetric surfaces ds^2 = dr^2 + p(r)^2 dtheta^2, each given by its profile.

Every homogeneous catalog space carries its curvature parameter k
(curvature -k^2): 0 on R^d, 1 on the half-plane, the given k on H^d.  The
kernel, drift-scale and horizon code reads (dim, k) and nothing else;
RotSymSurface has k = None, which keeps it out of the kernel catalog; its
profile's curvature parameter is its `curvature`.
Construction admits only the dimensions with a closed-form kernel (R^1-R^3,
H^2-H^3): any other dimension raises GeometryError.

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
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Gamma(m/2) for m = 1, ..., 5 (dim for sphere areas, dim + 2 for Euclidean
# ball volumes), one line each: float.hex of scipy.special.gamma(m / 2), which
# math.gamma and the recurrence from sqrt(pi) miss in the last bit at some
# half-integers (Gamma(1.5)); the tests check it against scipy.
_GAMMA_HALVES = tuple(float.fromhex(v) for v in """
0x1.c5bf891b4ef6ap+0
0x1.0000000000000p+0
0x1.c5bf891b4ef6ap-1
0x1.0000000000000p+0
0x1.544fa6d47b390p+0
""".split())

__all__ = [
    "GeometryError",
    "builtin_profile",
    "ModelManifold",
    "Euclidean",
    "Hyperbolic",
    "HalfPlane",
    "RotSymSurface",
    "VolumeGrowthEstimate",
    "unit_sphere_area",
    "space_from_json",
    "KAIMANOVICH_R_CAP",
]

# Quadrature tolerances for ball volumes (closed-form checks demand these).
_QUAD_EPSABS = 1e-10
_QUAD_EPSREL = 1e-8

# Below this k r, cosh(k r) - 1 and sinh(k r) cosh(k r) - k r lose digits to
# cancellation (all of them below k r ~ 1e-8), so Hyperbolic.ball_volume takes
# forms without the subtraction.  The radii of the report grids and of the
# nets' mesh balls (k r >= 0.125) stay on the closed-form side.
_SMALL_KR = 0.1

# 1/(2n+1)! for n = 6, 5, ..., 1: the Horner coefficients of
# (sinh y - y) / y^3 = sum of y^(2n-2) / (2n+1)!, whose seventh term is below
# 1e-19 of the sum for y <= 2 _SMALL_KR.
_SINH_SERIES = tuple(1.0 / math.factorial(2 * n + 1) for n in range(6, 0, -1))

# Largest radius at which HalfPlane.points_at_radii lands within 1e-6 of it
# (3.8e-7 at r = 22 over 2e6 angles; 1.1e-6 at r = 23).
_HALFPLANE_R_MAX = 22.0

# The JSON keys of each space kind besides "kind": (required, optional).  space_from_json
# checks a space's keys against them, and ModelManifold.to_json_dict writes them in this order.
_SPACE_KINDS = {"euclidean": (("dim",), ()), "hyperbolic": (("dim",), ("k",)), "halfplane": ((), ()),
                "rotsym": (("profile",), ("k",))}


class GeometryError(ValueError):
    """Invalid coordinates or an operation outside a chart's domain."""


@functools.cache
def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^{dim-1} in R^dim, dim 1-3 (cached:
    radial quadrature integrands call it at every node)."""
    if dim not in (1, 2, 3):
        raise GeometryError(f"unit sphere areas cover the catalog dimensions 1-3, got {dim}")
    if dim == 1:
        return 2.0  # S^0 = two points
    return 2.0 * math.pi ** (dim / 2.0) / _GAMMA_HALVES[dim - 1]


def _check_radius(r: float) -> None:
    if not r >= 0:  # NaN fails too
        raise GeometryError(f"radius must be >= 0, got {r}")


# Beyond this radius the H(r)-t increments of the Kaimanovich profile are below
# 1e-2 per unit time and a path's state is frozen (sde_sim.kaimanovich_tail_limit).
KAIMANOVICH_R_CAP = 200.0


def builtin_profile(label: str, k: float | None = None) -> RotSymSurface:
    """Surfaces of the built-in profiles: 'euclid', 'hyperbolic' (curvature -k^2,
    k = 1 when None) and 'kaimanovich'.  Only 'hyperbolic' reads k; the other
    two refuse one rather than drop it."""
    if label in ("euclid", "kaimanovich") and k is not None:
        raise GeometryError(f"the {label} profile reads no k, got {k}")
    if label == "euclid":
        return RotSymSurface(
            name="euclid", curvature=0.0,
            p=lambda r: np.asarray(r, dtype=float),
            drift=lambda r: 1.0 / (2.0 * r),
            inv_p_sq=lambda r: 1.0 / np.asarray(r, dtype=float) ** 2,
        )
    if label == "hyperbolic":
        k = 1.0 if k is None else k
        if not 0 < k < math.inf:
            raise GeometryError(f"hyperbolic profile needs a finite k > 0, got {k}")
        return RotSymSurface(
            name=f"hyperbolic(k={k:g})", curvature=k,
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

        return RotSymSurface(
            name="kaimanovich", curvature=None,
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

    def _in_chart(self, points) -> np.ndarray:
        """points as a float array of rows, each in the chart: dim finite coordinates.
        Checked as a whole; the first bad row is looked up only for the message."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise GeometryError(f"expected a point in R^{self.dim}, got shape {pts.shape[1:]}")
        if not np.isfinite(pts).all():  # a NaN or inf coordinate gives a NaN or inf distance
            bad = pts[~np.isfinite(pts).all(axis=1)][0]
            raise GeometryError(f"point coordinates must be finite, got {bad.tolist()}")
        return pts

    def validate_point(self, pt) -> np.ndarray:
        return self._in_chart(np.reshape(pt, (1, -1)))[0]

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        """Exact distances from each row of points to pt, all of them in the chart (_in_chart)."""
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
        pts = np.asarray(points, dtype=float)
        pts = pts[:, None] if pts.ndim == 1 else pts  # scalar points on the line
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

    def volume_growth(self, r_max: float) -> VolumeGrowthEstimate:
        """Least-squares slope of log vol(B_r) over the top half of a 200-point
        radius grid.

        Non-finite volumes (profile overflow) are reported via the `finite`
        flag, never silently clipped; a fitted volume of 0, or radii too
        small for the fit to resolve a slope (r_max below about 1e-13),
        raise GeometryError.
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
        x, vols = r_grid[top], vols[top]
        if not vols.all():
            raise GeometryError(f"ball volume is 0 at the fitted radius r = {x[vols == 0][0]:g}; "
                                f"r_max = {r_max:g} is too small to fit a growth rate")
        y = np.log(vols)
        design = np.vstack([x, np.ones_like(x)]).T
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < 2:  # the radii are too small against 1 to resolve a slope
            raise GeometryError(f"r_max = {r_max:g} is too small to fit a growth rate")
        return VolumeGrowthEstimate(value=float(coef[0]), finite=True)

    def drift_scale(self) -> float:
        """v = (dim - 1) k / 2, the radial drift far from the basepoint."""
        return (self.dim - 1) * self.k / 2.0

    def k_functional(self) -> float | None:
        """The k functional where it has a closed form; None elsewhere."""
        return None

    # -- misc ----------------------------------------------------------------
    def label(self) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        """The object space_from_json reads back: the kind, then its keys in
        _SPACE_KINDS order, each read off the attribute of its name."""
        required, optional = _SPACE_KINDS[self.kind]
        return {"kind": self.kind, **{key: getattr(self, key) for key in required + optional}}


class Euclidean(ModelManifold):
    kind = "euclidean"
    k = 0.0

    def __init__(self, dim: int):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2, 3):
            raise GeometryError(f"Euclidean dimension must be 1, 2 or 3, got {dim}")
        self.dim = dim

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        return np.linalg.norm(self._in_chart(points) - self.validate_point(pt), axis=1)

    def sphere_area(self, r: float) -> float:
        _check_radius(r)
        return unit_sphere_area(self.dim) * r ** (self.dim - 1)

    def log_sphere_area(self, r: float) -> float:
        if r <= 0:
            return -math.inf
        return math.log(unit_sphere_area(self.dim)) + (self.dim - 1) * math.log(r)

    def ball_volume(self, r: float) -> float:
        _check_radius(r)
        return math.pi ** (self.dim / 2.0) / _GAMMA_HALVES[self.dim + 1] * r ** self.dim

    def label(self) -> str:
        return f"euclidean(dim={self.dim})"


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

    kind = "hyperbolic"

    def __init__(self, dim: int, k: float = 1.0):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (2, 3):
            raise GeometryError(f"Hyperbolic dimension must be 2 or 3, got {dim}")
        if not 0 < k < math.inf:
            raise GeometryError(f"curvature parameter k must be finite and > 0, got {k}")
        self.dim = dim
        self.k = float(k)

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        pts = self._in_chart(points)
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
            return math.inf

    def log_sphere_area(self, r: float) -> float:
        if r <= 0:
            return -math.inf
        kr = self.k * r
        shrink = math.exp(-2.0 * kr)
        if shrink == 1.0:  # kr below the float resolution: sinh(kr)/k is r
            log_p = math.log(r)
        else:  # log(sinh(kr)/k) without overflow
            log_p = kr + math.log1p(-shrink) - math.log(2.0 * self.k)
        return math.log(unit_sphere_area(self.dim)) + (self.dim - 1) * log_p

    def ball_volume(self, r: float) -> float:
        _check_radius(r)
        k = self.k
        small = k * r < _SMALL_KR
        try:
            if self.dim == 2:
                if small:  # cosh(kr) - 1 = 2 sinh^2(kr/2)
                    return 4.0 * math.pi * (math.sinh(k * r / 2.0) / k) ** 2
                return 2.0 * math.pi * (math.cosh(k * r) - 1.0) / k ** 2
            if small:  # sinh(kr) cosh(kr) - kr = 4 (kr)^3 g(2 kr), g(y) = (sinh y - y) / y^3
                z, g = (2.0 * k * r) ** 2, 0.0
                for c in _SINH_SERIES:
                    g = g * z + c
                return 8.0 * math.pi * r ** 3 * g
            return 2.0 * math.pi * (math.sinh(k * r) * math.cosh(k * r) - k * r) / k ** 3
        except OverflowError:  # math.cosh and math.sinh raise past k r ~ 710
            return math.inf

    def label(self) -> str:
        return f"hyperbolic(dim={self.dim},k={self.k:g})"


class HalfPlane(Hyperbolic):
    """Upper half-plane {(x, y): y > 0}, ds^2 = y^-2 (dx^2 + dy^2), curvature -1.

    H^2 with k = 1 in its own chart: the radial geometry is Hyperbolic's, and
    only the chart methods are overridden.
    """

    kind = "halfplane"
    dim = 2
    k = 1.0  # also read on the class, by the CLI's --kappa check

    def __init__(self):
        super().__init__(self.dim, self.k)

    @property
    def basepoint(self):
        return np.array([0.0, 1.0])

    def _in_chart(self, points) -> np.ndarray:
        pts = super()._in_chart(points)  # finite, so y <= 0 finds the bad row
        if not (pts[:, 1] > 0).all():
            raise GeometryError(f"half-plane needs y > 0, got y = {pts[pts[:, 1] <= 0, 1][0]}")
        return pts

    def dist_to_many(self, points: np.ndarray, pt) -> np.ndarray:
        pts = self._in_chart(points)
        p = self.validate_point(pt)
        arg = 1.0 + ((pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2) / (2.0 * pts[:, 1] * p[1])
        return np.arccosh(np.maximum(arg, 1.0))

    def points_at_radii(self, rs: np.ndarray, rng) -> np.ndarray:
        """Geodesic polar coordinates about i mapped into half-plane coordinates
        through the Poincare disk (w = tanh(r/2) e^{i phi}, z = i (1+w)/(1-w)).
        tanh(r/2) rounds ever closer to 1, so past r = _HALFPLANE_R_MAX a point
        may land more than 1e-6 from its radius: such radii raise GeometryError."""
        if not rs.max(initial=0.0) <= _HALFPLANE_R_MAX:  # NaN fails too
            raise GeometryError(f"the half-plane chart places points within 1e-6 of their radius "
                                f"only up to r = {_HALFPLANE_R_MAX:g}, got r = {rs.max()}")
        phi = rng.uniform(0.0, 2.0 * math.pi, rs.size)
        w = np.tanh(rs / 2.0) * np.exp(1j * phi)
        z = 1j * (1.0 + w) / (1.0 - w)
        return np.column_stack([z.real, np.maximum(z.imag, 1e-300)])

    def k_functional(self) -> float:
        from . import busemann  # here: only reports read k; perfbench wraps the module's function

        return busemann.k_functional_and_equality()[0]

    def label(self) -> str:
        return "halfplane"


@dataclass(frozen=True, eq=False)
class RotSymSurface(ModelManifold):
    """Surface ds^2 = dr^2 + p(r)^2 dtheta^2 about a pole, given by its profile:
    p, the radial SDE drift p'/(2p) and the angular clock integrand 1/p^2, each
    taking floats or numpy arrays, the last two in numerically stable forms
    (the plain quotients overflow for rapidly growing profiles).  Smoothness at
    the pole requires p(0) = 0 and p'(0) = 1, with p'(0+) read as 2 p drift.
    curvature is the k of a constant-curvature profile (0 on 'euclid'), None on
    any other.  Only the radial geometry is defined: no pairwise distances.
    """

    kind = "rotsym"
    dim = 2
    k = None

    name: str
    curvature: float | None
    p: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    inv_p_sq: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        eps = 1e-7
        p0 = float(self.p(eps))
        dp0 = 2.0 * p0 * float(self.drift(eps))
        if abs(p0) > 10 * eps or abs(dp0 - 1.0) > 1e-4:
            raise GeometryError(
                f"profile {self.name!r} violates p(0)=0, p'(0)=1 "
                f"(p({eps})={p0:.3g}, p'({eps})={dp0:.3g})"
            )

    def sphere_area(self, r: float) -> float:
        _check_radius(r)
        return 2.0 * math.pi * float(self.p(r))

    def ball_volume(self, r: float) -> float:
        # imported here: the catalog spaces have closed forms, so a process
        # that reads only those loads no quadrature.  rdl's Gauss-Kronrod
        # bisection gives scipy's quad bit for bit on these smooth profiles
        from ._quadpack import nodes, quad

        _check_radius(r)
        if r == 0:
            return 0.0
        with np.errstate(over="ignore"):
            val, _ = quad(lambda a, b: [self.sphere_area(x) for x in nodes(a, b)], 0.0, r,
                          epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)
        return val

    def label(self) -> str:
        return f"rotsym({self.name})"

    def to_json_dict(self) -> dict:
        """The built-in profile that space_from_json rebuilds under this name;
        GeometryError for a surface that none rebuilds."""
        obj = {"kind": self.kind, "profile": self.name}
        if self.curvature:  # only a hyperbolic profile reads k; euclid's curvature is 0
            obj = {"kind": self.kind, "profile": "hyperbolic", "k": self.curvature}
        try:
            rebuilt = builtin_profile(obj["profile"], obj.get("k")).name
        except GeometryError:
            rebuilt = None
        if rebuilt != self.name:
            raise GeometryError(f"surface {self.name!r} is no built-in profile, so JSON cannot hold it")
        return obj


def json_int(value, name: str, error: type[ValueError] = GeometryError) -> int:
    """An integer field read from JSON or passed to a config: an integral
    number (numpy's integers too), never a bool (True == 1 in Python), a
    string or a fractional number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
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


def json_object(obj, what: str, required: tuple, optional: tuple | None,
                error: type[ValueError] = GeometryError) -> dict:
    """An object read from JSON: a dict with every key of required and none outside
    required and optional (None admits any, for a caller that learns the rest of
    the keys from a field).  A missing key is reported before an unknown one."""
    if not isinstance(obj, dict):
        raise error(f"{what} is a JSON object with the keys {list(required)}, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise error(f"{what} is missing the key {key!r}")
    unknown = [] if optional is None else sorted(set(obj).difference(required, optional))
    if unknown:
        raise error(f"unknown key {unknown[0]!r} in {what}")
    return obj


def space_from_json(obj: dict) -> ModelManifold:
    """Inverse of ModelManifold.to_json_dict."""
    kind = json_object(obj, "a space", ("kind",), None)["kind"]
    if not isinstance(kind, str) or kind not in _SPACE_KINDS:
        raise GeometryError(f"unknown space kind {kind!r}")
    required, optional = _SPACE_KINDS[kind]
    json_object(obj, f"a {kind} space", required, ("kind", *optional))
    if kind == "euclidean":
        return Euclidean(json_int(obj["dim"], "dim"))
    if kind == "hyperbolic":
        return Hyperbolic(json_int(obj["dim"], "dim"), json_number(obj.get("k", 1.0), "k"))
    if kind == "halfplane":
        return HalfPlane()
    profile = obj["profile"]
    if profile != "hyperbolic":  # the one profile that reads k
        json_object(obj, f"a rotsym space of profile {profile!r}", required, ("kind",))
    return builtin_profile(profile, json_number(obj["k"], "k") if "k" in obj else None)
