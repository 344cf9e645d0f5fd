"""Quadrature estimators for drift, entropy, volume growth, and the
inequality chains between them.

Estimator conventions (all for the transition density q(t) = p(t/2)):

  ell_t(M)    = int d(o,x) q(t,o,x) dx          (mean displacement)
  h_t(M)      = -int q log q dx                 (differential entropy)
  v(M)        = slope of log vol(B_r) at large r

A report reads ell_t and h_t from one moment table: one radial quadrature
call per horizon, ell_t at every horizon and h_t (with the kernel mass) at
the last three.  The radial quadrature is the adaptive 21-point
Gauss-Kronrod bisection of QUADPACK's QAGS without its extrapolation, in
_quadpack (on these integrands scipy's quad bit for bit, without importing
scipy), fed a whole 21-node panel of kernel values from one array call of
the kernel, bit for bit the values of one call per radius.  Two drift
estimates are reported: the subadditive ratio ell_t/t (an upper bound, non-increasing
in t) and the increment (ell_T - ell_S) / (T - S) over the last step S < T
of the horizon grid, 1/k^2 on the default grid of a curved space and 50 on
R^d (converges exponentially fast on the hyperbolic family; this is the
quadrature form of the Busemann-increment drift formula).  The inequality chain uses the
pairing whose finite-t biases cannot produce spurious violations: the upper
chain h <= ell*v takes the ratio, everything else takes increments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ._quadpack import nodes, quad
from .heat_kernels import _ridge, kernel_for, truncation_radius
from .model_spaces import ModelManifold, json_number, json_object, space_from_json

__all__ = [
    "EstimatorError",
    "EstimatorInputError",
    "SubadditiveDriftFit",
    "drift_subadditive_limit",
    "entropy_quadrature",
    "EntropyRateFit",
    "entropy_rate",
    "Ensemble",
    "InequalityStatus",
    "AsymptoticReport",
    "inequality_report",
    "default_t_grid",
]

_MASS_TOL = 0.999
_QUAD_TOL = 1.49e-8  # epsabs and epsrel of the radial quadratures (scipy quad's defaults)
_SLACK_TOL = 1e-3  # normalized slack tolerance for the inequality chain
_SUBADDITIVE_TOL = 1e-6  # quadrature slack of the subadditivity and monotonicity audits
_CAUCHY_REL_TOL = 0.10  # entropy increments: relative Cauchy tolerance
_CAUCHY_ABS_TOL = 1e-3  # entropy increments: absolute Cauchy tolerance, for rates near zero
# smallest sqrt(t) / R, R the truncation radius: below 2.05e-4 (R^3, H^3) to
# 2.33e-4 (R^1) the first 21-node rule on [ridge, R] reads only zeros, so ell_t
# comes out up to 61% low, and further down the kernel mass drops below _MASS_TOL
_MIN_SPREAD = 2.5e-4


class EstimatorError(RuntimeError):
    """Hard estimator failure (e.g. non-normalized kernel)."""


class EstimatorInputError(EstimatorError, ValueError):
    """Bad input to an estimator (an ensemble, a horizon grid), not a failed
    invariant; as a ValueError the CLI reports it as a usage error."""


def _mass(r, lq):
    return 1.0


def _dist(r, lq):
    return r


def _surprisal(r, lq):
    return -lq


def _radial_integral(space: ModelManifold, t: float, weights: tuple,
                     r_hi: float | None = None) -> tuple[float, ...]:
    """int_0^R w(r, log_q(r)) exp(log_q + log_area) dr for each w in weights,
    split at the ridge, by QAGS's Gauss-Kronrod bisection (_quadpack.quad,
    scipy's quad bit for bit on these integrands).

    The quadrature asks for the integrand a panel at a time.  A panel's 21
    nodes go to the kernel in one array call, whose values are the bits of
    one call per radius, and the panel's (r, log q, exp(log q + log area))
    rows are kept by its ends, local to this call, so the moments share the
    kernel values of the panels their quads have in common.
    """
    ker = kernel_for(space)
    rows_by_panel = {}

    def rows(a, b):
        if (a, b) not in rows_by_panel:
            rs = nodes(a, b)
            out = rows_by_panel[(a, b)] = []
            for r, lq in zip(rs, ker.log_q(t, np.array(rs)).tolist()):
                val = lq + space.log_sphere_area(r)
                out.append((r, lq, None if val < -745.0 else math.exp(val)))  # None: integrand 0
        return rows_by_panel[(a, b)]

    def panel(weight):
        return lambda a, b: [0.0 if e is None else weight(r, lq) * e for r, lq, e in rows(a, b)]

    hi = r_hi if r_hi is not None else truncation_radius(space, t)
    edges = [0.0, min(_ridge(space, t), hi), hi]
    pieces = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    totals = []
    for weight in weights:
        total = 0.0
        for a, b in pieces:
            val, _ = quad(panel(weight), a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=300)
            total += val
        totals.append(total)
    return tuple(totals)


def _check_mass(space: ModelManifold, t: float, mass: float) -> None:
    if not (mass >= _MASS_TOL):
        raise EstimatorError(
            f"kernel mass {mass:.6f} < {_MASS_TOL} on {space.label()} at t={t}; "
            "kernel or truncation bug"
        )


def _check_resolvable(space: ModelManifold, t: float) -> None:
    """Reject a horizon with sqrt(t) < _MIN_SPREAD R, R the truncation radius.

    R = 3 v t + S + 5, S = sqrt(9 v^2 t^2 + 120 t), v the drift_scale.  sqrt(t)/R
    falls as t grows where R < 2 t R', that is where S (5 - 3 v t) < 9 v^2 t^2
    (never on R^d): there the horizon is too large, elsewhere too small."""
    big = truncation_radius(space, t)
    if math.sqrt(t) < _MIN_SPREAD * big:
        vt = space.drift_scale() * t
        falling = math.sqrt(9.0 * vt * vt + 120.0 * t) * (5.0 - 3.0 * vt) < 9.0 * vt * vt
        raise EstimatorInputError(
            f"horizon t = {t:.6g} is too {'large' if falling else 'small'} on {space.label()}: "
            f"sqrt(t) = {math.sqrt(t):.3g} is below {_MIN_SPREAD:g} R = {_MIN_SPREAD * big:.3g}, "
            f"R = {big:.6g} the truncation radius")


def _horizon_moments(space: ModelManifold, t_grid) -> tuple[dict, dict]:
    """(ell_by_t, h_by_t): ell_t at every horizon of the sorted grid and h_t at
    the last three, from one _radial_integral call per horizon.  The kernel
    mass is checked where h is read.  Every horizon passes _check_resolvable
    before any quadrature runs."""
    ts = sorted(float(t) for t in t_grid)
    if len(ts) < 4:
        raise EstimatorInputError("t_grid needs >= 4 points")
    # NaN does not sort, so every horizon is checked, not just the ends
    if not all(0.0 < t < math.inf for t in ts) or len(set(ts)) < len(ts):
        raise EstimatorInputError(f"t_grid needs distinct finite horizons > 0, got {ts}")
    for t in ts:
        _check_resolvable(space, t)
    ell, h = {}, {}
    for t in ts[:-3]:
        (ell[t],) = _radial_integral(space, t, (_dist,))
    for t in ts[-3:]:
        mass, ell[t], h[t] = _radial_integral(space, t, (_mass, _dist, _surprisal))
        _check_mass(space, t, mass)
    return ell, h


@dataclass(frozen=True)
class SubadditiveDriftFit:
    value: float            # ell_{t_max} / t_max  (Fekete upper bound)
    increment: float        # (ell_{t_max} - ell_s) / (t_max - s), s the previous horizon
    ell_by_t: dict
    subadditivity_violations: list
    ratio_monotone: bool


def drift_subadditive_limit(ell_by_t: dict) -> SubadditiveDriftFit:
    """Estimate ell from ell_t on a grid of horizons and audit L_{t+s} <= L_t + L_s
    and L_t/t non-increasing.

    A failed audit beyond quadrature tolerance indicates a kernel bug;
    inequality_report raises EstimatorError on either.
    """
    ell = ell_by_t
    ts = sorted(ell)
    t_max = ts[-1]
    violations = []
    for t in ts:
        for s in ts:
            tot = t + s
            if tot in ell and ell[tot] > ell[t] + ell[s] + _SUBADDITIVE_TOL:
                violations.append((t, s, ell[tot] - ell[t] - ell[s]))
    ratios = [ell[t] / t for t in ts]
    monotone = all(b <= a + _SUBADDITIVE_TOL for a, b in zip(ratios, ratios[1:]))
    delta = t_max - ts[-2]
    inc = (ell[t_max] - ell[ts[-2]]) / delta
    return SubadditiveDriftFit(
        value=ell[t_max] / t_max,
        increment=inc,
        ell_by_t=ell,
        subadditivity_violations=violations,
        ratio_monotone=monotone,
    )


def entropy_quadrature(space: ModelManifold, t: float) -> float:
    """h_t = -int q log q dx by radial quadrature, at a horizon that passes
    _check_resolvable."""
    _check_resolvable(space, t)
    mass, h = _radial_integral(space, t, (_mass, _surprisal))
    _check_mass(space, t, mass)
    return h


@dataclass(frozen=True)
class EntropyRateFit:
    ratio: float        # h_{t_max} / t_max  (slow: O(log t / t) error)
    increment: float    # (h_{t_max} - h_{t_max-delta}) / delta
    previous_increment: float
    converged: bool     # Cauchy test on the last two increments


def entropy_rate(h_by_t: dict) -> EntropyRateFit:
    """Entropy rate h via increments of h_t at the last three horizons; the
    ratio is reported alongside.

    Convergence is certified by a Cauchy test on the last two increments
    (the ratio converges only at O(log t / t) and is not used as a flag);
    _CAUCHY_ABS_TOL covers rates that converge to zero, where a relative
    test is meaningless.
    """
    h = h_by_t
    t0, t1, t2 = sorted(h)[-3:]
    inc = (h[t2] - h[t1]) / (t2 - t1)
    prev = (h[t1] - h[t0]) / (t1 - t0)
    scale = max(abs(inc), abs(prev))
    converged = abs(inc - prev) <= _CAUCHY_REL_TOL * scale + _CAUCHY_ABS_TOL
    return EntropyRateFit(
        ratio=h[t2] / t2, increment=inc, previous_increment=prev, converged=converged
    )


# ------------------------------------------------------------------ ensembles


@dataclass(frozen=True)
class Ensemble:
    components: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise EstimatorInputError("ensemble needs matching nonempty components and weights")
        if not all(0 < w < math.inf for w in self.weights):
            raise EstimatorInputError(f"ensemble weights must be finite and positive, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise EstimatorInputError(f"ensemble weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Ensemble":
        entries = json_object(obj, "an ensemble", ("components",), (), EstimatorInputError)["components"]
        if not isinstance(entries, list):
            raise EstimatorInputError(f"an ensemble's 'components' is a list, got {type(entries).__name__}")
        comps, weights = [], []
        for entry in entries:
            json_object(entry, "an ensemble component", ("weight", "space"), (), EstimatorInputError)
            weights.append(json_number(entry["weight"], "weight", EstimatorInputError))
            comps.append(space_from_json(entry["space"]))
        return cls(components=tuple(comps), weights=tuple(weights))


# ------------------------------------------------------------------- reports


# JSON keys that differ from the report's field names
_JSON_KEYS = {"inequality_status": "inequalities", "passed": "pass"}


def _num(x):
    """JSON form of a report value: a float that is not finite becomes "inf" or
    "nan", so the JSON stays strict; dataclasses and sequences convert field by
    field and item by item."""
    if is_dataclass(x):
        return {_JSON_KEYS.get(f.name, f.name): _num(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (list, tuple)):
        return [_num(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else "inf"
    return x


@dataclass(frozen=True)
class InequalityStatus:
    name: str
    lhs: float
    rhs: float
    slack: float
    normalized_slack: float
    passed: bool

    @staticmethod
    def check(name: str, lhs: float, rhs: float) -> "InequalityStatus":
        slack = rhs - lhs
        if rhs == math.inf and not math.isinf(lhs):
            norm = math.inf
        else:
            norm = slack / max(1.0, abs(lhs), abs(rhs))
        return InequalityStatus(name=name, lhs=lhs, rhs=rhs, slack=slack, normalized_slack=norm,
                                passed=norm >= -_SLACK_TOL)


@dataclass(frozen=True)
class AsymptoticReport:
    space: dict
    ell: float
    ell_upper: float
    ell_ci: tuple
    ell_plus: float
    entropy_h: float
    entropy_ratio: float
    entropy_ci: tuple
    volume_v: float
    volume_finite: bool
    k_functional: float | None
    inequality_status: list
    t_grid: list
    methods: dict
    converged: bool
    flags: list

    def to_json_dict(self) -> dict:
        return {"schema": "v1", **_num(self)}

    def all_pass(self) -> bool:
        return all(s.passed for s in self.inequality_status)

    def render_table(self) -> str:
        rows = [
            ("quantity", "value", "method"),
            ("ell", f"{self.ell:.6f}", self.methods.get("ell", "")),
            ("ell_upper", f"{self.ell_upper:.6f}", self.methods.get("ell_upper", "")),
            ("ell_plus", f"{self.ell_plus:.6f}", self.methods.get("ell_plus", "")),
            ("h", f"{self.entropy_h:.6f}", self.methods.get("entropy_h", "")),
            ("h_ratio", f"{self.entropy_ratio:.6f}", self.methods.get("entropy_ratio", "")),
            ("v", f"{self.volume_v:.6f}" if math.isfinite(self.volume_v) else str(self.volume_v),
             self.methods.get("volume_v", "")),
        ]
        if self.k_functional is not None:
            rows.append(("k", f"{self.k_functional:.6f}", self.methods.get("k_functional", "")))
        lines = [f"space: {self.space}", "-" * 64]
        for a, b, c in rows:
            lines.append(f"{a:<12} {b:>14}  {c}")
        lines.append("-" * 64)
        for s in self.inequality_status:
            rhs = f"{s.rhs:.6f}" if math.isfinite(s.rhs) else str(s.rhs)
            verdict = "pass" if s.passed else "FAIL"
            lines.append(f"{s.name:<24} lhs={s.lhs:.6f} rhs={rhs} [{verdict}]")
        lines.append(f"converged: {self.converged}   flags: {self.flags or 'none'}")
        return "\n".join(lines)


def default_t_grid(space: ModelManifold) -> list[float]:
    """Desk-scale horizons.

    Curved spaces use t_max = 40/k^2 (diffusive scaling: H_k at time t looks
    like H_1 at time k^2 t, so this keeps the finite-horizon bias 1/(k^2 t)
    uniform over the catalog).  Flat space runs to t = 2500 (cheap 1-D
    quadratures) so the finite-t entropy increment d/(2t) falls below the
    chain's slack tolerance.
    """
    kernel_for(space)  # out-of-catalog spaces raise KernelError, not AttributeError
    if space.k == 0:
        return [100.0, 500.0, 1000.0, 1500.0, 2000.0, 2400.0, 2450.0, 2500.0]
    k = space.k
    if not sys.float_info.min <= k * k < math.inf:
        raise EstimatorInputError(
            f"the default horizons t / k^2 need k^2 to be a normal float, got k = {k:g}")
    base = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 38.0, 39.0, 40.0]
    return [t / (k * k) for t in base]


def inequality_report(target, t_grid=None, r_max: float = 40.0) -> AsymptoticReport:
    """Assemble ell, h, v (and k on the half-plane) and evaluate the chains

        (1/2) ell^2 <= h <= ell v          (all spaces)
        2 ell^2 <= h, with equality audit  (negatively curved homogeneous)

    A non-converged entropy estimate is reported via the `converged` flag.
    """
    if isinstance(target, Ensemble):
        return _ensemble_report(target, t_grid=t_grid, r_max=r_max)
    space = target
    ell_by_t, h_by_t = _horizon_moments(
        space, t_grid if t_grid is not None else default_t_grid(space))
    flags = []

    dfit = drift_subadditive_limit(ell_by_t)
    if dfit.subadditivity_violations or not dfit.ratio_monotone:
        raise EstimatorError(f"drift audit failed: subadditivity violations {dfit.subadditivity_violations}, "
                             f"ell_t/t non-increasing: {dfit.ratio_monotone}")
    efit = entropy_rate(h_by_t)
    vfit = space.volume_growth(r_max)
    if not vfit.finite:
        flags.append("volume growth not finite: inequality chain vacuous")

    k_val = space.k_functional()
    ell, ell_up = dfit.increment, dfit.value
    h_inc, h_ratio = efit.increment, efit.ratio
    v = vfit.value
    checks = [
        InequalityStatus.check("half_ell_sq_le_h", 0.5 * ell * ell, h_inc),
        InequalityStatus.check("h_le_ell_v", h_inc, ell_up * v),
    ]
    if space.k > 0:
        checks.append(InequalityStatus.check("two_ell_sq_le_h", 2.0 * ell * ell, h_inc))
        if k_val is not None:
            checks.append(InequalityStatus.check("two_ell_sq_le_k", 2.0 * ell * ell, k_val))
            checks.append(InequalityStatus.check("k_le_h", k_val, h_inc))
    return AsymptoticReport(
        space=space.to_json_dict(),
        ell=ell,
        ell_upper=ell_up,
        ell_ci=(min(ell, ell_up), max(ell, ell_up)),
        ell_plus=ell,
        entropy_h=h_inc,
        entropy_ratio=h_ratio,
        entropy_ci=(min(h_inc, h_ratio), max(h_inc, h_ratio)),
        volume_v=v,
        volume_finite=vfit.finite,
        k_functional=k_val,
        inequality_status=checks,
        t_grid=list(ell_by_t),
        methods={
            "ell": "quadrature increment (Busemann/Furstenberg form)",
            "ell_upper": "subadditive ratio ell_t/t (Fekete upper bound)",
            "ell_plus": "single ergodic component",
            "entropy_h": "entropy increment",
            "entropy_ratio": "h_t/t",
            "volume_v": "log-volume slope fit",
            "k_functional": "closed form (half-plane Poisson kernel)",
        },
        converged=efit.converged,
        flags=flags,
    )


def _ensemble_report(ensemble, t_grid, r_max):
    """The mixture's report as weighted sums of per-component columns ell,
    ell_upper, h, h_ratio and v, with ell_plus = max ell_i, since each component
    is itself ergodic and the fastest one in the support sets the escape-rate
    radius.  Each component's columns come from its own report, on the grid the
    caller passed, and the mixture's chain is (1/2) ell^2 <= h."""
    ws = ensemble.weights
    reports = [inequality_report(c, t_grid=t_grid, r_max=r_max) for c in ensemble.components]
    rows = [(r.ell, r.ell_upper, r.entropy_h, r.entropy_ratio, r.volume_v) for r in reports]
    ell, ell_up, h, h_ratio, v = (sum(w * x for w, x in zip(ws, col)) for col in zip(*rows))
    return AsymptoticReport(
        space={"kind": "ensemble",
               "components": [{"space": r.space, "weight": w} for r, w in zip(reports, ws)]},
        ell=ell,
        ell_upper=ell_up,
        ell_ci=(min(ell, ell_up), max(ell, ell_up)),
        ell_plus=max(r.ell for r in reports),
        entropy_h=h,
        entropy_ratio=h_ratio,
        entropy_ci=(h, h),
        volume_v=v,
        volume_finite=all(r.volume_finite for r in reports),
        k_functional=None,
        inequality_status=[InequalityStatus.check("half_ell_sq_le_h", 0.5 * ell * ell, h)],
        t_grid=[r.t_grid for r in reports],
        methods={"ell": "weighted component increments", "ell_plus": "max component drift"},
        converged=all(r.converged for r in reports),
        flags=[f for r in reports for f in r.flags],
    )
