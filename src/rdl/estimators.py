"""Quadrature estimators for drift, entropy, volume growth, and the
inequality chains between them.

Estimator conventions (all for the transition density q(t) = p(t/2)):

  ell_t(M)    = int d(o,x) q(t,o,x) dx          (mean displacement)
  h_t(M)      = -int q log q dx                 (differential entropy)
  v(M)        = slope of log vol(B_r) at large r

A report reads ell_t and h_t from one moment table: one radial quadrature
call per horizon, ell_t at every horizon and h_t (with the kernel mass) at
the last three.  Two drift estimates are reported: the subadditive ratio
ell_t/t (an upper bound, non-increasing in t) and the increment
(ell_T - ell_S) / (T - S) over the last step S < T of the horizon grid,
1/k^2 on the default grid of a curved space and 50 on R^d (converges
exponentially fast on the hyperbolic family; this is the quadrature form of
the Busemann-increment drift formula).  The inequality chain uses the
pairing whose finite-t biases cannot produce spurious violations: the upper
chain h <= ell*v takes the ratio, everything else takes increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from . import busemann
from ._lazy import lazy
from .heat_kernels import _ridge, kernel_for, truncation_radius
from .model_spaces import HalfPlane, ModelManifold, json_number, space_from_json

quad = lazy("scipy.integrate", "quad")

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
_SLACK_TOL = 1e-3  # normalized slack tolerance for the inequality chain
_SUBADDITIVE_TOL = 1e-6  # quadrature slack of the subadditivity and monotonicity audits
_CAUCHY_REL_TOL = 0.10  # entropy increments: relative Cauchy tolerance
_CAUCHY_ABS_TOL = 1e-3  # entropy increments: absolute Cauchy tolerance, for rates near zero


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
    split at the ridge.

    Every quad call reads one dict r -> (log q, log q + log area), local to
    this call, so the moments share the kernel evaluations at their common
    nodes; each quad sees the values a call per weight would see, so its
    nodes do not change.
    """
    ker = kernel_for(space)
    known = {}

    def integrand(weight):
        def f(r):
            if r not in known:
                la = space.log_sphere_area(r)
                lq = -math.inf if la == -math.inf else float(ker.log_q(t, r))
                known[r] = (lq, lq + la)
            lq, val = known[r]
            if val < -745.0:
                return 0.0
            return weight(r, lq) * math.exp(val)

        return f

    hi = r_hi if r_hi is not None else truncation_radius(space, t)
    pieces = [0.0, min(_ridge(space, t), hi), hi]
    totals = []
    for weight in weights:
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b > a:
                val, _ = quad(integrand(weight), a, b, limit=300)
                total += val
        totals.append(total)
    return tuple(totals)


def _check_mass(space: ModelManifold, t: float, mass: float) -> None:
    if not (mass >= _MASS_TOL):
        raise EstimatorError(
            f"kernel mass {mass:.6f} < {_MASS_TOL} on {space.label()} at t={t}; "
            "kernel or truncation bug"
        )


def _horizon_moments(space: ModelManifold, t_grid) -> tuple[dict, dict]:
    """(ell_by_t, h_by_t): ell_t at every horizon of the sorted grid and h_t at
    the last three, from one _radial_integral call per horizon.  The kernel
    mass is checked where h is read."""
    ts = sorted(float(t) for t in t_grid)
    if len(ts) < 4:
        raise EstimatorInputError("t_grid needs >= 4 points")
    # NaN does not sort, so every horizon is checked, not just the ends
    if not all(0.0 < t < math.inf for t in ts) or len(set(ts)) < len(ts):
        raise EstimatorInputError(f"t_grid needs distinct finite horizons > 0, got {ts}")
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
    """h_t = -int q log q dx by radial quadrature."""
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
        comps, weights = [], []
        try:
            entries = obj["components"] if isinstance(obj, dict) else None
            if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
                raise EstimatorInputError("an ensemble is an object with a 'components' list of objects")
            for entry in entries:
                weights.append(json_number(entry["weight"], "weight", EstimatorInputError))
                comps.append(space_from_json(entry["space"]))
                unknown = sorted(set(entry) - {"weight", "space"})
                if unknown:
                    raise EstimatorInputError(f"unknown key {unknown[0]!r} in an ensemble component")
        except KeyError as e:
            raise EstimatorInputError(f"ensemble is missing the key {e}") from e
        except TypeError as e:
            raise EstimatorInputError(f"ensemble field of the wrong type: {e}") from e
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
        if math.isinf(rhs) and not math.isinf(lhs):
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
            rhs = f"{s.rhs:.6f}" if math.isfinite(s.rhs) else "inf"
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

    k_val = None
    if isinstance(space, HalfPlane):
        k_val, _ = busemann.k_functional_and_equality()

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
