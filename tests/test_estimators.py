from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
import pytest

from rdl.estimators import (
    Ensemble,
    EstimatorError,
    EstimatorInputError,
    _horizon_moments,
    default_t_grid,
    drift_subadditive_limit,
    entropy_quadrature,
    entropy_rate,
    inequality_report,
    truncation_radius,
)
from rdl.heat_kernels import KernelError, _ridge, kernel_for, zero_two_defect
from rdl.model_spaces import Euclidean, HalfPlane, Hyperbolic, builtin_profile

from test_heat_kernels import log_q_h2_scalar


# ----------------------------------------------------------------- drift


def test_drift_euclidean_closed_form():
    # ell_t = E|N(0, t I_d)| = sqrt(t) * sqrt(2) Gamma((d+1)/2) / Gamma(d/2)
    for d, c in ((1, math.sqrt(2 / math.pi)), (2, math.sqrt(math.pi / 2)),
                 (3, 2 * math.sqrt(2 / math.pi))):
        ell, _ = _horizon_moments(Euclidean(d), [25.0, 50.0, 75.0, 100.0])
        got = ell[100.0] / 100.0
        assert got == pytest.approx(c / 10.0, rel=1e-8)


def test_horizon_moments_rejects_a_horizon_too_small_to_resolve():
    # on R^1 ell_t read 61% low up to sqrt(t) = 2.33e-4 R, R the truncation
    # radius, with the kernel mass still 1; t = 1.1e-6 sits at 2.09e-4 R, under
    # the cut at 2.5e-4, and t = 2e-6 at 2.82e-4 R, above it
    with pytest.raises(EstimatorInputError, match=r"^horizon t = 1.1e-06 is too small on euclidean\(dim=1\)"):
        _horizon_moments(Euclidean(1), [2e-6, 1.1e-6, 3e-6, 4e-6])
    ell, _ = _horizon_moments(Euclidean(1), [2e-6, 3e-6, 4e-6, 5e-6])
    assert ell[2e-6] == pytest.approx(math.sqrt(2 * 2e-6 / math.pi), rel=1e-8)
    # entropy_quadrature shares the cut; below it, it raised EstimatorError
    # "kernel mass 0.393469 < 0.999 ... kernel or truncation bug"
    with pytest.raises(EstimatorInputError, match=r"^horizon t = 1e-08 is too small on euclidean\(dim=2\)"):
        entropy_quadrature(Euclidean(2), 1e-8)


def test_horizon_moments_calls_a_large_unresolvable_horizon_too_large():
    # on H^2, sqrt(t) / R falls as t grows, so t = 2e6 is cut for being large;
    # the message said "too small".  R^d has no such horizon.
    with pytest.raises(EstimatorInputError, match=r"^horizon t = 2e\+06 is too large on hyperbolic\(dim=2,k=1\)"):
        _horizon_moments(Hyperbolic(2), [1e6, 2e6, 3e6, 4e6])
    with pytest.raises(EstimatorInputError, match=r"^horizon t = 2e\+06 is too large on hyperbolic\(dim=3,k=0.5\)"):
        _horizon_moments(Hyperbolic(3, 0.5), [1e6, 2e6, 3e6, 4e6])
    with pytest.raises(EstimatorInputError, match=r"^horizon t = 1e-30 is too small on hyperbolic\(dim=2,k=1\)"):
        _horizon_moments(Hyperbolic(2), [1e-30, 2e-30, 3e-30, 4e-30])


@pytest.mark.parametrize("space, t, word", [
    (Hyperbolic(2), 1e200, "large"),
    (Hyperbolic(3, 1e-3), 1e160, "large"),
    (HalfPlane(), 1e300, "large"),
    (Euclidean(2), 1e307, "small"),
], ids=["h2", "h3-small-k", "halfplane", "e2"])
def test_horizon_past_the_float_range_of_the_truncation_radius_keeps_its_word(space, t, word):
    # R reads inf at t and just past it, so the ratio sqrt(t)/R is 0 at both; on H^d
    # it falls (R grows like v t), on R^d it rises to 1/sqrt(120)
    assert truncation_radius(space, t) == math.inf
    with pytest.raises(EstimatorInputError, match=re.escape(f"horizon t = {t:g} is too {word} on ")):
        entropy_quadrature(space, t)


def test_drift_euclidean_scaling_ratio_sqrt2():
    ell, _ = _horizon_moments(Euclidean(2), [50.0, 100.0, 150.0, 200.0])
    a, b = ell[100.0] / 100.0, ell[200.0] / 200.0
    assert a / b == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_drift_h2_ratio_and_increment():
    # finite-t law: ell_t = t/2 + 2 log 2 + o(1); the increment nails 1/2
    rep = inequality_report(Hyperbolic(2, 1.0))
    ratio = rep.ell_upper  # ell_40 / 40
    assert ratio == pytest.approx(0.5 + 2 * math.log(2.0) / 40.0, abs=2e-3)
    inc = rep.ell  # ell_40 - ell_39
    assert inc == pytest.approx(0.5, abs=5e-4)


def test_drift_h3_increment_is_one():
    rep = inequality_report(Hyperbolic(3, 1.0))
    assert rep.ell == pytest.approx(1.0, abs=1e-6)
    assert rep.ell_upper == pytest.approx(1.025, abs=1e-3)


def test_drift_subadditive_audit():
    ell, _ = _horizon_moments(Hyperbolic(2, 1.0), [5.0, 10.0, 15.0, 20.0, 39.0, 40.0])
    fit = drift_subadditive_limit(ell)
    assert fit.subadditivity_violations == []
    assert fit.ratio_monotone
    # L_2t <= 2 L_t within quadrature tolerance
    assert fit.ell_by_t[20.0] <= 2 * fit.ell_by_t[10.0] + 1e-6
    assert fit.value > fit.increment  # Fekete: ratio sits above the limit


def test_drift_euclidean_subadditivity_exact_form():
    # L_t = sqrt(2 t / pi) on the line; subadditive since sqrt is
    fit = drift_subadditive_limit(_horizon_moments(Euclidean(1), [1.0, 2.0, 3.0, 4.0])[0])
    for t, val in fit.ell_by_t.items():
        assert val == pytest.approx(math.sqrt(2 * t / math.pi), rel=1e-9)


def test_truncation_radius_is_conservative():
    # enlarging the radius changes nothing at quadrature precision
    sp = Hyperbolic(2, 1.0)
    from rdl.estimators import _radial_integral

    (base,) = _radial_integral(sp, 10.0, (lambda r, lq: r,))
    (wide,) = _radial_integral(sp, 10.0, (lambda r, lq: r,), r_hi=1.6 * truncation_radius(sp, 10.0))
    assert base == pytest.approx(wide, rel=1e-9)


@pytest.mark.parametrize("space", [Hyperbolic(2, 1.0), Hyperbolic(3, 1.0), Euclidean(2), HalfPlane()],
                         ids=lambda sp: sp.label())
def test_radial_integral_shares_log_q_without_changing_a_bit(space):
    # the moments of one call read one r -> log q dict; each quad must see the
    # values it sees alone, so every integral is bit-identical
    from rdl.estimators import _radial_integral

    weights = (lambda r, lq: 1.0, lambda r, lq: r, lambda r, lq: -lq)
    for t, r_hi in ((2.0, None), (7.5, None), (3.0, 2.5)):
        together = _radial_integral(space, t, weights, r_hi=r_hi)
        alone = tuple(_radial_integral(space, t, (w,), r_hi=r_hi)[0] for w in weights)
        assert together == alone
        if r_hi is None:  # nothing carried over from the previous t
            assert together[0] == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------------- entropy


def test_entropy_euclidean_closed_form():
    # h_t = (d/2) log(2 pi e t), quadrature within 1e-6
    for d in (1, 2, 3):
        for t in (1.0, 7.0):
            exact = 0.5 * d * math.log(2 * math.pi * math.e * t)
            assert entropy_quadrature(Euclidean(d), t) == pytest.approx(exact, abs=1e-6)


def test_entropy_h2_small_time_euclidean_limit():
    # h_t - log(2 pi e t) -> 0 linearly as t -> 0 (locally Euclidean)
    def gap(t):
        return entropy_quadrature(Hyperbolic(2, 1.0), t) - math.log(2 * math.pi * math.e * t)

    g1, g2 = gap(0.1), gap(0.05)
    assert abs(g1) < 0.06 and abs(g2) < 0.03
    assert g2 / g1 == pytest.approx(0.5, abs=0.1)


def test_entropy_rate_h2():
    # h is read at the last three horizons; t = 5 only fills the grid to four
    fit = entropy_rate(_horizon_moments(Hyperbolic(2, 1.0), [5.0, 30.0, 39.0, 40.0])[1])
    assert fit.increment == pytest.approx(0.5139, abs=2e-3)
    assert fit.converged
    assert fit.ratio > fit.increment  # ratio converges from above at O(log t / t)


def test_entropy_rate_euclidean_goes_to_zero():
    fit = entropy_rate(_horizon_moments(Euclidean(2), [500.0, 1000.0, 2400.0, 2500.0])[1])
    assert abs(fit.increment) < 1e-3
    assert abs(fit.ratio) < 5e-3


# ---------------------------------------------------- mutual information


def _mutual_information(space, t, T):
    """I_t^T = h_T - h_{T-t} on homogeneous spaces (test oracle)."""
    return entropy_quadrature(space, T) - entropy_quadrature(space, T - t)


def test_mutual_information_euclidean_closed_form():
    # I_t^T = (d/2) log(T / (T - t)) within 1e-6
    for d in (1, 2, 3):
        got = _mutual_information(Euclidean(d), 1.0, 2.0)
        assert got == pytest.approx(0.5 * d * math.log(2.0), abs=1e-6)
    assert _mutual_information(Euclidean(1), 1.0, 100.0) == pytest.approx(
        0.5 * math.log(100.0 / 99.0), abs=1e-6
    )
    assert _mutual_information(Euclidean(1), 1.0, 100.0) <= 0.006


def test_mutual_information_nonnegative_monotone_in_T():
    sp = Hyperbolic(2, 1.0)
    vals = [_mutual_information(sp, 1.0, T) for T in (2.0, 4.0, 8.0)]
    assert all(v >= 0 for v in vals)
    assert vals[0] >= vals[1] >= vals[2]


def test_finite_dim_bound_check():
    def finite_dim_bound(i_value, dim):  # I <= log(dim) + 0.01
        return i_value <= math.log(dim) + 0.01

    assert finite_dim_bound(0.005, 1)                      # Liouville: I ~ 0
    assert finite_dim_bound(1.0, 3)                        # log 3 ~ 1.0986
    # H^2 with dim 1 must FAIL: tail information grows like t * h > 0
    i_proxy = _mutual_information(Hyperbolic(2, 1.0), 1.0, 10.0)
    assert i_proxy > 0.3
    assert not finite_dim_bound(i_proxy, 1)


# -------------------------------------------------------------- ensembles


def test_ensemble_weight_validation():
    with pytest.raises(EstimatorError):
        Ensemble(components=(Hyperbolic(2), Hyperbolic(3)), weights=(0.5, 0.6))
    with pytest.raises(EstimatorError):
        Ensemble(components=(Hyperbolic(2),), weights=(-1.0,))


def test_ensemble_needs_one_weight_per_component():
    with pytest.raises(EstimatorError, match="matching nonempty components and weights"):
        Ensemble(components=(Hyperbolic(2),), weights=(0.5, 0.5))


def test_ensemble_from_json():
    ens = Ensemble.from_json_dict({"components": [
        {"weight": 0.25, "space": {"kind": "hyperbolic", "dim": 2}},
        {"weight": 0.75, "space": {"kind": "hyperbolic", "dim": 3, "k": 0.5}},
    ]})
    assert [c.to_json_dict() for c in ens.components] == [
        Hyperbolic(2).to_json_dict(), Hyperbolic(3, 0.5).to_json_dict()]
    assert ens.weights == (0.25, 0.75)


# ---------------------------------------------------------------- report


def test_report_h2_equality_case():
    rep = inequality_report(Hyperbolic(2, 1.0))
    assert rep.ell == pytest.approx(0.5, abs=5e-3)
    assert rep.entropy_h == pytest.approx(0.5, abs=2e-2)
    assert rep.volume_v == pytest.approx(1.0, abs=1e-2)
    assert rep.converged and rep.all_pass()
    # 2 ell^2 = h within 5% relative (sharp-bound equality case)
    assert 2 * rep.ell ** 2 == pytest.approx(rep.entropy_h, rel=0.05)
    assert rep.ell * rep.volume_v == pytest.approx(rep.entropy_h, rel=0.05)


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_report_h2_equality_case_other_curvatures(k):
    # 2 ell^2 = h within 5% relative for every tested curvature (horizons
    # scale diffusively with 1/k^2, keeping the finite-t gap at 1/40)
    rep = inequality_report(Hyperbolic(2, k))
    assert rep.ell == pytest.approx(k / 2.0, rel=2e-2)
    assert 2 * rep.ell ** 2 == pytest.approx(rep.entropy_h, rel=0.05)
    assert rep.all_pass() and rep.converged


def test_report_refuses_a_superadditive_drift(monkeypatch):
    # ell_2 = 2.5 > 2 ell_1: the audit's subadditivity branch, which no report reached
    import rdl.estimators as estimators

    ell = {1.0: 1.0, 2.0: 2.5, 3.0: 3.0, 4.0: 3.2}
    assert drift_subadditive_limit(ell).subadditivity_violations == [(1.0, 1.0, 0.5)]
    h = {2.0: 1.0, 3.0: 1.5, 4.0: 2.0}
    monkeypatch.setattr(estimators, "_horizon_moments", lambda space, t_grid: (ell, h))
    with pytest.raises(EstimatorError, match=re.escape("drift audit failed: subadditivity violations [(1.0, 1.0, 0.5)]")):
        inequality_report(Hyperbolic(2))


def test_entropy_quadrature_agrees_with_mc_counterpart():
    # MC route: h_t = E[-log q(t, d(o, w_t))] over half-plane paths
    from rdl.heat_kernels import kernel_for
    from rdl.sde_sim import SimConfig, simulate_halfplane

    t = 1.0
    cfg = SimConfig(seed=51, n_paths=4000, t_max=t, dt=0.005, record_stride=200)
    paths = simulate_halfplane(cfg)
    hp = HalfPlane()
    ker = kernel_for(hp)
    d = np.array([hp.dist_to_many(np.column_stack([p.x, p.y]), (0.0, 1.0))[-1] for p in paths])
    vals = np.array([-float(ker.log_q(t, di)) for di in d])
    mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(mc - entropy_quadrature(hp, t)) <= 3 * se


def test_mutual_information_monotone_all_catalog():
    for sp in (Euclidean(2), Hyperbolic(3, 1.0), HalfPlane()):
        vals = [_mutual_information(sp, 1.0, T) for T in (2.0, 4.0, 8.0)]
        assert all(v >= -1e-8 for v in vals)
        assert vals[0] >= vals[1] - 1e-8 and vals[1] >= vals[2] - 1e-8


def test_report_makes_one_radial_integral_call_per_horizon(monkeypatch):
    # ell at every horizon and mass, ell and h at the last three share one
    # call per horizon (the entropy fit used to integrate the last three again)
    import rdl.estimators as estimators

    calls = []
    real = estimators._radial_integral

    def counted(space, t, weights, r_hi=None):
        calls.append(t)
        return real(space, t, weights, r_hi)

    monkeypatch.setattr(estimators, "_radial_integral", counted)
    sp = Hyperbolic(2)
    inequality_report(sp)
    assert sorted(calls) == default_t_grid(sp)


_CHAINS_SPACES = [Hyperbolic(d, k) for d in (2, 3) for k in (0.5, 1.0, 2.0)]
_CHAINS_SPACES += [Euclidean(d) for d in (1, 2, 3)] + [HalfPlane()]


@pytest.mark.parametrize("space", _CHAINS_SPACES, ids=lambda sp: sp.label())
def test_report_moments_equal_one_quantity_at_a_time(space):
    # the moment table integrates mass, ell and h in one call; each must be
    # the float an integral of that quantity alone gives
    from rdl.estimators import _dist, _radial_integral

    rep = inequality_report(space)
    s, t = default_t_grid(space)[-2:]
    (ell_s,), (ell_t,) = (_radial_integral(space, u, (_dist,)) for u in (s, t))
    h_s, h_t = entropy_quadrature(space, s), entropy_quadrature(space, t)
    assert rep.ell == (ell_t - ell_s) / (t - s)
    assert rep.ell_upper == ell_t / t
    assert rep.entropy_h == (h_t - h_s) / (t - s)
    assert rep.entropy_ratio == h_t / t


def _scalar_radial_integral(space, t, weights, r_hi=None):
    """The radial integrand with one kernel value per radius, as quad asks for
    it, passed to scipy.integrate.quad on the same pieces (test oracle).  On
    H^2 the values come from the tests' scalar kernel oracle."""
    from scipy.integrate import quad

    ker = kernel_for(space)
    h2 = space.dim == 2 and space.k > 0
    known = {}

    def integrand(weight):
        def f(r):
            if r not in known:
                la = space.log_sphere_area(r)
                lq = (-math.inf if la == -math.inf
                      else float(log_q_h2_scalar(t, space.k, r) if h2 else ker.log_q(t, r)))
                known[r] = (lq, lq + la)
            lq, val = known[r]
            return 0.0 if val < -745.0 else weight(r, lq) * math.exp(val)

        return f

    hi = r_hi if r_hi is not None else truncation_radius(space, t)
    edges = [0.0, min(_ridge(space, t), hi), hi]
    return tuple(sum(quad(integrand(w), a, b, limit=300)[0]
                     for a, b in zip(edges[:-1], edges[1:]) if b > a) for w in weights)


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("space", _CHAINS_SPACES, ids=lambda sp: sp.label())
def test_radial_integral_equals_the_scalar_oracle_bitwise(space):
    # _radial_integral reads each QUADPACK panel's kernel values in one array
    # call; every moment must be the float of one kernel call per radius
    from rdl.estimators import _dist, _mass, _radial_integral, _surprisal

    weights = (_mass, _dist, _surprisal)
    for t in default_t_grid(space):
        assert _hex(_radial_integral(space, t, weights)) == _hex(_scalar_radial_integral(space, t, weights))


_SWEEP_SPACES = [Euclidean(d) for d in (1, 2, 3)] + [HalfPlane()]
_SWEEP_SPACES += [Hyperbolic(d, k) for d in (2, 3)
                  for k in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1000.0)]


def _sweep_horizons(space):
    """The default grid, then 12 horizons log-spaced from 1e-4 to 100 times
    its last, those of them inside the report's horizon cut."""
    from rdl.estimators import _check_resolvable

    grid = default_t_grid(space)
    out = list(grid)
    for t in np.geomspace(1e-4 * grid[-1], 100.0 * grid[-1], 12).tolist():
        try:
            _check_resolvable(space, t)
        except EstimatorInputError:
            continue
        out.append(t)
    return out


@pytest.mark.parametrize("space", _SWEEP_SPACES, ids=lambda sp: sp.label())
def test_radial_integral_equals_the_scalar_oracle_bitwise_over_a_horizon_sweep(space):
    # the mass, ell_t and h_t of the moment table, at horizons well off the
    # default grid and at k from 1e-3 to 1e3, are the floats of scipy's quad
    # on one kernel call per radius; so is the mass up to a cut r_hi below the
    # truncation radius, as zero_two_defect asks for it
    from rdl.estimators import _dist, _mass, _radial_integral, _surprisal

    weights = (_mass, _dist, _surprisal)
    ts = _sweep_horizons(space)
    assert len(ts) > len(default_t_grid(space))
    for t in ts:
        assert _hex(_radial_integral(space, t, weights)) == _hex(_scalar_radial_integral(space, t, weights)), t
    t = ts[0]
    r_hi = 0.5 * truncation_radius(space, t)
    assert _hex(_radial_integral(space, t, (_mass,), r_hi)) == _hex(
        _scalar_radial_integral(space, t, (_mass,), r_hi))


@pytest.mark.parametrize("space", _CHAINS_SPACES, ids=lambda sp: sp.label())
def test_radial_integral_equals_the_scalar_oracle_on_the_zero_two_cut(space, monkeypatch):
    # zero_two_defect integrates the mass up to the kernels' crossing r*
    import rdl.estimators as estimators

    calls = []
    real = estimators._radial_integral

    def recorded(sp, t, weights, r_hi=None):
        out = real(sp, t, weights, r_hi)
        calls.append((sp, t, weights, r_hi, out))
        return out

    monkeypatch.setattr(estimators, "_radial_integral", recorded)
    for tau, t in ((1.0, 1.0), (0.5, 4.0), (2.0, 0.5)):
        zero_two_defect(space, tau, t)
    assert len(calls) == 6 and all(c[3] is not None for c in calls)
    for sp, t, weights, r_hi, out in calls:
        assert _hex(out) == _hex(_scalar_radial_integral(sp, t, weights, r_hi))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_entropy_quadrature_equals_the_scalar_oracle_bitwise(dim):
    from rdl.estimators import _mass, _surprisal

    sp = Euclidean(dim)
    for t in (0.5, 1.7):
        _, h = _scalar_radial_integral(sp, t, (_mass, _surprisal))
        assert entropy_quadrature(sp, t).hex() == h.hex()


def test_kronrod_table_is_the_nodes_quad_visits():
    # QAGS visits a panel's centre, then centre -/+ half-length * xgk(j) for
    # j = 2, 4, ..., 10 and j = 1, 3, ..., 9; on [-1, 1] those are -/+ xgk(j)
    from scipy.integrate import quad

    from rdl._gauss_legendre import KRONROD_21
    from rdl._quadpack import XGK

    xgk = [float.fromhex(v) for v in KRONROD_21.split()]
    assert list(XGK) == xgk and len(xgk) == 10
    visited = []
    quad(lambda x: visited.append(x) or 1.0, -1.0, 1.0)
    expected = [0.0] + [s * x for x in xgk[1::2] + xgk[0::2] for s in (-1.0, 1.0)]
    assert _hex(visited) == _hex(expected)


@pytest.mark.parametrize("space", [Hyperbolic(2), Hyperbolic(3, 2.0), Euclidean(2), HalfPlane()],
                         ids=lambda sp: sp.label())
def test_report_reads_every_kernel_value_by_panel(space, monkeypatch):
    # a radius quad asks for that is not a predicted panel's node costs a 0-d
    # kernel call; a QUADPACK whose node order changed would make every call 0-d
    from rdl.heat_kernels import KernelEval

    real = KernelEval.log_q
    shapes = []

    def counted(self, t, dist):
        shapes.append(np.ndim(dist))
        return real(self, t, dist)

    monkeypatch.setattr(KernelEval, "log_q", counted)
    inequality_report(space)
    assert shapes and 0 not in shapes


def test_report_records_the_sorted_grid():
    sp = Hyperbolic(2)
    shuffled = inequality_report(sp, t_grid=[40, 5, 39, 10, 30])
    assert shuffled.t_grid == [5.0, 10.0, 30.0, 39.0, 40.0]
    assert shuffled == inequality_report(sp, t_grid=[5.0, 10.0, 30.0, 39.0, 40.0])


def test_report_euclidean_all_zero_limits():
    rep = inequality_report(Euclidean(2))
    assert rep.ell < 0.05 and rep.entropy_h < 1e-3 and abs(rep.volume_v) < 0.1
    assert rep.all_pass()


def test_report_halfplane_includes_k_functional():
    rep = inequality_report(HalfPlane())
    assert rep.k_functional == pytest.approx(0.5, abs=1e-12)
    names = {s.name for s in rep.inequality_status}
    assert {"half_ell_sq_le_h", "h_le_ell_v", "two_ell_sq_le_h",
            "two_ell_sq_le_k", "k_le_h"} <= names
    assert rep.all_pass()


def test_report_json_schema():
    rep = inequality_report(Hyperbolic(3, 1.0))
    blob = json.dumps(rep.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["schema"] == "v1"
    assert parsed["space"] == {"kind": "hyperbolic", "dim": 3, "k": 1.0}
    assert all(e["pass"] for e in parsed["inequalities"])
    # every pass flag recomputable from lhs/rhs/slack
    for e in parsed["inequalities"]:
        if e["rhs"] != "inf":
            assert e["slack"] == pytest.approx(e["rhs"] - e["lhs"], abs=1e-12)


# SHA-256 of json.dumps(to_json_dict(), indent=2, sort_keys=True), as the
# field-by-field writer produced it
@pytest.mark.parametrize("make, digest", [
    (lambda: inequality_report(HalfPlane()),
     "997e8962a76e57429e188169069afd1383ecb96759b7641b6425ce780739c5d7"),
    (lambda: inequality_report(Ensemble(components=(Hyperbolic(2), Hyperbolic(3)),
                                        weights=(0.4, 0.6)), t_grid=[5.0, 10.0, 15.0, 20.0]),
     "c69f282723757ce143db136225c996053fd77b263f97a724487728c34f41e757"),
], ids=["halfplane", "h2-h3-mixture"])
def test_report_json_golden_bytes(make, digest):
    blob = json.dumps(make().to_json_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("components, weights, t_grid", [
    ((Hyperbolic(2), Hyperbolic(3)), (0.4, 0.6), [5.0, 10.0, 15.0, 20.0]),
    ((Hyperbolic(2, 0.5), Hyperbolic(2, 2.0)), (0.5, 0.5), None),
], ids=["h2-h3-given-grid", "h2-k-half-k-two-default-grid"])
def test_ensemble_report_drift_mixes_the_component_reports(components, weights, t_grid):
    # ell and ell_plus come from the component reports on the caller's grid;
    # they used to come from a second pass at unit step on the default grid
    # (0.800017 against 0.800779 in the first case, 0.625064 against 0.625053
    # in the second)
    rep = inequality_report(Ensemble(components=components, weights=weights), t_grid=t_grid)
    parts = [inequality_report(c, t_grid=t_grid) for c in components]
    assert rep.ell == sum(w * p.ell for w, p in zip(weights, parts))
    assert rep.ell_plus == max(p.ell for p in parts)
    assert rep.t_grid == [p.t_grid for p in parts]


def test_ensemble_report_rejects_an_out_of_catalog_component():
    # in either order
    surf = builtin_profile("kaimanovich")
    for comps in ((Hyperbolic(2), surf), (surf, Hyperbolic(2))):
        with pytest.raises(KernelError, match="no closed-form kernel"):
            inequality_report(Ensemble(components=comps, weights=(0.5, 0.5)))


def test_liouville_iff_zero_drift_across_catalog():
    # h = 0 iff ell = 0 at tolerance 0.02 on every catalog space
    for sp in (Euclidean(1), Euclidean(3), Hyperbolic(2, 0.5), Hyperbolic(3, 1.0), HalfPlane()):
        rep = inequality_report(sp)
        assert (abs(rep.entropy_h) < 0.02) == (abs(rep.ell) < 0.02), sp.label()


def test_report_table_renders():
    rep = inequality_report(Hyperbolic(2, 1.0))
    table = rep.render_table()
    assert "ell" in table and "pass" in table


def test_mass_error_on_bad_truncation():
    from rdl.estimators import _radial_integral

    sp = Hyperbolic(2, 1.0)
    (short,) = _radial_integral(sp, 40.0, (lambda r, lq: 1.0,), r_hi=5.0)
    assert short < 0.999  # quantifies what _check_mass guards against
