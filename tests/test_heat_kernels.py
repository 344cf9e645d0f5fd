from __future__ import annotations

import functools
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, roots_legendre

from rdl import heat_kernels
from rdl.busemann import furstenberg_check
from rdl.estimators import (
    Ensemble,
    EstimatorInputError,
    default_t_grid,
    entropy_quadrature,
    inequality_report,
)
from rdl.heat_kernels import (
    KernelError,
    KernelEval,
    chapman_kolmogorov_residual,
    gaussian_bound_constant,
    kernel_for,
    log_q_euclidean,
    log_q_hyperbolic,
    radial_fokker_planck,
    truncation_radius,
    zero_two_defect,
)
from rdl.model_spaces import Euclidean, HalfPlane, Hyperbolic, ProfileFunction, RotSymSurface, builtin_profile
from rdl.sde_sim import SimConfig


# ------------------------------------------------------------ closed forms


def test_q_euclidean_values():
    q = kernel_for(Euclidean(1)).q
    assert q(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)
    assert q(2.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-12)


def test_q_euclidean_normalization():
    q = kernel_for(Euclidean(1)).q
    val, _ = quad(lambda x: q(1.0, abs(x)), -40, 40)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_q_hyperbolic_h3_values():
    # closed form (2 pi t)^{-3/2} e^{-t/2 - d^2/2t} d / sinh d evaluated directly
    q = kernel_for(Hyperbolic(3, 1.0)).q
    assert q(1.0, 0.0) == pytest.approx(
        (2 * math.pi) ** -1.5 * math.exp(-0.5), rel=1e-10
    )
    d = 1.0
    direct = (2 * math.pi) ** -1.5 * math.exp(-0.5 - 0.5) * d / math.sinh(d)
    assert q(1.0, d) == pytest.approx(direct, rel=1e-10)
    assert direct == pytest.approx(0.0198757, abs=5e-7)


def _radial_mass(space, t):
    ker = kernel_for(space)

    def f(r):
        la = space.log_sphere_area(r)
        return 0.0 if la == -math.inf else math.exp(float(ker.log_q(t, r)) + la)

    hi = 3 * t + 20 * math.sqrt(t) + 20
    hi = min(hi, 650.0 / max(getattr(space, "k", 1.0), 1.0))
    val, _ = quad(f, 0, hi, limit=300)
    return val


@pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("k", [1.0, 2.0])
def test_h2_stochastic_completeness(t, k):
    assert _radial_mass(Hyperbolic(2, k), t) == pytest.approx(1.0, abs=1e-8)


def test_h3_and_halfplane_normalization():
    assert _radial_mass(Hyperbolic(3, 1.0), 1.0) == pytest.approx(1.0, abs=1e-9)
    assert _radial_mass(Hyperbolic(3, 2.0), 0.5) == pytest.approx(1.0, abs=1e-9)
    assert _radial_mass(HalfPlane(), 1.0) == pytest.approx(1.0, abs=1e-9)


def test_kernel_positive_and_even_in_dist():
    ker = kernel_for(Hyperbolic(2, 1.0))
    for t in (0.3, 1.0, 5.0):
        vals = np.exp([float(ker.log_q(t, r)) for r in (0.0, 0.1, 1.0, 5.0)])
        assert (vals > 0).all()
        assert (np.diff(vals) < 0).all()  # radially decreasing


def test_halfplane_kernel_equals_h2():
    a = float(kernel_for(HalfPlane()).log_q(1.0, 0.7))
    b = float(log_q_hyperbolic(1.0, 2, 1.0, 0.7))
    assert a == pytest.approx(b, rel=1e-14)


def test_halfplane_and_h2_share_kernel_horizons_and_truncation_bitwise():
    # the half-plane is H^2 with k = 1 in another chart: every radial quantity
    # is read from (dim, k), so the two must agree to the last bit
    hp, h2 = HalfPlane(), Hyperbolic(2, 1.0)
    rs = np.linspace(0.0, 12.0, 61)
    for t in (0.5, 1.0, 7.0):
        a = np.asarray(kernel_for(hp).log_q(t, rs))
        b = np.asarray(kernel_for(h2).log_q(t, rs))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() == np.asarray(log_q_hyperbolic(t, 2, 1.0, rs)).tobytes()
        assert truncation_radius(hp, t) == truncation_radius(h2, t)
    assert default_t_grid(hp) == default_t_grid(h2)
    # the radial geometry too, which the half-plane inherits rather than
    # restates: a restated log_sphere_area differed in the last bit on a fifth
    # of these radii
    for method in ("sphere_area", "log_sphere_area", "ball_volume"):
        got = np.array([getattr(hp, method)(float(r)) for r in np.linspace(0.0, 40.0, 4001)])
        want = np.array([getattr(h2, method)(float(r)) for r in np.linspace(0.0, 40.0, 4001)])
        assert got.tobytes() == want.tobytes(), method


@pytest.mark.parametrize("n", [12, 16, 256])
def test_stored_gauss_legendre_rules_are_scipys_bit_for_bit(n):
    from scipy.special import roots_legendre

    from rdl.heat_kernels import _gl

    for got, want in zip(_gl(n), roots_legendre(n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@functools.cache
def _legendre_256():
    return roots_legendre(256)


def log_q_h2_scalar(t: float, k: float, r: float) -> np.float64:
    """log q(t, r) on H^2 with curvature -k^2, one radius at a time: the
    scalar oracle of the library's block path.  It takes the 256-node rule
    from scipy, and evaluates the library's integral (see rdl.heat_kernels)
    in the same expressions in the same order, in floats and 1-d arrays of
    256, with the k scaling of log_q_hyperbolic: log q_k(t, r) =
    log q_1(k^2 t, k r) + 2 log k."""
    t, r = k * k * t, k * r
    # where the u-range collapses (u_max 0 or not finite) q has underflowed
    u_max = math.sqrt(-r + math.sqrt(r * r + 2.0 * t * 50.0))
    factor = 0.0
    if 0.0 < u_max < math.inf:
        nodes, weights = _legendre_256()
        u = 0.5 * u_max * (nodes + 1.0)
        w = 0.5 * u_max * weights
        u2 = u * u
        with np.errstate(over="ignore"):
            num = 2.0 * u * (r + u2) * np.exp(-(2.0 * r * u2 + u2 * u2) / (2.0 * t))
            den = np.sqrt(np.expm1(u2) / 2.0) * np.sqrt(-np.expm1(-2.0 * r - u2))
            vals = np.where(num == 0.0, 0.0, num / den)
        factor = float(np.sum(w * vals))
    if factor == 0.0:  # the inner integral underflows too (t ~ 1e300)
        log_q1 = -math.inf
    else:
        log_q1 = (0.5 * math.log(2.0) - 1.5 * math.log(2.0 * math.pi * t) - t / 8.0
                  - r * r / (2.0 * t) - r / 2.0 + math.log(factor))
    return np.float64(log_q1) + 2 * math.log(k)


_H2_SPACES = [Hyperbolic(2, 0.5), Hyperbolic(2, 1.0), Hyperbolic(2, 2.0), HalfPlane()]


@pytest.mark.parametrize("space", _H2_SPACES, ids=lambda sp: sp.label())
@pytest.mark.parametrize("n", [1, 31, 32, 33, 401])
def test_h2_array_path_equals_scalar_path_bitwise(space, n):
    # the array path evaluates blocks of radii; block edges fall at 32, 64, ...;
    # a single distance is an array of one
    ker = kernel_for(space)
    for t in (0.3, 1.0, 7.0):
        big = truncation_radius(space, t)
        edge = [0.0, 1e-12, big * (1 - 1e-12), big, big * (1 + 1e-12)]
        rs = np.concatenate([edge, np.linspace(1e-3, 1.2 * big, max(n - len(edge), 0))])[:n]
        got = np.asarray(ker.log_q(t, rs))
        want = np.array([log_q_h2_scalar(t, space.k, float(r)) for r in rs])
        assert got.shape == (n,)
        assert np.array_equal(got, want)
        assert np.array_equal(np.array([ker.log_q(t, float(r)) for r in rs]), want)


@pytest.mark.parametrize("space", _H2_SPACES, ids=lambda sp: sp.label())
def test_h2_array_path_equals_scalar_path_at_every_block_size(monkeypatch, space):
    # the block path fills reused buffers _H2_ROWS radii at a time: a partial
    # last block, radii whose u-range collapses (1e10, 1e200, inf) between
    # in-range ones, t = 1e300 where every inner integral is 0, and an array
    # with every radius in range all give the scalar oracle's bits
    ker = kernel_for(space)
    inside = list(np.linspace(0.05, 12.0, 37))
    mixed = np.array([0.0, 5e-324, 1e-12, *inside[:20], 1e10, *inside[20:], 1e200, math.inf])
    for t in (0.3, 7.0, 1e300):
        for rs in (mixed, np.array(inside)):
            want = np.array([log_q_h2_scalar(t, space.k, float(r)) for r in rs])
            for rows in (1, 7, 32, 1000):
                monkeypatch.setattr(heat_kernels, "_H2_ROWS", rows)
                assert np.array_equal(ker.log_q(t, rs), want), (t, rows)


def test_h2_array_path_memory_is_chunked():
    rs = np.linspace(0.0, 30.0, 20_000)
    ker = kernel_for(Hyperbolic(2, 1.0))
    tracemalloc.start()
    try:
        ker.log_q(2.0, rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000 * 256 * 8 / 10  # one (radii, 256) array would be 41 MB


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_h2_log_q_is_minus_inf_where_the_u_range_collapses(k):
    # u_max = sqrt(-r + sqrt(r^2 + 100 t)) is 0 at r = 1e10 and inf at 1e200;
    # these gave a math domain error and NaN
    ker = kernel_for(Hyperbolic(2, k))
    huge = [1e10, 1e200, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in huge:
            assert ker.log_q(1.0, r) == log_q_h2_scalar(1.0, k, r) == -math.inf
        assert np.array_equal(ker.log_q(1.0, np.array(huge)), np.full(3, -math.inf))
        assert np.array_equal(ker.q(1.0, np.array(huge)), np.zeros(3))
        # in the noisy range before the collapse the values stay finite, and
        # each radius of the array agrees with the scalar oracle
        rs = np.logspace(0.0, 12.0, 97)
        got = np.asarray(ker.log_q(1.0, rs))
        assert np.array_equal(got, np.array([log_q_h2_scalar(1.0, k, float(r)) for r in rs]))
        assert not np.isnan(got).any()
        assert np.isfinite(got[rs < 1e7]).all()


def test_h2_log_q_is_minus_inf_where_the_inner_integral_underflows():
    # at t = 1e300 the Gauss-Legendre sum is 0, and math.log(0) raised a math domain
    # error on a single distance and an array alike
    ker = kernel_for(Hyperbolic(2, 1.0))
    rs = np.array([0.0, 5.0, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [log_q_h2_scalar(1e300, 1.0, float(r)) for r in rs] == [-math.inf] * 3
        assert [ker.log_q(1e300, float(r)) for r in rs] == [-math.inf] * 3
        assert np.array_equal(ker.log_q(1e300, rs), np.full(3, -math.inf))


@pytest.mark.parametrize("space", [Hyperbolic(2, 1.0), HalfPlane(), Hyperbolic(3, 1.0), Euclidean(2)],
                         ids=lambda sp: sp.label())
def test_log_q_keeps_the_shape_of_dist(space):
    ker = kernel_for(space)
    rs = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    got = np.asarray(ker.log_q(1.5, rs))
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), np.asarray(ker.log_q(1.5, rs.ravel())))


@pytest.mark.parametrize("dist", [-1e-9, math.nan])
def test_h2_log_q_rejects_negative_and_nan_dist(dist):
    ker = kernel_for(Hyperbolic(2, 1.0))
    with pytest.raises(KernelError):
        ker.log_q(1.0, dist)
    with pytest.raises(KernelError):
        ker.log_q(1.0, np.array([0.0, 1.0, dist]))


@pytest.mark.parametrize("space", [Euclidean(1), Euclidean(2), Euclidean(3), Hyperbolic(3, 1.0),
                                   Hyperbolic(2, 0.5), Hyperbolic(2, 2.0), HalfPlane()],
                         ids=["E1", "E2", "E3", "H3", "H2_k0.5", "H2_k2", "halfplane"])
@pytest.mark.parametrize("dist", [-1.0, -1e-9, math.nan])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_log_q_rejects_negative_and_nan_dist_on_every_kernel(space, dist, as_array):
    # H^3 at dist = -1 read -3.92 and NaN passed through on H^3 and R^d
    ker = kernel_for(space)
    with pytest.raises(KernelError):
        ker.log_q(1.0, np.array([[0.0, 1.0], [2.0, dist]]) if as_array else dist)


@pytest.mark.parametrize("space", [Euclidean(1), Euclidean(2), Euclidean(3),
                                   Hyperbolic(2, 0.5), Hyperbolic(2, 1.0), Hyperbolic(2, 2.0), HalfPlane(),
                                   Hyperbolic(3, 0.5), Hyperbolic(3, 1.0), Hyperbolic(3, 2.0)],
                         ids=["E1", "E2", "E3", "H2_k0.5", "H2_k1", "H2_k2", "halfplane",
                              "H3_k0.5", "H3_k1", "H3_k2"])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_kernel_vanishes_at_infinite_distance(space, as_array):
    # H^3 read log(inf) - inf = NaN in the r/sinh(r) factor; at a finite 1e200,
    # r * r overflowed with a RuntimeWarning on R^d and H^3, and at 1e308 so did
    # k * r on H^2 and H^3 with k = 2
    ker = kernel_for(space)
    for far in (math.inf, 1e200, 1e308):
        dist = np.array([[0.0, far], [far, 2.0]]) if as_array else far
        log_q, q = np.asarray(ker.log_q(1.0, dist)), np.asarray(ker.q(1.0, dist))
        at_far = np.asarray(dist) == far
        assert np.all(log_q[at_far] == -math.inf) and np.all(q[at_far] == 0.0)
        assert np.all(np.isfinite(log_q[~at_far]))


def test_chapman_kolmogorov():
    for s, t in ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)):
        assert chapman_kolmogorov_residual(Hyperbolic(3, 1.0), s, t, 1.0) < 1e-4
        assert chapman_kolmogorov_residual(Hyperbolic(2, 1.0), s, t, 1.0) < 1e-4
        assert chapman_kolmogorov_residual(Euclidean(1), s, t, 0.7) < 1e-4


_CK_TWELVE = [(sp, s, t, rho)
              for s, t in ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
              for sp, rho in ((Hyperbolic(3, 1.0), 1.0), (Hyperbolic(2, 1.0), 1.0), (Euclidean(1), 0.7))]
_CK_TIMES = ((0.5, 0.5), (1.0, 2.0), (0.1, 0.1))
_CK_EXTENDED = (
    [(Hyperbolic(dim, k), s, t, rho)
     for dim in (2, 3) for k in (0.5, 1.0, 2.0) for rho in (0.0, 1.0, 3.0) for s, t in _CK_TIMES]
    + [(Euclidean(1), s, t, rho) for rho in (0.0, 0.7, 3.0) for s, t in _CK_TIMES]
)


def test_chapman_kolmogorov_extended_grid():
    # small times far from the pole put q(s + t, rho) far below an absolute
    # tolerance of 1e-8 (q(0.2, 3) on H^3 is 3.3e-11); the check must still
    # resolve it, and reach rounding level on the kernel tests' grid
    loose = [(sp.label(), s, t, rho, v) for sp, s, t, rho in _CK_EXTENDED
             if not (v := chapman_kolmogorov_residual(sp, s, t, rho)) < 1e-6]
    tight = [(sp.label(), s, t, rho, v) for sp, s, t, rho in _CK_TWELVE
             if not (v := chapman_kolmogorov_residual(sp, s, t, rho)) < 1e-12]
    assert loose == [] and tight == []


@pytest.mark.parametrize("space, rho", [(Hyperbolic(2, 1.0), 1.0), (Hyperbolic(3, 1.0), 1.0),
                                        (Euclidean(1), 0.7)], ids=["H2", "H3", "E1"])
def test_chapman_kolmogorov_detects_a_wrong_kernel(monkeypatch, space, rho):
    # q scaled by e^eps: the convolution of two such kernels is e^eps times
    # the scaled q(s + t), so a working check reads e^eps - 1
    eps = 1e-3
    log_q = KernelEval.log_q
    monkeypatch.setattr(KernelEval, "log_q", lambda self, t, dist: log_q(self, t, dist) + eps)
    assert chapman_kolmogorov_residual(space, 1.0, 0.5, rho) == pytest.approx(math.expm1(eps), rel=0.1)


@pytest.mark.parametrize("space, s, t", [
    *((sp, s, t) for sp in (Hyperbolic(2, 1.0), Hyperbolic(3, 1.0), Euclidean(1))
      for s, t in ((-0.5, 1.0), (0.0, 1.0), (1.0, 0.0))),
    # at these s, sinh(k (R + rho)) at the truncation radius R is past the float range
    (Hyperbolic(2, 1.0), 500.0, 1.0), (Hyperbolic(3, 1.0), 300.0, 1.0), (Hyperbolic(3, 2.0), 75.0, 1.0),
])
def test_chapman_kolmogorov_rejects_times_outside_its_rule(space, s, t):
    with pytest.raises(KernelError):
        chapman_kolmogorov_residual(space, s, t, 1.0)


@pytest.mark.parametrize("space, rho", [(Euclidean(1), 100.0), (Hyperbolic(2, 1.0), 60.0),
                                        (Hyperbolic(3, 1.0), 60.0)])
def test_chapman_kolmogorov_refuses_an_underflowed_reference(space, rho):
    # q(s + t, rho) = 0 there: the relative error divided by it (ZeroDivisionError)
    with pytest.raises(KernelError, match=rf"underflows to 0 at s \+ t = 2, rho = {rho:g}"):
        chapman_kolmogorov_residual(space, 1.0, 1.0, rho)


# --------------------------------------------------------- Gaussian bound


def test_gaussian_bound_euclidean_analytic_sup():
    # sup over t in [1,10], r of t^{1/2} (2 pi t)^{-1/2} exp(-r^2(1/2t - 1/3t)) is
    # (2 pi)^{-1/2}, at r=0 on every row: t_at is whichever row rounds highest
    res = gaussian_bound_constant(Euclidean(1), D=3.0, t_range=(1.0, 10.0), r_max=20.0)
    assert res.bounded
    assert res.constant == pytest.approx((2 * math.pi) ** -0.5, rel=1e-6)
    assert res.r_at == pytest.approx(0.0, abs=1e-9)
    assert 1.0 <= res.t_at <= 10.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_bound_on_euclidean_space_is_the_gaussian_constant(n):
    # q <= C t^{-n/2} exp(-r^2 / D t) holds on E^n with C = (2 pi)^{-n/2}; without
    # the t^{n/2} the scan read q(t_lo, 0) = (8 pi)^{-1/2} on E^1 at t_lo = 4.
    # E^3's max over the 40 rows rounds 1.5e-15 above C
    res = gaussian_bound_constant(Euclidean(n), D=3.0, t_range=(4.0, 10.0), r_max=20.0)
    assert res.bounded and res.r_at == 0.0
    assert res.constant == pytest.approx((2 * math.pi) ** (-n / 2), rel=2e-15, abs=0.0)


def test_gaussian_bound_h2_finite_anchor():
    res = gaussian_bound_constant(Hyperbolic(2, 1.0), D=3.0, t_range=(1.0, 10.0), r_max=30.0)
    assert res.bounded and math.isfinite(res.constant)
    # regression anchor: the sup sits at t=1, r=0
    assert res.constant == pytest.approx(math.exp(float(log_q_hyperbolic(1.0, 2, 1.0, 0.0))), rel=1e-9)


def test_gaussian_bound_monotone_in_D():
    c_small = gaussian_bound_constant(Hyperbolic(2, 1.0), 2.01, (1.0, 5.0), 20.0).constant
    c_big = gaussian_bound_constant(Hyperbolic(2, 1.0), 4.0, (1.0, 5.0), 20.0).constant
    assert c_small >= c_big


def test_gaussian_bound_domain_checks():
    with pytest.raises(KernelError):
        gaussian_bound_constant(Euclidean(1), 2.0, (1.0, 2.0), 5.0)
    with pytest.raises(KernelError):
        gaussian_bound_constant(Euclidean(1), 3.0, (0.5, 2.0), 5.0)


def _full_scan_gaussian_bound(space, D, t_range, r_max):
    """The scan of gaussian_bound_constant before its block bound, kept as the
    oracle: every radius at every t, each row shifted by log t^{n/2}."""
    ker = kernel_for(space)
    t_lo, t_hi = t_range
    best, bt, br = -math.inf, t_lo, 0.0
    r = np.linspace(0.0, r_max, 400)
    for t in np.linspace(t_lo, t_hi, 40):
        log_vals = np.asarray(ker.log_q(t, r)) + 0.5 * space.dim * math.log(t) + r * r / (D * t)
        i = int(np.argmax(log_vals))
        if log_vals[i] > best:
            best, bt, br = float(log_vals[i]), float(t), float(r[i])
    if best > 700.0:  # exp would overflow; the grid shows no finite sup
        return heat_kernels.GaussianBoundResult(math.inf, bt, br, False)
    return heat_kernels.GaussianBoundResult(math.exp(best), bt, br, True)


def _assert_full_scan(space, D, t_range, r_max):
    got = gaussian_bound_constant(space, D, t_range, r_max)
    want = _full_scan_gaussian_bound(space, D, t_range, r_max)
    case = (space.label(), D, t_range, r_max)
    assert got.constant.hex() == want.constant.hex(), case
    assert (got.t_at, got.r_at, got.bounded) == (want.t_at, want.r_at, want.bounded), case


_CATALOG = [Euclidean(1), Euclidean(2), Euclidean(3),
            *(Hyperbolic(d, k) for d in (2, 3) for k in (0.5, 1.0, 2.0)), HalfPlane()]


@pytest.mark.parametrize("space", _CATALOG, ids=lambda sp: sp.label())
def test_gaussian_bound_equals_the_full_scan(space):
    # the block bound skips radii, never a grid max: the constant's bits, t_at,
    # r_at and bounded are the full scan's, on fixed t ranges ([1, 1], [1, 1e3])
    # and seeded ones, with r_max from 1e-3 to 1e3
    rng = np.random.default_rng(39)
    for D in (2.01, 2.5, 3.0, 4.0, 50.0):
        t_lo = float(10.0 ** rng.uniform(0.0, 2.0))
        cases = [((1.0, 1.0), 1e-3), ((1.0, 1e3), 1e3), ((t_lo, t_lo), float(10.0 ** rng.uniform(-3.0, 3.0))),
                 ((t_lo, t_lo * 10.0 ** rng.uniform(0.0, 1.0)), float(10.0 ** rng.uniform(-3.0, 3.0)))]
        for t_range, r_max in cases:
            _assert_full_scan(space, D, t_range, r_max)


def _premise_kernels(rng, count):
    """(log_q, D, t_range, r_max) drawn from the seed: log q(t, r) = (a - 1/2) log t
    - s floor(r / w) + e frac(f r), non-increasing in r up to e <= 4e-7, half
    the bound's margin.  Within a plateau r^2 / D t and the sawtooth rise, so
    rows take their max off the block heads.  The scan adds log t^{1/2} on
    E^1, so the rows rise by a log t, and a small a lets a later t overtake
    the running max by less than the sawtooth's height."""
    out = []
    for _ in range(count):
        r_max = float(10.0 ** rng.uniform(-3.0, 3.0))
        a, s, e = (float(10.0 ** rng.uniform(-12.0, 0.0)), float(10.0 ** rng.uniform(-9.0, 1.0)),
                   float(rng.uniform(0.0, 4e-7)))
        w, f = r_max * float(rng.uniform(0.02, 0.4)), float(10.0 ** rng.uniform(0.0, 3.0)) / r_max
        t_lo = float(10.0 ** rng.uniform(0.0, 3.0))
        t_range = (t_lo, t_lo * (1.0 + float(10.0 ** rng.uniform(-10.0, 1.0))))
        D = float(rng.choice([2.01, 3.0, 50.0, 1e12]))

        def log_q(self, t, dist, a=a, s=s, e=e, w=w, f=f):
            r = np.asarray(dist, dtype=float)
            return (a - 0.5) * math.log(t) - s * np.floor(r / w) + e * ((f * r) % 1.0)

        out.append((log_q, D, t_range, r_max))
    return out


def test_gaussian_bound_equals_the_full_scan_on_any_kernel_of_the_premise(monkeypatch):
    # the catalog's sup sits at r = 0, t = t_lo, a block head of the first row;
    # these kernels meet only the bound's premise and put the sup anywhere
    rng = np.random.default_rng(39)
    for log_q, D, t_range, r_max in _premise_kernels(rng, 300):
        monkeypatch.setattr(KernelEval, "log_q", log_q)
        _assert_full_scan(Euclidean(1), D, t_range, r_max)


def test_gaussian_bound_reads_few_radii(monkeypatch):
    # the benchmark's H^2 case: the full scan read 40 x 400 = 16,000 radii
    radii = []
    log_q = KernelEval.log_q

    def counted(self, t, dist):
        radii.append(np.size(dist))
        return log_q(self, t, dist)

    monkeypatch.setattr(KernelEval, "log_q", counted)
    gaussian_bound_constant(Hyperbolic(2, 1.0), 3.0, (1.0, 10.0), 30.0)
    assert sum(radii) <= 2000, sum(radii)  # 1,660


@pytest.mark.parametrize("space", _CATALOG, ids=lambda sp: sp.label())
def test_log_q_is_non_increasing_in_r(space):
    # the block bound's premise, on the computed values: a step of 0.01 over [0, 60]
    r = np.linspace(0.0, 60.0, 6001)
    for t in (1.0, 10.0, 1e3):
        steps = np.diff(np.asarray(kernel_for(space).log_q(t, r)))
        assert steps.max() <= 0.0, (t, steps.max())


def test_gaussian_bound_refuses_an_exponent_past_the_float_range():
    # r^2 overflowed to inf, -inf + inf read NaN, and argmax took the NaN:
    # constant 0.0, bounded=True, where the grid's sup is finite (about 0.135 on H^2)
    for args in ((Hyperbolic(2), 3.0, (1.0, 2.0), 1e300), (Euclidean(1), 2.0000001, (1.0, 2.0), 1e200)):
        with pytest.raises(KernelError, match=r"r_max\^2 / \(D t_lo\) is past the float range"):
            gaussian_bound_constant(*args)
    # just inside the range the sup stays at r = 0, t = t_lo
    res = gaussian_bound_constant(Euclidean(1), 3.0, (1.0, 2.0), 1e154)
    assert (res.constant, res.t_at, res.r_at, res.bounded) == ((2 * math.pi) ** -0.5, 1.0, 0.0, True)


# -------------------------------------------------------- zero-two defect


def _euclid_tv_oracle(t: float, tau: float) -> float:
    """Brute-force int |q(t+tau) - q(t)| for the 1-D Gaussian."""

    def f(x):
        a = math.exp(-x * x / (2 * (t + tau))) / math.sqrt(2 * math.pi * (t + tau))
        b = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
        return abs(a - b)

    val, _ = quad(f, -80, 80, limit=400)
    return val


def test_zero_two_defect_euclidean_matches_tv_oracle():
    for t in (0.5, 1.0, 4.0):
        got = zero_two_defect(Euclidean(1), tau=t, t=t)
        assert got == pytest.approx(_euclid_tv_oracle(t, t), abs=1e-6)


def test_zero_two_defect_euclidean_at_kink_times():
    # closed form: the 1-D kernels cross at r* = sqrt(2 t log 2) (tau = t), so
    # int |q(2t) - q(t)| = 2 [erf(r*/sqrt(2t)) - erf(r*/sqrt(4t))]; at these t
    # an unsplit quadrature of the kinked integrand was off by more than 1e-6;
    # the grid covers the rest of [0.5, 4]
    for t in (1.13, 2.18, 2.28, *np.linspace(0.5, 4.0, 60)):
        r_star = math.sqrt(2.0 * t * math.log(2.0))
        exact = 2.0 * (erf(r_star / math.sqrt(2.0 * t)) - erf(r_star / math.sqrt(4.0 * t)))
        assert zero_two_defect(Euclidean(1), tau=t, t=t) == pytest.approx(exact, abs=1e-12)


def _zero_two_oracle(space, tau: float, t: float) -> float:
    """int |q(t+tau) - q(t)| by piecewise radial quadrature, cut at the crossing."""
    ker = kernel_for(space)

    def integrand(r):
        la = space.log_sphere_area(r)
        if la == -math.inf:
            return 0.0
        qa = math.exp(float(ker.log_q(t + tau, r)) + la)
        qb = math.exp(float(ker.log_q(t, r)) + la)
        return abs(qa - qb)

    def log_ratio(r):
        return float(ker.log_q(t + tau, r)) - float(ker.log_q(t, r))

    r_hi = truncation_radius(space, t + tau)
    cuts = [0.0, r_hi]
    if log_ratio(0.0) * log_ratio(r_hi) < 0:
        cuts.insert(1, brentq(log_ratio, 0.0, r_hi))
    return float(sum(quad(integrand, a, b, limit=400)[0] for a, b in zip(cuts, cuts[1:])))


_ZERO_TWO_SPACES = [Euclidean(d) for d in (1, 2, 3)] + [
    Hyperbolic(d, k) for d in (2, 3) for k in (0.5, 1.0, 2.0)] + [HalfPlane()]


@pytest.mark.parametrize("space", _ZERO_TWO_SPACES, ids=lambda sp: sp.label())
def test_zero_two_defect_matches_piecewise_quadrature(space):
    # the defect is 2 |M_t(r*) - M_{t+tau}(r*)| only if the log-ratio changes
    # sign once on [0, R]; check that premise, then the value
    ker = kernel_for(space)
    for tau, t in ((1.0, 1.0), (0.5, 4.0), (2.0, 0.5)):
        r = np.linspace(0.0, truncation_radius(space, t + tau), 3000)
        log_ratio = np.asarray(ker.log_q(t + tau, r)) - np.asarray(ker.log_q(t, r))
        assert np.count_nonzero(np.diff(np.sign(log_ratio))) == 1
        assert zero_two_defect(space, tau, t) == pytest.approx(_zero_two_oracle(space, tau, t),
                                                                abs=1e-10)


def test_zero_two_defect_euclidean_scale_invariant():
    vals = [zero_two_defect(Euclidean(1), tau=t, t=t) for t in (0.5, 1.0, 4.0)]
    assert max(vals) - min(vals) < 1e-6


def test_zero_two_defect_h2_strictly_below_two():
    val = zero_two_defect(Hyperbolic(2, 1.0), tau=1.0, t=1.0)
    assert val < 1.0  # recorded anchor ~ 0.60
    assert val == pytest.approx(0.6012, abs=2e-3)


# float.hex of zero_two_defect at (tau, t) = (1, 1) and (0.5, 2): its brentq
# evaluates the kernel at one distance per call
_ZERO_TWO_H2_GOLDEN = {
    "hyperbolic(dim=2,k=0.5)": ("0x1.0e3ee9d12ae0ap-1", "0x1.6d25e94532178p-3"),
    "hyperbolic(dim=2,k=1)": ("0x1.33d179cae4da2p-1", "0x1.b82f465441690p-3"),
    "hyperbolic(dim=2,k=2)": ("0x1.a092433240580p-1", "0x1.44dbe796abf4cp-2"),
    "halfplane": ("0x1.33d179cae4da2p-1", "0x1.b82f465441690p-3"),
}


@pytest.mark.parametrize("space", _H2_SPACES, ids=lambda sp: sp.label())
def test_zero_two_defect_h2_golden_bits(space):
    got = tuple(zero_two_defect(space, tau=tau, t=t).hex() for tau, t in ((1.0, 1.0), (0.5, 2.0)))
    assert got == _ZERO_TWO_H2_GOLDEN[space.label()]


def test_zero_two_defect_non_increasing_in_t():
    vals = [zero_two_defect(Hyperbolic(2, 1.0), tau=1.0, t=t) for t in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("space, tau, t", [
    (Euclidean(1), 1e-30, 1e-30),
    (Euclidean(2), 1.0, 1e-30),
    (Hyperbolic(2, 1.0), 1e-200, 1e-200),
], ids=["e1", "e2", "h2"])
def test_zero_two_defect_refuses_unresolvable_horizons(space, tau, t):
    # brentq's absolute xtol of 2e-12 exceeded r* ~ sqrt(2 t ln 2): these read
    # 0.0, 0.0 and 4.6e-14, where E^1's closed form is 0.33213 at every t and
    # E^2's defect at (1, 1e-30) is about 2
    with pytest.raises(EstimatorInputError, match=f"horizon t = {t:.6g} is too small"):
        zero_two_defect(space, tau, t)


# ----------------------------------------------------------- Fokker-Planck


def test_fp_euclid_profile_matches_2d_gaussian_radial_law():
    grid = radial_fokker_planck(builtin_profile("euclid"), r0=0.01, dt=4e-5, dr=0.01,
                                t_max=1.0, r_max=6.0)
    rho = grid.marginal(1.0)
    exact = grid.r_centers * np.exp(-grid.r_centers ** 2 / 2.0)
    dr = grid.r_centers[1] - grid.r_centers[0]
    assert np.sum(np.abs(rho - exact)) * dr <= 2e-2
    assert grid.mass.min() >= 0.999
    assert grid.mass.max() <= 1.0 + 1e-9


def test_fp_hyperbolic_profile_matches_scaled_kernel():
    # radial marginal of q on H^2 with curvature -k^2 vs the PDE oracle
    k = 2.0
    grid = radial_fokker_planck(builtin_profile("hyperbolic", k), r0=0.01, dt=4e-5, dr=0.01,
                                t_max=1.0, r_max=8.0)
    rho = grid.marginal(1.0)
    marg = np.array(
        [
            math.exp(float(log_q_hyperbolic(1.0, 2, k, r))) * 2 * math.pi * math.sinh(k * r) / k
            for r in grid.r_centers
        ]
    )
    dr = grid.r_centers[1] - grid.r_centers[0]
    assert np.sum(np.abs(rho - marg)) * dr <= 2e-2


def test_fp_k1_matches_unit_kernel():
    grid = radial_fokker_planck(builtin_profile("hyperbolic", 1.0), r0=0.01, dt=4e-5, dr=0.01,
                                t_max=1.0, r_max=8.0)
    rho = grid.marginal(1.0)
    marg = np.array(
        [
            math.exp(float(log_q_hyperbolic(1.0, 2, 1.0, r))) * 2 * math.pi * math.sinh(r)
            for r in grid.r_centers
        ]
    )
    dr = grid.r_centers[1] - grid.r_centers[0]
    assert np.sum(np.abs(rho - marg)) * dr <= 2e-2


_FP_EUCLID = dict(r0=0.01, dt=4e-4, dr=0.04, t_max=0.2, r_max=2.0)


@pytest.mark.parametrize("n_snapshots", [2.5, True, "3"])
def test_fp_refuses_a_snapshot_count_that_is_not_an_integer(n_snapshots):
    # 2.5 stored snapshots at t = 0, 0.1332 and 0.2, and True stored two
    with pytest.raises(KernelError, match="'n_snapshots' must be an integer"):
        radial_fokker_planck(builtin_profile("euclid"), **_FP_EUCLID, n_snapshots=n_snapshots)


def test_fp_reads_an_integral_float_snapshot_count():
    grid = radial_fokker_planck(builtin_profile("euclid"), **_FP_EUCLID, n_snapshots=3.0)
    assert grid.times.tolist() == pytest.approx([0.0, 0.1, 0.2])


def test_fp_rejects_cfl_violation():
    with pytest.raises(KernelError):
        radial_fokker_planck(builtin_profile("euclid"), r0=0.5, dt=1e-3, dr=0.01,
                             t_max=0.1, r_max=2.0)


def test_fp_rejects_coarse_grid_at_interior_start():
    with pytest.raises(KernelError):
        radial_fokker_planck(builtin_profile("euclid"), r0=1.0, dt=4e-5, dr=0.5,
                             t_max=0.1, r_max=4.0)


# p = sin r, the round sphere's profile: its drift cot(r)/2 turns negative past pi/2
_SPHERE = ProfileFunction(label="sphere", k=None, p=np.sin, drift=lambda r: 0.5 / np.tan(r),
                          inv_p_sq=lambda r: 1.0 / np.sin(r) ** 2)


def _small_fp_grid():
    return radial_fokker_planck(builtin_profile("euclid"), r0=0.5, dt=1e-3, dr=0.05,
                                t_max=0.1, r_max=2.0, n_snapshots=3)


@pytest.mark.parametrize("call, fragment", [
    (lambda: log_q_euclidean(0.0, 2, 1.0), "need t > 0"),
    (lambda: log_q_hyperbolic(-1.0, 2, 1.0, 1.0), "need t > 0"),
    (lambda: log_q_hyperbolic(1.0, 4, 1.0, 1.0), "closed-form only for dim 2, 3"),
    (lambda: log_q_hyperbolic(1.0, 3, 0.0, 1.0), "need k > 0"),
    (lambda: zero_two_defect(Hyperbolic(2), 0.0, 1.0), "need tau > 0 and t > 0"),
    (lambda: zero_two_defect(Hyperbolic(2), 1.0, -1.0), "need tau > 0 and t > 0"),
    (lambda: radial_fokker_planck(builtin_profile("euclid"), r0=0.0, dt=1e-3, dr=0.05,
                                  t_max=0.1, r_max=2.0), "need r0 > 0"),
    (lambda: radial_fokker_planck(_SPHERE, r0=0.5, dt=5e-4, dr=0.05, t_max=0.01, r_max=3.0),
     "nonnegative drift"),
    # r0 past r_max was moved into the last cell, and r0 = inf raised OverflowError
    (lambda: radial_fokker_planck(builtin_profile("euclid"), r0=5.0, dt=1e-3, dr=0.05,
                                  t_max=0.1, r_max=2.0), "need r0 > 0 and r0 < r_max"),
    (lambda: radial_fokker_planck(builtin_profile("euclid"), r0=math.inf, dt=1e-3, dr=0.05,
                                  t_max=0.1, r_max=2.0), "need r0 > 0 and r0 < r_max"),
    (lambda: _small_fp_grid().marginal(0.0123), "not on the stored grid"),
    # at dt = 1e-3 these ran 0 and 12 steps: the t = 0 snapshot alone, and a grid ending at t = 0.012
    (lambda: _fp(t_max=4e-4), "whole number of steps, got 0.4"),
    (lambda: _fp(t_max=0.0125), "whole number of steps, got 12.5"),
    # D = inf gave bounded=True with the constant sup q: r^2 / (D t) read as 0
    (lambda: gaussian_bound_constant(Hyperbolic(2), math.inf, (1.0, 2.0), 5.0), "needs D > 2 and finite, got inf"),
], ids=["euclidean-t", "hyperbolic-t", "hyperbolic-dim", "hyperbolic-k", "zero_two-tau", "zero_two-t",
        "fp-r0", "fp-negative-drift", "fp-r0-past-r-max", "fp-r0-inf", "fp-marginal-off-grid", "fp-below-one-step", "fp-half-step",
        "gaussian-D-inf"])
def test_kernel_input_checks(call, fragment):
    with pytest.raises(KernelError, match=fragment):
        call()


def test_curvature_too_small_for_a_normal_k2t_is_refused():
    # where k^2 t underflowed to 0, H^2 read q = 0 and H^3 NaN; at the subnormal
    # k^2 t = 1e-320 (k = 1e-160) H^2 was 3e-5 off; the default grid divided by k^2 = 0
    for dim, k in ((2, 1e-200), (2, 1e-160), (3, 1e-170)):
        with pytest.raises(KernelError, match=r"need k\^2 t to be a normal float"):
            log_q_hyperbolic(1.0, dim, k, np.array([0.0, 5.0, 10.0]))
    with pytest.raises(KernelError, match=r"need k\^2 t to be a normal float"):
        kernel_for(Hyperbolic(2, 1.0)).log_q(1e-310, 1.0)
    for k in (1e-200, 1e200):
        with pytest.raises(EstimatorInputError, match=r"need k\^2 to be a normal float"):
            default_t_grid(Hyperbolic(2, k))
    # at k^2 t = 1e-300 both kernels still read the flat one
    flat = -math.log(2.0 * math.pi)
    assert float(log_q_hyperbolic(1.0, 2, 1e-150, 0.0)) == pytest.approx(flat, rel=1e-12)
    assert float(log_q_hyperbolic(1.0, 3, 1e-150, 0.0)) == pytest.approx(1.5 * flat, rel=1e-12)


def test_horizon_past_the_float_range_is_refused():
    # 2 pi t = inf read NaN on R^d where r * r is inf, and k^2 t = inf (or 2 pi k^2 t)
    # on H^3; k^2 t = inf had passed the normal-float floor
    with pytest.raises(KernelError, match="need 2 pi t to be finite"):
        log_q_euclidean(1e308, 2, 1e200)
    for dim, k, t in ((3, 1e200, 1.0), (2, 1e200, 1.0), (3, 1.0, 1e308)):
        with pytest.raises(KernelError, match=r"with 2 pi k\^2 t finite"):
            log_q_hyperbolic(t, dim, k, np.array([0.0, 1e200]))
    # below the ceiling log q is -inf at the far radii, as it was
    assert log_q_euclidean(2e307, 2, np.array([1e200]))[0] == -math.inf
    assert log_q_hyperbolic(2e307, 3, 1.0, np.array([1e200]))[0] == -math.inf


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: log_q_euclidean(math.nan, 2, 1.0), KernelError, "need t > 0"),
    (lambda: log_q_hyperbolic(math.nan, 2, 1.0, 1.0), KernelError, "need t > 0"),
    (lambda: log_q_hyperbolic(math.nan, 3, 1.0, 1.0), KernelError, "need t > 0"),
    (lambda: log_q_hyperbolic(1.0, 3, math.nan, 1.0), KernelError, "need k > 0"),
    (lambda: gaussian_bound_constant(Hyperbolic(2), math.nan, (1.0, 2.0), 5.0), KernelError,
     "needs D > 2"),
    (lambda: gaussian_bound_constant(Hyperbolic(2), 3.0, (math.nan, 2.0), 5.0), KernelError,
     "domain is t >= 1"),
    (lambda: chapman_kolmogorov_residual(Hyperbolic(2), math.nan, 1.0, 1.0), KernelError,
     "need s > 0 and t > 0"),
    (lambda: zero_two_defect(Hyperbolic(2), math.nan, 1.0), KernelError, "need tau > 0 and t > 0"),
    (lambda: truncation_radius(Euclidean(1), math.nan), KernelError, "need t > 0"),
    (lambda: entropy_quadrature(Euclidean(1), math.nan), KernelError, "need t > 0"),
    (lambda: _small_fp_grid().marginal(math.nan), KernelError, "not on the stored grid"),
    (lambda: radial_fokker_planck(builtin_profile("euclid"), r0=0.5, dt=math.nan, dr=0.05,
                                  t_max=0.1, r_max=2.0), KernelError, "CFL"),
    (lambda: radial_fokker_planck(builtin_profile("euclid"), r0=0.5, dt=1e-3, dr=math.nan,
                                  t_max=0.1, r_max=2.0), KernelError, "CFL"),
    (lambda: furstenberg_check(SimConfig(seed=1, n_paths=2, t_max=1.0, dt=0.1), t=math.nan),
     ValueError, "beyond simulated horizon"),
], ids=["euclidean-t", "h2-t", "h3-t", "hyperbolic-k", "gaussian-D", "gaussian-t_lo", "ck-s",
        "zero_two-tau", "truncation-t", "entropy-t", "fp-marginal", "fp-dt", "fp-dr",
        "furstenberg-t"])
def test_nan_fails_every_float_guard(call, error, fragment):
    # each guard was written x <= 0 and NaN compares false: the call went on
    # and gave NaN, -inf, the t = 0 snapshot or a message about something else
    with pytest.raises(error, match=fragment):
        call()


def _fp(**kw):
    args = dict(r0=0.5, dt=1e-3, dr=0.05, t_max=0.1, r_max=2.0) | kw
    return radial_fokker_planck(builtin_profile("euclid"), **args)


_H2 = Hyperbolic(2)


@pytest.mark.parametrize("call, fragment", [
    (lambda: zero_two_defect(_H2, 1.0, math.inf), "both finite, got tau = 1.0, t = inf"),
    (lambda: zero_two_defect(_H2, math.inf, 1.0), "both finite, got tau = inf, t = 1.0"),
    (lambda: chapman_kolmogorov_residual(_H2, 1.0, 1.0, math.nan), "need 0 <= rho < inf"),
    (lambda: chapman_kolmogorov_residual(_H2, 1.0, 1.0, -1.0), "need 0 <= rho < inf"),
    (lambda: chapman_kolmogorov_residual(_H2, 1.0, 1.0, math.inf), "need 0 <= rho < inf"),
    (lambda: chapman_kolmogorov_residual(Euclidean(1), math.inf, 1.0, 1.0), "both finite, got s = inf"),
    (lambda: chapman_kolmogorov_residual(Euclidean(1), 1.0, math.inf, 1.0), "both finite, got s = 1.0, t = inf"),
    (lambda: gaussian_bound_constant(_H2, 3.0, (1.0, 2.0), math.nan), "need 0 < r_max < inf"),
    (lambda: gaussian_bound_constant(_H2, 3.0, (1.0, 2.0), -1.0), "need 0 < r_max < inf"),
    (lambda: gaussian_bound_constant(_H2, 3.0, (2.0, 1.0), 5.0), "need t_lo <= t_hi"),
    (lambda: gaussian_bound_constant(_H2, 3.0, (1.0, math.inf), 5.0), "t_hi = inf"),
    (lambda: gaussian_bound_constant(_H2, 3.0, (1.0, math.nan), 5.0), "t_hi = nan"),
    (lambda: _fp(t_max=math.nan), "need 0 < t_max < inf"),
    (lambda: _fp(t_max=math.inf), "need 0 < t_max < inf"),
    (lambda: _fp(t_max=-1.0), "need 0 < t_max < inf"),
    (lambda: _fp(r_max=math.nan), "need 0 < dr <= r_max < inf, got dr = 0.05, r_max ="),
    (lambda: _fp(r_max=math.inf), "need 0 < dr <= r_max < inf, got dr = 0.05, r_max ="),
    (lambda: _fp(r_max=0.01), "need 0 < dr <= r_max < inf, got dr = 0.05, r_max ="),
    (lambda: _fp(dr=-0.05), "need 0 < dr <= r_max < inf, got dr = -0.05"),
], ids=["zero_two-t-inf", "zero_two-tau-inf", "ck-rho-nan", "ck-rho-negative", "ck-rho-inf", "ck-s-inf",
        "ck-t-inf", "gaussian-r_max-nan", "gaussian-r_max-negative", "gaussian-reversed", "gaussian-t_hi-inf",
        "gaussian-t_hi-nan", "fp-t_max-nan", "fp-t_max-inf", "fp-t_max-negative", "fp-r_max-nan",
        "fp-r_max-inf", "fp-r_max-below-dr", "fp-dr-negative"])
def test_diagnostics_reject_infinite_horizons_and_bad_radii(call, fragment):
    # each case returned a value, crashed inside numpy or scipy, or was
    # rejected with the message of a check on another argument
    with pytest.raises(KernelError, match=fragment):
        call()


# SHA-256 of each grid's times, r_centers, rho and mass, each as .tobytes(), in that order
@pytest.mark.parametrize("label, kw, digest", [
    ("euclid", dict(r0=0.05, dt=4e-4, dr=0.05, t_max=0.2, r_max=3.0, n_snapshots=3),
     "403d5428b6a8398097c37ecb64e84110a8a27a42e49a3b1297d2c3848fb9a3b8"),
    ("hyperbolic", dict(r0=0.01, dt=1e-4, dr=0.02, t_max=0.5, r_max=4.0, n_snapshots=6),
     "062682129dfa624ad02abd81db0b7aee3bd9ec3b9d2715e2891bf438a9fc0504"),
])
def test_fp_grid_golden_bytes(label, kw, digest):
    grid = radial_fokker_planck(builtin_profile(label), **kw)
    h = hashlib.sha256()
    for a in (grid.times, grid.r_centers, grid.rho, grid.mass):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_rotsym_has_no_closed_form_kernel():
    with pytest.raises(KernelError):
        kernel_for(RotSymSurface(builtin_profile("kaimanovich")))


_ROTSYM = RotSymSurface(builtin_profile("hyperbolic", 1.0))


@pytest.mark.parametrize("call", [
    lambda: inequality_report(_ROTSYM),
    lambda: inequality_report(_ROTSYM, t_grid=[5.0, 10.0, 15.0, 20.0]),
    lambda: truncation_radius(_ROTSYM, 1.0),
    lambda: default_t_grid(_ROTSYM),
    lambda: zero_two_defect(_ROTSYM, 1.0, 1.0),
    lambda: gaussian_bound_constant(_ROTSYM, 3.0, (1.0, 2.0), 5.0),
    lambda: chapman_kolmogorov_residual(_ROTSYM, 1.0, 1.0, 1.0),
    lambda: inequality_report(Ensemble((_ROTSYM, Hyperbolic(2)), (0.5, 0.5))),
    lambda: chapman_kolmogorov_residual(Euclidean(2), 1.0, 1.0, 1.0),
], ids=["report", "report_t_grid", "truncation_radius", "default_t_grid", "zero_two",
        "gaussian_bound", "chapman_kolmogorov", "ensemble_report", "chapman_kolmogorov_e2"])
def test_out_of_catalog_space_raises_kernel_error(call):
    # a rotationally symmetric surface has k = None; the kernel gate must reject
    # it before anything computes with space.k (a TypeError would be a crash).
    # Chapman-Kolmogorov has a flat quadrature on the line only.
    with pytest.raises(KernelError):
        call()
