from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from rdl.busemann import (
    HALF_PLANE_DRIFT,
    furstenberg_check,
    k_functional_and_equality,
)
from rdl.estimators import inequality_report
from rdl.model_spaces import GeometryError, HalfPlane, Hyperbolic
from rdl.sde_sim import SimConfig

_HP = HalfPlane()


@dataclass(frozen=True)
class BusemannField:
    """Busemann function of a boundary point of the half-plane: None means the
    point at infinity, a float b means the finite boundary point (b, 0).  The
    oracle of the closed forms in rdl.busemann, which the tests below audit
    against distance limits and finite differences."""

    boundary_point: float | None = None

    def value(self, pt) -> float:
        x, y = _HP.validate_point(pt)
        if self.boundary_point is None:
            return -math.log(y)
        b = self.boundary_point
        return math.log(((x - b) ** 2 + y ** 2) / (y * (b * b + 1.0)))

    def gradient(self, pt) -> np.ndarray:
        """Riemannian gradient y^2 (dxi/dx, dxi/dy)."""
        x, y = _HP.validate_point(pt)
        if self.boundary_point is None:
            return np.array([0.0, -y])
        b = self.boundary_point
        s = (x - b) ** 2 + y ** 2
        return y * y * np.array([2.0 * (x - b) / s, 2.0 * y / s - 1.0 / y])

    def gradient_norm(self, pt) -> float:
        g = self.gradient(pt)
        _, y = _HP.validate_point(pt)
        return float(np.sqrt(g @ g) / y)  # |v|_hyp = |v|_eucl / y

    def laplacian(self, pt) -> float:
        """Delta xi = 1 identically (computed in closed form for both charts:
        for xi = -log y, y^2 * d_yy(-log y) = y^2 / y^2 = 1; the finite-point
        fields are isometric images)."""
        _HP.validate_point(pt)
        return 1.0

    def poisson_kernel(self, pt) -> float:
        """Positive harmonic (Martin) function k_xi = e^{-xi} of the same
        boundary point, normalized to 1 at the basepoint.  Its log-gradient is
        grad log k_xi = -grad xi, so |grad log k_xi| = |grad xi| = 1."""
        x, y = _HP.validate_point(pt)
        if self.boundary_point is None:
            return y
        b = self.boundary_point
        return y * (b * b + 1.0) / ((x - b) ** 2 + y ** 2)


def fd_laplacian(func, pt, h: float = 1e-3) -> float:
    """Hyperbolic 5-point finite-difference Laplacian y^2 (f_xx + f_yy): the
    oracle for the closed-form Laplacians."""
    x, y = HalfPlane().validate_point(pt)
    if y - h <= 0:
        raise GeometryError(f"stencil leaves the half-plane at y = {y}, h = {h}")
    f0 = func((x, y))
    fxx = (func((x + h, y)) + func((x - h, y)) - 2.0 * f0) / (h * h)
    fyy = (func((x, y + h)) + func((x, y - h)) - 2.0 * f0) / (h * h)
    return y * y * (fxx + fyy)


def fd_grad_log_kernel(xi: BusemannField, pt, rel_h: float = 1e-5) -> np.ndarray:
    """Riemannian gradient y^2 (d_x, d_y) log k_xi by central differences of
    the closed-form Poisson kernel, step rel_h * y: the oracle for the rule
    grad log k_xi = -grad xi."""
    x, y = pt
    h = rel_h * y

    def log_k(p):
        return math.log(xi.poisson_kernel(p))

    gx = (log_k((x + h, y)) - log_k((x - h, y))) / (2 * h)
    gy = (log_k((x, y + h)) - log_k((x, y - h))) / (2 * h)
    return y * y * np.array([gx, gy])


def test_busemann_infinity_values():
    xi = BusemannField(None)
    assert xi.value((0.0, 1.0)) == 0.0
    assert xi.value((5.0, math.e ** 2)) == pytest.approx(-2.0, abs=1e-12)


def test_busemann_finite_point_matches_distance_limit_oracle():
    # xi_b = lim_{x -> (b, 0)} d(pt, x) - d(o, x), taken along the vertical
    # geodesic into the boundary point
    hp = HalfPlane()

    def oracle(b, pt, eps=1e-9):
        probe = (b, eps)
        return hp.distance(pt, probe) - hp.distance((0.0, 1.0), probe)

    for b in (0.0, 1.5, -2.0):
        xi = BusemannField(b)
        for pt in ((0.0, 2.0), (1.0, 0.5), (-3.0, 4.0)):
            assert xi.value(pt) == pytest.approx(oracle(b, pt), abs=1e-6)


def test_busemann_basepoint_normalization():
    for b in (None, 0.0, 3.0):
        assert BusemannField(b).value((0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_busemann_unit_gradient_closed_form_and_fd():
    rng = np.random.default_rng(1)
    for b in (None, 0.0, -1.7):
        xi = BusemannField(b)
        for _ in range(100):
            pt = (rng.uniform(-5, 5), rng.uniform(0.1, 8.0))
            assert xi.gradient_norm(pt) == pytest.approx(1.0, abs=1e-10)
        # finite-difference cross-check of the gradient (Euclidean components)
        pt = (0.3, 2.0)
        h = 1e-6
        gx = (xi.value((pt[0] + h, pt[1])) - xi.value((pt[0] - h, pt[1]))) / (2 * h)
        gy = (xi.value((pt[0], pt[1] + h)) - xi.value((pt[0], pt[1] - h))) / (2 * h)
        grad = xi.gradient(pt)
        assert grad[0] == pytest.approx(pt[1] ** 2 * gx, abs=1e-5)
        assert grad[1] == pytest.approx(pt[1] ** 2 * gy, abs=1e-5)


def test_laplacian_busemann_is_one():
    xi = BusemannField(None)
    assert xi.laplacian((0.0, 1.0)) == 1.0
    assert xi.laplacian((3.0, 7.0)) == 1.0
    # 5-point hyperbolic stencil agrees to 1e-5 at h = 1e-3
    assert fd_laplacian(xi.value, (0.0, 1.0), h=1e-3) == pytest.approx(1.0, abs=1e-5)
    assert fd_laplacian(BusemannField(2.0).value, (1.0, 3.0), h=1e-3) == pytest.approx(
        1.0, abs=1e-5
    )


def test_poisson_kernel_fields():
    xi = BusemannField(None)
    assert xi.poisson_kernel((4.0, 2.5)) == pytest.approx(2.5)
    assert xi.poisson_kernel((0.0, 1.0)) == pytest.approx(1.0)
    xi0 = BusemannField(0.0)
    assert xi0.poisson_kernel((0.0, 1.0)) == pytest.approx(1.0)


def test_poisson_kernel_is_exp_minus_busemann():
    rng = np.random.default_rng(4)
    for b in (None, 0.0, -1.7, 2.5):
        xi = BusemannField(b)
        for _ in range(20):
            pt = (rng.uniform(-5, 5), rng.uniform(0.05, 8.0))
            assert xi.poisson_kernel(pt) == pytest.approx(math.exp(-xi.value(pt)), rel=1e-12)


def test_poisson_kernel_harmonic_fd():
    rng = np.random.default_rng(2)
    for b in (None, 0.0, 1.2):
        pk = BusemannField(b).poisson_kernel
        for _ in range(20):
            pt = (rng.uniform(-3, 3), rng.uniform(0.5, 5.0))
            assert abs(fd_laplacian(pk, pt, h=1e-4)) < 1e-6 * max(1.0, pk(pt))


def test_grad_log_poisson_is_minus_grad_busemann():
    # central differences of log k_xi against the closed-form -grad xi
    for b in (None, 0.0, -1.7):
        xi = BusemannField(b)
        for pt in ((0.0, 1.0), (2.0, 0.3), (-1.0, 5.0)):
            assert np.allclose(fd_grad_log_kernel(xi, pt), -xi.gradient(pt), rtol=0, atol=1e-9)


def test_k_functional_and_equality_gap():
    k_val, gap = k_functional_and_equality()
    assert k_val == pytest.approx(0.5, abs=1e-12)
    assert gap <= 1e-10
    # the closed form is, to the bit, k and the gap read off the field's
    # |grad xi| at the basepoint
    norm = BusemannField(None).gradient_norm(_HP.basepoint)
    assert (k_val, gap) == (0.5 * norm ** 2, abs(1.0 - 2.0 * HALF_PLANE_DRIFT) * norm) == (0.5, 0.0)


@pytest.mark.parametrize("b", [None, 0.0, -1.7, 2.5])
def test_k_functional_audit_at_sample_points(b):
    # k_functional_and_equality reads k = 1/2 and gap = 0 off |grad xi| = 1 at
    # the basepoint; here both hold on 100 sample points (seed 0), with
    # grad log k_xi taken from the kernel by central differences
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-5, 5, 100), rng.uniform(0.05, 8, 100)])
    xi = BusemannField(b)
    k_vals, k_vals_fd, gap = [], [], 0.0
    for pt in pts:
        y = pt[1]
        g_logk = fd_grad_log_kernel(xi, pt)
        gap = max(gap, float(np.linalg.norm(g_logk + 2.0 * HALF_PLANE_DRIFT * xi.gradient(pt)) / y))
        k_vals.append(0.5 * xi.gradient_norm(pt) ** 2)
        k_vals_fd.append(0.5 * float(g_logk @ g_logk) / y ** 2)
    assert np.mean(k_vals) == pytest.approx(0.5, abs=1e-12)
    assert np.mean(k_vals_fd) == pytest.approx(0.5, abs=1e-9)
    assert gap <= 1e-9


def test_drift_from_inner_product_formula():
    # ell = -E((1/2) <grad log k_xi, grad xi>) = 1/2 exactly; for the point at
    # infinity log k_xi = log y, so grad log k_xi = y^2 (0, 1/y) = (0, y)
    xi = BusemannField(None)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(50):
        pt = (rng.uniform(-4, 4), rng.uniform(0.1, 6.0))
        g1, g2 = np.array([0.0, pt[1]]), xi.gradient(pt)
        inner = float(g1 @ g2) / pt[1] ** 2  # hyperbolic inner product
        vals.append(-0.5 * inner)
    assert np.max(np.abs(np.array(vals) - 0.5)) < 1e-12


def test_furstenberg_check_mc():
    cfg = SimConfig(seed=17, n_paths=4000, t_max=10.0, dt=0.01, record_stride=500)
    res = furstenberg_check(cfg)
    assert res.expected == pytest.approx(5.0)
    assert abs(res.mc_mean - 5.0) <= 3 * res.mc_se
    assert abs(res.z_score) <= 3.0
    # linearity: mean at t=10 about twice the mean at t=5
    res5 = furstenberg_check(cfg, t=5.0)
    assert res.mc_mean / res5.mc_mean == pytest.approx(2.0, abs=0.1)


def test_three_routes_to_drift_agree():
    # quadrature increment, exact (1/2) Delta xi, Furstenberg MC
    quad_route = inequality_report(Hyperbolic(2, 1.0)).ell  # ell_40 - ell_39
    exact_route = 0.5 * BusemannField(None).laplacian((0.0, 1.0))
    cfg = SimConfig(seed=23, n_paths=4000, t_max=5.0, dt=0.01, record_stride=100)
    mc = furstenberg_check(cfg)
    mc_route = mc.mc_mean / mc.t
    assert quad_route == pytest.approx(exact_route, abs=5e-3)
    assert abs(mc_route - exact_route) <= 3 * mc.mc_se / mc.t


def test_fd_laplacian_domain_check():
    with pytest.raises(GeometryError):
        fd_laplacian(BusemannField(None).value, (0.0, 1e-4), h=1e-3)


@pytest.mark.parametrize("t, fragment", [(2.0, "beyond simulated horizon"),
                                         (0.3, "not on the recorded time grid"),
                                         # t = 0 gave z_score = inf for an exact match
                                         (0.0, "must be > 0"),
                                         (-1.0, "must be > 0")],
                         ids=["past-horizon", "off-grid", "zero", "negative"])
def test_furstenberg_check_rejects_a_time_it_did_not_record(t, fragment):
    cfg = SimConfig(seed=1, n_paths=2, t_max=1.0, dt=0.1, record_stride=5)
    with pytest.raises(ValueError, match=fragment):
        furstenberg_check(cfg, t=t)
