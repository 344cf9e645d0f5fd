from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdl.model_spaces import (
    Euclidean,
    GeometryError,
    HalfPlane,
    Hyperbolic,
    RotSymSurface,
    builtin_profile,
    space_from_json,
    unit_sphere_area,
)

from conftest import hyperboloid_distance


# --------------------------------------------------------------- distances


def test_halfplane_vertical_geodesic():
    hp = HalfPlane()
    assert hp.distance((0.0, 1.0), (0.0, math.e)) == pytest.approx(1.0, abs=1e-12)


def test_euclidean_345():
    e3 = Euclidean(3)
    assert e3.distance(np.zeros(3), (3.0, 4.0, 0.0)) == pytest.approx(5.0, abs=1e-12)


def test_hyperbolic_law_of_cosines_vs_hyperboloid_oracle():
    rng = np.random.default_rng(3)
    for k in (1.0, 2.0):
        sp = Hyperbolic(2, k)
        for _ in range(50):
            a = rng.normal(size=2) * 2.0
            b = rng.normal(size=2) * 2.0
            assert sp.distance(a, b) == pytest.approx(
                hyperboloid_distance(k, a, b), rel=1e-10, abs=1e-10
            )


def test_hyperbolic_antipodal_points_add_radii():
    sp = Hyperbolic(2, 1.0)
    # antipodal directions: cosh d = cosh r1 cosh r2 + sinh r1 sinh r2 = cosh(r1+r2)
    assert sp.distance((1.5, 0.0), (-2.5, 0.0)) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_hyperbolic_distance_exact_at_the_basepoint(dim, k):
    # the law of cosines alone returns 0 at |x| = 1e-9; either argument order
    # must give |x| exactly
    sp = Hyperbolic(dim, k)
    o = sp.basepoint
    for r in (1e-9, 1e-3, 1.0, 7.0):
        for x in (r * np.eye(dim)[-1], -r * np.eye(dim)[0]):
            assert sp.distance(o, x) == sp.distance(x, o) == r


def test_pairwise_distances_take_scalar_points_on_the_line():
    assert Euclidean(1).pairwise_distances([0.0, 1.0, 3.0]).tolist() == [
        [0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]


def test_halfplane_rejects_nonpositive_y():
    hp = HalfPlane()
    with pytest.raises(GeometryError):
        hp.distance((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(GeometryError):
        hp.distance((0.0, -1.0), (0.0, 1.0))


def test_rotsym_surface_has_no_pairwise_distances():
    surf = RotSymSurface(builtin_profile("kaimanovich"))
    with pytest.raises(GeometryError):
        surf.pairwise_distances([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_distance_axioms_random_triples(seed):
    rng = np.random.default_rng(seed)
    spaces = [Euclidean(2), Hyperbolic(2, 1.0), Hyperbolic(3, 0.5), HalfPlane()]
    sp = spaces[seed % len(spaces)]
    if isinstance(sp, HalfPlane):
        pts = [(rng.normal() * 2, rng.uniform(0.1, 5.0)) for _ in range(3)]
    else:
        pts = [rng.normal(size=sp.dim) for _ in range(3)]
    a, b, c = pts
    dab, dba = sp.distance(a, b), sp.distance(b, a)
    assert dab == pytest.approx(dba, rel=1e-12, abs=1e-12)
    assert sp.distance(a, c) <= dab + sp.distance(b, c) + 1e-9
    assert dab >= 0


# ---------------------------------------------------------- sphere areas


def test_sphere_area_values():
    assert Euclidean(2).sphere_area(1.0) == pytest.approx(2 * math.pi, abs=1e-12)
    assert Hyperbolic(2, 1.0).sphere_area(1.0) == pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-12)
    surf = RotSymSurface(builtin_profile("kaimanovich"))
    assert surf.sphere_area(1.0) == pytest.approx(2 * math.pi * math.exp(0.5), rel=1e-12)


def test_sphere_area_euclidean_small_r_limit():
    # sphere_area / (vol(S^{d-1}) r^{d-1}) -> 1 as r -> 0
    for sp in (Euclidean(3), Hyperbolic(2, 1.0), Hyperbolic(3, 2.0), HalfPlane(),
               RotSymSurface(builtin_profile("kaimanovich"))):
        r = 1e-6
        ratio = sp.sphere_area(r) / (unit_sphere_area(sp.dim) * r ** (sp.dim - 1))
        assert ratio == pytest.approx(1.0, abs=1e-9)
    assert Euclidean(2).sphere_area(0.0) == 0.0


# ----------------------------------------------------------- ball volumes


def test_ball_volume_closed_forms():
    assert Hyperbolic(2, 1.0).ball_volume(1.0) == pytest.approx(
        2 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-12
    )
    assert Euclidean(3).ball_volume(1.0) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    for sp in (Euclidean(2), Hyperbolic(3, 2.0), HalfPlane()):
        assert sp.ball_volume(0.0) == 0.0


def test_ball_volume_derivative_matches_sphere_area():
    h = 1e-5
    for sp in (Euclidean(2), Euclidean(3), Hyperbolic(2, 1.0), Hyperbolic(3, 2.0), HalfPlane()):
        for r in (0.5, 1.0, 3.0):
            fd = (sp.ball_volume(r + h) - sp.ball_volume(r - h)) / (2 * h)
            assert fd == pytest.approx(sp.sphere_area(r), rel=1e-6)


def test_ball_volume_strictly_increasing():
    sp = Hyperbolic(3, 1.0)
    rs = np.linspace(0.1, 5.0, 20)
    vols = [sp.ball_volume(r) for r in rs]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def test_rotsym_ball_volume_quadrature():
    # 2 pi int_0^r s e^{s^2/2} ds = 2 pi (e^{r^2/2} - 1)
    surf = RotSymSurface(builtin_profile("kaimanovich"))
    assert surf.ball_volume(1.5) == pytest.approx(
        2 * math.pi * (math.exp(1.5 ** 2 / 2) - 1.0), rel=1e-8
    )


# --------------------------------------------------------- volume growth


def test_volume_growth_hyperbolic_family():
    for dim, k, expected in ((2, 1.0, 1.0), (3, 2.0, 4.0), (3, 1.0, 2.0), (2, 0.5, 0.5)):
        est = Hyperbolic(dim, k).volume_growth(40.0)
        assert est.finite
        assert est.value == pytest.approx(expected, rel=0.01)


def test_volume_growth_euclidean_is_zero():
    for d in (1, 2, 3):
        est = Euclidean(d).volume_growth(40.0)
        assert est.finite
        assert abs(est.value) < 0.15  # d log r / r slope at r_max = 40


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf, math.nan])
def test_volume_growth_needs_finite_positive_r_max(r_max):
    # inf and NaN used to pass r_max <= 0 and come back as "not finite"
    with pytest.raises(GeometryError):
        Hyperbolic(2).volume_growth(r_max)


def test_volume_growth_kaimanovich_overflows_flagged():
    surf = RotSymSurface(builtin_profile("kaimanovich"))
    est = surf.volume_growth(40.0)
    assert not est.finite
    assert est.value == math.inf
    assert est.first_overflow_radius is not None


# -------------------------------------------------------------- profiles


# p' and p'' of each built-in profile, written out: (label, k, p', p'')
_PROFILE_DERIVATIVES = [
    ("euclid", 1.0, lambda r: np.ones_like(r), lambda r: np.zeros_like(r)),
    *[("hyperbolic", k, lambda r, k=k: np.cosh(k * r), lambda r, k=k: k * np.sinh(k * r))
      for k in (0.5, 1.0, 2.0)],
    ("kaimanovich", 1.0, lambda r: (1.0 + r ** 2) * np.exp(0.5 * r ** 2),
     lambda r: (3.0 * r + r ** 3) * np.exp(0.5 * r ** 2)),
]


def test_profile_invariants():
    prof = builtin_profile("kaimanovich")
    # p > 0 for r > 0; Gauss curvature -p''/p = -(3 + r^2), p'' = (3r + r^3) e^{r^2/2}
    assert float(prof.p(2.0)) > 0
    assert float(-(3.0 * 2.0 + 2.0 ** 3) * math.exp(2.0) / prof.p(2.0)) == pytest.approx(-(3 + 4.0), rel=1e-12)
    hyp = builtin_profile("hyperbolic", 2.0)  # p'' = k sinh(kr)
    assert float(-2.0 * np.sinh(2.0 * 1.3) / hyp.p(1.3)) == pytest.approx(-4.0, rel=1e-12)
    with pytest.raises(GeometryError):
        builtin_profile("nope")


@pytest.mark.parametrize("label, k, p1, p2", _PROFILE_DERIVATIVES,
                         ids=["euclid", "hyperbolic-0.5", "hyperbolic-1", "hyperbolic-2", "kaimanovich"])
def test_profile_stable_forms_agree_with_p(label, k, p1, p2):
    """drift = p'/(2p) and inv_p_sq = 1/p^2 at moderate radii; the Gauss
    curvature -p''/p is 0, -k^2 or -(3 + r^2)."""
    prof = builtin_profile(label, k)
    r = np.array([0.05, 0.3, 1.0, 2.5, 4.0])
    p = prof.p(r)
    assert prof.drift(r) == pytest.approx(p1(r) / (2.0 * p), rel=1e-12)
    assert prof.inv_p_sq(r) == pytest.approx(1.0 / p ** 2, rel=1e-12)
    curvature = {"euclid": 0.0 * r, "hyperbolic": -k * k + 0.0 * r, "kaimanovich": -(3.0 + r ** 2)}
    assert -p2(r) / p == pytest.approx(curvature[label], rel=1e-12)


def test_builtin_profiles_carry_k():
    assert builtin_profile("euclid").k == 0.0
    assert builtin_profile("hyperbolic", 0.25).k == 0.25
    assert builtin_profile("kaimanovich").k is None
    for k in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GeometryError):
            builtin_profile("hyperbolic", k)


def test_profile_smoothness_at_pole_enforced():
    from rdl.model_spaces import ProfileFunction

    with pytest.raises(GeometryError):  # p(0) = 1
        ProfileFunction(label="bad", k=None, p=lambda r: np.asarray(r) + 1.0,
                        drift=lambda r: 0.5 / np.asarray(r), inv_p_sq=lambda r: 1.0 / (np.asarray(r) + 1.0) ** 2)
    with pytest.raises(GeometryError):  # p = 2r: p'(0) = 2 p drift = 1 only for drift 1/(2r)
        ProfileFunction(label="bad", k=None, p=lambda r: 2.0 * np.asarray(r),
                        drift=lambda r: 1.0 / np.asarray(r), inv_p_sq=lambda r: 0.25 / np.asarray(r) ** 2)


def test_profile_stable_drift_and_clock():
    prof = builtin_profile("kaimanovich")
    assert float(prof.drift(1.0)) == pytest.approx(1.0, abs=1e-15)
    # no overflow at huge radii
    assert np.isfinite(prof.drift(1e6))
    assert prof.inv_p_sq(50.0) == 0.0  # underflows, not overflows
    hyp = builtin_profile("hyperbolic", 1.0)
    assert float(hyp.drift(700.0)) == pytest.approx(0.5, rel=1e-12)


# --------------------------------------------------------- serialization


def test_json_round_trip():
    spaces = [
        Euclidean(3),
        Hyperbolic(2, 2.0),
        HalfPlane(),
        RotSymSurface(builtin_profile("kaimanovich")),
    ]
    for sp in spaces:
        clone = space_from_json(sp.to_json_dict())
        assert clone.label() == sp.label()
    rotsym_k = RotSymSurface(builtin_profile("hyperbolic", 2.0))
    assert space_from_json(rotsym_k.to_json_dict()).label() == rotsym_k.label()
    assert space_from_json({"kind": "hyperbolic", "dim": 2, "k": 1.0}).k == 1.0
    with pytest.raises(GeometryError):
        space_from_json({"kind": "torus"})


def test_rotsym_hyperbolic_k_round_trips_exactly():
    for k in (0.123456789, 1.0):
        sp = RotSymSurface(builtin_profile("hyperbolic", k))
        blob = json.loads(json.dumps(sp.to_json_dict()))
        assert blob["k"] == k
        clone = space_from_json(blob)
        assert clone.to_json_dict() == sp.to_json_dict()
        assert clone.label() == sp.label()
        assert float(clone.profile.drift(0.7)) == float(sp.profile.drift(0.7))


def test_rotsym_json_dicts():
    assert RotSymSurface(builtin_profile("euclid")).to_json_dict() == {"kind": "rotsym", "profile": "euclid"}
    assert RotSymSurface(builtin_profile("kaimanovich")).to_json_dict() == {
        "kind": "rotsym", "profile": "kaimanovich"}
    assert RotSymSurface(builtin_profile("hyperbolic", 0.5)).to_json_dict() == {
        "kind": "rotsym", "profile": "hyperbolic", "k": 0.5}


@pytest.mark.parametrize("obj", [
    {"kind": "euclidean", "dim": 2.9},
    {"kind": "euclidean", "dim": True},
    {"kind": "hyperbolic", "dim": "2"},
    {"kind": "hyperbolic", "dim": 2, "k": math.nan},
    {"kind": "hyperbolic", "dim": 2, "k": math.inf},
    {"kind": "hyperbolic", "dim": 2, "k": 0.0},
    {"kind": "rotsym", "profile": "hyperbolic", "k": math.nan},
    {"kind": "hyperbolic", "dim": 2, "k": True},
    {"kind": "hyperbolic", "dim": 2, "k": "2"},
    {"kind": "rotsym", "profile": "hyperbolic", "k": "2"},
    {"kind": "hyperbolic", "dim": 2, "kk": 3},  # read as H^2 with k = 1
    {"kind": "euclidean", "dim": 2, "k": 0.0},
    {"kind": "halfplane", "dim": 2},
    {"kind": "rotsym", "profile": "kaimanovich", "label": "x"},
], ids=["dim-fractional", "dim-true", "dim-string", "k-nan", "k-inf", "k-zero", "rotsym-k-nan",
        "k-true", "k-string", "rotsym-k-string", "unknown-kk", "euclidean-k", "halfplane-dim", "rotsym-label"])
def test_space_from_json_rejects_bad_fields(obj):
    with pytest.raises(GeometryError):
        space_from_json(obj)


def test_space_from_json_accepts_integral_float_dim():
    assert space_from_json({"kind": "euclidean", "dim": 3.0}).dim == 3


@pytest.mark.parametrize("space", [Euclidean(2), Hyperbolic(2), RotSymSurface(builtin_profile("kaimanovich")),
                                   Hyperbolic(4), HalfPlane()],
                         ids=["euclidean", "hyperbolic", "rotsym", "hyperbolic-4", "halfplane"])
@pytest.mark.parametrize("method", ["sphere_area", "ball_volume"])
def test_radial_geometry_rejects_a_negative_radius(space, method):
    # the message carries r itself: rotsym's ball_volume would otherwise fail
    # later, inside its quadrature, at some node between r and 0
    with pytest.raises(GeometryError, match=r"radius must be >= 0, got -1\.0$"):
        getattr(space, method)(-1.0)
    # NaN passed the guards when they were written r < 0: Hyperbolic(4).ball_volume
    # gave 0.0, and the other calls gave NaN
    with pytest.raises(GeometryError, match=r"radius must be >= 0, got nan$"):
        getattr(space, method)(math.nan)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hyperbolic_ball_volume_overflow_is_inf(dim):
    # math.cosh and math.sinh raised OverflowError past k r ~ 710
    assert Hyperbolic(dim).ball_volume(800.0) == math.inf


@pytest.mark.parametrize("dim, area", [(1, 2.0), (2, math.inf), (3, math.inf), (4, math.inf)])
def test_hyperbolic_sphere_area_overflow_is_inf(dim, area):
    # math.sinh raised OverflowError past k r ~ 710, and the power past the float range
    assert Hyperbolic(dim).sphere_area(800.0) == area


def test_hyperbolic_distance_overflow_is_an_error():
    # the law of cosines read inf - inf: the distance came back NaN, with a numpy
    # warning, which the pytest configuration turns into an error
    with pytest.raises(GeometryError, match="law of cosines overflows"):
        Hyperbolic(2).dist_to_many(np.array([[400.0, 0.0]]), [0.0, 380.0])
