from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdl import model_spaces
from rdl.model_spaces import (
    _SMALL_KR,
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


def test_distance_refuses_a_point_of_the_wrong_dimension():
    with pytest.raises(GeometryError, match=re.escape("expected a point in R^2, got shape (3,)")):
        Euclidean(2).distance([1.0, 2.0, 3.0], [0.0, 0.0])
    # dist_to_many's rows too: the half-plane read their first two columns, H^2 at its
    # basepoint the norm of all three, and R^2 raised numpy's broadcast error
    for space, pt in ((HalfPlane(), [0.0, 1.0]), (Hyperbolic(2), [0.0, 0.0]), (Euclidean(2), [0.0, 0.0])):
        with pytest.raises(GeometryError, match=re.escape("expected a point in R^2, got shape (3,)")):
            space.dist_to_many(np.ones((1, 3)), pt)


@pytest.mark.parametrize("space, points, pt, message", [
    (Euclidean(2), [[math.nan, 0.0]], [0.0, 0.0], "point coordinates must be finite, got [nan, 0.0]"),  # [nan]
    (Hyperbolic(2), [[0.0, 0.0], [1.0, math.inf]], [0.0, 0.0], "point coordinates must be finite, got [1.0, inf]"),
    (HalfPlane(), [[0.0, -1.0]], [0.0, 1.0], "half-plane needs y > 0, got y = -1.0"),  # [0.]
    (HalfPlane(), [[0.0, 1.0], [2.0, 0.0]], [0.0, 1.0], "half-plane needs y > 0, got y = 0.0"),
    (HalfPlane(), [[0.0, 1.0], [2.0, math.nan]], [0.0, 1.0], "point coordinates must be finite, got [2.0, nan]"),
], ids=["euclidean-nan", "hyperbolic-second-row-inf", "halfplane-below", "halfplane-second-row-on-axis",
        "halfplane-second-row-nan"])
def test_dist_to_many_checks_every_row(space, points, pt, message):
    with pytest.raises(GeometryError, match=re.escape(message)):
        space.dist_to_many(np.array(points), pt)
    with pytest.raises(GeometryError, match=re.escape(message)):
        space.pairwise_distances([pt, *points])


def test_halfplane_rejects_nonpositive_y():
    hp = HalfPlane()
    with pytest.raises(GeometryError):
        hp.distance((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(GeometryError):
        hp.distance((0.0, -1.0), (0.0, 1.0))


def test_rotsym_surface_has_no_pairwise_distances():
    surf = builtin_profile("kaimanovich")
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
    surf = builtin_profile("kaimanovich")
    assert surf.sphere_area(1.0) == pytest.approx(2 * math.pi * math.exp(0.5), rel=1e-12)


def test_sphere_area_euclidean_small_r_limit():
    # sphere_area / (vol(S^{d-1}) r^{d-1}) -> 1 as r -> 0
    for sp in (Euclidean(3), Hyperbolic(2, 1.0), Hyperbolic(3, 2.0), HalfPlane(),
               builtin_profile("kaimanovich")):
        r = 1e-6
        ratio = sp.sphere_area(r) / (unit_sphere_area(sp.dim) * r ** (sp.dim - 1))
        assert ratio == pytest.approx(1.0, abs=1e-9)
    assert Euclidean(2).sphere_area(0.0) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_log_sphere_area_below_the_float_resolution(dim):
    # exp(-2kr) rounds to 1 and log1p(-1) raised "math domain error"
    r = 1e-17
    want = math.log(unit_sphere_area(dim)) + (dim - 1) * math.log(r)
    assert Hyperbolic(dim, 2.0).log_sphere_area(r) == pytest.approx(want, rel=1e-15)
    assert Hyperbolic(2).log_sphere_area(r) == pytest.approx(-37.306, abs=1e-3)


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


def _closed_form_ball_volume(dim, k, r):
    """The closed forms that cancel to 0 at small k r."""
    if dim == 2:
        return 2.0 * math.pi * (math.cosh(k * r) - 1.0) / k ** 2
    return 2.0 * math.pi * (math.sinh(k * r) * math.cosh(k * r) - k * r) / k ** 3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1e-20, 1e-8])
def test_hyperbolic_ball_volume_at_small_k_is_the_euclidean_one(dim, k):
    # the closed forms read 0.0 at k = 1e-20, and 1283.54 and 34593.4 against the flat
    # 1281.90 and 34525.7 at k = 1e-8; the curvature moves these by (k r)^2 / 12 ~ 1e-15
    assert _closed_form_ball_volume(dim, 1e-20, 20.2) == 0.0
    assert Hyperbolic(dim, k).ball_volume(20.2) == pytest.approx(Euclidean(dim).ball_volume(20.2),
                                                                  rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_ball_volume_across_the_small_kr_cut(dim):
    for k in (0.5, 1.0, 2.0):
        # at and above the cut: the closed form, bit for bit
        for kr in (_SMALL_KR, 0.125, 0.25, 1.0):
            assert Hyperbolic(dim, k).ball_volume(kr / k) == _closed_form_ball_volume(dim, k, kr / k)
        # below it: the closed form's value, without the digits it cancels away
        for kr in (np.nextafter(_SMALL_KR, 0.0), 0.09, 0.05):
            assert Hyperbolic(dim, k).ball_volume(kr / k) == pytest.approx(
                _closed_form_ball_volume(dim, k, kr / k), rel=1e-13)


def test_rotsym_ball_volume_quadrature():
    # 2 pi int_0^r s e^{s^2/2} ds = 2 pi (e^{r^2/2} - 1)
    surf = builtin_profile("kaimanovich")
    assert surf.ball_volume(1.5) == pytest.approx(
        2 * math.pi * (math.exp(1.5 ** 2 / 2) - 1.0), rel=1e-8
    )


@pytest.mark.parametrize("label", ["euclid", "hyperbolic", "kaimanovich"])
def test_rotsym_ball_volume_equals_scipy_quad_bitwise(label):
    # ball_volume integrates by rdl's QAGS port, scipy's quad bit for bit, also
    # past the radius where sphere_area overflows (kaimanovich ~38, hyperbolic ~710)
    from scipy.integrate import quad

    surf = builtin_profile(label)
    radii = (0.5, 3.0, 40.0, 500.0, 800.0)
    with np.errstate(over="ignore"):
        for r in radii:
            want, _ = quad(surf.sphere_area, 0.0, r, epsabs=1e-10, epsrel=1e-8, limit=200)
            assert surf.ball_volume(r).hex() == want.hex(), r
        assert math.isinf(surf.sphere_area(radii[-1])) == (label != "euclid")


def test_gamma_table_is_scipys_bit_for_bit():
    # math.gamma misses scipy's Gamma(m/2) in the last bit at some m (Gamma(1.5) here);
    # m = dim + 2 <= 5 serves the Euclidean ball volumes of the catalog
    from scipy.special import gamma

    from rdl.model_spaces import _GAMMA_HALVES

    assert [v.hex() for v in _GAMMA_HALVES] == [float(gamma(m / 2)).hex() for m in range(1, 6)]


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
    surf = builtin_profile("kaimanovich")
    est = surf.volume_growth(40.0)
    assert not est.finite
    assert est.value == math.inf
    assert est.first_overflow_radius is not None


# -------------------------------------------------------------- profiles


# p' and p'' of each built-in profile, written out: (label, k, p', p'')
_PROFILE_DERIVATIVES = [
    ("euclid", None, lambda r: np.ones_like(r), lambda r: np.zeros_like(r)),
    *[("hyperbolic", k, lambda r, k=k: np.cosh(k * r), lambda r, k=k: k * np.sinh(k * r))
      for k in (0.5, 1.0, 2.0)],
    ("kaimanovich", None, lambda r: (1.0 + r ** 2) * np.exp(0.5 * r ** 2),
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
    curvature = (-k * k + 0.0 * r if label == "hyperbolic"
                 else {"euclid": 0.0 * r, "kaimanovich": -(3.0 + r ** 2)}[label])
    assert -p2(r) / p == pytest.approx(curvature, rel=1e-12)


def test_builtin_profiles_carry_k():
    assert builtin_profile("euclid").curvature == 0.0
    assert builtin_profile("hyperbolic", 0.25).curvature == 0.25
    assert builtin_profile("kaimanovich").curvature is None
    for surf in (builtin_profile("euclid"), builtin_profile("hyperbolic", 0.25), builtin_profile("kaimanovich")):
        assert type(surf) is RotSymSurface and surf.k is None  # out of the kernel catalog
    for k in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GeometryError):
            builtin_profile("hyperbolic", k)


def test_profile_smoothness_at_pole_enforced():
    bad = re.escape("profile 'bad' violates p(0)=0, p'(0)=1 ")
    with pytest.raises(GeometryError, match=bad):  # p(0) = 1
        RotSymSurface(name="bad", curvature=None, p=lambda r: np.asarray(r) + 1.0,
                      drift=lambda r: 0.5 / np.asarray(r), inv_p_sq=lambda r: 1.0 / (np.asarray(r) + 1.0) ** 2)
    with pytest.raises(GeometryError, match=bad):  # p = 2r: p'(0) = 2 p drift = 1 only for drift 1/(2r)
        RotSymSurface(name="bad", curvature=None, p=lambda r: 2.0 * np.asarray(r),
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
    spaces = [  # every kind and dimension that constructs
        Euclidean(1),
        Euclidean(2),
        Euclidean(3),
        Hyperbolic(2, 2.0),
        Hyperbolic(3, 0.37),
        HalfPlane(),
        *(builtin_profile(p) for p in ("euclid", "hyperbolic", "kaimanovich")),
    ]
    for sp in spaces:
        clone = space_from_json(json.loads(json.dumps(sp.to_json_dict())))
        assert type(clone) is type(sp)
        assert clone.label() == sp.label() and clone.to_json_dict() == sp.to_json_dict()
    rotsym_k = builtin_profile("hyperbolic", 2.0)
    assert space_from_json(rotsym_k.to_json_dict()).label() == rotsym_k.label()
    assert space_from_json({"kind": "hyperbolic", "dim": 2, "k": 1.0}).k == 1.0
    with pytest.raises(GeometryError):
        space_from_json({"kind": "torus"})


def test_rotsym_hyperbolic_k_round_trips_exactly():
    for k in (0.123456789, 1.0):
        sp = builtin_profile("hyperbolic", k)
        blob = json.loads(json.dumps(sp.to_json_dict()))
        assert blob["k"] == k
        clone = space_from_json(blob)
        assert clone.to_json_dict() == sp.to_json_dict()
        assert clone.label() == sp.label()
        assert float(clone.drift(0.7)) == float(sp.drift(0.7))


def test_rotsym_json_dicts():
    assert builtin_profile("euclid").to_json_dict() == {"kind": "rotsym", "profile": "euclid"}
    assert builtin_profile("kaimanovich").to_json_dict() == {
        "kind": "rotsym", "profile": "kaimanovich"}
    assert builtin_profile("hyperbolic", 0.5).to_json_dict() == {
        "kind": "rotsym", "profile": "hyperbolic", "k": 0.5}


def test_builtin_profile_refuses_a_k_it_does_not_read():
    # euclid and kaimanovich took any k and dropped it
    for label in ("euclid", "kaimanovich"):
        for k in (-7, 0.0, 1.0, 2.0):
            with pytest.raises(GeometryError, match=f"the {label} profile reads no k, got {k}"):
                builtin_profile(label, k)
    assert builtin_profile("hyperbolic").curvature == builtin_profile("hyperbolic", None).curvature == 1.0


@pytest.mark.parametrize("curvature", [1.0, None])
def test_rotsym_json_dict_refuses_a_surface_no_profile_rebuilds(curvature):
    # a sphere of curvature 1.0 was written as the hyperbolic profile, and one of
    # curvature None under the label 'sphere', which space_from_json refuses
    sphere = RotSymSurface(name="sphere", curvature=curvature, p=np.sin, drift=lambda r: 0.5 / np.tan(r),
                           inv_p_sq=lambda r: 1.0 / np.sin(r) ** 2)
    with pytest.raises(GeometryError, match="surface 'sphere' is no built-in profile"):
        sphere.to_json_dict()


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
    {"kind": "rotsym", "profile": "kaimanovich", "k": 5},  # loaded, and k dropped
    {"kind": "rotsym", "profile": "euclid", "k": -3},
    # these raised a bare KeyError; the error names the missing key
    {"kind": "euclidean"},
    {"kind": "hyperbolic", "k": 2.0},
    {"kind": "rotsym"},
], ids=["dim-fractional", "dim-true", "dim-string", "k-nan", "k-inf", "k-zero", "rotsym-k-nan",
        "k-true", "k-string", "rotsym-k-string", "unknown-kk", "euclidean-k", "halfplane-dim", "rotsym-label",
        "kaimanovich-k", "euclid-k", "euclidean-no-dim", "hyperbolic-no-dim", "rotsym-no-profile"])
def test_space_from_json_rejects_bad_fields(obj):
    with pytest.raises(GeometryError):
        space_from_json(obj)


def test_dimensions_without_a_kernel_are_refused(tmp_path, capsys):
    # E^4, H^1 and H^4 were built and refused later by kernel_for; no command computes on them
    from rdl.cli import EXIT_USAGE, main

    for make, kind, dim in ((Euclidean, "euclidean", 0), (Euclidean, "euclidean", 4),
                            (Hyperbolic, "hyperbolic", 1), (Hyperbolic, "hyperbolic", 4)):
        with pytest.raises(GeometryError, match=f"dimension must be .*, got {dim}$"):
            make(dim)
        with pytest.raises(GeometryError, match=f"dimension must be .*, got {dim}$"):
            space_from_json({"kind": kind, "dim": dim})
        mix = tmp_path / "mix.json"
        mix.write_text(json.dumps({"components": [{"weight": 1.0, "space": {"kind": kind, "dim": dim}}]}))
        assert main(["report", "--ensemble-file", str(mix)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"got {dim}" in err


@pytest.mark.parametrize("make", [Euclidean, Hyperbolic])
@pytest.mark.parametrize("dim", [True, False])
def test_bool_dimension_is_refused(make, dim):
    # Euclidean(True) was E^1, and its JSON "dim": true was refused by space_from_json
    with pytest.raises(GeometryError, match=f"dimension must be .*, got {dim}$"):
        make(dim)


def test_space_from_json_accepts_integral_float_dim():
    assert space_from_json({"kind": "euclidean", "dim": 3.0}).dim == 3


# At least one space of each kind in model_spaces._SPACE_KINDS; the test below fails until
# a new kind is added here.
_SPACES_OF_EVERY_KIND = [Euclidean(1), Euclidean(3), Hyperbolic(2), Hyperbolic(3, 0.5), HalfPlane(),
                         builtin_profile("euclid"), builtin_profile("kaimanovich"),
                         builtin_profile("hyperbolic", 2.0)]


@pytest.mark.parametrize("space", _SPACES_OF_EVERY_KIND, ids=lambda sp: sp.label())
def test_every_space_kind_round_trips_and_names_its_faults(space):
    kinds = model_spaces._SPACE_KINDS
    assert {sp.kind for sp in _SPACES_OF_EVERY_KIND} == set(kinds)
    kind, blob = space.kind, space.to_json_dict()
    clone = space_from_json(json.loads(json.dumps(blob)))
    assert type(clone) is type(space) and clone.to_json_dict() == blob and clone.label() == space.label()
    required, optional = kinds[kind]
    assert blob["kind"] == kind and set(required) <= set(blob) <= {"kind", *required, *optional}
    for key in required:
        without = {k: v for k, v in blob.items() if k != key}
        with pytest.raises(GeometryError, match=f"^a {kind} space is missing the key '{key}'$"):
            space_from_json(without)
        # a missing key is named before an unknown one
        with pytest.raises(GeometryError, match=f"^a {kind} space is missing the key '{key}'$"):
            space_from_json({**without, "zz": 1})
    with pytest.raises(GeometryError, match=f"^unknown key 'zz' in a {kind} space$"):
        space_from_json({**blob, "zz": 1})


@pytest.mark.parametrize("obj, message", [
    ([1], "a space is a JSON object with the keys ['kind'], got list"),
    ({"dim": 2}, "a space is missing the key 'kind'"),
    ({"kind": "torus"}, "unknown space kind 'torus'"),
    ({"kind": ["euclidean"], "dim": 2}, "unknown space kind ['euclidean']"),
    # only a hyperbolic profile reads k
    ({"kind": "rotsym", "profile": "euclid", "k": 0.0}, "unknown key 'k' in a rotsym space of profile 'euclid'"),
])
def test_space_from_json_names_a_space_it_cannot_read(obj, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        space_from_json(obj)


@pytest.mark.parametrize("space, a, b", [
    (Euclidean(2), [math.nan, 0.0], [0.0, 0.0]),  # the distance was nan
    (Hyperbolic(2), [math.nan, 0.0], [0.0, 0.0]),  # nan
    (HalfPlane(), [math.inf, 1.0], [0.0, 1.0]),  # inf
    (HalfPlane(), [0.0, math.inf], [0.0, 1.0]),
    (Euclidean(1), [0.0], [-math.inf]),
    (Hyperbolic(3, 2.0), [0.0, 0.0, 0.0], [0.0, math.inf, 0.0]),
], ids=["euclidean-nan", "hyperbolic-nan", "halfplane-x-inf", "halfplane-y-inf", "euclidean-b-inf",
        "hyperbolic-b-inf"])
def test_non_finite_coordinates_are_refused(space, a, b):
    bad = a if not np.isfinite(a).all() else b
    with pytest.raises(GeometryError, match=re.escape(f"point coordinates must be finite, got {bad}")):
        space.distance(a, b)
    with pytest.raises(GeometryError, match="must be finite"):
        space.pairwise_distances([a, b])


@pytest.mark.parametrize("space", [Euclidean(2), Hyperbolic(2), builtin_profile("kaimanovich"),
                                   HalfPlane()],
                         ids=["euclidean", "hyperbolic", "rotsym", "halfplane"])
@pytest.mark.parametrize("method", ["sphere_area", "ball_volume"])
def test_radial_geometry_rejects_a_negative_radius(space, method):
    # the message carries r itself: rotsym's ball_volume would otherwise fail
    # later, inside its quadrature, at some node between r and 0
    with pytest.raises(GeometryError, match=r"radius must be >= 0, got -1\.0$"):
        getattr(space, method)(-1.0)
    # NaN passed the guards when they were written r < 0: the calls gave NaN
    with pytest.raises(GeometryError, match=r"radius must be >= 0, got nan$"):
        getattr(space, method)(math.nan)


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_ball_volume_overflow_is_inf(dim):
    # math.cosh and math.sinh raised OverflowError past k r ~ 710
    assert Hyperbolic(dim).ball_volume(800.0) == math.inf


@pytest.mark.parametrize("dim, area", [(2, math.inf), (3, math.inf)])
def test_hyperbolic_sphere_area_overflow_is_inf(dim, area):
    # math.sinh raised OverflowError past k r ~ 710, and the power past the float range
    assert Hyperbolic(dim).sphere_area(800.0) == area


def test_hyperbolic_distance_overflow_is_an_error():
    # the law of cosines read inf - inf: the distance came back NaN, with a numpy
    # warning, which the pytest configuration turns into an error
    with pytest.raises(GeometryError, match="law of cosines overflows"):
        Hyperbolic(2).dist_to_many(np.array([[400.0, 0.0]]), [0.0, 380.0])
