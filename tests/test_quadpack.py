"""rdl's adaptive Gauss-Kronrod bisection (_quadpack) against
scipy.integrate.quad, its oracle, and against closed forms."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from rdl._quadpack import QuadratureWarning, nodes, quad


def _integrands(rng, count):
    """(family, f, a, b, exact) drawn from the seed: smooth, endpoint-singular,
    peaked and oscillatory integrands, `count` of each family, with their
    closed forms.  Some peaks sit on a bisection point, where the two halves'
    error estimates tie."""
    out = []
    for _ in range(count):
        c, b = rng.uniform(0.1, 3.0), rng.uniform(0.5, 10.0)
        out.append(("smooth", lambda x, c=c: math.exp(-c * x) * math.cos(x), 0.0, b,
                    (math.exp(-c * b) * (math.sin(b) - c * math.cos(b)) + c) / (1.0 + c * c)))
        p, b = rng.uniform(-0.999, -0.1), rng.uniform(0.5, 3.0)
        q, lb = p + 1.0, math.log(b)
        out.append(("singular", lambda x, p=p: x ** p * (1.0 + math.log(x) ** 2), 0.0, b,
                    b ** q * (1.0 / q + lb * lb / q - 2.0 * lb / q ** 2 + 2.0 / q ** 3)))
        m, s = float(rng.choice([rng.uniform(0.0, 1.0), 0.5, 0.25])), 10.0 ** rng.uniform(-4.0, -1.0)
        out.append(("peaked", lambda x, m=m, s=s: 1.0 / ((x - m) ** 2 + s * s), 0.0, 1.0,
                    (math.atan((1.0 - m) / s) + math.atan(m / s)) / s))
        w, b = rng.uniform(1.0, 100.0), rng.uniform(1.0, 40.0)
        out.append(("oscillatory", lambda x, w=w: math.sin(w * x) * math.exp(-x), 0.0, b,
                    (w - math.exp(-b) * (math.sin(w * b) + w * math.cos(w * b))) / (1.0 + w * w)))
    return out


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [w.message for w in caught]


def test_quadpack_equals_scipy_on_smooth_integrands_and_meets_the_tolerance_elsewhere():
    # smooth integrands: scipy's value, abserr and warnings to the bit, as on
    # every integral rdl computes.  Singular, peaked and oscillatory ones,
    # where scipy may take its epsilon-extrapolated value: every result that
    # does not warn lies within max(epsabs, epsrel |I|) of the closed form I
    # (not of abserr: errsum's running update reads -5.9e-11 on one peaked
    # case).  The draw reaches ier 1 and 2.
    rng = np.random.default_rng(27)
    iers, smooth = set(), 0
    for family, f, a, b, exact in _integrands(rng, 80):
        limit = int(rng.choice([7, 50, 300]))
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        epsabs, epsrel = [(tol, tol), (tol, 0.0), (0.0, tol)][rng.integers(3)]
        got, got_warned = _recorded(lambda: quad(lambda lo, hi: [f(x) for x in nodes(lo, hi)], a, b,
                                                 epsabs=epsabs, epsrel=epsrel, limit=limit))
        case = (family, a, b, epsabs, epsrel, limit)
        for w in got_warned:
            assert isinstance(w, QuadratureWarning), case
            iers.add(int(re.match(r"QAGS ier=(\d)", str(w)).group(1)))
        if family == "smooth":
            smooth += 1
            want, want_warned = _recorded(lambda: scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                                                             limit=limit))
            assert [v.hex() for v in got] == [v.hex() for v in want], case
            assert len(got_warned) == len(want_warned), case
        elif not got_warned:
            assert abs(got[0] - exact) <= max(epsabs, epsrel * abs(exact)), case
    assert smooth == 80 and iers == {1, 2}, iers


def test_quadpack_abserr_is_never_negative():
    # errsum's running update (errsum + erro12 - errmax) cancelled below 0 on a
    # peaked case of the seed-27 draw (epsabs 2.587e-10, epsrel 0, limit 50):
    # abserr read -5.94e-11 (scipy -6.30e-11) where the true error is 2.0e-11
    rng = np.random.default_rng(27)
    for family, f, a, b, exact in _integrands(rng, 80):
        limit = int(rng.choice([7, 50, 300]))
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        epsabs, epsrel = [(tol, tol), (tol, 0.0), (0.0, tol)][rng.integers(3)]
        (value, abserr), _ = _recorded(lambda: quad(lambda lo, hi: [f(x) for x in nodes(lo, hi)], a, b,
                                                    epsabs=epsabs, epsrel=epsrel, limit=limit))
        assert abserr >= 0.0, (family, epsabs, epsrel, limit, abserr, value - exact)


def test_quadpack_bisects_tied_panels_in_dqpsrts_order():
    # a peak on the bisection point 1/4 of [0, 1/2]: the halves' error estimates
    # tie, and picking the first largest (max over the panels) in place of
    # dqpsrt's insertion order moves the sum off scipy's bits
    def f(x):
        return 1.0 / ((x - 0.25) ** 2 + 0.03 ** 2)

    got = quad(lambda a, b: [f(x) for x in nodes(a, b)], 0.0, 1.0, epsabs=1.49e-8, epsrel=1.49e-8, limit=50)
    assert [v.hex() for v in got] == [v.hex() for v in scipy_quad(f, 0.0, 1.0, limit=50)]


def test_quadpack_warns_ier_3_where_a_panel_is_too_small_to_bisect():
    # 1/|x - 1/3| is not integrable: the bisection closes in on 1/3 until a
    # panel is about 100 ulps wide, and gives up as scipy does, to the bit
    def f(x):
        return 0.0 if x == 1.0 / 3.0 else 1.0 / abs(x - 1.0 / 3.0)

    with pytest.warns(QuadratureWarning, match="ier=3: extremely bad integrand behaviour"):
        got = quad(lambda a, b: [f(x) for x in nodes(a, b)], 0.0, 1.0, epsabs=1.49e-8, epsrel=1.49e-8,
                   limit=50)
    with pytest.warns(Warning, match="Extremely bad integrand behavior") as record:
        want = scipy_quad(f, 0.0, 1.0, limit=50)
    assert type(record[0].message).__name__ == "IntegrationWarning"
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_quadpack_warns_where_scipy_warns():
    # a peak that three panels cannot resolve: QAGS gives up at the limit
    def f(x):
        return 1.0 / ((x - 0.3) ** 2 + 1e-6)

    with pytest.warns(QuadratureWarning, match="ier=1: the maximum number of subdivisions"):
        got = quad(lambda a, b: [f(x) for x in nodes(a, b)], 0.0, 1.0, epsabs=1.49e-8, epsrel=1.49e-8,
                   limit=3)
    with pytest.warns(Warning, match="maximum number of subdivisions") as record:
        want = scipy_quad(f, 0.0, 1.0, limit=3)
    assert type(record[0].message).__name__ == "IntegrationWarning"
    assert got == want
    assert issubclass(QuadratureWarning, RuntimeWarning)  # the suite's error::RuntimeWarning filter
