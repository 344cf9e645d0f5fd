"""rdl's QAGS port (_quadpack) against scipy.integrate.quad, its oracle."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import rdl._quadpack as quadpack
from rdl._quadpack import QuadratureWarning, nodes, quad


def _integrands(rng, count):
    """(family, f, a, b) drawn from the seed: smooth, endpoint-singular,
    peaked and oscillatory integrands, `count` of each family.  Some peaks
    sit on a bisection point, where the two halves' error estimates tie."""
    out = []
    for _ in range(count):
        c, b = rng.uniform(0.1, 3.0), rng.uniform(0.5, 10.0)
        out.append(("smooth", lambda x, c=c: math.exp(-c * x) * math.cos(x), 0.0, b))
        p, b = rng.uniform(-0.999, -0.1), rng.uniform(0.5, 3.0)
        out.append(("singular", lambda x, p=p: x ** p * (1.0 + math.log(x) ** 2), 0.0, b))
        m, s = float(rng.choice([rng.uniform(0.0, 1.0), 0.5, 0.25])), 10.0 ** rng.uniform(-4.0, -1.0)
        out.append(("peaked", lambda x, m=m, s=s: 1.0 / ((x - m) ** 2 + s * s), 0.0, 1.0))
        w, b = rng.uniform(1.0, 100.0), rng.uniform(1.0, 40.0)
        out.append(("oscillatory", lambda x, w=w: math.sin(w * x) * math.exp(-x), 0.0, b))
    return out


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [w.message for w in caught]


def test_quadpack_equals_scipy_quad_bitwise(monkeypatch):
    # value and abserr to the bit, and a warning exactly where scipy warns;
    # the draw reaches the epsilon extrapolation (dqelg) and the limit (ier 1),
    # and on this seed ier 2, 4 and 5 as well
    elg_calls = []
    real_qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg", lambda *a: elg_calls.append(1) or real_qelg(*a))
    rng = np.random.default_rng(27)
    iers = set()
    cases = _integrands(rng, 80)
    assert len(cases) >= 300
    for family, f, a, b in cases:
        limit = int(rng.choice([7, 50, 300]))
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        epsabs, epsrel = [(tol, tol), (tol, 0.0), (0.0, tol)][rng.integers(3)]
        want, want_warned = _recorded(lambda: scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                                                         limit=limit))
        got, got_warned = _recorded(lambda: quad(lambda lo, hi: [f(x) for x in nodes(lo, hi)], a, b,
                                                 epsabs=epsabs, epsrel=epsrel, limit=limit))
        case = (family, a, b, epsabs, epsrel, limit)
        assert [v.hex() for v in got] == [v.hex() for v in want], case
        assert len(got_warned) == len(want_warned), case
        for w in got_warned:
            assert isinstance(w, QuadratureWarning), case
            iers.add(int(re.match(r"QAGS ier=(\d)", str(w)).group(1)))
    assert elg_calls and 1 in iers, iers


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
