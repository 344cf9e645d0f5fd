"""Adaptive 21-point Gauss-Kronrod bisection: the loop of QUADPACK's dqagse
(Piessens et al., QUADPACK, 1983) with its rule dqk21 and its error-list
sort dqpsrt, without dqagse's epsilon extrapolation (Wynn's algorithm, dqelg).

The loop bisects the panel with the largest error estimate until the summed
estimates meet max(epsabs, epsrel |I|), and returns the sum of the panels.
Its error estimate is QUADPACK's running sum errsum, except where that
update cancels below 0 (scipy returns it negative): there it is the
panels' estimates summed afresh in index order.
Each float operation is QUADPACK's, in QUADPACK's order, so on a finite
interval a < b `quad` returns scipy.integrate.quad's value and error estimate
bit for bit wherever the extrapolation would not decide the result or the
panel bisected next, and errsum ends >= 0.  That includes every integral rdl computes; the tests
compare the two.  Where scipy may take the extrapolated value (endpoint
singularities, sharp peaks, fast oscillation) the sum of the panels meets
the tolerance or warns.  The arrays keep QUADPACK's 1-based indices.

The integrand comes a panel at a time: `panel(a, b)` returns the 21 values
of dqk21 on [a, b] in the order dqk21 reads them, the centre first, then
centre -/+ half-length * xgk(j) for j = 2, 4, ..., 10 and j = 1, 3, ..., 9
(`nodes(a, b)` lists those points).  A caller can so read the integrand of
a whole panel in one array call.
"""

from __future__ import annotations

import sys
import warnings

from ._gauss_legendre import GAUSS_10_WG, KRONROD_21, KRONROD_21_WGK

__all__ = ["QuadratureWarning", "XGK", "nodes", "quad"]

XGK = tuple(float.fromhex(v) for v in KRONROD_21.split())
_WGK = tuple(float.fromhex(v) for v in KRONROD_21_WGK.split())
_WG = tuple(float.fromhex(v) for v in GAUSS_10_WG.split())
_VISITED = XGK[1::2] + XGK[0::2]  # xgk(2), xgk(4), ..., xgk(10), xgk(1), ..., xgk(9)
_WGK_EVEN, _WGK_ODD, _WGK_CENTRE = _WGK[1:10:2], _WGK[0:10:2], _WGK[10]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min       # d1mach(1)

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error is detected, which prevents the requested tolerance from "
       "being achieved; the error may be underestimated",
    3: "extremely bad integrand behaviour occurs at some points of the integration interval",
}


class QuadratureWarning(RuntimeWarning):
    """The bisection gave up (QUADPACK's ier 1-3); the message is QUADPACK's."""


def nodes(a: float, b: float) -> list:
    """The 21 points at which dqk21 reads the integrand on [a, b], in its order."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    out = [centr]
    for x in _VISITED:
        absc = hlgth * x
        out += (centr - absc, centr + absc)
    return out


def _qk21(panel, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    hlgth = 0.5 * (b - a)
    fv = panel(a, b)
    fc = fv[0]
    gauss1, gauss2, kron1, kron2 = fv[1:11:2], fv[2:11:2], fv[11::2], fv[12::2]
    resg = 0.0
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    for wg, wk, f1, f2 in zip(_WG, _WGK_EVEN, gauss1, gauss2):
        fsum = f1 + f2
        resg += wg * fsum
        resk += wk * fsum
        resabs += wk * (abs(f1) + abs(f2))
    for wk, f1, f2 in zip(_WGK_ODD, kron1, kron2):
        fsum = f1 + f2
        resk += wk * fsum
        resabs += wk * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wo, we, k1, k2, g1, g2 in zip(_WGK_ODD, _WGK_EVEN, kron1, kron2, gauss1, gauss2):
        resasc += wo * (abs(k1 - reskh) + abs(k2 - reskh))
        resasc += we * (abs(g1 - reskh) + abs(g2 - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord):
    """dqpsrt at nrmax = 1: keep the head of iord sorted by decreasing elist
    after a bisection, in dqpsrt's insertion order (it decides between equal
    estimates); returns the next (maxerr, errmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(2, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[1]
    return maxerr, elist[maxerr]


def quad(panel, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(value, abserr) of the integral over [a, b], a <= b, by dqagse's
    bisection, reading the integrand a panel at a time (see the module
    docstring).  Warns QuadratureWarning where the bisection gives up
    (ier 1-3); invalid tolerances or limit raise ValueError."""
    if a == b:
        return 0.0, 0.0
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError(f"invalid QAGS input: epsabs={epsabs}, epsrel={epsrel}, limit={limit}")
    ier = 0
    result, abserr, defabs, resabs = _qk21(panel, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _done(result, abserr, ier, limit)

    alist, blist = [0.0, a] + [0.0] * limit, [0.0, b] + [0.0] * limit
    rlist, elist = [0.0, result] + [0.0] * limit, [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    iroff1 = iroff3 = 0
    for last in range(2, limit + 1):
        # bisect the panel with the largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        area1, error1, _, defab1 = _qk21(panel, a1, b1)
        area2, error2, _, defab2 = _qk21(panel, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 >= 10 or iroff3 >= 20:
            ier = 2
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 3  # a panel too small to bisect: dqagse's ier 4, which it reports as 3
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax = _qpsrt(limit, last, maxerr, elist, iord)
        if errsum <= errbnd or ier != 0:
            break
    result = 0.0
    for k in range(1, last + 1):
        result += rlist[k]
    if errsum < 0.0:  # the running update cancelled below 0: sum the estimates afresh
        errsum = 0.0
        for k in range(1, last + 1):
            errsum += elist[k]
    return _done(result, errsum, ier, limit)


def _done(result, abserr, ier, limit):
    if ier:
        warnings.warn(QuadratureWarning(f"QAGS ier={ier}: " + _MESSAGES[ier].format(limit=limit)),
                      stacklevel=3)
    return result, abserr
