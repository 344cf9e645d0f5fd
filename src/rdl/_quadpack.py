"""QUADPACK's QAGS (Piessens et al., QUADPACK, 1983): dqagse with its 21-point
Gauss-Kronrod rule dqk21, its error-list sort dqpsrt and Wynn's epsilon
algorithm dqelg, ported line by line.

Every float operation is QUADPACK's, in QUADPACK's order, so on a finite
interval a < b `quad` returns the value and error estimate of
scipy.integrate.quad bit for bit; the tests compare the two on seeded
integrands.  The arrays keep QUADPACK's 1-based indices (slot 0 unused).

The integrand comes a panel at a time: `panel(a, b)` returns the 21 values
of dqk21 on [a, b] in the order dqk21 reads them, the centre first, then
centre -/+ half-length * xgk(j) for j = 2, 4, ..., 10 and j = 1, 3, ..., 9
(`nodes(a, b)` lists those points).  A caller can so read the integrand of
a whole panel in one array call.
"""

from __future__ import annotations

import math
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
_OFLOW = sys.float_info.max       # d1mach(2)
_LIMEXP = 50                      # dqelg's largest epsilon table

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error is detected, which prevents the requested tolerance from "
       "being achieved; the error may be underestimated",
    3: "extremely bad integrand behaviour occurs at some points of the integration interval",
    4: "the algorithm does not converge: roundoff error is detected in the extrapolation "
       "table, and the result is the best which can be obtained",
    5: "the integral is probably divergent, or slowly convergent",
}


class QuadratureWarning(RuntimeWarning):
    """QAGS gave up (ier 1-5); the message is QUADPACK's."""


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


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep the head of iord sorted by decreasing elist after a
    bisection; returns the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
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
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: extrapolate epstab[1..n] by the epsilon algorithm; returns
    (n, result, abserr, nres) and updates epstab and res3la in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _divide(x, y):
    """x / y, with C's inf or nan where y is 0 (the divergence test reads no sign)."""
    if y != 0.0:
        return x / y
    return math.inf if x == x and x != 0.0 else math.nan


def quad(panel, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(value, abserr) of the integral over [a, b], a <= b, by dqagse, reading
    the integrand a panel at a time (see the module docstring).  Warns
    QuadratureWarning where QAGS gives up (ier 1-5); invalid tolerances or
    limit raise ValueError."""
    if a == b:
        return 0.0, 0.0
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError(f"invalid QAGS input: epsabs={epsabs}, epsrel={epsrel}, limit={limit}")
    ier = 0
    result, abserr, defabs, resabs = _qk21(panel, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _done(result, abserr, ier, limit)

    alist, blist = [0.0, a] + [0.0] * limit, [0.0, b] + [0.0] * limit
    rlist, elist = [0.0, result] + [0.0] * limit, [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    rlist2 = [0.0] * (_LIMEXP + 3)
    rlist2[1] = result
    res3la = [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False  # leave by QUADPACK's label 115: sum the panels
    for last in range(2, limit + 1):
        # bisect the panel with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(panel, a1, b1)
        area2, error2, resabs, defab2 = _qk21(panel, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the panel to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest panel has the largest error: bisect the larger
            # panels first, extrapolate when none is left
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest panel
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    divergence_test = False  # QUADPACK's label 110
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
                divergence_test = not summed
            elif abserr > errsum:
                summed = True
            else:
                divergence_test = area != 0.0
    if divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        ratio = _divide(result, area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return _done(result, abserr, ier - 1 if ier > 2 else ier, limit)


def _done(result, abserr, ier, limit):
    if ier:
        warnings.warn(QuadratureWarning(f"QAGS ier={ier}: " + _MESSAGES[ier].format(limit=limit)),
                      stacklevel=3)
    return result, abserr
