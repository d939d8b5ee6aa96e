"""One-dimensional numerics: bounded Brent minimisation and PCHIP.

Both are ports of scipy's routines, kept to scipy's order of operations
so that their results are bit for bit scipy's: minimize_bounded is
`scipy.optimize.minimize_scalar(method="bounded")` (Brent 1973; Forsythe,
Malcolm & Moler 1977, fmin), and pchip is
`scipy.interpolate.PchipInterpolator(x, y, extrapolate=True)` evaluated
at given points (Fritsch & Butland 1984; Moler 2004, sec. 3.6). Porting
them keeps scipy.optimize and scipy.interpolate, and the memory and
import time they cost, out of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MESSAGES = {
    0: "Solution found.",
    1: "Maximum number of function calls reached.",
    2: "NaN result encountered.",
}


@dataclass(frozen=True)
class BoundedMinimum:
    """Result of minimize_bounded: the minimiser x, fun = f(x), the number
    of evaluations, and status 0 (converged), 1 (evaluation cap reached)
    or 2 (a NaN was met)."""

    x: float
    fun: float
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0

    @property
    def message(self) -> str:
        return _MESSAGES[self.status]


def minimize_bounded(func, bounds, xatol: float = 1e-5, maxiter: int = 500) -> BoundedMinimum:
    """Minimiser of func on [bounds[0], bounds[1]] by golden-section and
    parabolic steps, to sqrt(2.2e-16) |x| + xatol / 3, in at most maxiter
    evaluations."""
    a, b = bounds
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    status = 0

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # Parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            status = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        status = 2
    return BoundedMinimum(x=xf, fun=fx, nfev=num, status=status)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, set to 0 where its sign
    differs from the end interval's and limited to 3 m0 where the data
    turn (scipy's PchipInterpolator._edge_case)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.0 * np.abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y, at) -> np.ndarray:
    """Values at `at` of the monotone piecewise-cubic Hermite interpolant
    of (x, y), x strictly increasing, extrapolated from the end intervals.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h = np.diff(x)
    m = (y[1:] - y[:-1]) / h
    if y.size == 2:
        d = np.array([m[0], m[0]])
    else:
        # Interior knots: the weighted harmonic mean of the two slopes,
        # or 0 where they differ in sign or either is 0.
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])

    # Power-basis coefficients of each interval's cubic (scipy's
    # CubicHermiteSpline), summed term by term as PPoly evaluates them.
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    at = np.asarray(at, dtype=np.float64)
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    s = at - x[i]
    s2 = s * s
    return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)
