"""Reference implementations the package is checked against.

``dirac_rhs`` is the first-order system's right-hand side for the tests'
``solve_ivp`` oracles.

The phase lock as a loop is the reference the written-out kernel must
equal bit for bit.

``loop_dop853`` walks the DOP853 stages through zero-skipping (index,
coefficient) feeds, ``lock_max_step`` is its step cap by the frame's kind,
and ``phase_slope`` wraps a coupling ``gain(x, xi)``
around the frame lookup ``data.frame(x)``: one call per stage to the
slope, one to the gain and one to the frame.  Same control, same sums in
the same order, so the same nodes, slopes and nfev.

``loop_magnus`` is the plain product of Magnus steps that the blocked,
halved and scanned ``floquet.magnus_chain`` must equal to rounding.

``simpson_expressions`` is the cumulative Simpson rule as whole-array
expressions, which the in-place ``_util.cumulative_simpson_uniform`` must
equal bit for bit.
"""

import math

import numpy as np
from scipy.linalg import expm

from diracembed._util import taper_window
from diracembed.errors import StepSizeUnderflow
from diracembed.periodic_core import eval_coefficient
from diracembed.pruefer import (
    A, B, C, E3, E5, ERROR_EXPONENT, LOCK_ATOL, LOCK_RTOL, MAX_FACTOR,
    MIN_FACTOR, N_STAGES, SAFETY, rate_floor, xi_rate)


def dirac_rhs(p, q, lam, V=None):
    """Right-hand side of the system at spectral parameter lam.

    The optional decaying perturbation V(x) is added to p.  y[0] and y[1]
    may be scalars or equal-length rows (the rows of a fundamental matrix).
    """

    def rhs(x, y):
        pv = eval_coefficient(p, x)
        if V is not None:
            pv = pv + V(x)
        qv = eval_coefficient(q, x)
        return np.array([-qv * y[0] + (lam + pv) * y[1],
                         (pv - lam) * y[0] + qv * y[1]])

    return rhs


FEEDS = [[(j, a) for j, a in enumerate(row) if a] for row in A[1:] + [B]]
ERRS = [(j, e5, e3) for j, (e5, e3) in enumerate(zip(E5, E3)) if e5 or e3]


def phase_slope(data, gain):
    """zeta' = xi' - rate at the float pair (x, xi).

    A constant frame is folded into two constants, summed in the order of
    the general slope, so its bits are the same."""
    rate, k2 = xi_rate(data), 2.0 * data.k
    if data.frame.const is not None:
        d, u, v, P = data.frame.const
        c0, uv = k2 + d - rate, u - v

        def const_slope(x, xi):
            return c0 + gain(x, xi) * (uv - P * math.cos(xi))

        return const_slope

    def slope(x, xi):
        d, u, v, P = data.frame(x)
        return k2 + d - rate + gain(x, xi) * (u - v - P * math.cos(xi))

    return slope


def lock_gain(two_c, b_s, window):
    """The coupling of a lock's slope, two_c w(x) sin xi/(x - b_s), as
    ``synth.solve_xi`` built it for ``phase_slope``."""
    lo, hi, width = window

    def gain(x, xi):
        w = taper_window(x, lo, hi, width) if width > 0.0 else 1.0
        return two_c * w * math.sin(xi) / (x - b_s)

    return gain


def lock_max_step(data):
    """A phase lock's step cap: 1/rate on a constant frame, 0.5/rate on a
    periodic one."""
    per_rate = 1.0 if data.frame.const is not None else 0.5
    return per_rate / rate_floor(xi_rate(data))


def loop_dop853(slope, rate, x0, x1, xi0, max_step):
    """Accepted nodes (x, zeta), their slopes and nfev of zeta' =
    slope(x, zeta + rate*x), steps capped at max_step, as
    ``pruefer._dop853`` returns them."""
    rtol, atol = LOCK_RTOL, LOCK_ATOL
    sign, length = (1.0 if x1 > x0 else -1.0), abs(x1 - x0)
    x, z = x0, xi0 - rate * x0
    f = slope(x, z + rate * x)
    scale = atol + abs(z) * rtol
    d0, d1 = abs(z) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    x_try = x + h0 * sign
    d2 = abs(slope(x_try, z + h0 * sign * f + rate * x_try) - f) / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, length, max_step)
    xs, zs, dzs, nfev, K = [x], [z], [f], 2, [f] + [0.0] * (N_STAGES - 1)
    while sign * (x - x1) < 0.0:
        min_step = 10.0 * abs(math.nextafter(x, sign * math.inf) - x)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.")
            x_new = min(x + h_abs, x1) if sign > 0.0 else max(x - h_abs, x1)
            h = x_new - x
            h_abs = abs(h)
            nfev += N_STAGES
            try:
                for s, feed in enumerate(FEEDS, 1):
                    dz = 0.0
                    for j, a in feed:
                        dz += K[j] * a
                    if s < N_STAGES:
                        xc = x + C[s] * h
                        K[s] = slope(xc, z + dz * h + rate * xc)
                z_new = z + h * dz
                f_new = slope(x + h, z_new + rate * (x + h))
                e5 = e3 = 0.0
                for j, a5, a3 in ERRS:
                    e5 += K[j] * a5
                    e3 += K[j] * a3
                scale = atol + max(abs(z), abs(z_new)) * rtol
                e5, e3 = (e5 / scale) * (e5 / scale), (e3 / scale) * (e3 / scale)
                err = h_abs * e5 / math.sqrt(e5 + 0.01 * e3) if e5 or e3 else 0.0
            except (ArithmeticError, ValueError):
                err = math.nan
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 \
                    else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        x, z, K[0] = x_new, z_new, f_new
        xs.append(x)
        zs.append(z)
        dzs.append(f_new)
    return xs, zs, dzs, nfev


GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)


def loop_magnus(exponent, x0, x1, n):
    """Phi' = A Phi, Phi(x0) = I, at x0 + i h, i = 0..n, h = (x1 - x0)/n:
    step i's exponent (a, b, c) = exponent(x, h) at its own two Gauss
    points, exponentiated by scipy's expm and multiplied on from the left,
    one step at a time.  Leading batch axes of the exponent are kept:
    returns batch + (n + 1, 2, 2)."""
    h = (x1 - x0) / n
    Phi = np.eye(2)
    out = [Phi]
    for i in range(n):
        a, b, c = (np.asarray(e)[..., 0]
                   for e in exponent(x0 + h * (i + GAUSS)[None, :], h))
        Phi = expm(np.stack([np.stack([a, b], -1),
                             np.stack([c, -a], -1)], -2)) @ Phi
        out.append(Phi)
    return np.stack(np.broadcast_arrays(*out), axis=-3)


def simpson_expressions(f, h, f0=0.0):
    """Composite Simpson at even indices, the three-point rule forward at
    odd ones and backward at a trailing one, each as one array expression."""
    n = f.size
    out = np.empty(n)
    out[0] = f0
    if n == 1:
        return out
    if n == 2:
        out[1] = f0 + 0.5 * h * (f[0] + f[1])
        return out
    npairs = (n - 1) // 2
    a = f[0 : 2 * npairs - 1 : 2]
    b = f[1 : 2 * npairs : 2]
    c = f[2 : 2 * npairs + 1 : 2]
    even = f0 + np.cumsum(h / 3.0 * (a + 4.0 * b + c))
    out[2 : 2 * npairs + 1 : 2] = even
    left = np.concatenate(([f0], even[:-1]))
    out[1 : 2 * npairs : 2] = left + h / 12.0 * (5.0 * a + 8.0 * b - c)
    if n % 2 == 0:
        out[-1] = out[-2] + h / 12.0 * (-f[-3] + 8.0 * f[-2] + 5.0 * f[-1])
    return out
