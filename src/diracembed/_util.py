"""Small helpers: piecewise cubics, periodic fields and their frame table,
decimation, cumulative Simpson (whole or in blocks), windows, CSV/JSON output."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvariantDrift

# Intervals per block of a chunked quadrature, and Magnus steps per block
# of floquet.magnus_chain (rounded down to whole strides): even, so Simpson
# pairs match the one-block integral; small, so a block's temporaries stay
# a few MB.
QUAD_BLOCK = 2 ** 16


def frac(x):
    """Fractional part x - floor(x), mapping any float onto [0, 1)."""
    return x - np.floor(x)


class PiecewisePoly:
    """c[0] s^(k-1) + ... + c[k-1], s = t - x[i], on the interval x[i] <= t
    < x[i+1] (the end pieces extend past x[0] and x[-1]): scipy's PPoly
    layout, interval choice and power-sum order, so values equal its bits."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, "right") - 1, 0,
                    self.x.size - 2)
        s = t - self.x[i]
        out, z = self.c[-1, i], s
        for row in self.c[-2::-1]:
            out = out + row[i] * z
            z = z * s
        return out


def cubic_hermite(x: np.ndarray, y: np.ndarray,
                  dydx: np.ndarray) -> PiecewisePoly:
    """The cubic through (x, y) with slopes dydx, by scipy's
    CubicHermiteSpline formulas; x increasing."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return PiecewisePoly(x, np.array([t / dx, (slope - dydx[:-1]) / dx - t,
                                      dydx[:-1], y[:-1]]))


class PeriodicField:
    """f(x) = slope*x + s(frac(x)) with s periodic of period 1.

    s is the periodic cubic spline through ``values`` on the uniform
    ``grid`` from 0 to 1, or the constant ``const`` when no grid is given.
    Its slopes solve the circulant system s[i-1] + 4 s[i] + s[i+1] =
    3 (y[i+1] - y[i-1])/h (de Boor, A Practical Guide to Splines, ch. IV)
    by one FFT, and its pieces are the Hermite cubics with those slopes.
    """

    def __init__(self, slope: float = 0.0, const: float = 0.0,
                 grid: np.ndarray | None = None, values: np.ndarray | None = None):
        self.slope = float(slope)
        self.const = float(const)
        self._sp = self._dsp = None
        if grid is not None:
            vals = np.asarray(values, dtype=float).copy()
            mism = abs(vals[-1] - vals[0])
            if mism > 1e-6 * (1.0 + np.max(np.abs(vals))):
                raise InvariantDrift(
                    f"periodic data mismatch at endpoints: {mism:.3e}")
            vals[-1] = vals[0]
            n = grid.size - 1
            if grid[0] or grid[-1] != 1.0 or np.ptp(np.diff(grid)) > 1e-9 / n:
                raise ValueError("a periodic field needs a uniform grid "
                                 "on [0, 1]")
            y = vals[:-1]
            rhs = 3.0 * n * (np.roll(y, -1) - np.roll(y, 1))
            eig = 4.0 + 2.0 * np.cos(2.0 * np.pi / n * np.arange(n // 2 + 1))
            s = np.fft.irfft(np.fft.rfft(rhs) / eig, n)
            self._sp = cubic_hermite(grid, vals, np.append(s, s[0]))
            # s' as scipy's PPoly.derivative has it: c0..c2 times 3, 2, 1
            self._dsp = PiecewisePoly(grid,
                                      self._sp.c[:-1] * [[3.0], [2.0], [1.0]])

    def __call__(self, x):
        if self._sp is not None:
            return self.slope * x + self._sp(frac(x) % 1.0)
        return self.slope * np.asarray(x, dtype=float) + self.const \
            if np.ndim(x) else self.slope * x + self.const

    def deriv(self, x):
        if self._sp is not None:
            return self.slope + self._dsp(frac(x) % 1.0)
        return np.full(np.shape(x), self.slope) if np.ndim(x) else self.slope


class FrameTable:
    """(delta', u, v, Psi) of four PeriodicFields in one table lookup.

    Their cubic coefficients on the shared period ``grid`` form one flat
    (m, 16) table, row i holding c0..c3 of each field (delta's quadratic
    derivative padded with a zero c0, a constant field as [0, 0, 0, const]).
    x is a float: the lookup repeats the fields' periodic wrap, interval
    choice and power sum in pure Python (``pruefer.phase_law`` inlines it),
    so values equal the field calls bit for bit; a constant frame returns
    its constants.
    """

    def __init__(self, grid, delta: PeriodicField, u: PeriodicField,
                 v: PeriodicField, Psi: PeriodicField):
        fields, splines = (delta, u, v, Psi), (delta._dsp, u._sp, v._sp, Psi._sp)
        self.slopes = tuple(f.slope for f in fields)
        self.const = None
        if all(sp is None for sp in splines) and not any(self.slopes[1:]):
            self.const = (delta.slope, u.const, v.const, Psi.const)
            return
        C = np.zeros((4, len(grid) - 1, 4))
        for j, (f, sp) in enumerate(zip(fields, splines)):
            if sp is not None:
                C[4 - sp.c.shape[0]:, :, j] = sp.c
            elif j:  # a constant derivative column stays zero
                C[3, :, j] = f.const
        self.bp, self.m = grid.tolist(), len(grid) - 1
        self.rows = C.transpose(1, 2, 0).reshape(self.m, 16).tolist()

    def __call__(self, x: float):
        if self.const is not None:
            return self.const
        x = float(x)
        t = (x - math.floor(x)) % 1.0  # frac; % 1.0 maps 1.0 to 0.0
        # The interval of a uniform grid, corrected to bp[i] <= t < bp[i+1]
        # (bisect_right's answer); bp runs from 0 to 1 and t < 1.
        bp, i = self.bp, int(t * self.m)
        while bp[i] > t:
            i -= 1
        while bp[i + 1] <= t:
            i += 1
        s = t - bp[i]
        ss, sss = s * s, s * s * s
        (d0, d1, d2, d3, u0, u1, u2, u3, v0, v1, v2, v3, P0, P1, P2, P3), \
            (s0, s1, s2, s3) = self.rows[i], self.slopes
        return (s0 + (((d3 + d2 * s) + d1 * ss) + d0 * sss),
                s1 * x + (((u3 + u2 * s) + u1 * ss) + u0 * sss),
                s2 * x + (((v3 + v2 * s) + v1 * ss) + v0 * sss),
                s3 * x + (((P3 + P2 * s) + P1 * ss) + P0 * sss))


def decimate(n: int, stride: int) -> np.ndarray:
    """Indices 0, stride, 2*stride, ... below n, always ending at n - 1."""
    idx = np.arange(0, n, stride)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


def cumulative_simpson_uniform(f: np.ndarray, h: float, f0: float = 0.0) -> np.ndarray:
    """Cumulative integral of samples ``f`` on a uniform grid of spacing ``h``.

    Composite Simpson on even indices; odd indices use the local cubic
    (Newton three-point) rule, so the result is O(h^4) accurate at every
    grid point.  ``f0`` is the integral value at the first sample.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    out = np.empty(n)
    out[0] = f0
    if n == 1:
        return out
    if n == 2:  # single interval: trapezoid
        out[1] = f0 + 0.5 * h * (f[0] + f[1])
        return out
    npairs = (n - 1) // 2
    a = f[0 : 2 * npairs - 1 : 2]
    b = f[1 : 2 * npairs : 2]
    c = f[2 : 2 * npairs + 1 : 2]
    even = f0 + np.cumsum(h / 3.0 * (a + 4.0 * b + c))
    out[2 : 2 * npairs + 1 : 2] = even
    # odd points: integrate over [x_{2i}, x_{2i+1}] with the quadratic
    # through (2i, 2i+1, 2i+2)
    left = np.empty(npairs)
    left[0] = f0
    left[1:] = even[:-1]
    out[1 : 2 * npairs : 2] = left + h / 12.0 * (5.0 * a + 8.0 * b - c)
    if n % 2 == 0:  # trailing point after the last full pair
        out[-1] = out[-2] + h / 12.0 * (-f[-3] + 8.0 * f[-2] + 5.0 * f[-1])
    return out


def cumulative_blocks(f, lo: float, h: float, n: int):
    """Running integral of f over the grid lo + i*h, i = 0..n, in blocks.

    Yields (start, xs, F) per block of at most QUAD_BLOCK intervals: xs
    holds lo + i*h for i = start..stop and F the integral from lo.  A
    block's last sample is the next block's first, so memory stays bounded
    however long the grid.
    """
    carry, start = 0.0, 0
    while start < n:
        stop = min(start + QUAD_BLOCK, n)
        xs = lo + np.arange(start, stop + 1) * h
        F = cumulative_simpson_uniform(f(xs), h, f0=carry)
        yield start, xs, F
        carry, start = F[-1], stop


def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) blend between.

    A float stays a float: the blend takes numpy's exp on it, which gives
    the bits of the array path (math.exp need not)."""
    if isinstance(t, float):
        if not 0.0 < t < 1.0:  # NaN too, as the array path has it
            return 1.0 if t >= 1.0 else 0.0
        a, b = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
        return float(a / (a + b))
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out if out.ndim else float(out)


def taper_window(x, lo: float, hi: float, width: float):
    """C-infinity window: 0 outside (lo, hi), 1 on [lo+width, hi-width].

    A float x stays on floats, with the array path's bits: the plateau
    returns at once, the rest goes through smoothstep's float branch."""
    if isinstance(x, float):
        t1, t2 = (x - lo) / width, (hi - x) / width
        if t1 >= 1.0 and t2 >= 1.0:
            return 1.0
        return smoothstep(t1) * smoothstep(t2)
    x = np.asarray(x, dtype=float)
    return smoothstep((x - lo) / width) * smoothstep((hi - x) / width)


def taper_plateau(lo: float, hi: float, width: float) -> tuple[float, float]:
    """[p0, p1]: p0 <= x <= p1 exactly when taper_window's plateau test holds,
    each half (monotone in x) bisected from a passing float to lo (hi)."""

    def edge(passes, x_in, x_out):
        while (mid := x_in + (x_out - x_in) / 2) not in (x_in, x_out):
            x_in, x_out = (mid, x_out) if passes(mid) else (x_in, mid)
        return x_in

    return (edge(lambda x: (x - lo) / width >= 1.0,
                 max(lo + 2.0 * width, math.nextafter(lo, math.inf)), lo),
            edge(lambda x: (hi - x) / width >= 1.0,
                 min(hi - 2.0 * width, math.nextafter(hi, -math.inf)), hi))


def write_rows(fh, cols, block: int = 512) -> None:
    """CSV rows of the columns' %.17g values, one format call per block."""
    table = np.column_stack(cols)
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), block):
        rows = table[start:start + block]
        fh.write(fmt * len(rows) % tuple(rows.ravel().tolist()))


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def write_json(path: str, doc) -> None:
    """Every JSON artifact: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
