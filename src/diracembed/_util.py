"""Small helpers: piecewise cubics, periodic fields and their frame table,
decimation, cumulative Simpson (whole or in blocks), windows, CSV/JSON output,
the JSON number test, and the two half-lines run side by side."""

from __future__ import annotations

import json
import math
import numbers
import os
import sys

import numpy as np

from .errors import InvariantDrift

# Intervals per block of a chunked quadrature, and Magnus steps per block
# of floquet.magnus_chain (rounded down to whole strides): even, so Simpson
# pairs match the one-block integral; small, so a block's temporaries stay
# a few MB.
QUAD_BLOCK = 2 ** 16
# both_sides forks only on Linux, where fork is the default start method and
# numpy's OpenBLAS stops its threads across a fork; elsewhere the two sides
# run in this process, one after the other.
FORK_SIDES = sys.platform.startswith("linux")


def is_number(val) -> bool:
    """A JSON number: a real, and not a bool (JSON's true and false)."""
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


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
        self._sp = None
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

    def __call__(self, x):
        if self._sp is not None:
            return self.slope * x + self._sp(frac(x) % 1.0)
        return self.slope * np.asarray(x, dtype=float) + self.const \
            if np.ndim(x) else self.slope * x + self.const


class FrameTable:
    """(delta', u, v, Psi) of four PeriodicFields in one table lookup.

    Only delta winds (``slope``).  Row i of the table on the shared period
    ``grid`` holds the 15 coefficients the lookup reads: delta's quadratic
    derivative, then c0..c3 of u, v and Psi (a constant field as (0, 0, 0,
    const)).  x is a float: the lookup repeats the fields' periodic wrap,
    interval choice and power sum in pure Python (``pruefer.phase_law``
    inlines it), so values equal the field calls, and delta' scipy's
    PPoly.derivative, bit for bit; a constant frame returns its constants.
    """

    def __init__(self, grid, delta: PeriodicField, u: PeriodicField,
                 v: PeriodicField, Psi: PeriodicField):
        if u.slope or v.slope or Psi.slope:
            raise ValueError("only delta may wind in a frame table")
        self.slope, self.const = delta.slope, None
        if all(f._sp is None for f in (delta, u, v, Psi)):
            self.const = (delta.slope, u.const, v.const, Psi.const)
            return
        self.bp, self.m = grid.tolist(), len(grid) - 1
        C = np.zeros((15, self.m))
        if delta._sp is not None:  # c0..c2 times 3, 2, 1; a constant stays 0
            C[:3] = delta._sp.c[:-1] * [[3.0], [2.0], [1.0]]
        for j, f in zip((3, 7, 11), (u, v, Psi)):
            C[j:j + 4] = [[0.0]] * 3 + [[f.const]] if f._sp is None else f._sp.c
        self.rows = list(map(tuple, C.T.tolist()))

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
        d1, d2, d3, u0, u1, u2, u3, v0, v1, v2, v3, P0, P1, P2, P3 = self.rows[i]
        return (self.slope + ((d3 + d2 * s) + d1 * ss),
                ((u3 + u2 * s) + u1 * ss) + u0 * sss,
                ((v3 + v2 * s) + v1 * ss) + v0 * sss,
                ((P3 + P2 * s) + P1 * ss) + P0 * sss)


def decimate(n: int, stride: int) -> np.ndarray:
    """Indices 0, stride, 2*stride, ... below n, always ending at n - 1."""
    idx = np.arange(0, n, stride)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


# Up to a constant, cumulative_simpson_uniform's F_i exceeds the integral by
# h^4 f'''(x_i) times these: at an even sample (Simpson's rule), an odd
# one (the three-point rule forward) and a trailing one (backward).
SIMPSON_BIAS = (1.0 / 180.0, -13.0 / 360.0, 17.0 / 360.0)


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
    # In place in out, each sum and product on the same operands as the
    # expressions f0 + cumsum(h/3 (a + 4b + c)) and left + h/12 (5a + 8b - c),
    # so the values are their bits (tests/reference.py keeps them).
    even = out[2 : 2 * npairs + 1 : 2]
    np.multiply(b, 4.0, out=even)
    even += a
    even += c
    even *= h / 3.0
    np.cumsum(even, out=even)
    even += f0
    # odd points: integrate over [x_{2i}, x_{2i+1}] with the quadratic
    # through (2i, 2i+1, 2i+2)
    odd = out[1 : 2 * npairs : 2]
    np.multiply(b, 8.0, out=odd)
    odd += 5.0 * a
    odd -= c
    odd *= h / 12.0
    odd[0] += f0
    odd[1:] += even[:-1]
    if n % 2 == 0:  # trailing point after the last full pair
        out[-1] = out[-2] + h / 12.0 * (-f[-3] + 8.0 * f[-2] + 5.0 * f[-1])
    return out


def cumulative_blocks(f, lo: float, h: float, n: int):
    """Running integral of f over the grid lo + i*h, i = 0..n, in blocks.

    Yields (start, fs, F) per block of at most QUAD_BLOCK intervals: fs
    holds f at lo + i*h for i = start..stop and F the integral from lo.  A
    block's last sample is the next block's first, so memory stays bounded
    however long the grid.
    """
    carry, start = 0.0, 0
    while start < n:
        stop = min(start + QUAD_BLOCK, n)
        fs = f(lo + np.arange(start, stop + 1) * h)
        F = cumulative_simpson_uniform(fs, h, f0=carry)
        yield start, fs, F
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
    """C-infinity window: 0 outside (lo, hi), 1 on [lo+width, hi-width]; a
    float x stays on smoothstep's float branch, with the array path's bits."""
    return smoothstep((x - lo) / width) * smoothstep((hi - x) / width)


def csv_blocks(cols, block: int = 512):
    """CSV rows of the columns' %.17g values, as text, one format call per
    block of rows: the bytes of formatting each value alone.  Each block's
    text is yielded as it is made, so a writer holds one block at a time."""
    table = np.column_stack(cols)
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), block):
        rows = table[start:start + block]
        yield fmt * len(rows) % tuple(rows.ravel().tolist())


def write_json(path: str, doc) -> None:
    """Every JSON artifact: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def both_sides(fn):
    """(fn(1), fn(-1)): the plus side in a forked child, the minus side here.

    The half-lines share no state, so the child computes fn(1) while this
    process computes fn(-1).  The child pickles its value, or the exception
    it raised, into a pipe and ends by os._exit, so it runs no exit handler
    and flushes no stdio buffer it inherited.  The outcome is the one-process
    run's, fn(1) first: an exception from fn(1) is raised ahead of one from
    fn(-1).  The child is always reaped, and killed first when this process
    is interrupted.  Without FORK_SIDES both sides run here.
    """
    if not FORK_SIDES:
        return fn(1), fn(-1)
    import pickle  # not at import: only the two-sided commands need it

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                out = fn(1), None
            except Exception as exc:
                out = None, exc
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)  # all or nothing
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            try:
                minus, minus_exc = fn(-1), None
            except Exception as exc:
                minus, minus_exc = None, exc
            try:
                plus, plus_exc = pickle.load(pipe)
            except EOFError:  # the child died, or could not pickle its outcome
                plus, plus_exc = None, RuntimeError(
                    "the plus side's process ended without an outcome")
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if plus_exc is not None:
        raise plus_exc
    if minus_exc is not None:
        raise minus_exc
    return plus, minus
