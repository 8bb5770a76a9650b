"""Coefficients, the first-order system, the Magnus propagator, helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import dirac_rhs
from scipy.integrate import solve_ivp

from diracembed.floquet import _cell_exponents, integrate, monodromy
from diracembed.periodic_core import PeriodicCoefficient, eval_coefficient
from diracembed import _util
from diracembed._util import (
    cumulative_blocks,
    cumulative_simpson_uniform,
    fit_line,
    frac,
    smoothstep,
    taper_window,
)

RNG = np.random.default_rng(20240711)


# ---------------------------------------------------------------------------
# PeriodicCoefficient


def test_constant_series_value_is_half_a0():
    c = PeriodicCoefficient(a0=3.0)
    xs = np.linspace(-2.0, 2.0, 17)
    assert np.allclose(eval_coefficient(c, xs), 1.5)
    assert eval_coefficient(c, 0.3) == pytest.approx(1.5)


def test_fourier_modes_evaluate_correctly():
    c = PeriodicCoefficient(a0=1.0, cos=(0.5, -0.25), sin=(0.0, 2.0))
    xs = RNG.uniform(-3.0, 3.0, 64)
    expect = (0.5 + 0.5 * np.cos(2 * np.pi * xs) - 0.25 * np.cos(4 * np.pi * xs)
              + 2.0 * np.sin(4 * np.pi * xs))
    assert np.allclose(eval_coefficient(c, xs), expect, atol=1e-14)


def test_coefficient_periodicity():
    c = PeriodicCoefficient(a0=0.2, cos=(0.3,), sin=(-0.1, 0.05))
    xs = RNG.uniform(0.0, 1.0, 32)
    assert np.allclose(eval_coefficient(c, xs),
                       eval_coefficient(c, xs + 7.0), atol=1e-12)


def test_eval_coefficient_scalar_path_matches_array_path():
    c = PeriodicCoefficient(a0=0.4, cos=(0.3, 0.0, -0.2), sin=(0.1, 0.05))
    xs = np.concatenate([RNG.uniform(-1e4, 1e4, 2000), np.linspace(0.0, 1.0, 101),
                         np.arange(-5.0, 6.0), [1.0 - 1e-17, -1e-300, -5e-17]])
    for x, ref in zip(xs, eval_coefficient(c, xs)):
        for v in (eval_coefficient(c, x), eval_coefficient(c, float(x))):
            assert type(v) is float and v == ref


def test_is_constant():
    assert PeriodicCoefficient(a0=4.0).is_constant
    assert PeriodicCoefficient(a0=4.0, cos=(0.0,)).is_constant
    assert not PeriodicCoefficient(cos=(0.1,)).is_constant


def test_coefficient_dict_round_trip():
    c = PeriodicCoefficient(a0=0.7, cos=(0.1, 0.2), sin=(-0.3,))
    assert PeriodicCoefficient.from_dict(c.to_dict()) == c


def test_coefficient_rejects_non_finite():
    with pytest.raises(ValueError):
        PeriodicCoefficient(a0=math.inf)
    with pytest.raises(ValueError):
        PeriodicCoefficient(cos=(math.nan,))


# ---------------------------------------------------------------------------
# system right-hand sides


def test_free_flow_is_clockwise_rotation():
    # The Magnus propagator on [0, 0.6], and the system's own rotation.
    lam = 1.0
    p = q = PeriodicCoefficient()
    y0 = np.array([1.0, 0.5])
    traj = integrate(lambda x, h: [e0 + lam * e1 for e0, e1 in
                                   _cell_exponents(p, q, x, h)], 0.0, 0.6, 64)
    assert traj.nfev == 128 and traj.xs[-1] == pytest.approx(0.6, abs=1e-15)
    z = (y0[0] + 1j * y0[1]) * np.exp(-1j * lam * 0.6)
    assert traj.ys[-1] @ y0 == pytest.approx([z.real, z.imag], abs=1e-12)
    assert dirac_rhs(p, q, lam)(0.3, y0) == pytest.approx(
        [lam * y0[1], -lam * y0[0]], abs=1e-15)


def test_perturbed_rhs_shifts_p_by_V():
    p = PeriodicCoefficient(a0=0.4, cos=(0.3,))
    q = PeriodicCoefficient(sin=(0.2,))
    lam = 1.7

    def V(x):
        return 0.05 * np.sin(3.0 * x)

    shifted = dirac_rhs(p, q, lam, V)
    base = dirac_rhs(p, q, lam)
    for x in RNG.uniform(0.0, 10.0, 16):
        y = RNG.standard_normal(2)
        fs = np.asarray(shifted(x, y))
        fb = np.asarray(base(x, y))
        # V enters exactly like p: dy1 += V*y2, dy2 += V*y1.
        assert fs[0] - fb[0] == pytest.approx(V(x) * y[1], abs=1e-14)
        assert fs[1] - fb[1] == pytest.approx(V(x) * y[0], abs=1e-14)


def test_wronskian_is_conserved():
    p = PeriodicCoefficient(a0=0.5, cos=(0.2,), sin=(0.1,))
    q = PeriodicCoefficient(a0=-0.3, cos=(0.25,))
    rhs = dirac_rhs(p, q, 1.3)
    ya, yb = (solve_ivp(rhs, (0.0, 5.0), y0, method="DOP853", rtol=1e-10,
                        atol=1e-12, t_eval=np.linspace(0.0, 5.0, 21)).y
              for y0 in ([1.0, 0.0], [0.0, 1.0]))
    w = ya[0] * yb[1] - ya[1] * yb[0]
    assert np.max(np.abs(w - 1.0)) < 1e-9


def test_monodromy_has_unit_determinant():
    p = PeriodicCoefficient(a0=0.4, cos=(0.3,), sin=(0.1,))
    q = PeriodicCoefficient(a0=-0.2, cos=(0.15,))
    for lam in (0.4, 1.1, 2.3):
        m = monodromy(p, q, lam)
        assert np.linalg.det(m.matrix) == pytest.approx(1.0, abs=1e-9)


def test_free_monodromy_trace():
    p = q = PeriodicCoefficient()
    for lam in (0.3, 1.0, 2.5):
        assert monodromy(p, q, lam).trace == pytest.approx(2.0 * np.cos(lam),
                                                           abs=1e-10)


# ---------------------------------------------------------------------------
# numerical helpers


def test_frac_maps_to_unit_interval():
    assert frac(1.25) == pytest.approx(0.25)
    assert frac(-0.25) == pytest.approx(0.75)
    xs = RNG.uniform(-20.0, 20.0, 100)
    f = frac(xs)
    assert np.all((0.0 <= f) & (f < 1.0))


def test_cumulative_simpson_exact_on_quadratics():
    h = 0.1
    xs = np.arange(41) * h
    f = -2.0 * xs**2 + xs - 5.0
    F_true = -(2.0 / 3.0) * xs**3 + 0.5 * xs**2 - 5.0 * xs
    assert np.max(np.abs(cumulative_simpson_uniform(f, h) - F_true)) < 1e-11
    # cubics are exact at the composite-Simpson (even) points
    g = xs**3
    G = cumulative_simpson_uniform(g, h)
    assert np.max(np.abs(G[::2] - 0.25 * xs[::2] ** 4)) < 1e-11


COEF = st.floats(-10.0, 10.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(3, 200), h=st.floats(1e-3, 1.0),
       c=st.tuples(COEF, COEF, COEF, COEF))
def test_cumulative_simpson_quadratics_everywhere_cubics_at_even(n, h, c):
    c0, c1, c2, c3 = c
    t = np.arange(n) * h

    def rule_error(f, F, Fabs):
        err = cumulative_simpson_uniform(f, h) - F
        return err, 1e-12 * (1.0 + Fabs)  # rounding, relative to the sum of |f|

    quad = c0 + c1 * t + c2 * t**2
    err, tol = rule_error(quad, c0 * t + c1 * t**2 / 2 + c2 * t**3 / 3,
                          abs(c0) * t + abs(c1) * t**2 / 2 + abs(c2) * t**3 / 3)
    assert np.all(np.abs(err) <= tol)
    # a cubic is missed only at odd indices, by c3 h^4/4: the local
    # quadratic there leaves out c3 (t - t0)(t - t1)(t - t2)
    err, tol = rule_error(quad + c3 * t**3, c0 * t + c1 * t**2 / 2 + c2 * t**3 / 3
                          + c3 * t**4 / 4,
                          abs(c0) * t + abs(c1) * t**2 / 2 + abs(c2) * t**3 / 3
                          + abs(c3) * t**4 / 4)
    assert np.all(np.abs(err[::2]) <= tol[::2])
    miss = np.full(err[1::2].shape, -c3 * h**4 / 4)
    if n % 2 == 0:  # the trailing point takes the last interval of its triple
        miss[-1] = -miss[-1]
    assert np.all(np.abs(err[1::2] - miss) <= tol[1::2])


def test_cumulative_simpson_fourth_order_on_sin():
    errs = []
    for n in (200, 400):
        h = 2.0 * np.pi / n
        xs = np.arange(n + 1) * h
        F = cumulative_simpson_uniform(np.sin(xs), h)
        errs.append(np.max(np.abs(F - (1.0 - np.cos(xs)))))
    assert errs[0] / errs[1] > 12.0  # ~16x for a fourth-order rule


def test_cumulative_simpson_offset_and_small_sizes():
    out = cumulative_simpson_uniform(np.array([2.0]), 0.5, f0=7.0)
    assert out.tolist() == [7.0]
    out = cumulative_simpson_uniform(np.array([1.0, 3.0]), 0.5, f0=1.0)
    assert out[1] == pytest.approx(1.0 + 0.5 * 0.5 * 4.0)
    f = np.cos(np.arange(10) * 0.2)
    shifted = cumulative_simpson_uniform(f, 0.2, f0=3.0)
    plain = cumulative_simpson_uniform(f, 0.2)
    assert np.allclose(shifted, plain + 3.0, atol=1e-14)


@pytest.mark.parametrize("block", [2, 3, 7])
def test_cumulative_blocks_exact_on_quadratics_across_seams(monkeypatch,
                                                            block):
    # n = 44 leaves no one-interval block, which would fall back to the
    # trapezoid rule.
    monkeypatch.setattr(_util, "QUAD_BLOCK", block)
    lo, h, n = -1.3, 0.1, 44

    def prim(x):
        return x**3 - x**2 + 0.5 * x

    starts = []
    for start, xs, F in cumulative_blocks(lambda x: 3.0 * x**2 - 2.0 * x + 0.5,
                                          lo, h, n):
        assert 3 <= xs.size <= block + 1
        assert np.array_equal(xs, lo + np.arange(start, start + xs.size) * h)
        assert np.max(np.abs(F - (prim(xs) - prim(lo)))) < 1e-12
        starts.append(start)
    assert starts == list(range(0, n, block))
    assert start + xs.size - 1 == n


def test_smoothstep_limits_and_monotonicity():
    assert smoothstep(-0.5) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    ts = np.linspace(0.0, 1.0, 500)
    vals = smoothstep(ts)
    assert np.all(np.diff(vals) >= 0.0)
    assert smoothstep(0.5) == pytest.approx(0.5)


def test_taper_window_scalar_fast_path_matches_array_path():
    lo, hi, width = 2.0, 10.0, 1.5
    # outside, t1 = 0, left blend (t1 = 0.05, 0.47, 0.95), t1 = 1, plateau,
    # t2 = 1, right blend (t2 = 0.95, 0.47, 0.05), t2 = 0, outside
    xs = [1.0, 2.0, 2.075, 2.7, 3.425, 3.5, 6.0,
          8.5, 8.575, 9.3, 9.925, 10.0, 11.0]
    expect = [0.0, 0.0, None, None, None, 1.0, 1.0,
              1.0, None, None, None, 0.0, 0.0]
    for x, e in zip(xs, expect):
        val = taper_window(x, lo, hi, width)
        assert type(val) is float
        assert val == taper_window(np.array([x]), lo, hi, width)[0]
        assert val == taper_window(np.asarray(x), lo, hi, width)
        assert val == taper_window(np.float64(x), lo, hi, width)
        if e is None:
            assert 0.0 < val < 1.0
        else:
            assert val == e


def test_float_branches_match_one_long_array_evaluation():
    """smoothstep and taper_window on floats give the bits of the array
    path, where numpy's exp runs over long vectors: a dense sweep of both
    blend zones and of t within 1e-3 of 0 and of 1."""
    near = RNG.uniform(0.0, 1e-3, 5000)
    ts = np.concatenate([np.linspace(-0.1, 1.1, 20001), near, 1.0 - near,
                         [5e-324, 1e-300, -0.0, np.nan, np.inf, -np.inf]])
    floats = [smoothstep(t) for t in ts.tolist()]
    assert all(type(v) is float for v in floats)
    with np.errstate(over="ignore"):  # -1/5e-324 in the array path
        assert np.array_equal(floats, smoothstep(ts))
    lo, hi, width = 2.0, 10.0, 1.5
    xs = np.concatenate([np.linspace(lo - 0.1, lo + width + 0.1, 20001),
                         np.linspace(hi - width - 0.1, hi + 0.1, 20001),
                         lo + width * near, lo + width * (1.0 - near),
                         hi - width * near, hi - width * (1.0 - near)])
    floats = [taper_window(x, lo, hi, width) for x in xs.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array_equal(floats, taper_window(xs, lo, hi, width))


def test_taper_window_plateau_and_edges():
    lo, hi, w = 2.0, 10.0, 1.5
    assert taper_window(lo, lo, hi, w) == 0.0
    assert taper_window(hi, lo, hi, w) == 0.0
    xs = np.linspace(lo + w, hi - w, 50)
    assert np.allclose(taper_window(xs, lo, hi, w), 1.0)
    # smooth: all finite-difference derivatives stay bounded near the joins
    eps = 1e-6
    for x in (lo, lo + w, hi - w, hi):
        d = (taper_window(x + eps, lo, hi, w)
             - taper_window(x - eps, lo, hi, w)) / (2 * eps)
        assert abs(d) < 10.0 / w


def test_fit_line_recovers_slope():
    xs = np.linspace(0.0, 5.0, 40)
    slope, intercept = fit_line(xs, -3.0 * xs + 0.7)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert intercept == pytest.approx(0.7, abs=1e-12)
