"""Modified Pruefer transform: round trips, evolution laws, dual paths."""

import math

import numpy as np
import pytest
from conftest import field_derivative
from reference import (dirac_rhs, lock_gain, lock_max_step, loop_dop853,
                       phase_slope)
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from diracembed import _util, derived_data, floquet_solution, pruefer
from diracembed.errors import NonFiniteState, StepSizeUnderflow, ZeroSolution
from diracembed.pruefer import (
    PrueferState,
    R_xi_rhs,
    R_xi_system,
    from_prufer,
    integrate_R_xi,
    phase_flow,
    prufer_rhs,
    prufer_system,
    rate_floor,
    to_prufer,
    xi_rate,
)
from diracembed.synth import EmbeddingTarget, piece_potential, solve_xi

RNG = np.random.default_rng(20240713)


def ivp(rhs, x0, x1, y0, rtol, atol, t_eval):
    """The oracle: solve_ivp's DOP853 samples, one row per point of t_eval."""
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=rtol,
                    atol=atol, t_eval=t_eval)
    assert sol.success
    return sol.y.T


def random_state(data, x, rng):
    eta = float(rng.uniform(0.0, 2.0 * np.pi))
    R = float(rng.uniform(0.2, 3.0))
    th1 = eta + float(data.gamma1_f(x))
    th2 = eta + float(data.gamma2_f(x))
    xi = 2.0 * th1 + float(data.Gamma2_f(x))
    return PrueferState(R=R, eta=eta, theta1=th1, theta2=th2, xi=xi)


# ---------------------------------------------------------------------------
# transform round trips


def test_round_trip_from_then_to(generic_data):
    data = generic_data
    for x in RNG.uniform(0.0, 5.0, 12):
        st = random_state(data, x, RNG)
        y = from_prufer(st, data, x)
        back = to_prufer(y, data, x, eta_prev=st.eta)
        assert back.R == pytest.approx(st.R, abs=1e-10 * st.R)
        assert back.eta == pytest.approx(st.eta, abs=1e-10)
        assert back.theta1 == pytest.approx(st.theta1, abs=1e-10)
        assert back.xi == pytest.approx(st.xi, abs=1e-10)


def test_round_trip_to_then_from(generic_data):
    data = generic_data
    for x in RNG.uniform(0.0, 5.0, 12):
        y = RNG.standard_normal(2)
        st = to_prufer(y, data, x)
        again = from_prufer(st, data, x)
        assert np.allclose(again, y, atol=1e-10)


def test_to_prufer_scaling_linearity(generic_data):
    data = generic_data
    y = np.array([0.4, -1.1])
    a = to_prufer(y, data, 0.37)
    b = to_prufer(2.0 * y, data, 0.37)
    assert b.R == pytest.approx(2.0 * a.R, rel=1e-12)
    assert b.eta == pytest.approx(a.eta, abs=1e-12)


def test_to_prufer_rejects_zero_solution(generic_data):
    with pytest.raises(ZeroSolution):
        to_prufer(np.zeros(2), generic_data, 1.0)


def test_unit_rho_in_the_free_frame(free_data):
    # y = Im(g) corresponds to rho = 1: R = 1 and eta on the 2*pi branch.
    data = free_data
    for x in (0.0, 0.3, 1.7):
        g1, g2 = data.g_eval(x)
        y = np.array([np.imag(g1), np.imag(g2)])
        st = to_prufer(y, data, x)
        assert st.R == pytest.approx(1.0, abs=1e-9)
        assert np.exp(1j * st.eta) == pytest.approx(1.0, abs=1e-9)


def test_eta_unwraps_against_previous_value(generic_data):
    data = generic_data
    y = np.array([0.9, 0.2])
    st = to_prufer(y, data, 0.5)
    shifted = to_prufer(y, data, 0.5, eta_prev=st.eta + 6.0 * np.pi)
    assert shifted.eta == pytest.approx(st.eta + 6.0 * np.pi, abs=1e-10)


def test_comparability_of_R_and_euclidean_norm(generic_data):
    data = generic_data
    hi = float(np.max(data.u + data.v))
    C = max(np.sqrt(hi), 2.0 * np.sqrt(hi) / abs(data.omega)) * 1.0000001
    for x in RNG.uniform(0.0, 3.0, 20):
        y = RNG.standard_normal(2)
        st = to_prufer(y, data, x)
        r = st.R / np.hypot(*y)
        assert 1.0 / C <= r <= C


# ---------------------------------------------------------------------------
# evolution laws


def test_rhs_equivalence_two_angle_vs_single_phase(generic_data):
    data = generic_data
    for _ in range(200):
        x = float(RNG.uniform(0.0, 4.0))
        th1 = float(RNG.uniform(-10.0, 10.0))
        th2 = th1 + float(data.gamma2_f(x) - data.gamma1_f(x))
        xi = 2.0 * th1 + float(data.Gamma2_f(x))
        V = float(RNG.uniform(-0.5, 0.5))
        rlog_pair, _ = R_xi_rhs(data, x, xi, V)
        rlog_triple, _, _ = prufer_rhs(data, x, th1, th2, V)
        assert rlog_pair == pytest.approx(rlog_triple, abs=1e-10)


def test_zero_potential_rates(generic_data):
    data = generic_data
    x = 1.234
    rlog, xip = R_xi_rhs(data, x, 0.77, 0.0)
    assert rlog == 0.0
    assert xip == pytest.approx(
        2.0 * data.k + field_derivative(data.delta_f)(x), abs=1e-12)
    rlog3, t1p, t2p = prufer_rhs(data, x, 0.3, 0.9, 0.0)
    assert rlog3 == 0.0


def test_free_case_reduces_to_classical_pruefer(free_data):
    data = free_data
    lam = data.lam
    for _ in range(50):
        xi = float(RNG.uniform(-8.0, 8.0))
        V = float(RNG.uniform(-1.0, 1.0))
        rlog, xip = R_xi_rhs(data, 0.9, xi, V)
        assert rlog == pytest.approx(V * np.sin(xi), abs=1e-9)
        assert xip == pytest.approx(2.0 * lam + 2.0 * V * np.cos(xi), abs=1e-9)


def test_xi_rate_free_case(free_data):
    assert xi_rate(free_data) == pytest.approx(2.0 * free_data.k, abs=1e-12)


def test_prufer_flow_tracks_the_perturbed_system(generic_data):
    # Integrate the system and the polar triple side by side over [1, 100].
    data = generic_data
    sol = data.sol

    def V(x):
        return 0.2 * np.sin(2.6 * x) / (1.0 + 0.5 * x)

    x0, x1 = 1.0, 100.0
    y0 = np.array([0.8, -0.4])
    grid = np.linspace(x0, x1, 400)
    ys = ivp(dirac_rhs(sol.p, sol.q, sol.lam, V), x0, x1, y0, 1e-10, 1e-12,
             grid)
    st0 = to_prufer(y0, data, x0)
    z0 = np.array([np.log(st0.R), st0.theta1, st0.theta2])
    zs = ivp(prufer_system(data, V), x0, x1, z0, 1e-10, 1e-12, grid)
    eta_prev = st0.eta
    worst = 0.0
    for xg, yg, zg in zip(grid, ys, zs):
        st = to_prufer(yg, data, float(xg), eta_prev=eta_prev)
        eta_prev = st.eta
        worst = max(worst, abs(np.log(st.R) - zg[0]),
                    abs(st.theta1 - zg[1]), abs(st.theta2 - zg[2]))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# long-horizon integration


def test_integrate_R_xi_zero_potential_is_exact(free_data):
    data = free_data
    run = integrate_R_xi(data, lambda x: 0.0 * np.asarray(x), 5.0, 50.0, 1.0)
    assert np.all(run.ln_R == 0.0)
    assert run.ln_R[-1] == 0.0
    rate = xi_rate(data)
    assert np.allclose(run.xi, 1.0 + rate * (run.xs - 5.0), atol=1e-8)
    assert run.xs[0] == 5.0 and run.xs[-1] == 50.0


def test_integrate_R_xi_matches_coupled_solver(free_data):
    data = free_data

    def V(x):
        return 0.3 * np.sin(2.7 * np.asarray(x)) / (1.0 + np.asarray(x))

    x0, x1, xi0 = 10.0, 200.0, 0.6
    run = integrate_R_xi(data, V, x0, x1, xi0)
    ref = ivp(R_xi_system(data, lambda x: float(V(x))), x0, x1,
              np.array([0.0, xi0]), 1e-11, 1e-13, run.xs)
    assert abs(run.ln_R[-1] - ref[-1, 0]) < 1e-6
    assert np.max(np.abs(run.ln_R - ref[:, 0])) < 1e-6
    assert np.max(np.abs(run.xi - ref[:, 1])) < 1e-4


def test_integrate_R_xi_downward_anchors_at_the_right(free_data):
    data = free_data

    def V(x):
        return 0.1 * np.cos(1.3 * np.asarray(x)) / (1.0 + np.asarray(x))

    up = integrate_R_xi(data, V, 5.0, 80.0, 0.3, lnR0=0.25)
    down = integrate_R_xi(data, V, 80.0, 5.0, float(up.xi[-1]),
                          lnR0=float(up.ln_R[-1]))
    assert down.xs[0] == 80.0 and down.xs[-1] == 5.0
    assert down.ln_R[-1] == pytest.approx(0.25, abs=1e-7)
    assert down.xi[-1] == pytest.approx(0.3, abs=1e-6)
    # halfway, from either end
    mid_up = integrate_R_xi(data, V, 5.0, 40.0, 0.3, lnR0=0.25)
    mid_down = integrate_R_xi(data, V, 80.0, 40.0, float(up.xi[-1]),
                              lnR0=float(up.ln_R[-1]))
    assert mid_down.ln_R[-1] == pytest.approx(mid_up.ln_R[-1], abs=1e-6)
    assert mid_down.xi[-1] == pytest.approx(mid_up.xi[-1], abs=1e-6)


def test_integrate_R_xi_generic_frame_matches_a_tight_reference(generic_pq):
    """A periodic frame, as verify meets it: lam = 1.7 across lam = 0.9's
    piece on [800, 900], against an rtol 1e-12 run of the (ln R, xi)
    system under the same V_interp, taken node to node of the piece's
    grid so that V is smooth inside every call."""
    t09, t17 = (EmbeddingTarget.at(*generic_pq, lam) for lam in (0.9, 1.7))
    piece = piece_potential(t09, solve_xi(t09, 800.0, 0.0, 0.4, 900.0,
                                          taper_width=1.0))
    rhs = R_xi_system(t17.data, piece.V_interp)
    nodes = piece.x_grid
    assert (nodes[0], nodes[-1]) == (800.0, 900.0)
    for xi0 in (0.3, 2.0):
        run = integrate_R_xi(t17.data, piece.V_interp, 800.0, 900.0, xi0)
        y = [0.0, xi0]
        for lo, hi in zip(nodes[:-1], nodes[1:]):
            y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12,
                          atol=1e-13).y[:, -1]
        assert abs(run.xi[-1] - y[1]) < 1e-5
        assert abs(run.ln_R[-1] - y[0]) < 3e-5


def test_integrate_R_xi_halves_the_step_until_settled(free_data, monkeypatch):
    """The product at the first step is checked against twice that step;
    a bound it cannot meet halves the step FLOW_HALVINGS times and then
    raises, and a V that is not finite raises NonFiniteState."""
    def V(x):
        return 0.3 * np.sin(1.7 * np.asarray(x)) / (1.0 + np.asarray(x))

    n = int(np.ceil(75.0 / (0.05 / rate_floor(xi_rate(free_data)))))
    n += n % 2  # the first step: 0.05/rate or less, n even
    run = integrate_R_xi(free_data, V, 5.0, 80.0, 0.4)
    assert run.nfev == n + 2 * n  # the check at 2h, then h: settled
    monkeypatch.setattr(pruefer, "FLOW_TOL", 0.0)
    with pytest.raises(StepSizeUnderflow):
        integrate_R_xi(free_data, V, 5.0, 80.0, 0.4)
    monkeypatch.undo()
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState):
        integrate_R_xi(free_data, lambda x: V(x) / (x < 30.0), 5.0, 80.0, 0.4)


def test_magnus_product_is_fourth_order(generic_data):
    # Under a smooth V, doubling the steps cuts the propagator's error
    # about 16-fold (a Magnus exponent without its commutator term would
    # be second order: 4-fold).
    def V(x):
        return 0.3 * np.sin(1.7 * x) / (1.0 + x)

    def end(n):
        return pruefer._propagate(generic_data, V, 5.0, 80.0, n, n)[-1]

    ref = end(2 ** 14)
    coarse, fine = (np.max(np.abs(end(n) - ref)) for n in (256, 512))
    assert coarse / fine > 12.0


@pytest.fixture(scope="module")
def seam_runs(generic_data):
    """integrate_R_xi over [5, 400] up and down: in one block, and in blocks
    of 997 and 1000 Magnus steps (rounded down to whole samples; the grid
    has ~31k steps)."""

    def V(x):
        x = np.asarray(x)
        return 0.3 * np.sin(1.7 * x) / (1.0 + np.abs(x))

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for block in (None, 997, 1000):
            if block is not None:
                mp.setattr(_util, "QUAD_BLOCK", block)
            for ends in ((5.0, 400.0), (400.0, 5.0)):
                runs[block, ends] = integrate_R_xi(generic_data, V, *ends, 0.4)
    return runs


@pytest.mark.parametrize("block", [997, 1000])
@pytest.mark.parametrize("ends", [(5.0, 400.0), (400.0, 5.0)])
def test_integrate_R_xi_is_seamless_across_blocks(seam_runs, block, ends):
    one, run = seam_runs[None, ends], seam_runs[block, ends]
    x0, x1 = ends
    assert run.xs[0] == x0 and run.xs[-1] == x1
    # the same samples, strictly monotone: no seam sample is kept twice
    assert np.array_equal(run.xs, one.xs)
    assert np.all(np.sign(x1 - x0) * np.diff(run.xs) > 0.0)
    assert abs(run.ln_R[-1] - one.ln_R[-1]) < 1e-12
    assert np.max(np.abs(run.xi - one.xi)) < 1e-12


# ---------------------------------------------------------------------------
# the phase lock: the written-out kernel against the loop reference

def mass_data(mass_pq):
    return derived_data(floquet_solution(*mass_pq, 2.0))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def lock_case(data, side, tw):
    """A 60-long lock outward from |x| = 700 with b = 50, as solve_xi sets
    it up: (law arguments, rate, x0, x1)."""
    lo, hi = (700.0, 760.0) if side > 0 else (-760.0, -700.0)
    x0, x1 = (lo, hi) if side > 0 else (hi, lo)
    args = (2.0 * EmbeddingTarget(data=data).C, side * 50.0, (lo, hi, tw))
    return args, xi_rate(data), x0, x1


def assert_kernel_is_the_loop(data, side, tw, monkeypatch):
    """The written-out stages and the one-call law give the loop stepper's
    nodes, slopes and nfev, and the same Hermite phase, bit for bit.
    Returns (nodes, nfev)."""
    args, rate, x0, x1 = lock_case(data, side, tw)
    cap = lock_max_step(data)
    kernel = pruefer._dop853(pruefer.phase_law(data, *args), rate, x0, x1, 0.3,
                             cap)
    gain = lock_gain(*args)
    ref = loop_dop853(phase_slope(data, gain), rate, x0, x1, 0.3, cap)
    assert kernel[3] == ref[3]
    for mine, theirs in zip(kernel[:3], ref[:3]):
        assert np.array_equal(bits(mine), bits(theirs))
    # the last step is cut short to land on x1
    xs = kernel[0]
    assert abs(xs[-1] - xs[-2]) < abs(xs[-2] - xs[-3])
    zeta = phase_flow(data, *args, x0, x1, 0.3)[1]
    with monkeypatch.context() as mp:
        mp.setattr(pruefer, "phase_law", lambda data, *args: phase_slope(data, gain))
        mp.setattr(pruefer, "_dop853", loop_dop853)
        ref_zeta = phase_flow(data, *args, x0, x1, 0.3)[1]
    assert np.array_equal(bits(zeta.x), bits(ref_zeta.x))
    assert np.array_equal(bits(zeta.c), bits(ref_zeta.c))
    return xs, kernel[3]


@pytest.mark.parametrize("tw", [0.0, 1.0], ids=["untapered", "tapered"])
@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("which", ["free", "mass", "generic"])
def test_kernel_equals_the_loop_reference(which, side, tw, free_data, mass_pq,
                                          generic_data, monkeypatch):
    data = {"free": free_data, "generic": generic_data,
            "mass": mass_data(mass_pq)}[which]
    assert_kernel_is_the_loop(data, side, tw, monkeypatch)


def test_kernel_equals_the_loop_reference_across_rejected_steps(generic_pq,
                                                                monkeypatch):
    # At lambda = 0.9 this lock rejects steps: nfev exceeds two plus twelve
    # per accepted step.
    data = derived_data(floquet_solution(*generic_pq, 0.9))
    xs, nfev = assert_kernel_is_the_loop(data, 1, 1.0, monkeypatch)
    assert nfev > 2 + pruefer.N_STAGES * (len(xs) - 1)


finite = st.floats(-1e5, 1e5, allow_nan=False)


def ulps(y: float, k: int) -> float:
    """y stepped k floats up (k < 0: down)."""
    for _ in range(abs(k)):
        y = math.nextafter(y, math.copysign(math.inf, k))
    return y


@settings(max_examples=300, deadline=None)
@given(lo=finite, length=st.floats(1e-3, 1e4), width=st.floats(1e-9, 1e3),
       offsets=st.lists(st.integers(-4, 4), min_size=1, max_size=8),
       x=finite)
def test_phase_law_skips_the_taper_only_where_it_is_one(free_data, lo, length,
                                                        width, offsets, x):
    """Every x at which the law does not call the taper lies on the plateau,
    (x - lo)/width >= 1 and (hi - x)/width >= 1, where the window is exactly
    1.0; and the law calls it on the plateau only within one ulp u of the
    window's largest magnitude from the plateau's ends.  (In ulps of the end
    itself the band is unbounded: at lo = -1, width = 1 the plateau starts at
    -2**-54, the law's fast path at 0.0.)  At random x, and around each
    nominal end at a few ulps and at a few u."""
    hi = lo + length
    u = math.ulp(max(abs(lo), abs(hi), width))
    near = [x] + [y for bound in (lo + width, hi - width) for k in offsets
                  for y in (ulps(bound, k), bound + k * u)]
    tapered = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruefer, "taper_window",
                   lambda y, *w: tapered.append(y) or 0.5)
        law = pruefer.phase_law(free_data, 1.0, math.inf, (lo, hi, width))
        for y in near:  # b_s = inf: the coupling is not read, only the calls
            law(y, 1.0)

    def on(y):
        return (y - lo) / width >= 1.0 and (hi - y) / width >= 1.0

    for y in near:
        if y not in tapered:
            assert on(y) and _util.taper_window(y, lo, hi, width) == 1.0
        elif on(y):
            assert not (on(y - u) and on(y + u))


# ---------------------------------------------------------------------------
# failure semantics: a coupling that stops being finite ends in
# StepSizeUnderflow

X_BAD = 30.0  # the windows below turn bad past this x


def nan_window(x, lo, hi, width):
    return math.nan if x > X_BAD else 1.0


def inf_window(x, lo, hi, width):
    return math.inf if x > X_BAD else 1.0


def zero_division_window(x, lo, hi, width):
    # A Python float divides by zero and raises.
    return 1.0 / ((x < X_BAD) * 1.0)


@pytest.mark.parametrize("window", [nan_window, inf_window,
                                    zero_division_window],
                         ids=["nan", "inf", "zero-division"])
@pytest.mark.parametrize("which", ["free", "generic"])
def test_phase_flow_non_finite_gain_underflows(window, which, free_data,
                                               generic_data, monkeypatch):
    """The window stands in for the taper; a width of the whole span
    leaves no plateau, so every evaluation calls it."""
    data = free_data if which == "free" else generic_data
    monkeypatch.setattr(pruefer, "taper_window", window)
    with pytest.raises(StepSizeUnderflow):
        phase_flow(data, 0.1, 0.0, (5.0, 80.0, 75.0), 5.0, 80.0, 0.3)


def field_slope(data, gain):
    """phase_slope with the slope read from the four PeriodicFields instead
    of the frame table."""
    rate = xi_rate(data)
    k2 = 2.0 * data.k
    delta_slope = field_derivative(data.delta_f)

    def slope(x, xi):
        cos = math.cos if isinstance(xi, float) else np.cos
        return (k2 + delta_slope(x) - rate
                + gain(x, xi) * (data.u_f(x) - data.v_f(x)
                                 - data.Psi_f(x) * cos(xi)))

    return slope


@pytest.mark.parametrize("which", ["free", "generic"])
def test_phase_flow_matches_the_field_calls(which, free_target_07,
                                            generic_data, monkeypatch):
    """The kernel's flat-row power sums give the bits of the four field
    calls: the loop reference on the fields reaches the same nodes,
    slopes and nfev for a phase lock."""
    target = free_target_07 if which == "free" \
        else EmbeddingTarget(data=generic_data)

    def run():
        return solve_xi(target, 700.0, 0.0, 0.3, 760.0, side=-1,
                        taper_width=1.0)

    def field_law(data, two_c, b_s, window):
        return field_slope(data, lock_gain(two_c, b_s, window))

    a = run()
    monkeypatch.setattr(pruefer, "phase_law", field_law)
    monkeypatch.setattr(pruefer, "_dop853", loop_dop853)
    b = run()
    assert a.nfev == b.nfev
    assert np.array_equal(a.zeta.x, b.zeta.x)
    assert np.array_equal(a.zeta.c, b.zeta.c)


@pytest.mark.parametrize("side", [1, -1])
def test_hermite_phase_is_scipys(side):
    # The in-house Hermite cubic equals scipy's CubicHermiteSpline bit for
    # bit, coefficients and values, inside and past both end nodes, on the
    # plus side and the mirrored minus side (where phase_flow reverses the
    # nodes of a downward flow).
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(7)
    ts = np.sort(side * np.cumsum(rng.uniform(0.01, 0.6, 300)) + 700.0 * side)
    zs, dz = rng.standard_normal(300), rng.standard_normal(300)
    mine, ref = _util.cubic_hermite(ts, zs, dz), CubicHermiteSpline(ts, zs, dz)
    assert np.array_equal(mine.c, ref.c) and np.array_equal(mine.x, ref.x)
    xs = np.concatenate([rng.uniform(ts[0] - 1.0, ts[-1] + 1.0, 5000), ts])
    assert np.array_equal(mine(xs), ref(xs))
    assert all(float(mine(x)) == float(ref(x)) for x in xs[:200])


def ivp_stepper(slope, rate, x0, x1, xi0, max_step):
    """The stepper's nodes, node slopes and nfev from scipy's
    solve_ivp(DOP853) at the phase lock's tolerances and step cap."""
    sol = solve_ivp(lambda x, z: [slope(x, z[0] + rate * x)], (x0, x1),
                    [xi0 - rate * x0], method="DOP853",
                    rtol=pruefer.LOCK_RTOL, atol=pruefer.LOCK_ATOL,
                    max_step=max_step)
    assert sol.success
    dz = [slope(float(x), float(z + rate * x))
          for x, z in zip(sol.t, sol.y[0])]
    return sol.t, sol.y[0], dz, sol.nfev


@pytest.mark.parametrize("which", ["free", "generic"])
def test_stepper_matches_solve_ivp(which, free_target_07, generic_data,
                                   monkeypatch):
    """The stepper repeats scipy's DOP853 control on Python floats.  Its
    stage sums are plain left-to-right additions, not BLAS dot products,
    so the bits may differ and the step sequences part.  Bounds on a phase
    lock: |dxi| < 1e-8 at the nodes both runs share (at least the two
    ends), < 1e-4 between nodes (Hermite interpolation level), nfev
    within 3%."""
    target = free_target_07 if which == "free" \
        else EmbeddingTarget(data=generic_data)

    def run():
        return solve_xi(target, 700.0, 0.0, 0.3, 760.0, side=-1,
                        taper_width=1.0)

    a = run()
    monkeypatch.setattr(pruefer, "_dop853", ivp_stepper)
    b = run()
    lo, hi = a.zeta.x[0], a.zeta.x[-1]
    assert (lo, hi) == (b.zeta.x[0], b.zeta.x[-1])
    # nodes of both runs (the two ends at least): solver-level error
    common = np.intersect1d(a.zeta.x, b.zeta.x)
    assert np.max(np.abs(a.xi_at(common) - b.xi_at(common))) < 1e-8
    # between nodes, interpolation-level once the node sets part
    xs = np.linspace(lo, hi, 20001)
    assert np.max(np.abs(a.xi_at(xs) - b.xi_at(xs))) < 1e-4
    assert abs(a.nfev - b.nfev) <= 0.03 * b.nfev


def lock_target(which, free_target_07, mass_pq, generic_data):
    data = {"free": free_target_07.data, "mass": mass_data(mass_pq),
            "generic": generic_data}[which]
    return EmbeddingTarget(data=data)


@pytest.mark.parametrize("which,cap", [("free", 1.0), ("mass", 1.0),
                                       ("generic", 0.5)],
                         ids=["free", "mass", "generic"])
def test_lock_steps_stop_at_the_frames_cap(which, cap, free_target_07,
                                           mass_pq, generic_data):
    """A constant frame's lock steps at its cap of 1/rate; on a periodic
    frame the cap is 0.5/rate, which the error control reaches too."""
    target = lock_target(which, free_target_07, mass_pq, generic_data)
    for side in (1, -1):
        traj = solve_xi(target, 700.0, 0.0, 0.3, 760.0, side=side,
                        taper_width=1.0)
        widest = np.max(np.diff(traj.zeta.x)) * rate_floor(traj.rate)
        assert widest == pytest.approx(cap, rel=1e-9)


def lock_defect(target, traj):
    """E2's gauge of the stored phase: max |zeta_H' - law(x, zeta_H +
    rate*x)| at the quarter, half and three-quarter points of every
    accepted step, zeta_H the Hermite cubic through the nodes."""
    side = traj.side
    lo, hi = sorted((side * traj.a, side * traj.x_end))
    law = pruefer.phase_law(target.data, 2.0 * traj.C, side * traj.b,
                            (lo, hi, traj.taper_width))
    (c0, c1, c2, _), x = traj.zeta.c, traj.zeta.x
    worst = 0.0
    for f in (0.25, 0.5, 0.75):
        s = f * np.diff(x)
        xs = x[:-1] + s
        dz = (3.0 * c0 * s + 2.0 * c1) * s + c2
        for t, z, d in zip(xs.tolist(), traj.zeta(xs).tolist(), dz.tolist()):
            worst = max(worst, abs(d - law(t, z + traj.rate * t)))
    return worst


@pytest.mark.parametrize("which,defect", [("free", 0.02794254946046737),
                                          ("generic", 0.005518807122924491)],
                         ids=["free", "generic"])
def test_stored_phase_defect_holds_its_pin(which, defect, free_target_07,
                                           mass_pq, generic_data):
    """The stored phase misses the lock law between nodes by the Hermite
    cubic's error, not the tolerance's (ROADMAP E2): the free lock's pin
    is at its 1/rate cap, the periodic lock's at 0.5/rate.  Dense output
    (ROADMAP item 6b) should bring both down tenfold."""
    target = lock_target(which, free_target_07, mass_pq, generic_data)
    traj = solve_xi(target, 700.0, 0.0, 0.3, 760.0, side=1, taper_width=1.0)
    assert lock_defect(target, traj) == pytest.approx(defect, rel=1e-6)


@pytest.mark.parametrize("which", ["free", "generic"])
def test_phase_law_sees_floats_only(which, free_target_07, generic_data,
                                    monkeypatch):
    """One evaluation path: across a phase lock the phase law and the taper
    receive floats only, the frame lookup is not called, and the Hermite
    spline is built from the stepper's own slopes, which are law(t, xi)
    at each accepted node."""
    target = free_target_07 if which == "free" \
        else EmbeddingTarget(data=generic_data)
    seen, laws, splines, lookups = [], [], [], []
    real_law, real_spline = pruefer.phase_law, pruefer.cubic_hermite
    real_taper, real_frame = pruefer.taper_window, _util.FrameTable.__call__

    def taper(x, lo, hi, width):
        seen.append(x)
        return real_taper(x, lo, hi, width)

    def phase_law(data, two_c, b_s, window):
        real = real_law(data, two_c, b_s, window)
        laws.append(real)

        def law(x, xi):
            seen.extend((x, xi))
            return real(x, xi)

        return law

    def spline(ts, zs, dz):
        splines.append((ts, zs, dz))
        return real_spline(ts, zs, dz)

    monkeypatch.setattr(_util.FrameTable, "__call__",
                        lambda table, x: lookups.append(x) or real_frame(table, x))
    monkeypatch.setattr(pruefer, "taper_window", taper)
    monkeypatch.setattr(pruefer, "phase_law", phase_law)
    monkeypatch.setattr(pruefer, "cubic_hermite", spline)
    flow = solve_xi(target, 700.0, 0.0, 0.3, 760.0, side=-1, taper_width=1.0)
    assert seen and all(type(v) is float for v in seen)
    assert not lookups
    (law,), ((ts, zs, dz),) = laws, splines
    nodes = [law(float(t), float(z + flow.rate * t)) for t, z in zip(ts, zs)]
    assert np.array_equal(dz, nodes)


@pytest.mark.parametrize("which", ["free", "mass", "generic"])
def test_phase_slope_is_the_phase_law_on_the_frame(which, free_data, mass_pq,
                                                    generic_data, monkeypatch):
    """At many float pairs (x, xi) the law is k2 + d - rate + g*(u - v -
    P*cos xi) with (d, u, v, P) = data.frame(x) and the lock's coupling g =
    2C w sin xi/(x - b_s), bit for bit.  The law reads the frame without
    calling the lookup, and calls the taper off [p_lo, p_hi] only, here
    [lo + width, hi - width]: both ends are exact, so no ulp is stepped."""
    data = {"free": free_data, "generic": generic_data,
            "mass": mass_data(mass_pq)}[which]
    assert (data.frame.const is None) == (which == "generic")
    rate, k2 = xi_rate(data), 2.0 * data.k
    two_c, b_s, (lo, hi, width) = 0.74, -3.0, (-30.0, 40.0, 5.0)

    def gain(x, xi):
        w = _util.taper_window(x, lo, hi, width)
        return two_c * w * math.sin(xi) / (x - b_s)

    xs = RNG.uniform(-50.0, 50.0, 400).tolist() + [lo + width, hi - width]
    xis = RNG.uniform(-20.0, 20.0, 402).tolist()
    expect = []
    for x, xi in zip(xs, xis):
        d, u, v, P = data.frame(x)
        expect.append(k2 + d - rate + gain(x, xi) * (u - v - P * math.cos(xi)))
    lookups, tapered = [], []
    real_frame = _util.FrameTable.__call__
    monkeypatch.setattr(_util.FrameTable, "__call__",
                        lambda table, x: lookups.append(x) or real_frame(table, x))
    monkeypatch.setattr(pruefer, "taper_window",
                        lambda x, *w: tapered.append(x) or _util.taper_window(x, *w))
    law = pruefer.phase_law(data, two_c, b_s, (lo, hi, width))
    assert [law(x, xi) for x, xi in zip(xs, xis)] == expect
    assert not lookups
    assert tapered == [x for x in xs if not lo + width <= x <= hi - width]


@pytest.mark.parametrize("which", ["free", "mass", "generic"])
def test_phase_law_drops_only_zero_terms(which, free_data, mass_pq,
                                         generic_data):
    """The terms the law and the frame table leave out are zero: u, v and
    Psi never wind, and in a constant frame k2 + d - rate is +0.0 bit for
    bit, the zero the constant law adds.  A table row holds the 15
    coefficients the lookup reads, and a winding modulus is refused."""
    data = {"free": free_data, "generic": generic_data,
            "mass": mass_data(mass_pq)}[which]
    assert data.u_f.slope == data.v_f.slope == data.Psi_f.slope == 0.0
    frame = data.frame
    assert frame.slope == data.delta_f.slope
    if frame.const is not None:
        c0 = 2.0 * data.k + frame.const[0] - xi_rate(data)
        assert c0 == 0.0 and math.copysign(1.0, c0) == 1.0
    else:
        assert {len(row) for row in frame.rows} == {15}
    wound = _util.PeriodicField(0.5, grid=data.x, values=data.u)
    with pytest.raises(ValueError, match="only delta may wind"):
        _util.FrameTable(data.x, data.delta_f, wound, data.v_f, data.Psi_f)


def test_dop853_tableau_is_scipys():
    """The stepper reads scipy's private DOP853 module (present in every
    scipy >= 1.13); pin what it reads and the control constants."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    from scipy.integrate._ivp import rk

    assert pruefer.N_STAGES == ref.N_STAGES == 12
    assert len(pruefer.B) == 12
    assert len(pruefer.E3) == len(pruefer.E5) == 13
    assert pruefer.C[0] == 0.0
    assert pruefer.C == ref.C[:12].tolist()
    assert pruefer.B == ref.B.tolist()
    assert pruefer.E3 == ref.E3.tolist() and pruefer.E5 == ref.E5.tolist()
    for s in range(12):
        assert pruefer.A[s] == ref.A[s, :s].tolist()
        assert not np.any(ref.A[s, s:12])  # explicit: strictly lower
    assert all(type(c) is float for c in pruefer.C + pruefer.B + pruefer.E5)
    # the written-out stages skip exactly these zero coefficients of A's
    # rows 1..11 and B, and the error sums those where E5 and E3 both vanish
    rows = pruefer.A[1:] + [pruefer.B]
    assert [[j for j, a in enumerate(row) if a == 0.0] for row in rows] == \
        [[]] * 2 + [[1]] * 2 + [[1, 2]] * 7 + [[1, 2, 3, 4]]
    assert [j for j, a in enumerate(pruefer.E5) if a == 0.0] == \
        [j for j, a in enumerate(pruefer.E3) if a == 0.0] == [1, 2, 3, 4, 12]
    assert rk.DOP853.error_estimator_order == 7
    assert pruefer.ERROR_EXPONENT == -1.0 / (7 + 1)
    assert (pruefer.SAFETY, pruefer.MIN_FACTOR, pruefer.MAX_FACTOR) == \
        (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
