"""Modified Pruefer variables built on the Floquet frame.

A real solution y of the perturbed system is written componentwise as
y_j = Im(rho g_j) with rho = (2/omega) (conj(g1) y2 - conj(g2) y1),
R = |rho|, eta = arg rho, theta_j = eta + gamma_j, xi = 2 theta1 + Gamma2.

Evolution under the perturbation V:

    (ln R)' = (V/omega) (|g1|^2 sin 2 theta1 - |g2|^2 sin 2 theta2)
            = (V/omega) Psi sin xi
    theta_j' = gamma_j' - (2V/omega) (|g1|^2 sin^2 theta1 - |g2|^2 sin^2 theta2)
    xi'      = 2k + delta' - (2V/omega) (|g1|^2 - |g2|^2 - Psi cos xi)

The two (ln R)' expressions agree through the identity
|g1|^2 sin 2t1 - |g2|^2 sin 2t2 = Psi sin(2 t1 + Gamma2) when t2 - t1 =
gamma2 - gamma1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import cubic_hermite, decimate, taper_window
from .errors import NonFiniteState, StepSizeUnderflow, ZeroSolution
from .floquet import DerivedPeriodicData, gamma_derivative, magnus_chain

__all__ = [
    "PrueferState",
    "to_prufer",
    "from_prufer",
    "prufer_rhs",
    "R_xi_rhs",
    "prufer_system",
    "R_xi_system",
    "phase_flow",
    "RXiRun",
    "integrate_R_xi",
]

TWO_PI = 2.0 * np.pi

# Dormand and Prince's 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5) as the repr of scipy's floats; the stepper writes its stages out and
# skips the zero coefficients.  The error is of order 7: steps go as
# err^-1/8.
N_STAGES = 12
A = [[],
     [0.05260015195876773],
     [0.0197250569845379, 0.0591751709536137],
     [0.02958758547680685, 0.0, 0.08876275643042054],
     [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
     [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
      0.12546768756682242],
     [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
      -0.017578125],
     [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
      -0.015319437748624402, 0.008273789163814023],
     [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
      27.59209969944671, 20.154067550477894, -43.48988418106996],
     [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
      21.230051448181193, 15.279233632882423, -33.28821096898486,
      -0.020331201708508627],
     [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
      -8.149787010746927, -18.52006565999696, 22.739487099350505,
      2.4936055526796523, -3.0467644718982196],
     [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
      -17.9589318631188, 27.94888452941996, -2.8589982771350235,
      -8.87285693353063, 12.360567175794303, 0.6433927460157636]]
B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0]
E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, -0.4226823213237919,
      -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]
E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
      -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
      0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0]
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
LOCK_RTOL, LOCK_ATOL = 1e-8, 1e-11  # the tolerances of every phase lock
# A lock's steps stop at STEP_CAP_PER_RATE/rate.  On a constant frame the
# error control would take longer steps, so every step stops at the cap;
# on a periodic frame it already holds steps near 0.5/rate, where a larger
# cap buys only rejected steps.  Above 1/rate the Hermite phase between
# nodes, not the tolerance, sets the lock's accuracy.
STEP_CAP_PER_RATE = {"constant": 1.0, "periodic": 0.5}


@dataclass(frozen=True)
class PrueferState:
    R: float
    eta: float
    theta1: float
    theta2: float
    xi: float


def to_prufer(y, data: DerivedPeriodicData, x: float,
              eta_prev: float | None = None) -> PrueferState:
    """Pruefer variables of the real state y at x.

    eta is placed in (0, 2pi] on a first call; with ``eta_prev`` given it
    is unwrapped onto the branch nearest the previous value.
    """
    g1, g2 = data.g_eval(x)
    rho = (2.0 / data.omega) * (np.conj(g1) * y[1] - np.conj(g2) * y[0])
    R = float(np.abs(rho))
    if not np.isfinite(R) or R < 1e-280:
        raise ZeroSolution("Pruefer radius vanishes; zero solutions carry no phase")
    arg = float(np.angle(rho))
    if eta_prev is None:
        eta = arg if arg > 0.0 else arg + TWO_PI
    else:
        eta = arg + TWO_PI * np.round((eta_prev - arg) / TWO_PI)
    th1 = eta + float(data.gamma1_f(x))
    th2 = eta + float(data.gamma2_f(x))
    xi = 2.0 * th1 + float(data.Gamma2_f(x))
    return PrueferState(R=R, eta=eta, theta1=th1, theta2=th2, xi=xi)


def from_prufer(state: PrueferState, data: DerivedPeriodicData, x: float) -> np.ndarray:
    """Invert the transform: y_j = R |g_j(x)| sin theta_j."""
    _, u, v, _ = data.frame(x)
    a1, a2 = np.sqrt(u), np.sqrt(v)
    return np.array([
        state.R * a1 * np.sin(state.theta1),
        state.R * a2 * np.sin(state.theta2),
    ])


def prufer_rhs(data: DerivedPeriodicData, x, theta1, theta2, V_x):
    """Rates ((ln R)', theta1', theta2') in the two-angle form."""
    _, u, v, _ = data.frame(x)
    g1p, g2p = gamma_derivative(data, x)
    w = data.omega
    rlog = (V_x / w) * (u * np.sin(2.0 * theta1) - v * np.sin(2.0 * theta2))
    common = (2.0 * V_x / w) * (u * np.sin(theta1) ** 2 - v * np.sin(theta2) ** 2)
    return rlog, g1p - common, g2p - common


def R_xi_rhs(data: DerivedPeriodicData, x, xi, V_x):
    """Rates ((ln R)', xi') in the single-phase form."""
    d, u, v, Psi = data.frame(x)
    w = data.omega
    rlog = (V_x / w) * Psi * np.sin(xi)
    xip = 2.0 * data.k + d - (2.0 * V_x / w) * (u - v - Psi * np.cos(xi))
    return rlog, xip


def prufer_system(data: DerivedPeriodicData, V):
    """ODE handle for y = (ln R, theta1, theta2) under the perturbation V."""
    return lambda x, y: np.array(prufer_rhs(data, x, y[1], y[2], V(x)))


def R_xi_system(data: DerivedPeriodicData, V):
    """ODE handle for y = (ln R, xi) under the perturbation V."""
    return lambda x, y: np.array(R_xi_rhs(data, x, y[1], V(x)))


def xi_rate(data: DerivedPeriodicData) -> float:
    """Mean angular rate of xi: 2k plus the winding of delta per period."""
    return 2.0 * data.k + data.delta_f.slope


def rate_floor(rate: float) -> float:
    """|rate| floored at 1e-2: the phase speed that sizes steps and grids."""
    return max(abs(rate), 1e-2)


def phase_law(data: DerivedPeriodicData, two_c: float, b_s: float, window):
    """zeta' = xi' - rate = k2 + d - rate + g (u - v - Psi cos xi) at floats,
    g = two_c w(x) sin xi/(x - b_s), w the taper of window = (lo, hi, width)
    (none at width 0), called off [p_lo, p_hi] only.  A constant frame has
    k2 + d - rate = 0.0 and one u - v; a periodic row is summed as
    ``FrameTable`` sums it."""
    lo, hi, width = window
    p_lo, p_hi = -math.inf, math.inf
    if width > 0.0:  # on [p_lo, p_hi] fl(x - lo), fl(hi - x) >= width: w = 1.0
        p_lo, p_hi = lo + width, hi - width
        while p_lo - lo < width:
            p_lo = math.nextafter(p_lo, math.inf)
        while hi - p_hi < width:
            p_hi = math.nextafter(p_hi, -math.inf)
    sin, cos, floor, frame = math.sin, math.cos, math.floor, data.frame
    if frame.const is not None:
        _, u, v, P = frame.const
        uv = u - v

        def const_law(x, xi):  # + 0.0 turns a vanished taper's -0.0 into +0.0
            g = two_c if p_lo <= x <= p_hi else two_c * taper_window(x, *window)
            return g * sin(xi) / (x - b_s) * (uv - P * cos(xi)) + 0.0

        return const_law
    rate, k2, d = xi_rate(data), 2.0 * data.k, frame.slope
    bp, rows, m = frame.bp, frame.rows, frame.m

    def law(x, xi):
        t = (x - floor(x)) % 1.0
        i = int(t * m)
        while bp[i] > t:
            i -= 1
        while bp[i + 1] <= t:
            i += 1
        s = t - bp[i]
        ss, sss = s * s, s * s * s
        d1, d2, d3, u0, u1, u2, u3, v0, v1, v2, v3, P0, P1, P2, P3 = rows[i]
        g = two_c if p_lo <= x <= p_hi else two_c * taper_window(x, *window)
        return (k2 + (d + ((d3 + d2 * s) + d1 * ss)) - rate
                + g * sin(xi) / (x - b_s)
                * ((((u3 + u2 * s) + u1 * ss) + u0 * sss)
                   - (((v3 + v2 * s) + v1 * ss) + v0 * sss)
                   - (((P3 + P2 * s) + P1 * ss) + P0 * sss) * cos(xi)))

    return law


def _dop853(law, rate: float, x0: float, x1: float, xi0: float,
            max_step: float):
    """Accepted nodes (x, zeta), slopes zeta' (each step's last stage, first
    same as last) and nfev of zeta' = law(x, zeta + rate*x) by scipy's DOP853
    control on floats, steps capped at max_step, stages k0..kB (hex) written
    out over the nonzero coefficients.  A stage that raises (math.cos(inf), a
    float division by zero) is a NaN error: it ends in StepSizeUnderflow."""
    (a10,), (a20, a21), (a30, _, a32), (a40, _, a42, a43), (a50, _, _, a53, a54), \
        (a60, _, _, a63, a64, a65), (a70, _, _, a73, a74, a75, a76), \
        (a80, _, _, a83, a84, a85, a86, a87), (a90, _, _, a93, a94, a95, a96, a97, a98), \
        (aA0, _, _, aA3, aA4, aA5, aA6, aA7, aA8, aA9), \
        (aB0, _, _, aB3, aB4, aB5, aB6, aB7, aB8, aB9, aBA) = A[1:]
    b0, _, _, _, _, b5, b6, b7, b8, b9, bA, bB = B
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, cA, cB = C
    e50, _, _, _, _, e55, e56, e57, e58, e59, e5A, e5B, _ = E5
    e30, _, _, _, _, e35, e36, e37, e38, e39, e3A, e3B, _ = E3
    rtol, atol = LOCK_RTOL, LOCK_ATOL
    sign, length = (1.0 if x1 > x0 else -1.0), abs(x1 - x0)
    x, z = x0, xi0 - rate * x0
    k0 = law(x, z + rate * x)
    scale = atol + abs(z) * rtol
    d0, d1 = abs(z) / scale, abs(k0) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    x_try = x + h0 * sign  # x1 == x0 gives h0 = 0: ZeroDivisionError below
    d2 = abs(law(x_try, z + h0 * sign * k0 + rate * x_try) - k0) / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, length, max_step)
    xs, zs, dzs, nfev = [x], [z], [k0], 2
    while sign * (x - x1) < 0.0:
        min_step = 10.0 * abs(math.nextafter(x, sign * math.inf) - x)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, where scipy loops forever
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.")
            x_new = min(x + h_abs, x1) if sign > 0.0 else max(x - h_abs, x1)
            h = x_new - x
            h_abs = abs(h)
            nfev += N_STAGES
            try:  # stage s at xc = x + c_s h, zeta = z + (sum of a_sj k_j) h
                k1 = law(xc := x + c1 * h, z + k0 * a10 * h + rate * xc)
                k2 = law(xc := x + c2 * h, z + (k0 * a20 + k1 * a21) * h + rate * xc)
                k3 = law(xc := x + c3 * h, z + (k0 * a30 + k2 * a32) * h + rate * xc)
                k4 = law(xc := x + c4 * h,
                         z + (k0 * a40 + k2 * a42 + k3 * a43) * h + rate * xc)
                k5 = law(xc := x + c5 * h,
                         z + (k0 * a50 + k3 * a53 + k4 * a54) * h + rate * xc)
                k6 = law(xc := x + c6 * h, z + (k0 * a60 + k3 * a63 + k4 * a64
                                                + k5 * a65) * h + rate * xc)
                k7 = law(xc := x + c7 * h, z + (k0 * a70 + k3 * a73 + k4 * a74
                                                + k5 * a75 + k6 * a76) * h + rate * xc)
                k8 = law(xc := x + c8 * h, z + (k0 * a80 + k3 * a83 + k4 * a84 + k5 * a85
                                                + k6 * a86 + k7 * a87) * h + rate * xc)
                k9 = law(xc := x + c9 * h, z + (k0 * a90 + k3 * a93 + k4 * a94 + k5 * a95
                                                + k6 * a96 + k7 * a97 + k8 * a98) * h
                         + rate * xc)
                kA = law(xc := x + cA * h, z + (k0 * aA0 + k3 * aA3 + k4 * aA4 + k5 * aA5
                                                + k6 * aA6 + k7 * aA7 + k8 * aA8
                                                + k9 * aA9) * h + rate * xc)
                kB = law(xc := x + cB * h, z + (k0 * aB0 + k3 * aB3 + k4 * aB4 + k5 * aB5
                                                + k6 * aB6 + k7 * aB7 + k8 * aB8
                                                + k9 * aB9 + kA * aBA) * h + rate * xc)
                z_new = z + h * (k0 * b0 + k5 * b5 + k6 * b6 + k7 * b7 + k8 * b8
                                 + k9 * b9 + kA * bA + kB * bB)
                f_new = law(x + h, z_new + rate * (x + h))  # E5, E3 skip it
                scale = atol + max(abs(z), abs(z_new)) * rtol
                e5 = (k0 * e50 + k5 * e55 + k6 * e56 + k7 * e57 + k8 * e58
                      + k9 * e59 + kA * e5A + kB * e5B) / scale
                e3 = (k0 * e30 + k5 * e35 + k6 * e36 + k7 * e37 + k8 * e38
                      + k9 * e39 + kA * e3A + kB * e3B) / scale
                e5, e3 = e5 * e5, e3 * e3
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
        x, z, k0 = x_new, z_new, f_new
        xs.append(x)
        zs.append(z)
        dzs.append(k0)
    return xs, zs, dzs, nfev


def phase_flow(data: DerivedPeriodicData, two_c: float, b_s: float, window,
               x0: float, x1: float, xi0: float):
    """Solve xi' = 2k + delta' + g (u - v - Psi cos xi) from x0 to x1, g the
    coupling of ``phase_law``, as zeta = xi - rate*x (bounded, well scaled
    for error control), steps capped by STEP_CAP_PER_RATE for the frame.
    Returns (rate, zeta, nfev), zeta the Hermite spline through the nodes
    with the stepper's own slopes."""
    rate = xi_rate(data)
    kind = "periodic" if data.frame.const is None else "constant"
    *nodes, nfev = _dop853(phase_law(data, float(two_c), float(b_s), window),
                           rate, float(x0), float(x1), float(xi0),
                           STEP_CAP_PER_RATE[kind] / rate_floor(rate))
    ts, zs, dz = np.array(nodes)
    if not np.all(np.isfinite([zs, dz])):
        raise NonFiniteState("phase integration produced non-finite values")
    if ts[0] > ts[-1]:
        ts, zs, dz = ts[::-1], zs[::-1], dz[::-1]
    return rate, cubic_hermite(ts, zs, dz), nfev


# A bystander flow settles when its Magnus steps h and 2h give propagators
# within FLOW_TOL of each other, relative in the Frobenius norm, at every
# sample.  V_interp's kinks inside a step leave the product first order in
# h, so that difference bounds the error of the step-h product itself.
FLOW_TOL = 1e-5
FLOW_HALVINGS = 6  # most halvings of the first step, 0.05/rate or less
SAMPLE_STRIDE = 32  # first steps per sample: about four per turn of xi


@dataclass
class RXiRun:
    """A bystander flow from (lnR0, xi0) at x0: samples xs from x0 to x1,
    with ln_R, xi and Phi, the propagator of (Re rho, Im rho) from x0.
    nfev counts the evaluations of V, two per Magnus step."""

    xs: np.ndarray
    ln_R: np.ndarray
    xi: np.ndarray
    Phi: np.ndarray
    nfev: int


def bystander_phase(data: DerivedPeriodicData, x):
    """phi = 2 gamma1 + Gamma2, so that xi = 2 eta + phi."""
    return 2.0 * data.gamma1_f(x) + data.Gamma2_f(x)


def _propagate(data: DerivedPeriodicData, V, x0: float, x1: float, n: int,
               stride: int) -> np.ndarray:
    """Phi at x0 + t H, H = (x1 - x0)/n, for t = 0, stride, 2 stride ... n,
    by ``magnus_chain``.

    Phi' = A Phi, A = (V/omega) [[Psi sin phi, (u - v) + Psi cos phi],
    [Psi cos phi - (u - v), -Psi sin phi]], the real form of rho' =
    i(V/omega)(-(u - v) rho + Psi e^{-i phi} conj(rho)).
    """
    def exponent(x, H):  # Omega = H/2 (A1 + A2) + w [A2, A1]
        w = np.sqrt(3.0) * H * H / 12.0  # the commutator's weight
        g = np.asarray(V(x), dtype=float) / data.omega
        Pg, phi = g * data.Psi_f(x), bystander_phase(data, x)
        d = g * (data.u_f(x) - data.v_f(x))
        alpha, Pc = Pg * np.sin(phi), Pg * np.cos(phi)
        (a1, a2), (b1, b2), (c1, c2) = alpha.T, (Pc + d).T, (Pc - d).T
        return (0.5 * H * (a1 + a2) + w * (b2 * c1 - b1 * c2),
                0.5 * H * (b1 + b2) + 2 * w * (a2 * b1 - b2 * a1),
                0.5 * H * (c1 + c2) + 2 * w * (c2 * a1 - a2 * c1))

    return magnus_chain(exponent, x0, x1, n, stride)


def integrate_R_xi(data: DerivedPeriodicData, V, x0: float, x1: float,
                   xi0: float, lnR0: float = 0.0) -> RXiRun:
    """(ln R, xi) of a bystander from (lnR0, xi0) at x0 to x1 under V.

    rho0 = e^{i eta0}, eta0 = (xi0 - phi(x0))/2, rides the propagator Phi
    of ``_propagate``, and xi = 2 arg(Phi rho0) + phi.  The step starts at
    0.05/rate or less and halves until the product agrees with the one at
    twice the step to FLOW_TOL (StepSizeUnderflow after FLOW_HALVINGS
    halvings, NonFiniteState on overflow).  V takes numpy arrays.
    """
    x0, x1 = float(x0), float(x1)
    n = max(2, int(np.ceil(abs(x1 - x0) / (0.05 / rate_floor(xi_rate(data))))))
    n += n % 2
    eta0 = 0.5 * (xi0 - float(bystander_phase(data, x0)))
    stride = SAMPLE_STRIDE
    coarse = _propagate(data, V, x0, x1, n // 2, stride // 2)
    nfev = n
    for _ in range(FLOW_HALVINGS + 1):
        Phi = _propagate(data, V, x0, x1, n, stride)
        nfev += 2 * n
        if not np.all(np.isfinite(Phi)):
            raise NonFiniteState("bystander flow left the finite range")
        gap = np.sum((Phi - coarse) ** 2, axis=(1, 2)) \
            / np.sum(Phi * Phi, axis=(1, 2))
        if np.max(gap) <= FLOW_TOL * FLOW_TOL:
            break
        coarse, n, stride = Phi, 2 * n, 2 * stride
    else:
        raise StepSizeUnderflow(
            f"bystander flow not settled at {n // 2} Magnus steps")
    t = decimate(n + 1, stride)
    xs = x0 + t * ((x1 - x0) / n)
    xs[-1] = x1
    c, s = math.cos(eta0), math.sin(eta0)
    x, y = (Phi[:, :, 0] * c + Phi[:, :, 1] * s).T  # Phi rho0
    turn = np.unwrap(np.arctan2(c * y - s * x, c * x + s * y))  # eta - eta0
    phi = bystander_phase(data, xs)
    ln_R = lnR0 + np.log(np.hypot(x, y) / math.hypot(c, s))
    return RXiRun(xs=xs, ln_R=ln_R, xi=xi0 + 2.0 * turn + (phi - phi[0]),
                  Phi=Phi, nfev=nfev)
