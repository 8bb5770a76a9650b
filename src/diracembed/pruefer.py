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

from . import _util
from ._util import cubic_hermite, decimate
from .errors import NonFiniteState, StepSizeUnderflow, ZeroSolution
from .floquet import (GAUSS_NODES, DerivedPeriodicData, expm_traceless,
                      gamma_derivative, prefix_products)

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
# II.5) as the repr of scipy's floats; the stepper reads the nonzero (index,
# coefficient) pairs of stages 1..11 and B.  The error is of order 7: steps
# go as err^-1/8.
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
_FEEDS = [[(j, a) for j, a in enumerate(row) if a] for row in A[1:] + [B]]
_ERRS = [(j, e5, e3) for j, (e5, e3) in enumerate(zip(E5, E3)) if e5 or e3]
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
LOCK_RTOL, LOCK_ATOL = 1e-8, 1e-11  # the tolerances of every phase lock


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


def phase_slope(data: DerivedPeriodicData, gain):
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


def _dop853(slope, rate: float, x0: float, x1: float, xi0: float):
    """Accepted nodes (x, zeta), their slopes zeta' and nfev of zeta' =
    slope(x, zeta + rate*x) by scipy's DOP853 control on floats, steps
    capped at 0.5/rate.  The slopes are the first stage and each step's
    last (first same as last), so they cost no evaluation.  A stage that
    raises (math.cos(inf), a float division by zero) is a NaN error: a gain
    that stops being finite ends in StepSizeUnderflow."""
    rtol, atol, max_step = LOCK_RTOL, LOCK_ATOL, 0.5 / rate_floor(rate)
    sign, length = (1.0 if x1 > x0 else -1.0), abs(x1 - x0)
    x, z = x0, xi0 - rate * x0
    f = slope(x, z + rate * x)
    scale = atol + abs(z) * rtol
    d0, d1 = abs(z) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    x_try = x + h0 * sign  # x1 == x0 gives h0 = 0: ZeroDivisionError below
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
            if not h_abs >= min_step:  # NaN too, where scipy loops forever
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.")
            x_new = min(x + h_abs, x1) if sign > 0.0 else max(x - h_abs, x1)
            h = x_new - x
            h_abs = abs(h)
            nfev += N_STAGES
            try:
                for s, feed in enumerate(_FEEDS, 1):
                    dz = 0.0
                    for j, a in feed:
                        dz += K[j] * a
                    if s < N_STAGES:
                        xc = x + C[s] * h
                        K[s] = slope(xc, z + dz * h + rate * xc)
                z_new = z + h * dz
                f_new = slope(x + h, z_new + rate * (x + h))  # E5, E3 skip it
                e5 = e3 = 0.0
                for j, a5, a3 in _ERRS:
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


def phase_flow(data: DerivedPeriodicData, gain, x0: float, x1: float,
               xi0: float):
    """Solve xi' = 2k + delta' + gain(x, xi) (u - v - Psi cos xi) from x0 to x1.

    The phase lock's gain is its slaved 2C w(x) sin xi/(x - b_s).  The
    stepper carries zeta = xi - rate*x (bounded, well scaled for error
    control).  Returns (rate, zeta, nfev), zeta the Hermite spline through
    the nodes with the stepper's own slopes.  gain takes floats.
    """
    rate = xi_rate(data)
    *nodes, nfev = _dop853(phase_slope(data, gain), rate, float(x0),
                           float(x1), float(xi0))
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
    ln_R_end: float
    nfev: int


def bystander_phase(data: DerivedPeriodicData, x):
    """phi = 2 gamma1 + Gamma2, so that xi = 2 eta + phi."""
    return 2.0 * data.gamma1_f(x) + data.Gamma2_f(x)


def _propagate(data: DerivedPeriodicData, V, x0: float, x1: float, n: int,
               stride: int) -> np.ndarray:
    """Phi at x0 + t H, H = (x1 - x0)/n, for t = 0, stride, 2 stride ... n.

    Phi' = A Phi, A = (V/omega) [[Psi sin phi, (u - v) + Psi cos phi],
    [Psi cos phi - (u - v), -Psi sin phi]], the real form of rho' =
    i(V/omega)(-(u - v) rho + Psi e^{-i phi} conj(rho)).  Each step is the
    fourth-order Magnus exponent at its two Gauss points, taken by
    ``expm_traceless``; a stride of steps is multiplied out by halving
    (stride is a power of two), the strides of a block of about QUAD_BLOCK
    steps are chained by ``prefix_products``, and Python loops over blocks.
    """
    H = (x1 - x0) / n
    w = np.sqrt(3.0) * H * H / 12.0  # the commutator's weight
    block = max(stride, _util.QUAD_BLOCK // stride * stride)
    out, carry = [np.eye(2)[None]], np.eye(2)
    for start in range(0, n, block):
        m = min(block, n - start)
        x = x0 + H * (np.arange(start, start + m)[:, None] + GAUSS_NODES)
        g = np.asarray(V(x), dtype=float) / data.omega
        Pg, phi = g * data.Psi_f(x), bystander_phase(data, x)
        d = g * (data.u_f(x) - data.v_f(x))
        alpha, Pc = Pg * np.sin(phi), Pg * np.cos(phi)
        (a1, a2), (b1, b2), (c1, c2) = alpha.T, (Pc + d).T, (Pc - d).T
        # Omega = H/2 (A1 + A2) + w [A2, A1]
        steps = expm_traceless(0.5 * H * (a1 + a2) + w * (b2 * c1 - b1 * c2),
                               0.5 * H * (b1 + b2) + 2 * w * (a2 * b1 - b2 * a1),
                               0.5 * H * (c1 + c2) + 2 * w * (c2 * a1 - a2 * c1))
        # Identity steps pad the last block to whole strides: its last
        # sample then falls on x1.
        steps = np.concatenate([steps, np.broadcast_to(
            np.eye(2), (-m % stride, 2, 2))]).reshape(-1, stride, 2, 2)
        while steps.shape[1] > 1:
            steps = steps[:, 1::2] @ steps[:, 0::2]
        out.append(prefix_products(steps[:, 0]) @ carry)
        carry = out[-1][-1]
    return np.concatenate(out)


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
                  Phi=Phi, ln_R_end=float(ln_R[-1]), nfev=nfev)
