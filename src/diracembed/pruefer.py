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

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from ._util import cumulative_blocks, decimate
from .errors import NonFiniteState, StepSizeUnderflow, ZeroSolution
from .floquet import DerivedPeriodicData, gamma_derivative
from .periodic_core import IntegratorSpec

__all__ = [
    "PrueferState",
    "to_prufer",
    "from_prufer",
    "prufer_rhs",
    "R_xi_rhs",
    "prufer_system",
    "R_xi_system",
    "PhaseFlow",
    "phase_flow",
    "RXiRun",
    "integrate_R_xi",
]

TWO_PI = 2.0 * np.pi


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
    a1 = np.sqrt(float(data.u_f(x)))
    a2 = np.sqrt(float(data.v_f(x)))
    return np.array([
        state.R * a1 * np.sin(state.theta1),
        state.R * a2 * np.sin(state.theta2),
    ])


def prufer_rhs(data: DerivedPeriodicData, x, theta1, theta2, V_x):
    """Rates ((ln R)', theta1', theta2') in the two-angle form."""
    u = data.u_f(x)
    v = data.v_f(x)
    g1p, g2p = gamma_derivative(data.sol, data, x)
    w = data.omega
    rlog = (V_x / w) * (u * np.sin(2.0 * theta1) - v * np.sin(2.0 * theta2))
    common = (2.0 * V_x / w) * (u * np.sin(theta1) ** 2 - v * np.sin(theta2) ** 2)
    return rlog, g1p - common, g2p - common


def R_xi_rhs(data: DerivedPeriodicData, x, xi, V_x):
    """Rates ((ln R)', xi') in the single-phase form."""
    u = data.u_f(x)
    v = data.v_f(x)
    Psi = data.Psi_f(x)
    w = data.omega
    rlog = (V_x / w) * Psi * np.sin(xi)
    xip = 2.0 * data.k + data.delta_f.deriv(x) \
        - (2.0 * V_x / w) * (u - v - Psi * np.cos(xi))
    return rlog, xip


def prufer_system(data: DerivedPeriodicData, V):
    """ODE handle for y = (ln R, theta1, theta2) under the perturbation V."""

    def rhs(x, y):
        rlog, t1p, t2p = prufer_rhs(data, x, y[1], y[2], V(x))
        return np.array([rlog, t1p, t2p])

    return rhs


def R_xi_system(data: DerivedPeriodicData, V):
    """ODE handle for y = (ln R, xi) under the perturbation V."""

    def rhs(x, y):
        rlog, xip = R_xi_rhs(data, x, y[1], V(x))
        return np.array([rlog, xip])

    return rhs


def xi_rate(data: DerivedPeriodicData) -> float:
    """Mean angular rate of xi: 2k plus the winding of delta per period."""
    return 2.0 * data.k + data.delta_f.slope


def rate_floor(rate: float) -> float:
    """|rate| floored at 1e-2: the phase speed that sizes steps and grids."""
    return max(abs(rate), 1e-2)


@dataclass
class PhaseFlow:
    """Dense phase from ``phase_flow``: xi = zeta(x) + rate*x."""

    rate: float
    zeta: object  # Hermite PPoly of xi - rate*x through the accepted nodes
    nfev: int

    def xi_at(self, x):
        return self.zeta(x) + self.rate * np.asarray(x, dtype=float)


def phase_flow(data: DerivedPeriodicData, gain, x0: float, x1: float,
               xi0: float, spec: IntegratorSpec) -> PhaseFlow:
    """Solve xi' = 2k + delta' + gain(x, xi) (u - v - Psi cos xi) from x0 to x1.

    The bystander flow under V has gain = -2V(x)/omega; the phase lock
    has its slaved gain 2C w(x) sin xi/(x - b_s).  The state is
    zeta = xi - rate*x (bounded, well scaled for error control); gain
    must accept arrays as well as scalars.
    """
    rate = xi_rate(data)
    k2 = 2.0 * data.k

    def slope(x, xi):
        d, u, v, P = data.frame(x)
        return k2 + d - rate + gain(x, xi) * (u - v - P * np.cos(xi))

    sol = solve_ivp(lambda x, z: [slope(x, z[0] + rate * x)], (x0, x1),
                    [xi0 - rate * x0], method="DOP853", rtol=spec.rel_tol,
                    atol=spec.abs_tol, max_step=0.5 / rate_floor(rate))
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFiniteState("phase integration produced non-finite values")
    # Hermite spline through the accepted nodes; slopes from the rhs.
    ts, zs = sol.t, sol.y[0]
    dz = slope(ts, zs + rate * ts)
    if ts[0] > ts[-1]:
        ts, zs, dz = ts[::-1], zs[::-1], dz[::-1]
    return PhaseFlow(rate=rate, zeta=CubicHermiteSpline(ts, zs, dz),
                     nfev=sol.nfev)


@dataclass
class RXiRun(PhaseFlow):
    """Result of the long-horizon (ln R, xi) integration.

    ``xs``/``ln_R``/``xi`` are decimated samples (about four per rotation
    of xi); ``ln_R_end`` carries the undecimated cumulative value at x1.
    ``xi_at`` is accurate everywhere; ``ln_R_at`` interpolates samples.
    """

    xs: np.ndarray
    ln_R: np.ndarray
    xi: np.ndarray
    ln_R_end: float

    def ln_R_at(self, x):
        return np.interp(x, self.xs, self.ln_R) if self.xs[0] <= self.xs[-1] \
            else np.interp(x, self.xs[::-1], self.ln_R[::-1])


def integrate_R_xi(data: DerivedPeriodicData, V, x0: float, x1: float, xi0: float,
                   spec: IntegratorSpec | None = None,
                   lnR0: float = 0.0) -> RXiRun:
    """Integrate xi as a drift variable and recover ln R by quadrature.

    xi never feeds on ln R, so the phase is solved first by
    ``phase_flow`` and (ln R)' = (V/omega) Psi sin xi is then accumulated
    with a fourth-order cumulative rule on a uniform grid of step
    0.05/rate, in bounded-memory blocks.

    V must accept numpy arrays.
    """
    w = data.omega
    flow = phase_flow(data, lambda x, xi: -2.0 * V(x) / w, x0, x1, xi0,
                      spec or IntegratorSpec())
    arate = rate_floor(flow.rate)
    flip = x0 > x1

    h = 0.05 / arate
    stride = max(1, int(round((np.pi / (2.0 * arate)) / h)))
    lo, hi = (x0, x1) if not flip else (x1, x0)
    n = max(2, int(np.ceil((hi - lo) / h)))
    h = (hi - lo) / n  # exact uniform grid over the requested range

    def f(xs):
        return (np.asarray(V(xs), dtype=float) / w) * data.Psi_f(xs) \
            * np.sin(flow.xi_at(xs))

    xs_out: list[np.ndarray] = []
    ln_out: list[np.ndarray] = []
    # The cumulative rule runs left to right; when integrating downward
    # the anchor lnR0 sits at the right end and is applied afterwards.
    for start, xs, F in cumulative_blocks(f, lo, h, n, 0.0 if flip else lnR0):
        keep = decimate(xs.size, stride)
        if start + xs.size - 1 < n:  # the seam sample opens the next block
            keep = keep[keep < xs.size - 1]
        xs_out.append(xs[keep])
        ln_out.append(F[keep])
    total = F[-1]

    xs_all = np.concatenate(xs_out)
    ln_all = np.concatenate(ln_out)
    if flip:  # ln R(x) = lnR0 - integral from x up to x0; reorder x0 -> x1
        ln_all = ln_all + (lnR0 - total)
        ln_end = lnR0 - total
        xs_all, ln_all = xs_all[::-1], ln_all[::-1]
    else:
        ln_end = total
    return RXiRun(**vars(flow), xs=xs_all, ln_R=ln_all,
                  xi=flow.xi_at(xs_all), ln_R_end=float(ln_end))
