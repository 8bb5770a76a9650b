"""Floquet data for the periodic system: monodromy, bands, and the complex
solution g with g(x+1) = exp(i k) g(x).

Conventions fixed here and used everywhere downstream:

* k = arccos(trace/2) in (0, pi) strictly inside a band; g is built from
  the monodromy eigenvector of the eigenvalue exp(+i k), so the Floquet
  condition holds with that k.
* omega = 2 Im(conj(g1) g2) is the (constant) Wronskian invariant of the
  conjugate pair; its sign is a property of the band and is kept as-is.
* gamma_j = unwrapped arg g_j = kx + phi_j with phi_j periodic mod 2pi;
  Gamma1 = 2 gamma2 - 2 gamma1;
  Psi = sqrt(|g1|^4 + |g2|^4 - 2 |g1|^2 |g2|^2 cos Gamma1) > 0;
  Gamma2 solves sin Gamma2 = -|g2|^2 sin Gamma1 / Psi,
                cos Gamma2 = (|g1|^2 - |g2|^2 cos Gamma1) / Psi;
  delta = 2 phi1 + Gamma2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _util
from ._util import FrameTable, PeriodicField, write_rows
from .errors import (
    BandEdge,
    DegenerateEigenvector,
    InvariantDrift,
    NonFiniteState,
    ScanTooCoarse,
    StepSizeUnderflow,
    UnwrapJump,
)
from .periodic_core import PeriodicCoefficient, eval_coefficient

__all__ = [
    "Monodromy",
    "Band",
    "BandStructure",
    "FloquetSolution",
    "DerivedPeriodicData",
    "monodromy",
    "band_scan",
    "floquet_solution",
    "derived_data",
    "gamma_derivative",
    "in_band_samples",
    "write_period_csv",
]

TWO_PI = 2.0 * np.pi
# Uniform period-grid intervals of a Floquet frame, one Magnus step each.
FRAME_INTERVALS = 4096
BANDS_TOL = 1e-8  # monodromy's rel_tol for every trace band_scan takes


# Magnus steps per period: the first product, and the cap of the doubling.
MAGNUS_STEPS = 128
MAGNUS_MAX_STEPS = 2 ** 14
_MAGNUS_BATCH = 2 ** 18  # energies x steps per vectorized product (8 MB)
GAUSS_NODES = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


@dataclass(frozen=True)
class Monodromy:
    """Period map of the system: a 2x2 matrix at one energy, (E, 2, 2) at
    E energies; trace follows it, a float or an array."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise NonFiniteState("monodromy left the finite range")
        # Rounding in det grows like |M|^2; deep in a gap |M| ~ |trace|.
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        drift = np.abs(det - 1.0) > 1e-8 * np.sum(m ** 2, axis=(-2, -1))
        if np.any(drift):
            raise InvariantDrift(f"monodromy determinant {det[drift].flat[0]} "
                                 "deviates from 1")

    @property
    def trace(self):
        tr = self.matrix[..., 0, 0] + self.matrix[..., 1, 1]
        return float(tr) if tr.ndim == 0 else tr


def expm_traceless(a, b, c) -> np.ndarray:
    """exp Omega for Omega = [[a, b], [c, -a]], elementwise over arrays.

    exp Omega = C I + S Omega with C = cos s, S = sin s / s, s^2 = det
    Omega (cosh and sinh where det Omega < 0).  Omega = 0 gives I exactly.
    Returns a.shape + (2, 2).
    """
    neg_det = a * a + b * c
    s = np.sqrt(np.abs(neg_det))
    gap = neg_det > 0.0
    C = np.where(gap, np.cosh(s), np.cos(s))
    S = np.where(gap, np.sinh(s) / np.where(gap, s, 1.0), np.sinc(s / np.pi))
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0] = C + S * a
    out[..., 0, 1] = S * b
    out[..., 1, 0] = S * c
    out[..., 1, 1] = C - S * a
    return out


def magnus_chain(exponent, x0: float, x1: float, n: int,
                 stride: int = 1) -> np.ndarray:
    """Phi' = A Phi, Phi(x0) = I, at x0 + t h for t = 0, stride, 2 stride
    ... n, h = (x1 - x0)/n: the one product of fourth-order Magnus steps.

    exponent(x, h) gives the (a, b, c) of each step's exponent from its two
    Gauss points x (m, 2), with any leading batch axes (energies).  Blocks
    of about QUAD_BLOCK steps are taken by ``expm_traceless``; identity
    steps pad the last block to whole strides, so its last sample falls on
    x1; a stride (a power of two) is multiplied out by halving, the strides
    are chained by a doubling scan, and each block starts from the last
    product of the one before.  Returns batch + (samples, 2, 2).
    """
    h = (x1 - x0) / n
    block = max(stride, _util.QUAD_BLOCK // stride * stride)
    out, carry = [], None
    for start in range(0, n, block):
        m = min(block, n - start)
        steps = expm_traceless(*exponent(
            x0 + h * (np.arange(start, start + m)[:, None] + GAUSS_NODES), h))
        batch = steps.shape[:-3]
        if m % stride:
            steps = np.concatenate([steps, np.broadcast_to(
                np.eye(2), batch + (-m % stride, 2, 2))], axis=-3)
        steps = steps.reshape(batch + (-1, stride, 2, 2))
        while steps.shape[-3] > 1:
            steps = steps[..., 1::2, :, :] @ steps[..., 0::2, :, :]
        steps, shift = steps[..., 0, :, :], 1
        while shift < steps.shape[-3]:
            steps[..., shift:, :, :] = \
                steps[..., shift:, :, :] @ steps[..., :-shift, :, :]
            shift *= 2
        out.append(steps if carry is None else steps @ carry)
        carry = out[-1][..., -1:, :, :]
    return np.concatenate(
        [np.broadcast_to(np.eye(2), batch + (1, 2, 2))] + out, axis=-3)


def _cell_exponents(p: PeriodicCoefficient, q: PeriodicCoefficient, x, h):
    """Omega = h/2 (A1 + A2) + (sqrt(3) h^2/12) [A2, A1], the fourth-order
    Magnus exponent of A = [[-q, lam + p], [p - lam, q]] at the two Gauss
    points x (n, 2) of each step.  It is trace-free, [[a, b], [c, -a]],
    and affine in lam: returns the pairs (a0, a1), (b0, b1), (c0, c1) of
    a = a0 + lam a1 and so on: one p, q evaluation serves every energy."""
    p1, p2 = eval_coefficient(p, x).T
    q1, q2 = eval_coefficient(q, x).T
    k = np.sqrt(3.0) * h * h / 6.0  # twice the commutator weight
    cross = k * (q1 * p2 - q2 * p1)
    psum = 0.5 * h * (p1 + p2)
    return ((-0.5 * h * (q1 + q2), k * (p1 - p2)),
            (psum + cross, h + k * (q1 - q2)),
            (psum - cross, -h + k * (q1 - q2)))


def _magnus_product(p: PeriodicCoefficient, q: PeriodicCoefficient,
                    lams: np.ndarray, n: int) -> np.ndarray:
    """exp(Omega_{n-1}) ... exp(Omega_0) over n equal steps of a period, per
    energy: ``magnus_chain`` of ``_cell_exponents`` in one stride, a chunk
    of energies per call.  Returns the (E, 2, 2) products."""
    out = np.empty((lams.size, 2, 2))
    chunk = max(1, _MAGNUS_BATCH // n)
    for lo in range(0, lams.size, chunk):
        lam = lams[lo:lo + chunk, None]
        out[lo:lo + chunk] = magnus_chain(
            lambda x, h: [e0 + lam * e1 for e0, e1 in
                          _cell_exponents(p, q, x, h)], 0.0, 1.0, n, n)[:, -1]
    return out


def monodromy(p: PeriodicCoefficient, q: PeriodicCoefficient, lam,
              rel_tol: float = 1e-10) -> Monodromy:
    """Period map at one energy (a float) or at an array of energies.

    A product of fourth-order Magnus steps: start at MAGNUS_STEPS per
    period and double N while |tr_2N - tr_N| > rel_tol * max(1, |tr_2N|),
    then keep the 2N product.  Each energy stops doubling on its own, so
    a trace does not depend on the other energies in the call.  Raises
    StepSizeUnderflow when an energy has not settled at MAGNUS_MAX_STEPS.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    mats = np.empty((lams.size, 2, 2))
    todo = np.arange(lams.size)
    n = MAGNUS_STEPS
    # Deep in a gap the product may overflow; a non-finite trace counts as
    # settled here, and Monodromy rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.trace(_magnus_product(p, q, lams, n), axis1=1, axis2=2)
        while todo.size:
            if n >= MAGNUS_MAX_STEPS:
                raise StepSizeUnderflow(
                    f"monodromy not settled at {n} Magnus steps per period "
                    f"(rel_tol {rel_tol:g})")
            n *= 2
            fine = _magnus_product(p, q, lams[todo], n)
            tr2 = np.trace(fine, axis1=1, axis2=2)
            moved = np.abs(tr2 - tr) > rel_tol * np.maximum(1.0, np.abs(tr2))
            mats[todo[~moved]] = fine[~moved]
            todo, tr = todo[moved], tr2[moved]
    return Monodromy(matrix=mats[0] if np.ndim(lam) == 0 else mats)


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    k_direction: int  # +1 if k increases with lam across the band, else -1


@dataclass
class BandStructure:
    scan_range: tuple[float, float]
    resolution: float
    lambdas: np.ndarray
    traces: np.ndarray
    bands: list[Band]

    @property
    def edges(self) -> list[float]:
        out = []
        lo, hi = self.scan_range
        for b in self.bands:
            if b.lo > lo:
                out.append(b.lo)
            if b.hi < hi:
                out.append(b.hi)
        return out


def band_scan(p: PeriodicCoefficient, q: PeriodicCoefficient,
              lambda_range: tuple[float, float],
              resolution: float) -> BandStructure:
    """Scan trace(lam), bracket |trace|/2 - 1 sign changes, bisect the edges.

    Tangential touchings of |trace|/2 = 1 (closed gaps) count as interior.
    Raises ScanTooCoarse when in/out status flips twice across adjacent
    grid points, which indicates a feature narrower than two strides.
    """
    lo, hi = map(float, lambda_range)
    if hi <= lo:
        return BandStructure((lo, hi), resolution, np.array([]), np.array([]), [])

    def trace(lam):
        return monodromy(p, q, lam, BANDS_TOL).trace

    n = max(2, int(round((hi - lo) / resolution)) + 1)
    lams = np.linspace(lo, hi, n)
    traces = monodromy(p, q, lams, BANDS_TOL).trace
    inside = np.abs(traces) / 2.0 < 1.0 + 1e-12

    for i in range(1, len(inside) - 1):
        if inside[i - 1] != inside[i] and inside[i] != inside[i + 1]:
            raise ScanTooCoarse(
                f"band/gap narrower than two strides near lambda={lams[i]:.6g}"
            )

    def edge_between(out: int, inn: int) -> float:
        # grid sample out lies outside the band, inn inside; the pair may
        # arrive in either x-order.
        a, b = lams[out], lams[inn]
        fa = abs(traces[out]) / 2.0 - 1.0
        for _ in range(64):
            mid = 0.5 * (a + b)
            if abs(b - a) <= resolution * 1e-3:
                break
            fm = abs(trace(mid)) / 2.0 - 1.0
            if (fa <= 0.0) == (fm <= 0.0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)

    bands: list[Band] = []
    i = 0
    while i < n:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and inside[j + 1]:
            j += 1
        b_lo = lams[i] if i == 0 else edge_between(i - 1, i)
        b_hi = lams[j] if j == n - 1 else edge_between(j + 1, j)
        mid = 0.5 * (b_lo + b_hi)
        h = max(1e-6, min(resolution, (b_hi - b_lo) / 8.0) / 2.0)
        k_lo = np.arccos(np.clip(trace(mid - h) / 2.0, -1.0, 1.0))
        k_hi = np.arccos(np.clip(trace(mid + h) / 2.0, -1.0, 1.0))
        bands.append(Band(b_lo, b_hi, 1 if k_hi >= k_lo else -1))
        i = j + 1
    return BandStructure((lo, hi), resolution, lams, traces, bands)


def _unwrap_guard(raw_angles: np.ndarray, what: str) -> np.ndarray:
    """Unwrap a dense angle sequence, refusing jumps >= pi/2 per step."""
    d = np.diff(raw_angles)
    d = (d + np.pi) % TWO_PI - np.pi
    if d.size and np.max(np.abs(d)) >= np.pi / 2.0:
        raise UnwrapJump(f"{what}: phase step {np.max(np.abs(d)):.3f} >= pi/2; refine grid")
    return raw_angles[0] + np.concatenate(([0.0], np.cumsum(d)))


@dataclass
class Trajectory:
    """A propagator at the grid points xs: ys[i] = Phi(xs[i]), (n+1, 2, 2)."""

    xs: np.ndarray
    ys: np.ndarray
    nfev: int


def integrate(exponent, x0: float, x1: float, n: int) -> Trajectory:
    """Phi' = A Phi, Phi(x0) = I, at x0 + i h, i = 0..n, h = (x1 - x0)/n, by
    ``magnus_chain``; nfev counts the 2n Gauss points."""
    return Trajectory(x0 + (x1 - x0) / n * np.arange(n + 1),
                      magnus_chain(exponent, x0, x1, n), 2 * n)


@dataclass
class FloquetSolution:
    """g on the period grid plus the data needed to evaluate it anywhere."""

    p: PeriodicCoefficient
    q: PeriodicCoefficient
    lam: float
    k: float
    omega: float
    grid: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def floquet_solution(p: PeriodicCoefficient, q: PeriodicCoefficient,
                     lam: float) -> FloquetSolution:
    """Build g(x) = Phi(x) v on the FRAME_INTERVALS+1 points of a period
    grid, Phi the cumulative product of one Magnus step per interval.

    v = g(0) is the monodromy eigenvector for exp(+i k), unit norm, first
    significant component rotated real-positive.  Raises BandEdge outside
    a band or on its edge and DegenerateEigenvector when the eigenpair
    cannot be resolved.
    """
    traj = integrate(lambda x, h: [e0 + lam * e1 for e0, e1 in
                                   _cell_exponents(p, q, x, h)],
                     0.0, 1.0, FRAME_INTERVALS)
    grid, mats = traj.xs, traj.ys  # mats[i] = Phi(grid[i])
    mono = Monodromy(matrix=mats[-1])
    half = mono.trace / 2.0
    if abs(half) >= 1.0:
        raise BandEdge(f"lambda={lam} lies in a gap or at an edge "
                       f"(|trace|/2 = {abs(half):.6f})")
    k = float(np.arccos(half))

    w, vecs = np.linalg.eig(mono.matrix)
    idx = int(np.argmax(w.imag))
    if w[idx].imag <= 1e-12:
        raise DegenerateEigenvector(f"monodromy eigenvalues {w} nearly real")
    v = vecs[:, idx].astype(complex)
    v /= np.linalg.norm(v)
    j = 0 if abs(v[0]) > 1e-8 else 1
    v *= np.conj(v[j]) / abs(v[j])

    g1 = mats[:, 0, 0] * v[0] + mats[:, 0, 1] * v[1]
    g2 = mats[:, 1, 0] * v[0] + mats[:, 1, 1] * v[1]

    omega_grid = 2.0 * np.imag(np.conj(g1) * g2)
    omega = float(np.mean(omega_grid))
    scale = float(np.max(np.abs(g1) ** 2 + np.abs(g2) ** 2))
    if abs(omega) < 1e-10 * scale:
        raise DegenerateEigenvector("Wronskian invariant omega vanishes")
    if np.max(np.abs(omega_grid - omega)) > 1e-8 * max(1.0, abs(omega)):
        raise DegenerateEigenvector("omega fails to stay constant on the grid")

    mult = np.exp(1j * k)
    err = np.abs(np.array([g1[-1], g2[-1]]) - mult * np.array([g1[0], g2[0]]))
    if np.max(err) > 1e-8 * max(1.0, float(np.hypot(abs(g1[0]), abs(g2[0])))):
        raise DegenerateEigenvector("Floquet condition g(1) = e^{ik} g(0) failed")
    if min(np.min(np.abs(g1)), np.min(np.abs(g2))) <= 0.0:
        raise DegenerateEigenvector("a component of g vanishes on the grid")

    return FloquetSolution(p=p, q=q, lam=lam, k=k, omega=omega, grid=grid,
                           g1=g1, g2=g2)


@dataclass
class DerivedPeriodicData:
    """Phase/modulus functions of g on the period grid, with evaluators.

    Evaluators are periodic cubic splines (plus exact winding slopes), so
    every quantity extends to all real x through the Floquet structure.
    """

    sol: FloquetSolution
    x: np.ndarray
    u: np.ndarray            # |g1|^2
    v: np.ndarray            # |g2|^2
    gamma1: np.ndarray
    gamma2: np.ndarray
    phi1: np.ndarray
    Gamma1: np.ndarray
    Psi: np.ndarray
    Gamma2: np.ndarray
    delta: np.ndarray
    u_f: object
    v_f: object
    Psi_f: object
    gamma1_f: object
    gamma2_f: object
    Gamma2_f: object
    delta_f: object
    Psi_mean: float

    @cached_property
    def frame(self) -> FrameTable:
        """The phase law's (delta', u, v, Psi) in one lookup; built on first use."""
        return FrameTable(self.x, self.delta_f, self.u_f, self.v_f, self.Psi_f)

    @property
    def k(self) -> float:
        return self.sol.k

    @property
    def omega(self) -> float:
        return self.sol.omega

    @property
    def lam(self) -> float:
        return self.sol.lam

    def g_eval(self, x):
        """g at arbitrary x via the periodic moduli and winding phases."""
        g1 = np.sqrt(self.u_f(x)) * np.exp(1j * self.gamma1_f(x))
        g2 = np.sqrt(self.v_f(x)) * np.exp(1j * self.gamma2_f(x))
        return g1, g2


def _make_field(grid, values, slope=0.0, force_const=False):
    values = np.asarray(values, dtype=float)
    spread = np.max(values) - np.min(values)
    if force_const or spread < 1e-12 * max(1.0, np.max(np.abs(values))):
        return PeriodicField(slope, const=float(np.mean(values)))
    return PeriodicField(slope, grid=grid, values=values)


def derived_data(sol: FloquetSolution) -> DerivedPeriodicData:
    """Moduli, unwrapped phases, and the coupling phases Gamma1/Gamma2/delta."""
    x = sol.grid
    u = np.abs(sol.g1) ** 2
    v = np.abs(sol.g2) ** 2
    gamma1 = _unwrap_guard(np.angle(sol.g1), "gamma1")
    gamma2 = _unwrap_guard(np.angle(sol.g2), "gamma2")
    k = sol.k

    Gamma1 = 2.0 * gamma2 - 2.0 * gamma1
    Psi = np.sqrt(u ** 2 + v ** 2 - 2.0 * u * v * np.cos(Gamma1))
    if np.min(Psi) <= 0.0:
        raise DegenerateEigenvector("Psi vanishes on the grid")
    Gamma2 = _unwrap_guard(np.arctan2(-v * np.sin(Gamma1), u - v * np.cos(Gamma1)),
                           "Gamma2")
    phi1 = gamma1 - k * x
    delta = 2.0 * phi1 + Gamma2

    def winding(arr, step):
        w = (arr[-1] - arr[0] - step) / TWO_PI
        m = int(round(w))
        if abs(w - m) > 1e-6:
            raise UnwrapJump(f"non-integer winding {w} in periodic phase")
        return m

    m1 = winding(gamma1, k)
    m2 = winding(gamma2, k)
    w_G2 = winding(Gamma2, 0.0)
    w_delta = 2 * m1 + w_G2

    const = sol.p.is_constant and sol.q.is_constant
    data = DerivedPeriodicData(
        sol=sol, x=x, u=u, v=v, gamma1=gamma1, gamma2=gamma2,
        phi1=phi1, Gamma1=Gamma1, Psi=Psi, Gamma2=Gamma2, delta=delta,
        u_f=_make_field(x, u, force_const=const),
        v_f=_make_field(x, v, force_const=const),
        Psi_f=_make_field(x, Psi, force_const=const),
        gamma1_f=_make_field(x, gamma1 - (k + TWO_PI * m1) * x,
                             slope=k + TWO_PI * m1, force_const=const),
        gamma2_f=_make_field(x, gamma2 - (k + TWO_PI * m2) * x,
                             slope=k + TWO_PI * m2, force_const=const),
        Gamma2_f=_make_field(x, Gamma2 - TWO_PI * w_G2 * x,
                             slope=TWO_PI * w_G2, force_const=const),
        delta_f=_make_field(x, delta - TWO_PI * w_delta * x,
                            slope=TWO_PI * w_delta, force_const=const),
        Psi_mean=float(np.trapezoid(Psi, x)),
    )
    return data


def gamma_derivative(data: DerivedPeriodicData, x: float):
    """Exact phase velocities:
    gamma1' = omega (lam + p) / (2 |g1|^2),  gamma2' = omega (lam - p) / (2 |g2|^2).
    """
    _, u, v, _ = data.frame(x)
    pv = eval_coefficient(data.sol.p, x)
    w, lam = data.omega, data.lam
    return w * (lam + pv) / (2.0 * u), w * (lam - pv) / (2.0 * v)


def in_band_samples(p: PeriodicCoefficient, q: PeriodicCoefficient,
                    window: tuple[float, float], count: int) -> list[float]:
    """Scan 60 energies across window and return up to ``count`` of them
    strictly inside bands (|trace|/2 <= 0.9 and k at least 0.1 from 0, pi)."""
    lams = np.linspace(window[0], window[1], 60)
    good = []
    for lam, t in zip(lams, monodromy(p, q, lams).trace / 2.0):
        if abs(t) <= 0.9:
            k = float(np.arccos(t))
            if 0.1 < k < np.pi - 0.1:
                good.append(float(lam))
    if len(good) <= count:
        return good
    idx = np.linspace(0, len(good) - 1, count).round().astype(int)
    return [good[i] for i in idx]


def write_period_csv(data: DerivedPeriodicData, path) -> None:
    """Fixed-format CSV of the period-grid data (17 significant digits)."""
    cols = [
        ("x", data.x),
        ("re_g1", data.sol.g1.real), ("im_g1", data.sol.g1.imag),
        ("re_g2", data.sol.g2.real), ("im_g2", data.sol.g2.imag),
        ("abs_g1", np.abs(data.sol.g1)), ("abs_g2", np.abs(data.sol.g2)),
        ("gamma1", data.gamma1), ("gamma2", data.gamma2),
        ("Gamma1", data.Gamma1), ("Psi", data.Psi),
        ("Gamma2", data.Gamma2), ("delta", data.delta),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in cols) + "\n")
        write_rows(fh, [arr for _, arr in cols])
