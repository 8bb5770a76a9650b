"""Synthesis of slowly decaying potentials that force power-law decay.

Each potential piece is phase-locked to one target energy: the phase
xi obeys the closed equation

    xi' = 2k + delta'(x) + (2 C sin xi / (x - b_s)) (|g1|^2 - |g2|^2 - Psi cos xi)

(b_s = +b on the plus side, -b on the minus side, x signed) and the
piece potential is V(x) = -omega C w(x) sin xi(x) / (x - b_s), where w
is the smoothing window (1 when untapered; the window also multiplies
the coupling term above, keeping V slaved to the phase).  Along the
solution the drive satisfies (ln R)' = -(C Psi w sin^2 xi)/(x - b_s), so
the tracked amplitude decays like ((|x|-b)/(a-b))^(-C Psi_mean / 2) on
its own pieces while every non-resonant neighbour is disturbed only by
a bounded factor.  A round-robin schedule alternates pieces among the
targets so that all tracked amplitudes fall geometrically per cycle.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from ._util import (both_sides, cumulative_simpson_uniform, decimate,
                    is_number, taper_window, write_json, write_rows)
from .config import ENVELOPES
from .errors import (
    EnvelopeTooLarge,
    EnvelopeViolation,
    HorizonTooShort,
    PieceTooShort,
    PlanMismatch,
    ResonantPair,
    StabilityViolated,
)
from .floquet import (FRAME_INTERVALS, DerivedPeriodicData, derived_data,
                      floquet_solution)
from .periodic_core import PeriodicCoefficient
from .pruefer import (LOCK_ATOL, LOCK_RTOL, STEP_CAP_PER_RATE, integrate_R_xi,
                      phase_flow, rate_floor)

__all__ = [
    "EmbeddingTarget",
    "check_nonresonance",
    "choose_C",
    "XiTrajectory",
    "solve_xi",
    "PotentialPiece",
    "piece_potential",
    "slaved_amplitude",
    "SynthesisSchedule",
    "Tracker",
    "probe_constants",
    "envelope_excess",
    "plan",
    "schedule",
    "SynthesizedPotential",
    "assemble",
    "write_manifest",
    "Manifest",
    "read_manifest",
    "rebuild_potential",
    "write_potential_csv",
]

TWO_PI = 2.0 * np.pi
DECAY_EXPONENT = 100.0  # target slope of ln R against ln((|x|-b)/(a-b))
RHO_MARGIN = 5.0  # C gives slope -(DECAY_EXPONENT + RHO_MARGIN)
XI0 = np.pi / 2  # the first own piece's phase
TAPER_WIDTH = 1.0  # edge window of a piece, at most a quarter of its length
SAFETY = 1.0  # growing mode: h must cover SAFETY times the active envelopes
CSV_ROWS = 2000  # most potential.csv rows per piece
ENVELOPE_TOL = 1e-12  # growing mode: |V|(1+|x|) may pass |h| by this much
TAIL_CYCLES = 3  # complete cycles per target and side the l2-tail check reads
# The manifest's records of how every phase lock and Floquet frame is built.
LOCK_RECIPE = {"rel_tol": LOCK_RTOL, "abs_tol": LOCK_ATOL,
               "step_cap_per_rate": STEP_CAP_PER_RATE}
FRAME_RECIPE = {"method": "magnus4", "n_grid": FRAME_INTERVALS}


@dataclass(frozen=True)
class EmbeddingTarget:
    """One energy to embed: its Floquet frame plus its decay constant C."""

    data: DerivedPeriodicData
    C: float

    @classmethod
    def at(cls, p: PeriodicCoefficient, q: PeriodicCoefficient, lam: float,
           C: float | None = None) -> EmbeddingTarget:
        """Target at energy lam, its frame from ``floquet_solution``.

        C defaults to ``choose_C(data)``.
        """
        data = derived_data(floquet_solution(p, q, lam))
        return cls(data, choose_C(data) if C is None else C)

    @property
    def lam(self) -> float:
        return self.data.lam

    @property
    def k(self) -> float:
        return self.data.k

    @property
    def omega(self) -> float:
        return self.data.omega

    def __post_init__(self):
        if not 0.0 < self.k < np.pi:
            raise ValueError(f"quasimomentum {self.k} outside (0, pi)")
        if self.omega == 0.0 or not np.isfinite(self.omega):
            raise ValueError("wronskian omega must be nonzero and finite")
        floor = 2.0 * (DECAY_EXPONENT + 1.0) / self.data.Psi_mean
        if self.C < floor - 1e-12:
            raise ValueError(
                f"decay constant C={self.C} below {floor:.6g}; "
                "the certified slope needs C >= 2*(100+1)/Psi_mean")

    @property
    def envelope(self) -> float:
        """Peak of |V|*(|x|-b) over any piece: |omega|*C."""
        return abs(self.omega) * self.C


def choose_C(data: DerivedPeriodicData) -> float:
    """Decay constant giving slope -(100 + RHO_MARGIN) for this frame."""
    return 2.0 * (DECAY_EXPONENT + RHO_MARGIN) / data.Psi_mean


def check_nonresonance(lambdas, p: PeriodicCoefficient, q: PeriodicCoefficient,
                       margin: float = 0.05) -> list[EmbeddingTarget]:
    """Build targets for the given energies, enforcing phase separation,
    each with the frame table its phase locks read.

    Requires |k_i - k_j| >= margin for i != j and |k_i + k_j - pi| >=
    margin for all pairs including i == j (which rules out k = pi/2).
    """
    if not margin > 0.0:  # NaN too: every |k_i - k_j| < NaN is False
        raise ValueError("margin must be positive")
    lams = [float(l) for l in lambdas]
    if not lams:
        raise ValueError("no energies given")
    targets = [EmbeddingTarget.at(p, q, lam) for lam in lams]
    ks = [t.k for t in targets]
    for i in range(len(ks)):
        for j in range(i, len(ks)):
            if i != j and abs(ks[i] - ks[j]) < margin:
                raise ResonantPair(i, j, "k_i - k_j", abs(ks[i] - ks[j]))
            s = abs(ks[i] + ks[j] - np.pi)
            if s < margin:
                raise ResonantPair(i, j, "k_i + k_j - pi", s)
    for t in targets:  # the locks' table, built once for both sides
        t.data.frame
    return targets


@dataclass
class XiTrajectory:
    """Dense solution of the phase-lock equation on side*[a, x_end]:
    xi = zeta(x) + rate*x, zeta from ``phase_flow``."""

    rate: float
    zeta: object  # Hermite PiecewisePoly of xi - rate*x through the nodes
    nfev: int
    side: int
    a: float
    b: float
    x_end: float
    xi0: float
    C: float
    taper_width: float

    def xi_at(self, x):
        return self.zeta(x) + self.rate * np.asarray(x, dtype=float)

    @property
    def x_lo(self) -> float:
        return self.a if self.side > 0 else -self.x_end

    @property
    def x_hi(self) -> float:
        return self.x_end if self.side > 0 else -self.a


def solve_xi(target: EmbeddingTarget, a: float, b: float, xi0: float,
             x_end: float, side: int = 1,
             C: float | None = None,
             taper_width: float = 0.0) -> XiTrajectory:
    """Integrate the phase-lock equation outward from |x| = a.

    The phase is solved as zeta = xi - rate*x so the state stays bounded
    over long pieces.  xi0 is reduced modulo 2*pi.  A positive
    taper_width multiplies the coupling term by the C-infinity window
    vanishing at both edges, so a tapered potential built from this
    trajectory stays exactly slaved to its own decaying solution (a
    window multiplied in afterwards would not: the phase defect from the
    taper zone grows like ((|x|-b)/(a-b))^(C*Psi_mean) across the piece).
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    if not 0.0 <= b < a:
        raise ValueError(f"need 0 <= b < a, got b={b}, a={a}")
    if x_end <= a:
        raise ValueError(f"x_end={x_end} must exceed a={a}")
    tw = float(taper_width)
    if tw < 0.0:
        raise ValueError("taper_width must be nonnegative")
    if tw > (x_end - a) / 4.0:
        raise PieceTooShort(
            f"taper_width {tw} exceeds a quarter of the piece length "
            f"{x_end - a}")
    C = float(target.C if C is None else C)
    k = target.k
    # 2C/(a-b) > k, written so that a = b + 2C/k passes exactly.
    if a < b + 2.0 * C / k:
        raise EnvelopeTooLarge(
            f"2C/(a-b) = {2.0 * C / (a - b):.4g} exceeds half the phase "
            f"rate 2k = {2.0 * k:.4g}; enlarge a - b")
    xi0 = float(np.mod(xi0, TWO_PI))
    b_s = side * b
    x_start, x_stop = side * a, side * x_end
    lo, hi = sorted((x_start, x_stop))
    # The coupling 2C w sin xi/(x - b_s) is -2V/omega with V as in _slaved_V.
    rate, zeta, nfev = phase_flow(target.data, 2.0 * C, b_s, (lo, hi, tw),
                                  x_start, x_stop, xi0)
    return XiTrajectory(rate, zeta, nfev, side=side, a=a, b=b, x_end=x_end,
                        xi0=xi0, C=C, taper_width=tw)


def _slaved_V(omega: float, traj: XiTrajectory, x, xi):
    """V = -omega C w(x) sin xi / (x - b_s): the piece slaved to its phase."""
    V = -(omega * traj.C) * np.sin(xi) / (x - traj.side * traj.b)
    if traj.taper_width > 0.0:
        V = V * taper_window(x, traj.x_lo, traj.x_hi, traj.taper_width)
    return V


@dataclass
class PotentialPiece(XiTrajectory):
    """A phase-locked trajectory of one target, with its potential sampled.

    V is slaved to the phase: V = -omega C w(x) sin xi / (x - b_s).
    """

    target: EmbeddingTarget
    x_grid: np.ndarray
    xi_grid: np.ndarray
    V_grid: np.ndarray

    @property
    def lam(self) -> float:
        return self.target.lam

    @property
    def omega(self) -> float:
        return self.target.omega

    def V_interp(self, x):
        """V at x by np.interp on the samples, 0 off the piece."""
        return np.interp(x, self.x_grid, self.V_grid)

    def manifest_entry(self) -> dict:
        return {"side": "plus" if self.side > 0 else "minus",
                "lambda": self.lam, "a": self.a,
                "b": self.b, "x_end": self.x_end, "xi0": self.xi0,
                "C": self.C, "taper_width": self.taper_width}


def piece_potential(target: EmbeddingTarget, traj: XiTrajectory) -> PotentialPiece:
    """Potential piece slaved to the trajectory's (possibly windowed) phase,
    sampled on a uniform grid of step at most 0.05/rate (64 steps or more)."""
    span = traj.x_hi - traj.x_lo
    n = max(64, int(np.ceil(span / (0.05 / rate_floor(traj.rate)))))
    xs = traj.x_lo + (span / n) * np.arange(n + 1)
    xi = traj.xi_at(xs)
    V = _slaved_V(target.omega, traj, xs, xi)
    return PotentialPiece(**vars(traj), target=target, x_grid=xs, xi_grid=xi,
                          V_grid=V)


def slaved_amplitude(piece: PotentialPiece, lnR_start: float = 0.0):
    """ln R of the decaying solution carried by a piece, by quadrature.

    The piece's potential is slaved to its stored phase, so the pair
    (R, xi_grid) solves the perturbed Pruefer system exactly and ln R
    is the running integral of (V/omega)*Psi*sin(xi).  Forward ODE
    integration cannot follow this branch: contamination by the
    complementary growing solution scales like
    ((|x|-b)/(a-b))^(C*Psi_mean), beyond double precision within a few
    percent of a piece.  Returns (x ascending, ln R samples) anchored
    to lnR_start at the piece's inner edge |x| = a.
    """
    data = piece.target.data
    xs = piece.x_grid
    h = float(xs[1] - xs[0])
    integrand = (piece.V_grid / piece.omega) \
        * np.asarray(data.Psi_f(xs), dtype=float) * np.sin(piece.xi_grid)
    F = cumulative_simpson_uniform(integrand, h, f0=0.0)
    if piece.side > 0:
        return xs, lnR_start + F
    return xs, lnR_start + (F - F[-1])


class Tracker:
    """Advances one target's (ln R, xi) on one side, piece by piece.

    Tracking starts at the target's first own piece with that piece's
    phase.  Across its own pieces the target rides the slaved solution
    (quadrature along the stored phase; the decaying branch cannot be
    re-derived by forward integration); across other targets' pieces a
    started track integrates the well-conditioned bystander flow.  An own
    piece's seed xi0 should continue the arriving xi mod 2 pi: the largest
    such seam gap is recorded.  Pieces must arrive in ascending |x|; the
    Tracker is then the track record ``verify.l2_tail_estimate`` reads.
    """

    def __init__(self, target_index: int, target: EmbeddingTarget, side: int):
        self.target_index, self.target, self.side = target_index, target, side
        self.xi: float | None = None  # None until the first own piece
        self.ln_R = 0.0
        self.own_starts: list[float] = []  # |x| where own pieces start
        self.max_seam_gap, self.seam_a = 0.0, math.nan
        self._samples: list[tuple] = []  # (xs, ln_R, xi) per piece

    def advance(self, piece: PotentialPiece) -> None:
        side = self.side
        if piece.lam == self.target.lam:
            if self.xi is not None:
                # Both reductions are exact: no rounding floor grows with xi.
                gap = abs(math.remainder(
                    math.remainder(self.xi, TWO_PI) - piece.xi0, TWO_PI))
                if gap > self.max_seam_gap:
                    self.max_seam_gap, self.seam_a = float(gap), piece.a
            self.own_starts.append(piece.a)
            xs, ln_R = slaved_amplitude(piece, self.ln_R)
            self.xi = float(piece.xi_at(side * piece.x_end))
            self.ln_R = float(ln_R[-1] if side > 0 else ln_R[0])
            stride = max(1, int(round(
                (np.pi / (2.0 * rate_floor(piece.rate))) / (xs[1] - xs[0]))))
            idx = decimate(xs.size, stride)
            if side < 0:
                idx = idx[::-1]
            self._samples.append((xs[idx], ln_R[idx], piece.xi_grid[idx]))
        elif self.xi is not None:
            run = integrate_R_xi(self.target.data, piece.V_interp,
                                 side * piece.a, side * piece.x_end, self.xi,
                                 lnR0=self.ln_R)
            self.xi = float(run.xi[-1])
            self.ln_R = float(run.ln_R[-1])
            self._samples.append((run.xs, run.ln_R, run.xi))

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, ln_R, xi) over every piece since the start, in ascending |x|."""
        return tuple(np.concatenate(col) for col in zip(*self._samples))


@dataclass
class SynthesisSchedule:
    """Pieces in build order, growing-mode activations, and the manifest
    metadata, which holds T, N, C_bound and K."""

    pieces: list[PotentialPiece]
    activations: list
    metadata: dict


def probe_constants(targets, *, a0: float,
                    b: float = 0.0) -> tuple[float, float]:
    """Measure the decay prefactor C_bound and the piece-offset floor K.

    C_bound = 2 * sup R(x)*((|x|-b)/(a-b))^100 / R(a) over a probe piece,
    maximized over targets.  K doubles from the phase-rate floor 2C/k
    until every ordered bystander pair stays within factor 1.5 over a
    probe piece, then is doubled once more as safety.  stability_check
    propagates the bystanders across the probe pieces.  A schedule needs
    a0 - b >= K, so the doubling stops there: PieceTooShort.
    """
    from .verify import decay_check, stability_check

    def probe_piece(t, a, x_end):
        traj = solve_xi(t, a, b, XI0, x_end, side=1,
                        taper_width=_taper(a, x_end))
        return piece_potential(t, traj)

    env_floor = max(2.0 * t.C / t.k for t in targets)
    a_p = b + env_floor
    x_p = b + (a_p - b) * float(np.exp(0.25))
    C_bound = max(decay_check(t, probe_piece(t, a_p, x_p)).C_bound
                  for t in targets)
    ratio_max = max((2.0 ** len(targets) * C_bound) ** (1.0 / DECAY_EXPONENT),
                    1.0 + 1e-6)

    def bystanders_hold(a_s):
        x_end = b + (a_s - b) * ratio_max
        for i, ti in enumerate(targets):
            piece = probe_piece(ti, a_s, x_end)
            for tj in targets[:i] + targets[i + 1:]:
                try:
                    stability_check(tj, piece, threshold=1.5)
                except StabilityViolated:
                    return False
        return True

    K_try = env_floor
    while True:
        if a0 - b < 2.0 * K_try:
            raise PieceTooShort(
                f"a0 - b = {a0 - b:.6g} is below K = {2.0 * K_try:.6g}, "
                "the least offset floor the probe can still return")
        if len(targets) == 1 or bystanders_hold(b + K_try):
            return C_bound, 2.0 * K_try
        K_try *= 2.0


def envelope_excess(x, V, h) -> tuple[float, float]:
    """max(|V|(1+|x|) - |h(x)|) over the samples and the x where it occurs;
    growing mode holds while it is at most ENVELOPE_TOL."""
    gap = np.abs(V) * (1.0 + np.abs(x)) - np.abs(h(x))
    i = int(np.argmax(gap))
    return float(gap[i]), float(x[i])


def _taper(a: float, x_end: float) -> float:
    """A piece's taper width: TAPER_WIDTH, at most a quarter of its length."""
    return min(TAPER_WIDTH, (x_end - a) / 4.0)


def plan(C_bound: float, envelopes, mode: str, a0: float, x_max: float,
         b: float = 0.0, h=None) -> tuple[list, list, list, list]:
    """A schedule's layout, which reads no phase: (T, N, owners, activations).

    Cycle r lays target owners[r]'s piece on |x| in [T_r, T_{r+1}] on both
    sides, rotating among the N[r] active targets; T_{r+1} - b = (T_r - b)
    (2^N C_bound)^(1/100) <= x_max.  A growing run starts one target and
    activates the next, (index, T_r), at a rotation's start once |h(T_r)| >=
    SAFETY * (N+1) * the largest of the first N+1 envelopes.  Every target
    must own TAIL_CYCLES + 1 pieces, TAIL_CYCLES complete cycles, before
    x_max: HorizonTooShort otherwise.
    """
    if mode not in ("finite", "growing") or mode == "growing" and h is None:
        raise ValueError(f"mode: {mode!r} is not finite, or growing with h")
    # decay_check's C_bound is 2 exp(C_add), C_add >= 0: T_r grows by 1.4%
    # or more a cycle.
    if not (envelopes and C_bound >= 2.0 and 0.0 <= b < a0 < x_max < math.inf):
        raise ValueError(f"need targets, C_bound >= 2 and 0 <= b < a0 < x_max "
                         f"< inf; got {len(envelopes)} targets, C_bound = "
                         f"{C_bound}, b = {b}, a0 = {a0}, x_max = {x_max}")
    n_targets = len(envelopes)
    N = n_targets
    if mode == "growing":
        N = 1
        if abs(h(a0)) < SAFETY * envelopes[0]:
            raise EnvelopeViolation(
                f"|h(a0)| = {abs(h(a0)):.4g} cannot cover the first "
                f"target's envelope {envelopes[0]:.4g}")
    T = [float(a0)]
    Ns: list[int] = []
    owners: list[int] = []
    activations: list[tuple[int, float]] = [(i, float(a0)) for i in range(N)]
    c = 0  # rotation pointer within the active prefix
    while True:
        T_r = T[-1]
        if c == 0 and mode == "growing" and N < n_targets:
            need = SAFETY * (N + 1) * max(envelopes[:N + 1])
            if abs(h(T_r)) >= need:
                N += 1
                activations.append((N - 1, T_r))
        ratio = (2.0 ** N * C_bound) ** (1.0 / DECAY_EXPONENT)
        T_next = b + (T_r - b) * ratio
        if T_next > x_max:
            break
        owners.append(c)
        T.append(T_next)
        Ns.append(N)
        c = (c + 1) % N
    short = [i for i in range(n_targets) if owners.count(i) <= TAIL_CYCLES]
    if short:
        raise HorizonTooShort(
            f"x_max = {x_max:.6g} reached before targets {short} received "
            f"{TAIL_CYCLES + 1} pieces ({TAIL_CYCLES} complete cycles); "
            "extend the horizon")
    return T, Ns, owners, activations


def schedule(targets, mode: str = "finite", *, a0: float, x_max: float,
             b: float = 0.0, h=None) -> SynthesisSchedule:
    """Round-robin piece assignment with tracked arrival phases.

    Each step builds mirrored pieces on (T_r, T_{r+1}) and (-T_{r+1},
    -T_r) for one target, seeding the phase with that target's tracked
    value so successive own pieces chain into one decaying solution;
    every active target's (ln R, xi) is then advanced across the new
    pieces.  Breakpoints satisfy C_bound * ratio^(-100) * 2^(N-1) <= 1/2
    so each full cycle at worst halves every tracked amplitude.  No side
    reads the other's phases, so after the probe the plus and the minus
    side run side by side (``_util.both_sides``).

    In growing-N mode targets activate one per cycle once
    h(T_r) >= SAFETY * (N+1) * max envelope of the first N+1 targets,
    and every sample must satisfy |V|*(1+|x|) <= |h| (envelope_excess).
    """
    if not targets:
        raise ValueError("no targets")

    C_bound, K = probe_constants(targets, a0=a0, b=b)
    T, Ns, owners, activations = plan(C_bound, [t.envelope for t in targets],
                                      mode, a0, x_max, b, h)

    def one_side(side):
        trackers = [Tracker(i, t, side) for i, t in enumerate(targets)]
        pieces = []
        for c, T_r, T_next in zip(owners, T, T[1:]):
            tracked = trackers[c].xi
            seed = XI0 if tracked is None else tracked
            traj = solve_xi(targets[c], T_r, b, seed, T_next, side=side,
                            taper_width=_taper(T_r, T_next))
            piece = piece_potential(targets[c], traj)
            if mode == "growing":
                excess, x_at = envelope_excess(piece.x_grid, piece.V_grid, h)
                if excess > ENVELOPE_TOL:
                    raise EnvelopeViolation(
                        f"|V|(1+|x|) exceeds |h| by {excess:.4g} at "
                        f"x = {x_at:.6g}")
            for tracker in trackers:  # the next own piece's seed
                tracker.advance(piece)
            piece.target = None  # the caller puts it back: no frame to pickle
            pieces.append(piece)
        return pieces

    pieces: list[PotentialPiece] = []
    for c, pair in zip(owners, zip(*both_sides(one_side))):
        for piece in pair:
            piece.target = targets[c]
            pieces.append(piece)
    metadata = {
        "mode": mode, "a0": float(a0), "x_max": float(x_max), "b": float(b),
        "C_bound": float(C_bound), "K": float(K), "safety": SAFETY,
        "taper_width": TAPER_WIDTH, "xi0_default": XI0,
        "T": [float(t) for t in T], "N": [int(n) for n in Ns],
        "targets": [{"lambda": t.lam, "k": t.k, "omega": t.omega, "C": t.C}
                    for t in targets],
    }
    return SynthesisSchedule(pieces, activations, metadata)


@dataclass
class SynthesizedPotential:
    """Assembled even-sided potential: zero outside its pieces."""

    pieces: list[PotentialPiece]
    x_grid: np.ndarray
    V_grid: np.ndarray
    metadata: dict


def _assemble_pieces(pieces: list[PotentialPiece],
                     metadata: dict) -> SynthesizedPotential:
    pieces = sorted(pieces, key=lambda pc: pc.x_lo)
    return SynthesizedPotential(
        pieces=pieces, x_grid=np.concatenate([pc.x_grid for pc in pieces]),
        V_grid=np.concatenate([pc.V_grid for pc in pieces]),
        metadata=metadata)


def assemble(sched: SynthesisSchedule) -> SynthesizedPotential:
    """Fold a schedule's pieces into one evaluator with metadata."""
    return _assemble_pieces(sched.pieces, sched.metadata)


def write_manifest(pot: SynthesizedPotential, path: str,
                   p: PeriodicCoefficient, q: PeriodicCoefficient) -> None:
    """JSON manifest sufficient to rebuild the potential bit-identically."""
    doc = dict(pot.metadata)
    doc["coefficients"] = {"p": p.to_dict(), "q": q.to_dict()}
    doc["integrator"] = LOCK_RECIPE
    doc["floquet_integrator"] = FRAME_RECIPE
    doc["pieces"] = [pc.manifest_entry() for pc in pot.pieces]
    write_json(path, doc)


def _field(doc, key: str, where: str = "", kind=float):
    """doc[key] of the manifest object ``where``, a float when kind is float
    (a JSON number: not true or false).  A value of the wrong JSON type is a
    ValueError naming its key, as a config's is; a missing key stays a
    KeyError."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where or 'manifest'}: expected a JSON object, "
                         f"got {doc!r}")
    name, val = f"{where}.{key}" if where else key, doc[key]
    if not (is_number(val) if kind is float else isinstance(val, kind)):
        expected = "a number" if kind is float else kind.__name__
        raise ValueError(f"{name}: expected {expected}, got {val!r}")
    return float(val) if kind is float else val


def _only(doc: dict, keys, where: str = "") -> None:
    """ValueError naming the first key of doc beyond keys: no run writes it."""
    extra = sorted(set(doc) - set(keys))
    if extra:
        name = f"{where}.{extra[0]}" if where else extra[0]
        raise ValueError(f"{name}: unknown manifest key")


@dataclass
class Manifest:
    """A read manifest on its plan: each piece's rebuild arguments in
    manifest order, the schedule metadata, the targets in metadata order,
    the growing-mode envelope h (None in finite mode) and the background."""

    pieces: list  # (target, side, a, b, xi0, x_end, C, taper_width)
    metadata: dict
    targets: list[EmbeddingTarget]
    h: object
    p: PeriodicCoefficient
    q: PeriodicCoefficient


def _on_plan(where: str, fields: str, listed: list, planned: list) -> None:
    """PlanMismatch at the first cycle whose row is not the plan's."""
    for r, (got, want) in enumerate(zip_longest(listed, planned)):
        if got != want:
            raise PlanMismatch(
                f"cycle {r}, {where}: ({fields}) is "
                f"{'missing' if got is None else got} in the manifest but "
                f"{'missing' if want is None else want} in the plan")


def read_manifest(manifest) -> Manifest:
    """Check a manifest (path or dict) and build its targets; no phase lock
    runs.  A value of the wrong JSON type, a key no run writes and a recorded
    method constant that is not the run's are each a ValueError naming the key.
    T, N and one piece per cycle and side must be the plan of the manifest's
    own inputs (PlanMismatch otherwise); xi0 and C are the pieces' own."""
    if isinstance(manifest, (str, os.PathLike)):
        with open(manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    coefficients = _field(manifest, "coefficients", kind=dict)
    _only(manifest, ("coefficients", "integrator", "floquet_integrator",
                     "pieces", "targets", "mode", "h_name", "a0", "x_max", "b",
                     "C_bound", "K", "safety", "taper_width", "xi0_default",
                     "T", "N"))
    _only(coefficients, ("p", "q"), "coefficients")
    blocks = {}
    for key in ("p", "q"):
        block = _field(coefficients, key, "coefficients", dict)
        try:  # from_dict's message names the key within the block
            blocks[key] = PeriodicCoefficient.from_dict(block)
        except ValueError as exc:
            raise ValueError(f"coefficients.{key}.{exc}") from None
    p, q = blocks["p"], blocks["q"]
    for block, recipe in (("integrator", LOCK_RECIPE),
                          ("floquet_integrator", FRAME_RECIPE)):
        doc = _field(manifest, block, kind=dict)
        for key in sorted(set(doc) | set(recipe)):  # a key too many, too
            # As JSON text, so that true is not 1.0 inside the cap's pair.
            if json.dumps(doc.get(key), sort_keys=True) \
                    != json.dumps(recipe.get(key), sort_keys=True):
                got = repr(doc[key]) if key in doc else "missing"
                want = f"built with {recipe[key]!r}" if key in recipe \
                    else "built without it"
                raise ValueError(f"{block}.{key}: {got}, but every run is "
                                 f"{want}")
    for key, val in (("safety", SAFETY), ("taper_width", TAPER_WIDTH),
                     ("xi0_default", XI0)):
        if _field(manifest, key) != val:
            raise ValueError(f"{key}: {manifest[key]!r}, but every run is "
                             f"built with {val!r}")
    targets = []
    for i, entry in enumerate(_field(manifest, "targets", kind=list)):
        lam, C = (_field(entry, key, f"targets[{i}]") for key in ("lambda", "C"))
        _only(entry, ("lambda", "k", "omega", "C"), f"targets[{i}]")
        targets.append(EmbeddingTarget.at(p, q, lam, C=C))
        targets[-1].data.frame  # the locks' table, built once for both sides
    entries = []
    for i, entry in enumerate(_field(manifest, "pieces", kind=list)):
        keys = ("lambda", "a", "b", "xi0", "x_end", "C", "taper_width")
        lam, a, b, xi0, x_end, C, tw = (_field(entry, key, f"pieces[{i}]")
                                        for key in keys)
        side = _field(entry, "side", f"pieces[{i}]", str)
        _only(entry, keys + ("side",), f"pieces[{i}]")
        if side not in ("plus", "minus"):
            raise ValueError(f"pieces[{i}].side: {side!r} is not plus/minus")
        entries.append((1 if side == "plus" else -1, (a, x_end, lam, b, tw),
                        xi0, C))
    mode, h = _field(manifest, "mode", kind=str), None
    if mode == "growing":
        h_name = manifest.get("h_name")
        if not isinstance(h_name, str) or h_name not in ENVELOPES:
            raise ValueError(f"h_name: {h_name!r} in a growing-mode manifest "
                             f"is not one of {sorted(ENVELOPES)}")
        h = ENVELOPES[h_name]
    elif "h_name" in manifest:
        raise ValueError(f"h_name: {manifest['h_name']!r}, but every {mode} "
                         "run is built without an envelope")
    a0, x_max, b, C_bound = (_field(manifest, key)
                             for key in ("a0", "x_max", "b", "C_bound"))
    listed = [_field(manifest, key, kind=list) for key in ("T", "N")]
    for key, col in zip(("T", "N"), listed):
        for r, val in enumerate(col):
            if not is_number(val):
                raise ValueError(f"{key}[{r}]: expected a number, got {val!r}")
    T, N, owners, _ = plan(C_bound, [t.envelope for t in targets], mode, a0,
                           x_max, b, h)
    _on_plan("both sides", "T_r, N_r", list(zip_longest(*listed)),
             list(zip_longest(T, N)))
    cycles = [(T_r, T_next, targets[c].lam, b, _taper(T_r, T_next))
              for c, T_r, T_next in zip(owners, T, T[1:])]
    for side, name in ((1, "plus"), (-1, "minus")):
        _on_plan(f"side {name}", "a, x_end, lambda, b, taper_width",
                 sorted(row for s, row, _, _ in entries if s == side), cycles)
    by_lam = {t.lam: t for t in targets}
    pieces = [(by_lam[lam], side, a, b, xi0, x_end, C, tw)
              for side, (a, x_end, lam, b, tw), xi0, C in entries]
    # Every key but the four that rebuild the pieces is schedule metadata.
    meta = {key: val for key, val in manifest.items() if key not in
            ("coefficients", "integrator", "floquet_integrator", "pieces")}
    return Manifest(pieces, meta, targets, h, p, q)


def rebuild_potential(manifest, side: int | None = None) -> SynthesizedPotential:
    """Re-synthesize a potential from its manifest (path, dict or Manifest):
    every piece, or only those on one side (+1 or -1)."""
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    pieces = [piece_potential(t, solve_xi(t, a, b, xi0, x_end, side=s, C=C,
                                          taper_width=tw))
              for t, s, a, b, xi0, x_end, C, tw in manifest.pieces
              if side in (None, s)]
    return _assemble_pieces(pieces, manifest.metadata)


def write_potential_csv(pot: SynthesizedPotential, path: str) -> None:
    """Decimated x,V samples, at most CSV_ROWS per piece, in ascending x."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,V\n")
        for pc in pot.pieces:
            n = pc.x_grid.size
            idx = decimate(n, max(1, int(np.ceil(n / CSV_ROWS))))
            write_rows(fh, (pc.x_grid[idx], pc.V_grid[idx]), block=CSV_ROWS)
