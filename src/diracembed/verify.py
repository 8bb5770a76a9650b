"""Numerical certification of the decay, stability, and oscillation bounds.

Every check integrates the claimed inequality directly and reports the
measured margin; nothing is assumed from the construction.  Oscillatory
sup-scans share one cumulative quadrature pass over [min x0, x_max] with
running extrema per checkpoint, so the cost is one sweep regardless of how
many checkpoints are requested.  The running integral is read off the cubic
through its samples, so a sample may advance the phase by SCAN_PHASE_STEP
and a checkpoint may fall between samples.  The periodic-frame scan steps
by 1/m, so the samples take m phases: Gamma and gamma are tabulated once on
them and tiled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _util
from ._util import (SIMPSON_BIAS, cumulative_blocks,
                    cumulative_simpson_uniform, frac)
from .errors import (
    BoundViolated,
    DecayTooSlow,
    HypothesisViolated,
    InconclusiveTail,
    ResonantFrequency,
    StabilityViolated,
)
from .pruefer import integrate_R_xi
from .synth import (
    EmbeddingTarget,
    PotentialPiece,
    SynthesizedPotential,
    TAIL_CYCLES,
    Tracker,
    piece_potential,
    slaved_amplitude,
    solve_xi,
)

__all__ = [
    "OscCheck",
    "oscillatory_check_41",
    "oscillatory_check_42",
    "DecayReport",
    "decay_check",
    "StabilityReport",
    "stability_check",
    "NonembeddingReport",
    "nonembedding_check",
    "adversarial_potential",
    "TailReport",
    "l2_tail_estimate",
    "track_targets",
]

TWO_PI = 2.0 * np.pi
DECAY_SLOPE_MAX = -95.0  # largest fitted slope of ln R across a piece
PRODUCT_RATIO_MAX = 4.0  # most sup * x0^beta may vary over the checkpoints
TAIL_RATIO = 0.5  # most energy a cycle may carry, relative to the last one
SEAM_TOL = 1e-9  # most an own piece's seed may stray from the arriving xi
SCAN_PHASE_STEP = 0.14  # most phase, in rad, a sup-scan advances per sample
# Report fields under another name in reports.json.
JSON_NAMES = {"lam": "lambda", "lam_piece": "lambda_piece",
              "lam_bystander": "lambda_bystander", "target_index": "target",
              "description": "name", "x0_list": "x0"}


class Report:
    """A check's report; ``to_dict`` is its reports.json record: the check's
    NAME, then every field, renamed by JSON_NAMES."""

    NAME = None

    def to_dict(self) -> dict:
        doc = {} if self.NAME is None else {"name": self.NAME}
        for f in fields(self):
            doc[JSON_NAMES.get(f.name, f.name)] = getattr(self, f.name)
        return doc


# ---------------------------------------------------------------------------
# oscillatory sup-scans


@dataclass
class OscCheck(Report):
    """Sup of |int_{x0}^x integrand| for each checkpoint, with products."""

    description: str
    a: float
    beta: float
    x0_list: list[float]
    sup_integral: list[float]
    products: list[float]  # sup * x0^beta

    @property
    def max_product_ratio(self) -> float:
        lo = min(self.products)
        return float(max(self.products) / lo) if lo > 0 else np.inf


def _cubic(F, fs, h, k):
    """(b, c) of the cubic F[k] + h*t*(fs[k] + t*(b + t*c)), 0 <= t <= 1,
    through the values F and slopes fs at both ends of interval k."""
    D = (F[k + 1] - F[k]) / h
    return 3.0 * D - 2.0 * fs[k] - fs[k + 1], fs[k] + fs[k + 1] - 2.0 * D


def _read(F, fs, h, k, t):
    """F at x_k + t*h (k, t arrays or scalars): the cubic on interval k, less
    its own error h^4 f''' t^2 (1 - t)^2 / 24 and the SIMPSON_BIAS of its end
    values, so O(h^5); f''' is the third difference of the block's four
    samples nearest the interval (a shorter block keeps the plain cubic)."""
    b, c = _cubic(F, fs, h, k)
    val = F[k] + h * t * (fs[k] + t * (b + t * c))
    last = fs.size - 1
    if last < 3:
        return val
    j = np.clip(k - 1, 0, last - 3)
    d3 = fs[j + 3] - fs[j] - 3.0 * (fs[j + 2] - fs[j + 1])  # h^3 f'''
    even, odd, trail = SIMPSON_BIAS
    bias = [np.where(i % 2 == 0, even, np.where(i == last, trail, odd))
            for i in (k, k + 1)]
    w = t * t * (3.0 - 2.0 * t)  # the cubic's weight on F[k + 1]
    return val + h * d3 * (t * t * (1.0 - t) ** 2 / 24.0
                           - (1.0 - w) * bias[0] - w * bias[1])


def _sup_scan(make_integrand, x_lo: float, h: float, n: int, x0_list):
    """sup_{x >= x0} |F(x) - F(x0)| for each x0, F the running integral.

    make_integrand(xs) -> samples f on the grid x_lo + i*h, i = 0..n.  One
    forward pass in blocks (cumulative_blocks) reads F off the C1 cubic
    through the Simpson values F_i with slopes f_i (``_read``).  The cubic
    is monotone between its turning points, one in each interval where f
    changes sign, so the sup is taken over them and the scan's last sample:
    a running max and min per checkpoint, once per block for the checkpoints
    it has passed.  A checkpoint between samples reads F(x0) off its
    interval and takes the turning points after it (one within 1e-6 steps of
    a sample sits on it); every checkpoint needs an interval after it
    (ValueError otherwise).
    """
    x0s = sorted(float(v) for v in x0_list)
    at = []  # (interval, offset in steps) per checkpoint
    for p in ((v - x_lo) / h for v in x0s):
        i = round(p) if abs(p - round(p)) < 1e-6 else int(np.floor(p))
        at.append((i, max(p - i, 0.0)))
    if at[-1][0] >= n:
        raise ValueError("need every x0 below x_max")
    F0 = [0.0] * len(x0s)
    hi = [-np.inf] * len(x0s)
    lo = [np.inf] * len(x0s)
    for start, fs, F in cumulative_blocks(make_integrand, x_lo, h, n):
        last = fs.size - 1
        k = np.flatnonzero(fs[:-1] * fs[1:] < 0.0)
        # the turning point is the root in (0, 1) of the slope
        # fs[k] + 2b t + 3c t^2, one of the stable pair fs[k]/q, q/(3c)
        b, c = _cubic(F, fs, h, k)
        q = -(b + np.copysign(np.sqrt(np.maximum(b * b - 3.0 * c * fs[k],
                                                 0.0)), b))
        with np.errstate(divide="ignore"):
            t, t2 = fs[k] / q, q / (3.0 * c)
        t = np.clip(np.where((t >= 0.0) & (t <= 1.0), t, t2), 0.0, 1.0)
        if start + last == n:
            k, t = np.append(k, last - 1), np.append(t, 1.0)
        Fk, pos = _read(F, fs, h, k, t), k + t
        top, bot = Fk.max(initial=-np.inf), Fk.min(initial=np.inf)
        for j, (i, s) in enumerate(at):
            if i < start:
                hi[j], lo[j] = max(hi[j], top), min(lo[j], bot)
            elif i < start + last:  # x0 lies in this block
                F0[j] = float(_read(F, fs, h, i - start, s))
                after = Fk[np.searchsorted(pos, i - start + s, "right"):]
                hi[j] = max(F0[j], after.max(initial=-np.inf))
                lo[j] = min(F0[j], after.min(initial=np.inf))
    return x0s, [float(max(u - f, f - d)) for f, u, d in zip(F0, hi, lo)]


def oscillatory_check_41(a: float, beta1: float, beta2: float, x0_list,
                         x_max: float) -> OscCheck:
    """Sup of |int sin(theta)/t^beta2| with theta' = a + 1/(1+t^beta1).

    Reports sup * x0^beta, beta = min(beta2, beta1+beta2-1, 2*beta2-1);
    boundedness of the products across a decade of x0 is the claim.
    """
    if a == 0.0:
        raise HypothesisViolated("drift frequency a must be nonzero")
    if beta1 <= 0.0 or beta2 <= 0.0:
        raise HypothesisViolated("beta exponents must be positive")
    if beta1 + beta2 <= 1.0:
        raise HypothesisViolated("need beta1 + beta2 > 1")
    if beta2 <= 0.5:
        raise HypothesisViolated("need beta2 > 1/2")
    beta = min(beta2, beta1 + beta2 - 1.0, 2.0 * beta2 - 1.0)
    x_lo = min(float(v) for v in x0_list)
    if x_lo <= 0.0 or max(float(v) for v in x0_list) >= x_max:
        raise ValueError("need 0 < x0 < x_max for every x0")
    # A fixed step from x_lo (ending at or past x_max): checkpoints stay put.
    h = SCAN_PHASE_STEP / (abs(a) + 1.0)
    n = max(2, int(np.ceil((x_max - x_lo) / h)))

    if beta1 == 1.0:
        def theta(xs):
            return a * xs + np.log1p(xs)
    else:
        # theta(x) = a*x + Theta(x), Theta = int_0^x dt/(1+t^beta1), whose
        # slope is infinite at 0 for beta1 < 1.  Theta(x_lo) once: the series
        # sum (-t^beta1)^j on [0, eps], eps^beta1 = 1/2, then Simpson in ln t.
        # Each scan interval then adds its three-point Gauss-Legendre rule to
        # Theta at its block's first sample: x_lo, or the last block's end.
        def f(t):
            return 1.0 / (1.0 + t ** beta1)

        eps = 0.5 ** (1.0 / beta1)
        head = sum((-0.5) ** j * eps / (j * beta1 + 1.0) for j in range(64))
        u = np.linspace(np.log(eps), np.log(x_lo), 20_001)
        t = np.exp(u)
        known = {x_lo: head + cumulative_simpson_uniform(f(t) * t, u[1] - u[0])[-1]}
        off = 0.5 * h * np.sqrt(0.6)  # the outer Gauss points, about the midpoint

        def theta(xs):
            mid = xs[:-1] + 0.5 * h
            T = known[xs[0]] + np.append(0.0, np.cumsum(
                h / 18.0 * (5.0 * f(mid - off) + 8.0 * f(mid) + 5.0 * f(mid + off))))
            known[xs[-1]] = T[-1]
            return a * xs + T

    def integrand(xs):
        return np.sin(theta(xs)) / xs ** beta2

    x0s, sups = _sup_scan(integrand, x_lo, h, n, x0_list)
    prods = [s * v ** beta for s, v in zip(sups, x0s)]
    return OscCheck(
        description=f"osc-powerlaw[sin] a={a} beta1={beta1} beta2={beta2}",
        a=float(a), beta=float(beta), x0_list=x0s, sup_integral=sups,
        products=prods)


def oscillatory_check_42(target: EmbeddingTarget, Gamma, a: float, x0_list,
                         x_max: float,
                         enforce_nonresonance: bool = True) -> OscCheck:
    """Sup of |int Gamma(t) sin(theta)/t| with theta = a*t + gamma(t) + ln t.

    gamma is the periodic part of the target's first phase function;
    Gamma must be 1-periodic (HypothesisViolated otherwise).  Products
    sup * x0 should stay bounded across a decade of x0 when a stays away
    from 2*pi*Z; passing a resonant a requires explicitly waiving the
    guard (the divergent control case).
    """
    dist = abs(a - TWO_PI * np.round(a / TWO_PI))
    if enforce_nonresonance and dist < 1e-3:
        raise ResonantFrequency(
            f"a = {a} is within {dist:.2e} of 2*pi*Z; the bound fails there")
    data = target.data
    g1f = data.gamma1_f
    x_lo = min(float(v) for v in x0_list)
    if x_lo <= 0.0 or max(float(v) for v in x0_list) >= x_max:
        raise ValueError("need 0 < x0 < x_max for every x0")
    slope_per = np.max(np.abs(np.diff(data.gamma1))) * data.x.size / TWO_PI
    rate = abs(a) + abs(g1f.slope) + float(slope_per) + 1.0 / x_lo
    # Step 1/m, never coarser than SCAN_PHASE_STEP/rate: sample i = x_lo +
    # i/m sits at the phase t[i mod m], so Gamma and gamma are tabulated once
    # and tiled, long enough for a block to start at any phase.
    m = int(np.ceil(max(rate, 0.5) / SCAN_PHASE_STEP))
    t = frac(x_lo + np.arange(m) / m)
    G, G1 = (np.asarray(Gamma(s), dtype=float) for s in (t, t + 1.0))
    drift = float(np.max(np.abs(G1 - G)))
    if drift > 1e-12 * (1.0 + float(np.max(np.abs(G)))):
        raise HypothesisViolated(
            f"Gamma is not 1-periodic: it moves by {drift:.2e} over a period")
    gamma = g1f(t) - g1f.slope * t  # the periodic part of gamma1
    n = max(2, int(np.ceil((x_max - x_lo) * m)))
    G, gamma = (np.resize(tab, min(n, _util.QUAD_BLOCK) + 1 + m)
                for tab in (G, gamma))

    def integrand(xs):
        i = int(round((xs[0] - x_lo) * m)) % m  # this block's first phase
        Gs, gs = G[i:i + xs.size], gamma[i:i + xs.size]
        return Gs * np.sin(a * xs + gs + np.log(xs)) / xs

    x0s, sups = _sup_scan(integrand, x_lo, 1.0 / m, n, x0_list)
    prods = [s * v for s, v in zip(sups, x0s)]
    return OscCheck(
        description=f"osc-periodic a={a} lam={target.lam}",
        a=float(a), beta=1.0, x0_list=x0s, sup_integral=sups, products=prods)


# ---------------------------------------------------------------------------
# decay / stability on pieces


@dataclass
class DecayReport(Report):
    """Fitted power-law decay of one tracked amplitude across a piece."""

    NAME = "decay"

    lam: float
    side: int
    a: float
    b: float
    x_end: float
    slope: float
    intercept: float
    C_add: float
    C_bound: float
    max_rise: float
    n_samples: int


def decay_check(target: EmbeddingTarget, piece: PotentialPiece) -> DecayReport:
    """Fit the decay of the piece's slaved amplitude across the piece.

    ln R is obtained by quadrature along the piece's stored phase — the
    pair is an exact solution of the perturbed Pruefer system because
    the potential is slaved to that phase.  Forward re-integration
    cannot certify this branch: contamination by the complementary
    growing solution scales like ((|x|-b)/(a-b))^(C*Psi_mean), which
    exceeds 1/eps_machine within a few percent of a piece.  Asserts the
    fitted slope of ln R against ln((|x|-b)/(a-b)) is at most
    DECAY_SLOPE_MAX and that ln R never exceeds its start value by more
    than the additive constant; also measures the scheduling prefactor
    C_bound = 2 * sup R * ((|x|-b)/(a-b))^100.
    """
    xs, ln_R = slaved_amplitude(piece, 0.0)
    if piece.side < 0:
        xs, ln_R = xs[::-1], ln_R[::-1]  # integration order, start first
    lnratio = np.log((np.abs(xs) - piece.b) / (piece.a - piece.b))
    slope, intercept = np.polyfit(lnratio, ln_R, 1)
    rise = ln_R - ln_R[0]
    C_add = float(np.max(rise + 100.0 * lnratio))
    max_rise = float(np.max(rise))
    if slope > DECAY_SLOPE_MAX:
        raise DecayTooSlow(slope, DECAY_SLOPE_MAX)
    if max_rise > max(C_add, 0.0) + 1e-9:
        raise BoundViolated(
            f"ln R rises {max_rise:.3g} above its start, beyond the "
            f"additive constant {C_add:.3g}")
    return DecayReport(lam=target.lam, side=piece.side, a=piece.a, b=piece.b,
                       x_end=piece.x_end, slope=float(slope),
                       intercept=float(intercept), C_add=C_add,
                       C_bound=float(2.0 * np.exp(C_add)),
                       max_rise=max_rise, n_samples=int(xs.size))


@dataclass
class StabilityReport(Report):
    """Worst bystander amplification over a phase grid, and over all phases."""

    NAME = "stability"

    lam_piece: float
    lam_bystander: float
    side: int
    threshold: float
    max_ratio: float
    sup_ratio: float
    worst_phase: float
    worst_x: float
    ratios: list[float]


def stability_check(bystander: EmbeddingTarget, piece: PotentialPiece,
                    threshold: float = 2.0,
                    n_phases: int = 8) -> StabilityReport:
    """Max growth of a non-resonant amplitude across someone else's piece.

    rho(start) -> rho(x) is real-linear, so one bystander flow gives its
    propagator Phi at every sample x, and R(x; eta0) = |Phi(x) (cos eta0,
    sin eta0)| for every start phase eta0.  Raises StabilityViolated if
    max_x R on the n_phases grid (``ratios``) exceeds the threshold;
    ``sup_ratio`` = max_x ||Phi(x)||_2, the sup over every eta0, is
    reported but not gated.  V = 0 makes every step, so every ratio, 1.
    """
    start = piece.x_lo if piece.side > 0 else piece.x_hi
    stop = piece.x_hi if piece.side > 0 else piece.x_lo
    # The start phase is immaterial here: Phi carries every phase.
    run = integrate_R_xi(bystander.data, piece.V_interp, start, stop, 0.0)
    (a, b), (c, d) = np.moveaxis(run.Phi[..., None], 0, 2)  # (S, 1) each
    eta = TWO_PI * np.arange(n_phases) / n_phases
    cos, sin = np.cos(eta), np.sin(eta)
    R = np.hypot(a * cos + b * sin, c * cos + d * sin) / np.hypot(cos, sin)
    imax = np.argmax(R, axis=0)
    ratios = R[imax, np.arange(n_phases)].tolist()
    j = int(np.argmax(ratios))  # R = 1 at the start: ratios are >= 1
    sup = float(np.max(np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) / 2.0)
    report = StabilityReport(lam_piece=piece.lam, lam_bystander=bystander.lam,
                             side=piece.side, threshold=threshold,
                             max_ratio=ratios[j], sup_ratio=sup,
                             worst_phase=float(eta[j]),
                             worst_x=float(run.xs[imax[j]]), ratios=ratios)
    if report.max_ratio > threshold:
        raise StabilityViolated(
            f"bystander lam={bystander.lam} grows by {report.max_ratio:.4g} "
            f"(> {threshold}) at x={report.worst_x:.6g}, "
            f"phase {report.worst_phase:.3f}")
    return report


# ---------------------------------------------------------------------------
# non-embedding lower bound


@dataclass
class NonembeddingReport(Report):
    """Lower-bound certificate: amplitude cannot decay into L^2."""

    NAME = "nonembedding"

    lam: float
    eps: float
    C_omega: float
    C_eps: float
    x0: float
    x_max: float
    min_margin: float
    tol: float
    l2_measured: float
    l2_lower_bound: float
    square_summable: bool


def adversarial_potential(target: EmbeddingTarget, x0: float, x_max: float,
                          eps: float) -> PotentialPiece:
    """Phase-locked potential with envelope eps/x — the worst decay driver."""
    C_eff = eps / abs(target.omega)
    traj = solve_xi(target, x0, 0.0, np.pi / 2, x_max, side=1, C=C_eff)
    return piece_potential(target, traj)


def nonembedding_check(target: EmbeddingTarget, V, x0: float, x_max: float,
                       tol: float = 1e-3) -> NonembeddingReport:
    """Certify R(x) >= R(x0) * (x/x0)^(-C_eps) * (1 - tol) on [x0, x_max].

    eps = max |V(x)| x on a geometric probe grid, C_eps = eps * sup(|g1|^2 +
    |g2|^2)/|omega| < 1/2 is enforced, and the measured integral of R^2 is
    compared against the divergent power-law lower bound.
    """
    if hasattr(V, "V_interp"):  # potential piece: sampled grid is cheapest
        V = V.V_interp
    data = target.data
    C_omega = float(np.max(data.u + data.v) / abs(data.omega))
    probe = np.geomspace(x0, x_max, 4096)
    eps = float(np.max(np.abs(np.asarray(V(probe))) * probe))
    C_eps = C_omega * eps
    if C_eps >= 0.5:
        raise HypothesisViolated(
            f"C_eps = {C_eps:.4g} >= 1/2; the lower bound needs a smaller "
            "envelope")
    run = integrate_R_xi(data, V, x0, x_max, np.pi / 2)
    margin = run.ln_R + C_eps * np.log(run.xs / x0)
    min_margin = float(np.min(margin))
    if min_margin < np.log1p(-tol):
        worst = int(np.argmin(margin))
        raise BoundViolated(
            f"R(x)*(x/x0)^{C_eps:.3g} dips to {np.exp(min_margin):.6f} "
            f"of R(x0) at x={run.xs[worst]:.6g} (tolerance {tol})")
    l2 = float(np.trapezoid(np.exp(2.0 * run.ln_R), run.xs))
    expo = 1.0 - 2.0 * C_eps
    bound = float(x0 * ((x_max / x0) ** expo - 1.0) / expo) * (1.0 - tol) ** 2
    return NonembeddingReport(lam=target.lam, eps=eps, C_omega=C_omega,
                              C_eps=C_eps, x0=float(x0), x_max=float(x_max),
                              min_margin=min_margin, tol=tol, l2_measured=l2,
                              l2_lower_bound=bound,
                              square_summable=l2 < bound)


# ---------------------------------------------------------------------------
# L^2 tails of scheduled runs


@dataclass
class TailReport(Report):
    """Per-cycle energy of one tracked amplitude and its geometric decay."""

    NAME = "l2-tail"

    target_index: int
    side: int
    cycle_bounds: list[float]
    cycle_sums: list[float]
    ratios: list[float]
    verdict: bool
    max_seam_gap: float


def l2_tail_estimate(track: Tracker) -> TailReport:
    """Cycle-over-cycle integral of R^2 along one tracked amplitude.

    A cycle runs between consecutive activations of the target's own
    pieces, TAIL_CYCLES or more; the verdict is positive when every cycle
    carries at most TAIL_RATIO of the previous one's energy (the track's
    own_starts and samples() are in ascending |x|).  A seam gap above
    SEAM_TOL breaks the chain of own pieces: BoundViolated.
    """
    if track.max_seam_gap > SEAM_TOL:
        raise BoundViolated(
            f"target {track.target_index}, side {track.side}: the own piece "
            f"at |x| = {track.seam_a:.6g} starts {track.max_seam_gap:.3g} "
            f"rad off the arriving phase (SEAM_TOL {SEAM_TOL:g})")
    bounds = track.own_starts
    if len(bounds) < TAIL_CYCLES + 1:
        raise InconclusiveTail(
            f"only {max(len(bounds) - 1, 0)} complete cycles; "
            f"need >= {TAIL_CYCLES}")
    xs, ln_R, _ = track.samples()
    ax, R2 = np.abs(xs), np.exp(2.0 * ln_R)
    sums = []
    for lo, hi in zip(bounds, bounds[1:]):
        m = (ax >= lo) & (ax < hi)
        if np.count_nonzero(m) < 2:
            raise InconclusiveTail(
                f"cycle [{lo:.6g}, {hi:.6g}) has too few samples")
        sums.append(float(np.trapezoid(R2[m], ax[m])))
    ratios = [b / a for a, b in zip(sums, sums[1:])]
    return TailReport(target_index=track.target_index, side=track.side,
                      cycle_bounds=[float(v) for v in bounds],
                      cycle_sums=sums, ratios=ratios,
                      verdict=all(r <= TAIL_RATIO for r in ratios),
                      max_seam_gap=track.max_seam_gap)


def track_targets(pot: SynthesizedPotential, targets) -> dict:
    """Replay each target's (ln R, xi) across an assembled potential.

    Each side's pieces pass in ascending |x| through the same Tracker
    the schedule seeds its own pieces from, so a returned Tracker is the
    track the schedule followed and feeds l2_tail_estimate.  Keys are
    (target_index, side) for each side the potential has pieces on; every
    target owns one there.
    """
    tracks = {}
    for side in sorted({pc.side for pc in pot.pieces}, reverse=True):
        pieces = sorted((pc for pc in pot.pieces if pc.side == side),
                        key=lambda pc: pc.a)
        for i, target in enumerate(targets):
            tracker = Tracker(i, target, side)
            for pc in pieces:
                tracker.advance(pc)
            tracks[(i, side)] = tracker
    return tracks
