"""Quantitative certification checks: decay, stability, bounds, tails."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracembed import EmbeddingTarget, _util, pruefer, verify
from diracembed.errors import (
    DecayTooSlow,
    HypothesisViolated,
    InconclusiveTail,
    ResonantFrequency,
    StabilityViolated,
)
from diracembed.pruefer import R_xi_system, integrate_R_xi
from diracembed.synth import (assemble, piece_potential, schedule,
                             slaved_amplitude, solve_xi)
from diracembed.verify import (
    _sup_scan,
    adversarial_potential,
    decay_check,
    l2_tail_estimate,
    nonembedding_check,
    oscillatory_check_41,
    oscillatory_check_42,
    stability_check,
    track_targets,
)


@pytest.fixture(scope="module")
def long_piece(free_target_07):
    # one full e-fold of ln((x-b)/(a-b)) so the slope fit is sharp
    t = free_target_07
    a = 650.0
    traj = solve_xi(t, a, 0.0, np.pi / 2, float(a * np.e), taper_width=1.0)
    return piece_potential(t, traj)


# ---------------------------------------------------------------------------
# decay


def test_decay_slope_matches_design_exponent(free_target_07, long_piece):
    rep = decay_check(free_target_07, long_piece)
    # envelope constant C = 2*(100 + 5)/Psi_mean forces slope ~ -105
    assert -115.0 < rep.slope < -95.0
    assert rep.max_rise <= max(rep.C_add, 0.0) + 1e-9
    assert rep.C_bound >= 2.0
    _, ln_R = slaved_amplitude(long_piece, 0.0)
    assert ln_R[0] == 0.0
    assert ln_R[-1] < -95.0
    d = rep.to_dict()
    assert d["name"] == "decay" and d["slope"] == rep.slope


def test_decay_threshold_is_enforced(free_target_07, long_piece,
                                     monkeypatch):
    monkeypatch.setattr(verify, "DECAY_SLOPE_MAX", -200.0)
    with pytest.raises(DecayTooSlow):
        decay_check(free_target_07, long_piece)


def test_decay_constant_stable_under_solver_tolerances(free_target_07,
                                                        monkeypatch):
    # The scheduling prefactor must not be a solver artifact: rebuilding
    # the piece with hundred-fold tighter phase tolerances moves C_bound
    # by well under a percent.
    t = free_target_07
    a, x_end = 650.0, float(650.0 * np.e ** 0.5)
    reps = []
    for rtol, atol in ((1e-8, 1e-11), (1e-10, 1e-13)):
        monkeypatch.setattr(pruefer, "LOCK_RTOL", rtol)
        monkeypatch.setattr(pruefer, "LOCK_ATOL", atol)
        traj = solve_xi(t, a, 0.0, np.pi / 2, x_end, taper_width=1.0)
        reps.append(decay_check(t, piece_potential(t, traj)))
    c0, c1 = reps[0].C_bound, reps[1].C_bound
    assert abs(c1 - c0) / c0 < 0.01
    assert abs(reps[1].slope - reps[0].slope) < 0.5


# ---------------------------------------------------------------------------
# stability


def _first_piece(pot, lam, side=1):
    return min((pc for pc in pot.pieces if pc.side == side
                and pc.lam == lam), key=lambda pc: pc.a)


def test_stability_of_bystander_across_foreign_piece(small_pot,
                                                     free_target_13):
    piece = _first_piece(small_pot, 0.7)
    rep = stability_check(free_target_13, piece)
    assert len(rep.ratios) == 8
    assert 1.0 <= rep.max_ratio <= 2.0
    assert rep.lam_piece == 0.7 and rep.lam_bystander == 1.3


def test_stability_phase_grid_is_converged(small_pot, free_target_13):
    # Doubling the phase grid moves the reported worst ratio < 10%.
    piece = _first_piece(small_pot, 0.7)
    r8 = stability_check(free_target_13, piece, n_phases=8)
    r16 = stability_check(free_target_13, piece, n_phases=16)
    assert abs(r16.max_ratio - r8.max_ratio) / r8.max_ratio < 0.10


def test_stability_is_exactly_one_for_zero_potential(free_target_13):
    ghost = SimpleNamespace(x_lo=100.0, x_hi=150.0, side=1, lam=0.7,
                            V_interp=lambda xs: np.zeros_like(xs))
    for n in (2, 4, 8, 16):  # quarter turns and reconstructed phases alike
        rep = stability_check(free_target_13, ghost, n_phases=n)
        assert rep.max_ratio == 1.0 and rep.sup_ratio == 1.0
        assert rep.ratios == [1.0] * n


def test_stability_violation_raises(small_pot, free_target_13):
    piece = _first_piece(small_pot, 0.7)
    with pytest.raises(StabilityViolated):
        stability_check(free_target_13, piece, threshold=0.99)


@pytest.fixture(scope="module")
def generic_pair(generic_pq):
    # A periodic frame: verify's first pair of a two-target generic_pq run.
    targets = [EmbeddingTarget.at(*generic_pq, lam) for lam in (0.9, 1.7)]
    pot = assemble(schedule(targets, mode="finite", a0=1.2e3, x_max=1.56e3))
    return targets[1], _first_piece(pot, 0.9)


@pytest.fixture(scope="module")
def free_pair(small_pot, free_target_13):
    return free_target_13, _first_piece(small_pot, 0.7)


def _direct_ratios(bystander, piece, n_phases, xs):
    """max R over the samples xs from one solve_ivp run of the (ln R, xi)
    system per phase eta0 = 2 pi j/n, restarted at every node of the
    piece's grid so that V_interp is smooth inside every call, each call's
    dense output read at the samples in its interval.  The system is 2
    pi-periodic in xi, so eta0 + pi repeats eta0 and only the first half
    of the phases runs."""
    start, stop = xs[0], xs[-1]
    sign = 1.0 if stop > start else -1.0
    nodes = piece.x_grid[::int(sign)].copy()
    nodes[0], nodes[-1] = start, stop
    cuts = np.searchsorted(sign * xs, sign * nodes, "right")
    data = bystander.data
    g1s, G2s = float(data.gamma1_f(start)), float(data.Gamma2_f(start))
    rhs = R_xi_system(data, piece.V_interp)
    out = []
    for eta0 in 2.0 * np.pi * np.arange(n_phases // 2) / n_phases:
        y, top = [0.0, 2.0 * (eta0 + g1s) + G2s], 0.0  # ln R at xs[0]
        for lo, hi, i, j in zip(nodes[:-1], nodes[1:], cuts[:-1], cuts[1:]):
            sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-10,
                            atol=1e-12, dense_output=True)
            assert sol.success
            if j > i:
                top = max(top, float(np.max(sol.sol(xs[i:j])[0])))
            y = sol.y[:, -1]
        out.append(float(np.exp(top)))
    return out + out


@pytest.mark.parametrize("pair", ["free_pair", "generic_pair"])
def test_stability_matches_a_direct_run_per_phase(request, pair):
    bystander, piece = request.getfixturevalue(pair)
    start, stop = (piece.x_lo, piece.x_hi) if piece.side > 0 \
        else (piece.x_hi, piece.x_lo)
    xs = integrate_R_xi(bystander.data, piece.V_interp, start, stop, 0.0).xs
    direct = _direct_ratios(bystander, piece, 8, xs)
    rep = stability_check(bystander, piece, n_phases=8)
    assert len(rep.ratios) == 8
    assert max(abs(r - d) for r, d in zip(rep.ratios, direct)) <= 5e-5
    assert rep.max_ratio == max(rep.ratios)
    assert all(rep.sup_ratio >= r for r in rep.ratios)
    assert rep.to_dict()["sup_ratio"] == rep.sup_ratio
    # a finer phase grid reads the same propagator at more phases
    assert stability_check(bystander, piece, n_phases=16).ratios[::2] \
        == rep.ratios


# ---------------------------------------------------------------------------
# oscillatory-integral bounds


def test_oscillatory_powerlaw_products_bounded():
    rep = oscillatory_check_41(a=1.0, beta1=1.0, beta2=1.0,
                               x0_list=[10.0, 100.0], x_max=1e4)
    assert rep.beta == 1.0
    assert all(s > 0 for s in rep.sup_integral)
    assert rep.max_product_ratio < 4.0


def test_oscillatory_powerlaw_checkpoints_stay_on_the_grid():
    # The step is fixed from min x0, so a longer horizon only appends
    # samples and each checkpoint keeps its place on the grid (1e3 falls
    # between two samples); re-spacing it to end on x_max moved them.
    x0s = [10.0, 100.0, 1000.0]
    base = oscillatory_check_41(a=1.0, beta1=1.0, beta2=1.0, x0_list=x0s,
                                x_max=1e4)
    longer = oscillatory_check_41(a=1.0, beta1=1.0, beta2=1.0, x0_list=x0s,
                                  x_max=1e4 + 0.37)
    assert np.allclose(longer.sup_integral, base.sup_integral,
                       rtol=1e-9, atol=0.0)


def test_oscillatory_powerlaw_beta_rule():
    rep = oscillatory_check_41(a=2.0, beta1=0.4, beta2=0.8,
                               x0_list=[10.0, 100.0], x_max=1e4)
    assert rep.beta == pytest.approx(min(0.8, 0.4 + 0.8 - 1.0, 0.6))
    assert rep.max_product_ratio < 4.0


def test_oscillatory_powerlaw_hypotheses():
    with pytest.raises(HypothesisViolated):
        oscillatory_check_41(a=0.0, beta1=1.0, beta2=1.0,
                             x0_list=[10.0], x_max=1e3)
    with pytest.raises(HypothesisViolated):
        oscillatory_check_41(a=1.0, beta1=0.1, beta2=0.8,
                             x0_list=[10.0], x_max=1e3)
    with pytest.raises(HypothesisViolated):
        oscillatory_check_41(a=1.0, beta1=2.0, beta2=0.4,
                             x0_list=[10.0], x_max=1e3)


def test_oscillatory_powerlaw_phase_reaches_the_last_sample(monkeypatch):
    # beta1 = 2: theta = a*x + c*arctan(x).  The scan's last sample lies
    # a step past x_max (10.52 against 10.51); the tabulated integral must
    # reach it there too, not stop at x_max.
    scans = []

    def spy(make_integrand, x_lo, h, n, x0_list):
        scans.append((make_integrand, x_lo + h * np.arange(n + 1)))
        return _sup_scan(make_integrand, x_lo, h, n, x0_list)

    monkeypatch.setattr(verify, "_sup_scan", spy)
    oscillatory_check_41(a=1.0, beta1=2.0, beta2=1.0, x0_list=[10.0],
                         x_max=10.51)
    (integrand, xs), = scans
    assert xs[-1] > 10.51
    exact = np.sin(xs + np.arctan(xs)) / xs
    assert np.max(np.abs(integrand(xs) - exact)) < 1e-12


def test_oscillatory_powerlaw_phase_is_exact_across_the_scan():
    # beta1 = 1/2: Theta = int_0^x dt/(1 + sqrt t) = 2 sqrt x - 2 ln(1 + sqrt x)
    # in closed form, and its slope is infinite at 0.  Over [1e2, 1e6] the
    # check's sups equal the same scan's on the closed-form phase.
    a, x0s, x_max = 1.0, [1e2, 1e3, 1e4], 1e6
    rep = oscillatory_check_41(a=a, beta1=0.5, beta2=1.0, x0_list=x0s,
                               x_max=x_max)
    h = verify.SCAN_PHASE_STEP / (abs(a) + 1.0)

    def closed(xs):
        r = np.sqrt(xs)
        return np.sin(a * xs + 2.0 * r - 2.0 * np.log1p(r)) / xs

    _, ref = _sup_scan(closed, x0s[0], h, int(np.ceil((x_max - x0s[0]) / h)),
                       x0s)
    assert rep.sup_integral == pytest.approx(ref, rel=1e-5)


def seam_integrand(xs):
    return np.sin(1.3 * xs + np.log(xs)) / xs


@pytest.mark.parametrize("block", [997, 1000])
def test_sup_scan_checkpoint_on_a_block_seam(monkeypatch, block):
    h = 200.0 / 50_000  # the grid on [10, 210]
    x0s = [10.0, 10.0 + block * h, 10.0 + 3 * block * h, 57.3]
    monkeypatch.setattr(_util, "QUAD_BLOCK", 50_000)
    one = _sup_scan(seam_integrand, 10.0, h, 50_000, x0s)
    monkeypatch.setattr(_util, "QUAD_BLOCK", block)
    split = _sup_scan(seam_integrand, 10.0, h, 50_000, x0s)
    assert split[0] == one[0]
    assert np.allclose(split[1], one[1], rtol=1e-10, atol=0.0)


def test_sup_scan_block_size_leaves_the_sups(monkeypatch):
    # 600k intervals: nine seams at QUAD_BLOCK, none in one block.
    block = _util.QUAD_BLOCK
    h = 200.0 / 600_000
    x0s = [10.0, 10.0 + block * h, 57.3, 150.0]
    assert 600_000 > 9 * block and block % 2 == 0
    split = _sup_scan(seam_integrand, 10.0, h, 600_000, x0s)
    monkeypatch.setattr(_util, "QUAD_BLOCK", 600_000)
    one = _sup_scan(seam_integrand, 10.0, h, 600_000, x0s)
    assert split[0] == one[0]
    assert np.allclose(split[1], one[1], rtol=1e-12, atol=0.0)


def test_sup_scan_finds_the_sup_between_samples():
    # F = sin x from x0 = -pi/2: the sup of |F - F(x0)| is 2, at pi/2,
    # which the step pi/9.5 puts halfway between two samples.
    h, x0 = np.pi / 9.5, -np.pi / 2
    n = 20
    samples = np.sin(x0 + h * np.arange(n + 1)) + 1.0
    assert 2.0 - samples.max() > 1e-2  # the largest sample misses it
    _, (sup,) = _sup_scan(np.cos, x0, h, n, [x0])
    assert sup == pytest.approx(2.0, rel=1e-5, abs=0.0)


def _fine_sup(f, x0, h, end):
    """sup from x0 at an 8x finer step, to the coarse scan's last sample."""
    n = round((end - x0) / (h / 8.0))
    return _sup_scan(f, x0, h / 8.0, n, [x0])[1][0]


def test_sup_scan_reads_checkpoints_off_the_grid():
    # 57.3 lies 0.71 of a step past a sample; snapping it to the nearest
    # one moved its sup by 1.6e-4.
    h, n = 0.07, 3000
    assert 0.2 < (57.3 - 10.0) / h % 1.0 < 0.8
    _, sups = _sup_scan(seam_integrand, 10.0, h, n, [10.0, 57.3])
    fine = _fine_sup(seam_integrand, 57.3, h, 10.0 + n * h)
    assert sups[1] == pytest.approx(fine, rel=1e-6, abs=0.0)


def test_oscillatory_powerlaw_checkpoint_off_the_grid():
    # Snapping 1e3 to the nearest sample moved its sup by 1e-2.
    rep = oscillatory_check_41(a=1.0, beta1=1.0, beta2=1.0,
                               x0_list=[1e2, 1e3], x_max=1e4)
    h = verify.SCAN_PHASE_STEP / 2.0
    assert 0.1 < (1e3 - 1e2) / h % 1.0 < 0.9  # 1e3 is not a sample
    end = 1e2 + np.ceil((1e4 - 1e2) / h) * h
    fine = _fine_sup(lambda xs: np.sin(xs + np.log1p(xs)) / xs, 1e3, h, end)
    assert rep.sup_integral[1] == pytest.approx(fine, rel=1e-5, abs=0.0)


def test_sup_scan_rejects_checkpoints_past_x_max():
    with pytest.raises(ValueError):
        _sup_scan(np.sin, 10.0, 0.1, 900, [10.0, 150.0])


def test_oscillatory_periodic_products_bounded(free_target_07):
    rep = oscillatory_check_42(free_target_07, lambda xs: np.ones_like(xs),
                               a=1.0, x0_list=[10.0, 100.0], x_max=1e4)
    assert rep.max_product_ratio < 4.0


def test_oscillatory_periodic_guards_resonance(free_target_07):
    with pytest.raises(ResonantFrequency):
        oscillatory_check_42(free_target_07, lambda xs: np.ones_like(xs),
                             a=6 * np.pi, x0_list=[10.0], x_max=1e3)


def test_oscillatory_resonant_control_diverges(free_target_07):
    # a in 2*pi*Z defeats the bound: integrand ~ sin(ln x)/x, whose
    # running integral has O(1) sup from every x0, so sup * x0 grows
    # linearly in x0 instead of staying bounded.
    rep = oscillatory_check_42(free_target_07, lambda xs: np.ones_like(xs),
                               a=0.0, x0_list=[10.0, 100.0, 1000.0],
                               x_max=1e6, enforce_nonresonance=False)
    assert rep.max_product_ratio > 10.0
    assert rep.products == sorted(rep.products)


@pytest.fixture(scope="module")
def generic_target_09(generic_pq):
    return EmbeddingTarget.at(*generic_pq, 0.9)


def test_oscillatory_periodic_checkpoints_stay_on_the_grid(generic_target_09):
    # The scan steps 1/m from min x0, so 1e3 and 1e4 are grid points
    # whatever x_max is; re-spacing the step to end on x_max snapped them
    # by up to half a step and moved their sups.
    t = generic_target_09
    x0s = [1e2, 1e3, 1e4]
    base = oscillatory_check_42(t, t.data.Psi_f, 1.0, x0s, x_max=1e5)
    longer = oscillatory_check_42(t, t.data.Psi_f, 1.0, x0s, x_max=1e5 + 0.37)
    assert np.allclose(longer.sup_integral, base.sup_integral,
                       rtol=1e-9, atol=0.0)
    assert base.max_product_ratio < 4.0


def test_oscillatory_periodic_sups_match_a_finer_scan(monkeypatch,
                                                     generic_target_09):
    t = generic_target_09
    x0s = [1e2, 1e3]
    rep = oscillatory_check_42(t, t.data.Psi_f, 1.0, x0s, x_max=2e3)
    monkeypatch.setattr(verify, "SCAN_PHASE_STEP",
                        verify.SCAN_PHASE_STEP / 8.0)
    fine = oscillatory_check_42(t, t.data.Psi_f, 1.0, x0s, x_max=2e3)
    assert np.allclose(rep.sup_integral, fine.sup_integral, rtol=2e-6,
                       atol=0.0)


def test_oscillatory_periodic_requires_periodic_gamma(free_target_07,
                                                      generic_target_09):
    with pytest.raises(HypothesisViolated):
        oscillatory_check_42(free_target_07, lambda xs: xs, a=1.0,
                             x0_list=[10.0], x_max=1e3)
    for t, Gamma in ((free_target_07, lambda xs: np.ones_like(xs)),
                     (generic_target_09, generic_target_09.data.Psi_f)):
        rep = oscillatory_check_42(t, Gamma, a=1.0, x0_list=[10.0, 100.0],
                                   x_max=1e3)
        assert all(s > 0 for s in rep.sup_integral)


def test_oscillatory_periodic_tables_match_direct_evaluation(
        monkeypatch, generic_target_09):
    t = generic_target_09
    g1f, Gamma = t.data.gamma1_f, t.data.Psi_f

    def direct(xs):
        ts = _util.frac(xs)
        theta = xs + g1f(ts) - g1f.slope * ts + np.log(xs)
        return Gamma(xs) * np.sin(theta) / xs

    grids, gaps = [], []
    blocks = verify.cumulative_blocks

    def spy(f, lo, h, n):
        grids.append((lo, h, n))

        def checked(xs):
            out = f(xs)
            gaps.append(float(np.max(np.abs(out - direct(xs)))))
            return out
        return blocks(checked, lo, h, n)

    monkeypatch.setattr(verify, "cumulative_blocks", spy)
    monkeypatch.setattr(_util, "QUAD_BLOCK", 1000)  # blocks start off phase
    x0s = [1e2, 1e3]
    rep = oscillatory_check_42(t, Gamma, a=1.0, x0_list=x0s, x_max=2e3)
    monkeypatch.undo()
    (lo, h, n), = grids
    m = round(1.0 / h)
    assert h == 1.0 / m and 1000 % m != 0 and len(gaps) > 10
    assert max(gaps) <= 1e-10
    _, fine = _sup_scan(direct, lo, h / 2, 2 * n, x0s)  # the step 1/(2m)
    assert np.allclose(fine, rep.sup_integral, rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# non-embedding lower bound


def test_nonembedding_bound_certified(free_target_07):
    t = free_target_07
    piece = adversarial_potential(t, x0=20.0, x_max=2e3, eps=0.4)
    rep = nonembedding_check(t, piece, x0=20.0, x_max=2e3)
    assert rep.C_eps == pytest.approx(0.4, rel=1e-6)
    assert rep.min_margin >= np.log1p(-rep.tol)
    assert rep.l2_measured >= rep.l2_lower_bound
    assert not rep.square_summable
    assert rep.to_dict()["name"] == "nonembedding"


def test_nonembedding_rejects_large_envelope(free_target_07):
    t = free_target_07
    piece = adversarial_potential(t, x0=20.0, x_max=100.0, eps=0.6)
    with pytest.raises(HypothesisViolated):
        nonembedding_check(t, piece, x0=20.0, x_max=100.0)


# ---------------------------------------------------------------------------
# L^2 tails


def _synthetic_track(own_starts, alpha):
    # What l2_tail_estimate reads of a Tracker, on the plus side
    xs = np.linspace(own_starts[0], own_starts[-1], 4001)
    samples = (xs, -alpha * (xs - xs[0]), np.zeros_like(xs))
    return SimpleNamespace(target_index=0, side=1, own_starts=list(own_starts),
                           max_seam_gap=0.0, seam_a=np.nan,
                           samples=lambda: samples)


def test_l2_tail_on_synthetic_geometric_track():
    # R^2 = exp(-2 alpha x) with equal cycles of length L gives exact
    # cycle ratio exp(-2 alpha L).
    alpha, L = 0.5, 4.0
    tr = _synthetic_track([10.0, 14.0, 18.0, 22.0, 26.0], alpha)
    rep = l2_tail_estimate(tr)
    assert rep.verdict
    expected = float(np.exp(-2.0 * alpha * L))
    assert rep.ratios == pytest.approx([expected] * 3, rel=1e-4)
    s0 = rep.cycle_sums[0]
    assert rep.cycle_sums == pytest.approx(
        [s0 * expected ** i for i in range(4)], rel=1e-4)


def test_l2_tail_flags_slow_decay():
    rep = l2_tail_estimate(_synthetic_track([10.0, 14.0, 18.0, 22.0], 0.05))
    assert not rep.verdict
    assert all(r > 0.5 for r in rep.ratios)


def test_l2_tail_needs_enough_cycles():
    with pytest.raises(InconclusiveTail):
        l2_tail_estimate(_synthetic_track([10.0, 14.0, 18.0], 0.5))


def test_tails_across_assembled_potential(small_pot, free_target_07,
                                          free_target_13):
    tracks = track_targets(small_pot, [free_target_07, free_target_13])
    for key, tr in tracks.items():
        rep = l2_tail_estimate(tr)
        assert rep.verdict, f"track {key} tail ratios {rep.ratios}"
        assert all(r <= 0.5 for r in rep.ratios)


# ---------------------------------------------------------------------------
# report output


def test_report_records_keep_their_keys(free_pair, free_target_07):
    # reports.json's records: every field, lam as lambda
    bystander, piece = free_pair
    assert set(stability_check(bystander, piece).to_dict()) == {
        "name", "lambda_piece", "lambda_bystander", "side", "threshold",
        "max_ratio", "sup_ratio", "worst_phase", "worst_x", "ratios"}
    adversary = adversarial_potential(free_target_07, x0=20.0, x_max=200.0,
                                      eps=0.4)
    doc = nonembedding_check(free_target_07, adversary, x0=20.0,
                             x_max=200.0).to_dict()
    assert set(doc) == {
        "name", "lambda", "eps", "C_omega", "C_eps", "x0", "x_max",
        "min_margin", "tol", "l2_measured", "l2_lower_bound",
        "square_summable"}
    assert doc["name"] == "nonembedding" and doc["lambda"] == 0.7
