"""Phase-locked pieces, schedules, assembly, manifests."""

import dataclasses
import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracembed.errors import (
    EnvelopeTooLarge,
    EnvelopeViolation,
    HorizonTooShort,
    PieceTooShort,
    ResonantPair,
)
from diracembed import floquet, pruefer, synth, verify
from diracembed.pruefer import integrate_R_xi
from diracembed.verify import track_targets
from diracembed.synth import (
    ENVELOPE_TOL,
    EmbeddingTarget,
    Tracker,
    check_nonresonance,
    choose_C,
    envelope_excess,
    piece_potential,
    probe_constants,
    rebuild_potential,
    schedule,
    slaved_amplitude,
    solve_xi,
    write_potential_csv,
)
from diracembed._util import decimate, taper_window

from conftest import make_target

RNG = np.random.default_rng(20240714)


# ---------------------------------------------------------------------------
# targets and non-resonance


def test_choose_C_free_frame(free_data):
    assert choose_C(free_data) == pytest.approx(210.0, abs=1e-6)


def test_target_envelope_and_floor(free_target_07):
    t = free_target_07
    assert t.envelope == pytest.approx(abs(t.omega) * t.C)
    with pytest.raises(ValueError):
        EmbeddingTarget(data=t.data, C=50.0)


def test_check_nonresonance_accepts_separated_pair(free_pq):
    p, q = free_pq
    targets = check_nonresonance([0.7, 1.3], p, q, margin=0.05)
    assert [t.lam for t in targets] == [0.7, 1.3]
    assert targets[0].k == pytest.approx(0.7, abs=1e-9)


def test_check_nonresonance_builds_the_locks_frame_table(generic_pq):
    # The table is built before synth's first lock, and so before the fork;
    # a target built for a command that never locks leaves it unbuilt.
    target, = check_nonresonance([0.9], *generic_pq)
    assert "frame" in vars(target.data)
    assert "frame" not in vars(make_target(*generic_pq, 0.9).data)


def test_check_nonresonance_rejections(free_pq):
    p, q = free_pq
    with pytest.raises(ResonantPair):
        check_nonresonance([0.7, 0.72], p, q, margin=0.05)     # k_i - k_j
    with pytest.raises(ResonantPair):
        check_nonresonance([1.0, np.pi - 1.0], p, q)           # k_i + k_j
    with pytest.raises(ResonantPair):
        check_nonresonance([np.pi / 2], p, q)                  # k = pi/2
    with pytest.raises(ValueError):
        check_nonresonance([], p, q)
    with pytest.raises(ValueError):
        check_nonresonance([0.7], p, q, margin=0.0)


# ---------------------------------------------------------------------------
# single pieces


def test_solve_xi_free_reduction_oracle(free_target_07, monkeypatch):
    # Free frame: xi' = 2k - C sin(2 xi)/(x - b), windowless.
    t = free_target_07
    a, b, x_end, xi0 = 700.0, 0.0, 900.0, 1.1
    monkeypatch.setattr(pruefer, "LOCK_RTOL", 1e-12)
    monkeypatch.setattr(pruefer, "LOCK_ATOL", 1e-12)
    traj = solve_xi(t, a, b, xi0, x_end, taper_width=0.0)

    ref = solve_ivp(
        lambda x, y: [2.0 * t.k - t.C * np.sin(2.0 * y[0]) / (x - b)],
        (a, x_end), [xi0], method="DOP853", rtol=1e-13, atol=1e-13,
        dense_output=True)
    # At the stored nodes the phase is exact to solver tolerance; between
    # nodes xi_at pays a cubic-Hermite reconstruction error ~ h^4.
    nodes = traj.zeta.x
    assert np.max(np.abs(traj.xi_at(nodes) - ref.sol(nodes)[0])) < 1e-8
    xs = np.linspace(a, x_end, 500)
    assert np.max(np.abs(traj.xi_at(xs) - ref.sol(xs)[0])) < 5e-4


def test_solve_xi_ode_residual(free_target_07):
    t = free_target_07
    traj = solve_xi(t, 700.0, 0.0, 0.3, 900.0, taper_width=1.0)
    xs = traj.zeta.x[2:-2:3]   # Hermite slopes equal the rhs at the nodes
    eps = 1e-5
    fd = (traj.xi_at(xs + eps) - traj.xi_at(xs - eps)) / (2.0 * eps)
    w = taper_window(xs, traj.x_lo, traj.x_hi, traj.taper_width)
    rhs = 2.0 * t.k - t.C * w * np.sin(2.0 * traj.xi_at(xs)) / xs
    assert np.max(np.abs(fd - rhs) / (1.0 + np.abs(rhs))) < 1e-6


def test_solve_xi_validation(free_target_07):
    t = free_target_07
    with pytest.raises(ValueError):
        solve_xi(t, 700.0, 0.0, 0.5, 900.0, side=2)
    with pytest.raises(ValueError):
        solve_xi(t, 700.0, -1.0, 0.5, 900.0)
    with pytest.raises(ValueError):
        solve_xi(t, 700.0, 800.0, 0.5, 900.0)
    with pytest.raises(ValueError):
        solve_xi(t, 700.0, 0.0, 0.5, 650.0)
    with pytest.raises(PieceTooShort):
        solve_xi(t, 700.0, 0.0, 0.5, 900.0, taper_width=60.0)
    with pytest.raises(EnvelopeTooLarge):
        # 2C/(a-b) > k requires a - b < 2C/k = 600
        solve_xi(t, 500.0, 0.0, 0.5, 900.0)


def test_solve_xi_guard_admits_its_boundary(free_pq):
    # probe_constants puts its first piece at a - b = 2C/k exactly; the
    # guard must admit that point whatever the rounding, and reject the
    # next float below it.
    t = make_target(*free_pq, 0.7011557156163776)
    b = 0.0
    a = b + 2.0 * t.C / t.k
    traj = solve_xi(t, a, b, np.pi / 2, a + 50.0)
    assert traj.a == a
    with pytest.raises(EnvelopeTooLarge):
        solve_xi(t, float(np.nextafter(a, 0.0)), b, np.pi / 2, a + 50.0)


def test_piece_envelope_is_exact(free_target_07):
    t = free_target_07
    traj = solve_xi(t, 650.0, 0.0, np.pi / 2, 850.0, taper_width=1.0)
    piece = piece_potential(t, traj)
    w = taper_window(piece.x_grid, piece.x_lo, piece.x_hi, piece.taper_width)
    expected = -(piece.omega * piece.C) * np.sin(piece.xi_grid) \
        / (piece.x_grid - piece.b) * w
    assert np.array_equal(piece.V_grid, expected)
    assert np.max(np.abs(piece.V_grid) * (piece.x_grid - piece.b)) \
        <= abs(piece.omega) * piece.C * (1.0 + 1e-12)


def test_V_interp_vanishes_off_the_piece(free_target_07):
    t = free_target_07
    traj = solve_xi(t, 650.0, 0.0, 0.8, 850.0, taper_width=1.0)
    piece = piece_potential(t, traj)
    assert piece.V_interp(600.0) == 0.0
    assert piece.V_interp(900.0) == 0.0
    assert piece.V_grid[0] == 0.0 and piece.V_grid[-1] == 0.0  # window edges
    xs = np.asarray([640.0, 700.0, 750.3, 860.0])
    vals = piece.V_interp(xs)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[1] == pytest.approx(piece.V_interp(700.0))
    # grid samples agree with the slaved form at the spline phase
    sub = piece.x_grid[:: max(1, piece.x_grid.size // 64)]
    w = taper_window(sub, piece.x_lo, piece.x_hi, piece.taper_width)
    exact = -(t.omega * piece.C) * np.sin(piece.xi_at(sub)) / sub * w
    assert np.allclose(piece.V_interp(sub), exact, atol=1e-12)


@pytest.mark.parametrize("which", ["free", "generic"])
def test_float_paths_equal_the_array_paths(which, free_target_07,
                                           generic_data, monkeypatch):
    """The stepper's float path gives the bits of the array path: the
    phase law, re-evaluated at the accepted nodes of a phase lock,
    against the slopes the stepper handed to the Hermite spline."""
    t = free_target_07 if which == "free" \
        else EmbeddingTarget(data=generic_data, C=choose_C(generic_data))
    laws, splines = [], []
    real, real_spline = pruefer.phase_law, pruefer.cubic_hermite

    def recording(data, two_c, b_s, window):
        laws.append(real(data, two_c, b_s, window))
        return laws[-1]

    def spline(ts, zs, dz):
        splines.append((ts, zs, dz))
        return real_spline(ts, zs, dz)

    monkeypatch.setattr(pruefer, "phase_law", recording)
    monkeypatch.setattr(pruefer, "cubic_hermite", spline)
    traj = solve_xi(t, 700.0, 0.0, 0.3, 760.0, side=-1, taper_width=1.0)
    (law,), ((ts, zs, dz),) = laws, splines
    xis = zs + traj.rate * ts
    scalar = [law(float(x), float(xi)) for x, xi in zip(ts, xis)]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(scalar, dz)


def test_tapered_piece_resolves_the_window_self_consistently(free_target_07):
    t = free_target_07
    smoothed = piece_potential(t, solve_xi(t, 650.0, 0.0, 0.8, 850.0,
                                           taper_width=2.0))
    assert smoothed.taper_width == 2.0
    assert smoothed.x_grid[0] == smoothed.x_lo
    assert smoothed.x_grid[-1] == smoothed.x_hi
    assert smoothed.V_grid[0] == 0.0 and smoothed.V_grid[-1] == 0.0
    # On the plateau the potential still has the raw phase-locked form.
    mid = int(np.searchsorted(smoothed.x_grid, 750.0))
    x_mid = smoothed.x_grid[mid]
    xi_mid = float(smoothed.xi_at(x_mid))
    assert smoothed.V_grid[mid] == pytest.approx(
        -(t.omega * t.C) * np.sin(xi_mid) / x_mid, rel=1e-12)
    with pytest.raises(PieceTooShort):
        solve_xi(t, 650.0, 0.0, 0.8, 850.0, taper_width=60.0)


def test_slaved_amplitude_decays_at_the_certified_slope(free_target_07):
    t = free_target_07
    a, x_end = 700.0, float(700.0 * np.e ** 0.5)
    traj = solve_xi(t, a, 0.0, np.pi / 2, x_end, taper_width=1.0)
    piece = piece_potential(t, traj)
    xs, ln_R = slaved_amplitude(piece, 0.0)
    assert ln_R[0] == 0.0
    drop = ln_R[-1] - ln_R[0]
    # slope -(100 + rho_margin)/ln-ratio with an O(1) oscillatory remainder
    assert drop == pytest.approx(-105.0 * 0.5, abs=2.0)


def test_check_nonresonance_rejects_a_nan_margin(free_pq):
    # Every |k_i - k_j| < NaN is False: a NaN margin would pass a pair at
    # one energy.
    with pytest.raises(ValueError, match="margin"):
        check_nonresonance([0.7, 0.7], *free_pq, margin=np.nan)


def test_slaved_amplitude_minus_side_anchors_at_inner_edge(free_target_13):
    t = free_target_13
    traj = solve_xi(t, 700.0, 0.0, 0.4, 900.0, side=-1, taper_width=1.0)
    piece = piece_potential(t, traj)
    xs, ln_R = slaved_amplitude(piece, 0.5)
    assert xs[0] < 0.0 and xs[0] == pytest.approx(-900.0)
    assert ln_R[-1] == pytest.approx(0.5)   # anchored at x = -700
    assert ln_R[0] < 0.5 - 10.0             # decayed at x = -900


# ---------------------------------------------------------------------------
# schedules


def test_schedule_round_robin_structure(small_sched):
    sched = small_sched
    T = sched.metadata["T"]
    assert T[0] == 2.0e3
    assert T[-1] <= 2.6e3
    assert len(sched.pieces) == 2 * (len(T) - 1)
    lam_cycle = [pc.lam for pc in sched.pieces[::2]]
    assert lam_cycle == ([0.7, 1.3] * len(lam_cycle))[: len(lam_cycle)]
    # breakpoints follow the halving ratio (2^N C_bound)^(1/100)
    ratio = (4.0 * sched.metadata["C_bound"]) ** (1.0 / 100.0)
    for lo, hi in zip(T, T[1:]):
        assert hi == pytest.approx(lo * ratio, rel=1e-12)


def test_schedule_pieces_mirror_and_tile(small_sched):
    sched = small_sched
    plus = [pc for pc in sched.pieces if pc.side > 0]
    minus = [pc for pc in sched.pieces if pc.side < 0]
    assert len(plus) == len(minus)
    for pp, pm in zip(plus, minus):
        assert (pp.lam, pp.a, pp.x_end) == (pm.lam, pm.a, pm.x_end)
    plus_sorted = sorted(plus, key=lambda pc: pc.a)
    for left, right in zip(plus_sorted, plus_sorted[1:]):
        assert right.a == pytest.approx(left.x_end, rel=1e-12)


def test_schedule_phase_chaining(small_pot, free_target_07, free_target_13):
    # Each own piece starts at the phase the track carried to its left
    # edge (the phase keeps evolving as a bystander between own pieces).
    tracks = track_targets(small_pot, [free_target_07, free_target_13])
    for i, lam in enumerate((0.7, 1.3)):
        own = sorted((pc for pc in small_pot.pieces
                      if pc.side > 0 and pc.lam == lam),
                     key=lambda pc: pc.a)
        tr = tracks[(i, 1)]
        assert tr.own_starts == [pc.a for pc in own]
        xs, _, xi = tr.samples()
        for pc in own:
            idx = int(np.argmin(np.abs(xs - pc.a)))
            assert xs[idx] == pc.a
            assert pc.xi0 == pytest.approx(xi[idx] % (2 * np.pi), abs=1e-9)
            assert 0.0 <= pc.xi0 < 2 * np.pi


def test_seam_gap_has_no_rounding_floor(free_target_07):
    # An honest seed is the arriving phase reduced mod 2 pi.  Near
    # |xi| = 1e7 one ulp of xi is 1.9e-9, above SEAM_TOL, so the gap must
    # not be read off the unreduced difference xi - xi0.
    t = free_target_07
    piece = piece_potential(t, solve_xi(t, 700.0, 0.0, 0.3, 720.0))
    for arriving in np.concatenate([s * (1e7 + np.linspace(0.0, 7.0, 71))
                                    for s in (1.0, -1.0)]):
        for shift, gap in ((0.0, 0.0), (1.5, 1.5)):
            seed = float(np.mod(arriving + shift, 2 * np.pi))
            tracker = Tracker(0, t, 1)
            tracker.xi = float(arriving)
            tracker.advance(dataclasses.replace(piece, xi0=seed))
            assert tracker.max_seam_gap == pytest.approx(gap, abs=1e-12)


def test_schedule_tracks_cover_both_sides(small_pot, free_target_07,
                                          free_target_13):
    tracks = track_targets(small_pot, [free_target_07, free_target_13])
    assert set(tracks) == {(i, s) for i in (0, 1) for s in (1, -1)}
    for (i, s), tr in tracks.items():
        assert tr.side == s
        assert tr.target_index == i
        assert len(tr.own_starts) >= 4
        # l2_tail_estimate reads own_starts and the samples in this order
        assert tr.own_starts == sorted(tr.own_starts)
        # runs outward from the activation point, anchored at lnR = 0
        # (segment junctions may repeat a sample)
        xs, ln_R, _ = tr.samples()
        assert ln_R[0] == 0.0
        assert np.all(s * np.diff(xs) >= 0.0)
        # ~2.4 lnR drop per own piece dominates the bystander wiggle
        assert ln_R[-1] < -10.0
    for i in (0, 1):  # mirrored pieces: each side starts at the same |x|
        assert tracks[(i, 1)].own_starts[0] == tracks[(i, -1)].own_starts[0]


def test_schedule_validation(free_target_07, free_target_13):
    targets = [free_target_07, free_target_13]
    with pytest.raises(ValueError):
        schedule(targets, mode="sideways", a0=2e3, x_max=3e3)
    with pytest.raises(ValueError):
        schedule(targets, mode="growing", a0=2e3, x_max=3e3)  # no h
    with pytest.raises(ValueError):
        schedule(targets, a0=2e3, x_max=1e3)
    # The probe gives K = 1200: a0 = 500 is too close in.
    with pytest.raises(PieceTooShort):
        schedule(targets, a0=500.0, x_max=1e3)
    with pytest.raises(HorizonTooShort):
        schedule(targets, a0=2e3, x_max=2.02e3)


def test_plan_gives_every_target_its_tail_cycles():
    # verify's l2-tail check needs TAIL_CYCLES complete cycles, so TAIL_CYCLES
    # + 1 own pieces, per target: a horizon one ulp short of them is refused
    # before any lock runs (a plan reads no phase).
    C_bound, envelopes = 10.0, [0.1, 0.1]
    T = synth.plan(C_bound, envelopes, "finite", 2e3, 1e4)[0]
    x_max = T[2 * (synth.TAIL_CYCLES + 1)]  # the second target's last piece
    _, _, owners, _ = synth.plan(C_bound, envelopes, "finite", 2e3, x_max)
    assert [owners.count(i) for i in (0, 1)] == [synth.TAIL_CYCLES + 1] * 2
    with pytest.raises(HorizonTooShort, match=r"targets \[1\] received 4 "
                                              r"pieces \(3 complete cycles\)"):
        synth.plan(C_bound, envelopes, "finite", 2e3,
                   float(np.nextafter(x_max, 0.0)))


def test_growing_mode_rejects_small_envelope(free_target_07):
    with pytest.raises(EnvelopeViolation):
        schedule([free_target_07], mode="growing", a0=2e3, x_max=3e3,
                 h=lambda x: np.log(np.e + np.abs(x)))


@pytest.mark.parametrize("V0,ok", [(1e-10, False), (1e-12, True)])
def test_envelope_excess_rule(V0, ok):
    # |V|(1+|x|) - |h| is V0 exactly at x = 0 and negative elsewhere.
    x = np.array([-2.0, 0.0, 3.0])
    excess, x_at = envelope_excess(x, np.array([0.0, V0, 0.0]),
                                   lambda xs: 0.5 * xs)
    assert (excess, x_at) == (V0, 0.0)
    assert (excess <= ENVELOPE_TOL) is ok


def test_probed_constants_recorded_on_schedule(small_sched):
    # doubled 2C/k floor for lam = 0.7 (C carries solver-level jitter)
    assert small_sched.metadata["K"] == pytest.approx(1200.0, rel=1e-9)
    assert 1.5 < small_sched.metadata["C_bound"] < 4.0


def test_probe_constants_hold_their_pins(free_target_07, free_target_13):
    # The probe's pieces lock at LOCK_RTOL and its stability checks gate
    # at 1.5 on one try: K is the doubled 2C/k floor, C_bound the decay
    # prefactor of the probe piece.
    C_bound, K = probe_constants([free_target_07, free_target_13], a0=2e3)
    assert K == pytest.approx(1200.0, rel=1e-9)
    assert C_bound == pytest.approx(2.4276111311621977, rel=1e-12)


def test_probe_stops_doubling_at_the_horizon(monkeypatch, free_pq):
    # Near-resonant bystanders need an ever larger offset.  Once K = 2 K_try
    # passes a0 - b no schedule can start, so the probe stops there: here
    # after one stability round (K_try = 600 fails, 2 * 1200 > 2000).
    offsets = set()
    check = verify.stability_check

    def counted(bystander, piece, **kw):
        offsets.add(piece.a)
        return check(bystander, piece, **kw)

    monkeypatch.setattr(verify, "stability_check", counted)
    targets = [make_target(*free_pq, lam) for lam in (0.7, 0.7002)]
    with pytest.raises(PieceTooShort, match="K = 2400"):
        schedule(targets, a0=2e3, x_max=2.6e3)
    assert len(offsets) <= 2


def test_no_caller_picks_a_phase_lock_tolerance():
    # Every phase lock runs at pruefer.LOCK_RTOL/LOCK_ATOL, every band scan
    # at BANDS_TOL and every bystander flow settles at pruefer.FLOW_TOL.
    for fn in (solve_xi, probe_constants, schedule, synth.write_manifest,
               floquet.band_scan, integrate_R_xi, pruefer.phase_flow,
               pruefer.phase_law, pruefer._dop853):
        assert "spec" not in inspect.signature(fn).parameters, fn.__name__


# ---------------------------------------------------------------------------
# assembly and manifests


def test_assembled_potential_geometry(small_pot):
    pot = small_pot
    assert np.all(np.diff(pot.x_grid) >= 0.0)   # junctions may repeat
    a0 = min(pc.a for pc in pot.pieces)
    inner = np.linspace(-a0 + 1.0, a0 - 1.0, 64)
    assert np.allclose(np.interp(inner, pot.x_grid, pot.V_grid), 0.0,
                       atol=1e-15)
    for pc in pot.pieces:
        lo, hi = (pc.a, pc.x_end) if pc.side > 0 else (-pc.x_end, -pc.a)
        assert (pc.x_lo, pc.x_hi) == (lo, hi)


def test_assembled_envelope_bound(small_pot):
    for pc in small_pot.pieces:
        margin = np.abs(pc.V_grid) * (np.abs(pc.x_grid) - pc.b)
        assert np.max(margin) <= abs(pc.omega) * pc.C * (1.0 + 1e-12)


def test_manifest_rebuild_is_bit_identical(small_run):
    cfg_path, out = small_run
    with open(f"{out}/manifest.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    pot1 = rebuild_potential(doc)
    pot2 = rebuild_potential(doc)
    assert np.array_equal(pot1.V_grid, pot2.V_grid)
    assert np.array_equal(pot1.x_grid, pot2.x_grid)


def test_manifest_round_trip_reproduces_csv(tmp_path, small_run):
    cfg_path, out = small_run
    with open(f"{out}/manifest.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    pot = rebuild_potential(doc)
    path = tmp_path / "potential.csv"
    write_potential_csv(pot, str(path))
    with open(f"{out}/potential.csv", "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_a_piece_writes_at_most_CSV_ROWS_plus_one_rows():
    # Every ceil(n/CSV_ROWS)-th of n samples and the last one: 44 sizes below
    # 20,000 keep CSV_ROWS + 1 (n = 4000 keeps 0, 2, ..., 3998 and 3999).
    rows = {n: decimate(n, max(1, int(np.ceil(n / synth.CSV_ROWS)))).size
            for n in range(2, 20001)}
    assert max(rows.values()) == synth.CSV_ROWS + 1
    over = [n for n, count in rows.items() if count == synth.CSV_ROWS + 1]
    assert over[:4] == [4000, 5999, 6000, 7998]
    assert len([n for n in over if n < 20000]) == 44
    for n in (2, 1999, 2000, 2001, 3999, 4000, 20000):  # as a piece writes
        xs = np.linspace(-1.0, 1.0, n)
        text = synth.PotentialPiece.csv_rows.func(
            SimpleNamespace(x_grid=xs, V_grid=np.sin(xs)))
        assert text.count("\n") == rows[n]
        assert text.endswith("%.17g,%.17g\n" % (xs[-1], np.sin(xs[-1])))


def test_manifest_carries_the_build_recipe(small_run):
    _, out = small_run
    with open(f"{out}/manifest.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {"coefficients", "targets", "pieces", "integrator",
            "floquet_integrator", "mode", "b", "C_bound", "K",
            "T"} <= set(doc)
    assert {"p", "q"} <= set(doc["coefficients"])
    assert doc["integrator"] == synth.LOCK_RECIPE == {
        "rel_tol": 1e-8, "abs_tol": 1e-11,
        "step_cap_per_rate": {"constant": 1.0, "periodic": 0.5}}
    assert doc["floquet_integrator"] == synth.FRAME_RECIPE == {
        "method": "magnus4", "n_grid": 4096}
    entry = doc["pieces"][0]
    assert {"side", "lambda", "a", "b", "x_end", "xi0", "C",
            "taper_width"} <= set(entry)


def test_schedule_against_manual_target_construction(free_pq):
    # make_target mirrors check_nonresonance's construction
    p, q = free_pq
    t = make_target(p, q, 0.7)
    assert t.C == pytest.approx(210.0, abs=1e-6)
    assert t.k == pytest.approx(0.7, abs=1e-9)
