"""Monodromy traces, band structure, Floquet frames, derived period data."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import field_derivative
from hypothesis import example, given, settings, strategies as st
from reference import loop_magnus
from scipy.integrate import solve_ivp

from diracembed import _util, floquet
from diracembed._util import FrameTable, PeriodicField
from diracembed.errors import (BandEdge, NonFiniteState, ScanTooCoarse,
                               StepSizeUnderflow)
from diracembed.floquet import (
    band_scan,
    floquet_solution,
    gamma_derivative,
    in_band_samples,
    monodromy,
    write_period_csv,
)
from diracembed.periodic_core import PeriodicCoefficient, eval_coefficient

RNG = np.random.default_rng(20240712)

MASS = 1.5  # constant mass used throughout (series value a0/2)


def mass_trace(lam, m=MASS):
    """2 cos sqrt(lam^2 - m^2) in bands, 2 cosh sqrt(m^2 - lam^2) in gaps."""
    d = lam * lam - m * m
    return 2.0 * np.cos(np.sqrt(d)) if d >= 0.0 else 2.0 * np.cosh(np.sqrt(-d))


def fake_monodromy(monkeypatch, trace):
    """Make band_scan see the synthetic dispersion trace(lam), at one
    energy or an array of them."""
    monkeypatch.setattr(floquet, "monodromy", lambda p, q, lam, rel_tol=None:
                        SimpleNamespace(trace=np.vectorize(trace)(lam)))


# ---------------------------------------------------------------------------
# trace oracles


def test_constant_mass_trace_in_band_and_gap(mass_pq):
    p, q = mass_pq
    for lam in (0.3, 1.0, 1.49, 1.7, 2.4, 3.2):
        assert monodromy(p, q, lam).trace == pytest.approx(
            mass_trace(lam), abs=1e-9)


def test_mass_in_q_gives_the_same_trace():
    p = PeriodicCoefficient()
    q = PeriodicCoefficient(a0=2 * MASS)
    for lam in (0.4, 1.8, 2.9):
        assert monodromy(p, q, lam).trace == pytest.approx(
            mass_trace(lam), abs=1e-9)


# ---------------------------------------------------------------------------
# Magnus monodromy against a solve_ivp oracle


def ivp_monodromy(p, q, lam):
    """The period map by DOP853 at rtol 1e-12, atol 1e-14."""
    def rhs(x, y):
        pv, qv = eval_coefficient(p, x), eval_coefficient(q, x)
        A = np.array([[-qv, lam + pv], [pv - lam, qv]])
        return (A @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(2).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return sol.y[:, -1].reshape(2, 2)


@pytest.fixture(scope="module")
def generic_scan(generic_pq):
    p, q = generic_pq
    lams = np.linspace(0.0, 3.0, 121)
    ref = np.array([ivp_monodromy(p, q, lam) for lam in lams])
    return lams, monodromy(p, q, lams, floquet.BANDS_TOL), ref


def test_magnus_monodromy_matches_the_ivp_oracle(generic_scan):
    lams, mono, ref = generic_scan
    assert mono.matrix.shape == (lams.size, 2, 2)
    assert mono.trace.shape == lams.shape
    assert np.max(np.abs(mono.matrix - ref)) <= 1e-8


def test_magnus_monodromy_has_unit_determinant(generic_scan):
    _, mono, _ = generic_scan
    m = mono.matrix
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    bounded = np.abs(mono.trace) <= 2.0
    assert bounded.sum() >= 60
    assert np.max(np.abs(det[bounded] - 1.0)) <= 1e-12


def test_batched_trace_equals_the_scalar_calls(generic_pq, generic_scan,
                                              monkeypatch):
    p, q = generic_pq
    lams, mono, _ = generic_scan
    for lam, tr in zip(lams[::8], mono.trace[::8]):
        one = monodromy(p, q, float(lam), floquet.BANDS_TOL).trace
        assert type(one) is float
        assert one == pytest.approx(tr, rel=1e-13, abs=1e-13)
    # a product split into chunks of a few energies
    monkeypatch.setattr(floquet, "_MAGNUS_BATCH", 1000)
    chunked = monodromy(p, q, lams, floquet.BANDS_TOL).matrix
    assert np.allclose(chunked, mono.matrix, rtol=1e-13, atol=1e-13)


def test_magnus_doubling_stops_at_the_first_settled_pair(generic_pq,
                                                          monkeypatch):
    p, q = generic_pq
    real = floquet._magnus_product
    counts = []
    for rel_tol in (floquet.BANDS_TOL, 1e-12):
        runs = []

        def recording(p, q, lams, n):
            prod = real(p, q, lams, n)
            runs.append((n, prod[0]))
            return prod

        monkeypatch.setattr(floquet, "_magnus_product", recording)
        mono = monodromy(p, q, 2.2, rel_tol)
        ns = [n for n, _ in runs]
        tr = [np.trace(m) for _, m in runs]
        assert ns == [floquet.MAGNUS_STEPS * 2**i for i in range(len(ns))]
        assert np.array_equal(mono.matrix, runs[-1][1])  # the 2N product
        tol = [rel_tol * max(1.0, abs(t)) for t in tr]
        assert abs(tr[-1] - tr[-2]) <= tol[-1]
        assert all(abs(b - a) > t for a, b, t in zip(tr[:-2], tr[1:-1], tol[1:-1]))
        counts.append(len(ns))
    assert 2 <= counts[0] < counts[1]  # the tighter tolerance doubles further


def test_magnus_cap_raises_step_size_underflow(generic_pq, monkeypatch):
    p, q = generic_pq
    monkeypatch.setattr(floquet, "MAGNUS_MAX_STEPS", 512)
    with pytest.raises(StepSizeUnderflow):
        monodromy(p, q, 2.2, 1e-14)


def test_overflowing_monodromy_is_non_finite():
    # Mass 1000: |trace| ~ exp(1000) overflows, and the product turns NaN,
    # which a determinant check alone would let through.
    with pytest.raises(NonFiniteState):
        monodromy(PeriodicCoefficient(a0=2000.0), PeriodicCoefficient(), 0.5)
    with pytest.raises(NonFiniteState):
        monodromy(PeriodicCoefficient(a0=2000.0), PeriodicCoefficient(),
                  np.array([0.5, 1.0]))


@pytest.mark.parametrize("n, stride, lams, block", [
    (64, 1, 0.9, None),               # every grid point
    (100, 8, 0.9, None),              # 100 = 12 * 8 + 4: identity padding
    (64, 4, [0.3, 0.9, 2.5], None),   # a batch of energies
    (100, 8, 0.9, 24),                # four block seams, then the padding
    (100, 1, [0.3, 0.9, 2.5], 24)])   # seams under a batch
def test_magnus_chain_is_the_step_by_step_product(generic_pq, monkeypatch,
                                                  n, stride, lams, block):
    # Halving and the doubling scan reorder the products: equal to rounding.
    p, q = generic_pq
    lam = np.asarray(lams, dtype=float)[..., None]

    def exponent(x, h):
        return [e0 + lam * e1
                for e0, e1 in floquet._cell_exponents(p, q, x, h)]

    if block is not None:
        monkeypatch.setattr(_util, "QUAD_BLOCK", block)
    chain = floquet.magnus_chain(exponent, 0.25, 3.0, n, stride)
    ref = loop_magnus(exponent, 0.25, 3.0, n)
    ref = ref[..., list(range(0, n, stride)) + [n], :, :]
    samples = -(-n // stride) + 1  # the last stride ends on x1
    assert chain.shape == ref.shape == lam.shape[:-1] + (samples, 2, 2)
    assert np.max(np.abs(chain - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# band scan


def test_band_scan_finds_constant_mass_edge(mass_pq):
    # The only open gap of the constant-mass operator on lam > 0 is
    # (0, m); the touching at sqrt(m^2 + pi^2) is a closed gap and counts
    # as interior, so the band runs to the scan boundary.
    p, q = mass_pq
    bs = band_scan(p, q, (0.2, 4.0), 0.05)
    assert len(bs.bands) == 1
    band = bs.bands[0]
    assert band.lo == pytest.approx(MASS, abs=1e-4)
    assert band.hi == 4.0
    assert band.k_direction == 1
    assert bs.edges == [band.lo]


def test_band_scan_refines_edges_against_exact_oracle(monkeypatch):
    # Synthetic dispersion 2 cos(10 lam) + 0.5: |trace| = 2 exactly at
    # cos(10 lam) = 0.75, giving closed-form edges to test the bisection.
    def fake_trace(lam):
        return 2.0 * np.cos(10.0 * lam) + 0.5

    a = np.arccos(0.75)
    expected = [a / 10.0, (2 * np.pi - a) / 10.0, (2 * np.pi + a) / 10.0]
    fake_monodromy(monkeypatch, fake_trace)
    bs = band_scan(PeriodicCoefficient(), PeriodicCoefficient(),
                   (0.0, 1.0), 0.02)
    assert len(bs.bands) == 2
    assert bs.bands[1].hi == 1.0  # clipped by the scan window
    # bisection stops once the bracket shrinks to resolution/1000
    assert np.allclose(bs.edges, expected, atol=1.5e-5)


def test_band_scan_free_case_has_no_interior_edges(free_pq):
    p, q = free_pq
    bs = band_scan(p, q, (0.05, 2.0), 0.05)
    assert len(bs.bands) == 1
    assert bs.edges == []
    assert np.allclose(bs.traces, 2.0 * np.cos(bs.lambdas), atol=1e-9)


def test_band_scan_rejects_features_narrower_than_two_strides(monkeypatch):
    # Synthetic trace: a single in-band point surrounded by gap values.
    def fake_trace(lam):
        return 0.0 if abs(lam - 0.5) < 0.04 else 2.5

    fake_monodromy(monkeypatch, fake_trace)
    with pytest.raises(ScanTooCoarse):
        band_scan(PeriodicCoefficient(), PeriodicCoefficient(),
                  (0.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# fused frame table


def frame_fields(data):
    return field_derivative(data.delta_f), data.u_f, data.v_f, data.Psi_f


def mixed_frame(data):
    """A periodic frame whose delta (winding plus constant) and u are
    constant fields."""
    delta = PeriodicField(data.delta_f.slope + 2.0 * np.pi, const=0.3)
    u = PeriodicField(const=float(np.mean(data.u)))
    return (FrameTable(data.x, delta, u, data.v_f, data.Psi_f),
            (field_derivative(delta), u, data.v_f, data.Psi_f))


def coarse_frame(grid):
    """Four random fields on a 7-interval grid.  Here a spline's value at
    the end of the period differs from its start in the last bits, so
    an x whose frac rounds to 1.0 shows which interval the lookup took."""
    rng = np.random.default_rng(3)
    fields = []
    for slope in (0.7, 0.0, 0.0, 0.0):
        vals = 1.0 + rng.standard_normal(grid.size)
        vals[-1] = vals[0]
        fields.append(PeriodicField(slope, grid=grid, values=vals))
    return FrameTable(grid, *fields), (field_derivative(fields[0]),
                                       *fields[1:])


@pytest.mark.parametrize("which", ["generic", "free", "mixed", "coarse"])
def test_frame_table_equals_the_field_calls(which, generic_data, free_data):
    data = free_data if which == "free" else generic_data
    grid = np.linspace(0.0, 1.0, 8) if which == "coarse" else data.x
    if which == "mixed":
        table, fields = mixed_frame(data)
    elif which == "coarse":
        table, fields = coarse_frame(grid)
    else:
        table, fields = data.frame, frame_fields(data)
    assert (table.const is not None) == (which == "free")
    # random x, every breakpoint (also shifted, and one ulp either side),
    # integers, two x whose fractional part rounds to 1.0, and three whose
    # fractional part is a few ulps below 1.0 (the last interval)
    xs = np.concatenate([RNG.uniform(-1e4, 1e4, 1000), grid, grid - 3.0,
                         np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                         np.arange(-20.0, 21.0), [-1e-300, -5e-17],
                         [1.0 - 2.0**-53, 3.0 - 2.0**-51, -(2.0**-53)]])
    for x in xs:  # the scalar path, for float64 and for float
        ref = tuple(f(x) for f in fields)
        assert table(x) == ref and table(float(x)) == ref
    for got, f in zip(np.transpose([table(float(x)) for x in xs]), fields):
        assert np.all(got == f(xs))


def test_periodic_spline_matches_scipys(generic_data):
    # The FFT-solved periodic spline against scipy's
    # CubicSpline(bc_type="periodic") on the frame's own fields.
    from scipy.interpolate import CubicSpline

    data = generic_data
    t = np.concatenate([RNG.uniform(0.0, 1.0, 5000), data.x[:-1]])
    for name, f in (("u", data.u_f), ("v", data.v_f), ("Psi", data.Psi_f),
                    ("delta", data.delta_f), ("gamma1", data.gamma1_f)):
        vals = getattr(data, name) - f.slope * data.x
        vals[-1] = vals[0]
        ref = CubicSpline(data.x, vals, bc_type="periodic")
        mine = PeriodicField(grid=data.x, values=vals)
        for got, want in ((mine(t), ref(t)),
                          (field_derivative(mine)(t), ref.derivative()(t))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_periodic_field_needs_a_uniform_grid():
    grid = (1.0 - np.cos(np.linspace(0.0, np.pi, 8))) / 2.0
    with pytest.raises(ValueError, match="uniform grid"):
        PeriodicField(grid=grid, values=np.cos(2.0 * np.pi * grid))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=1.0 - 2.0**-53)  # t the last float below 1.0: the last interval
@example(x=-5e-17)          # frac rounds to 1.0 and wraps to 0.0
def test_frame_table_scalar_lookup_property(generic_data, x):
    assert generic_data.frame(x) == tuple(f(x) for f in frame_fields(generic_data))


# ---------------------------------------------------------------------------
# Floquet frames


def test_free_floquet_oracles(free_solution, free_data):
    lam = free_solution.lam
    assert free_solution.k == pytest.approx(lam, abs=1e-10)
    assert free_solution.omega == pytest.approx(1.0, abs=1e-9)
    data = free_data
    assert np.allclose(data.u, 0.5, atol=1e-9)
    assert np.allclose(data.v, 0.5, atol=1e-9)
    assert np.allclose(data.Psi, 1.0, atol=1e-9)
    assert np.allclose(np.cos(data.Gamma1), -1.0, atol=1e-8)
    assert np.allclose(data.delta, 0.0, atol=1e-7)
    assert data.delta_f.slope == 0.0
    assert data.Psi_mean == pytest.approx(1.0, abs=1e-9)
    assert data.frame.const is not None  # a constant frame: four numbers
    # gamma1 winds by exactly k per period
    assert data.gamma1_f.slope == pytest.approx(free_solution.k, abs=1e-9)


def test_floquet_condition_and_eigvec_normalization(generic_data):
    data = generic_data
    sol = data.sol
    eigvec = np.array([sol.g1[0], sol.g2[0]])  # g(0) = Phi(0) v = v
    assert np.linalg.norm(eigvec) == pytest.approx(1.0, abs=1e-12)
    j = 0 if abs(eigvec[0]) > 1e-8 else 1
    assert eigvec[j].imag == pytest.approx(0.0, abs=1e-12)
    assert eigvec[j].real > 0.0
    xs = RNG.uniform(0.0, 3.0, 12)
    mult = np.exp(1j * sol.k)
    g1a, g2a = data.g_eval(xs + 1.0)
    g1b, g2b = data.g_eval(xs)
    assert np.allclose(g1a, mult * g1b, atol=1e-7)
    assert np.allclose(g2a, mult * g2b, atol=1e-7)


@pytest.mark.parametrize("which,lam", [("generic", 2.0), ("generic", 0.9),
                                       ("mass", 2.2)])
def test_magnus_frame_matches_the_ivp_oracle(which, lam, generic_pq, mass_pq):
    # g = Phi v on the period grid, Phi from the cumulative Magnus product,
    # against Phi from DOP853 at rtol 1e-13 and the frame's own v = g(0).
    p, q = generic_pq if which == "generic" else mass_pq
    sol = floquet_solution(p, q, lam)

    def rhs(x, y):
        pv, qv = eval_coefficient(p, x), eval_coefficient(q, x)
        return (np.array([[-qv, lam + pv], [pv - lam, qv]])
                @ y.reshape(2, 2)).ravel()

    ref = solve_ivp(rhs, (0.0, 1.0), np.eye(2).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=sol.grid).y
    v = (sol.g1[0], sol.g2[0])
    assert np.max(np.abs(ref[0] * v[0] + ref[1] * v[1] - sol.g1)) <= 1e-11
    assert np.max(np.abs(ref[2] * v[0] + ref[3] * v[1] - sol.g2)) <= 1e-11


def test_wronskian_identities_on_the_grid(generic_data):
    data = generic_data
    sol = data.sol
    omega_grid = 2.0 * np.imag(np.conj(sol.g1) * sol.g2)
    assert np.max(np.abs(omega_grid - sol.omega)) <= 1e-8 * max(
        1.0, abs(sol.omega))
    # Prop 2.2(a): 2|g1||g2| sin(gamma2-gamma1) = omega pointwise
    lhs = 2.0 * np.abs(sol.g1) * np.abs(sol.g2) * np.sin(
        data.gamma2 - data.gamma1)
    assert np.max(np.abs(lhs - sol.omega)) < 1e-9


def test_psi_identity_and_positivity(generic_data):
    data = generic_data
    lhs = data.Psi**2
    rhs = (data.u - data.v) ** 2 + data.omega**2
    # Psi^2 = (u-v)^2 + omega^2 given omega^2 = 2uv(1 - cos Gamma1)
    omega_sq = 2.0 * data.u * data.v * (1.0 - np.cos(data.Gamma1))
    assert np.max(np.abs(omega_sq - data.omega**2)) < 1e-9
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    assert np.min(data.Psi) > 0.0


def test_gamma_derivative_matches_finite_differences(generic_data):
    data = generic_data
    eps = 1e-6
    for x in RNG.uniform(0.0, 2.0, 10):
        d1, d2 = gamma_derivative(data, x)
        fd1 = (data.gamma1_f(x + eps) - data.gamma1_f(x - eps)) / (2 * eps)
        fd2 = (data.gamma2_f(x + eps) - data.gamma2_f(x - eps)) / (2 * eps)
        assert abs(fd1 - d1) <= 1e-5 * (1.0 + abs(d1))
        assert abs(fd2 - d2) <= 1e-5 * (1.0 + abs(d2))


def test_delta_is_assembled_from_phi1_and_gamma2(generic_data):
    # phi1 = gamma1 - k x, periodic mod 2 pi
    data = generic_data
    phi1 = data.gamma1 - data.k * data.x
    assert np.allclose(data.delta, 2.0 * phi1 + data.Gamma2, atol=1e-12)
    turns = (phi1[-1] - phi1[0]) / (2.0 * np.pi)
    assert abs(turns - round(turns)) < 1e-6


def test_band_edge_raised_in_gap_and_near_edges(mass_pq):
    p, q = mass_pq
    with pytest.raises(BandEdge):
        floquet_solution(p, q, 0.5)
    # lam just inside the band: a frame, however near the edge
    lam = 1.51
    sol = floquet_solution(p, q, lam)
    assert sol.k == pytest.approx(np.sqrt(lam**2 - MASS**2), abs=1e-8)


def test_floquet_frame_has_one_spec():
    # Every frame is one Magnus step per FRAME_INTERVALS grid interval; no
    # caller picks a tolerance or a grid.
    assert floquet.FRAME_INTERVALS == 4096
    assert not hasattr(floquet, "FRAME_RTOL")
    assert list(inspect.signature(floquet_solution).parameters) == \
        ["p", "q", "lam"]
    assert "spec" not in inspect.signature(floquet_solution).parameters
    assert "spec" not in floquet.FloquetSolution.__dataclass_fields__


def test_in_band_samples_inside_bands(mass_pq):
    p, q = mass_pq
    lams = in_band_samples(p, q, (0.2, 4.0), 5)
    assert 0 < len(lams) <= 5
    for lam in lams:
        tr = monodromy(p, q, lam).trace
        assert abs(tr) / 2.0 <= 0.9 + 1e-12


def test_write_period_csv_deterministic(tmp_path, generic_data):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_period_csv(generic_data, p1)
    write_period_csv(generic_data, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header.startswith("x,re_g1,im_g1")
