import numpy as np
import pytest
from scipy import integrate

from mildns import solver
from mildns.fields import SpectralVectorField, dealias, gradient, leray_project
from mildns.grid import Grid3, make_grid
from mildns.solver import (
    BlowupError,
    ModelSpec,
    PicardDivergenceError,
    TimeGridSolution,
    _interval_weights,
    duhamel_bilinear,
    etd_march,
    linear_forced_term,
    picard_solve,
    solve,
)


def graded_times(T, M, gamma=2.0):
    """t_m = T (m/M)^gamma: early-time resolution matching the t^(1/2) scale."""
    return T * (np.arange(M + 1) / M) ** gamma


def taylor_green(grid, amplitude):
    X, Y, Z = grid.meshgrid()
    u = amplitude * np.stack(
        [
            np.cos(X) * np.sin(Y) * np.sin(Z),
            -np.sin(X) * np.cos(Y) * np.sin(Z),
            np.zeros_like(X),
        ]
    )
    f = leray_project(dealias(SpectralVectorField.from_physical(grid, u)))
    f.coeffs[:, 0, 0, 0] = 0.0
    return f


def random_field(grid, amplitude, seed):
    """Seeded random-phase field: solenoidal, dealiased, mean-free, L^2 norm amplitude."""
    rng = np.random.default_rng(seed)
    envelope = np.exp(-grid.k_sq / 8.0)
    phase = np.exp(2j * np.pi * rng.random((3,) + grid.spectral_shape))
    f = SpectralVectorField(grid, grid.forward(grid.backward(envelope * phase)))
    f = leray_project(dealias(f))
    f.coeffs[:, 0, 0, 0] = 0.0
    f.coeffs *= amplitude / f.l2_norm()
    return f


def etd(model, u0, times):
    """etd_march in solve's argument order."""
    return etd_march(u0, model, times)


# the Picard solver and the ETD2RK oracle, each called as run(model, u0, times)
SOLVERS = [pytest.param(solve, id="picard"), pytest.param(etd, id="etd")]


def count_nonlinear(monkeypatch):
    """Record every ModelSpec.nonlinear call from now on; returns the call list."""
    calls = []
    original = ModelSpec.nonlinear

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(ModelSpec, "nonlinear", counted)
    return calls


def shear_flow(grid, amplitude):
    """u = (a cos y, 0, 0): an exact solution decaying as e^-t."""
    _, Y, _ = grid.meshgrid()
    u = np.stack([amplitude * np.cos(Y), np.zeros_like(Y), np.zeros_like(Y)])
    return SpectralVectorField.from_physical(grid, u)


def test_model_spec_validation():
    g = make_grid(8, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("weird", g)
    with pytest.raises(ValueError):
        ModelSpec("mollified", g, kappa=-1.0)
    with pytest.raises(ValueError):
        ModelSpec("hyper", g)
    with pytest.raises(ValueError):
        ModelSpec("hyper", g, ell=1.5)


def test_hyper_ell2_is_doubled_heat():
    g = make_grid(16, 3.0)
    m = ModelSpec("hyper", g, ell=2.0)
    assert np.abs(np.exp(-0.7 * m.dissipation_exponent()) - np.exp(-1.4 * g.band.k_sq)).max() < 1e-15


def test_interval_weights_against_quadrature():
    dt = 0.13
    for mu in (0.0, 1e-9, 1e-4, 0.7, 40.0, 2000.0):
        mu_arr = np.array([mu])
        decay, w_new, w_old = _interval_weights(mu_arr, dt)
        assert abs(decay[0] - np.exp(-mu * dt)) < 1e-15
        ref_new, _ = integrate.quad(
            lambda s: np.exp(-mu * s) * (1 - s / dt), 0.0, dt, epsabs=1e-15
        )
        ref_old, _ = integrate.quad(
            lambda s: np.exp(-mu * s) * (s / dt), 0.0, dt, epsabs=1e-15
        )
        assert abs(w_new[0] - ref_new) < 1e-12 * max(ref_new, 1e-30) + 1e-16
        assert abs(w_old[0] - ref_old) < 1e-12 * max(ref_old, 1e-30) + 1e-16


def test_interval_weights_across_the_series_switch():
    # h = dt * mu below 1e-3 takes the Taylor series, above it the closed form
    dt = 0.5
    h = 1e-3 * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    _, w_new, w_old = _interval_weights(h / dt, dt)
    assert abs(w_new[0] - w_new[1]) <= 1e-12 * abs(w_new[1])
    assert abs(w_old[0] - w_old[1]) <= 1e-12 * abs(w_old[1])
    # both branches keep w_new + w_old = dt * phi1(h)
    h = np.geomspace(1e-8, 1e4, 2001)
    _, w_new, w_old = _interval_weights(h / dt, dt)
    phi1 = -np.expm1(-h) / h
    assert np.abs((w_new + w_old) / (dt * phi1) - 1.0).max() <= 1e-13


def test_linear_term_is_heat_flow_without_forcing():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.3)
    times = np.array([0.0, 0.2, 0.9])
    y = linear_forced_term(u0, ModelSpec("ns", g), times)
    for m, t in enumerate(times):
        expect = np.exp(-t * g.k_sq) * u0.coeffs
        assert np.abs(y.node(m).coeffs - expect).max() < 1e-14


def test_picard_zero_data_returns_zero():
    g = make_grid(8, 1.0)
    y = TimeGridSolution.zeros(g, np.array([0.0, 0.5, 1.0]))
    u = picard_solve(y, ModelSpec("ns", g))
    assert np.all(u.coeffs == 0.0)


def test_shear_flow_is_exact_for_both_methods():
    # the nonlinear term of a unidirectional shear vanishes identically
    g = make_grid(16, 2 * np.pi)
    u0 = shear_flow(g, 0.8)
    times = np.linspace(0.0, 2.0, 9)
    model = ModelSpec("ns", g)
    for run in (solve, etd):
        traj = run(model, u0, times)
        for m, t in enumerate(times):
            expect = np.exp(-t) * u0.coeffs
            err = np.abs(traj.node(m).coeffs - expect).max()
            assert err < 1e-12 * np.abs(u0.coeffs).max()


def test_picard_contracts_geometrically():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    times = graded_times(2.0, 32)
    traj = solve(ModelSpec("ns", g), u0, times)
    meta = traj.meta
    res = meta["residuals"]  # per iteration, the largest residual over the nodes
    assert len(meta["iterations"]) == len(times) - 1
    assert meta["sweeps"] == max(meta["iterations"]) == len(res) >= 2
    assert meta["nonlinear_evals"] == sum(meta["iterations"]) + 1
    assert meta["contraction_ratio"] < 0.2
    assert all(b < 0.5 * a for a, b in zip(res[:-1], res[1:]))


@pytest.mark.parametrize(
    "kind, kwargs",
    # kappa = 2 cells of the 16^3 grid on the 2 pi box
    [("ns", {}), ("mollified", {"kappa": 2 * np.pi / 8}), ("hyper", {"ell": 4.0})],
)
def test_picard_solves_the_whole_trajectory_fixed_point(kind, kwargs, monkeypatch):
    # independent whole-trajectory check: y + B(u, u) - u, with B from duhamel_bilinear
    g = make_grid(16, 2 * np.pi)
    model = ModelSpec(kind, g, **kwargs)
    u0 = random_field(g, 2.0, seed=3)
    times = graded_times(2.0, 16)
    calls = count_nonlinear(monkeypatch)
    traj = solve(model, u0, times)
    assert traj.meta["nonlinear_evals"] == len(calls)
    y = linear_forced_term(u0, model, times)
    b = duhamel_bilinear(traj, traj, model)
    res = max(
        SpectralVectorField(g, y.coeffs[m] + b.coeffs[m] - traj.coeffs[m]).l2_norm()
        for m in range(len(times))
    ) / y.max_l2()
    assert res <= solver.TOL
    # the nonlinear part of the solution is far above the tolerance
    assert np.abs(traj.coeffs - y.coeffs).max() > 1e3 * solver.TOL * np.abs(y.coeffs).max()


def test_picard_divergence_detected():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 80.0)
    times = graded_times(2.0, 16)
    with pytest.raises(PicardDivergenceError):
        solve(ModelSpec("ns", g), u0, times)


def test_picard_fails_fast_on_nan_data(monkeypatch):
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    u0.coeffs[0, 1, 2, 3] = np.nan
    calls = count_nonlinear(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        solve(ModelSpec("ns", g), u0, graded_times(2.0, 16))
    assert len(calls) == 0


def test_picard_fails_fast_on_a_non_finite_residual(monkeypatch):
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    calls = []
    original = ModelSpec.nonlinear

    def nan_from_node_2(self, u, v):
        calls.append(1)
        n = original(self, u, v)
        if len(calls) >= 5:  # node 0 and the 3 iterations of node 1 stay finite
            n.coeffs[0, 1, 2, 3] = np.nan
        return n

    monkeypatch.setattr(ModelSpec, "nonlinear", nan_from_node_2)
    with pytest.raises(PicardDivergenceError, match=r"node 2 at t = .*non-finite"):
        solve(ModelSpec("ns", g), u0, graded_times(2.0, 16))
    assert len(calls) == 5  # the first iteration at node 2 stops the solve


def _with_nan(f):
    f.coeffs[0, 1, 2, 3] = np.nan


def _with_mean(f):
    f.coeffs[0, 0, 0, 0] = 1e-3 * np.abs(f.coeffs).max()


def _with_divergence(f):
    g = f.grid
    f.coeffs += 1e-3 * dealias(gradient(g, np.exp(-g.k_sq))).coeffs


def _outside_the_band(f):
    g = f.grid
    rng = np.random.default_rng(5)
    high = leray_project(
        SpectralVectorField.from_physical(g, rng.standard_normal((3,) + g.physical_shape))
    )
    high.coeffs[:, 0, 0, 0] = 0.0
    f.coeffs += 1e-6 * high.coeffs  # solenoidal and mean-free, but not dealiased


@pytest.mark.parametrize("run", SOLVERS)
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_with_nan, "non-finite coefficients"),
        (_with_mean, "nonzero mean"),
        (_with_divergence, "divergence ratio"),
        (_outside_the_band, "outside the 2/3 band"),
    ],
)
def test_solve_rejects_data_it_cannot_hold(corrupt, message, run, monkeypatch):
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    corrupt(u0)
    calls = count_nonlinear(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run(ModelSpec("ns", g), u0, graded_times(1.0, 4))
    assert len(calls) == 0


@pytest.mark.parametrize("run", SOLVERS)
@pytest.mark.parametrize(
    "times, message",
    [
        pytest.param([[0.0, 1.0]], "not 1-D", id="2-d"),
        pytest.param([0.0, np.nan, 1.0], "non-finite times", id="nan"),
        pytest.param([0.5, 1.0, 2.0], "does not start at 0.0", id="late-start"),
        pytest.param([0.0, 1.0, 0.5], "not strictly increasing", id="backwards"),
        pytest.param([0.0, 1.0, 1.0], "not strictly increasing", id="repeated"),
    ],
)
def test_solve_rejects_time_grids_it_cannot_integrate(times, message, run, monkeypatch):
    # Picard integrates from times[0] with node 0 set to u0, and ETD marches
    # whatever steps it is given, so neither would notice these grids
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    calls = count_nonlinear(monkeypatch)
    with pytest.raises(ValueError, match=f"time grid: {message}"):
        run(ModelSpec("ns", g), u0, np.array(times))
    assert len(calls) == 0


def test_picard_rejects_a_relabelled_time_grid(monkeypatch):
    # picard_solve takes y as it comes, so it checks y.times itself
    g = make_grid(16, 2 * np.pi)
    model = ModelSpec("ns", g)
    y = linear_forced_term(taylor_green(g, 0.2), model, np.array([0.0, 1.0, 2.0]))
    y.times = np.array([0.5, 1.0, 2.0])
    calls = count_nonlinear(monkeypatch)
    with pytest.raises(ValueError, match="time grid: does not start at 0.0"):
        picard_solve(y, model)
    assert len(calls) == 0


def test_picard_iteration_cap_per_node(monkeypatch):
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    monkeypatch.setattr(solver, "TOL", 1e-30)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    with pytest.raises(PicardDivergenceError, match=r"node 1 .*no convergence in 2 iter"):
        solve(ModelSpec("ns", g), u0, graded_times(2.0, 32))


def test_energy_nonincreasing_unforced():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.3)
    times = graded_times(3.0, 24)
    traj = solve(ModelSpec("ns", g), u0, times)
    norms = [traj.node_l2(m) for m in range(len(times))]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(norms[:-1], norms[1:]))


def test_mollified_kappa_zero_reduces_to_ns():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    times = graded_times(1.0, 16)
    a = solve(ModelSpec("ns", g), u0, times)
    b = solve(ModelSpec("mollified", g, kappa=0.0), u0, times)
    scale = np.abs(a.coeffs).max()
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * scale


def test_hyper_damps_high_modes_more():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    times = graded_times(1.0, 16)
    a = solve(ModelSpec("ns", g), u0, times)
    b = solve(ModelSpec("hyper", g, ell=4.0), u0, times)
    cutoff_sq = ((g.n / 4) * (2 * np.pi / g.length)) ** 2
    hi = g.band.k_sq > cutoff_sq
    for m in range(1, len(times)):
        e_ns = ((np.abs(a.coeffs[m]) ** 2)[:, hi] * g.hermitian_weight[0, 0, 0]).sum()
        e_hy = (np.abs(b.coeffs[m]) ** 2)[:, hi].sum()
        assert e_hy < e_ns


def test_duhamel_bilinear_grid_mismatch():
    g1 = make_grid(8, 1.0)
    g2 = make_grid(8, 2.0)
    a = TimeGridSolution.zeros(g1, np.array([0.0, 1.0]))
    b = TimeGridSolution.zeros(g2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        duhamel_bilinear(a, b, ModelSpec("ns", g1))


def test_duhamel_bilinear_of_one_trajectory_takes_the_symmetric_path(monkeypatch):
    # N(u, u) transforms the 6 distinct products of a symmetric tensor, N(u, v) all 9
    g = make_grid(16, 2 * np.pi)
    model = ModelSpec("ns", g)
    traj = solve(model, taylor_green(g, 0.2), graded_times(1.0, 4))
    calls = []
    original = Grid3.forward

    def counted(self, samples, kz_keep=None):
        calls.append(1)
        return original(self, samples, kz_keep)

    monkeypatch.setattr(Grid3, "forward", counted)
    b = duhamel_bilinear(traj, traj, model)
    assert len(calls) == 6 * len(traj.times)
    calls.clear()
    same_coeffs = TimeGridSolution(g, traj.times, traj.coeffs)  # another object
    assert np.array_equal(duhamel_bilinear(traj, same_coeffs, model).coeffs, b.coeffs)
    assert len(calls) == 9 * len(traj.times)


def test_etd_blowup_guard():
    # data far outside the small-data regime: the explicit stages overshoot
    g = make_grid(8, 2 * np.pi)
    u0 = random_field(g, 1e3, 0)
    with pytest.raises(BlowupError):
        etd_march(u0, ModelSpec("ns", g), np.linspace(0.0, 1.0, 5))


def test_solves_record_the_band_storage():
    g = make_grid(64, 40.0)
    times = np.linspace(0.0, 1.0, 4)
    full_bytes = len(times) * 3 * np.prod(g.spectral_shape) * np.dtype(complex).itemsize
    traj = picard_solve(TimeGridSolution.zeros(g, times), ModelSpec("ns", g))
    assert traj.meta["band_shape"] == g.band.shape == (43, 43, 22)
    assert traj.meta["trajectory_bytes"] == traj.coeffs.nbytes <= 0.31 * full_bytes
    g = make_grid(16, 2 * np.pi)
    traj = etd_march(taylor_green(g, 0.2), ModelSpec("ns", g), times)
    assert traj.meta["band_shape"] == g.band.shape
    assert traj.meta["trajectory_bytes"] == traj.coeffs.nbytes

