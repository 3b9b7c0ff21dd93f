import numpy as np
import pytest
from scipy import integrate

from mildns.fields import SpectralVectorField, dealias, leray_project
from mildns.grid import make_grid
from mildns.solver import (
    BlowupError,
    DivergenceForcing,
    ModelSpec,
    NoForcing,
    PicardDivergenceError,
    SteadyGaussianForce,
    TimeGridSolution,
    _interval_weights,
    duhamel_bilinear,
    etd_march,
    graded_times,
    linear_forced_term,
    picard_solve,
    solve,
)


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
    assert np.abs(m.propagator_values(0.7) - np.exp(-1.4 * g.k_sq)).max() < 1e-15


def test_graded_times():
    ts = graded_times(25.0, 200)
    assert ts[0] == 0.0 and ts[-1] == 25.0
    assert np.all(np.diff(ts) > 0)
    # quadratic grading resolves the early diffusive scale
    assert ts[1] == 25.0 / 200**2
    with pytest.raises(ValueError):
        graded_times(0.0, 10)
    with pytest.raises(ValueError):
        graded_times(1.0, 0)


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


def test_linear_term_is_heat_flow_without_forcing():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.3)
    times = np.array([0.0, 0.2, 0.9])
    y = linear_forced_term(u0, ModelSpec("ns", g), times)
    for m, t in enumerate(times):
        expect = np.exp(-t * g.k_sq) * u0.coeffs
        assert np.abs(y.coeffs[m] - expect).max() < 1e-14


def test_steady_forcing_reaches_fixed_point():
    # (1 - e^(-t mu))/mu P F^ tends to the steady solution of the linear flow
    g = make_grid(16, 2 * np.pi)
    force = SteadyGaussianForce((0.1, 0.0, 0.05), sigma=0.8)
    model = ModelSpec("ns", g, forcing=force)
    u0 = SpectralVectorField.zero(g)
    times = np.array([0.0, 50.0])
    y = linear_forced_term(u0, model, times)
    f_hat = leray_project(SpectralVectorField(g, force.spectral_force(g, 0.0))).coeffs
    mu = g.k_sq.copy()
    mu[0, 0, 0] = 1.0
    steady = f_hat / mu
    steady[:, 0, 0, 0] = 0.0
    assert np.abs(y.coeffs[1] - steady).max() < 1e-10 * np.abs(steady).max()


def test_time_dependent_forcing_quadrature_converges():
    # F(t) = e^(-a t) F0 has the closed form (e^(-a t) - e^(-mu t))/(mu - a)
    g = make_grid(8, 2 * np.pi)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((3, 3) + g.spectral_shape) * np.exp(-g.k_sq)
    a = 0.35

    def v_spectral(grid, t):
        return V * np.exp(-a * t)

    model = ModelSpec("ns", g, forcing=DivergenceForcing(v_spectral))
    u0 = SpectralVectorField.zero(g)
    T = 1.0
    f_hat = leray_project(
        SpectralVectorField(g, model.forcing.spectral_force(g, 0.0))
    ).coeffs
    mu = g.k_sq
    denom = np.where(np.abs(mu - a) > 1e-12, mu - a, 1.0)
    exact = (np.exp(-a * T) - np.exp(-mu * T)) / denom * f_hat

    errs = []
    for M in (16, 32):
        times = np.linspace(0.0, T, M + 1)
        y = linear_forced_term(u0, model, times)
        errs.append(np.abs(y.coeffs[-1] - exact).max())
    assert errs[0] > 3.0 * errs[1]  # second-order quadrature
    assert errs[1] < 1e-3 * np.abs(exact).max()


def test_picard_zero_data_returns_zero():
    g = make_grid(8, 1.0)
    y = TimeGridSolution.zeros(g, np.array([0.0, 0.5, 1.0]))
    u = picard_solve(y, ModelSpec("ns", g))
    assert np.all(u.coeffs == 0.0)
    assert u.meta["converged"]


def test_shear_flow_is_exact_for_both_methods():
    # the nonlinear term of a unidirectional shear vanishes identically
    g = make_grid(16, 2 * np.pi)
    u0 = shear_flow(g, 0.8)
    times = np.linspace(0.0, 2.0, 9)
    model = ModelSpec("ns", g)
    for method in ("picard", "etd"):
        traj = solve(model, u0, times, method=method)
        for m, t in enumerate(times):
            expect = np.exp(-t) * u0.coeffs
            err = np.abs(traj.coeffs[m] - expect).max()
            assert err < 1e-12 * np.abs(u0.coeffs).max()


def test_picard_contracts_geometrically():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    times = graded_times(2.0, 32)
    traj = solve(ModelSpec("ns", g), u0, times)
    meta = traj.meta
    res = meta["residuals"]  # per iteration, the largest residual over the nodes
    assert meta["converged"]
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
    tol = 1e-9
    calls = count_nonlinear(monkeypatch)
    traj = solve(model, u0, times, tol=tol)
    assert traj.meta["nonlinear_evals"] == len(calls)
    y = linear_forced_term(u0, model, times)
    b = duhamel_bilinear(traj, traj, model)
    res = max(
        SpectralVectorField(g, y.coeffs[m] + b.coeffs[m] - traj.coeffs[m]).l2_norm()
        for m in range(len(times))
    ) / y.max_l2()
    assert res <= tol
    # the nonlinear part of the solution is far above the tolerance
    assert np.abs(traj.coeffs - y.coeffs).max() > 1e3 * tol * np.abs(y.coeffs).max()


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
    with pytest.raises(PicardDivergenceError, match=r"node 1 at t = .*non-finite"):
        solve(ModelSpec("ns", g), u0, graded_times(2.0, 16))
    assert len(calls) == 2  # node 0, then one iteration at node 1


def test_picard_iteration_cap_per_node():
    g = make_grid(16, 2 * np.pi)
    u0 = taylor_green(g, 0.2)
    with pytest.raises(PicardDivergenceError, match=r"node 1 .*no convergence in 2 iter"):
        solve(ModelSpec("ns", g), u0, graded_times(2.0, 32), tol=1e-30, max_sweeps=2)


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
    hi = g.k_sq > cutoff_sq
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


def test_etd_blowup_guard():
    g = make_grid(8, 2 * np.pi)
    u0 = shear_flow(g, 1e-8)
    force = SteadyGaussianForce((5.0, 0.0, 0.0), sigma=1.0)
    with pytest.raises(BlowupError):
        etd_march(u0, ModelSpec("ns", g, forcing=force), np.linspace(0.0, 1.0, 5))


def test_solve_rejects_unknown_method():
    g = make_grid(8, 1.0)
    with pytest.raises(ValueError):
        solve(ModelSpec("ns", g), SpectralVectorField.zero(g), np.array([0.0, 1.0]),
              method="rk4")


def test_no_forcing_returns_none():
    g = make_grid(8, 1.0)
    assert NoForcing().spectral_force(g, 0.0) is None
