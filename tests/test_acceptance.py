"""Acceptance suite: one test per declared desk-scale criterion.

The three hyperviscous semigroup-gap slope tests encode the claimed rate
-(1/2 - 1/l) literally.  The measured gap decays faster than that claim
(the kernel's vanishing first moment improves the rate), so those tests
fail by construction; see the kernel unit tests for the verification of
the claim as an upper bound.

The measurements (difference curves, drop rates, the bump perturbation,
the linear part, the gap curves) come from ``mildns.experiments``, the
same functions the CLI uses; the thresholds and windows live here.
"""

import numpy as np
import pytest

from mildns.cli import main
from mildns.exact import homogeneous_data, rescale
from mildns.experiments import (
    bump_perturbation,
    difference_curve,
    drop_per_decade,
    gap_curve,
    heat_weak3_curve,
    is_monotone_decreasing,
    linear_part_curve,
)
from mildns.fields import SpectralVectorField, dealias, dealias_mask, leray_project
from mildns.grid import make_grid
from mildns.kernels import compute_Cl
from mildns.norms import decay_functional, fit_slope
from mildns.solver import ModelSpec, etd_march, solve

AMPLITUDE = 0.5
DELTA_CELLS = 2.0


# ---------------------------------------------------------------------------
# Shared desk-scale solves (64^3, L = 40)


@pytest.fixture(scope="module")
def desk_grid():
    return make_grid(64, 40.0)


@pytest.fixture(scope="module")
def desk_times():
    return np.unique(np.concatenate([[0.0], np.geomspace(0.05, 25.0, 36), [1.0, 4.0]]))


@pytest.fixture(scope="module")
def desk_data(desk_grid):
    return homogeneous_data(desk_grid, AMPLITUDE, delta_cells=DELTA_CELLS)


@pytest.fixture(scope="module")
def ns_traj(desk_grid, desk_data, desk_times):
    return solve(ModelSpec("ns", desk_grid), desk_data, desk_times)


# ---------------------------------------------------------------------------
# 1. projector / transform suite


def spectral_convolution(grid, a_phys, b_phys):
    n = grid.n
    A = np.fft.fftn(a_phys) / n**3
    B = np.fft.fftn(b_phys) / n**3
    C = np.zeros_like(A)
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                if A[ix, iy, iz] == 0:
                    continue
                C += A[ix, iy, iz] * np.roll(
                    np.roll(np.roll(B, ix, 0), iy, 1), iz, 2
                )
    return C


@pytest.mark.parametrize("n", [8, 16])
def test_criterion_01_projector_transform_suite(n):
    g = make_grid(n, 2 * np.pi)
    rng = np.random.default_rng(100 + n)
    f = SpectralVectorField.from_physical(
        g, rng.standard_normal((3,) + g.physical_shape)
    )
    # transform round trip
    again = SpectralVectorField.from_physical(g, f.to_physical())
    assert np.abs(again.coeffs - f.coeffs).max() < 1e-12 * np.abs(f.coeffs).max()
    # P^2 = P and div o P small
    once = leray_project(f)
    twice = leray_project(once)
    assert np.abs(twice.coeffs - once.coeffs).max() < 1e-12 * np.abs(once.coeffs).max()
    assert once.max_divergence_ratio() < 1e-10
    # pseudo-spectral product vs direct convolution on the retained band
    u = dealias(f)
    v = dealias(
        SpectralVectorField.from_physical(
            g, rng.standard_normal((3,) + g.physical_shape)
        )
    )
    up, vp = u.to_physical(), v.to_physical()
    mask = dealias_mask(g)
    prod = g.forward(up[0] * vp[1]) / n**3
    conv = spectral_convolution(g, up[0], vp[1])[:, :, : n // 2 + 1]
    assert np.abs((prod - conv)[mask]).max() < 1e-10


# ---------------------------------------------------------------------------
# 2. kernel constants


def test_criterion_02_kernel_constants():
    for ell in (1.0, 1.5, 2.0):
        res = compute_Cl(ell)
        assert abs(res.value - 1.0) <= 1e-4
        assert res.error_estimate <= 1e-4
    res4 = compute_Cl(4.0)
    assert res4.value > 1.001
    assert res4.error_estimate <= 1e-4


# ---------------------------------------------------------------------------
# 3. semigroup approximation gap over t in [1, 64]


@pytest.fixture(scope="module")
def gap_curves():
    g = make_grid(256, 64.0)
    ts = np.geomspace(1.0, 64.0, 7)
    return {ell: gap_curve(g, ts, ell) for ell in (2.0, 3.0, 4.0, 6.0)}


def test_criterion_03_gap_invariance_ell2(gap_curves):
    curve, guards = gap_curves[2.0]
    assert not guards, guards
    vals = curve.values
    assert (vals.max() - vals.min()) / vals.max() < 0.01


@pytest.mark.parametrize("ell", [3.0, 4.0, 6.0])
def test_criterion_03_gap_slope(gap_curves, ell):
    curve, guards = gap_curves[ell]
    assert not guards, guards
    sf = fit_slope(curve, (curve.times[0], curve.times[-1]))
    target = -(0.5 - 1.0 / ell)
    assert abs(sf.slope - target) <= 0.05, (
        f"ell={ell}: fitted slope {sf.slope:.3f} vs claimed {target:.3f}; "
        "the measured decay is faster than the claimed rate"
    )


# ---------------------------------------------------------------------------
# 4. Landau closed-form residuals (delegates to the CLI experiment)


def test_criterion_04_landau_residuals(tmp_path):
    assert main(["landau", "--out", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# 5. weak-norm suite (delegates to the CLI self-test)


def test_criterion_05_weak_norm_suite(tmp_path):
    assert main(["norms-selftest", "--out", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# 6. solver cross-oracle on 16^3 small data


def small_data(grid):
    X, Y, Z = grid.meshgrid()
    u = 0.2 * np.stack(
        [
            np.cos(X) * np.sin(Y) * np.sin(Z),
            -np.sin(X) * np.cos(Y) * np.sin(Z),
            np.zeros_like(X),
        ]
    )
    f = leray_project(dealias(SpectralVectorField.from_physical(grid, u)))
    f.coeffs[:, 0, 0, 0] = 0.0
    return f


@pytest.mark.parametrize(
    "kind,kwargs,T",
    [
        ("ns", {}, 2.0),
        ("mollified", {"kappa": 2 * 2 * np.pi / 16}, 2.0),
        # short horizon: order-4 dissipation reaches roundoff past t ~ 1
        ("hyper", {"ell": 4.0}, 0.4),
    ],
)
def test_criterion_06_cross_oracle(kind, kwargs, T):
    g = make_grid(16, 2 * np.pi)
    u0 = small_data(g)
    model = ModelSpec(kind, g, **kwargs)
    ref = solve(model, u0, np.linspace(0.0, T, 257), tol=1e-9)
    ref_final = ref.coeffs[-1]
    ref_norm = SpectralVectorField(g, ref_final).l2_norm()

    errs = {}
    for M in (32, 64):
        traj = etd_march(u0, model, np.linspace(0.0, T, M + 1))
        d = SpectralVectorField(g, traj.coeffs[-1] - ref_final)
        errs[M] = d.l2_norm()
    # second-order convergence of the independent marcher
    assert abs(errs[32] / errs[64] - 4.0) <= 0.5
    # agreement at matching accuracy
    assert errs[64] / ref_norm <= 1e-6


def test_criterion_06_mollified_kappa_zero():
    g = make_grid(16, 2 * np.pi)
    u0 = small_data(g)
    times = np.linspace(0.0, 2.0, 33)
    a = solve(ModelSpec("ns", g), u0, times)
    b = solve(ModelSpec("mollified", g, kappa=0.0), u0, times)
    scale = np.abs(a.coeffs).max()
    assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# 7. self-similar decay of the homogeneous-data solution


def test_criterion_07_self_similarity(desk_times, ns_traj):
    curve = decay_functional(desk_times, ns_traj.fields(), 4.0)
    ts, vals = curve.times, curve.values
    # some factor-8 window keeps the functional constant within 10%
    best = np.inf
    for i, t0 in enumerate(ts):
        j = np.searchsorted(ts, 8.0 * t0)
        if j >= len(ts):
            break
        window = vals[i : j + 1]
        best = min(best, window.max() / window.min())
    assert best <= 1.10, f"best factor-8 window ratio {best:.3f}"


def test_criterion_07_rescaling_consistency(desk_grid, desk_times, ns_traj):
    # u from degree -1 style data nearly reproduces itself under
    # u -> lambda u(lambda x), t -> t / lambda^2.  The data is only
    # homogeneous between the smoothed core (scale ~ sqrt(t) = 1 plus
    # delta) and the cutoff window starting at r = L/4 = 10, and the
    # mapped field samples the source at radius lam r, so the check
    # lives on the annulus 2.5 <= r <= 4.5
    lam = 2.0
    m1 = int(np.argmin(np.abs(desk_times - 1.0)))
    m4 = int(np.argmin(np.abs(desk_times - 4.0)))
    assert abs(desk_times[m1] - 1.0) < 1e-12 and abs(desk_times[m4] - 4.0) < 1e-12
    ref = ns_traj.node(m1).to_physical()
    mapped = rescale(ns_traj.node(m4), lam, alias_tol=1e-6).to_physical()
    g = desk_grid
    X, Y, Z = g.meshgrid()
    L = g.length
    r = np.sqrt((X - L / 2) ** 2 + (Y - L / 2) ** 2 + (Z - L / 2) ** 2)
    mask = (r >= 2.5) & (r <= 4.5)
    num = np.sqrt(((mapped - ref) ** 2).sum(axis=0)[mask].sum())
    den = np.sqrt((ref**2).sum(axis=0)[mask].sum())
    assert num / den <= 0.1, f"annulus relative error {num / den:.3f}"


# ---------------------------------------------------------------------------
# 8. mollified difference functional


@pytest.fixture(scope="module")
def mollified_trajs(desk_grid, desk_data, desk_times):
    kap1 = 2.0 * desk_grid.dx
    kap2 = 4.0 * desk_grid.dx
    return (
        solve(ModelSpec("mollified", desk_grid, kappa=kap1), desk_data, desk_times),
        solve(ModelSpec("mollified", desk_grid, kappa=kap2), desk_data, desk_times),
    )


def test_criterion_08_mollified_convergence(desk_grid, desk_times, ns_traj, mollified_trajs):
    c1, c2 = (
        difference_curve(desk_grid, desk_times, ns_traj.coeffs, mol.coeffs, 4.0, "lp")
        for mol in mollified_trajs
    )
    lo, hi = 0.6, 21.0
    assert is_monotone_decreasing(c1, lo, hi), "not monotone in window"
    rate = drop_per_decade(c1, lo, hi)
    assert rate >= 2.0, f"drop per decade {rate:.2f}"
    early = c1.times < lo
    assert np.all(c2.values[early] >= c1.values[early]), "kappa ordering violated"


# ---------------------------------------------------------------------------
# 9. hyperviscous difference and linear part


def test_criterion_09_hyper_difference(desk_grid, desk_data, desk_times, ns_traj):
    traj_w = solve(ModelSpec("hyper", desk_grid, ell=4.0), desk_data, desk_times)
    curve = difference_curve(desk_grid, desk_times, ns_traj.coeffs, traj_w.coeffs, 3.0, "weak")
    rate = drop_per_decade(curve, 0.6, 21.0)
    assert rate >= 2.0, f"drop per decade {rate:.2f}"


def test_criterion_09_linear_part_slope():
    ell = 4.0
    ts = np.geomspace(10.0, 100.0, 12)
    curve = linear_part_curve(make_grid(128, 160.0), ts, ell, seed=7)
    sf = fit_slope(curve, (ts[0], ts[-1]))
    target = -(0.5 - 1.0 / ell)
    assert abs(sf.slope - target) <= 0.1, f"slope {sf.slope:.3f} vs {target}"


# ---------------------------------------------------------------------------
# 10. continuous dependence under an integrable bump perturbation


def test_criterion_10_stability(desk_grid, desk_data, desk_times, ns_traj):
    g = desk_grid
    du = bump_perturbation(g, 0.05, 1.5)
    u0_tilde = SpectralVectorField(g, desk_data.coeffs + du, is_solenoidal=True)
    traj_tilde = solve(ModelSpec("ns", g), u0_tilde, desk_times)

    diff = difference_curve(g, desk_times, ns_traj.coeffs, traj_tilde.coeffs, 3.0, "weak")
    lin = heat_weak3_curve(g, diff.times, desk_data.coeffs - u0_tilde.coeffs)

    lo, hi = 0.25, 16.0
    rate = drop_per_decade(diff, lo, hi)
    assert rate >= 4.0, f"difference drop per decade {rate:.2f}"
    rate_lin = drop_per_decade(lin, lo, hi)
    assert rate_lin >= 4.0, f"linear drop per decade {rate_lin:.2f}"
    # the linear term bounds the nonlinear trend (they decay together)
    mask = (diff.times >= lo) & (diff.times <= hi)
    assert np.all(diff.values[mask] <= 1.2 * lin.values[mask])
