"""Acceptance suite: one test per declared desk-scale criterion.

The three hyperviscous semigroup-gap slope tests encode the claimed rate
-(1/2 - 1/l) literally.  The measured gap decays faster than that claim
(the kernel's vanishing first moment improves the rate), so those tests
fail by construction; see the kernel unit tests for the verification of
the claim as an upper bound.

Criteria 2 and 8-10 are judged by the judges of ``mildns.experiments``
with the thresholds and windows of ``cli.DEFAULTS``, the code the CLI
runs; criteria 4 and 5 run the CLI itself.  The desk-scale solves use the
CLI's grid and data on its time grid plus the nodes t = 1 and 4.
"""

import numpy as np
import pytest

from mildns import experiments
from mildns.cli import DEFAULTS, main
from mildns.exact import rescale
from mildns.experiments import gap_curve
from mildns.fields import SpectralVectorField, dealias, dealias_mask, leray_project
from mildns.grid import make_grid
from mildns.norms import decay_functional, fit_slope
from mildns.solver import ModelSpec, etd_march, solve
from test_fields import spectral_convolution
from test_solver import taylor_green


def assert_all_pass(criteria):
    failed = [f"{c.name} [{c.detail}]" for c in criteria if not c.passed]
    assert not failed, "failed: " + "; ".join(failed)


# ---------------------------------------------------------------------------
# Shared desk-scale solves (64^3, L = 40)


@pytest.fixture(scope="module")
def desk():
    # every solver section of DEFAULTS has the same grid, times and data;
    # t = 1 and 4 are the rescaling pair of criterion 7
    g, times, u0 = experiments.desk_setup(DEFAULTS["stability"])
    return g, np.unique(np.concatenate([times, [1.0, 4.0]])), u0


@pytest.fixture(scope="module")
def ns_traj(desk):
    g, times, u0 = desk
    return solve(ModelSpec("ns", g), u0, times)


# ---------------------------------------------------------------------------
# 1. projector / transform suite


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
    cfg = DEFAULTS["kernels"]
    criteria, results = experiments.kernel_constants(cfg)
    assert_all_pass(criteria)
    # the two resolutions agree also where C_l is only bounded from below
    assert all(res.error_estimate <= cfg["cl_tol"] for res in results)


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
    u0 = taylor_green(g, 0.2)
    model = ModelSpec(kind, g, **kwargs)
    ref = solve(model, u0, np.linspace(0.0, T, 257))
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
    u0 = taylor_green(g, 0.2)
    times = np.linspace(0.0, 2.0, 33)
    a = solve(ModelSpec("ns", g), u0, times)
    b = solve(ModelSpec("mollified", g, kappa=0.0), u0, times)
    scale = np.abs(a.coeffs).max()
    assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# 7. self-similar decay of the homogeneous-data solution


def test_criterion_07_self_similarity(ns_traj):
    curve = decay_functional(ns_traj.times, ns_traj.fields(), 4.0)
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


def test_criterion_07_rescaling_consistency(ns_traj):
    # u from degree -1 style data nearly reproduces itself under
    # u -> lambda u(lambda x), t -> t / lambda^2.  The data is only
    # homogeneous between the smoothed core (scale ~ sqrt(t) = 1 plus
    # delta) and the cutoff window starting at r = L/4 = 10, and the
    # mapped field samples the source at radius lam r, so the check
    # lives on the annulus 2.5 <= r <= 4.5
    lam = 2.0
    times = ns_traj.times
    m1 = int(np.argmin(np.abs(times - 1.0)))
    m4 = int(np.argmin(np.abs(times - 4.0)))
    assert abs(times[m1] - 1.0) < 1e-12 and abs(times[m4] - 4.0) < 1e-12
    ref = ns_traj.node(m1).to_physical()
    mapped = rescale(ns_traj.node(m4), lam, alias_tol=1e-6).to_physical()
    g = ns_traj.grid
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
def mollified_trajs(desk):
    g, times, u0 = desk
    return tuple(
        solve(ModelSpec("mollified", g, kappa=kappa), u0, times)
        for kappa in experiments.mollifier_widths(DEFAULTS["mollified"], g)
    )


def test_criterion_08_mollified_convergence(ns_traj, mollified_trajs):
    assert_all_pass(experiments.mollified(DEFAULTS["mollified"], ns_traj, *mollified_trajs)[0])


# ---------------------------------------------------------------------------
# 9. hyperviscous difference and linear part


def test_criterion_09_hyper_difference(desk, ns_traj):
    g, times, u0 = desk
    cfg = DEFAULTS["hyper"]
    traj_w = solve(ModelSpec("hyper", g, ell=cfg["ell"]), u0, times)
    assert_all_pass(experiments.hyper(cfg, ns_traj, traj_w)[0])


def test_criterion_09_linear_part_slope():
    assert_all_pass(experiments.hyper_linear_part(DEFAULTS["hyper"])[0])


# ---------------------------------------------------------------------------
# 10. continuous dependence under an integrable bump perturbation


def test_criterion_10_stability(desk, ns_traj):
    g, times, u0 = desk
    cfg = DEFAULTS["stability"]
    u0_tilde = experiments.bump_perturbed(u0, cfg["bump_amplitude"], cfg["bump_sigma"])
    traj_tilde = solve(ModelSpec("ns", g), u0_tilde, times)
    assert_all_pass(experiments.stability(cfg, ns_traj, traj_tilde)[0])
