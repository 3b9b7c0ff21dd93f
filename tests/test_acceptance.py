"""Acceptance suite: one test per declared desk-scale criterion.

The three hyperviscous semigroup-gap slope tests encode the claimed rate
-(1/2 - 1/l) literally.  The measured gap decays faster than that claim
(the kernel's vanishing first moment improves the rate), so those tests
fail by construction; see the kernel unit tests for the verification of
the claim as an upper bound.

Criteria 2, 3 and 8-10 are judged by the judges of ``mildns.experiments``
with the thresholds and windows of ``cli.DEFAULTS``, and what they measure
must match ``desk_reference.json``; criteria 4 and 5 run the CLI itself.
The desk-scale trajectories are those the experiments declare, each solved
once, on the CLI's grid, data and time grid plus the nodes t = 1 and 4.
"""

import json

import numpy as np
import pytest

from desk_reference import GAP_CONFIG, acceptance_desk, assert_pinned, gap_numbers, node_norms, numbers
from mildns import experiments
from mildns.cli import DEFAULTS, main
from mildns.exact import rescale
from mildns.fields import SpectralVectorField, dealias, dealias_mask, leray_project
from mildns.grid import make_grid
from mildns.norms import decay_functional
from mildns.solver import ModelSpec, etd_march, solve
from test_fields import spectral_convolution
from test_solver import taylor_green


def assert_judged(section, judged):
    """Every criterion of a judgement passes, and its numbers match the reference."""
    failed = [f"{c.name} [{c.detail}]" for c in judged.criteria if not c.passed]
    assert not failed, "failed: " + "; ".join(failed)
    assert_pinned(section, numbers(judged))


# ---------------------------------------------------------------------------
# Shared desk-scale solves (64^3, L = 40)


@pytest.fixture(scope="module")
def desk():
    return acceptance_desk()


@pytest.fixture(scope="module")
def ns_traj(desk):
    g, times, u0 = desk
    ns = experiments.solves("stability", DEFAULTS["stability"], g, u0)["ns"]
    return experiments.solve_declared({"ns": ns}, times)["ns"]


def assert_desk_experiment(name, desk, ns_traj):
    """The judge of experiment ``name`` on the trajectories it declares."""
    g, times, u0 = desk
    declared = experiments.solves(name, DEFAULTS[name], g, u0)
    del declared["ns"]  # every solver experiment declares it: it is solved once
    trajs = {"ns": ns_traj, **experiments.solve_declared(declared, times)}
    for key, traj in trajs.items():
        assert_pinned(f"trajectory {key}", {"node_l2": node_norms(traj)})
    assert_judged(name, getattr(experiments, name)(DEFAULTS[name], trajs))


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
    assert_judged("kernel_constants", experiments.Judgement(criteria))
    # the two resolutions agree also where C_l is only bounded from below
    assert all(res.error_estimate <= cfg["cl_tol"] for res in results)


# ---------------------------------------------------------------------------
# 3. semigroup approximation gap over t in [1, 64]


@pytest.fixture(scope="module")
def gap():
    criteria, rows, guards = experiments.semigroup_gap(GAP_CONFIG)
    assert not guards, guards
    assert_pinned("semigroup_gap", gap_numbers(criteria, rows))
    return criteria


def test_criterion_03_gap_invariance_ell2(gap):
    assert gap[2.0].passed, gap[2.0].detail


@pytest.mark.parametrize("ell", [3.0, 4.0, 6.0])
def test_criterion_03_gap_slope(gap, ell):
    assert gap[ell].passed, (
        f"ell={ell}: fitted slope {gap[ell].value:.3f} vs claimed {-(0.5 - 1.0 / ell):.3f}; "
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
    assert len(json.loads((tmp_path / "out" / "report.json").read_text())["criteria"]) == 4


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


def test_criterion_08_mollified_convergence(desk, ns_traj):
    assert_desk_experiment("mollified", desk, ns_traj)


# ---------------------------------------------------------------------------
# 9. hyperviscous difference and linear part


def test_criterion_09_hyper_difference(desk, ns_traj):
    assert_desk_experiment("hyper", desk, ns_traj)


def test_criterion_09_linear_part_slope():
    assert_judged("hyper_linear_part", experiments.hyper_linear_part(DEFAULTS["hyper"]))


# ---------------------------------------------------------------------------
# 10. continuous dependence under an integrable bump perturbation


def test_criterion_10_stability(desk, ns_traj):
    assert_desk_experiment("stability", desk, ns_traj)
