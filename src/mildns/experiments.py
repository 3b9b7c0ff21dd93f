"""One definition per experiment, shared by the command line and the acceptance suite.

The measurements turn trajectories or data into one decay curve, or a curve
into one number.  The judges apply them: each takes an experiment's config
section and the trajectories its caller solved, reads every threshold and
window from that section, and returns the criteria, the curves by CSV name
and the fields it adds to ``report.json``.  The CLI writes what a judge
returns; the acceptance suite calls the same judge with ``cli.DEFAULTS``
and asserts that every criterion passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import homogeneous_data
from .fields import SpectralVectorField, dealias_mask, leray_project
from .grid import Grid3, make_grid
from .kernels import ContainmentError, compute_Cl, l1_semigroup_gap
from .norms import DecayCurve, decay_functional, fit_slope, weak_lp_norm
from .solver import TimeGridSolution


@dataclass
class Criterion:
    name: str
    passed: bool
    detail: str


def desk_setup(cfg: dict):
    """Grid, graded-in-log times and the swirl data of the solver experiments."""
    g = make_grid(int(cfg["n"]), cfg["L"])
    times = np.concatenate(
        [[0.0], np.geomspace(cfg["t_min"], cfg["T"], int(cfg["M"]))]
    )
    return g, times, homogeneous_data(g, cfg["amplitude"], delta_cells=cfg["delta_cells"])


def mollifier_widths(cfg: dict, grid: Grid3) -> tuple[float, float]:
    """The two mollifier widths of the mollified experiment, in box units."""
    return cfg["kappa_cells"] * grid.dx, cfg["kappa_cells_2"] * grid.dx


# ---------------------------------------------------------------------------
# Measurements


def difference_curve(
    a: TimeGridSolution, b: TimeGridSolution, p: float, kind: str, label: str = ""
) -> DecayCurve:
    """t^((1-3/p)/2) ||a(t) - b(t)|| at the positive nodes of two trajectories.

    ``kind`` is "lp" or "weak" as in ``norms.decay_functional``; at p = 3 the
    weight is 1, so the weak-3 curve is the plain weak norm of the difference.
    """
    diffs = (SpectralVectorField(a.grid, ca - cb) for ca, cb in zip(a.coeffs, b.coeffs))
    return decay_functional(a.times, diffs, p, kind=kind, functional=label)


def drop_per_decade(curve: DecayCurve, lo: float, hi: float) -> float:
    """Total drop factor over [lo, hi], normalized to one time decade."""
    mask = (curve.times >= lo) & (curve.times <= hi)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 2:
        raise ValueError("measurement window holds fewer than 2 samples")
    decades = math.log10(t[-1] / t[0])
    return (v[0] / v[-1]) ** (1.0 / decades)


def bump_perturbed(u0: SpectralVectorField, amplitude: float, sigma: float) -> SpectralVectorField:
    """u0 plus curl (0, 0, psi) for a Gaussian psi centred in the box.

    The perturbation is solenoidal and integrable, with amplitude and width
    sigma of psi in box units, and cut to the 2/3 band like the data.
    """
    grid = u0.grid
    X, Y, Z = grid.meshgrid()
    c = grid.length / 2
    r2 = (X - c) ** 2 + (Y - c) ** 2 + (Z - c) ** 2
    psi_hat = grid.forward(amplitude * np.exp(-r2 / (2 * sigma**2)))
    du = np.stack([1j * grid.ky * psi_hat, -1j * grid.kx * psi_hat, np.zeros_like(psi_hat)])
    return SpectralVectorField(grid, u0.coeffs + du * dealias_mask(grid), is_solenoidal=True)


def _weak3_curve(grid: Grid3, times, spectrum, label: str) -> DecayCurve:
    """||g_t||_{3,w} at each time t, with g_t^ = spectrum(t)."""
    vals = [weak_lp_norm(grid.backward(spectrum(t)), 3.0, grid.cell_volume) for t in times]
    return DecayCurve(times, np.array(vals), label, 3.0, "weak")


def gap_curve(grid: Grid3, times, ell: float) -> tuple[DecayCurve, list[str]]:
    """The L1 semigroup gap at each time, and one message per time left out.

    A time whose kernels are unresolved or do not fit the box
    (ContainmentError) is left out of the curve and named in the messages.
    """
    ts, vals, guards = [], [], []
    for t in times:
        try:
            vals.append(l1_semigroup_gap(ell, t, grid))
            ts.append(t)
        except ContainmentError as exc:
            guards.append(f"ell={ell:g} t={t:g}: {exc}")
    return DecayCurve(np.array(ts), np.array(vals), "L1 semigroup gap"), guards


# ---------------------------------------------------------------------------
# Judges


def kernel_constants(cfg: dict):
    """C_l = 1 for l <= 2 and C_l > 1.001 beyond, for each l of ``cl_ells``.

    Returns the criteria and the ``compute_Cl`` result of each l.
    """
    criteria, results = [], []
    for ell in [float(s) for s in str(cfg["cl_ells"]).split(",")]:
        res = compute_Cl(ell)
        results.append(res)
        if ell <= 2:
            ok = abs(res.value - 1.0) <= cfg["cl_tol"] and res.error_estimate <= cfg["cl_tol"]
            criteria.append(Criterion(
                f"C_{ell:g} = 1 +/- {cfg['cl_tol']:g}", ok,
                f"value {res.value:.6f}, two-resolution gap {res.error_estimate:.1e}"))
        else:
            criteria.append(Criterion(
                f"C_{ell:g} > 1.001", res.value > 1.001, f"value {res.value:.6f}"))
    return criteria, results


def stability(cfg: dict, traj: TimeGridSolution, traj_tilde: TimeGridSolution):
    """The weak-3 difference of two ns trajectories decays with the heat flow
    of their data difference, and below 1.2 times it, over the window."""
    diff = difference_curve(traj, traj_tilde, 3.0, "weak", "||u-u~||_{3,w}")
    du0 = traj.node(0).coeffs - traj_tilde.node(0).coeffs
    lin = _weak3_curve(
        traj.grid, diff.times, lambda t: np.exp(-t * traj.grid.k_sq) * du0,
        "||S(t)(u0-u0~)||_{3,w}",
    )
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    fit_slope(diff, (lo, hi))
    fit_slope(lin, (lo, hi))
    d_rate = drop_per_decade(diff, lo, hi)
    l_rate = drop_per_decade(lin, lo, hi)
    mask = (diff.times >= lo) & (diff.times <= hi)
    bounded = bool(np.all(diff.values[mask] <= 1.2 * lin.values[mask]))
    return [
        Criterion(f"difference drop per decade >= {need:g}",
                  d_rate >= need, f"measured {d_rate:.2f}x"),
        Criterion(f"linear term drop per decade >= {need:g}",
                  l_rate >= need, f"measured {l_rate:.2f}x"),
        Criterion("linear term bounds the difference trend",
                  bounded, "pointwise diff <= 1.2 * linear in window"),
    ], {"difference.csv": diff, "linear.csv": lin}, {"window_used": [lo, hi]}


def mollified(cfg: dict, traj: TimeGridSolution, traj1: TimeGridSolution, traj2: TimeGridSolution):
    """The L^p difference between an ns trajectory and its mollified ones
    (widths ``mollifier_widths``) decays over the window, and the wider
    mollifier differs more before it."""
    kap1, kap2 = mollifier_widths(cfg, traj.grid)
    curves = {
        f"difference_{name}_p{cfg[p]:g}.csv": difference_curve(traj, other, cfg[p], "lp")
        for name, other in (("kappa1", traj1), ("kappa2", traj2))
        for p in ("p", "p2")
    }
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    c1 = curves[f"difference_kappa1_p{cfg['p']:g}.csv"]
    c2 = curves[f"difference_kappa2_p{cfg['p']:g}.csv"]
    rate = drop_per_decade(c1, lo, hi)
    window = c1.values[(c1.times >= lo) & (c1.times <= hi)]
    monotone = bool(np.all(np.diff(window) <= 1e-3 * window[:-1]))  # no rise above 0.1 %
    early = c1.times < lo
    return [
        Criterion("difference functional monotone decreasing in window",
                  monotone, f"window [{lo}, {hi}]"),
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x"),
        Criterion("larger kappa gives larger early-time difference",
                  bool(np.all(c2.values[early] >= c1.values[early])),
                  f"kappa {kap2:g} vs {kap1:g} before t={lo}"),
    ], curves, {"window_used": [lo, hi]}


def hyper(cfg: dict, traj: TimeGridSolution, traj_w: TimeGridSolution):
    """The weak-3 difference between an ns trajectory and its hyperviscous
    one decays over the window; the L^p difference is recorded too."""
    diff = difference_curve(traj, traj_w, 3.0, "weak", "||u-w||_{3,w}")
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    fit_slope(diff, (lo, hi))
    rate = drop_per_decade(diff, lo, hi)
    return [
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x"),
    ], {
        "difference_weak3.csv": diff,
        f"difference_p{cfg['p']:g}.csv": difference_curve(traj, traj_w, cfg["p"], "lp"),
    }, {"window_used": [lo, hi]}


def hyper_linear_part(cfg: dict):
    """||(S_l(t) - 1) S(t) f||_{3,w} on the large box decays with slope
    -(1/2 - 1/l) over its window.

    f is seeded random-phase data with the spectral envelope |xi|^(1-l),
    which makes the deviation of the stationary field scale like the
    claimed t^-(1/2 - 1/l).
    """
    ell = cfg["ell"]
    grid = make_grid(int(cfg["lin_n"]), cfg["lin_L"])
    rng = np.random.default_rng(int(cfg["seed"]))
    kmag = np.sqrt(grid.k_sq)
    kmag[0, 0, 0] = 1.0
    c = (
        rng.standard_normal((3,) + grid.spectral_shape)
        + 1j * rng.standard_normal((3,) + grid.spectral_shape)
    ) * kmag ** (1.0 - ell)
    c[:, 0, 0, 0] = 0.0
    f = leray_project(SpectralVectorField(grid, c))
    f = SpectralVectorField.from_physical(grid, f.to_physical())
    kmag_l = grid.k_sq ** (ell / 2.0)
    lts = np.geomspace(cfg["lin_window_lo"], cfg["lin_window_hi"], int(cfg["lin_points"]))
    lin = _weak3_curve(
        grid, lts,
        lambda t: (np.exp(-t * kmag_l) - 1.0) * np.exp(-t * grid.k_sq) * f.coeffs,
        "||(S_l(t)-1)S(t)u0||_{3,w}",
    )
    sf = fit_slope(lin, (lts[0], lts[-1]))
    target = -(0.5 - 1.0 / ell)
    return [
        Criterion(f"linear-part slope {target:g} +/- {cfg['slope_tol']:g}",
                  abs(sf.slope - target) <= cfg["slope_tol"],
                  f"fitted {sf.slope:.3f} +/- {sf.stderr:.3f}"),
    ], {"linear_part.csv": lin}, {"linear_window_used": [float(lts[0]), float(lts[-1])]}
