"""One definition per experiment, shared by the command line and the acceptance suite.

A solver experiment declares the trajectories it solves (``solves``).  The
measurements turn trajectories or data into one decay curve, or a curve into
one number.  The judges apply them to an experiment's config section, which
holds every threshold and window, and to the solved trajectories by name.
The CLI writes what the judges return; the acceptance suite calls them with
``cli.DEFAULTS`` and asserts that every criterion passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import homogeneous_data
from .fields import SpectralVectorField, dealias_mask, leray_project
from .grid import Grid3, make_grid
from .kernels import ContainmentError, compute_Cl, l1_semigroup_gap
from .norms import DecayCurve, decay_functional, fit_slope, weak_lp_norm
from .solver import ModelSpec, TimeGridSolution, duhamel_bilinear, solve


@dataclass
class Criterion:
    name: str
    passed: bool
    detail: str
    value: float | None = None  # the measured number the detail shows, if any


@dataclass
class Judgement:
    """A judge's criteria, curves and report.json fields by name, and CSV comment lines."""
    criteria: list[Criterion]
    curves: dict[str, DecayCurve] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    comments: dict[str, list[str]] = field(default_factory=dict)


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


def solves(name: str, cfg: dict, grid: Grid3, u0: SpectralVectorField) -> dict:
    """The trajectories solver experiment ``name`` judges, {name: (model, data)}:
    ns from ``u0`` and the models or data that it compares with ns."""
    ns = ModelSpec("ns", grid)
    declared = {"ns": (ns, u0)}
    if name == "stability":
        declared["ns_bump"] = (ns, bump_perturbed(u0, cfg["bump_amplitude"], cfg["bump_sigma"]))
    elif name == "mollified":
        for key, kappa in zip(("kappa1", "kappa2"), mollifier_widths(cfg, grid)):
            declared[key] = (ModelSpec("mollified", grid, kappa=kappa), u0)
    else:
        declared["hyper"] = (ModelSpec("hyper", grid, ell=cfg["ell"]), u0)
    return declared


def solve_declared(declared: dict, times: np.ndarray) -> dict:
    """Solve each declared (model, data) on ``times``, by name."""
    return {key: solve(model, data, times) for key, (model, data) in declared.items()}


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


def propagator_gap(traj: TimeGridSolution, ell: float) -> DecayCurve:
    """||B(u, u) - B_l(u, u)||_{3,w}: the Duhamel response of a trajectory u
    under the heat propagator against the hyperviscous one of order l."""
    b_ns = duhamel_bilinear(traj, traj, ModelSpec("ns", traj.grid))
    b_h = duhamel_bilinear(traj, traj, ModelSpec("hyper", traj.grid, ell=ell))
    return difference_curve(b_ns, b_h, 3.0, "weak", "duhamel propagator gap")


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
                f"value {res.value:.6f}, two-resolution gap {res.error_estimate:.1e}", res.value))
        else:
            criteria.append(Criterion(
                f"C_{ell:g} > 1.001", res.value > 1.001, f"value {res.value:.6f}", res.value))
    return criteria, results


def semigroup_gap(cfg: dict):
    """The L1 gap ||p_l(t) * p(t/2) - p(t/2)||_1 is flat for l = 2 and has slope
    -(1/2 - 1/l) beyond.  Returns the criterion of each l of ``gap_ells``, the
    rows (l, t, gap) of gap.csv and one message per time left out because its
    kernels are unresolved or do not fit the box."""
    grid = make_grid(int(cfg["gap_n"]), cfg["gap_L"])
    times = np.geomspace(cfg["gap_t_min"], cfg["gap_t_max"], int(cfg["gap_points"]))
    criteria, rows, guards = {}, [], []
    for ell in [float(s) for s in str(cfg["gap_ells"]).split(",")]:
        ts, vals = [], []
        for t in times:
            try:
                vals.append(l1_semigroup_gap(ell, t, grid))
                ts.append(t)
            except ContainmentError as exc:
                guards.append(f"ell={ell:g} t={t:g}: {exc}")
        curve = DecayCurve(np.array(ts), np.array(vals), "L1 semigroup gap")
        rows.extend((ell, t, v) for t, v in zip(curve.times, curve.values))
        if ell == 2.0:
            spread = (curve.values.max() - curve.values.min()) / curve.values.max()
            criteria[ell] = Criterion(
                f"gap t-independent within {cfg['flat_tol']:g} for ell=2",
                spread < cfg["flat_tol"], f"relative spread {spread:.2e}", spread)
        else:
            sf = fit_slope(curve, (curve.times[0], curve.times[-1]))
            target = -(0.5 - 1.0 / ell)
            criteria[ell] = Criterion(
                f"gap slope {target:.4g} +/- {cfg['slope_tol']:g} for ell={ell:g}",
                abs(sf.slope - target) <= cfg["slope_tol"],
                f"fitted {sf.slope:.3f} +/- {sf.stderr:.3f}", sf.slope)
    return criteria, rows, guards


def stability(cfg: dict, trajs: dict) -> Judgement:
    """The weak-3 difference of the trajectories ns and ns_bump decays with the
    heat flow of their data difference, and below 1.2 times it, over the window."""
    traj, traj_tilde = trajs["ns"], trajs["ns_bump"]
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
    return Judgement([
        Criterion(f"difference drop per decade >= {need:g}",
                  d_rate >= need, f"measured {d_rate:.2f}x", d_rate),
        Criterion(f"linear term drop per decade >= {need:g}",
                  l_rate >= need, f"measured {l_rate:.2f}x", l_rate),
        Criterion("linear term bounds the difference trend",
                  bounded, "pointwise diff <= 1.2 * linear in window"),
    ], {"difference.csv": diff, "linear.csv": lin}, {"window_used": [lo, hi]})


def mollified(cfg: dict, trajs: dict) -> Judgement:
    """The L^p difference between the ns trajectory and the mollified ones
    (widths ``mollifier_widths``) decays over the window, and the wider
    mollifier differs more before it."""
    kap1, kap2 = mollifier_widths(cfg, trajs["ns"].grid)
    curves, comments = {}, {}
    for name, kap in (("kappa1", kap1), ("kappa2", kap2)):
        for p in ("p", "p2"):
            csv = f"difference_{name}_p{cfg[p]:g}.csv"
            curves[csv] = difference_curve(trajs["ns"], trajs[name], cfg[p], "lp")
            comments[csv] = [f"kappa={kap!r}"]
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    c1 = curves[f"difference_kappa1_p{cfg['p']:g}.csv"]
    c2 = curves[f"difference_kappa2_p{cfg['p']:g}.csv"]
    rate = drop_per_decade(c1, lo, hi)
    window = c1.values[(c1.times >= lo) & (c1.times <= hi)]
    monotone = bool(np.all(np.diff(window) <= 1e-3 * window[:-1]))  # no rise above 0.1 %
    early = c1.times < lo
    return Judgement([
        Criterion("difference functional monotone decreasing in window",
                  monotone, f"window [{lo}, {hi}]"),
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x", rate),
        Criterion("larger kappa gives larger early-time difference",
                  bool(np.all(c2.values[early] >= c1.values[early])),
                  f"kappa {kap2:g} vs {kap1:g} before t={lo}"),
    ], curves, {"window_used": [lo, hi]}, comments)


def hyper(cfg: dict, trajs: dict) -> Judgement:
    """The weak-3 difference between the ns trajectory and the hyperviscous
    one decays over the window; the L^p difference is recorded too."""
    diff = difference_curve(trajs["ns"], trajs["hyper"], 3.0, "weak", "||u-w||_{3,w}")
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    fit_slope(diff, (lo, hi))
    rate = drop_per_decade(diff, lo, hi)
    return Judgement([
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x", rate),
    ], {
        "difference_weak3.csv": diff,
        f"difference_p{cfg['p']:g}.csv": difference_curve(trajs["ns"], trajs["hyper"], cfg["p"], "lp"),
    }, {"window_used": [lo, hi]})


def hyper_linear_part(cfg: dict) -> Judgement:
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
    return Judgement([
        Criterion(f"linear-part slope {target:g} +/- {cfg['slope_tol']:g}",
                  abs(sf.slope - target) <= cfg["slope_tol"],
                  f"fitted {sf.slope:.3f} +/- {sf.stderr:.3f}", sf.slope),
    ], {"linear_part.csv": lin}, {"linear_window_used": [float(lts[0]), float(lts[-1])]})


def judgements(name: str, cfg: dict, trajs: dict) -> list[Judgement]:
    """What solver experiment ``name`` writes, from the trajectories it declares."""
    if name != "hyper":
        return [{"stability": stability, "mollified": mollified}[name](cfg, trajs)]
    # hyper also records the propagator gap along its hyperviscous trajectory
    return [hyper(cfg, trajs), hyper_linear_part(cfg),
            Judgement([], {"integrand_gap.csv": propagator_gap(trajs["hyper"], cfg["ell"])})]
