"""Command line experiment runner.

Each subcommand runs one desk-scale experiment, writes CSV curves plus a
JSON report into the output directory, prints a per-criterion table, and
exits 0 only when every declared pass-criterion holds.  Long-time limit
claims are operationalized as finite-window surrogates: a trend over a
declared measurement window plus a minimum drop factor per time decade.

Configuration is INI-style, one section per experiment, every physical
parameter in box units; missing keys fall back to the defaults below.  A
sha256 hash of the effective configuration is embedded in every output
file so reruns are verifiable.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .exact import homogeneous_data, landau_residual, landau_shell_samples
from .fields import SpectralVectorField, leray_project
from .grid import make_grid, set_fft_workers
from .kernels import ContainmentError, compute_Cl, l1_semigroup_gap
from .norms import (
    DecayCurve,
    decay_functional,
    fit_slope,
    lp_norm,
    weak_lp_norm,
    write_curve_csv,
)
from .solver import ModelSpec, duhamel_bilinear, solve


DEFAULTS = {
    "stability": {
        "n": 64, "L": 40.0, "amplitude": 0.5, "delta_cells": 2.0,
        "bump_amplitude": 0.05, "bump_sigma": 1.5,
        "t_min": 0.05, "T": 25.0, "M": 36,
        "window_lo": 0.25, "window_hi": 16.0, "drop_per_decade": 4.0,
        "seed": 0,
    },
    "mollified": {
        "n": 64, "L": 40.0, "amplitude": 0.5, "delta_cells": 2.0,
        "kappa_cells": 2.0, "kappa_cells_2": 4.0, "p": 4.0, "p2": 6.0,
        "t_min": 0.05, "T": 25.0, "M": 36,
        "window_lo": 0.6, "window_hi": 21.0, "drop_per_decade": 2.0,
        "seed": 0,
    },
    "hyper": {
        "n": 64, "L": 40.0, "amplitude": 0.5, "delta_cells": 2.0,
        "ell": 4.0, "p": 4.0,
        "t_min": 0.05, "T": 25.0, "M": 36,
        "window_lo": 0.6, "window_hi": 21.0, "drop_per_decade": 2.0,
        "lin_n": 128, "lin_L": 160.0, "lin_points": 12,
        "lin_window_lo": 10.0, "lin_window_hi": 100.0, "slope_tol": 0.1,
        "seed": 7,
    },
    "kernels": {
        "cl_ells": "1,1.5,2,4", "cl_tol": 1e-4,
        "gap_ells": "2,3,4", "gap_t_min": 1.0, "gap_t_max": 64.0,
        "gap_points": 7, "gap_n": 256, "gap_L": 64.0,
        "slope_tol": 0.05, "flat_tol": 0.01,
        "seed": 0,
    },
    "landau": {
        "c_values": "-3,-1.5,1.5,2,5", "n_samples": 100, "h": 1e-3,
        "residual_tol": 1e-7, "div_tol": 1e-9,
        "seed": 11,
    },
    "norms": {
        "n": 16, "L": 1.0, "n_fields": 100, "n_sets": 10000,
        "seed": 5,
    },
}


@dataclass
class Criterion:
    name: str
    passed: bool
    detail: str


def load_config(path: str | None, section: str) -> dict:
    """Defaults for the section, overridden by the INI file when given."""
    cfg = dict(DEFAULTS[section])
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys such as L, T and M are case-sensitive
        with open(path) as fh:
            parser.read_file(fh)
        if parser.has_section(section):
            for key, raw in parser.items(section):
                if key not in cfg:
                    raise KeyError(f"unknown config key [{section}] {key}")
                kind = type(cfg[key])
                cfg[key] = kind(raw) if kind is not str else raw
    return cfg


def config_hash(section: str, cfg: dict) -> str:
    canon = section + "".join(f";{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def drop_per_decade(curve: DecayCurve, lo: float, hi: float) -> float:
    """Total drop factor normalized to one time decade over [lo, hi]."""
    mask = (curve.times >= lo) & (curve.times <= hi)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 2:
        raise ValueError("measurement window holds fewer than 2 samples")
    decades = math.log10(t[-1] / t[0])
    return (v[0] / v[-1]) ** (1.0 / decades)


def is_monotone_decreasing(curve: DecayCurve, lo: float, hi: float, slack=1e-3):
    mask = (curve.times >= lo) & (curve.times <= hi)
    v = curve.values[mask]
    return bool(np.all(np.diff(v) <= slack * v[:-1]))


def _solve_pair(cfg, build_data):
    """Shared scaffolding: grid, graded-in-log times, trajectories."""
    g = make_grid(int(cfg["n"]), cfg["L"])
    times = np.concatenate(
        [[0.0], np.geomspace(cfg["t_min"], cfg["T"], int(cfg["M"]))]
    )
    return g, times, build_data(g)


def weak3_curve(grid, times, coeffs_a, coeffs_b, label) -> DecayCurve:
    ts, vals = [], []
    for m, t in enumerate(times):
        if t <= 0:
            continue
        d = SpectralVectorField(grid, coeffs_a[m] - coeffs_b[m])
        ts.append(t)
        vals.append(weak_lp_norm(d.to_physical(), 3.0, grid.cell_volume))
    return DecayCurve(np.array(ts), np.array(vals), label, 3.0, "weak")


# ---------------------------------------------------------------------------
# Experiments


def exp_stability(cfg: dict, outdir: str, tag: str):
    g, times, u0 = _solve_pair(
        cfg, lambda g: homogeneous_data(g, cfg["amplitude"], delta_cells=cfg["delta_cells"])
    )
    # solenoidal integrable perturbation: in-plane curl of a Gaussian
    X, Y, _ = g.meshgrid()
    L = g.length
    r2 = (X - L / 2) ** 2 + (Y - L / 2) ** 2 + (g.meshgrid()[2] - L / 2) ** 2
    psi_hat = g.forward(cfg["bump_amplitude"] * np.exp(-r2 / (2 * cfg["bump_sigma"] ** 2)))
    du = np.stack(
        [1j * g.ky * psi_hat, -1j * g.kx * psi_hat, np.zeros_like(psi_hat)]
    )
    u0_tilde = SpectralVectorField(g, u0.coeffs + du, is_solenoidal=True)

    model = ModelSpec("ns", g)
    traj = solve(model, u0, times)
    traj_tilde = solve(model, u0_tilde, times)
    diff = weak3_curve(g, times, traj.coeffs, traj_tilde.coeffs, "||u-u~||_{3,w}")

    ts = diff.times
    lin_vals = [
        weak_lp_norm(
            g.backward(np.exp(-t * g.k_sq) * (u0.coeffs - u0_tilde.coeffs)),
            3.0, g.cell_volume,
        )
        for t in ts
    ]
    lin = DecayCurve(ts, np.array(lin_vals), "||S(t)(u0-u0~)||_{3,w}", 3.0, "weak")

    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    fit_slope(diff, (lo, hi))
    fit_slope(lin, (lo, hi))
    write_curve_csv(os.path.join(outdir, "difference.csv"), diff, [f"config={tag}"])
    write_curve_csv(os.path.join(outdir, "linear.csv"), lin, [f"config={tag}"])

    d_rate = drop_per_decade(diff, lo, hi)
    l_rate = drop_per_decade(lin, lo, hi)
    mask = (ts >= lo) & (ts <= hi)
    bounded = bool(np.all(diff.values[mask] <= 1.2 * lin.values[mask]))
    return [
        Criterion("difference drop per decade >= {:g}".format(need),
                  d_rate >= need, f"measured {d_rate:.2f}x"),
        Criterion("linear term drop per decade >= {:g}".format(need),
                  l_rate >= need, f"measured {l_rate:.2f}x"),
        Criterion("linear term bounds the difference trend",
                  bounded, "pointwise diff <= 1.2 * linear in window"),
    ], {"window_used": [lo, hi]}


def exp_mollified(cfg: dict, outdir: str, tag: str):
    g, times, u0 = _solve_pair(
        cfg, lambda g: homogeneous_data(g, cfg["amplitude"], delta_cells=cfg["delta_cells"])
    )
    kap1 = cfg["kappa_cells"] * g.dx
    kap2 = cfg["kappa_cells_2"] * g.dx
    traj = solve(ModelSpec("ns", g), u0, times)
    traj1 = solve(ModelSpec("mollified", g, kappa=kap1), u0, times)
    traj2 = solve(ModelSpec("mollified", g, kappa=kap2), u0, times)

    curves = {}
    for name, other, kap in (("kappa1", traj1, kap1), ("kappa2", traj2, kap2)):
        for p_key in ("p", "p2"):
            p = cfg[p_key]
            fields = [
                SpectralVectorField(g, traj.coeffs[m] - other.coeffs[m])
                for m in range(len(times))
            ]
            c = decay_functional(times, fields, p, kind="lp")
            curves[(name, p_key)] = c
            write_curve_csv(
                os.path.join(outdir, f"difference_{name}_p{p:g}.csv"),
                c, [f"config={tag}", f"kappa={kap!r}"],
            )

    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    main_curve = curves[("kappa1", "p")]
    rate = drop_per_decade(main_curve, lo, hi)
    mono = is_monotone_decreasing(main_curve, lo, hi)
    c2 = curves[("kappa2", "p")]
    early = main_curve.times < lo
    ordering = bool(np.all(c2.values[early] >= main_curve.values[early]))
    return [
        Criterion("difference functional monotone decreasing in window",
                  mono, f"window [{lo}, {hi}]"),
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x"),
        Criterion("larger kappa gives larger early-time difference",
                  ordering, f"kappa {kap2:g} vs {kap1:g} before t={lo}"),
    ], {"window_used": [lo, hi]}


def exp_hyper(cfg: dict, outdir: str, tag: str):
    g, times, u0 = _solve_pair(
        cfg, lambda g: homogeneous_data(g, cfg["amplitude"], delta_cells=cfg["delta_cells"])
    )
    ell = cfg["ell"]
    traj = solve(ModelSpec("ns", g), u0, times)
    traj_w = solve(ModelSpec("hyper", g, ell=ell), u0, times)
    diff = weak3_curve(g, times, traj.coeffs, traj_w.coeffs, "||u-w||_{3,w}")
    lo, hi, need = cfg["window_lo"], cfg["window_hi"], cfg["drop_per_decade"]
    fit_slope(diff, (lo, hi))
    write_curve_csv(os.path.join(outdir, "difference_weak3.csv"), diff, [f"config={tag}"])

    fields = [
        SpectralVectorField(g, traj.coeffs[m] - traj_w.coeffs[m])
        for m in range(len(times))
    ]
    cp = decay_functional(times, fields, cfg["p"], kind="lp")
    write_curve_csv(
        os.path.join(outdir, f"difference_p{cfg['p']:g}.csv"), cp, [f"config={tag}"]
    )

    # companion diagnostic: the nonlinear response of the regularized
    # trajectory under the plain vs regularized propagator (recorded only)
    b_ns = duhamel_bilinear(traj_w, traj_w, ModelSpec("ns", g))
    b_h = duhamel_bilinear(traj_w, traj_w, ModelSpec("hyper", g, ell=ell))
    gap = weak3_curve(g, times, b_ns.coeffs, b_h.coeffs, "duhamel propagator gap")
    write_curve_csv(os.path.join(outdir, "integrand_gap.csv"), gap, [f"config={tag}"])

    # linear part on a large box: random-phase data with spectral envelope
    # |xi|^(1-ell) makes the stationary field's deviation scale like the
    # claimed t^-(1/2-1/ell)
    gl = make_grid(int(cfg["lin_n"]), cfg["lin_L"])
    rng = np.random.default_rng(int(cfg["seed"]))
    kmag = np.sqrt(gl.k_sq)
    kmag[0, 0, 0] = 1.0
    c = (
        rng.standard_normal((3,) + gl.spectral_shape)
        + 1j * rng.standard_normal((3,) + gl.spectral_shape)
    ) * kmag ** (1.0 - ell)
    c[:, 0, 0, 0] = 0.0
    f = leray_project(SpectralVectorField(gl, c))
    f = SpectralVectorField.from_physical(gl, f.to_physical())
    lts = np.geomspace(cfg["lin_window_lo"], cfg["lin_window_hi"], int(cfg["lin_points"]))
    lvals = [
        weak_lp_norm(
            gl.backward(
                (np.exp(-t * gl.k_sq ** (ell / 2.0)) - 1.0)
                * np.exp(-t * gl.k_sq) * f.coeffs
            ),
            3.0, gl.cell_volume,
        )
        for t in lts
    ]
    lin = DecayCurve(lts, np.array(lvals), "||(S_l(t)-1)S(t)u0||_{3,w}", 3.0, "weak")
    sf = fit_slope(lin, (lts[0], lts[-1]))
    write_curve_csv(os.path.join(outdir, "linear_part.csv"), lin, [f"config={tag}"])

    rate = drop_per_decade(diff, lo, hi)
    target = -(0.5 - 1.0 / ell)
    return [
        Criterion(f"difference drop per decade >= {need:g}",
                  rate >= need, f"measured {rate:.2f}x"),
        Criterion(f"linear-part slope {target:g} +/- {cfg['slope_tol']:g}",
                  abs(sf.slope - target) <= cfg["slope_tol"],
                  f"fitted {sf.slope:.3f} +/- {sf.stderr:.3f}"),
    ], {"window_used": [lo, hi], "linear_window_used": [float(lts[0]), float(lts[-1])]}


def exp_kernels(cfg: dict, outdir: str, tag: str):
    criteria = []
    cl_rows = []
    for ell in [float(s) for s in str(cfg["cl_ells"]).split(",")]:
        res = compute_Cl(ell)
        cl_rows.append(res)
        if ell <= 2:
            ok = abs(res.value - 1.0) <= cfg["cl_tol"] and res.error_estimate <= cfg["cl_tol"]
            criteria.append(Criterion(
                f"C_{ell:g} = 1 +/- {cfg['cl_tol']:g}", ok,
                f"value {res.value:.6f}, two-resolution gap {res.error_estimate:.1e}"))
        else:
            criteria.append(Criterion(
                f"C_{ell:g} > 1.001", res.value > 1.001, f"value {res.value:.6f}"))
    with open(os.path.join(outdir, "cl_table.csv"), "w") as fh:
        fh.write("ell,value,error_estimate,tail_bound,signed_mass\n")
        for r in cl_rows:
            fh.write(f"{float(r.ell)!r},{float(r.value)!r},{float(r.error_estimate)!r},"
                     f"{float(r.tail_bound)!r},{float(r.signed_mass)!r}\n")
        fh.write(f"# config={tag}\n")

    gg = make_grid(int(cfg["gap_n"]), cfg["gap_L"])
    gap_ts = np.geomspace(cfg["gap_t_min"], cfg["gap_t_max"], int(cfg["gap_points"]))
    guards = []
    rows = []
    for ell in [float(s) for s in str(cfg["gap_ells"]).split(",")]:
        ts, vals = [], []
        for t in gap_ts:
            try:
                vals.append(l1_semigroup_gap(ell, t, gg))
                ts.append(t)
            except ContainmentError as exc:
                guards.append(f"ell={ell:g} t={t:g}: {exc}")
        curve = DecayCurve(np.array(ts), np.array(vals), "L1 semigroup gap")
        sf = fit_slope(curve, (ts[0], ts[-1]))
        rows.extend((ell, t, v) for t, v in zip(ts, vals))
        if ell == 2.0:
            spread = (max(vals) - min(vals)) / max(vals)
            criteria.append(Criterion(
                "gap t-independent within {:g} for ell=2".format(cfg["flat_tol"]),
                spread <= cfg["flat_tol"], f"relative spread {spread:.2e}"))
        else:
            target = -(0.5 - 1.0 / ell)
            criteria.append(Criterion(
                f"gap slope {target:.4g} +/- {cfg['slope_tol']:g} for ell={ell:g}",
                abs(sf.slope - target) <= cfg["slope_tol"],
                f"fitted {sf.slope:.3f} +/- {sf.stderr:.3f}"))
    with open(os.path.join(outdir, "gap.csv"), "w") as fh:
        fh.write("ell,t,gap\n")
        for ell, t, v in rows:
            fh.write(f"{float(ell)!r},{float(t)!r},{float(v)!r}\n")
        fh.write(f"# config={tag}\n")
    return criteria, {
        "window_used": [cfg["gap_t_min"], cfg["gap_t_max"]],
        "guards_triggered": guards,
    }


def exp_landau(cfg: dict, outdir: str, tag: str):
    rng = np.random.default_rng(int(cfg["seed"]))
    criteria = []
    rows = []
    for c in [float(s) for s in str(cfg["c_values"]).split(",")]:
        pts = landau_shell_samples(c, int(cfg["n_samples"]), rng)
        res, div, _ = landau_residual(c, pts, h=cfg["h"])
        rows.append((c, res, div))
        criteria.append(Criterion(
            f"c={c:g}: residual <= {cfg['residual_tol']:g} and "
            f"divergence <= {cfg['div_tol']:g}",
            res <= cfg["residual_tol"] and div <= cfg["div_tol"],
            f"residual {res:.2e}, divergence {div:.2e}"))
    with open(os.path.join(outdir, "landau.csv"), "w") as fh:
        fh.write("c,max_residual,max_divergence\n")
        for c, res, div in rows:
            fh.write(f"{float(c)!r},{float(res)!r},{float(div)!r}\n")
        fh.write(f"# config={tag}\n")
    return criteria, {"stencil_h": cfg["h"]}


def exp_norms(cfg: dict, outdir: str, tag: str):
    rng = np.random.default_rng(int(cfg["seed"]))
    n = int(cfg["n"])
    vol = (cfg["L"] / n) ** 3
    n_fields = int(cfg["n_fields"])

    worst_embed = 0.0
    worst_holder = {key: 0.0 for key in ((3.0, 3.0, 1.5), (6.0, 2.0, 1.5))}
    for i in range(n_fields):
        f = rng.standard_normal((n, n, n))
        g = rng.standard_normal((n, n, n)) * np.exp(rng.standard_normal((n, n, n)))
        for p in (1.5, 3.0, 6.0):
            worst_embed = max(
                worst_embed, weak_lp_norm(f, p, vol) / lp_norm(f, p, vol)
            )
        for (p, q, r) in worst_holder:
            num = weak_lp_norm(f * g, r, vol)
            den = weak_lp_norm(f, p, vol) * weak_lp_norm(g, q, vol)
            worst_holder[(p, q, r)] = max(worst_holder[(p, q, r)], num / den)

    f = rng.standard_normal((n, n, n))
    p = 3.0
    sorted_norm = weak_lp_norm(f, p, vol)
    flat = np.abs(f).ravel()
    worst_set = 0.0
    for _ in range(int(cfg["n_sets"])):
        size = int(rng.integers(1, flat.size + 1))
        idx = rng.choice(flat.size, size=size, replace=False)
        worst_set = max(
            worst_set, flat[idx].sum() * vol / (size * vol) ** (1.0 / 1.5)
        )

    criteria = [
        Criterion("weak norm <= strong norm on random fields",
                  worst_embed <= 1.0 + 1e-12, f"worst ratio {worst_embed:.6f}"),
    ]
    for (p, q, r), ratio in worst_holder.items():
        criteria.append(Criterion(
            f"weak Holder constant 1 at (p,q,r)=({p:g},{q:g},{r:g})",
            ratio <= 1.0 + 1e-9, f"worst ratio {ratio:.6f}"))
    criteria.append(Criterion(
        "random-set averages never exceed the sorted weak norm",
        worst_set <= sorted_norm * (1.0 + 1e-12),
        f"best random set {worst_set:.6f} vs norm {sorted_norm:.6f}"))
    with open(os.path.join(outdir, "norms.csv"), "w") as fh:
        fh.write("check,value\n")
        fh.write(f"embedding_worst_ratio,{float(worst_embed)!r}\n")
        for (p, q, r), ratio in worst_holder.items():
            fh.write(f"holder_{p:g}_{q:g}_{r:g}_worst_ratio,{float(ratio)!r}\n")
        fh.write(f"random_set_best,{float(worst_set)!r}\n")
        fh.write(f"sorted_weak_norm,{float(sorted_norm)!r}\n")
        fh.write(f"# config={tag}\n")
    return criteria, {"n_fields": n_fields, "n_sets": int(cfg["n_sets"])}


EXPERIMENTS = {
    "stability": exp_stability,
    "mollified": exp_mollified,
    "hyper": exp_hyper,
    "kernels": exp_kernels,
    "landau": exp_landau,
    "norms-selftest": exp_norms,
}

SECTION = {name: ("norms" if name == "norms-selftest" else name) for name in EXPERIMENTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mildns", description="Desk-scale mild Navier-Stokes experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--threads", type=int, default=None, help="FFT worker cap")
    args = parser.parse_args(argv)

    if args.threads is not None:
        set_fft_workers(args.threads)
    section = SECTION[args.command]
    cfg = load_config(args.config, section)
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    outdir = args.out or f"mildns_{args.command.replace('-', '_')}"
    os.makedirs(outdir, exist_ok=True)
    tag = config_hash(section, cfg)

    start = time.time()
    criteria, extra = EXPERIMENTS[args.command](cfg, outdir, tag)
    elapsed = time.time() - start

    report = {
        "experiment": args.command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": tag,
        "elapsed_seconds": elapsed,
        "criteria": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in criteria
        ],
    }
    report.update(extra)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"{args.command}: config {tag}, {elapsed:.1f} s")
    failed = [c for c in criteria if not c.passed]
    for c in criteria:
        print(f"  {'PASS' if c.passed else 'FAIL'}  {c.name}  [{c.detail}]")
    if failed:
        print(f"{len(failed)} of {len(criteria)} criteria failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
