"""Command line experiment runner.

Each subcommand runs one desk-scale experiment, writes CSV curves plus a
JSON report into the output directory, prints a per-criterion table, and
exits 0 only when every declared pass-criterion holds.  Long-time limit
claims are operationalized as finite-window surrogates: a trend over a
declared measurement window plus a minimum drop factor per time decade.
The thresholds and windows live in ``DEFAULTS`` below.  Except for
``landau`` and ``norms-selftest``, the experiments are defined in
``mildns.experiments``, shared with the acceptance suite: the subcommands
solve what an experiment declares and write what its judges return.

Configuration is INI-style, one section per experiment, every physical
parameter in box units; missing keys fall back to the defaults below.  A
sha256 hash of the effective configuration is embedded in every output
file so reruns are verifiable.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import experiments
from .exact import landau_residual, landau_shell_samples
from .experiments import Criterion
from .grid import set_fft_workers
from .norms import lp_norm, weak_lp_norm, write_curve_csv


DEFAULTS = {
    "stability": {
        "n": 64, "L": 40.0, "amplitude": 0.5, "delta_cells": 2.0,
        "bump_amplitude": 0.05, "bump_sigma": 1.5,
        "t_min": 0.05, "T": 25.0, "M": 36,
        "window_lo": 0.25, "window_hi": 16.0, "drop_per_decade": 4.0,
    },
    "mollified": {
        "n": 64, "L": 40.0, "amplitude": 0.5, "delta_cells": 2.0,
        "kappa_cells": 2.0, "kappa_cells_2": 4.0, "p": 4.0, "p2": 6.0,
        "t_min": 0.05, "T": 25.0, "M": 36,
        "window_lo": 0.6, "window_hi": 21.0, "drop_per_decade": 2.0,
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


def _write_table(path: str, header: str, rows, tag: str):
    """CSV table: the header, one line per row, then the config tag.

    String cells are written as they are and numbers as repr(float(x)).
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n")
        fh.write(f"# config={tag}\n")


# ---------------------------------------------------------------------------
# Experiments


def exp_solver(name: str, cfg: dict, outdir: str, tag: str):
    g, times, u0 = experiments.desk_setup(cfg)
    trajs = experiments.solve_declared(experiments.solves(name, cfg, g, u0), times)
    criteria, report = [], {}
    for judged in experiments.judgements(name, cfg, trajs):
        criteria += judged.criteria
        report.update(judged.report)
        for csv, curve in judged.curves.items():
            comments = [f"config={tag}", *judged.comments.get(csv, [])]
            write_curve_csv(os.path.join(outdir, csv), curve, comments)
    return criteria, report


def exp_kernels(cfg: dict, outdir: str, tag: str):
    criteria, cl_rows = experiments.kernel_constants(cfg)
    _write_table(
        os.path.join(outdir, "cl_table.csv"), "ell,value,error_estimate,tail_bound,signed_mass",
        [(r.ell, r.value, r.error_estimate, r.tail_bound, r.signed_mass) for r in cl_rows], tag,
    )
    gap_criteria, rows, guards = experiments.semigroup_gap(cfg)
    _write_table(os.path.join(outdir, "gap.csv"), "ell,t,gap", rows, tag)
    report = {"window_used": [cfg["gap_t_min"], cfg["gap_t_max"]], "guards_triggered": guards}
    return criteria + list(gap_criteria.values()), report


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
    _write_table(os.path.join(outdir, "landau.csv"), "c,max_residual,max_divergence", rows, tag)
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
    rows = [("embedding_worst_ratio", worst_embed)]
    rows += [(f"holder_{p:g}_{q:g}_{r:g}_worst_ratio", x) for (p, q, r), x in worst_holder.items()]
    rows += [("random_set_best", worst_set), ("sorted_weak_norm", sorted_norm)]
    _write_table(os.path.join(outdir, "norms.csv"), "check,value", rows, tag)
    return criteria, {"n_fields": n_fields, "n_sets": int(cfg["n_sets"])}


EXPERIMENTS = {
    **{name: functools.partial(exp_solver, name) for name in ("stability", "mollified", "hyper")},
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
        if "seed" in DEFAULTS[SECTION[name]]:
            p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--threads", type=int, default=None, help="FFT worker cap")
    args = parser.parse_args(argv)

    if args.threads is not None:
        set_fft_workers(args.threads)
    section = SECTION[args.command]
    cfg = load_config(args.config, section)
    if getattr(args, "seed", None) is not None:
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
