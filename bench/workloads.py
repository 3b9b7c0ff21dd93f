"""The benchmark's inputs, timed operations and correctness checks.

All three workloads start from the 64^3, L = 40 swirl data (amplitude 0.5,
delta_cells = 2) on the 39-node acceptance time grid, plus a seeded
random-phase perturbation of relative L^2 size 1e-3 that is solenoidal,
mean-free and dealiased.  The perturbation makes each seed a different
input without moving the solve off the acceptance behaviour (6 Picard
sweeps at the seeds traced, 0 and 5).

An operation is one call the benchmark times.  Its check runs afterwards,
outside the timed region and outside any traced block; references apply
only at full size, and seeded ones only at the default seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
PERTURBATION = 1e-3  # L^2 size of the seeded perturbation relative to the data
RESIDUAL_MULTIPLE = 1.0  # allowed fixed-point residual, in units of the solve tol
PICARD_TOL = 1e-9  # solve()'s default tolerance
LINEAR_ELL = 4.0
LINEAR_SLOPE_TOL = 0.1  # criterion 9: slope within 0.1 of -(1/2 - 1/ell)


def acceptance_times():
    return np.unique(np.concatenate([[0.0], np.geomspace(0.05, 25.0, 36), [1.0, 4.0]]))


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark configuration."""

    n: int
    box: float
    times: tuple
    lin_n: int
    lin_box: float
    lin_times: tuple
    gap_n: int
    gap_box: float
    gap_times: tuple
    gap_ells: tuple
    cl_ells: tuple
    full: bool


FULL = Sizes(
    n=64, box=40.0, times=tuple(acceptance_times()),
    lin_n=128, lin_box=160.0, lin_times=tuple(np.geomspace(10.0, 100.0, 12)),
    gap_n=256, gap_box=64.0, gap_times=(1.0, 8.0, 64.0), gap_ells=(2.0, 3.0, 4.0),
    cl_ells=(1.0, 1.5, 2.0, 4.0), full=True,
)

# n = 16 with a short time grid: the self-test runs every workload at this size.
# The gap grid resolves and contains both kernels only at t = 1 (width 1 = 4 cells = L/8).
TOY = Sizes(
    n=16, box=10.0, times=(0.0, 0.05, 0.25, 1.0, 4.0),
    lin_n=16, lin_box=20.0, lin_times=(10.0, 30.0, 100.0),
    gap_n=32, gap_box=8.0, gap_times=(1.0,), gap_ells=(2.0, 3.0),
    cl_ells=(2.0,), full=False,
)


class InputError(ValueError):
    """A generated input field breaks the solver's input contract."""


@dataclass
class Op:
    """One timed call.  ``run(state)`` returns the result kept as state[name]."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]  # (result, state) -> problems found
    observe: Callable[[object], list] | None = None  # values compared to references
    rtol: float = 1e-9
    seeded: bool = True  # reference holds only for the default seed
    reference: list | None = None  # committed values, set where they apply


@dataclass
class Workload:
    setup: Callable  # (lib, sizes, seed, workdir) -> inputs dict
    ops: Callable  # (lib, inputs) -> list[Op]


# ---------------------------------------------------------------------------
# Inputs


def validate(lib, f, label):
    """Finite, mean-free, solenoidal and inside the 2/3 band, or InputError."""
    c = f.coeffs
    if not np.all(np.isfinite(c)):
        raise InputError(f"{label}: non-finite coefficients")
    scale = np.abs(c).max()
    if np.abs(c[:, 0, 0, 0]).max() > 1e-12 * scale:
        raise InputError(f"{label}: nonzero mean")
    ratio = f.max_divergence_ratio()
    if ratio > lib.fields.DIV_TOL:
        raise InputError(f"{label}: divergence ratio {ratio:.3e} > {lib.fields.DIV_TOL}")
    g = f.grid
    outside = ~lib.fields.dealias_mask(g)
    high = sum(g.spectral_energy(ci * outside) for ci in c)
    total = sum(g.spectral_energy(ci) for ci in c)
    if high > 1e-24 * total:
        raise InputError(f"{label}: energy {high:.3e} above the 2/3 cutoff")
    return f


def _band_limited(lib, g, coeffs):
    """Hermitian-symmetric, dealiased, projected and mean-free version of coeffs."""
    fields = lib.fields
    f = fields.SpectralVectorField(g, g.forward(g.backward(coeffs)))
    f = fields.leray_project(fields.dealias(f))
    f.coeffs[:, 0, 0, 0] = 0.0
    return f


def perturbed_swirl(lib, sizes, seed):
    """Swirl data plus a seeded random-phase perturbation, validated."""
    g = lib.grid.make_grid(sizes.n, sizes.box)
    base = lib.exact.homogeneous_data(g, 0.5, delta_cells=2.0)
    rng = np.random.default_rng([seed, 1])
    k0 = 4.0 * 2.0 * math.pi / g.length
    envelope = np.exp(-g.k_sq / (2.0 * k0**2))
    phase = np.exp(2j * math.pi * rng.random((3,) + g.spectral_shape))
    bump = _band_limited(lib, g, envelope * phase)
    bump.coeffs *= PERTURBATION * base.l2_norm() / bump.l2_norm()
    u0 = lib.fields.SpectralVectorField(g, base.coeffs + bump.coeffs, is_solenoidal=True)
    return g, validate(lib, u0, "perturbed swirl data")


def linear_part_data(lib, sizes, seed):
    """Seeded random-phase field with envelope |xi|^(1 - ell), validated."""
    g = lib.grid.make_grid(sizes.lin_n, sizes.lin_box)
    rng = np.random.default_rng([seed, 2])
    kmag = np.sqrt(g.k_sq)
    kmag[0, 0, 0] = 1.0
    phase = np.exp(2j * math.pi * rng.random((3,) + g.spectral_shape))
    f = _band_limited(lib, g, phase * kmag ** (1.0 - LINEAR_ELL))
    return g, validate(lib, f, "128^3 random-phase field")


# ---------------------------------------------------------------------------
# Checks


def _finite(result):
    arrays = result if isinstance(result, (list, tuple)) else [result]
    return [] if all(np.all(np.isfinite(np.asarray(a))) for a in arrays) else ["non-finite output"]


def trajectory_problems(lib, traj):
    """Finite coefficients and divergence ratio <= DIV_TOL at every node."""
    if not np.all(np.isfinite(traj.coeffs)):
        return ["non-finite trajectory"]
    worst = max(traj.node(m).max_divergence_ratio() for m in range(len(traj.times)))
    if worst > lib.fields.DIV_TOL:
        return [f"divergence ratio {worst:.3e} > DIV_TOL {lib.fields.DIV_TOL}"]
    return []


def picard_problems(lib, traj, model, u0):
    """Fixed-point residual ||y + B(u,u) - u|| / max||y|| and per-node divergence."""
    problems = trajectory_problems(lib, traj)
    if problems:
        return problems
    solver = lib.solver
    y = solver.linear_forced_term(u0, model, traj.times)
    b = solver.duhamel_bilinear(traj, traj, model)
    g = traj.grid
    res = max(
        lib.fields.SpectralVectorField(g, y.coeffs[m] + b.coeffs[m] - traj.coeffs[m]).l2_norm()
        for m in range(len(traj.times))
    ) / y.max_l2()
    if not res <= RESIDUAL_MULTIPLE * PICARD_TOL:
        problems.append(
            f"fixed-point residual {res:.3e} > {RESIDUAL_MULTIPLE} x tol {PICARD_TOL}"
        )
    return problems


def compare(values, reference, rtol):
    """Problems when values differ from the reference beyond rtol (relative to max |ref|)."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape:
        return [f"shape {v.shape} differs from reference {r.shape}"]
    err = np.abs(v - r).max() / max(np.abs(r).max(), 1e-300)
    return [] if err <= rtol else [f"relative difference {err:.3e} from reference > {rtol}"]


def node_l2(traj):
    return [traj.node_l2(m) for m in range(len(traj.times))]


# ---------------------------------------------------------------------------
# Workloads


def picard_setup(lib, sizes, seed, workdir):
    g, u0 = perturbed_swirl(lib, sizes, seed)
    return {"grid": g, "u0": u0, "times": np.array(sizes.times)}


def picard_ops(kind):
    """The single Picard solve of a picard workload, ns or mollified at 2 cells."""

    def ops(lib, inp):
        solver = lib.solver
        g, u0, times = inp["grid"], inp["u0"], inp["times"]

        def model():
            kappa = 2.0 * g.dx if kind == "mollified" else 0.0
            return solver.ModelSpec(kind, g, kappa=kappa)

        def check(traj, state):
            return picard_problems(lib, traj, model(), u0)

        # a fresh ModelSpec per call, so the lazy mollifier set-up is timed every time
        return [Op("solve", lambda st: solver.solve(model(), u0, times), check,
                   observe=node_l2, rtol=1e-8)]

    return ops


def analysis_setup(lib, sizes, seed, workdir):
    g, u0 = perturbed_swirl(lib, sizes, seed)
    lin_grid, lin_field = linear_part_data(lib, sizes, seed)
    return {
        "grid": g, "u0": u0, "times": np.array(sizes.times),
        "lin_grid": lin_grid, "lin_field": lin_field,
        "gap_grid": lib.grid.make_grid(sizes.gap_n, sizes.gap_box),
        "sizes": sizes, "workdir": workdir,
    }


def analysis_ops(lib, inp):
    solver, norms, exact, kernels, snapshots = (
        lib.solver, lib.norms, lib.exact, lib.kernels, lib.snapshots,
    )
    g, u0, times, sizes = inp["grid"], inp["u0"], inp["times"], inp["sizes"]
    m4 = int(np.argmin(np.abs(times - 4.0)))
    snap_dir = os.path.join(inp["workdir"], "trajectory")

    def etd(st):
        return solver.etd_march(u0, solver.ModelSpec("ns", g), times)

    def curve(p, kind):
        def run(st):
            traj = st["etd"]
            return norms.decay_functional(traj.times, traj.fields(), p, kind=kind)
        return run

    def round_trip(st):
        snapshots.save_trajectory(snap_dir, st["etd"], "ns")
        return snapshots.load_trajectory(snap_dir)

    def check_round_trip(result, st):
        loaded_times, loaded, _ = result
        traj = st["etd"]
        if not np.array_equal(loaded_times, traj.times) or len(loaded) != len(traj.times):
            return ["loaded times differ from the saved trajectory"]
        for m, f in enumerate(loaded):
            saved = traj.node(m).to_physical()
            err = np.abs(f.to_physical() - saved).max()
            # loading re-transforms the samples, so allow FFT round-trip roundoff only
            if not err <= 1e-12 * np.abs(saved).max():
                return [f"node {m}: loaded samples differ from saved by {err:.3e}"]
        return []

    def cl(ell):
        def check(res, st):
            if ell <= 2.0 and not abs(res.value - 1.0) <= 1e-4:
                return [f"C_{ell} = {res.value!r} is not within 1e-4 of 1"]
            return _finite(res.value)
        return Op(f"cl-{ell:g}", lambda st: kernels.compute_Cl(ell), check,
                  observe=lambda res: [res.value], seeded=False)

    def gap(ell):
        return Op(
            f"gap-{ell:g}",
            lambda st: [kernels.l1_semigroup_gap(ell, t, inp["gap_grid"])
                        for t in sizes.gap_times],
            lambda res, st: _finite(res), observe=list, seeded=False,
        )

    def linear_curve(st):
        lg, f = inp["lin_grid"], inp["lin_field"]
        return [
            norms.weak_lp_norm(
                lg.backward((np.exp(-t * lg.k_sq ** (LINEAR_ELL / 2.0)) - 1.0)
                            * np.exp(-t * lg.k_sq) * f.coeffs),
                3.0, lg.cell_volume,
            )
            for t in sizes.lin_times
        ]

    def check_linear(vals, st):
        problems = _finite(vals)
        if problems or not sizes.full:
            return problems
        curve = norms.DecayCurve(np.array(sizes.lin_times), np.array(vals))
        fit = norms.fit_slope(curve, (sizes.lin_times[0], sizes.lin_times[-1]))
        target = -(0.5 - 1.0 / LINEAR_ELL)
        if not abs(fit.slope - target) <= LINEAR_SLOPE_TOL:
            problems.append(f"linear-part slope {fit.slope:.3f} vs {target} +- {LINEAR_SLOPE_TOL}")
        return problems

    curve_check = lambda c, st: _finite(c.values)  # noqa: E731
    return [
        Op("etd", etd, lambda traj, st: trajectory_problems(lib, traj), observe=node_l2),
        Op("weak3", curve(3.0, "weak"), curve_check, observe=lambda c: list(c.values)),
        Op("lp4", curve(4.0, "lp"), curve_check, observe=lambda c: list(c.values)),
        Op("rescale", lambda st: exact.rescale(st["etd"].node(m4), 2.0, alias_tol=1e-6),
           lambda f, st: _finite(f.coeffs), observe=lambda f: [f.l2_norm()]),
        Op("snapshots", round_trip, check_round_trip),
        *[cl(ell) for ell in sizes.cl_ells],
        *[gap(ell) for ell in sizes.gap_ells],
        Op("linear", linear_curve, check_linear, observe=list),
    ]


WORKLOADS = {
    "ns-picard-64": Workload(picard_setup, picard_ops("ns")),
    "mollified-picard-64": Workload(picard_setup, picard_ops("mollified")),
    "analysis-mix": Workload(analysis_setup, analysis_ops),
}
