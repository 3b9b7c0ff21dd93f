"""Measurements shared by the command line experiments and the acceptance suite.

Each function turns trajectories or data into one decay curve, or a curve
into one number.  The caller chooses the grid, the time nodes and every
threshold, so the CLI and the tests measure the same quantities on their
own grids and judge them by their own criteria.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import SpectralVectorField, dealias_mask, leray_project
from .grid import Grid3
from .kernels import ContainmentError, l1_semigroup_gap
from .norms import DecayCurve, decay_functional, weak_lp_norm


def difference_curve(
    grid: Grid3, times, coeffs_a, coeffs_b, p: float, kind: str, label: str = ""
) -> DecayCurve:
    """t^((1-3/p)/2) ||a(t) - b(t)|| at the positive nodes of two trajectories.

    ``kind`` is "lp" or "weak" as in ``norms.decay_functional``; at p = 3 the
    weight is 1, so the weak-3 curve is the plain weak norm of the difference.
    """
    diffs = (SpectralVectorField(grid, a - b) for a, b in zip(coeffs_a, coeffs_b))
    return decay_functional(times, diffs, p, kind=kind, functional=label)


def drop_per_decade(curve: DecayCurve, lo: float, hi: float) -> float:
    """Total drop factor over [lo, hi], normalized to one time decade."""
    mask = (curve.times >= lo) & (curve.times <= hi)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 2:
        raise ValueError("measurement window holds fewer than 2 samples")
    decades = math.log10(t[-1] / t[0])
    return (v[0] / v[-1]) ** (1.0 / decades)


def is_monotone_decreasing(curve: DecayCurve, lo: float, hi: float) -> bool:
    """No sample in [lo, hi] exceeds its predecessor by more than 0.1 %."""
    mask = (curve.times >= lo) & (curve.times <= hi)
    v = curve.values[mask]
    return bool(np.all(np.diff(v) <= 1e-3 * v[:-1]))


def bump_perturbation(grid: Grid3, amplitude: float, sigma: float) -> np.ndarray:
    """Spectrum of curl (0, 0, psi) for a Gaussian psi centred in the box.

    Solenoidal and integrable, with amplitude and width sigma of psi in box
    units; cut to the 2/3 band like the dealiased data it perturbs.
    """
    X, Y, Z = grid.meshgrid()
    c = grid.length / 2
    r2 = (X - c) ** 2 + (Y - c) ** 2 + (Z - c) ** 2
    psi_hat = grid.forward(amplitude * np.exp(-r2 / (2 * sigma**2)))
    du = np.stack([1j * grid.ky * psi_hat, -1j * grid.kx * psi_hat, np.zeros_like(psi_hat)])
    return du * dealias_mask(grid)


def _weak3_curve(grid: Grid3, times, spectrum, label: str) -> DecayCurve:
    """||g_t||_{3,w} at each time t, with g_t^ = spectrum(t)."""
    vals = [weak_lp_norm(grid.backward(spectrum(t)), 3.0, grid.cell_volume) for t in times]
    return DecayCurve(times, np.array(vals), label, 3.0, "weak")


def heat_weak3_curve(grid: Grid3, times, coeffs, label: str = "") -> DecayCurve:
    """||S(t) f||_{3,w} at each time, S the heat semigroup and f^ = coeffs."""
    return _weak3_curve(grid, times, lambda t: np.exp(-t * grid.k_sq) * coeffs, label)


def linear_part_curve(grid: Grid3, times, ell: float, seed: int, label: str = "") -> DecayCurve:
    """||(S_l(t) - 1) S(t) f||_{3,w} for seeded random-phase data f.

    f has the spectral envelope |xi|^(1-l), which makes the deviation of the
    stationary field scale like the claimed t^-(1/2 - 1/l).
    """
    rng = np.random.default_rng(seed)
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
    return _weak3_curve(
        grid, times,
        lambda t: (np.exp(-t * kmag_l) - 1.0) * np.exp(-t * grid.k_sq) * f.coeffs,
        label,
    )


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
