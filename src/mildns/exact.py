"""Closed-form objects: Landau singular solutions, homogeneous degree -1
data, and the parabolic rescaling by integer factors."""

from __future__ import annotations

import numpy as np

from .fields import SpectralVectorField, dealias, leray_project
from .grid import Grid3


class AliasingError(ValueError):
    """Rescaling would push significant energy past the Nyquist mode."""


# ---------------------------------------------------------------------------
# Landau one-point singular solutions (|c| > 1)


def _check_landau(c: float, r: np.ndarray):
    if abs(c) <= 1:
        raise ValueError(f"Landau parameter needs |c| > 1, got c={c}")
    if np.any(r == 0):
        raise ValueError("Landau solution is singular at the origin")


def landau_eval(c: float, x: np.ndarray):
    """Velocity (N, 3) and pressure (N,) of the Landau solution at points x.

    The family is axisymmetric about the x1 axis and homogeneous of
    degree -1 (velocity) and -2 (pressure).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.sqrt((x**2).sum(axis=1))
    _check_landau(c, r)
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    denom = r * (c * r - x1) ** 2
    u = np.empty_like(x)
    u[:, 0] = 2.0 * (c * r**2 - 2.0 * x1 * r + c * x1**2) / denom
    u[:, 1] = 2.0 * x2 * (c * x1 - r) / denom
    u[:, 2] = 2.0 * x3 * (c * x1 - r) / denom
    p = 4.0 * (c * x1 - r) / denom
    return u, p


# 4th-order central stencils
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil_eval(c: float, pts: np.ndarray, h: float):
    """u and p at the 5-point stencils of every point along every axis.

    Returns arrays of shape (3 axes, 5 offsets, N, ...).
    """
    n = pts.shape[0]
    u_st = np.empty((3, 5, n, 3))
    p_st = np.empty((3, 5, n))
    for ax in range(3):
        for j, o in enumerate(_OFFS):
            q = pts.copy()
            q[:, ax] += o * h
            u_st[ax, j], p_st[ax, j] = landau_eval(c, q)
    return u_st, p_st


def landau_residual(c: float, pts: np.ndarray, h: float = 1e-3):
    """Pointwise steady Navier-Stokes residual of the closed form.

    Evaluates -Lap u + (u . grad) u + grad p and div u by 4th-order
    central differences; returns (max relative residual, max relative
    divergence, per-point relative residual array).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.sqrt((pts**2).sum(axis=1))
    if np.any(r < 0.5):
        raise ValueError("sample points must keep |x| >= 0.5")
    u0, _ = landau_eval(c, pts)
    u_st, p_st = _stencil_eval(c, pts, h)

    grad_u = np.einsum("j,ajnc->anc", _D1, u_st) / h  # d u_c / d x_a
    lap_u = np.einsum("j,ajnc->nc", _D2, u_st) / h**2
    grad_p = np.einsum("j,ajn->an", _D1, p_st) / h

    conv = np.einsum("na,anc->nc", u0, grad_u)
    resid = -lap_u + conv + grad_p.T
    div = np.einsum("anc,ac->n", grad_u, np.eye(3))

    umag = np.sqrt((u0**2).sum(axis=1))
    gradmag = np.sqrt((grad_u**2).sum(axis=(0, 2)))
    gpmag = np.sqrt((grad_p**2).sum(axis=0))
    denom = umag * gradmag + gpmag + 1e-300
    rel = np.sqrt((resid**2).sum(axis=1)) / denom
    rel_div = np.abs(div) / (gradmag + 1e-300)
    return float(rel.max()), float(rel_div.max()), rel


def landau_shell_samples(
    c: float,
    n_samples: int,
    rng: np.random.Generator,
    r_min: float = 0.5,
    r_max: float = 4.0,
    margin: float = 0.3,
) -> np.ndarray:
    """Random points in the shell with |c|x| - x1| bounded away from 0."""
    pts = []
    while len(pts) < n_samples:
        x = rng.uniform(-r_max, r_max, size=(4 * n_samples, 3))
        r = np.sqrt((x**2).sum(axis=1))
        ok = (r >= r_min) & (r <= r_max) & (np.abs(c * r - x[:, 0]) >= margin)
        pts.extend(x[ok])
    return np.array(pts[:n_samples])


# ---------------------------------------------------------------------------
# Homogeneous degree -1 initial data


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    b1 = bump(s)
    b2 = bump(1.0 - s)
    return b1 / (b1 + b2 + 1e-300)


def homogeneous_data(
    grid: Grid3,
    amplitude: float,
    delta_cells: float = 4.0,
) -> SpectralVectorField:
    """Regularized degree -1 divergence-free data, windowed to the box.

    The swirl profile a (-y, x, 0)/|x|^2 is smoothed with
    |x|^2 -> |x|^2 + delta^2, multiplied by a smooth cutoff that is 1
    for |x| <= L/4 and 0 for |x| >= 3L/8, then Leray-projected.
    """
    if delta_cells < 2.0:
        raise ValueError(f"regularization core must span >= 2 cells, got {delta_cells}")
    L = grid.length
    delta = delta_cells * grid.dx
    X, Y, Z = grid.meshgrid()
    xc, yc, zc = X - L / 2, Y - L / 2, Z - L / 2
    r2 = xc**2 + yc**2 + zc**2
    core = r2 + delta**2
    r = np.sqrt(r2)
    window = _smooth_step((3 * L / 8 - r) / (L / 8))
    samples = np.stack(
        [
            -amplitude * yc / core * window,
            amplitude * xc / core * window,
            np.zeros_like(xc),
        ]
    )
    f = SpectralVectorField.from_physical(grid, samples)
    f = leray_project(dealias(f))
    f.coeffs[:, 0, 0, 0] = 0.0
    return f


# ---------------------------------------------------------------------------
# Parabolic rescaling


def rescale(f: SpectralVectorField, lam: float, alias_tol: float = 1e-9) -> SpectralVectorField:
    """u_lambda(x) = lambda u(c + lambda (x - c)) about the box center c.

    Dilation in whole-space semantics: points whose source falls outside
    the box read zero, so a field windowed inside the box keeps a single
    compressed copy and the continuum norm scaling lambda^(1 - 3/p).
    lambda must be an integer >= 1 (2.0 counts), so every target sample is
    a source sample; pairs with time t -> t / lambda^2.  Raises ValueError
    for any other lambda, and AliasingError when compression would push
    significant energy past the Nyquist mode.
    """
    if not (lam >= 1 and float(lam).is_integer()):
        raise ValueError(f"rescaling factor must be an integer >= 1, got {lam}")
    if lam == 1:
        return f.copy()
    g = f.grid
    n = g.n

    # frequencies get multiplied by lambda; the modes that would pass
    # Nyquist must carry negligible energy
    hi = lam * np.minimum(np.arange(n), n - np.arange(n)) >= n // 2  # |mode index|, DFT order
    mask = hi[:, None, None] | hi[None, :, None] | hi[None, None, : n // 2 + 1]
    total = g.spectral_energy(f.coeffs)
    lost = g.spectral_energy(f.coeffs * mask)
    if total > 0 and lost / total > alias_tol:
        raise AliasingError(f"rescaling by {lam} aliases {lost / total:.3e} of the energy")

    # target i reads the source sample n/2 + lambda (i - n/2)
    j = n // 2 + int(lam) * (np.arange(n) - n // 2)
    valid = (j >= 0) & (j < n)
    jv = j[valid]
    src = f.to_physical()
    phys = np.zeros((3,) + g.physical_shape)
    phys[np.ix_(range(3), valid, valid, valid)] = lam * src[np.ix_(range(3), jv, jv, jv)]
    return SpectralVectorField(g, g.forward(phys), f.is_solenoidal)
