"""Spectral vector fields and the pseudo-spectral operator toolbox.

Coefficients come in two layouts, told apart by shape: the rfft half
spectrum, and the block of it that the 2/3 rule keeps (``Grid3.band``),
which solver trajectories are stored in.  Leray projection, divergence
and the two nonlinear terms (plain and mollified) take either layout and
return the one they were given; gradient and 2/3-rule dealiasing act on
the half spectrum.  ``check_solver_data`` rejects data the band would not
hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid3

DIV_TOL = 1e-10  # per-mode relative solenoidality tolerance


@dataclass
class SpectralVectorField:
    """Three-component real velocity field stored as rfft coefficients."""

    grid: Grid3
    coeffs: np.ndarray  # shape (3,) + grid.spectral_shape, or (3,) + grid.band.shape
    is_solenoidal: bool = False

    @classmethod
    def from_physical(cls, grid: Grid3, samples: np.ndarray) -> "SpectralVectorField":
        if samples.shape != (3,) + grid.physical_shape:
            raise ValueError(
                f"expected samples of shape {(3,) + grid.physical_shape}, "
                f"got {samples.shape}"
            )
        return cls(grid, grid.forward(samples))

    def to_physical(self) -> np.ndarray:
        return self.grid.backward(self.coeffs)

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs.copy(), self.is_solenoidal)

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(self.grid.spectral_energy(c) for c in self.coeffs)))

    def max_divergence_ratio(self) -> float:
        """max over modes of |xi . u^| / (|xi| |u^|), zero mode excluded."""
        div = np.abs(divergence(self))
        mag = np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=0))
        kmag = np.sqrt(_modes(self).k_sq)
        denom = np.where(mag > 0, mag, 1.0) * np.where(kmag > 0, kmag, 1.0)
        ratio = div / denom
        ratio[0, 0, 0] = 0.0
        return float(ratio.max())


def _modes(f: SpectralVectorField):
    """The grid, or its band for a band block: whichever has f's wavenumbers.

    Both carry ``kx``, ``ky``, ``kz`` and ``k_sq``.
    """
    g = f.grid
    return g.band if f.coeffs.shape[-3:] == g.band.shape else g


def divergence(f: SpectralVectorField) -> np.ndarray:
    """(div f)^(xi) = i xi . f^(xi), returned as a scalar spectrum."""
    k = _modes(f)
    return 1j * (k.kx * f.coeffs[0] + k.ky * f.coeffs[1] + k.kz * f.coeffs[2])


def gradient(grid: Grid3, phi_coeffs: np.ndarray) -> SpectralVectorField:
    """(grad phi)^(xi) = i xi phi^(xi)."""
    c = np.stack(
        [1j * grid.kx * phi_coeffs, 1j * grid.ky * phi_coeffs, 1j * grid.kz * phi_coeffs]
    )
    return SpectralVectorField(grid, c)


def leray_project(f: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: f^ - xi (xi . f^)/|xi|^2.

    The zero mode is preserved (mean flow passes through); experiments
    construct mean-free data so this choice is never exercised.
    """
    k = _modes(f)
    out = _leray_apply((k.kx, k.ky, k.kz), k.k_sq, f.coeffs)
    return SpectralVectorField(f.grid, out, is_solenoidal=True)


def _leray_apply(kvecs, k_sq: np.ndarray, coeffs: np.ndarray, out=None) -> np.ndarray:
    """The Leray formula on the modes of coeffs, whose first mode is xi = 0.

    ``kvecs`` and ``k_sq`` broadcast against one component of ``coeffs``;
    the result goes to ``out`` when given.
    """
    ksq = k_sq.copy()
    ksq[0, 0, 0] = 1.0  # keep the mean untouched
    kdotf = kvecs[0] * coeffs[0] + kvecs[1] * coeffs[1] + kvecs[2] * coeffs[2]
    kdotf[0, 0, 0] = 0.0
    scale = kdotf / ksq
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.result_type(coeffs, scale))
    for i, k in enumerate(kvecs):
        np.subtract(coeffs[i], k * scale, out=out[i])
    return out


def dealias_mask(grid: Grid3) -> np.ndarray:
    """2/3-rule mask on the half spectrum: True exactly on ``grid.band``."""
    return grid.band.pad(np.ones(grid.band.shape, dtype=bool))


def dealias(f: SpectralVectorField) -> SpectralVectorField:
    return replace(f, coeffs=f.coeffs * dealias_mask(f.grid))


def check_solver_data(f: SpectralVectorField) -> None:
    """Raise ValueError, naming the check, unless f is finite, mean-free,
    solenoidal (divergence ratio <= DIV_TOL) and inside the 2/3 band.

    Trajectories store the band only, so energy outside it would be dropped
    without a word; up to 1e-24 of the total passes as roundoff.
    """
    c = f.coeffs
    if not np.all(np.isfinite(c)):
        raise ValueError("solver data: non-finite coefficients")
    if np.abs(c[:, 0, 0, 0]).max() > 1e-12 * np.abs(c).max():
        raise ValueError("solver data: nonzero mean")
    ratio = f.max_divergence_ratio()
    if ratio > DIV_TOL:
        raise ValueError(f"solver data: divergence ratio {ratio:.3e} > DIV_TOL {DIV_TOL}")
    g = f.grid
    high = g.spectral_energy(c * ~dealias_mask(g))
    if high > 1e-24 * g.spectral_energy(c):
        raise ValueError(f"solver data: energy {high:.3e} outside the 2/3 band")


# The products u_i v_k nonlinear_term transforms, each with the (i, k)
# entries of the tensor it stands for; a symmetric tensor shares u_i u_k = u_k u_i.
# Each row i meets its entries in k order, the order the divergence sums them in.
_ALL_PRODUCTS = tuple(((i, k), ((i, k),)) for i in range(3) for k in range(3))
_SYMMETRIC_PRODUCTS = tuple(
    ((i, k), ((i, k), (k, i)) if i != k else ((i, k),)) for i in range(3) for k in range(i, 3)
)


def _same_field(u: SpectralVectorField, v: SpectralVectorField) -> bool:
    """True when u and v are one field: the same object or views of the same memory."""
    a, b = u.coeffs, v.coeffs
    return u is v or (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        and a.strides == b.strides and a.shape == b.shape and a.dtype == b.dtype
    )


def nonlinear_term(u: SpectralVectorField, v: SpectralVectorField) -> SpectralVectorField:
    """P div (u (x) v), computed pseudo-spectrally with 2/3 dealiasing.

    u and v may be half spectra or band blocks (``Grid3.band``); the result
    has u's layout.  When u and v are the same field, u is transformed once
    and only the six distinct products of the symmetric tensor are formed
    and transformed.  Each product is transformed to the band's z-columns,
    cut to the band, and added into the divergence i xi_k (u_i v_k)^ in k
    order; the Leray projection acts on the band alone, and a half-spectrum
    result is zero outside it.  The values are those of
    ``leray_project(dealias(...))`` of the full-spectrum divergence.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    band = g.band
    up = u.to_physical()
    if _same_field(u, v):
        vp, products = up, _SYMMETRIC_PRODUCTS
    else:
        vp, products = v.to_physical(), _ALL_PRODUCTS
    kvecs = (band.kx, band.ky, band.kz)
    div = np.empty((3,) + band.shape, dtype=complex)
    term = np.empty(band.shape, dtype=complex)
    prod = np.empty(g.physical_shape)
    for (i, k), entries in products:
        uv_hat = band.gather(g.forward(np.multiply(up[i], vp[k], out=prod), kz_keep=band.kept))
        for row, col in entries:
            if col == 0:
                np.multiply(kvecs[0], uv_hat, out=div[row])
            else:
                div[row] += np.multiply(kvecs[col], uv_hat, out=term)
    del up, vp, prod, uv_hat, term  # free each intermediate once used
    div *= 1j
    _leray_apply(kvecs, band.k_sq, div, out=div)
    if u.coeffs.shape[-3:] != band.shape:
        div = band.pad(div)
    return SpectralVectorField(g, div, is_solenoidal=True)


def mollified_nonlinear_term(
    u: SpectralVectorField, v: SpectralVectorField, symbol: np.ndarray
) -> SpectralVectorField:
    """P div ((u * omega_kappa) (x) v): u's coefficients times the mollifier symbol.

    ``symbol`` has u's layout (``kernels.mollifier_symbol``, or its band block).
    """
    return nonlinear_term(replace(u, coeffs=u.coeffs * symbol), v)

