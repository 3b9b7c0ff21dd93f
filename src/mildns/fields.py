"""Spectral vector fields and the pseudo-spectral operator toolbox.

Leray projection, divergence/gradient, 2/3-rule dealiasing and the two
nonlinear terms (plain and mollified) all act on the rfft half spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid3

DIV_TOL = 1e-10  # per-mode relative solenoidality tolerance


@dataclass
class FourierMultiplier:
    """Diagonal operator in Fourier space: (M f)^(xi) = m(xi) f^(xi)."""

    grid: Grid3
    values: np.ndarray  # broadcastable against the spectral shape
    label: str = ""

    def apply(self, f: "SpectralVectorField") -> "SpectralVectorField":
        return replace(f, coeffs=f.coeffs * self.values)


@dataclass
class SpectralVectorField:
    """Three-component real velocity field stored as rfft coefficients."""

    grid: Grid3
    coeffs: np.ndarray  # shape (3,) + grid.spectral_shape, complex
    is_solenoidal: bool = False

    @classmethod
    def from_physical(cls, grid: Grid3, samples: np.ndarray) -> "SpectralVectorField":
        if samples.shape != (3,) + grid.physical_shape:
            raise ValueError(
                f"expected samples of shape {(3,) + grid.physical_shape}, "
                f"got {samples.shape}"
            )
        return cls(grid, grid.forward(samples))

    @classmethod
    def zero(cls, grid: Grid3) -> "SpectralVectorField":
        return cls(grid, np.zeros((3,) + grid.spectral_shape, dtype=complex), True)

    def to_physical(self) -> np.ndarray:
        return self.grid.backward(self.coeffs)

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs.copy(), self.is_solenoidal)

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(self.grid.spectral_energy(c) for c in self.coeffs)))

    def max_divergence_ratio(self) -> float:
        """max over modes of |xi . u^| / (|xi| |u^|), zero mode excluded."""
        g = self.grid
        div = np.abs(divergence(self))
        mag = np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=0))
        kmag = np.sqrt(g.k_sq)
        denom = np.where(mag > 0, mag, 1.0) * np.where(kmag > 0, kmag, 1.0)
        ratio = div / denom
        ratio[0, 0, 0] = 0.0
        return float(ratio.max())


def divergence(f: SpectralVectorField) -> np.ndarray:
    """(div f)^(xi) = i xi . f^(xi), returned as a scalar spectrum."""
    g = f.grid
    return 1j * (g.kx * f.coeffs[0] + g.ky * f.coeffs[1] + g.kz * f.coeffs[2])


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
    g = f.grid
    out = _leray_apply((g.kx, g.ky, g.kz), g.k_sq, f.coeffs)
    return SpectralVectorField(g, out, is_solenoidal=True)


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
    """2/3-rule mask: keep modes with max_j |xi_j| <= (2/3) xi_max."""
    cutoff = (2.0 / 3.0) * (2 * np.pi / grid.length) * (grid.n / 2)
    tol = 1e-12 * cutoff
    return (
        (np.abs(grid.kx) <= cutoff + tol)
        & (np.abs(grid.ky) <= cutoff + tol)
        & (np.abs(grid.kz) <= cutoff + tol)
    )


def dealias(f: SpectralVectorField) -> SpectralVectorField:
    return replace(f, coeffs=f.coeffs * dealias_mask(f.grid))


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

    When u and v are the same field, u is transformed once and only the six
    distinct products of the symmetric tensor are formed and transformed.
    Each product is transformed to the z-frequencies the 2/3 rule keeps and
    added into the divergence i xi_k (u_i v_k)^ in k order; the rule and the
    Leray projection act on those frequencies, and the rest of the spectrum
    is zero.  The values are those of ``leray_project(dealias(...))`` of the
    full-spectrum divergence.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    up = u.to_physical()
    if _same_field(u, v):
        vp, products = up, _SYMMETRIC_PRODUCTS
    else:
        vp, products = v.to_physical(), _ALL_PRODUCTS
    mask = dealias_mask(g)
    kept = int(np.count_nonzero(mask[0, 0]))  # z-frequencies 0 .. kept-1 survive
    kvecs = (g.kx, g.ky, g.kz[..., :kept])
    div = np.empty((3, g.n, g.n, kept), dtype=complex)
    term = np.empty(div.shape[1:], dtype=complex)
    prod = np.empty(g.physical_shape)
    for (i, k), entries in products:
        uv_hat = g.forward(np.multiply(up[i], vp[k], out=prod), kz_keep=kept)
        for row, col in entries:
            if col == 0:
                np.multiply(kvecs[0], uv_hat, out=div[row])
            else:
                div[row] += np.multiply(kvecs[col], uv_hat, out=term)
    del up, vp, prod, uv_hat, term  # free each intermediate once used
    div *= 1j
    div *= mask[..., :kept]
    out = np.empty((3,) + g.spectral_shape, dtype=complex)
    out[..., kept:] = 0.0
    _leray_apply(kvecs, g.k_sq[..., :kept], div, out=out[..., :kept])
    return SpectralVectorField(g, out, is_solenoidal=True)


def mollified_nonlinear_term(
    u: SpectralVectorField, v: SpectralVectorField, mollifier: FourierMultiplier
) -> SpectralVectorField:
    """P div ((u * omega_kappa) (x) v): u is smoothed before the product."""
    return nonlinear_term(mollifier.apply(u), v)


def l2_inner(f: SpectralVectorField, h: SpectralVectorField) -> float:
    """L^2 inner product sum_i <f_i, h_i> via the half spectrum."""
    g = f.grid
    prod = (f.coeffs * np.conj(h.coeffs)).real * g.hermitian_weight
    return float(prod.sum()) * g.cell_volume / g.n**3
