"""Periodic 3D grid, discrete Fourier transform pair and the 2/3 band.

Fields live on a cube [0, L)^3 sampled at n points per axis.  Spectra are
stored in the real-FFT layout (last axis holds only nonnegative z
frequencies), which bakes Hermitian symmetry into the representation.
Solver trajectories are zero outside the 2/3-rule band and store only the
band's block of that layout (``Grid3.band``); the inverse transform and the
energy accept either layout and tell them apart by shape.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.fft

_FFT_WORKERS = -1


def set_fft_workers(k: int):
    """Cap the FFT worker count (-1 means all cores)."""
    global _FFT_WORKERS
    if k == 0 or k < -1:
        raise ValueError(f"worker count must be positive or -1, got {k}")
    _FFT_WORKERS = int(k)


def check_grid_size(n: int, box_length: float):
    """ValueError unless n is even and at least 8 and L is positive and finite."""
    if n % 2 != 0 or n < 8:
        raise ValueError(f"grid size must be even and at least 8, got n={n}")
    if not 0 < box_length < np.inf:  # also false for NaN
        raise ValueError(f"box length must be positive and finite, got L={box_length}")


class Grid3:
    """Periodic computational box: n points per axis, side length L.

    Wavenumbers per axis are xi_j in (2*pi/L) * {-n/2, ..., n/2 - 1}
    in standard DFT order; the spectral layout is the rfftn one,
    shape (n, n, n//2 + 1).
    """

    def __init__(self, n: int, box_length: float):
        check_grid_size(n, box_length)
        self.n = int(n)
        self.length = float(box_length)
        self.dx = self.length / self.n
        self.cell_volume = self.dx**3

        k1d = 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k1d_r = 2 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        self.k_axis = k1d
        self.kx = k1d.reshape(-1, 1, 1)
        self.ky = k1d.reshape(1, -1, 1)
        self.kz = k1d_r.reshape(1, 1, -1)
        self.k_sq = self.kx**2 + self.ky**2 + self.kz**2
        self.spectral_shape = (self.n, self.n, self.n // 2 + 1)
        self.physical_shape = (self.n, self.n, self.n)

        # Multiplicity of each retained rfft mode in the full spectrum
        # (2 for modes whose conjugate partner was dropped).
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self.hermitian_weight = w.reshape(1, 1, -1)

    def meshgrid(self):
        """Physical coordinates (x, y, z), each of shape (n, n, n)."""
        x = np.arange(self.n) * self.dx
        return np.meshgrid(x, x, x, indexing="ij")

    def forward(self, samples: np.ndarray, kz_keep: int | None = None) -> np.ndarray:
        """Real physical samples -> unnormalized rfftn coefficients.

        With ``kz_keep`` only the z-frequencies 0 .. kz_keep-1 are returned
        and the x and y transforms run on those columns alone.  rfftn does
        the same three passes in the same order, so the values equal the
        first kz_keep columns of the full transform bit for bit.
        """
        if samples.shape[-3:] != self.physical_shape:
            raise ValueError(
                f"sample shape {samples.shape} does not match grid n={self.n}"
            )
        if kz_keep is None:
            return scipy.fft.rfftn(samples, axes=(-3, -2, -1), workers=_FFT_WORKERS)
        half = scipy.fft.rfft(samples, axis=-1, workers=_FFT_WORKERS)[..., :kz_keep]
        return scipy.fft.fftn(half, axes=(-3, -2), workers=_FFT_WORKERS, overwrite_x=True)

    @cached_property
    def band(self) -> "Band":
        """The modes the 2/3 rule keeps, built on first use."""
        return Band(self)

    def backward(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`, from the half spectrum or a band block.

        A band block is padded to the kept z-columns only: the x and y
        passes run there, and the z pass treats the other columns as zero.
        The passes are unnormalized and the result is scaled once by
        irfftn's factor 1/n^3, rounded from extended precision as pocketfft
        rounds it, so the values equal irfftn of the padded half spectrum
        bit for bit.
        """
        shape = coeffs.shape[-3:]
        if shape == self.spectral_shape:
            return scipy.fft.irfftn(
                coeffs, s=self.physical_shape, axes=(-3, -2, -1), workers=_FFT_WORKERS
            )
        if shape != self.band.shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match grid n={self.n}"
            )
        half = scipy.fft.ifftn(
            self.band.pad(coeffs, self.band.kept), axes=(-3, -2), norm="forward",
            overwrite_x=True, workers=_FFT_WORKERS,
        )
        out = scipy.fft.irfft(half, n=self.n, axis=-1, norm="forward", workers=_FFT_WORKERS)
        out *= float(1 / np.longdouble(self.n**3))
        return out

    def spectral_energy(self, coeffs: np.ndarray) -> float:
        """sum |f|^2 * cell_volume from the half spectrum or a band block.

        Both layouts start at z-column 0, so each column is weighted by the
        multiplicity of the half-spectrum column it stands for.
        """
        w = self.hermitian_weight[..., : coeffs.shape[-1]]
        mag2 = (coeffs.real**2 + coeffs.imag**2) * w
        return float(mag2.sum()) * self.cell_volume / self.n**3

    def __eq__(self, other):
        return (
            isinstance(other, Grid3)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid3(n={self.n}, L={self.length})"


class Band:
    """The modes the 2/3 rule keeps, as one block of the rfft layout.

    The rule keeps max_j |xi_j| < (2/3) xi_max, a product of per-axis
    conditions.  The inequality is strict, so the product of two kept modes
    never aliases onto a kept mode, also when 3 divides n and (2/3) xi_max
    is itself a mode.  The kept modes are the x indices ``rows``, the same y
    indices, and the z-columns 0 .. kept-1.  ``rows`` lists nonnegative
    frequencies first, as the DFT order does, so the block's first mode is
    xi = 0.  A band block has shape (..., len(rows), len(rows), kept): 43 x
    43 x 22 of the 64 x 64 x 33 half spectrum (30.1 %) at n = 64.  ``kx``,
    ``ky``, ``kz`` and ``k_sq`` are the grid's wavenumbers on the block.
    """

    def __init__(self, grid: Grid3):
        cutoff = (2.0 / 3.0) * (2 * np.pi / grid.length) * (grid.n / 2)
        tol = 1e-12 * cutoff
        self.n = grid.n
        self.rows = np.flatnonzero(np.abs(grid.k_axis) < cutoff - tol)
        self.kept = int(np.count_nonzero(np.abs(grid.kz) < cutoff - tol))
        self.shape = (self.rows.size, self.rows.size, self.kept)
        k = grid.k_axis[self.rows]
        self.kx = k.reshape(-1, 1, 1)
        self.ky = k.reshape(1, -1, 1)
        self.kz = grid.kz[..., : self.kept]
        self.k_sq = self.kx**2 + self.ky**2 + self.kz**2

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """The band block of coefficients of shape (..., n, n, >= kept)."""
        return coeffs[..., self.rows[:, None], self.rows, : self.kept]

    def pad(self, block: np.ndarray, columns: int | None = None) -> np.ndarray:
        """block in zeros of shape (..., n, n, columns); columns default n//2 + 1."""
        columns = self.n // 2 + 1 if columns is None else columns
        out = np.zeros(block.shape[:-3] + (self.n, self.n, columns), dtype=block.dtype)
        out[..., self.rows[:, None], self.rows, : self.kept] = block
        return out


def make_grid(n: int, box_length: float) -> Grid3:
    """Build a periodic grid; rejects odd or tiny n and nonpositive or non-finite L."""
    return Grid3(n, box_length)
