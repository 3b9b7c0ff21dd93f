"""Periodic 3D grid and discrete Fourier transform pair.

Fields live on a cube [0, L)^3 sampled at n points per axis.  Spectra are
stored in the real-FFT layout (last axis holds only nonnegative z
frequencies), which bakes Hermitian symmetry into the representation.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

_FFT_WORKERS = -1


def set_fft_workers(k: int):
    """Cap the FFT worker count (-1 means all cores)."""
    global _FFT_WORKERS
    if k == 0 or k < -1:
        raise ValueError(f"worker count must be positive or -1, got {k}")
    _FFT_WORKERS = int(k)


class Grid3:
    """Periodic computational box: n points per axis, side length L.

    Wavenumbers per axis are xi_j in (2*pi/L) * {-n/2, ..., n/2 - 1}
    in standard DFT order; the spectral layout is the rfftn one,
    shape (n, n, n//2 + 1).
    """

    def __init__(self, n: int, box_length: float):
        if n % 2 != 0:
            raise ValueError(f"grid size must be even, got n={n}")
        if n < 8:
            raise ValueError(f"grid size must be at least 8, got n={n}")
        if box_length <= 0:
            raise ValueError(f"box length must be positive, got L={box_length}")
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

    @property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def meshgrid(self):
        """Physical coordinates (x, y, z), each of shape (n, n, n)."""
        x = self.axis_coords
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

    def backward(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        if coeffs.shape[-3:] != self.spectral_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match grid n={self.n}"
            )
        return scipy.fft.irfftn(
            coeffs, s=self.physical_shape, axes=(-3, -2, -1), workers=_FFT_WORKERS
        )

    def spectral_energy(self, coeffs: np.ndarray) -> float:
        """sum |f|^2 * cell_volume computed from the half spectrum."""
        mag2 = (coeffs.real**2 + coeffs.imag**2) * self.hermitian_weight
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


def make_grid(n: int, box_length: float) -> Grid3:
    """Build a periodic grid; rejects odd or tiny n and nonpositive L."""
    return Grid3(n, box_length)
