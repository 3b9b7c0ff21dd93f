"""Periodic 3D grid, discrete Fourier transform pair and the 2/3 band.

Fields live on a cube [0, L)^3 sampled at n points per axis.  Spectra are
stored in the real-FFT layout (last axis holds only nonnegative z
frequencies), which bakes Hermitian symmetry into the representation.
Solver trajectories are zero outside the 2/3-rule band and store only the
band's block of that layout (``Grid3.band``); the inverse transform and the
energy accept either layout and tell them apart by shape.

This module owns the transform threading policy.  ``_FFT_WORKERS`` caps
the threads that run transforms (-1: one per core; 1: everything runs
serially in the calling thread).  Half-spectrum transforms hand it to
pocketfft, whose own threads pay off from about 128^3.  Band-block
transforms run on one pocketfft thread each; ``map_transforms`` puts the
second core to work by running several of them at once, one in the
calling thread and the others in a pool.  Results do not depend on the
thread count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cache, cached_property

import numpy as np
import scipy.fft

_FFT_WORKERS = -1


def set_fft_workers(k: int):
    """Cap the threads that run transforms: -1 means one per core, 1 runs serially.

    The cap applies to pocketfft's threads on half-spectrum transforms and
    to the threads ``map_transforms`` shares its calls between.
    """
    global _FFT_WORKERS
    if k == 0 or k < -1:
        raise ValueError(f"worker count must be positive or -1, got {k}")
    _FFT_WORKERS = int(k)


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _pool() -> ThreadPoolExecutor:
    """The transform pool, built on first use: one thread per core but the caller's."""
    return ThreadPoolExecutor(max_workers=max(_cores() - 1, 1), thread_name_prefix="mildns")


def map_transforms(fn, items) -> list:
    """[fn(x) for x in items], shared between the calling thread and the pool.

    The caller and each pooled helper take the next index from one queue, so
    a slow call does not hold up the others, and the results come back in
    item order.  The values are those of the serial loop, which the caller
    runs alone when ``_FFT_WORKERS`` is 1 or one core is available.  An
    exception raised by fn stops the remaining calls and reaches the caller
    as itself, once every helper has returned.
    """
    items = list(items)
    threads = _cores() if _FFT_WORKERS == -1 else min(_FFT_WORKERS, _cores())
    helpers = min(threads, len(items)) - 1
    if helpers <= 0:
        return [fn(x) for x in items]
    results = [None] * len(items)
    todo = deque(range(len(items)))  # popleft is atomic: each index is taken once

    def drain():
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            try:
                results[i] = fn(items[i])
            except BaseException:
                todo.clear()
                raise

    futures = [_pool().submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a helper that has not started would find nothing left: cancel it, wait for the rest
        errors = [f.exception() for f in futures if not f.cancel()]
    for error in errors:
        if error is not None:
            raise error
    return results


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
        and the x and y transforms run on those columns alone, on one
        pocketfft thread (``map_transforms`` runs such calls side by side).
        rfftn does the same three passes in the same order, so the values
        equal the first kz_keep columns of the full transform bit for bit.
        """
        if samples.shape[-3:] != self.physical_shape:
            raise ValueError(
                f"sample shape {samples.shape} does not match grid n={self.n}"
            )
        if kz_keep is None:
            return scipy.fft.rfftn(samples, axes=(-3, -2, -1), workers=_FFT_WORKERS)
        half = scipy.fft.rfft(samples, axis=-1, workers=1)[..., :kz_keep]
        return scipy.fft.fftn(half, axes=(-3, -2), workers=1, overwrite_x=True)

    @cached_property
    def band(self) -> "Band":
        """The modes the 2/3 rule keeps, built on first use."""
        return Band(self)

    def backward(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`, from the half spectrum or a band block.

        A band block is padded to the half spectrum, the x and y passes run
        in place on its kept z-columns alone (the others stay zero), and the
        z pass runs on the padded array as it stands, all on one pocketfft
        thread.  The passes are unnormalized and the result is scaled once
        by irfftn's factor 1/n^3, rounded from extended precision as
        pocketfft rounds it, so the values equal irfftn of the padded half
        spectrum bit for bit.
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
        padded = self.band.pad(coeffs)
        # in place: with overwrite_x pocketfft writes into the complex view
        # itself (the bit-for-bit test against irfftn fails if it stops)
        scipy.fft.ifftn(
            padded[..., : self.band.kept], axes=(-3, -2), norm="forward",
            overwrite_x=True, workers=1,
        )
        out = scipy.fft.irfft(padded, n=self.n, axis=-1, norm="forward", workers=1)
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

    def pad(self, block: np.ndarray) -> np.ndarray:
        """block in zeros of the half-spectrum shape (..., n, n, n//2 + 1)."""
        out = np.zeros(block.shape[:-3] + (self.n, self.n, self.n // 2 + 1), dtype=block.dtype)
        out[..., self.rows[:, None], self.rows, : self.kept] = block
        return out


def make_grid(n: int, box_length: float) -> Grid3:
    """Build a periodic grid; rejects odd or tiny n and nonpositive or non-finite L."""
    return Grid3(n, box_length)
