import sys
import threading
import time

import numpy as np
import pytest

from mildns import grid
from mildns.fields import dealias_mask
from mildns.grid import Grid3, make_grid, map_transforms, set_fft_workers


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_grid(7, 1.0)
    with pytest.raises(ValueError):
        make_grid(4, 1.0)
    with pytest.raises(ValueError):
        make_grid(16, 0.0)
    with pytest.raises(ValueError):
        make_grid(16, -2.0)
    with pytest.raises(ValueError):
        make_grid(8, np.nan)
    with pytest.raises(ValueError):
        make_grid(8, np.inf)


def test_wavenumber_layout():
    g = make_grid(8, 2 * np.pi)
    assert g.spectral_shape == (8, 8, 5)
    assert g.kx.shape == (8, 1, 1)
    # unit box-frequency spacing for L = 2 pi
    assert np.allclose(np.sort(g.k_axis), np.arange(-4, 4))
    assert g.k_sq.min() == 0.0


def test_round_trip():
    g = make_grid(16, 3.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.physical_shape)
    back = g.backward(g.forward(f))
    assert np.abs(back - f).max() < 1e-12


def test_forward_shape_check():
    g = make_grid(8, 1.0)
    with pytest.raises(ValueError):
        g.forward(np.zeros((8, 8, 7)))
    with pytest.raises(ValueError):
        g.backward(np.zeros((8, 8, 8), dtype=complex))


def test_parseval():
    g = make_grid(16, 2.5)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.physical_shape)
    direct = (f**2).sum() * g.cell_volume
    spectral = g.spectral_energy(g.forward(f))
    assert abs(direct - spectral) < 1e-10 * direct


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_forward_kz_keep_is_the_leading_columns_bit_for_bit(shape):
    g = make_grid(16, 3.0)
    x = np.random.default_rng(7).standard_normal(shape + g.physical_shape)
    full = g.forward(x)
    for kept in (1, 6, g.n // 2 + 1):
        part = g.forward(x, kz_keep=kept)
        assert part.shape == shape + (g.n, g.n, kept)
        assert np.array_equal(part.view(np.uint8), full[..., :kept].copy().view(np.uint8))


@pytest.mark.parametrize("n", [8, 16, 18, 64])
def test_band_is_the_dealias_mask(n):
    # the strict 2/3 rule written out per axis: max_j |xi_j| < (2/3) xi_max
    g = make_grid(n, 3.0)
    band = g.band
    cutoff = (2.0 / 3.0) * (2 * np.pi / g.length) * (n / 2) * (1 - 1e-12)
    rule = (np.abs(g.kx) < cutoff) & (np.abs(g.ky) < cutoff) & (np.abs(g.kz) < cutoff)
    assert np.array_equal(dealias_mask(g), rule)
    assert band.rows[0] == 0 and band.gather(rule).all()
    assert np.array_equal(band.k_sq, band.gather(g.k_sq))


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
@pytest.mark.parametrize("n", [16, 18])
def test_backward_of_a_band_block_is_irfftn_of_the_padded_spectrum_bit_for_bit(shape, n):
    g = make_grid(n, 3.0)
    rng = np.random.default_rng(n)
    block = rng.standard_normal(shape + g.band.shape) + 1j * rng.standard_normal(
        shape + g.band.shape
    )
    padded = g.band.pad(block)
    got = g.backward(block)
    assert got.shape == shape + g.physical_shape
    assert np.array_equal(got.view(np.uint8), g.backward(padded).view(np.uint8))
    assert abs(g.spectral_energy(block) - g.spectral_energy(padded)) <= (
        1e-14 * g.spectral_energy(padded)
    )


def test_single_mode_transform():
    # one cosine mode has exactly two nonzero full-spectrum coefficients
    g = make_grid(16, 2 * np.pi)
    X, _, _ = g.meshgrid()
    coeffs = g.forward(np.cos(3 * X))
    assert abs(coeffs[3, 0, 0] - 16**3 / 2) < 1e-9
    coeffs[3, 0, 0] = 0.0
    coeffs[-3, 0, 0] = 0.0
    assert np.abs(coeffs).max() < 1e-9


def test_grid_equality_and_hash():
    assert make_grid(8, 1.0) == make_grid(8, 1.0)
    assert make_grid(8, 1.0) != make_grid(8, 2.0)
    assert hash(make_grid(8, 1.0)) == hash(Grid3(8, 1.0))


def test_fft_worker_setting():
    set_fft_workers(1)
    g = make_grid(8, 1.0)
    f = np.arange(512, dtype=float).reshape(8, 8, 8)
    one = g.backward(g.forward(f))
    set_fft_workers(-1)
    many = g.backward(g.forward(f))
    assert np.array_equal(one, many)
    with pytest.raises(ValueError):
        set_fft_workers(0)


def test_map_transforms_raises_a_helper_error_as_itself(monkeypatch):
    # the caller sleeps on item 0, so the pooled helper takes item 1 and raises
    monkeypatch.setattr(grid, "_cores", lambda: 2)
    monkeypatch.setattr(grid, "_FFT_WORKERS", 2)
    error = ValueError("shape mismatch in a helper")

    def fn(x):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.2)
            return x
        raise error

    with pytest.raises(ValueError) as caught:
        map_transforms(fn, [0, 1])
    assert caught.value is error
    assert map_transforms(lambda x: -x, range(5)) == [0, -1, -2, -3, -4]


def test_map_transforms_takes_each_item_once_under_contention(monkeypatch):
    # more threads than cores and a tiny switch interval: a lost or doubled
    # index would show as a missing result or a repeated call
    monkeypatch.setattr(grid, "_cores", lambda: 8)
    monkeypatch.setattr(grid, "_FFT_WORKERS", -1)
    grid._pool.cache_clear()  # a 7-thread pool for this test only
    calls, failures = [], []

    def run():
        try:
            for _ in range(20):
                calls.clear()
                got = map_transforms(lambda x: calls.append(x) or x * x, range(200))
                if got != [x * x for x in range(200)] or sorted(calls) != list(range(200)):
                    failures.append((got, sorted(calls)))
        except Exception as exc:  # reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
        grid._pool().shutdown()
        grid._pool.cache_clear()
    assert not failures
